"""Self-healing task execution over a tool graph.

The loop: route with shortest-path search, invoke tools along the route,
and on any failure quarantine the offending nodes and recompute the route
from the last completed position, skipping finished work wherever the new
route passes it.  Finished work is never blocked, even once quarantined, so
a tool that goes down after it succeeded strands nothing.  The pluggable
reasoner is consulted only when no route exists (goal demotion, then
escalation) or when a risk signal wins the monitor competition.  Every run
terminates in exactly one of two states: SUCCESS with the executed route,
or ESCALATED with an explicit demotion/handoff record.

Monitors sweep before the initial route and before every step.  A failed
call triggers an immediate sweep, and the failed tool joins the outages that
sweep reports, so simultaneous outages are quarantined as one batch with a
single recompute.  Every sweep runs the probes, the monitors and the
competition; the monitors read the live breakers, the quarantine set and
the risk inputs visible at that moment.
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass, field
from enum import Enum
from typing import Mapping, Protocol

from .calibration import SimClock, ToolState
from .errors import ToolrouterError
from .graph import BadLaneEdge, RoutePath, ToolGraph
from .monitors import DEFAULT_MONITOR_CONFIG, MonitorConfig, MonitorError, compete, run_all_monitors

_MAX_LOOP = 10_000  # route passes before a run escalates as "loop_bound"


class OrchestratorError(ToolrouterError):
    pass


class MalformedGoal(OrchestratorError):
    pass


class BadOutcome(OrchestratorError):
    pass


@dataclass(frozen=True)
class Outcome:
    """Result of one tool invocation."""

    success: bool
    latency_ms: float = 100.0
    failure_kind: str | None = None  # timeout | error_response | connection_refused

    @staticmethod
    def ok(latency_ms: float = 100.0) -> "Outcome":
        return Outcome(True, latency_ms)

    @staticmethod
    def failed(kind: str = "error_response", latency_ms: float = 100.0) -> "Outcome":
        return Outcome(False, latency_ms, kind)


class ToolInvoker(Protocol):
    def invoke(self, node: str, clock: SimClock) -> Outcome: ...


def _check_outcome(node: str, outcome: object) -> None:
    """Raise ``BadOutcome`` naming the field unless an invoker's reply is an
    ``Outcome`` whose ``success`` is a bool, whose ``latency_ms`` is a finite
    int or float >= 0 and whose ``failure_kind`` is None or a str.  Checked
    where the reply enters ``execute_task``, not when it is made: a
    long_session task makes one per call."""
    if not isinstance(outcome, Outcome):
        raise BadOutcome(f"invoker reply for {node!r} must be an Outcome, got {type(outcome).__name__}")
    if type(outcome.success) is not bool:
        name, want = "success", "a bool"
    elif type(outcome.latency_ms) not in (int, float) or not 0 <= outcome.latency_ms < math.inf:
        name, want = "latency_ms", "a finite number >= 0"
    elif outcome.failure_kind is not None and type(outcome.failure_kind) is not str:
        name, want = "failure_kind", "None or a str"
    else:
        return
    raise BadOutcome(f"invoker outcome for {node!r}: {name} must be {want}, got {getattr(outcome, name)!r}")


class Prober(Protocol):
    """Proactive health checks, driven by the orchestrator's sweeps."""

    def scan(self, clock: SimClock, states: Mapping[str, ToolState], attempts: int) -> list[str]: ...


@dataclass(frozen=True)
class DemotionOption:
    """One rung of a goal's fallback ladder.  Once the rung is tried, its
    ``extra_edges`` join the lane that the task's later searches route over
    (``ToolGraph.shortest_path``); no graph is written, so fallback-only
    routes never reach primary routing or another task.  Every lane edge
    must be a ``(src, dst, weight)`` tuple of two node ids and a number;
    which nodes and weights are valid is checked when the lane is searched."""

    goal_id: str
    goal_node: str
    extra_edges: tuple[tuple[str, str, float], ...] = ()

    def __post_init__(self):
        if type(self.extra_edges) is not tuple:
            raise BadLaneEdge(f"demotion rung {self.goal_id!r}: extra_edges must be a tuple, got {self.extra_edges!r}")
        for edge in self.extra_edges:
            if not (
                type(edge) is tuple
                and len(edge) == 3
                and isinstance(edge[0], str)
                and isinstance(edge[1], str)
                and type(edge[2]) in (int, float)
            ):
                raise BadLaneEdge(f"demotion rung {self.goal_id!r}: lane edge {edge!r} must be (src, dst, weight)")


@dataclass(frozen=True)
class TaskGoal:
    id: str
    goal_node: str
    ladder: tuple[DemotionOption, ...] = ()


@dataclass(frozen=True)
class TaskRequest:
    """The inbound request as the monitors will see it.  Risk inputs may be
    hidden until ``risk_visible_after`` tool steps have completed (e.g. an
    order lookup reveals the amount).  No monitor or route reads the text.
    A bad risk input raises ``MonitorError`` naming the field when the
    request is made."""

    text: str
    amount: float | None = None
    risk_score: float | None = None
    risk_visible_after: int = 0

    def __post_init__(self):
        for name in ("amount", "risk_score"):
            value = getattr(self, name)
            if value is not None and (type(value) not in (int, float) or not value >= 0):
                raise MonitorError(f"request {name} must be None or a number >= 0, got {value!r}")
        if type(self.risk_visible_after) is not int or self.risk_visible_after < 0:
            raise MonitorError(f"request risk_visible_after must be an integer >= 0, got {self.risk_visible_after!r}")


@dataclass(frozen=True)
class ReasonerQuery:
    kind: str  # "demotion" | "escalation" | "risk_escalation"
    original_goal: str
    active_goal: str
    remaining_options: tuple[str, ...]
    detail: str = ""


@dataclass(frozen=True)
class DemotedGoal:
    goal_id: str


@dataclass(frozen=True)
class Escalate:
    note: str


class Reasoner(Protocol):
    def consult(self, query: ReasonerQuery) -> DemotedGoal | Escalate: ...


class RuleReasoner:
    """Deterministic stand-in for an LLM: demotion queries propose the next
    untried ladder option, everything else escalates with a handoff note."""

    def consult(self, query: ReasonerQuery) -> DemotedGoal | Escalate:
        if query.kind == "demotion" and query.remaining_options:
            return DemotedGoal(query.remaining_options[0])
        if query.kind == "demotion":
            return Escalate(f"no viable fallback for {query.original_goal}; handing off ({query.detail})")
        return Escalate(f"escalating {query.active_goal}: {query.detail}")


class TraceStatus(Enum):
    SUCCESS = "success"
    ESCALATED = "escalated"


@dataclass(frozen=True, slots=True)
class ToolCall:
    """A read-only view of one ``tool_call`` event."""

    node: str
    success: bool
    failure_kind: str | None
    at_ms: int

    def as_dict(self) -> dict:
        return {"node": self.node, "success": self.success, "failure_kind": self.failure_kind, "at_ms": self.at_ms}


# Events that count as a recovery: the router's reroute around a failure
# batch, and the static workflow's pre-coded fallback, skip and diversion
# edges.
RECOVERY_EVENTS = ("reroute", "fallback", "classifier_skipped", "toxicity_branch")
RECOMPUTE_EVENTS = ("reroute", "route_exhausted")
ROUTE_EVENTS = ("routed", "demoted", *RECOMPUTE_EVENTS)


@dataclass(slots=True)
class ExecutionTrace:
    """Complete record of one task run; the unit of benchmark accounting.

    The timeline (``events``) is the record.  The call list and the
    counters (``tool_calls``, ``tool_call_count``, ``successes()``,
    ``llm_calls``, ``recovery_events``, ``failure_recomputes`` and
    ``demotions``) are folds of it, computed when read.  ``completed``,
    ``quarantined`` and ``final_goal`` are stored, because ``execute_task``
    reads them on every step."""

    goal_id: str
    status: TraceStatus = TraceStatus.SUCCESS
    resolution: dict = field(default_factory=dict)
    completed: set[str] = field(default_factory=set)
    quarantined: frozenset[str] = frozenset()  # replaced, never written, on each quarantine batch
    events: list[dict] = field(default_factory=list)
    final_goal: str = ""

    @property
    def tool_calls(self) -> list[ToolCall]:
        """The ``tool_call`` events, in order."""
        return [
            ToolCall(ev["node"], ev["success"], ev["kind"], ev["t_ms"]) for ev in self.events if ev["event"] == "tool_call"
        ]

    @property
    def tool_call_count(self) -> int:
        return sum(ev["event"] == "tool_call" for ev in self.events)

    def successes(self) -> set[str]:
        return {ev["node"] for ev in self.events if ev["event"] == "tool_call" and ev["success"]}

    @property
    def llm_calls(self) -> int:
        """Reasoner calls: one ``consult`` event each."""
        return sum(ev["event"] == "consult" for ev in self.events)

    @property
    def recovery_events(self) -> int:
        """Failures healed without the reasoner (``RECOVERY_EVENTS``)."""
        return sum(ev["event"] in RECOVERY_EVENTS for ev in self.events)

    @property
    def failure_recomputes(self) -> int:
        """Route recomputations triggered by failures: the ``reroute`` and
        ``route_exhausted`` events after the task's first route event."""
        recomputes = 0
        routed = False
        for ev in self.events:
            kind = ev["event"]
            if kind in ROUTE_EVENTS:
                if routed and kind in RECOMPUTE_EVENTS:
                    recomputes += 1
                routed = True
        return recomputes

    @property
    def demotions(self) -> list[dict]:
        """One ``{from, to, at_ms}`` per ``demoted`` event, chained from
        the original goal."""
        demotions = []
        active = self.goal_id
        for ev in self.events:
            if ev["event"] == "demoted":
                demotions.append({"from": active, "to": ev["goal"], "at_ms": ev["t_ms"]})
                active = ev["goal"]
        return demotions

    def log(self, at_ms: int, event: str, **detail) -> None:
        self.events.append({"t_ms": at_ms, "event": event, **detail})

    def as_dict(self) -> dict:
        return {
            "goal": self.goal_id,
            "final_goal": self.final_goal,
            "status": self.status.value,
            "resolution": self.resolution,
            "tool_calls": [c.as_dict() for c in self.tool_calls],
            "recovery_events": self.recovery_events,
            "failure_recomputes": self.failure_recomputes,
            "llm_calls": self.llm_calls,
            "completed": sorted(self.completed),
            "demotions": self.demotions,
            "quarantined": sorted(self.quarantined),
            "timeline": self.events,
        }

    def to_json(self) -> str:
        return json.dumps(self.as_dict(), indent=2, sort_keys=True)


def execute_task(
    goal: TaskGoal,
    graph: ToolGraph,
    invoker: ToolInvoker,
    reasoner: Reasoner,
    clock: SimClock,
    request: TaskRequest,
    *,
    start: str = "start",
    monitor_config: MonitorConfig | None = None,
    tool_states: Mapping[str, ToolState] | None = None,
    prober: Prober | None = None,
) -> ExecutionTrace:
    if goal.goal_node not in graph.nodes:
        raise MalformedGoal(f"goal node {goal.goal_node!r} not in graph")
    if start not in graph.nodes:
        raise MalformedGoal(f"start node {start!r} not in graph")

    cfg = monitor_config or DEFAULT_MONITOR_CONFIG
    states: Mapping[str, ToolState] = tool_states if tool_states is not None else {
        t: ToolState(t) for t in graph.tool_nodes()
    }
    trace = ExecutionTrace(goal_id=goal.id, final_goal=goal.id)
    position = start  # last successfully completed node
    goal_node = goal.goal_node
    ladder_index = 0  # ladder options before this index have been tried
    lane: tuple[tuple[str, str, float], ...] = ()  # extra_edges of every rung tried
    calls = 0  # tool calls made, the prober's attempt count

    def sweep():
        if prober is not None:
            opened = prober.scan(clock, states, attempts=calls)
            if opened:
                trace.log(clock.now, "probe_detected", tools=opened)
        # A tool is never invoked again once it succeeds, and the goal
        # sentinel joins ``completed`` only after the last sweep, so on a
        # route whose only sentinels are its ends this counts the
        # successful tool calls so far.
        if len(trace.completed) >= request.risk_visible_after:
            return compete(run_all_monitors(states, trace.quarantined, request.amount, request.risk_score, cfg))
        return compete(run_all_monitors(states, trace.quarantined, None, None, cfg))

    def alerts(winner) -> list[str]:
        return winner.payload["tools"] if winner.source == "tool_health" else []

    def interrupted(winner) -> bool:
        """A winning risk signal ends the run with one consult: risk wins
        only when a threshold flags the request."""
        if winner.source == "risk":
            consult("risk_escalation", f"risk flags {winner.payload['flags']}")
            return True
        return False

    def quarantine(nodes: list[str]) -> None:
        trace.quarantined = trace.quarantined.union(nodes)
        trace.log(clock.now, "quarantine", tools=sorted(nodes))

    def blocked() -> frozenset[str]:
        """The blocked set of a search from ``position``: the quarantined
        tools the task has not finished.  A tool quarantined after it
        succeeded blocks no route onward, and it is never invoked again:
        the walk skips finished work wherever a route passes it."""
        return trace.quarantined - trace.completed

    def escalate(kind: str, note: str) -> None:
        trace.status = TraceStatus.ESCALATED
        trace.resolution = {"kind": kind, "note": note}
        trace.log(clock.now, "escalated", kind=kind, note=note)

    def consult(kind: str, detail: str) -> RoutePath | None:
        """The one reasoner call site; each reply is logged as a
        ``consult`` event of its query kind and reply type.  A demotion
        query answered with an untried rung of the ladder makes that rung
        the active goal and returns its route, searched from ``position``
        around the unfinished quarantined tools (``blocked``); a rung that
        is unroutable is followed by one escalation query.  Any other reply
        ends the run as ESCALATED and returns None, as kind ``bad_reply``
        unless it is a ``DemotedGoal`` or an ``Escalate`` with a non-empty
        ``str`` note; a reasoner's exception propagates, and logs nothing.
        This loops rather than recursing: a recursive closure would form a
        reference cycle that keeps the task's state alive until a garbage
        collection.  A bad lane edge is first searched over, so raised, by
        the demotion search of the rung that brought it."""
        nonlocal goal_node, ladder_index, lane
        while True:
            query = ReasonerQuery(
                kind=kind,
                original_goal=goal.id,
                active_goal=trace.final_goal,
                remaining_options=tuple(o.goal_id for o in goal.ladder[ladder_index:]),
                detail=detail,
            )
            verdict = reasoner.consult(query)
            trace.log(clock.now, "consult", query=kind, reply=type(verdict).__name__)
            if isinstance(verdict, Escalate) and type(verdict.note) is str and verdict.note:
                note = verdict.note
                break
            if not isinstance(verdict, DemotedGoal):
                kind, note = "bad_reply", f"malformed reasoner reply of type {type(verdict).__name__}"
                break
            if kind != "demotion":
                note = f"unexpected demotion {verdict.goal_id}"
                break
            option = next((o for o in goal.ladder[ladder_index:] if o.goal_id == verdict.goal_id), None)
            if option is None:
                note = f"rejected demotion to {verdict.goal_id!r}: not an untried option for {goal.id}"
                break
            ladder_index = goal.ladder.index(option) + 1
            lane += option.extra_edges
            try:
                route = graph.shortest_path(position, option.goal_node, lane, blocked())
            except BadLaneEdge as exc:
                raise BadLaneEdge(f"demotion rung {option.goal_id!r}: {exc}") from None
            if route is not None:
                goal_node = option.goal_node
                trace.final_goal = option.goal_id
                trace.log(clock.now, "demoted", goal=option.goal_id, path=list(route.nodes))
                return route
            trace.log(clock.now, "demotion_unroutable", goal=option.goal_id)
            kind, detail = "escalation", f"fallback goal {option.goal_id} unreachable from {position}"
        escalate("handoff" if kind == "demotion" else kind, note)
        return None

    def route(event: str, detail: str) -> RoutePath | None:
        """The one route search: from the last completed node to the active
        goal over the tried rungs' lane, logged as ``event`` (``routed``
        first, ``reroute`` after a quarantine).  It blocks only unfinished
        quarantined tools (``blocked``), so a quarantine of work already
        done, the last completed node included, never forces a consult while
        a route onward exists.  A null route is logged as
        ``route_exhausted`` and consults once for a demotion.  Returns the
        route to walk, or None once escalated."""
        path = graph.shortest_path(position, goal_node, lane, blocked())
        if path is None:
            trace.log(clock.now, "route_exhausted", source=position, goal=goal_node)
            return consult("demotion", detail)
        trace.log(clock.now, event, path=list(path.nodes), cost=path.total_cost)
        return path

    # Pre-execution sweep: probe-detected outages are quarantined before the
    # first route is computed; an already-visible risk escalates before any
    # tool is touched.
    winner = sweep()
    trace.log(clock.now, "monitor_winner", source=winner.source, priority=winner.priority)
    if interrupted(winner):
        return trace
    if alerts(winner):
        quarantine(alerts(winner))
    path = route("routed", "no initial route")
    if path is None:
        return trace

    for _ in range(_MAX_LOOP):
        # Each pass walks the current route past its source.  A node the task
        # already finished is skipped wherever it lies on the route (a reroute
        # on a cyclic graph may pass it again); a recovery ends the pass with
        # the route to resume on.
        for node in path.nodes[1:]:
            if node in trace.completed:
                position = node
                continue
            winner = sweep()
            if interrupted(winner):
                return trace
            if alerts(winner):
                quarantine(alerts(winner))
                path = route("reroute", "no route after quarantine")
                break
            if node not in graph.sentinels:
                outcome = invoker.invoke(node, clock)
                calls += 1
                _check_outcome(node, outcome)
                clock.advance(outcome.latency_ms)
                state = states.get(node)
                if state is not None:
                    state.record_call(clock, outcome.latency_ms, outcome.success)
                trace.log(clock.now, "tool_call", node=node, success=outcome.success, kind=outcome.failure_kind)
                if not outcome.success:
                    # The failed call joins the outages its failure sweep
                    # reports; the batch is quarantined before the single
                    # recompute.  ``node`` is not yet quarantined, as every
                    # quarantine ends the pass; risk cannot win, as a failed
                    # call leaves visibility as it was and the sweep before
                    # the call did not escalate.
                    quarantine(sorted({node}.union(alerts(sweep()))))
                    path = route("reroute", f"failure of {node} exhausted the route")
                    break
                position = node
            trace.completed.add(node)
        else:
            trace.resolution = {"kind": "completed", "goal": trace.final_goal, "path": list(path.nodes)}
            trace.log(clock.now, "completed", goal=trace.final_goal)
            return trace
        if path is None:
            return trace

    escalate("loop_bound", f"route pass bound {_MAX_LOOP} reached before a terminal state")
    return trace
