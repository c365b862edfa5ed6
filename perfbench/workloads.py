"""Seeded task streams for the three benchmark workloads.

Every input is drawn from the benchmark's own ``random.Random`` seeded with
the workload name and ``--seed``; nothing here reads toolrouter's fuzz
generators or ``BenchConfig.seed``.  Faults use only ``DOWN_FROM_START`` and
``FAIL_AT_STEP``.  A workload object holds the generated task list; its
``run_task`` drives toolrouter as a user would (build the graph and tool
states, supply an invoker, prober and ``RuleReasoner``, call
``execute_task``), and its ``silent_success`` says whether a SUCCESS trace
lacks the outcomes the task required.
"""

from __future__ import annotations

import random
from array import array
from dataclasses import dataclass

from toolrouter.calibration import BreakerPhase, SimClock, ToolState
from toolrouter.graph import ToolGraph
from toolrouter.orchestrator import (
    ExecutionTrace,
    Outcome,
    RuleReasoner,
    TaskGoal,
    TaskRequest,
    TraceStatus,
    execute_task,
)
from toolrouter.scenarios import (
    FaultEffect,
    FaultEntry,
    FaultSchedule,
    ScheduledInvoker,
    ScheduledProber,
    scenario_tool_states,
)
from toolrouter.topologies import START, Topology, TopologyKind, achieved_outcomes, build_topology

FAILURE_KINDS = ("timeout", "error_response", "connection_refused")
FAULT_EFFECTS = (FaultEffect.DOWN_FROM_START, FaultEffect.FAIL_AT_STEP)
PROBE_VISIBLE_SHARE = 0.4
PROBE_LATENCY_MS = 5.0

REQUEST_TEXT = {
    "customer_support": "please refund my duplicate order",
    "travel_booking": "book a trip to Lisbon for two",
    "content_moderation": "review this reported post",
}


def _fault(rng: random.Random, tool: str, max_step: int) -> FaultEntry:
    effect = rng.choice(FAULT_EFFECTS)
    return FaultEntry(
        tool=tool,
        effect=effect,
        kind=rng.choice(FAILURE_KINDS),
        probe_visible=rng.random() < PROBE_VISIBLE_SHARE,
        at_step=rng.randint(1, max_step) if effect is FaultEffect.FAIL_AT_STEP else 0,
    )


def goal_nodes(goal: TaskGoal) -> dict[str, str]:
    """Goal id -> goal node, for the goal and every rung of its ladder."""
    return {goal.id: goal.goal_node, **{o.goal_id: o.goal_node for o in goal.ladder}}


def _paper_silent(topo: Topology, trace: ExecutionTrace) -> bool:
    met = achieved_outcomes(topo.domain, trace.successes(), demoted=bool(trace.demotions))
    return trace.status is TraceStatus.SUCCESS and not set(topo.required_outcomes) <= met


# -- paper_fuzz ---------------------------------------------------------

PAPER_TASKS = 10_000
MAX_FAULTS = 5


@dataclass(frozen=True)
class PaperTask:
    topology: Topology
    schedule: FaultSchedule
    request: TaskRequest


class PaperFuzz:
    """Random fault schedules, round-robin over the paper's three topologies;
    every task gets a fresh graph and fresh hard-failure tool states."""

    name = "paper_fuzz"

    def __init__(self, seed: int) -> None:
        rng = random.Random(f"{self.name}/{seed}")
        topos = [build_topology(kind) for kind in TopologyKind]
        tools = {t.kind: t.fresh_graph().tool_nodes() for t in topos}
        requests = {t.kind: TaskRequest(text=REQUEST_TEXT[t.domain]) for t in topos}
        self.tasks: list[PaperTask] = []
        for i in range(PAPER_TASKS):
            topo = topos[i % len(topos)]
            chosen = rng.sample(tools[topo.kind], rng.randint(0, MAX_FAULTS))
            schedule = FaultSchedule(tuple(_fault(rng, tool, 4) for tool in chosen))
            self.tasks.append(PaperTask(topo, schedule, requests[topo.kind]))

    def run_task(self, task: PaperTask) -> ExecutionTrace:
        graph = task.topology.fresh_graph()
        invoker = ScheduledInvoker(task.schedule)
        return execute_task(
            task.topology.goal,
            graph,
            invoker,
            RuleReasoner(),
            SimClock(),
            task.request,
            start=START,
            tool_states=scenario_tool_states(graph),
            prober=ScheduledProber(task.schedule, invoker),
        )

    def goal_nodes(self, task: PaperTask) -> dict[str, str]:
        return goal_nodes(task.topology.goal)

    def silent_success(self, task: PaperTask, trace: ExecutionTrace) -> bool:
        return _paper_silent(task.topology, trace)


# -- wide_catalog -------------------------------------------------------

CATALOGUE_TASKS = 1_500
STAGES = 10
PROVIDERS = 50
BACKUP_LINKS = 4
CATALOGUES = 8
CATALOGUE_GOAL = TaskGoal(id="fulfil_order", goal_node="goal")
RISKY_EVERY = 10  # one task in each run of ten carries a high-value amount
RISKY_AMOUNT = 25_000.0


@dataclass(frozen=True)
class Catalogue:
    nodes: tuple[tuple[str, float, bool], ...]  # id, base cost, sentinel
    edges: tuple[tuple[str, str, float], ...]
    primaries: tuple[str, ...]
    tools: tuple[str, ...]


def _catalogue(rng: random.Random) -> Catalogue:
    """Staged catalogue: every provider links to the next stage's primary
    (provider 0) at cost 1 and to BACKUP_LINKS random backups at cost 2-4."""
    stages = [[f"s{k}p{j:02d}" for j in range(PROVIDERS)] for k in range(STAGES)]
    nodes = [(START, 1.0, True), (CATALOGUE_GOAL.goal_node, 1.0, True)]
    for stage in stages:
        nodes += [(p, 1.0 if j == 0 else 2.0, False) for j, p in enumerate(stage)]
    edges = []
    for upstream, stage in zip([[START]] + stages, stages):
        for src in upstream:
            edges.append((src, stage[0], 1.0))
            for dst in rng.sample(stage[1:], BACKUP_LINKS):
                edges.append((src, dst, float(rng.randint(2, 4))))
    edges += [(src, CATALOGUE_GOAL.goal_node, 1.0) for src in stages[-1]]
    tools = tuple(p for stage in stages for p in stage)
    return Catalogue(tuple(nodes), tuple(edges), tuple(s[0] for s in stages), tools)


def catalogue_graph(cat: Catalogue) -> ToolGraph:
    """A fresh graph for one task: what ``Topology.fresh_graph`` does for the
    paper topologies, for a catalogue toolrouter has no topology kind for."""
    graph = ToolGraph()
    add_catalogue(graph, cat)
    return graph


def add_catalogue(graph: ToolGraph, cat: Catalogue) -> None:
    for node, cost, sentinel in cat.nodes:
        graph.add_node(node, base_cost=cost, sentinel=sentinel)
    for src, dst, w in cat.edges:
        graph.add_edge(src, dst, w)


@dataclass(frozen=True)
class CatalogueTask:
    catalogue: Catalogue
    schedule: FaultSchedule
    request: TaskRequest


class WideCatalog:
    """The same loop over a few synthetic ~500-tool catalogues.  The graph is
    rebuilt with add_node/add_edge for every task, because the graph carries
    per-task state (completed nodes, quarantine weights)."""

    name = "wide_catalog"

    def __init__(self, seed: int) -> None:
        rng = random.Random(f"{self.name}/{seed}")
        catalogues = [_catalogue(rng) for _ in range(CATALOGUES)]
        self.tasks: list[CatalogueTask] = []
        for block in range(0, CATALOGUE_TASKS, RISKY_EVERY):
            risky = block + rng.randrange(RISKY_EVERY)
            for i in range(block, min(block + RISKY_EVERY, CATALOGUE_TASKS)):
                cat = catalogues[i % CATALOGUES]
                down = rng.sample(cat.primaries, rng.randint(0, 3))
                down += [t for t in rng.sample(cat.tools, rng.randint(0, 4)) if t not in down]
                schedule = FaultSchedule(tuple(_fault(rng, tool, STAGES - 1) for tool in down))
                if i == risky:
                    request = TaskRequest(
                        text="order the quarterly bundle",
                        amount=RISKY_AMOUNT,
                        risk_visible_after=rng.randint(2, STAGES - 2),
                    )
                else:
                    request = TaskRequest(text="order the quarterly bundle")
                self.tasks.append(CatalogueTask(cat, schedule, request))

    def run_task(self, task: CatalogueTask) -> ExecutionTrace:
        graph = catalogue_graph(task.catalogue)
        invoker = ScheduledInvoker(task.schedule)
        return execute_task(
            CATALOGUE_GOAL,
            graph,
            invoker,
            RuleReasoner(),
            SimClock(),
            task.request,
            start=START,
            tool_states=scenario_tool_states(graph),
            prober=ScheduledProber(task.schedule, invoker),
        )

    def goal_nodes(self, task: CatalogueTask) -> dict[str, str]:
        return goal_nodes(CATALOGUE_GOAL)

    def silent_success(self, task: CatalogueTask, trace: ExecutionTrace) -> bool:
        """Success must come with every tool on the final route done (the
        audit checks that the route reaches the goal)."""
        route_tools = set(trace.resolution.get("path", ())) - {START, CATALOGUE_GOAL.goal_node}
        return trace.status is TraceStatus.SUCCESS and not route_tools <= trace.successes()


# -- long_session -------------------------------------------------------

SESSION_TASKS = 40_000
BASE_FAILURE_RATE = 0.02
# A few tools fail often; fixed by name so that every seed shares the same
# failure profile and seeds vary only the draws.
FLAKY_TOOLS = {"stripe": 0.30, "hotel_primary": 0.30, "action_queue": 0.25, "image_classifier": 0.30}
NOMINAL_LATENCY_MS = 120.0
LATENCY_JITTER = 0.4
OUTCOME_TABLE = 8192
PROBE_CADENCE_MS = 2_000
TASK_GAP_MS = (0, 2_000)


class OutcomeTable:
    """Pre-drawn call and probe outcomes per tool, consumed in order (and
    cycled), so the session replays identically for a seed.  Draws are kept
    as flat arrays, not Outcome objects, so that the inputs add little to
    the process's memory; each call builds its Outcome as an invoker would."""

    def __init__(self, rng: random.Random, tools: list[str]) -> None:
        self.latencies: dict[str, array] = {}
        self.kinds: dict[str, bytes] = {}  # 0: success, k: FAILURE_KINDS[k - 1]
        self.probes: dict[str, bytes] = {}  # 1: the probe succeeds
        self._next_call = dict.fromkeys(tools, 0)
        self._next_probe = dict.fromkeys(tools, 0)
        for tool in tools:
            rate = FLAKY_TOOLS.get(tool, BASE_FAILURE_RATE)
            latencies, kinds = array("d"), bytearray()
            for _ in range(OUTCOME_TABLE):
                latencies.append(NOMINAL_LATENCY_MS * (1.0 + rng.uniform(-LATENCY_JITTER, LATENCY_JITTER)))
                kinds.append(1 + rng.randrange(len(FAILURE_KINDS)) if rng.random() < rate else 0)
            self.latencies[tool] = latencies
            self.kinds[tool] = bytes(kinds)
            self.probes[tool] = bytes(rng.random() >= rate for _ in range(OUTCOME_TABLE))

    def next_call(self, tool: str) -> Outcome:
        i = self._next_call[tool]
        self._next_call[tool] = i + 1
        kind = self.kinds[tool][i % OUTCOME_TABLE]
        latency = self.latencies[tool][i % OUTCOME_TABLE]
        return Outcome.failed(FAILURE_KINDS[kind - 1], latency) if kind else Outcome.ok(latency)

    def next_probe(self, tool: str) -> bool:
        i = self._next_probe[tool]
        self._next_probe[tool] = i + 1
        return bool(self.probes[tool][i % OUTCOME_TABLE])


class SessionInvoker:
    """Fails each tool at its fixed rate, with jittered latency."""

    def __init__(self, table: OutcomeTable) -> None:
        self.table = table

    def invoke(self, node: str, clock: SimClock) -> Outcome:
        return self.table.next_call(node)


class SessionProber:
    """Re-probes every OPEN breaker at most once per PROBE_CADENCE_MS of
    simulated time, so tripped tools cool down and come back."""

    def __init__(self, table: OutcomeTable) -> None:
        self.table = table
        self.last_probe: dict[str, int] = {}

    def scan(self, clock: SimClock, states, attempts: int) -> list[str]:
        for tool, state in states.items():
            if state.breaker.phase is not BreakerPhase.OPEN:
                continue
            if clock.now - self.last_probe.get(tool, -PROBE_CADENCE_MS) < PROBE_CADENCE_MS:
                continue
            self.last_probe[tool] = clock.now
            state.run_health_probe(clock, PROBE_LATENCY_MS, self.table.next_probe(tool))
        return []  # only OPEN breakers are probed, so none is newly opened here


@dataclass(frozen=True)
class SessionTask:
    topology: Topology
    gap_ms: int  # simulated idle time before the task arrives
    request: TaskRequest


class LongSession:
    """The paper topologies again, but one SimClock and one set of default
    ToolStates persist across the whole stream, so telemetry windows fill
    and breakers trip and recover between tasks."""

    name = "long_session"

    def __init__(self, seed: int) -> None:
        rng = random.Random(f"{self.name}/{seed}")
        topos = [build_topology(kind) for kind in TopologyKind]
        tools = {t.kind: t.fresh_graph().tool_nodes() for t in topos}
        every_tool = sorted(t for names in tools.values() for t in names)
        self.clock = SimClock()
        states = {t: ToolState(t) for t in every_tool}
        self.states = {t.kind: {name: states[name] for name in tools[t.kind]} for t in topos}
        self.table = OutcomeTable(rng, every_tool)
        self.invoker = SessionInvoker(self.table)
        self.prober = SessionProber(self.table)
        requests = {t.kind: TaskRequest(text=REQUEST_TEXT[t.domain]) for t in topos}
        self.tasks = []
        for i in range(SESSION_TASKS):
            topo = topos[i % len(topos)]
            self.tasks.append(SessionTask(topo, rng.randint(*TASK_GAP_MS), requests[topo.kind]))

    def run_task(self, task: SessionTask) -> ExecutionTrace:
        self.clock.advance(task.gap_ms)
        return execute_task(
            task.topology.goal,
            task.topology.fresh_graph(),
            self.invoker,
            RuleReasoner(),
            self.clock,
            task.request,
            start=START,
            tool_states=self.tool_states(task),
            prober=self.prober,
        )

    def tool_states(self, task: SessionTask) -> dict[str, ToolState]:
        """The session's states for the task's tools; nothing is rebuilt."""
        return self.states[task.topology.kind]

    def goal_nodes(self, task: SessionTask) -> dict[str, str]:
        return goal_nodes(task.topology.goal)

    def silent_success(self, task: SessionTask, trace: ExecutionTrace) -> bool:
        return _paper_silent(task.topology, trace)


WORKLOADS = {w.name: w for w in (PaperFuzz, WideCatalog, LongSession)}
