"""The 19 benchmark scenarios: fault schedules, requests, expected fixtures.

Scenario files ship as package data (one JSON per scenario) and are verified
against an embedded checksum at load time, so a corrupted or hand-edited
fixture fails loudly rather than silently skewing the benchmark.  A loader
override directory is accepted for experimentation; a malformed file there
raises ``FixtureCorrupt`` naming the scenario and the field.

The fault schedule drives a deterministic invoker and prober: effects say
when a tool is down (from the start, or once k call attempts happened)
and whether background health probes can see the outage before a request
trips over it.  ``run_schedule`` is the one place a scheduled run of the
router is set up; the fixtures (``run_self_healing``), the fuzzer and the
tests all go through it.  ``bench.run_architecture`` is the one place the
three architectures are told apart.
"""

from __future__ import annotations

import json
import zlib
from dataclasses import dataclass
from enum import Enum
from importlib import resources
from pathlib import Path
from typing import Mapping

from .calibration import BreakerPhase, SimClock, ToolCalibration, ToolState
from .errors import ToolrouterError
from .graph import ToolGraph
from .monitors import MonitorConfig, MonitorError
from .orchestrator import (
    ExecutionTrace,
    Outcome,
    RuleReasoner,
    TaskRequest,
    execute_task,
)
from .topologies import START, Topology, build_topology

SCENARIO_IDS = [
    "S1", "S2", "S3", "S4", "S5", "S6", "S7",
    "T1", "T2", "T3", "T4", "T5", "T6",
    "M1", "M2", "M3", "M4", "M5", "M6",
]

# CRC-32 over the table-pinned fixture cells of all 19 scenarios, in order:
# a guard against accidental edits, not a security boundary.  zlib's CRC
# needs no OpenSSL, which would add about 3.6 MiB to every process.
EXPECTED_FIXTURE_DIGEST = "78c217aa"

TOOL_CALL_LATENCY_MS = 100.0
PROBE_LATENCY_MS = 5.0


class ScenarioError(ToolrouterError):
    pass


class FixtureCorrupt(ScenarioError):
    pass


class UnknownTool(ScenarioError):
    pass


class FaultEffect(Enum):
    DOWN_FROM_START = "DOWN_FROM_START"
    FAIL_AT_STEP = "FAIL_AT_STEP"


@dataclass(frozen=True, slots=True)
class FaultEntry:
    tool: str
    effect: FaultEffect
    kind: str = "error_response"  # timeout | error_response | connection_refused
    probe_visible: bool = False
    at_step: int = 0  # FAIL_AT_STEP: down once this many call attempts happened

    def active(self, attempts: int) -> bool:
        if self.effect is FaultEffect.FAIL_AT_STEP:
            return attempts >= self.at_step
        return True


@dataclass(frozen=True, slots=True)
class FaultSchedule:
    entries: tuple[FaultEntry, ...] = ()

    def validate_against(self, graph: ToolGraph) -> None:
        tools = set(graph.tool_nodes())
        for e in self.entries:
            if e.tool not in tools:
                raise UnknownTool(f"fault entry references unknown tool {e.tool!r}")


_DEFAULT_OK = Outcome.ok(TOOL_CALL_LATENCY_MS)


class HealthyInvoker:
    """Every call succeeds at a fixed latency; the no-fault baseline.

    ``Outcome`` is frozen, so every call returns one shared success, made
    again only once ``latency_ms`` has been set to another value.
    """

    def __init__(self, latency_ms: float = TOOL_CALL_LATENCY_MS):
        self.latency_ms = latency_ms
        self._ok = _DEFAULT_OK

    def invoke(self, node: str, clock: SimClock) -> Outcome:
        ok = self._ok
        if ok.latency_ms is not self.latency_ms:
            ok = self._ok = Outcome.ok(self.latency_ms)
        return ok


class ScheduledInvoker:
    """Wraps an invoker so scheduled outages fail exactly as written.

    Keeps a shared attempt counter so call-indexed effects land identically
    for every architecture replaying the same scenario.  The set of
    scheduled tools is taken once, when the invoker is made, so a call to
    any other tool reads no entry.
    """

    def __init__(self, schedule: FaultSchedule, base: HealthyInvoker | None = None):
        self.schedule = schedule
        self.base = base or HealthyInvoker()
        self.attempts = 0
        self._scheduled = {entry.tool for entry in schedule.entries}

    def _down(self, node: str) -> FaultEntry | None:
        for entry in self.schedule.entries:
            if entry.tool == node and entry.active(self.attempts):
                return entry
        return None

    def invoke(self, node: str, clock: SimClock) -> Outcome:
        entry = self._down(node) if node in self._scheduled else None
        self.attempts += 1
        if entry is not None:
            return Outcome.failed(entry.kind, self.base.latency_ms)
        return self.base.invoke(node, clock)


class ScheduledProber:
    """Background health checks over the same schedule.

    Only probe-visible outages are ever detected here; call-path-only
    failures (an auth error, say) stay invisible until a request hits them.
    One probe per tool per sweep keeps the cadence honest.  The
    probe-visible entries are taken once, when the prober is made; a
    schedule with none gives a scan that returns at once.
    """

    def __init__(self, schedule: FaultSchedule, invoker: ScheduledInvoker):
        self.schedule = schedule
        self.invoker = invoker  # unused (scan takes attempts from its caller); accepted because perfbench passes it
        self._visible = [entry for entry in schedule.entries if entry.probe_visible]

    def scan(self, clock: SimClock, states: Mapping[str, ToolState], attempts: int) -> list[str]:
        if not self._visible:
            return []
        opened = []
        for entry in self._visible:
            if not entry.active(attempts):
                continue
            state = states.get(entry.tool)
            if state is None or state.breaker.phase is BreakerPhase.OPEN:
                continue
            state.run_health_probe(clock, PROBE_LATENCY_MS, success=False)
            if state.breaker.phase is BreakerPhase.OPEN:
                opened.append(entry.tool)
        return sorted(opened)


@dataclass(frozen=True)
class ExpectedCounts:
    """Fixture cells.  ``shr_recoveries_tabulated`` marks whether the
    recovery cell comes from the reference tables (travel domain) or is a
    derived value kept for regression."""

    shr_llm: int
    shr_tools: int
    shr_recoveries: int
    shr_recoveries_tabulated: bool
    shr_status: str
    react_llm: int
    react_tools: int
    workflow_silent: bool
    classifiers_lost: int | None
    workflow_tools: int
    workflow_recoveries: int

    def pinned_cells(self) -> list:
        cells = [self.shr_llm, self.shr_tools]
        if self.shr_recoveries_tabulated:
            cells.append(self.shr_recoveries)
        cells += [self.react_llm, self.react_tools, self.workflow_silent]
        if self.classifiers_lost is not None:
            cells.append(self.classifiers_lost)
        return cells


@dataclass(frozen=True)
class Scenario:
    id: str
    name: str
    topology: Topology
    faults: FaultSchedule
    request: TaskRequest
    monitor_config: MonitorConfig
    content_toxic: bool
    expected: ExpectedCounts
    notes: str = ""

    @property
    def domain(self) -> str:
        return self.topology.domain


def _count(section: dict, key: str) -> int:
    value = section.get(key, 0)
    if type(value) is not int or value < 0:
        raise ValueError(f"{key} must be an integer >= 0, got {value!r}")
    return value


def _object(value: object, name: str) -> dict:
    if not isinstance(value, dict):
        raise TypeError(f"{name} must be an object, got {type(value).__name__}")
    return value


def _string(value: object, name: str) -> str:
    if not isinstance(value, str):
        raise TypeError(f"{name} must be a string, got {type(value).__name__}")
    return value


def _cell(section: dict, name: str, kind: type = int) -> int | bool:
    """One required ``expected`` cell: an integer >= 0, or a boolean."""
    value = section[name.rpartition(".")[2]]
    if type(value) is not kind or (kind is int and value < 0):
        wanted = "an integer >= 0" if kind is int else "a boolean"
        raise ValueError(f"{name} must be {wanted}, got {value!r}")
    return value


def _expected(exp: object) -> ExpectedCounts:
    exp = _object(exp, "expected")
    shr, react, workflow = (_object(exp[k], f"expected.{k}") for k in ("shr", "react", "workflow"))
    status = shr["status"]
    if status not in ("success", "escalated"):
        raise ValueError(f"expected.shr.status must be 'success' or 'escalated', got {status!r}")
    lost = workflow.get("classifiers_lost")
    return ExpectedCounts(
        shr_llm=_cell(shr, "expected.shr.llm_calls"),
        shr_tools=_cell(shr, "expected.shr.tool_calls"),
        shr_recoveries=_cell(shr, "expected.shr.recoveries"),
        shr_recoveries_tabulated=_cell(shr, "expected.shr.recoveries_tabulated", bool),
        shr_status=status,
        react_llm=_cell(react, "expected.react.llm_calls"),
        react_tools=_cell(react, "expected.react.tool_calls"),
        workflow_silent=_cell(workflow, "expected.workflow.silent_failure", bool),
        classifiers_lost=None if lost is None else _cell(workflow, "expected.workflow.classifiers_lost"),
        workflow_tools=_cell(workflow, "expected.workflow.tool_calls"),
        workflow_recoveries=_cell(workflow, "expected.workflow.recoveries"),
    )


def _parse_scenario(doc: dict) -> Scenario:
    """One scenario file; a missing key raises KeyError, a bad value
    ValueError or TypeError, a fault on a tool the topology lacks
    UnknownTool, and bad ``monitor_overrides`` MonitorError, each naming
    the field or the tool."""
    topology = build_topology(_string(doc["topology"], "topology"))
    faults = doc.get("faults", [])
    if not isinstance(faults, list):
        raise TypeError(f"faults must be a list, got {type(faults).__name__}")
    for i, e in enumerate(faults):
        _object(e, f"faults[{i}]")
        _string(e["tool"], f"faults[{i}].tool")
    entries = tuple(
        FaultEntry(
            tool=e["tool"],
            effect=FaultEffect(e["effect"]),
            kind=e.get("kind", "error_response"),
            probe_visible=bool(e.get("probe_visible", False)),
            at_step=_count(e, "at_step"),
        )
        for e in faults
    )
    schedule = FaultSchedule(entries)
    schedule.validate_against(topology.fresh_graph())
    req = _object(doc["request"], "request")
    if not isinstance(req["text"], str):
        raise TypeError(f"request text must be a string, got {type(req['text']).__name__}")
    try:
        request = TaskRequest(req["text"], req.get("amount"), req.get("risk_score"), req.get("risk_visible_after", 0))
    except MonitorError as exc:  # the request's own check, not the monitor overrides'
        raise ValueError(str(exc)) from exc
    monitor_config = MonitorConfig.from_dict(doc.get("monitor_overrides", {}))
    expected = _expected(doc["expected"])
    return Scenario(
        id=doc["id"],
        name=doc["name"],
        topology=topology,
        faults=schedule,
        request=request,
        monitor_config=monitor_config,
        content_toxic=bool(req.get("content_toxic", False)),
        expected=expected,
        notes=doc.get("notes", ""),
    )


def fixture_digest(scenarios: list[Scenario]) -> str:
    payload = [[s.id] + s.expected.pinned_cells() for s in scenarios]
    blob = json.dumps(payload, separators=(",", ":"), sort_keys=False)
    return f"{zlib.crc32(blob.encode()):08x}"


def load_scenarios(override_dir: str | Path | None = None) -> list[Scenario]:
    """All 19 scenarios in stable order S1..S7, T1..T6, M1..M6."""
    out = []
    for sid in SCENARIO_IDS:
        if override_dir is not None:
            text = (Path(override_dir) / f"{sid}.json").read_text()
        else:
            text = resources.files("toolrouter").joinpath(f"data/{sid}.json").read_text()
        try:
            doc = json.loads(text)
        except json.JSONDecodeError as exc:
            raise FixtureCorrupt(f"{sid}: invalid JSON ({exc.msg})") from exc
        if not isinstance(doc, dict):
            raise FixtureCorrupt(f"{sid}: expected a JSON object")
        try:
            scenario = _parse_scenario(doc)
        except KeyError as exc:
            raise FixtureCorrupt(f"{sid}: {exc.args[0]!r} is missing") from exc
        except (ValueError, TypeError, UnknownTool) as exc:
            raise FixtureCorrupt(f"{sid}: {exc}") from exc
        except MonitorError as exc:
            raise FixtureCorrupt(f"{sid}: monitor_overrides: {exc}") from exc
        if scenario.id != sid:
            raise FixtureCorrupt(f"{sid}: file declares id {scenario.id!r}")
        out.append(scenario)
    if override_dir is None:
        digest = fixture_digest(out)
        if digest != EXPECTED_FIXTURE_DIGEST:
            raise FixtureCorrupt(
                f"fixture digest mismatch: {digest} != {EXPECTED_FIXTURE_DIGEST}"
            )
    return out


HARD_FAILURE = ToolCalibration(trip_threshold=1)


def scenario_tool_states(graph: ToolGraph) -> dict[str, ToolState]:
    """Benchmark runs model hard failure: one bad call or probe trips the
    breaker, matching the static-weights regime the fixtures encode.

    A tool's state is made on first lookup and the dict holds only those
    made so far, which are the only ones whose breaker can be OPEN.  A task
    that calls ten tools of a 500-tool graph allocates ten states, not 500.
    The map copies no tool set: a lookup asks ``graph`` whether the key is
    a tool (a declared node that is not a sentinel).  Every state shares
    the frozen ``HARD_FAILURE`` calibration and has its own breaker.
    """
    return _StatesOnDemand(graph)


class _StatesOnDemand(dict):
    __slots__ = ("graph",)

    def __init__(self, graph: ToolGraph):
        self.graph = graph

    def __missing__(self, tool: str) -> ToolState:
        graph = self.graph
        if tool not in graph.nodes or tool in graph.sentinels:
            raise KeyError(tool)
        state = self[tool] = ToolState(tool, HARD_FAILURE)
        return state

    def get(self, tool: str, default=None):
        try:
            return self[tool]
        except KeyError:
            return default


def run_schedule(
    topology: Topology,
    schedule: FaultSchedule,
    request: TaskRequest,
    monitor_config: MonitorConfig | None = None,
) -> ExecutionTrace:
    """Run one task with the routing orchestrator on a fresh graph of
    ``topology`` against ``schedule``: a fresh clock, hard-failure tool
    states, the rule reasoner, and a prober over the same schedule."""
    graph = topology.fresh_graph()
    invoker = ScheduledInvoker(schedule)
    return execute_task(
        topology.goal,
        graph,
        invoker,
        RuleReasoner(),
        SimClock(),
        request,
        start=START,
        monitor_config=monitor_config,
        tool_states=scenario_tool_states(graph),
        prober=ScheduledProber(schedule, invoker),
    )


def run_self_healing(scenario: Scenario, monitor_config: MonitorConfig | None = None) -> ExecutionTrace:
    """Execute one scenario with the routing orchestrator; counts emerge
    from the algorithm, never from the fixture."""
    return run_schedule(scenario.topology, scenario.faults, scenario.request, monitor_config or scenario.monitor_config)
