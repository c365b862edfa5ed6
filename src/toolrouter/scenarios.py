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


class BadFaultEntry(ScenarioError):
    """A ``FaultEntry`` field holds a value it may not; the message starts
    with the field's name."""


class FaultEffect(Enum):
    DOWN_FROM_START = "DOWN_FROM_START"
    FAIL_AT_STEP = "FAIL_AT_STEP"


FAULT_KINDS = ("timeout", "error_response", "connection_refused")
_FAIL_AT_STEP = FaultEffect.FAIL_AT_STEP  # read once: a member read through its Enum class is a slow attribute lookup


@dataclass(frozen=True, slots=True)
class FaultEntry:
    """One tool's outage.  Checked when made (``BadFaultEntry``): a
    FAIL_AT_STEP entry needs an ``at_step`` >= 1 (at 0 it would be
    DOWN_FROM_START), and any other effect has ``at_step`` 0."""

    tool: str
    effect: FaultEffect
    kind: str = "error_response"  # one of FAULT_KINDS
    probe_visible: bool = False
    at_step: int = 0  # FAIL_AT_STEP: down once this many call attempts happened

    def __post_init__(self) -> None:
        if not (isinstance(self.tool, str) and self.tool):
            raise BadFaultEntry(f"tool must be a non-empty string, got {self.tool!r}")
        if not isinstance(self.effect, FaultEffect):
            raise BadFaultEntry(f"effect must be a FaultEffect, got {self.effect!r}")
        if self.kind not in FAULT_KINDS:  # a tuple, so an unhashable value compares unequal
            raise BadFaultEntry(f"kind must be one of {', '.join(FAULT_KINDS)}, got {self.kind!r}")
        if type(self.probe_visible) is not bool:
            raise BadFaultEntry(f"probe_visible must be a boolean, got {self.probe_visible!r}")
        at_step = self.at_step
        if self.effect is _FAIL_AT_STEP:
            if type(at_step) is not int or at_step < 1:
                raise BadFaultEntry(f"at_step must be an integer >= 1 on FAIL_AT_STEP, got {at_step!r}")
        elif type(at_step) is not int or at_step != 0:
            raise BadFaultEntry(f"at_step must be 0 on {self.effect.value}, got {at_step!r}")

    def active(self, attempts: int) -> bool:
        """Whether the tool is down once ``attempts`` calls happened.  Every
        effect but FAIL_AT_STEP has ``at_step`` 0, so it is down from the
        start."""
        return attempts >= self.at_step


@dataclass(frozen=True, slots=True)
class FaultSchedule:
    entries: tuple[FaultEntry, ...] = ()

    def validate_against(self, graph: ToolGraph) -> None:
        tools = set(graph.tool_nodes())
        for e in self.entries:
            if e.tool not in tools:
                raise UnknownTool(f"fault entry references unknown tool {e.tool!r}")


_OK = Outcome.ok(TOOL_CALL_LATENCY_MS)


class ScheduledInvoker:
    """Every call succeeds at ``TOOL_CALL_LATENCY_MS``, except where the
    schedule says the tool is down.

    Keeps a shared attempt counter so call-indexed effects land identically
    for every architecture replaying the same scenario.  ``Outcome`` is
    frozen, so every success is one shared value.  The entries are grouped
    by tool once, when the invoker is made, so a call to an unscheduled
    tool reads no entry.
    """

    def __init__(self, schedule: FaultSchedule):
        self.attempts = 0
        self._entries: dict[str, list[FaultEntry]] = {}
        for entry in schedule.entries:
            self._entries.setdefault(entry.tool, []).append(entry)

    def invoke(self, node: str, clock: SimClock) -> Outcome:
        attempts = self.attempts
        self.attempts = attempts + 1
        for entry in self._entries.get(node, ()):
            if entry.active(attempts):
                return Outcome.failed(entry.kind, TOOL_CALL_LATENCY_MS)
        return _OK


class ScheduledProber:
    """Background health checks over the same schedule.

    Only probe-visible outages are ever detected here; call-path-only
    failures (an auth error, say) stay invisible until a request hits them.
    One probe per tool per sweep keeps the cadence honest.  The
    probe-visible entries are taken once, when the prober is made; a
    schedule with none gives a scan that returns at once.  ``invoker`` is
    not read (``scan`` takes the attempt count from its caller); it is
    accepted because perfbench passes it.
    """

    def __init__(self, schedule: FaultSchedule, invoker: ScheduledInvoker):
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
class Scenario:
    id: str
    name: str
    topology: Topology
    faults: FaultSchedule
    request: TaskRequest
    monitor_config: MonitorConfig
    content_toxic: bool
    expected: dict[str, dict[str, int | bool | str]]  # arch -> BenchRow field -> value
    recoveries_tabulated: bool  # shr recoveries come from the reference tables
    notes: str = ""

    @property
    def domain(self) -> str:
        return self.topology.domain


def _object(value: object, name: str) -> dict:
    if not isinstance(value, dict):
        raise TypeError(f"{name} must be an object, got {type(value).__name__}")
    return value


def _string(value: object, name: str) -> str:
    if not isinstance(value, str):
        raise TypeError(f"{name} must be a string, got {type(value).__name__}")
    return value


def _cell(section: dict, name: str, kind: type = int) -> int | bool:
    """One required value: an integer >= 0, or a boolean."""
    value = section[name.rpartition(".")[2]]
    if type(value) is not kind or (kind is int and value < 0):
        wanted = "an integer >= 0" if kind is int else "a boolean"
        raise ValueError(f"{name} must be {wanted}, got {value!r}")
    return value


def _choice(value: object, name: str, allowed: tuple[str, ...]) -> str:
    if value not in allowed:  # a tuple, so an unhashable value compares unequal
        raise ValueError(f"{name} must be one of {', '.join(allowed)}, got {value!r}")
    return value


_EFFECTS = tuple(effect.value for effect in FaultEffect)


def _fault(e: object, name: str) -> FaultEntry:
    """One fault entry.  The file gives ``at_step`` on FAIL_AT_STEP and on
    no other effect; ``FaultEntry`` checks the values."""
    e = _object(e, name)
    tool = _string(e["tool"], f"{name}.tool")
    effect = FaultEffect(_choice(e["effect"], f"{name}.effect", _EFFECTS))
    at_step = _cell(e, f"{name}.at_step") if "at_step" in e else None
    if at_step is None and effect is FaultEffect.FAIL_AT_STEP:
        raise ValueError(f"{name}.at_step must be an integer >= 1 on FAIL_AT_STEP, it is missing")
    if at_step is not None and effect is not FaultEffect.FAIL_AT_STEP:
        raise ValueError(f"{name}.at_step applies only to FAIL_AT_STEP, not {effect.value}")
    try:
        return FaultEntry(tool, effect, e.get("kind", "error_response"), e.get("probe_visible", False), at_step or 0)
    except BadFaultEntry as exc:
        raise ValueError(f"{name}.{exc}") from exc


# Every fixture cell: the architecture and the ``BenchRow`` field it checks,
# the value's type (``str`` is a status), and whether the fixture digest
# pins it.  The order is the order ``bench.diff_against_fixtures`` reports
# in.  The files keep the static architecture's cells under "workflow";
# its classifiers_lost is null outside content moderation, and is then no
# cell.  shr recoveries are pinned only where ``recoveries_tabulated``.
_CELLS = (
    ("shr", "llm_calls", int, True),
    ("shr", "tool_calls", int, True),
    ("shr", "recoveries", int, True),
    ("shr", "status", str, False),
    ("react", "llm_calls", int, True),
    ("react", "tool_calls", int, True),
    ("static", "silent_failure", bool, True),
    ("static", "tool_calls", int, False),
    ("static", "recoveries", int, False),
    ("static", "classifiers_lost", int, True),
)
_SECTIONS = {"shr": "shr", "react": "react", "static": "workflow"}


def _expected(exp: object) -> tuple[dict[str, dict], bool]:
    """The fixture cells by architecture and row field, and whether the
    shr recoveries are tabulated."""
    exp = _object(exp, "expected")
    sections = {arch: _object(exp[key], f"expected.{key}") for arch, key in _SECTIONS.items()}
    cells: dict[str, dict] = {arch: {} for arch in _SECTIONS}
    for arch, field, kind, _ in _CELLS:
        section, name = sections[arch], f"expected.{_SECTIONS[arch]}.{field}"
        if kind is str:
            value = section[field]
            if value not in ("success", "escalated"):
                raise ValueError(f"{name} must be 'success' or 'escalated', got {value!r}")
        elif field == "classifiers_lost" and section.get(field) is None:
            continue
        else:
            value = _cell(section, name, kind)
        cells[arch][field] = value
    return cells, _cell(sections["shr"], "expected.shr.recoveries_tabulated", bool)


def _parse_scenario(doc: dict) -> Scenario:
    """One scenario file; a missing key raises KeyError, a bad value
    ValueError or TypeError, a fault on a tool the topology lacks
    UnknownTool, and bad ``monitor_overrides`` MonitorError, each naming
    the field or the tool."""
    topology = build_topology(_string(doc["topology"], "topology"))
    faults = doc.get("faults", [])
    if not isinstance(faults, list):
        raise TypeError(f"faults must be a list, got {type(faults).__name__}")
    schedule = FaultSchedule(tuple(_fault(e, f"faults[{i}]") for i, e in enumerate(faults)))
    schedule.validate_against(topology.fresh_graph())
    req = _object(doc["request"], "request")
    if not isinstance(req["text"], str):
        raise TypeError(f"request text must be a string, got {type(req['text']).__name__}")
    try:
        request = TaskRequest(req["text"], req.get("amount"), req.get("risk_score"), req.get("risk_visible_after", 0))
    except MonitorError as exc:  # the request's own check, not the monitor overrides'
        raise ValueError(str(exc)) from exc
    monitor_config = MonitorConfig.from_dict(doc.get("monitor_overrides", {}))
    expected, recoveries_tabulated = _expected(doc["expected"])
    return Scenario(
        id=doc["id"],
        name=doc["name"],
        topology=topology,
        faults=schedule,
        request=request,
        monitor_config=monitor_config,
        content_toxic=_cell(req, "request.content_toxic", bool) if "content_toxic" in req else False,
        expected=expected,
        recoveries_tabulated=recoveries_tabulated,
        notes=doc.get("notes", ""),
    )


def _pinned(scenario: Scenario) -> list:
    return [
        scenario.expected[arch][field]
        for arch, field, _, pinned in _CELLS
        if pinned and field in scenario.expected[arch]
        and (scenario.recoveries_tabulated or (arch, field) != ("shr", "recoveries"))
    ]


def fixture_digest(scenarios: list[Scenario]) -> str:
    payload = [[s.id] + _pinned(s) for s in scenarios]
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
    a tool (a declared node that is not a sentinel).  Every state has its
    own breaker, with the trip threshold and cooldown of ``HARD_FAILURE``.
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
