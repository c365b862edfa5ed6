"""Benchmark harness: runs the three architectures over the scenario suite,
aggregates results, renders reports, and projects operational risk at scale.

Reports are canonical JSON (stable key order, no wall-clock fields), so two
runs with the same seed are byte-identical.  A diff mode compares every
table cell against the embedded fixtures; the CLI turns any discrepancy
into a nonzero exit code.
"""

from __future__ import annotations

import json
import random
import statistics
import time
import zlib
from copy import deepcopy
from dataclasses import asdict, dataclass, field, fields
from pathlib import Path

from .baselines import AuditReport, audit, run_react, run_static_workflow, silent_success
from .errors import ToolrouterError
from .monitors import MonitorConfig
from .orchestrator import ExecutionTrace, TaskRequest, TraceStatus
from .scenarios import (
    EXPECTED_FIXTURE_DIGEST,
    FAULT_KINDS,
    SCENARIO_IDS,
    FaultEntry,
    FaultEffect,
    FaultSchedule,
    Scenario,
    load_scenarios,
    run_schedule,
    run_self_healing,
)
from .topologies import BUILDERS, START, TopologyKind, build_topology


ARCHITECTURES = ("shr", "react", "static")
ARCH_LABELS = {"shr": "Self-Healing Router", "react": "ReAct", "static": "Static Workflow"}


class BenchError(ToolrouterError):
    pass


class ConfigInvalid(BenchError):
    pass


class UnsupportedFormat(BenchError):
    pass


class DigestMismatch(BenchError):
    pass


class IoFailure(BenchError):
    pass


class ResultCorrupt(BenchError):
    """A persisted result that is not JSON or not in ``as_dict`` shape; the
    message names the field at fault."""


@dataclass(frozen=True)
class BenchConfig:
    """Which scenarios and architectures ``run_benchmark`` runs.

    ``seed`` is only a label for ``run_benchmark``: every scenario is a
    fixed fault schedule, so the seed changes the config digest and the
    report, never a cell.  The CLI also passes it to ``run_fuzz`` for
    ``bench --fuzz``, the one place it seeds anything.
    """

    scenario_ids: tuple[str, ...] | None = None  # None = all 19
    architectures: tuple[str, ...] = ARCHITECTURES
    seed: int = 0

    def validate(self) -> "BenchConfig":
        bad = [a for a in self.architectures if a not in ARCHITECTURES]
        if bad:
            raise ConfigInvalid(f"unknown architectures {bad}")
        if not self.architectures:
            raise ConfigInvalid("at least one architecture required")
        return self

    def digest(self) -> str:
        blob = json.dumps(
            {"scenarios": self.scenario_ids, "arch": self.architectures, "seed": self.seed},
            sort_keys=True,
        )
        return f"{zlib.crc32(blob.encode()):08x}"


@dataclass
class BenchRow:
    scenario: str
    domain: str
    arch: str
    correct: bool
    llm_calls: int
    tool_calls: int
    recoveries: int
    silent_failure: bool
    status: str
    classifiers_lost: int | None = None

    def as_dict(self) -> dict:
        return asdict(self)


@dataclass
class BenchResult:
    rows: list[BenchRow]
    aggregates: dict[str, dict]
    metadata: dict
    # The scenarios by id that the rows were run or checked against, so the
    # fixture diff of the same command reads no file again.  Not saved; a
    # result made without them loads them for its diff.
    scenarios: dict[str, Scenario] | None = field(default=None, repr=False, compare=False)

    def as_dict(self) -> dict:
        """A fresh document: editing it leaves the result as it was."""
        return {
            "rows": [r.as_dict() for r in self.rows],
            "aggregates": deepcopy(self.aggregates),
            "metadata": deepcopy(self.metadata),
        }

    def to_json(self) -> str:
        return json.dumps(self.as_dict(), indent=2, sort_keys=True) + "\n"

    @staticmethod
    def from_dict(doc: object) -> "BenchResult":
        if not isinstance(doc, dict):
            raise ResultCorrupt("expected a JSON object")
        scenarios = {s.id: s for s in load_scenarios()}
        rows = [_parse_row(f"rows[{i}]", r, scenarios) for i, r in enumerate(_member(doc, "rows", list))]
        seen = set()
        for i, row in enumerate(rows):
            if (row.scenario, row.arch) in seen:
                raise ResultCorrupt(f"rows[{i}]: a second {row.scenario}/{row.arch} row")
            seen.add((row.scenario, row.arch))
        stored = _member(doc, "aggregates", dict)
        for arch in stored:
            if arch not in ARCHITECTURES:
                raise ResultCorrupt(f"aggregates: unknown architecture {arch!r}")
        for row in rows:
            if row.arch not in stored:
                raise ResultCorrupt(f"aggregates.{row.arch} is missing for an architecture with rows")
        # Every aggregate is recomputed from the rows; a stored one must agree.
        aggregates = _aggregate(rows, tuple(stored))
        for arch, agg in aggregates.items():
            if not isinstance(stored[arch], dict):
                raise ResultCorrupt(f"aggregates.{arch} must be an object")
            for key in sorted(set(agg).union(stored[arch])):
                value = stored[arch].get(key)
                if type(value) is not int or value != agg.get(key):
                    raise ResultCorrupt(f"aggregates.{arch}.{key} is {value!r}, its rows give {agg.get(key)!r}")
        metadata = _member(doc, "metadata", dict)
        return BenchResult(rows=rows, aggregates=aggregates, metadata=deepcopy(metadata), scenarios=scenarios)

    @staticmethod
    def from_json(text: str) -> "BenchResult":
        try:
            doc = json.loads(text)
        except json.JSONDecodeError as exc:
            raise ResultCorrupt(f"invalid JSON ({exc})") from exc
        return BenchResult.from_dict(doc)

    def row(self, scenario: str, arch: str) -> BenchRow:
        for r in self.rows:
            if r.scenario == scenario and r.arch == arch:
                return r
        raise KeyError((scenario, arch))


_ROW_FIELDS = {f.name for f in fields(BenchRow)}
# The row fields an aggregate is computed from, and the JSON type of each.
_COUNTED_FIELDS = {
    "correct": bool,
    "llm_calls": int,
    "tool_calls": int,
    "recoveries": int,
    "silent_failure": bool,
}


def _member(doc: dict, key: str, kind: type):
    if key not in doc:
        raise ResultCorrupt(f"{key!r} is missing")
    if not isinstance(doc[key], kind):
        raise ResultCorrupt(f"{key} must be a JSON {'array' if kind is list else 'object'}")
    return doc[key]


def _parse_row(where: str, doc: object, scenarios: dict[str, Scenario]) -> BenchRow:
    """One saved row, checked against ``scenarios`` by id."""
    if not isinstance(doc, dict):
        raise ResultCorrupt(f"{where} must be a JSON object")
    odd = sorted(set(doc) ^ _ROW_FIELDS)
    if odd:
        raise ResultCorrupt(f"{where}: field {odd[0]!r} is {'unknown' if odd[0] in doc else 'missing'}")
    if doc["scenario"] not in SCENARIO_IDS:
        raise ResultCorrupt(f"{where}: unknown scenario {doc['scenario']!r}")
    domain = scenarios[doc["scenario"]].domain
    if doc["domain"] != domain:
        raise ResultCorrupt(f"{where}: domain must be {domain!r}, the domain of {doc['scenario']}, got {doc['domain']!r}")
    if doc["arch"] not in ARCHITECTURES:
        raise ResultCorrupt(f"{where}: unknown architecture {doc['arch']!r}")
    for name, kind in _COUNTED_FIELDS.items():
        if type(doc[name]) is not kind:
            wanted = "boolean" if kind is bool else "integer"
            raise ResultCorrupt(f"{where}: {name} must be a JSON {wanted}, got {doc[name]!r}")
    if doc["status"] not in ("success", "escalated"):
        raise ResultCorrupt(f"{where}: status must be 'success' or 'escalated', got {doc['status']!r}")
    lost = doc["classifiers_lost"]
    if lost is not None and (type(lost) is not int or lost < 0):
        raise ResultCorrupt(f"{where}: classifiers_lost must be null or a JSON integer >= 0, got {lost!r}")
    return BenchRow(**doc)


def _aggregate(rows: list[BenchRow], archs: tuple[str, ...]) -> dict[str, dict]:
    out = {}
    for arch in archs:
        sub = [r for r in rows if r.arch == arch]
        out[arch] = {
            "scenarios": len(sub),
            "correct": sum(1 for r in sub if r.correct),
            "llm_calls": sum(r.llm_calls for r in sub),
            "tool_calls": sum(r.tool_calls for r in sub),
            "recoveries": sum(r.recoveries for r in sub),
            "silent_failures": sum(1 for r in sub if r.silent_failure),
        }
    return out


def run_benchmark(config: BenchConfig | None = None) -> BenchResult:
    config = (config or BenchConfig()).validate()
    loaded = {s.id: s for s in load_scenarios()}
    scenarios = list(loaded.values())
    if config.scenario_ids is not None:
        wanted = set(config.scenario_ids)
        unknown = wanted - loaded.keys()
        if unknown:
            raise ConfigInvalid(f"unknown scenarios {sorted(unknown)}")
        scenarios = [s for s in scenarios if s.id in wanted]
    rows: list[BenchRow] = []
    for scenario in scenarios:
        for arch in config.architectures:
            rows.append(_run_one(scenario, arch))
    return BenchResult(
        rows=rows,
        aggregates=_aggregate(rows, config.architectures),
        metadata={
            "seed": config.seed,
            "config_digest": config.digest(),
            "fixture_digest": EXPECTED_FIXTURE_DIGEST,
        },
        scenarios=loaded,
    )


def run_architecture(
    scenario: Scenario, arch: str, monitor_config: MonitorConfig | None = None
) -> tuple[ExecutionTrace, AuditReport]:
    """Run one scenario under one architecture and audit the trace; the one
    place the three architectures are told apart.  ``monitor_config``
    reaches the self-healing router only."""
    if arch == "shr":
        trace = run_self_healing(scenario, monitor_config)
    elif arch == "react":
        trace = run_react(scenario)
    elif arch == "static":
        return run_static_workflow(scenario)
    else:
        raise ConfigInvalid(f"unknown architecture {arch!r}")
    return trace, audit(trace, scenario)


def _run_one(scenario: Scenario, arch: str) -> BenchRow:
    trace, report = run_architecture(scenario, arch)
    return BenchRow(
        scenario=scenario.id,
        domain=scenario.domain,
        arch=arch,
        correct=report.correct,
        llm_calls=trace.llm_calls,
        tool_calls=trace.tool_call_count,
        recoveries=trace.recovery_events,
        silent_failure=report.silent_failure,
        status=trace.status.value,
        classifiers_lost=report.classifiers_lost,
    )


# -- fixture diff -------------------------------------------------------


def diff_against_fixtures(result: BenchResult) -> list[str]:
    """Compare each cell against the embedded expected values, read from
    the scenarios the result was made with (loaded here if it has none).
    Returns a list of human-readable discrepancies; empty means
    fixture-clean."""
    problems: list[str] = []
    scenarios = result.scenarios or {s.id: s for s in load_scenarios()}
    for row in result.rows:
        for cell, want in scenarios[row.scenario].expected[row.arch].items():
            got = getattr(row, cell)
            if got != want:
                problems.append(f"{row.scenario}/{row.arch}/{cell}: got {got!r}, expected {want!r}")
    return problems


# -- rendering ----------------------------------------------------------

_DOMAIN_TITLES = {
    "customer_support": "Customer Support (linear pipeline)",
    "travel_booking": "Travel Booking (dependency DAG)",
    "content_moderation": "Content Moderation (parallel fan-out)",
}


def render_report(result: BenchResult, fmt: str = "md", diff: bool = False) -> str:
    if fmt == "json":
        doc = result.as_dict()
        if diff:
            doc["diff"] = diff_against_fixtures(result)
        return json.dumps(doc, indent=2, sort_keys=True) + "\n"
    if fmt != "md":
        raise UnsupportedFormat(f"unsupported format {fmt!r}")
    lines: list[str] = ["# Benchmark report", ""]
    domains: dict[str, list[str]] = {}
    for row in result.rows:
        domains.setdefault(row.domain, [])
        if row.scenario not in domains[row.domain]:
            domains[row.domain].append(row.scenario)
    archs = [a for a in ARCHITECTURES if a in result.aggregates]

    def cell(sid: str, arch: str, attr: str, default="-"):
        try:
            return getattr(result.row(sid, arch), attr)
        except KeyError:
            return default

    for domain, sids in domains.items():
        lines.append(f"## {_DOMAIN_TITLES.get(domain, domain)}")
        lines.append("")
        header = "| Scenario | SHR LLM | ReAct LLM | WF LLM | SHR Tools | SHR Recov | ReAct Tools | WF Silent |"
        if domain == "content_moderation":
            header += " WF Lost |"
        lines.append(header)
        lines.append("|" + "---|" * (header.count("|") - 1))
        for sid in sids:
            parts = [
                sid,
                cell(sid, "shr", "llm_calls"),
                cell(sid, "react", "llm_calls"),
                cell(sid, "static", "llm_calls"),
                cell(sid, "shr", "tool_calls"),
                cell(sid, "shr", "recoveries"),
                cell(sid, "react", "tool_calls"),
                cell(sid, "static", "silent_failure"),
            ]
            if domain == "content_moderation":
                parts.append(cell(sid, "static", "classifiers_lost"))
            lines.append("| " + " | ".join(str(p) for p in parts) + " |")
        lines.append("")
    lines.append("## Aggregate")
    lines.append("")
    lines.append("| Architecture | Correct | LLM Calls | Tool Calls | Recoveries | Silent Failures |")
    lines.append("|---|---|---|---|---|---|")
    for arch in archs:
        agg = result.aggregates[arch]
        lines.append(
            f"| {ARCH_LABELS[arch]} | {agg['correct']}/{agg['scenarios']} | {agg['llm_calls']} "
            f"| {agg['tool_calls']} | {agg['recoveries']} | {agg['silent_failures']} |"
        )
    lines.append("")
    if diff:
        problems = diff_against_fixtures(result)
        lines.append("## Fixture diff")
        lines.append("")
        if problems:
            lines.extend(f"- {p}" for p in problems)
        else:
            lines.append("- clean: every cell matches the embedded fixtures")
        lines.append("")
    return "\n".join(lines)


# -- persistence --------------------------------------------------------


def persist_result(result: BenchResult, path: str | Path) -> None:
    try:
        Path(path).write_text(result.to_json())
    except OSError as exc:
        raise IoFailure(str(exc)) from exc


def load_result(path: str | Path, strict: bool = False) -> BenchResult:
    try:
        text = Path(path).read_text()
    except (OSError, UnicodeDecodeError) as exc:
        raise IoFailure(f"cannot read {path}: {getattr(exc, 'strerror', None) or exc}") from exc
    try:
        result = BenchResult.from_json(text)
    except ResultCorrupt as exc:
        raise ResultCorrupt(f"{path}: {exc}") from exc
    stored = result.metadata.get("fixture_digest")
    if stored != EXPECTED_FIXTURE_DIGEST:
        msg = f"result was produced against fixture digest {stored}, current is {EXPECTED_FIXTURE_DIGEST}"
        if strict:
            raise DigestMismatch(msg)
        import logging  # imported here only: importing toolrouter stays free of it

        logging.getLogger(__name__).warning(msg)
    return result


# -- risk projection ----------------------------------------------------


# The benchmark's published sensitivity model; only the failure rate is a
# parameter.
LLM_CALLS_PER_RECOVERY = 4.0
SECONDS_PER_RECOVERY = 2.0
COMPOUND_RATE_LOW = 0.02
COMPOUND_RATE_HIGH = 0.05
SHR_SECONDS_PER_EVENT = 0.001


def project_risk(tasks_per_day: list[int], failure_rate: float = 0.05) -> list[dict]:
    """Operational exposure per day at each load, for each architecture."""
    if not 0.0 <= failure_rate <= 1.0:
        raise BenchError(f"failure_rate must be in [0, 1], got {failure_rate!r}")
    rows = []
    for tasks in tasks_per_day:
        if tasks < 0:
            raise BenchError("tasks_per_day must be >= 0")
        events = tasks * failure_rate
        rows.append(
            {
                "tasks_per_day": tasks,
                "recovery_events_per_day": events,
                "react_recovery_seconds": events * SECONDS_PER_RECOVERY,
                "react_llm_calls": events * LLM_CALLS_PER_RECOVERY,
                "workflow_silent_low": events * COMPOUND_RATE_LOW,
                "workflow_silent_high": events * COMPOUND_RATE_HIGH,
                "shr_recovery_seconds": events * SHR_SECONDS_PER_EVENT,
            }
        )
    return rows


def render_projection(rows: list[dict], fmt: str = "md") -> str:
    if fmt == "json":
        return json.dumps(rows, indent=2, sort_keys=True) + "\n"
    if fmt != "md":
        raise UnsupportedFormat(f"unsupported format {fmt!r}")
    lines = [
        "| Tasks/day | Recovery events/day | ReAct recovery time | ReAct LLM calls | Workflow silent/day | SHR recovery time |",
        "|---|---|---|---|---|---|",
    ]
    for r in rows:
        minutes = r["react_recovery_seconds"] / 60
        react_time = f"~{minutes / 60:,.1f} hours" if minutes >= 180 else f"~{minutes:,.1f} min"
        lines.append(
            f"| {r['tasks_per_day']:,} | {r['recovery_events_per_day']:,.0f} | {react_time} "
            f"| ~{r['react_llm_calls']:,.0f} | {r['workflow_silent_low']:,.0f}-{r['workflow_silent_high']:,.0f} "
            f"| {r['shr_recovery_seconds']:,.2f} s |"
        )
    return "\n".join(lines) + "\n"


# -- recovery microbenchmark and fuzzing --------------------------------


def measure_recovery_latency(repetitions: int = 200) -> dict:
    """Wall-clock cost of one quarantine + recompute cycle per topology.
    This is the only place the package reads real time.

    Every timed search is computed, never read from a route memo: the
    samples run on a graph from the topology's builder, never frozen, and
    such a graph keeps no memo (see ``ToolGraph``)."""
    if repetitions < 1:
        raise BenchError(f"repetitions must be >= 1, got {repetitions}")
    results = {}
    all_samples: list[float] = []
    for kind in TopologyKind:
        topo = build_topology(kind)
        samples = []
        graph = BUILDERS[kind]()
        tools = graph.tool_nodes()
        for i in range(repetitions):
            t0 = time.perf_counter()
            graph.shortest_path(START, topo.goal.goal_node, (), frozenset((tools[i % len(tools)],)))
            samples.append((time.perf_counter() - t0) * 1000.0)
        results[kind.value] = {"median_ms": statistics.median(samples), "max_ms": max(samples)}
        all_samples.extend(samples)
    results["overall"] = {"median_ms": statistics.median(all_samples), "max_ms": max(all_samples)}
    return results


_MAX_DOWN = 5  # most tools one random schedule takes down


def random_schedule(kind: TopologyKind, rng: random.Random) -> FaultSchedule:
    topo = build_topology(kind)
    tools = topo.fresh_graph().tool_nodes()
    count = rng.randint(0, min(_MAX_DOWN, len(tools)))
    chosen = rng.sample(tools, count)
    entries = []
    for tool in chosen:
        effect = rng.choice(list(FaultEffect))
        entries.append(
            FaultEntry(
                tool=tool,
                effect=effect,
                kind=rng.choice(FAULT_KINDS),
                probe_visible=rng.random() < 0.4,
                at_step=rng.randint(1, 4) if effect is FaultEffect.FAIL_AT_STEP else 0,
            )
        )
    return FaultSchedule(tuple(entries))


def run_fuzz(iterations: int, seed: int = 0) -> dict:
    """Randomized fault schedules over all three topologies.  Checks the
    structural guarantees: every run ends success-or-escalated and the
    auditor never finds a silent failure in the router."""
    rng = random.Random(seed)
    kinds = list(TopologyKind)
    stats = {"runs": 0, "success": 0, "escalated": 0, "silent": 0, "recoveries": 0, "llm_calls": 0}
    for i in range(iterations):
        topo = build_topology(kinds[i % len(kinds)])
        trace = run_schedule(topo, random_schedule(topo.kind, rng), TaskRequest(text="fuzz task"))
        stats["runs"] += 1
        stats["success"] += trace.status is TraceStatus.SUCCESS
        stats["escalated"] += trace.status is TraceStatus.ESCALATED
        stats["silent"] += silent_success(trace, topo)
        stats["recoveries"] += trace.recovery_events
        stats["llm_calls"] += trace.llm_calls
    return stats
