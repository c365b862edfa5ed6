"""Check the route searches each benchmark corpus asks for and computes,
the nodes those searches settle, the trace events it logs, its monitor
sweeps and probe scans, and the calls and probes its breakers record,
against the counts pinned in ``EXPECTED``.

    python3 tests/work_counts.py

Prints each corpus's counts and exits 1 if any differs from ``EXPECTED``,
printing the pinned counts beside each that moved.

Run from anywhere; the package comes from ``src/`` and the task streams from
``perfbench/workloads.py`` of this checkout.  A corpus ``(name, seed)`` is
the first ``CORPUS_TASKS[name]`` tasks of ``WORKLOADS[name](seed)``: every
workload at seed 3, and paper_fuzz at seeds 11 and 12 too.  Every topology
graph's route memo and span memo is cleared first, then the corpus runs
twice, each pass on a fresh workload object (so long_session's clock and
tool states start over while the memos carry on).  Per pass it counts:

- asked: ``ToolGraph.shortest_path`` calls
- computed: ``ToolGraph._search`` calls, the searches no memo answered
- settled: ``heappop`` calls in ``toolrouter.graph``, the heap pops of
  those searches (each settles a node, or skips a node already settled)
- logged: ``ExecutionTrace.log`` calls, the events of the pass's traces
- sweeps: ``run_all_monitors`` calls made by ``execute_task``
- scans: prober scans, ``ScheduledProber.scan`` plus the long session's
  ``workloads.SessionProber.scan``
- calls: ``ToolState.record_call`` calls, the call results breakers record
- probes: ``ToolState.run_health_probe`` calls, the probes breakers record

The second pass shows what the memos keep; a trace does not depend on the
memos, so every count but computed and settled is the same on both passes.
Work counts carry no timing noise, so a change that moves one states old ->
new and why, as a trace digest change does.  The counts come from wrappers
installed here around the counted methods, the graph module's ``heappop``
and the orchestrator module's ``run_all_monitors``, and removed afterwards;
the package keeps no counter.  Breaker updates are counted where a tool
state takes them, not in ``BreakerState``, whose methods may call one
another.
Takes about twenty seconds.
"""

from __future__ import annotations

import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
sys.path[:0] = [str(ROOT / "src"), str(ROOT / "perfbench")]

from toolrouter import graph, orchestrator, topologies  # noqa: E402
from toolrouter.calibration import ToolState  # noqa: E402
from toolrouter.graph import ToolGraph  # noqa: E402
from toolrouter.orchestrator import ExecutionTrace  # noqa: E402
from toolrouter.scenarios import ScheduledProber  # noqa: E402
from workloads import WORKLOADS, SessionProber  # noqa: E402

CORPUS_TASKS = {"paper_fuzz": 10_000, "long_session": 20_000, "wide_catalog": 300}
# Per corpus, the ``COLUMNS`` counts for the first pass, then the second.
# The route memo used to be keyed by the whole blocked set; keyed by the
# blocked nodes between source and goal instead, computed went, first pass
# then second: paper_fuzz seed 3 2,181 -> 388 and 1,840 -> 0, seed 11 1,892
# -> 366 and 1,568 -> 0, seed 12 2,171 -> 460 and 1,832 -> 301;
# long_session 53 -> 47 and 0 -> 0.  wide_catalog's graphs are built per
# task and never frozen: they keep no memo, and every search computes.  Each
# reasoner reply is logged as a ``consult`` event, so logged rose by exactly
# the consults: paper_fuzz seed 3 86,891 -> 91,409, seed 11 86,860 ->
# 91,340, seed 12 87,532 -> 91,919; long_session 142,699 -> 145,162;
# wide_catalog 5,180 -> 5,210.  Settled was first pinned with the memos
# capped at 256 entries: paper_fuzz seed 12 2,114 then 1,432, the rest as
# below.  dependency_dag's memo meets 230-265 keys per paper_fuzz pass over
# seeds 1-40, so seed 12 (263 keys) cleared it during every pass and each
# pass recomputed; with the cap at 1,024, seed 12's computed went 460 ->
# 398 and 301 -> 0, settled 2,114 -> 1,790 and 1,432 -> 0.  Nothing else
# moved.  Sweeps, scans, calls and probes were pinned before the breaker
# lost its half-open phase, and did not move with it.  Every sweep scans,
# so scans equals sweeps while each workload passes a prober.
EXPECTED = {
    ("paper_fuzz", 3): (
        (19_509, 388, 1_714, 91_409, 53_875, 53_875, 28_884, 8_579),
        (19_509, 0, 0, 91_409, 53_875, 53_875, 28_884, 8_579),
    ),
    ("paper_fuzz", 11): (
        (19_495, 366, 1_674, 91_340, 53_860, 53_860, 28_845, 8_572),
        (19_495, 0, 0, 91_340, 53_860, 53_860, 28_845, 8_572),
    ),
    ("paper_fuzz", 12): (
        (19_633, 398, 1_790, 91_919, 54_437, 54_437, 29_191, 8_662),
        (19_633, 0, 0, 91_919, 54_437, 54_437, 29_191, 8_662),
    ),
    ("long_session", 3): (
        (28_042, 47, 193, 145_162, 110_230, 110_230, 64_651, 3_142),
        (28_042, 0, 0, 145_162, 110_230, 110_230, 64_651, 3_142),
    ),
    ("wide_catalog", 3): (
        (680, 680, 81_626, 5_210, 4_020, 4_020, 3_040, 413),
        (680, 680, 81_626, 5_210, 4_020, 4_020, 3_040, 413),
    ),
}


def clear_memos() -> None:
    """Empty the route memo and span memo of every topology graph."""
    for kind in topologies.TopologyKind:
        graph = topologies.build_topology(kind).fresh_graph()
        graph._routes.clear()
        graph._spans.clear()


COLUMNS = ("asked", "computed", "settled", "logged", "sweeps", "scans", "calls", "probes")
# The counted functions, each with the column it adds to.
COUNTED = (
    (ToolGraph, "shortest_path", 0),
    (ToolGraph, "_search", 1),
    (graph, "heappop", 2),
    (ExecutionTrace, "log", 3),
    (orchestrator, "run_all_monitors", 4),
    (ScheduledProber, "scan", 5),
    (SessionProber, "scan", 5),
    (ToolState, "record_call", 6),
    (ToolState, "run_health_probe", 7),
)


def passes(name: str, seed: int, tasks: int) -> list[tuple[int, ...]]:
    """The ``COLUMNS`` counts for each of two passes over the first ``tasks``
    tasks of ``WORKLOADS[name](seed)``, starting from cleared memos."""
    counts = [0] * len(COLUMNS)
    originals = [owner.__dict__[attr] for owner, attr, _ in COUNTED]

    def counting(fn, column):
        def counted(*args, **kwargs):
            counts[column] += 1
            return fn(*args, **kwargs)

        return counted

    clear_memos()
    found = []
    for (owner, attr, column), fn in zip(COUNTED, originals):
        setattr(owner, attr, counting(fn, column))
    try:
        for _ in range(2):
            workload = WORKLOADS[name](seed)
            before = list(counts)
            for task in workload.tasks[:tasks]:
                workload.run_task(task)
            found.append(tuple(now - then for now, then in zip(counts, before)))
    finally:
        for (owner, attr, _), fn in zip(COUNTED, originals):
            setattr(owner, attr, fn)
    return found


def main() -> int:
    moved = 0
    for (name, seed), expected in EXPECTED.items():
        got = tuple(passes(name, seed, CORPUS_TASKS[name]))
        shown = "   ".join(
            f"pass {i}: " + " ".join(f"{column} {count:,}" for column, count in zip(COLUMNS, counts))
            for i, counts in enumerate(got, 1)
        )
        label = f"{name}/{seed}"
        if got == expected:
            print(f"{label:<16} {shown}")
        else:
            print(f"{label:<16} {shown}  MOVED from {expected}")
            moved += 1
    return 1 if moved else 0


if __name__ == "__main__":
    raise SystemExit(main())
