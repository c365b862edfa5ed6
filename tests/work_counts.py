"""Check the route searches each benchmark corpus asks for and computes,
and the trace events it logs, against the counts pinned in ``EXPECTED``.

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
- logged: ``ExecutionTrace.log`` calls, the events of the pass's traces

The second pass shows what the memos keep; a trace does not depend on the
memos, so logged is the same on both passes.  Work counts carry no timing
noise, so a change that moves one states old -> new and why, as a trace
digest change does.  The counts come from wrappers installed here around
the three methods and removed afterwards; the package keeps no counter.
Takes about fifteen seconds.
"""

from __future__ import annotations

import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
sys.path[:0] = [str(ROOT / "src"), str(ROOT / "perfbench")]

from toolrouter import topologies  # noqa: E402
from toolrouter.graph import ToolGraph  # noqa: E402
from toolrouter.orchestrator import ExecutionTrace  # noqa: E402
from workloads import WORKLOADS  # noqa: E402

CORPUS_TASKS = {"paper_fuzz": 10_000, "long_session": 20_000, "wide_catalog": 300}
# Per corpus, (asked, computed, logged) for the first pass, then the second.
# The route memo used to be keyed by the whole blocked set; keyed by the
# blocked nodes between source and goal instead, computed went, first pass
# then second: paper_fuzz seed 3 2,181 -> 388 and 1,840 -> 0, seed 11
# 1,892 -> 366 and 1,568 -> 0, seed 12 2,171 -> 460 and 1,832 -> 301;
# long_session 53 -> 47 and 0 -> 0.  dependency_dag's memo meets about 250
# keys per paper_fuzz pass instead of 550, so at seed 3 it stays under its
# 256-entry cap.  wide_catalog's graphs are built per task and never frozen:
# they keep no memo, and every search computes.  Each reasoner reply is
# logged as a ``consult`` event, so logged rose by exactly the consults:
# paper_fuzz seed 3 86,891 -> 91,409, seed 11 86,860 -> 91,340, seed 12
# 87,532 -> 91,919; long_session 142,699 -> 145,162; wide_catalog 5,180 ->
# 5,210.
EXPECTED = {
    ("paper_fuzz", 3): ((19_509, 388, 91_409), (19_509, 0, 91_409)),
    ("paper_fuzz", 11): ((19_495, 366, 91_340), (19_495, 0, 91_340)),
    ("paper_fuzz", 12): ((19_633, 460, 91_919), (19_633, 301, 91_919)),
    ("long_session", 3): ((28_042, 47, 145_162), (28_042, 0, 145_162)),
    ("wide_catalog", 3): ((680, 680, 5_210), (680, 680, 5_210)),
}


def clear_memos() -> None:
    """Empty the route memo and span memo of every topology graph."""
    for kind in topologies.TopologyKind:
        graph = topologies.build_topology(kind).fresh_graph()
        graph._routes.clear()
        graph._spans.clear()


# The counted methods, in the order of each pass's counts.
COUNTED = ((ToolGraph, "shortest_path"), (ToolGraph, "_search"), (ExecutionTrace, "log"))


def passes(name: str, seed: int, tasks: int) -> list[tuple[int, int, int]]:
    """(asked, computed, logged) for each of two passes over the first
    ``tasks`` tasks of ``WORKLOADS[name](seed)``, starting from cleared
    memos."""
    counts = [0] * len(COUNTED)
    originals = [owner.__dict__[attr] for owner, attr in COUNTED]

    def counting(i):
        fn = originals[i]

        def counted(*args, **kwargs):
            counts[i] += 1
            return fn(*args, **kwargs)

        return counted

    clear_memos()
    found = []
    for i, (owner, attr) in enumerate(COUNTED):
        setattr(owner, attr, counting(i))
    try:
        for _ in range(2):
            workload = WORKLOADS[name](seed)
            before = list(counts)
            for task in workload.tasks[:tasks]:
                workload.run_task(task)
            found.append(tuple(now - then for now, then in zip(counts, before)))
    finally:
        for (owner, attr), fn in zip(COUNTED, originals):
            setattr(owner, attr, fn)
    return found


def main() -> int:
    moved = 0
    for (name, seed), expected in EXPECTED.items():
        got = tuple(passes(name, seed, CORPUS_TASKS[name]))
        shown = "   ".join(
            f"pass {i}: asked {asked:,} computed {computed:,} logged {logged:,}"
            for i, (asked, computed, logged) in enumerate(got, 1)
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
