"""Check the route searches each benchmark corpus asks for and computes
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

The second pass shows what the memos keep.  Work counts carry no timing
noise, so a change that moves one states old -> new and why, as a trace
digest change does.  The counts come from wrappers installed here around
the two methods and removed afterwards; the package keeps no counter.
Takes about fifteen seconds.
"""

from __future__ import annotations

import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
sys.path[:0] = [str(ROOT / "src"), str(ROOT / "perfbench")]

from toolrouter import topologies  # noqa: E402
from toolrouter.graph import ToolGraph  # noqa: E402
from workloads import WORKLOADS  # noqa: E402

CORPUS_TASKS = {"paper_fuzz": 10_000, "long_session": 20_000, "wide_catalog": 300}
# Per corpus, (asked, computed) for the first pass, then the second.  The
# route memo used to be keyed by the whole blocked set; keyed by the blocked
# nodes between source and goal instead, computed went, first pass then
# second: paper_fuzz seed 3 2,181 -> 388 and 1,840 -> 0, seed 11 1,892 -> 366
# and 1,568 -> 0, seed 12 2,171 -> 460 and 1,832 -> 301; long_session
# 53 -> 47 and 0 -> 0.  dependency_dag's memo meets about 250 keys per
# paper_fuzz pass instead of 550, so at seed 3 it stays under its 256-entry
# cap.  wide_catalog's graphs are built per task and never frozen: they keep
# no memo, and every search computes.
EXPECTED = {
    ("paper_fuzz", 3): ((19_509, 388), (19_509, 0)),
    ("paper_fuzz", 11): ((19_495, 366), (19_495, 0)),
    ("paper_fuzz", 12): ((19_633, 460), (19_633, 301)),
    ("long_session", 3): ((28_042, 47), (28_042, 0)),
    ("wide_catalog", 3): ((680, 680), (680, 680)),
}


def clear_memos() -> None:
    """Empty the route memo and span memo of every topology graph."""
    for kind in topologies.TopologyKind:
        graph = topologies.build_topology(kind).fresh_graph()
        graph._routes.clear()
        graph._spans.clear()


def passes(name: str, seed: int, tasks: int) -> list[tuple[int, int]]:
    """(asked, computed) searches for each of two passes over the first
    ``tasks`` tasks of ``WORKLOADS[name](seed)``, starting from cleared
    memos."""
    counts = {"shortest_path": 0, "_search": 0}
    originals = {attr: getattr(ToolGraph, attr) for attr in counts}

    def counting(attr):
        fn = originals[attr]

        def counted(*args, **kwargs):
            counts[attr] += 1
            return fn(*args, **kwargs)

        return counted

    clear_memos()
    found = []
    for attr in counts:
        setattr(ToolGraph, attr, counting(attr))
    try:
        for _ in range(2):
            workload = WORKLOADS[name](seed)
            before = dict(counts)
            for task in workload.tasks[:tasks]:
                workload.run_task(task)
            found.append(tuple(counts[attr] - before[attr] for attr in counts))
    finally:
        for attr, fn in originals.items():
            setattr(ToolGraph, attr, fn)
    return found


def main() -> int:
    moved = 0
    for (name, seed), expected in EXPECTED.items():
        got = tuple(passes(name, seed, CORPUS_TASKS[name]))
        shown = "   ".join(f"pass {i}: asked {asked:,} computed {computed:,}" for i, (asked, computed) in enumerate(got, 1))
        label = f"{name}/{seed}"
        if got == expected:
            print(f"{label:<16} {shown}")
        else:
            print(f"{label:<16} {shown}  MOVED from {expected}")
            moved += 1
    return 1 if moved else 0


if __name__ == "__main__":
    raise SystemExit(main())
