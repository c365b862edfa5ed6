"""Check the chained CRC-32 trace digests of the five digest corpora, and
the CRC-32 of the two benchmark reports.

    python3 tests/trace_digests.py

Prints each digest and exits 1 if any differs from ``EXPECTED``, printing
old -> new for each that moved.

Run from anywhere; the package comes from ``src/`` and the workloads from
``perfbench/workloads.py`` of this checkout.  Each digest is CRC-32 chained
over ``ExecutionTrace.to_json()`` in run order:

- fixtures: the 19 scenarios under the self-healing router
- fuzz: the traces of ``run_fuzz(1000, seed=42)``
- paper_fuzz, wide_catalog, long_session: the first 3,000 / 400 / 6,000
  tasks of ``WORKLOADS[name](11)``

The two report digests are the CRC-32 of
``render_report(run_benchmark(BenchConfig(seed=3)), fmt, diff=True)`` for
``fmt`` json (what ``toolrouter bench --format json --diff`` prints) and md.

A change that keeps trace semantics and the benchmark table leaves all
seven unchanged; one that changes them updates ``EXPECTED`` and records
old -> new and why.  Takes a few seconds.
"""

from __future__ import annotations

import sys
import zlib
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
sys.path[:0] = [str(ROOT / "src"), str(ROOT / "perfbench")]

from toolrouter import bench, scenarios  # noqa: E402
from toolrouter.scenarios import load_scenarios, run_self_healing  # noqa: E402
from workloads import WORKLOADS  # noqa: E402

WORKLOAD_SEED = 11
WORKLOAD_TASKS = {"paper_fuzz": 3_000, "wide_catalog": 400, "long_session": 6_000}
# 965b3cb6 -> d644cef3, 1a08c54b -> fb4af7ee, 2042c5fd -> 8cd2fdc8,
# 8d35fffd -> ae8d248a, 9ba40b32 -> 1dff1bbb: the intent monitor is gone, so
# an idle pre-route sweep logs tool_health 0.10 as its monitor_winner.  With
# monitor_winner events stripped, every trace is byte-identical to before.
EXPECTED = {
    "fixtures": "d644cef3",
    "fuzz": "fb4af7ee",
    "paper_fuzz": "8cd2fdc8",
    "wide_catalog": "ae8d248a",
    # Earlier, 8141714d -> 9ba40b32: SimClock.advance carries fractional
    # milliseconds instead of dropping them; only long_session feeds them.
    "long_session": "1dff1bbb",
    "report_json": "b5138156",
    "report_md": "066d6f7f",
}


def chained(traces) -> str:
    digest = 0
    for trace in traces:
        digest = zlib.crc32(trace.to_json().encode(), digest)
    return f"{digest:08x}"


def fuzz_traces(iterations: int, seed: int) -> tuple[list, dict]:
    """The traces ``run_fuzz`` makes, caught at the ``execute_task`` call
    of ``scenarios.run_schedule``."""
    traces = []
    execute_task = scenarios.execute_task

    def recording(*args, **kwargs):
        trace = execute_task(*args, **kwargs)
        traces.append(trace)
        return trace

    scenarios.execute_task = recording
    try:
        stats = bench.run_fuzz(iterations, seed=seed)
    finally:
        scenarios.execute_task = execute_task
    return traces, stats


def crc(text: str) -> str:
    return f"{zlib.crc32(text.encode()):08x}"


def main() -> int:
    got = {"fixtures": chained(run_self_healing(s) for s in load_scenarios())}
    traces, stats = fuzz_traces(1000, seed=42)
    got["fuzz"] = chained(traces)
    print(f"fuzz stats    {stats}")
    for name, tasks in WORKLOAD_TASKS.items():
        workload = WORKLOADS[name](WORKLOAD_SEED)
        got[name] = chained(workload.run_task(t) for t in workload.tasks[:tasks])
    result = bench.run_benchmark(bench.BenchConfig(seed=3))
    for fmt in ("json", "md"):
        got[f"report_{fmt}"] = crc(bench.render_report(result, fmt=fmt, diff=True))
    moved = 0
    for name, digest in got.items():
        if digest == EXPECTED[name]:
            print(f"{name:<13} {digest}")
        else:
            print(f"{name:<13} {EXPECTED[name]} -> {digest}  MOVED")
            moved += 1
    return 1 if moved else 0


if __name__ == "__main__":
    raise SystemExit(main())
