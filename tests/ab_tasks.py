"""Interleaved in-process A/B timing of this checkout against another one.

    python3 tests/ab_tasks.py --other <checkout> --workload paper_fuzz [--block 500 --rounds 20 --seed 5]

Imports this checkout's ``toolrouter`` and ``perfbench/workloads.py``,
moves them out of ``sys.modules``, then imports the other checkout's, so
both live in one process.  Each side builds the workload's task stream
for ``--seed``.  Every round times the next ``--block`` tasks of that
stream on both sides, and which side runs first swaps every round, so
drift in the host's speed falls on both; one untimed block per side warms
up first.  Prints the median and quartiles
of the per-round time ratio (this checkout / other): below 1 means this
checkout is faster.

Uses the standard library only and writes nothing (no bytecode caches).
A sizing aid: a performance claim is still judged by perfbench's paired
runs.
"""

from __future__ import annotations

import argparse
import gc
import statistics
import sys
from pathlib import Path
from time import perf_counter_ns

sys.dont_write_bytecode = True

ROOT = Path(__file__).resolve().parent.parent


def load_side(checkout: Path, workload: str, seed: int):
    """Import ``checkout``'s package and workloads, build the workload,
    and drop both from ``sys.modules`` so the next import is fresh."""
    paths = [str(checkout / "src"), str(checkout / "perfbench")]
    sys.path[:0] = paths
    try:
        import workloads

        stream = workloads.WORKLOADS[workload](seed)
    finally:
        del sys.path[: len(paths)]
        for name in [n for n in sys.modules if n in ("toolrouter", "workloads") or n.startswith("toolrouter.")]:
            del sys.modules[name]
    return stream


def time_block(stream, start: int, block: int) -> int:
    """Wall time of one block.  Its traces stay alive until the block
    ends, as perfbench keeps them until it audits a block, so garbage
    collections during the block scan them."""
    tasks = stream.tasks
    gc.collect()
    t0 = perf_counter_ns()
    traces = [stream.run_task(tasks[i % len(tasks)]) for i in range(start, start + block)]
    elapsed = perf_counter_ns() - t0
    del traces
    return elapsed


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--other", type=Path, required=True, help="root of the checkout to compare against")
    parser.add_argument("--workload", required=True, choices=["paper_fuzz", "wide_catalog", "long_session"])
    parser.add_argument("--block", type=int, default=500, help="tasks per side per round")
    parser.add_argument("--rounds", type=int, default=20)
    parser.add_argument("--seed", type=int, default=5)
    args = parser.parse_args(argv)
    if args.block < 1 or args.rounds < 1:
        parser.error("--block and --rounds must be >= 1")

    this = load_side(ROOT, args.workload, args.seed)
    other = load_side(args.other.resolve(), args.workload, args.seed)
    if type(this) is type(other):
        parser.error("both sides loaded the same module")
    time_block(this, 0, args.block)  # warm-up, untimed
    time_block(other, 0, args.block)
    ratios, this_ns, other_ns = [], [], []
    for r in range(args.rounds):
        start = (r + 1) * args.block
        if r % 2 == 0:
            a = time_block(this, start, args.block)
            b = time_block(other, start, args.block)
        else:
            b = time_block(other, start, args.block)
            a = time_block(this, start, args.block)
        ratios.append(a / b)
        this_ns.append(a)
        other_ns.append(b)

    def us_per_task(ns: list[int]) -> float:
        return statistics.median(ns) / args.block / 1e3

    q1, median, q3 = statistics.quantiles(ratios, n=4, method="inclusive") if len(ratios) > 1 else ratios * 3
    print(f"workload {args.workload}  seed {args.seed}  rounds {args.rounds} x {args.block} tasks")
    print(f"this  {us_per_task(this_ns):.1f} us/task (median block)  {ROOT}")
    print(f"other {us_per_task(other_ns):.1f} us/task (median block)  {args.other.resolve()}")
    print(f"ratio this/other: median {median:.3f}  IQR {q1:.3f}-{q3:.3f}")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
