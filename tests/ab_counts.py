"""Per-seed A/B of the count metrics of this checkout against another one.

    python3 tests/ab_counts.py --other <checkout> --workload paper_fuzz --seeds 1-60 [--tasks N]

For each seed, builds the workload's task stream on both sides (with
``ab_tasks.load_side``) and runs its first pass, every task once in order,
as perfbench counts ``tool_calls_per_task``, ``llm_calls_per_task`` and
``escalated_share``; ``--tasks`` stops each pass after that many tasks.
Prints each seed's three values on both sides and their ratio (this
checkout / other), then the median ratio and how many seeds stay inside
each metric's bound, read from this checkout's ``BENCHMARK.json``.

Uses the standard library only and writes nothing (no bytecode caches).
A sizing aid: a claim is still judged by perfbench's paired runs.
"""

from __future__ import annotations

import argparse
import json
import math
import statistics
import sys
from pathlib import Path

sys.dont_write_bytecode = True
sys.path.insert(0, str(Path(__file__).resolve().parent))

from ab_tasks import ROOT, load_side  # noqa: E402

METRICS = ("tool_calls_per_task", "llm_calls_per_task", "escalated_share")


def first_pass(stream, tasks: int | None) -> dict[str, float]:
    """The three count metrics over the first ``tasks`` tasks of one pass."""
    todo = stream.tasks[:tasks]
    tool_calls = llm_calls = escalated = 0
    for task in todo:
        trace = stream.run_task(task)
        tool_calls += trace.tool_call_count
        llm_calls += trace.llm_calls
        escalated += trace.status.value == "escalated"
    n = len(todo)
    return {"tool_calls_per_task": tool_calls / n, "llm_calls_per_task": llm_calls / n, "escalated_share": escalated / n}


def ratio(a: float, b: float) -> float:
    if b:
        return a / b
    return 1.0 if a == b else math.inf


def within(r: float, spec: dict) -> bool:
    """Whether this checkout's value, at ``r`` times the other's, is no
    worse than the other's by more than the metric's bound."""
    return r <= 1 + spec["bound"] if spec["better"] == "lower" else r >= 1 - spec["bound"]


def seed_range(text: str) -> range:
    first, _, last = text.partition("-")
    try:
        lo, hi = int(first), int(last or first)
    except ValueError:
        raise argparse.ArgumentTypeError(f"expected a-b or a, got {text!r}") from None
    if hi < lo:
        raise argparse.ArgumentTypeError(f"empty seed range {text!r}")
    return range(lo, hi + 1)


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--other", type=Path, required=True, help="root of the checkout to compare against")
    parser.add_argument("--workload", required=True, choices=["paper_fuzz", "wide_catalog", "long_session"])
    parser.add_argument("--seeds", type=seed_range, required=True, help="a-b, both included")
    parser.add_argument("--tasks", type=int, default=None, help="tasks per pass (default: the whole stream)")
    args = parser.parse_args(argv)
    if args.tasks is not None and args.tasks < 1:
        parser.error("--tasks must be >= 1")
    specs = {m["name"]: m for m in json.loads((ROOT / "BENCHMARK.json").read_text())["end_to_end"]}

    ratios: dict[str, list[float]] = {m: [] for m in METRICS}
    print(f"workload {args.workload}  seeds {args.seeds.start}-{args.seeds.stop - 1}  this {ROOT}  other {args.other.resolve()}")
    print("seed  " + "  ".join(f"{m:>30}" for m in METRICS))
    print("      " + "  ".join(f"{'this':>9} {'other':>9} {'ratio':>10}" for _ in METRICS))
    for seed in args.seeds:
        this = first_pass(load_side(ROOT, args.workload, seed), args.tasks)
        other = first_pass(load_side(args.other.resolve(), args.workload, seed), args.tasks)
        cells = []
        for m in METRICS:
            r = ratio(this[m], other[m])
            ratios[m].append(r)
            cells.append(f"{this[m]:>9.4f} {other[m]:>9.4f} {r:>10.4f}")
        print(f"{seed:<6}" + "  ".join(cells))
    print(f"{'median':<6}" + "  ".join(f"{'':>20}{statistics.median(ratios[m]):>10.4f}" for m in METRICS))
    for m in METRICS:
        spec = specs[m]
        inside = sum(within(r, spec) for r in ratios[m])
        print(f"within bound  {m:<20} {inside}/{len(ratios[m])} seeds  (bound {spec['bound']:.0%}, {spec['better']} is better)")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
