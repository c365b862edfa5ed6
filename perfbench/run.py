"""toolrouter benchmark: closed-loop task streams, end to end and per layer.

    python3 perfbench/run.py --workload paper_fuzz --seed 1 --seconds 30 --trace 0

Run from the repository root.  The package is imported from ``src/`` of
the same checkout (there is nothing to build); without it the benchmark
exits with a non-zero status and prints no result.

Load shape: one process, one thread, one client in a closed loop -- the
next task starts when the previous one returns, so no layer ever waits in
a queue.  All inputs are generated from ``--seed`` before timing starts
(see ``workloads.py``).  Each run:

1. passes the correctness gate (untimed): ``run_benchmark()`` must match
   every fixture cell and two runs must give byte-identical report JSON;
2. warms up on a spare copy of the workload and drops it, then sets the
   workload up SETUP_REPEATS times, one copy alive at a time, and reports
   the median (``setup_s``);
3. runs tasks for ``--seconds`` (at least one pass of the seeded stream)
   in blocks of BLOCK_S.  Each task is timed from graph and state
   construction to ``execute_task``'s return.  After each block the
   reference kernel is timed once (``hostspeed.py``) and the block's traces
   are audited for the structural invariants (``audit.py``), both outside
   the task timings;
4. prints every metric by name with its unit, then one JSON line.

Metric names, units and directions come from ``BENCHMARK.json``; this file
adds only what each per-layer metric should move (MOVES).

Timings in the JSON (task times, ``tasks_per_s``, ``setup_s``) are
host-speed adjusted: each wall time is scaled by REFERENCE_MS over the
reference kernel's time around it, so host phases cancel and changes to
toolrouter do not.  The raw wall values are printed beside them.

``--trace 0`` reports the end-to-end metrics.  ``--trace 1`` alternates
untraced and traced blocks for the same time, reports per-layer metrics
from the spans (``tracing.py``; times there are raw wall time) and the
tracing overhead, runs the search-scaling probe, and writes the raw spans
under ``.perfbench/``.
"""

from __future__ import annotations

import argparse
import gc
import json
import math
import random
import resource
import statistics
import sys
from array import array
from pathlib import Path
from time import perf_counter, perf_counter_ns

from hostspeed import REFERENCE_MS, kernel_ms, smoothed

ROOT = Path(__file__).resolve().parent.parent
SETUP_REPEATS = 5
BLOCK_S = 0.05  # tasks between kernel timings and audits; traced and untraced blocks alternate
WARMUP_BLOCKS = 10

# Spans whose time is attributed to a layer.  Each gives ``<layer>.share``
# (self time / task time) and ``<layer>.ms_per_task`` (inclusive span time
# per traced task); the two spans renamed here report self time in both,
# since everything else inside them belongs to the other layers.
LAYER_SPANS = (
    "graph.search",
    "graph.quarantine",
    "graph.build",
    "topologies.fresh_graph",
    "monitors.sweep",
    "calibration.record_call",
    "calibration.probe",
    "calibration.state_init",
    "scenarios.invoke",
    "scenarios.scan",
    "orchestrator.trace_log",
    "orchestrator.execute_task",
    "bench.task",
)
SELF_LAYERS = {"orchestrator.execute_task": "orchestrator.self", "bench.task": "bench.self"}

# Per-layer metric -> the end-to-end metric and workload it should move.
MOVES = {
    "graph.search.calls_per_task": "one per failure batch plus the first route",
    "graph.search.ms_per_task": "task_ms_p50 and tasks_per_s on wide_catalog; little elsewhere",
    "graph.quarantine.ms_per_task": "task_ms_p50 on wide_catalog",
    "graph.build.ms_per_task": "task_ms_p50 on wide_catalog, or setup_s if moved into set-up",
    "graph.search.us_p50.n100": "task_ms_p50 on wide_catalog",
    "graph.search.us_p50.n1000": "task_ms_p50 on wide_catalog",
    "graph.search.us_p50.n10000": "task_ms_p50 on wide_catalog",
    "topologies.fresh_graph.ms_per_task": "task_ms_p50 on paper_fuzz and long_session (per-task graph)",
    "monitors.sweeps_per_task": "run_all_monitors + compete passes per task",
    "monitors.sweep.ms_per_task": "task_ms_p50 on paper_fuzz and long_session",
    "monitors.actionable_share": "sweeps whose winner quarantined or escalated / sweeps",
    "calibration.record_call.ms_per_task": "task_ms_p50 on long_session first, then paper_fuzz",
    "calibration.probe.ms_per_task": "task_ms_p50 on long_session",
    "calibration.window_len_mean": "record_call cost; full windows on long_session",
    "calibration.state_init.ms_per_task": "task_ms_p50 on paper_fuzz and wide_catalog; ~0 on long_session (lookup)",
    "scenarios.invoke.ms_per_task": "task_ms_p50; the invoker given to execute_task",
    "scenarios.scan.ms_per_task": "task_ms_p50; the prober given to execute_task",
    "orchestrator.self.ms_per_task": "task_ms_p50 everywhere; execute_task minus child spans",
    "orchestrator.trace_log.calls_per_task": "ExecutionTrace.log calls per task",
    "orchestrator.trace_log.ms_per_task": "task_ms_p50 on paper_fuzz and long_session",
    "orchestrator.recomputes_per_task": "failure recomputes; tool_calls_per_task",
    "orchestrator.reroute_share": "reroutes / failure recomputes; llm_calls_per_task",
    "bench.trace_overhead_share": "traced vs untraced task time in the same run",
}


def metric_units(kind: str) -> dict[str, str]:
    """Metric name -> unit for ``end_to_end`` or ``per_layer``, in the order
    BENCHMARK.json lists them."""
    try:
        spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    except OSError as exc:
        sys.exit(f"perfbench: cannot read BENCHMARK.json: {exc}")
    return {m["name"]: m["unit"] for m in spec[kind]}


def import_toolrouter() -> None:
    """Import toolrouter from this checkout's src/, never from elsewhere."""
    src = ROOT / "src"
    sys.path.insert(0, str(src))
    try:
        import toolrouter
    except ImportError as exc:
        sys.exit(f"perfbench: cannot import toolrouter from {src}: {exc}")
    if Path(toolrouter.__file__).resolve().parent.parent != src.resolve():
        sys.exit(f"perfbench: toolrouter came from {toolrouter.__file__}, not {src}")


def correctness_gate() -> list[str]:
    from toolrouter.bench import diff_against_fixtures, run_benchmark

    try:
        first = run_benchmark()
        problems = diff_against_fixtures(first)
        if first.to_json() != run_benchmark().to_json():
            problems.append("two runs of run_benchmark() gave different report JSON")
    except Exception as exc:  # the gate reports a crash like any other failure
        problems = [f"run_benchmark() raised {type(exc).__name__}: {exc}"]
    return problems


def percentile(sorted_values: list[float], q: float) -> float:
    """Nearest-rank percentile of an ascending list."""
    return sorted_values[max(0, math.ceil(q * len(sorted_values)) - 1)]


class Run:
    """Closed-loop measurement of one workload instance."""

    def __init__(self, workload) -> None:
        self.workload = workload
        self.next_task = 0
        self.blocks: list[tuple[bool, array, float]] = []  # traced?, task ns, kernel ms
        self.attempted = 0
        self.failures: list[str] = []
        self.first_pass = {"tasks": 0, "tool_calls": 0, "llm_calls": 0, "escalated": 0}
        self.traced_recomputes = 0
        self.traced_reroutes = 0

    def block(self, seconds: float, run_task, traced: bool = False, tracer=None) -> None:
        """Run tasks for about ``seconds``, then time the reference kernel
        and audit the traces, both untimed."""
        tasks = self.workload.tasks
        done = []
        until = perf_counter() + seconds
        while perf_counter() < until:
            index = self.next_task
            self.next_task += 1
            task = tasks[index % len(tasks)]
            if tracer is not None:
                tracer.task_id = index
            error = None
            t0 = perf_counter_ns()
            try:
                trace = run_task(task)
            except Exception as exc:  # a raising task is a failed task, not a crashed run
                trace, error = None, f"{type(exc).__name__}: {exc}"
            t1 = perf_counter_ns()
            done.append((index, task, trace, t1 - t0, error))
        reference = kernel_ms()
        times = array("q", (elapsed for index, task, trace, elapsed, error in done if self.passes(index, task, trace, error, traced)))
        self.blocks.append((traced, times, reference))

    def passes(self, index, task, trace, error, traced) -> bool:
        """Audit one finished task and count it; False if it failed."""
        from audit import audit_trace
        from toolrouter.orchestrator import TraceStatus

        self.attempted += 1
        if error is None:
            problems = audit_trace(trace, self.workload.goal_nodes(task), self.workload.silent_success(task, trace))
        else:
            problems = [error]
        if problems:
            self.failures.append(f"task {index}: {'; '.join(problems)}")
            return False
        if traced:
            self.traced_recomputes += trace.failure_recomputes
            self.traced_reroutes += trace.recovery_events
        if index < len(self.workload.tasks):
            fp = self.first_pass
            fp["tasks"] += 1
            fp["tool_calls"] += trace.tool_call_count
            fp["llm_calls"] += trace.llm_calls
            fp["escalated"] += trace.status is TraceStatus.ESCALATED
        return True

    def task_ms(self, traced: bool) -> tuple[list[float], list[float]]:
        """(wall, host-speed adjusted) task times in ms for one kind of block."""
        references = smoothed([ref for _, _, ref in self.blocks])
        wall, adjusted = [], []
        for (kind, times, _), ref in zip(self.blocks, references):
            if kind is traced:
                wall += [t / 1e6 for t in times]
                adjusted += [t / 1e6 * REFERENCE_MS / ref for t in times]
        return wall, adjusted


def search_scaling(seed: int) -> dict[str, float]:
    """Median µs of shortest_path with one node quarantined, on seeded
    random graphs of out-degree 4 (a ring edge plus three random ones)."""
    from toolrouter.graph import ToolGraph

    out = {}
    for n, reps in ((100, 301), (1_000, 61), (10_000, 9)):
        rng = random.Random(f"search/{n}/{seed}")
        names = [f"n{i}" for i in range(n)]
        graph = ToolGraph()
        for name in names:
            graph.add_node(name)
        for i, src in enumerate(names):
            graph.add_edge(src, names[(i + 1) % n], float(rng.randint(1, 9)))
            for dst in rng.sample(names, 4):
                if dst != src and not graph.has_edge(src, dst) and len(graph.out_neighbors(src)) < 4:
                    graph.add_edge(src, dst, float(rng.randint(1, 9)))
        graph.quarantine_node(names[rng.randrange(1, n - 1)])
        samples = []
        for _ in range(reps):
            t0 = perf_counter_ns()
            graph.shortest_path(names[0], names[-1])
            samples.append((perf_counter_ns() - t0) / 1e3)
        out[f"graph.search.us_p50.n{n}"] = statistics.median(samples)
    return out


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    units = metric_units("per_layer" if args.trace else "end_to_end")
    import_toolrouter()
    import workloads

    if args.workload not in workloads.WORKLOADS:
        parser.error(f"unknown workload {args.workload!r}; choose from {sorted(workloads.WORKLOADS)}")
    make = workloads.WORKLOADS[args.workload]

    gate = correctness_gate()
    for problem in gate:
        print(f"correctness gate: {problem}", file=sys.stderr)

    spare = make(args.seed)
    warm = Run(spare)
    for _ in range(WARMUP_BLOCKS):  # short blocks, so that few traces are alive at once
        warm.block(BLOCK_S, spare.run_task)
    del spare, warm
    gc.collect()
    setup_wall, setup_adjusted = [], []
    for _ in range(SETUP_REPEATS):
        workload = None  # drop the previous copy before building the next
        before = kernel_ms()
        t0 = perf_counter()
        workload = make(args.seed)
        elapsed = perf_counter() - t0
        reference = (before + kernel_ms()) / 2
        setup_wall.append(elapsed)
        setup_adjusted.append(elapsed * REFERENCE_MS / reference)
    setup_rss_mib = peak_rss_mib()

    run = Run(workload)
    deadline = perf_counter() + args.seconds
    if args.trace:
        from tracing import Patches, Tracer

        tracer = Tracer()
        patches = Patches(tracer)
        traced_task = tracer.wrap("bench.task", workload.run_task)
        traced = False
        while perf_counter() < deadline:
            if traced:
                patches.apply()
                try:
                    run.block(BLOCK_S, traced_task, traced=True, tracer=tracer)
                finally:
                    patches.undo()
            else:
                run.block(BLOCK_S, workload.run_task)
            traced = not traced
    else:
        # The cost columns are counted over one full pass of the seeded
        # stream, so a run on a slow host goes on until that pass is done,
        # for at most as long again.
        hard_stop = deadline + args.seconds
        while perf_counter() < deadline or (
            run.next_task < len(workload.tasks) and perf_counter() < hard_stop
        ):
            run.block(BLOCK_S, workload.run_task)
    timed_rss_mib = peak_rss_mib()  # before the results below add the harness's own lists

    for failure in run.failures[:20]:
        print(f"failed {failure}", file=sys.stderr)
    failed = len(run.failures)
    print(
        f"workload {args.workload} seed {args.seed}: {run.attempted} tasks attempted in a closed loop "
        f"(1 process, 1 thread, 1 client), {failed} failed, correctness gate "
        f"{'passed' if not gate else 'FAILED'}"
    )
    print(f"failed_share {failed / max(1, run.attempted):.6f} ratio ({failed}/{run.attempted})")
    if not any(times for _, times, _ in run.blocks):
        print("perfbench: no task ended correctly, so there is nothing to measure", file=sys.stderr)
        return 1

    if args.trace:
        metrics = select(layer_metrics(run, tracer, args.seed), units)
        spans_file = ROOT / ".perfbench" / f"spans-{args.workload}-seed{args.seed}.csv"
        tracer.write(spans_file)
        print(f"spans: {len(tracer.raw)} written to {spans_file.relative_to(ROOT)}, {tracer.dropped} not kept")
        for name, value in metrics.items():
            moves = MOVES.get(name, "per-layer breakdown of task time")
            print(f"{name} {value:.6g} {units[name]}  [moves: {moves}]")
    else:
        wall, adjusted = run.task_ms(traced=False)
        metrics = select(end_to_end_metrics(run, adjusted, statistics.median(setup_adjusted), timed_rss_mib), units)
        raw = end_to_end_metrics(run, wall, statistics.median(setup_wall), timed_rss_mib)
        n, fp = len(adjusted), run.first_pass["tasks"]
        notes = {
            "tasks_per_s": f"n={n} tasks",
            "task_ms_p50": f"n={n} tasks",
            "task_ms_p99": f"n={n} tasks, {n // 100} beyond",
            "tool_calls_per_task": f"first pass of the seeded stream, n={fp}",
            "llm_calls_per_task": f"first pass of the seeded stream, n={fp}",
            "escalated_share": f"first pass of the seeded stream, n={fp}",
            "setup_s": f"median of {SETUP_REPEATS} set-ups",
            "peak_rss_mib": f"max resident set of the process up to the end of the timed tasks; {setup_rss_mib:.1f} MiB by the end of set-up",
        }
        kernel = statistics.fmean(ref for _, _, ref in run.blocks)
        print(f"reference kernel {kernel:.4f} ms mean (timings below are scaled to {REFERENCE_MS} ms)")
        for name, value in metrics.items():
            wall_note = f"; wall {raw[name]:.6g}" if raw[name] != value else ""
            print(f"{name} {value:.6g} {units[name]}  ({notes[name]}{wall_note})")
    correct = not gate and failed == 0
    print(
        json.dumps(
            {
                "correct": correct,
                "attempted": run.attempted,
                "failed": failed,
                "metrics": {name: {"value": value, "unit": units[name]} for name, value in metrics.items()},
            }
        )
    )
    return 0 if correct else 1


def select(metrics: dict[str, float], units: dict[str, str]) -> dict[str, float]:
    """The metrics BENCHMARK.json lists, in its order."""
    missing = sorted(set(units) - set(metrics))
    if missing:
        sys.exit(f"perfbench: BENCHMARK.json names metrics this run does not compute: {missing}")
    return {name: metrics[name] for name in units}


def end_to_end_metrics(run: Run, task_ms: list[float], setup_s: float, rss_mib: float) -> dict[str, float]:
    times = sorted(task_ms)
    fp = run.first_pass
    return {
        "tasks_per_s": 1e3 * len(times) / sum(times),
        "task_ms_p50": percentile(times, 0.50),
        "task_ms_p99": percentile(times, 0.99),
        "tool_calls_per_task": fp["tool_calls"] / fp["tasks"],
        "llm_calls_per_task": fp["llm_calls"] / fp["tasks"],
        "escalated_share": fp["escalated"] / fp["tasks"],
        "setup_s": setup_s,
        "peak_rss_mib": rss_mib,
    }


def peak_rss_mib() -> float:
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024


def layer_metrics(run: Run, tracer, seed: int) -> dict[str, float]:
    traced, _ = run.task_ms(traced=True)
    untraced, _ = run.task_ms(traced=False)
    tasks = len(traced)
    task_ns = sum(traced) * 1e6
    calls, total, own, counters = tracer.calls, tracer.total_ns, tracer.self_ns, tracer.counters

    def ratio(a: float, b: float) -> float:
        return a / b if b else 0.0

    m = {
        "graph.search.calls_per_task": ratio(calls("graph.search"), tasks),
        "monitors.sweeps_per_task": ratio(counters["sweeps"], tasks),
        "monitors.actionable_share": ratio(counters["actionable_sweeps"], counters["sweeps"]),
        "calibration.window_len_mean": ratio(counters["window_samples"], calls("calibration.record_call")),
        "orchestrator.trace_log.calls_per_task": ratio(calls("orchestrator.trace_log"), tasks),
        "orchestrator.recomputes_per_task": ratio(run.traced_recomputes, tasks),
        "orchestrator.reroute_share": ratio(run.traced_reroutes, run.traced_recomputes),
        "bench.trace_overhead_share": ratio(statistics.fmean(traced), statistics.fmean(untraced)) - 1.0,
    }
    for span in LAYER_SPANS:
        layer = SELF_LAYERS.get(span, span)
        m[f"{layer}.ms_per_task"] = ratio(own(span) if span in SELF_LAYERS else total(span), tasks) / 1e6
        m[f"{layer}.share"] = ratio(own(span), task_ns)
    m.update(search_scaling(seed))
    return m


if __name__ == "__main__":
    sys.exit(main())
