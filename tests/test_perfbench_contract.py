"""The benchmark in ``perfbench/`` drives toolrouter through its public names
and, when traced, wraps them in place.  This runs a short traced slice of
every workload so that a change removing or renaming a name the benchmark
still reads fails here, not only in the benchmark's own smoke run."""

from __future__ import annotations

from pathlib import Path

from toolrouter.orchestrator import TraceStatus

PERFBENCH = Path(__file__).resolve().parent.parent / "perfbench"
TASKS = 50


def test_traced_workloads_run_against_the_package(monkeypatch):
    monkeypatch.syspath_prepend(str(PERFBENCH))
    import tracing
    import workloads

    tracer = tracing.Tracer()
    patches = tracing.Patches(tracer)
    patches.apply()
    try:
        for name, workload in workloads.WORKLOADS.items():
            w = workload(1)
            for task in w.tasks[:TASKS]:
                trace = w.run_task(task)
                assert trace.status in (TraceStatus.SUCCESS, TraceStatus.ESCALATED), name
    finally:
        patches.undo()
    for span in ("orchestrator.execute_task", "graph.search", "graph.build", "calibration.record_call"):
        assert tracer.calls(span) > 0, span
    assert tracer.counters["window_samples"] > 0
