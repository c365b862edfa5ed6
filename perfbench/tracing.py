"""In-memory span recorder for the traced benchmark run.

Spans are recorded by wrapping the public entry points of each toolrouter
layer from the outside (class attributes and module bindings are swapped
while tracing is on and restored afterwards); nothing inside ``src/`` knows
it is being traced.  Each span has a name, start, end, parent span and task
id.  Self time (a span's duration minus the part its child spans cover) is
folded into per-name totals as spans close, so the aggregates cost O(1)
memory however long the run; the first MAX_RAW_SPANS raw spans are kept and
written out when the run ends.
"""

from __future__ import annotations

import functools
from collections import defaultdict
from pathlib import Path
from time import perf_counter_ns

import workloads
from toolrouter import orchestrator, topologies
from toolrouter.calibration import ToolState
from toolrouter.graph import ToolGraph
from toolrouter.orchestrator import ExecutionTrace
from toolrouter.scenarios import ScheduledInvoker, ScheduledProber

MAX_RAW_SPANS = 100_000


class Tracer:
    def __init__(self) -> None:
        self.task_id = 0
        self.raw: list[tuple[int, int, int, str, int, int]] = []
        self.dropped = 0
        self._acc: dict[str, list[int]] = {}
        self.counters: dict[str, int] = defaultdict(int)
        self._stack: list[list] = []  # [name, span_id, child_ns]
        self._next_id = 0

    def wrap(self, name: str, fn):
        """Return ``fn`` wrapped in a span called ``name``.  A call made
        inside a span of the same name joins it instead of opening a child
        (so a whole graph-building loop can be one ``graph.build`` span)."""
        stack = self._stack
        raw = self.raw
        acc = self._acc.setdefault(name, [0, 0, 0])  # self ns, total ns, calls

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            if stack and stack[-1][0] == name:
                return fn(*args, **kwargs)
            self._next_id += 1
            frame = [name, self._next_id, 0]
            stack.append(frame)
            start = perf_counter_ns()
            try:
                return fn(*args, **kwargs)
            finally:
                end = perf_counter_ns()
                stack.pop()
                dur = end - start
                acc[0] += dur - frame[2]
                acc[1] += dur
                acc[2] += 1
                if stack:
                    stack[-1][2] += dur
                if len(raw) < MAX_RAW_SPANS:
                    raw.append((frame[1], stack[-1][1] if stack else 0, self.task_id, name, start, end))
                else:
                    self.dropped += 1

        return traced

    def self_ns(self, name: str) -> int:
        return self._acc.get(name, (0, 0, 0))[0]

    def total_ns(self, name: str) -> int:
        return self._acc.get(name, (0, 0, 0))[1]

    def calls(self, name: str) -> int:
        return self._acc.get(name, (0, 0, 0))[2]

    def write(self, path: Path) -> None:
        path.parent.mkdir(parents=True, exist_ok=True)
        with path.open("w") as out:
            out.write("span_id,parent_id,task_id,name,start_ns,end_ns\n")
            for row in self.raw:
                out.write(",".join(map(str, row)) + "\n")


def _counting_compete(tracer: Tracer, compete):
    """compete() that also counts winners the orchestrator acts on: a
    tool-health alert (quarantine) or a risk signal at escalation priority."""
    risk_priority = orchestrator.MonitorConfig().risk_priority

    def counted(signals):
        winner = compete(signals)
        tracer.counters["sweeps"] += 1
        if (winner.source == "tool_health" and winner.payload["tools"]) or (
            winner.source == "risk" and winner.priority >= risk_priority
        ):
            tracer.counters["actionable_sweeps"] += 1
        return winner

    return counted


def _window_recording(tracer: Tracer, record_call):
    def recorded(state: ToolState, clock, latency_ms, success):
        record_call(state, clock, latency_ms, success)
        tracer.counters["window_samples"] += len(state.window)

    return recorded


class Patches:
    """Swap traced wrappers in for the layer entry points; ``undo`` restores
    the originals.  Calls that the workloads make through their own module
    bindings (``execute_task``, the state and graph builders) are wrapped
    there, since patching toolrouter's modules would not reach them."""

    def __init__(self, tracer: Tracer) -> None:
        t = tracer
        targets = [
            (ToolGraph, "shortest_path", "graph.search", None),
            (ToolGraph, "quarantine_node", "graph.quarantine", None),
            (ToolGraph, "add_node", "graph.build", None),
            (ToolGraph, "add_edge", "graph.build", None),
            (topologies.Topology, "fresh_graph", "topologies.fresh_graph", None),
            (orchestrator, "run_all_monitors", "monitors.sweep", None),
            (orchestrator, "compete", "monitors.sweep", lambda fn: _counting_compete(t, fn)),
            (ToolState, "record_call", "calibration.record_call", lambda fn: _window_recording(t, fn)),
            (ToolState, "run_health_probe", "calibration.probe", None),
            (ExecutionTrace, "log", "orchestrator.trace_log", None),
            (ScheduledInvoker, "invoke", "scenarios.invoke", None),
            (ScheduledProber, "scan", "scenarios.scan", None),
            (workloads, "execute_task", "orchestrator.execute_task", None),
            (workloads, "scenario_tool_states", "calibration.state_init", None),
            (workloads.LongSession, "tool_states", "calibration.state_init", None),
            (workloads, "catalogue_graph", "topologies.fresh_graph", None),
            (workloads, "add_catalogue", "graph.build", None),  # one span, not one per add_*
            (workloads.SessionInvoker, "invoke", "scenarios.invoke", None),
            (workloads.SessionProber, "scan", "scenarios.scan", None),
        ]
        self._saved = []
        self._wrapped = []
        for owner, attr, name, decorate in targets:
            original = owner.__dict__[attr] if isinstance(owner, type) else getattr(owner, attr)
            fn = decorate(original) if decorate else original
            self._saved.append((owner, attr, original))
            self._wrapped.append((owner, attr, t.wrap(name, fn)))

    def apply(self) -> None:
        for owner, attr, fn in self._wrapped:
            setattr(owner, attr, fn)

    def undo(self) -> None:
        for owner, attr, fn in self._saved:
            setattr(owner, attr, fn)
