"""Per-task invariant audit, replayed from a finished trace's timeline.

Runs outside the timed region.  Returns human-readable violations; an empty
list means the task ended correctly.
"""

from __future__ import annotations

from toolrouter.orchestrator import ExecutionTrace, TraceStatus
from toolrouter.topologies import START

ROUTE_EVENTS = ("reroute", "route_exhausted")


def audit_trace(trace: ExecutionTrace, goal_nodes: dict[str, str], silent: bool) -> list[str]:
    """Check the structural guarantees the paper makes for every run:

    - a tool that succeeded is never invoked again;
    - a quarantined tool is never invoked;
    - each quarantine batch after the first route is followed by exactly
      one ``reroute`` or ``route_exhausted`` event;
    - simulated time (``t_ms``) never decreases;
    - SUCCESS carries a completed route from finished work (or the start)
      to the final goal's node, ESCALATED a note;
    - no silent success (``silent`` is the workload's own outcome check).
    """
    problems: list[str] = []
    succeeded: set[str] = set()
    quarantined: set[str] = set()
    routed = False
    pending_batch = False  # a post-route quarantine awaiting its recompute
    recomputes = 0
    last_t = None
    for ev in trace.events:
        kind = ev["event"]
        t = ev["t_ms"]
        if last_t is not None and t < last_t:
            problems.append(f"t_ms went back from {last_t} to {t} at {kind}")
        last_t = t
        if kind in ROUTE_EVENTS or kind in ("routed", "demoted"):
            if pending_batch and kind in ROUTE_EVENTS:
                recomputes += 1
            routed = True
        if kind == "quarantine" or kind == "tool_call":
            if pending_batch and recomputes != 1:
                problems.append(f"quarantine batch followed by {recomputes} recomputes")
            pending_batch = False
        if kind == "quarantine":
            quarantined.update(ev["tools"])
            if routed:
                pending_batch, recomputes = True, 0
        elif kind == "tool_call":
            node = ev["node"]
            if node in succeeded:
                problems.append(f"{node} invoked again after it succeeded")
            if node in quarantined:
                problems.append(f"quarantined {node} was invoked")
            if ev["success"]:
                succeeded.add(node)
    if pending_batch and recomputes != 1:
        problems.append(f"final quarantine batch followed by {recomputes} recomputes")

    if trace.status is TraceStatus.SUCCESS:
        path = trace.resolution.get("path") or []
        goal_node = goal_nodes.get(trace.final_goal)
        if trace.resolution.get("kind") != "completed" or not path:
            problems.append("SUCCESS without a completed route")
        elif path[0] not in succeeded | {START} or path[-1] != goal_node:
            problems.append(f"SUCCESS route {path[0]}..{path[-1]} does not lead from done work to {goal_node}")
    elif trace.status is TraceStatus.ESCALATED:
        if not trace.resolution.get("note"):
            problems.append("ESCALATED without a note")
    else:
        problems.append(f"unknown terminal status {trace.status!r}")
    if silent:
        problems.append("silent success: required outcomes missing")
    return problems
