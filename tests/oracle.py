"""Test oracles that share no code with the implementation under test.

``brute_force_shortest`` cross-checks the router's search: it enumerates
every simple path that touches no blocked node by plain DFS, with no
pruning, and returns the minimum total cost and, among equal-cost paths,
the lexicographically smallest node sequence.

``timeline_violations`` replays a trace's timeline against the structural
invariants.  It reads only ``trace.events``, so it checks the traces of all
three architectures.
"""

from __future__ import annotations

from toolrouter.graph import ToolGraph


def enumerate_paths(graph: ToolGraph, source: str, goal: str, blocked=frozenset()) -> list[tuple[float, tuple[str, ...]]]:
    paths: list[tuple[float, tuple[str, ...]]] = []

    def dfs(node: str, visited: set[str], acc: float, trail: tuple[str, ...]) -> None:
        if node == goal:
            paths.append((acc, trail))
            return
        for nxt in graph.out_neighbors(node):
            if nxt in visited or nxt in blocked:
                continue
            dfs(nxt, visited | {nxt}, acc + graph.edge(node, nxt).weight, trail + (nxt,))

    if source not in blocked:
        dfs(source, {source}, 0.0, (source,))
    return paths


def brute_force_shortest(
    graph: ToolGraph, source: str, goal: str, blocked=frozenset()
) -> tuple[float, tuple[str, ...]] | None:
    if source == goal:
        return 0.0, (source,)
    paths = enumerate_paths(graph, source, goal, blocked)
    if not paths:
        return None
    best_cost = min(c for c, _ in paths)
    candidates = sorted(p for c, p in paths if abs(c - best_cost) < 1e-9)
    return best_cost, candidates[0]


RECOMPUTE_EVENTS = ("reroute", "route_exhausted")
# The query kinds of the router's reasoner; the ReAct model's ``react_step``
# consults each pick its next act, so no decision event follows them.
REASONER_QUERIES = ("demotion", "escalation", "risk_escalation")
CONSULT_DECISIONS = ("demoted", "demotion_unroutable", "escalated")


def timeline_violations(trace) -> list[str]:
    """Replay a trace's timeline against the structural invariants:

    - simulated time never goes back
    - a tool that succeeded is never invoked again
    - a quarantined tool is never invoked
    - each quarantine batch after the first route is followed by exactly
      one recompute (``reroute`` or ``route_exhausted``)
    - each ``consult`` of a router query is followed by a decision
      (``CONSULT_DECISIONS``) before the next ``consult`` or ``tool_call``
    """
    problems = []
    succeeded: set[str] = set()
    quarantined: set[str] = set()
    routed = False
    recomputes = None  # recomputes since the last quarantine batch after the first route
    consulted = None  # t_ms of a router consult still awaiting its decision
    last_t = None
    for ev in trace.events:
        kind = ev["event"]
        if last_t is not None and ev["t_ms"] < last_t:
            problems.append(f"t_ms went back from {last_t} to {ev['t_ms']} at {kind}")
        last_t = ev["t_ms"]
        if kind in ("quarantine", "tool_call"):
            if recomputes not in (None, 1):
                problems.append(f"quarantine batch followed by {recomputes} recomputes")
            recomputes = None
        if kind in ("consult", "tool_call"):
            if consulted is not None:
                problems.append(f"consult at {consulted} ms followed by {kind} before a decision")
            consulted = ev["t_ms"] if kind == "consult" and ev["query"] in REASONER_QUERIES else None
        elif kind in CONSULT_DECISIONS:
            consulted = None
        if kind == "quarantine":
            quarantined.update(ev["tools"])
            if routed:
                recomputes = 0
        elif kind == "tool_call":
            if ev["node"] in succeeded:
                problems.append(f"{ev['node']} invoked again after it succeeded")
            if ev["node"] in quarantined:
                problems.append(f"quarantined {ev['node']} was invoked")
            if ev["success"]:
                succeeded.add(ev["node"])
        elif kind in RECOMPUTE_EVENTS or kind in ("routed", "demoted"):
            if kind in RECOMPUTE_EVENTS and recomputes is not None:
                recomputes += 1
            routed = True
    if recomputes not in (None, 1):
        problems.append(f"final quarantine batch followed by {recomputes} recomputes")
    if consulted is not None:
        problems.append(f"consult at {consulted} ms ended the trace without a decision")
    return problems
