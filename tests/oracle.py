"""Brute-force shortest-path oracle for cross-checking the router's search.

Enumerates every simple path that touches no blocked node by plain DFS,
with no pruning and no shared code with the implementation under test.
Returns the minimum total cost and, among equal-cost paths, the
lexicographically smallest node sequence.
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
