"""Cost-weighted directed tool graph with deterministic shortest-path search.

Tools are nodes, directed edges carry strictly positive finite costs, and a
distinguished infinite weight marks quarantined connections.  Pathfinding is
Dijkstra with a binary heap, O((V+E) log V).  Among equal-cost routes the
lexicographically smallest node-id sequence wins, so identical graph states
always produce identical paths.

Graphs here are small (tens of nodes); every query recomputes from scratch
rather than caching, so the route always reflects the current edge weights.
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass, field
from heapq import heappop, heappush
from typing import Iterator, Mapping

INFINITE = math.inf


class GraphError(Exception):
    """Base class for graph construction and query errors."""


class UnknownNode(GraphError):
    pass


class UnknownEdge(GraphError):
    pass


class NonPositiveWeight(GraphError):
    pass


class GraphFormatError(GraphError):
    """Raised by the JSON loader; carries a line number when one is known."""

    def __init__(self, message: str, line: int | None = None):
        self.line = line
        super().__init__(f"line {line}: {message}" if line else message)


@dataclass
class Edge:
    """Directed edge.  effective_weight tracks base_weight until quarantine
    or calibration overrides it."""

    src: str
    dst: str
    base_weight: float
    effective_weight: float

    def as_dict(self) -> dict:
        return {
            "from": self.src,
            "to": self.dst,
            "weight": self.base_weight,
            "effective": None if math.isinf(self.effective_weight) else self.effective_weight,
        }


@dataclass(frozen=True)
class RoutePath:
    """Shortest-path result: ordered node ids plus the summed cost."""

    nodes: tuple[str, ...]
    total_cost: float


def _check_weight(w: float, allow_infinite: bool = False) -> float:
    if allow_infinite and w == INFINITE:
        return w
    if not (isinstance(w, (int, float)) and math.isfinite(w) and w > 0):
        raise NonPositiveWeight(f"edge weight must be finite and > 0, got {w!r}")
    return float(w)


class ToolGraph:
    """Mutable routing substrate for one task.

    Single writer per instance; instances share no state, so distinct graphs
    may live on distinct threads.  ``sentinels`` marks start/goal markers
    that are routable but never invoked as tools.

    A task's progress lives in its ``ExecutionTrace``, but a task does write
    into the graph it runs on: quarantine sets edge weights to infinity, and
    a demotion wires in its fallback lane (``DemotionOption.extra_edges``).
    A graph that has seen a quarantine or a demotion therefore serves only
    that one task; give the next task a fresh graph (or a ``copy`` taken
    before the first task ran).
    """

    def __init__(self) -> None:
        self.nodes: set[str] = set()
        self.base_costs: dict[str, float] = {}
        self._edges: dict[tuple[str, str], Edge] = {}
        self._out: dict[str, set[str]] = {}
        self._in: dict[str, set[str]] = {}
        self.sentinels: set[str] = set()
        self.search_count = 0  # shortest_path invocations, for invariance checks

    # -- construction -------------------------------------------------

    def add_node(self, node_id: str, base_cost: float = 1.0, sentinel: bool = False) -> None:
        if not node_id or not isinstance(node_id, str):
            raise GraphError("node id must be a non-empty string")
        self.nodes.add(node_id)
        self.base_costs.setdefault(node_id, float(base_cost))
        self._out.setdefault(node_id, set())
        self._in.setdefault(node_id, set())
        if sentinel:
            self.sentinels.add(node_id)

    def add_edge(self, src: str, dst: str, weight: float) -> None:
        if src == dst:
            raise GraphError(f"self-loop on {src!r} not allowed")
        for n in (src, dst):
            if n not in self.nodes:
                raise UnknownNode(f"edge endpoint {n!r} is not a declared node")
        w = _check_weight(weight)
        self._edges[(src, dst)] = Edge(src, dst, w, w)
        self._out[src].add(dst)
        self._in[dst].add(src)

    def copy(self) -> "ToolGraph":
        g = ToolGraph()
        g.nodes = set(self.nodes)
        g.base_costs = dict(self.base_costs)
        g._out = {k: set(v) for k, v in self._out.items()}
        g._in = {k: set(v) for k, v in self._in.items()}
        g._edges = {k: Edge(e.src, e.dst, e.base_weight, e.effective_weight) for k, e in self._edges.items()}
        g.sentinels = set(self.sentinels)
        return g

    # -- inspection ---------------------------------------------------

    def has_edge(self, src: str, dst: str) -> bool:
        return (src, dst) in self._edges

    def edge(self, src: str, dst: str) -> Edge:
        try:
            return self._edges[(src, dst)]
        except KeyError:
            raise UnknownEdge(f"no edge {src!r} -> {dst!r}") from None

    def edges(self) -> Iterator[Edge]:
        return iter(self._edges.values())

    def tool_nodes(self) -> list[str]:
        return sorted(self.nodes - self.sentinels)

    def out_neighbors(self, node: str) -> list[str]:
        if node not in self.nodes:
            raise UnknownNode(f"unknown node {node!r}")
        return sorted(self._out[node])

    # -- mutation -----------------------------------------------------

    def set_edge_weight(self, src: str, dst: str, weight: float) -> None:
        edge = self.edge(src, dst)
        edge.effective_weight = _check_weight(weight, allow_infinite=True)

    def quarantine_node(self, node: str) -> int:
        """Set every edge touching ``node`` to infinite weight.

        Topology is untouched; only effective weights change.  Returns the
        number of edges actually modified, so a second call returns 0.
        """
        if node not in self.nodes:
            raise UnknownNode(f"unknown node {node!r}")
        changed = 0
        for dst in self._out[node]:
            e = self._edges[(node, dst)]
            if e.effective_weight != INFINITE:
                e.effective_weight = INFINITE
                changed += 1
        for src in self._in[node]:
            e = self._edges[(src, node)]
            if e.effective_weight != INFINITE:
                e.effective_weight = INFINITE
                changed += 1
        return changed

    def is_quarantined(self, node: str) -> bool:
        if node not in self.nodes:
            raise UnknownNode(f"unknown node {node!r}")
        touching = [self._edges[(node, d)] for d in self._out[node]]
        touching += [self._edges[(s, node)] for s in self._in[node]]
        return bool(touching) and all(e.effective_weight == INFINITE for e in touching)

    def restore_node(self, node: str, weights: Mapping[tuple[str, str], float] | None = None) -> None:
        """Reset each adjacent edge to a supplied finite weight (or its base)."""
        if node not in self.nodes:
            raise UnknownNode(f"unknown node {node!r}")
        keys = [(node, d) for d in self._out[node]] + [(s, node) for s in self._in[node]]
        for key in keys:
            edge = self._edges[key]
            w = edge.base_weight if weights is None else weights.get(key, edge.base_weight)
            edge.effective_weight = _check_weight(w)

    # -- search -------------------------------------------------------

    def _distances(self, origin: str, reverse: bool = False) -> dict[str, float]:
        """Binary-heap Dijkstra over finite-weight edges, O((V+E) log V)."""
        neighbors = self._in if reverse else self._out
        dist = {origin: 0.0}
        heap: list[tuple[float, str]] = [(0.0, origin)]
        settled: set[str] = set()
        while heap:
            cost, node = heappop(heap)
            if node in settled:
                continue
            settled.add(node)
            for nxt in neighbors[node]:
                if nxt in settled:
                    continue
                key = (nxt, node) if reverse else (node, nxt)
                w = self._edges[key].effective_weight
                if w == INFINITE:
                    continue
                cand = cost + w
                if cand < dist.get(nxt, INFINITE):
                    dist[nxt] = cand
                    heappush(heap, (cand, nxt))
        return dist

    def shortest_path(self, source: str, goal: str) -> RoutePath | None:
        """Minimum-cost path over finite-weight edges, or None if no route.

        Ties resolve to the lexicographically smallest node-id sequence:
        after forward and reverse distance passes, the path is rebuilt by a
        greedy walk that at each hop takes the smallest-id neighbor still
        lying on some minimum-cost completion.  Every prefix of an optimal
        path reaches its endpoint at that endpoint's optimal distance, so
        the greedy prefix choice is safe.
        """
        for n in (source, goal):
            if n not in self.nodes:
                raise UnknownNode(f"unknown node {n!r}")
        self.search_count += 1
        if source == goal:
            return RoutePath((source,), 0.0)
        from_source = self._distances(source)
        total = from_source.get(goal)
        if total is None:
            return None
        to_goal = self._distances(goal, reverse=True)
        path = [source]
        node = source
        walked = 0.0
        while node != goal:
            for nxt in sorted(self._out[node]):
                w = self._edges[(node, nxt)].effective_weight
                if w == INFINITE or nxt not in to_goal:
                    continue
                if abs(walked + w + to_goal[nxt] - total) < 1e-9:
                    walked += w
                    node = nxt
                    path.append(nxt)
                    break
            else:  # pragma: no cover - unreachable: an admissible hop always exists
                raise GraphError("path reconstruction lost the optimal route")
        return RoutePath(tuple(path), total)

    # -- serialization ------------------------------------------------

    def to_json(self) -> str:
        doc = {
            "nodes": [
                {"id": n, "base_cost": self.base_costs.get(n, 1.0), "sentinel": n in self.sentinels}
                for n in sorted(self.nodes)
            ],
            "edges": [
                {"from": e.src, "to": e.dst, "weight": e.base_weight}
                for e in sorted(self._edges.values(), key=lambda e: (e.src, e.dst))
            ],
        }
        return json.dumps(doc, indent=2)


def _line_of(text: str, needle: str) -> int | None:
    pos = text.find(needle)
    if pos < 0:
        return None
    return text.count("\n", 0, pos) + 1


def load_graph_json(text: str) -> ToolGraph:
    """Parse a graph definition document and validate its invariants.

    Expected shape: ``{"nodes": [{"id", "base_cost"}], "edges": [{"from",
    "to", "weight"}]}``.  Errors carry the offending line where it can be
    located in the source text.
    """
    try:
        doc = json.loads(text)
    except json.JSONDecodeError as exc:
        raise GraphFormatError(f"invalid JSON: {exc.msg}", line=exc.lineno) from exc
    if not isinstance(doc, dict) or "nodes" not in doc or "edges" not in doc:
        raise GraphFormatError("document must contain 'nodes' and 'edges' arrays")
    g = ToolGraph()
    seen: set[str] = set()
    for i, node_spec in enumerate(doc["nodes"]):
        node_id = node_spec.get("id") if isinstance(node_spec, dict) else None
        if not node_id or not isinstance(node_id, str):
            raise GraphFormatError(f"nodes[{i}]: missing or invalid 'id'")
        if node_id in seen:
            raise GraphFormatError(
                f"nodes[{i}]: duplicate node id {node_id!r}", line=_line_of(text, f'"{node_id}"')
            )
        seen.add(node_id)
        base = node_spec.get("base_cost", 1.0)
        if not (isinstance(base, (int, float)) and math.isfinite(base) and base > 0):
            raise GraphFormatError(
                f"nodes[{i}]: base_cost must be finite and > 0", line=_line_of(text, f'"{node_id}"')
            )
        g.add_node(node_id, base_cost=float(base), sentinel=bool(node_spec.get("sentinel", False)))
    for i, edge_spec in enumerate(doc["edges"]):
        if not isinstance(edge_spec, dict):
            raise GraphFormatError(f"edges[{i}]: expected an object")
        src, dst = edge_spec.get("from"), edge_spec.get("to")
        w = edge_spec.get("weight")
        where = _line_of(text, f'"{src}"') if isinstance(src, str) else None
        if src not in g.nodes:
            raise GraphFormatError(f"edges[{i}]: unknown source node {src!r}", line=where)
        if dst not in g.nodes:
            raise GraphFormatError(f"edges[{i}]: unknown target node {dst!r}", line=where)
        if src == dst:
            raise GraphFormatError(f"edges[{i}]: self-loop on {src!r}", line=where)
        if not (isinstance(w, (int, float)) and math.isfinite(w) and w > 0):
            raise GraphFormatError(f"edges[{i}]: weight must be finite and > 0", line=where)
        g.add_edge(src, dst, float(w))
    return g
