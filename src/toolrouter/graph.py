"""Cost-weighted directed tool graph with deterministic shortest-path search.

Tools are nodes and directed edges carry strictly positive finite costs that
never change once added, kept in one forward adjacency whose keys are the
declared nodes.  Quarantine is a set of nodes: an edge is usable only while
neither endpoint is quarantined.  A search may be given a lane, extra edges
it reads over the graph's own without writing them.  Search is one forward
Dijkstra pass from the source with a binary heap, O((V+E) log V), stopping
once the goal is settled.  A depth-first walk from the source over the
tight out-edges of the settled nodes then picks, among equal-cost routes,
the lexicographically smallest node-id sequence, so identical graph states
always produce identical paths.

Graphs made by ``fork`` share their frozen nodes and edges and a route memo
(Michie's memo functions, 1968): a route is a pure function of the
adjacency, the source, the goal, the quarantine set and the lane, so a
search asked again with the same ones is a lookup.  The memo holds at most
``ROUTE_MEMO_ENTRIES`` routes and is cleared when full; a graph that was
never forked stays writable, keeps none and computes every route.
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass
from heapq import heappop, heappush
from typing import Iterator, KeysView

INFINITE = math.inf
ROUTE_MEMO_ENTRIES = 256  # routes kept per shared adjacency; cleared when full
_UNSEEN = object()


class GraphError(Exception):
    """Base class for graph construction and query errors."""


class UnknownNode(GraphError):
    pass


class UnknownEdge(GraphError):
    pass


class NonPositiveWeight(GraphError):
    pass


class BadLaneEdge(GraphError):
    """A lane edge that ``add_edge`` would refuse."""


@dataclass(frozen=True)
class Edge:
    """Snapshot of a directed edge.  ``effective_weight`` is the base weight,
    or infinite while either endpoint is quarantined."""

    src: str
    dst: str
    base_weight: float
    effective_weight: float


@dataclass(frozen=True, slots=True)
class RoutePath:
    """Shortest-path result: ordered node ids plus the summed cost."""

    nodes: tuple[str, ...]
    total_cost: float


class ToolGraph:
    """A topology's nodes and edges, plus one task's quarantine set and
    search count.  ``sentinels`` marks start/goal markers that are routable
    but never invoked as tools.  A task's progress lives in its
    ``ExecutionTrace``, and a demotion's fallback edges are the lane it
    passes to ``shortest_path``, so ``quarantined`` is the only task state
    a graph holds.

    ``fork`` gives each task its own graph over the same nodes and edges
    without copying them, with its own ``quarantined`` and ``search_count``.
    Forking freezes the adjacency: ``add_node`` and ``add_edge`` on a fork,
    or on the graph it came from, raise ``GraphError``.  Forks share one
    route memo keyed by ``(source, goal, frozenset(quarantined), lane)``.
    They only read the adjacency and write only the memo, whose every value
    is a pure function of its key and that frozen adjacency, so forks may
    live on distinct threads (racing writers may each add one route past
    the cap).
    """

    def __init__(self) -> None:
        self._out: dict[str, dict[str, float]] = {}  # src -> {dst: weight}, keyed by every declared node
        self.nodes: KeysView[str] = self._out.keys()
        self.sentinels: set[str] = set()
        self._routes: dict[tuple, RoutePath | None] | None = None  # shared by forks; a graph with one is frozen
        self.quarantined: set[str] = set()
        self.search_count = 0  # shortest_path invocations, memo hits included

    def fork(self) -> ToolGraph:
        """A graph over this graph's nodes and edges, with nothing
        quarantined and no searches counted.  The two share adjacency and
        route memo, and neither can be written from now on."""
        g = ToolGraph()
        if self._routes is None:
            self._routes = {}
        g.sentinels, g._out, g._routes = self.sentinels, self._out, self._routes
        g.nodes = self.nodes
        return g

    # -- construction -------------------------------------------------

    def add_node(self, node_id: str, base_cost: float = 1.0, sentinel: bool = False) -> None:
        """Declare ``node_id``; declaring it again can only add the sentinel
        mark.  ``base_cost`` is unused (search reads only edge weights);
        accepted because perfbench passes it."""
        if self._routes is not None:
            raise GraphError(f"cannot add node {node_id!r}: a forked graph is frozen")
        if not node_id or not isinstance(node_id, str):
            raise GraphError("node id must be a non-empty string")
        self._out.setdefault(node_id, {})
        if sentinel:
            self.sentinels.add(node_id)

    def add_edge(self, src: str, dst: str, weight: float) -> None:
        if self._routes is not None:
            raise GraphError(f"cannot add edge {src!r} -> {dst!r}: a forked graph is frozen")
        if src == dst:
            raise GraphError(f"self-loop on {src!r} not allowed")
        out = self._out  # keyed by exactly the declared nodes
        if src not in out:
            raise UnknownNode(f"edge endpoint {src!r} is not a declared node")
        if dst not in out:
            raise UnknownNode(f"edge endpoint {dst!r} is not a declared node")
        is_float = type(weight) is float
        if not ((is_float or isinstance(weight, (int, float))) and 0 < weight < INFINITE):
            raise NonPositiveWeight(f"edge weight must be finite and > 0, got {weight!r}")
        out[src][dst] = weight if is_float else float(weight)

    # -- inspection ---------------------------------------------------

    def has_edge(self, src: str, dst: str) -> bool:
        return dst in self._out.get(src, ())

    def edge(self, src: str, dst: str) -> Edge:
        if not self.has_edge(src, dst):
            raise UnknownEdge(f"no edge {src!r} -> {dst!r}")
        w = self._out[src][dst]
        blocked = src in self.quarantined or dst in self.quarantined
        return Edge(src, dst, w, INFINITE if blocked else w)

    def edges(self) -> Iterator[Edge]:
        return (self.edge(src, dst) for src, targets in self._out.items() for dst in targets)

    def tool_nodes(self) -> list[str]:
        return sorted(self.nodes - self.sentinels)

    def out_neighbors(self, node: str) -> list[str]:
        if node not in self.nodes:
            raise UnknownNode(f"unknown node {node!r}")
        return sorted(self._out[node])

    # -- quarantine ---------------------------------------------------

    def quarantine_node(self, node: str) -> None:
        """Exclude every edge touching ``node`` from routing; idempotent."""
        if node not in self.nodes:
            raise UnknownNode(f"unknown node {node!r}")
        self.quarantined.add(node)

    # -- search -------------------------------------------------------

    def shortest_path(self, source: str, goal: str, lane: tuple = ()) -> RoutePath | None:
        """Minimum-cost path over unquarantined edges, or None if no route.

        ``lane`` holds extra ``(src, dst, weight)`` edges to route over too
        (see ``_overlay``).  Every call counts in ``search_count``.  On a
        forked graph, a route already found with the same quarantine set and
        lane is read from the memo; otherwise it is computed (``_search``).
        """
        for n in (source, goal):
            if n not in self.nodes:
                raise UnknownNode(f"unknown node {n!r}")
        self.search_count += 1
        if source == goal:
            return RoutePath((source,), 0.0)
        blocked = self.quarantined
        if source in blocked or goal in blocked:
            return None
        memo = self._routes
        if memo is None:
            return self._search(source, goal, lane)
        key = (source, goal, frozenset(blocked), lane)
        route = memo.get(key, _UNSEEN)
        if route is _UNSEEN:
            route = self._search(source, goal, lane)
            if len(memo) >= ROUTE_MEMO_ENTRIES:
                memo.clear()
            memo[key] = route
        return route

    def _search(self, source: str, goal: str, lane: tuple) -> RoutePath | None:
        """Compute the route between two distinct unquarantined nodes, over
        the adjacency with ``lane``'s rows overlaid (``_overlay``).

        One forward Dijkstra pass from ``source`` stops once ``goal`` is
        settled, so only nodes cheaper than the route are settled.  Every
        node on a minimum-cost route is among them, joined to the next by a
        tight edge (``dist[u] + w == dist[v]``).  A walk from the source
        then steps to the smallest-id tight successor it has not yet
        entered, and backs up from a node with none left: that node is a
        dead end and is never entered again.  The first path to reach the
        goal is the lexicographically smallest minimum-cost node-id
        sequence.  Each settled node is entered at most once, so the walk
        ends even on a cycle of edges below the 1e-9 tolerance; its tight
        successors are scanned on entry and sorted once if the walk backs up.
        """
        out = self._overlay(lane) if lane else self._out
        dist: dict[str, float] = {}  # settled distances from the source
        # A quarantined node's best is 0.0 and a settled node's is its
        # distance, so with weights > 0 no candidate improves either: one
        # test per edge keeps both out of the heap.
        best = dict.fromkeys(self.quarantined, 0.0)
        best[source] = 0.0
        heap: list[tuple[float, str]] = [(0.0, source)]
        while heap:
            cost, node = heappop(heap)
            if node in dist:
                continue
            dist[node] = cost
            if node == goal:
                break
            for nxt, w in out[node].items():
                cand = cost + w
                if cand < best.get(nxt, INFINITE):
                    best[nxt] = cand
                    heappush(heap, (cand, nxt))
        else:
            return None
        path, entered, rest, backed_up = [source], {source}, {}, False  # rest: node backed up to -> tight successors by id
        while (node := path[-1]) != goal:
            reach, nxt = dist[node], None
            if not backed_up:  # first visit: one scan for the smallest-id tight successor not yet entered
                for v, w in out[node].items():
                    if v in dist and (nxt is None or v < nxt) and v not in entered and abs(reach + w - dist[v]) < 1e-9:
                        nxt = v
            else:  # sorted once per node, so backing up to a wide fan-out never rescans it
                if node not in rest:
                    rest[node] = iter(sorted(v for v, w in out[node].items() if v in dist and abs(reach + w - dist[v]) < 1e-9))
                nxt = next((v for v in rest[node] if v not in entered), None)
            backed_up = nxt is None
            if backed_up:  # a dead end, never entered again
                path.pop()
            else:
                entered.add(nxt)
                path.append(nxt)
        total = 0.0
        for u, v in zip(path, path[1:]):
            total += out[u][v]
        return RoutePath(tuple(path), total)

    def _overlay(self, lane: tuple) -> dict[str, dict[str, float]]:
        """The adjacency with each lane edge added to a copy of its source's
        row, unless that row already has an edge to the same node: a graph
        edge beats a lane edge, and an earlier lane edge a later one.  An
        edge that is added must pass ``add_edge``'s checks."""
        out = self._out
        rows: dict[str, dict[str, float]] = {}
        for edge in lane:
            src, dst, w = edge
            if dst in rows.get(src, out.get(src, ())):
                continue
            if src == dst or src not in out or dst not in out or not (isinstance(w, (int, float)) and 0 < w < INFINITE):
                raise BadLaneEdge(f"lane edge {edge!r} needs declared, distinct endpoints and a finite weight > 0")
            rows.setdefault(src, dict(out[src]))[dst] = float(w)
        return out | rows

    # -- serialization ------------------------------------------------

    def to_json(self) -> str:
        doc = {
            "nodes": [{"id": n, "sentinel": n in self.sentinels} for n in sorted(self.nodes)],
            "edges": [
                {"from": e.src, "to": e.dst, "weight": e.base_weight}
                for e in sorted(self.edges(), key=lambda e: (e.src, e.dst))
            ],
        }
        return json.dumps(doc, indent=2)

