"""Cost-weighted directed tool graph with deterministic shortest-path search.

Tools are nodes and directed edges carry strictly positive finite costs that
never change once added, kept in one forward adjacency whose keys are the
declared nodes.  A search is given the task's blocked set: an edge is usable
only while neither endpoint is blocked.  It may also be given a lane, extra
edges it reads over the graph's own without writing them.  Search is one
forward Dijkstra pass from the source with a binary heap, O((V+E) log V),
stopping once the goal is settled.  A depth-first walk from the source over
the tight out-edges of the settled nodes then picks, among equal-cost
routes, the lexicographically smallest node-id sequence, so identical
inputs always produce identical paths.

A frozen graph (``freeze``) refuses writes and keeps a route memo (Michie's
memo functions, 1968): a route is a pure function of the adjacency, the
source, the goal, the blocked set and the lane, so a search asked again
with the same ones is a lookup.  The memo holds at most
``ROUTE_MEMO_ENTRIES`` routes and is cleared when full; a graph that was
never frozen stays writable, keeps none and computes every route.
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass
from heapq import heappop, heappush
from typing import Iterable, Iterator, KeysView

from .errors import ToolrouterError

INFINITE = math.inf
ROUTE_MEMO_ENTRIES = 256  # routes kept per shared adjacency; cleared when full
_UNSEEN = object()


class GraphError(ToolrouterError):
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
    """Snapshot of a directed edge."""

    src: str
    dst: str
    weight: float


@dataclass(frozen=True, slots=True)
class RoutePath:
    """Shortest-path result: ordered node ids plus the summed cost."""

    nodes: tuple[str, ...]
    total_cost: float


class ToolGraph:
    """A topology's nodes and edges.  ``sentinels`` marks start/goal markers
    that are routable but never invoked as tools.  A graph holds no task
    state: a task passes its quarantined nodes and a demotion's fallback
    edges to ``shortest_path`` as the blocked set and the lane.

    ``freeze`` makes a built graph read-only, so one graph per topology can
    serve every task: ``add_node``, ``add_edge`` and ``quarantine_node``
    then raise ``GraphError``.  A search on a frozen graph writes only its
    route memo, keyed by ``(source, goal, blocked, lane)``, whose every
    value is a pure function of its key, so searches may run on distinct
    threads (racing writers may each add one route past the cap).
    """

    def __init__(self) -> None:
        self._out: dict[str, dict[str, float]] = {}  # src -> {dst: weight}, keyed by every declared node
        self.nodes: KeysView[str] = self._out.keys()
        self.sentinels: set[str] = set()
        self._routes: dict[tuple, RoutePath | None] | None = None  # the route memo; a graph with one is frozen
        self.quarantined: set[str] = set()  # blocked in every search; see ``quarantine_node``

    def freeze(self) -> ToolGraph:
        """Refuse writes from now on and keep a route memo; returns the graph."""
        if self._routes is None:
            self._routes = {}
        return self

    # -- construction -------------------------------------------------

    def add_node(self, node_id: str, base_cost: float = 1.0, sentinel: bool = False) -> None:
        """Declare ``node_id``; declaring it again can only add the sentinel
        mark.  ``base_cost`` is unused (search reads only edge weights);
        accepted because perfbench passes it."""
        if self._routes is not None:
            raise GraphError(f"cannot add node {node_id!r}: the graph is frozen")
        if not node_id or not isinstance(node_id, str):
            raise GraphError("node id must be a non-empty string")
        self._out.setdefault(node_id, {})
        if sentinel:
            self.sentinels.add(node_id)

    def add_edge(self, src: str, dst: str, weight: float) -> None:
        if self._routes is not None:
            raise GraphError(f"cannot add edge {src!r} -> {dst!r}: the graph is frozen")
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

    def quarantine_node(self, node: str) -> None:
        """Block ``node`` in every later search of this graph; idempotent.
        Only for a graph its caller owns, as perfbench's search-scaling
        probe does: a frozen graph refuses it, a task passes ``blocked``."""
        if self._routes is not None:
            raise GraphError(f"cannot quarantine {node!r}: the graph is frozen")
        if node not in self.nodes:
            raise UnknownNode(f"unknown node {node!r}")
        self.quarantined.add(node)

    # -- inspection ---------------------------------------------------

    def has_edge(self, src: str, dst: str) -> bool:
        return dst in self._out.get(src, ())

    def edge(self, src: str, dst: str) -> Edge:
        if not self.has_edge(src, dst):
            raise UnknownEdge(f"no edge {src!r} -> {dst!r}")
        return Edge(src, dst, self._out[src][dst])

    def edges(self) -> Iterator[Edge]:
        return (self.edge(src, dst) for src, targets in self._out.items() for dst in targets)

    def tool_nodes(self) -> list[str]:
        return sorted(self.nodes - self.sentinels)

    def out_neighbors(self, node: str) -> list[str]:
        if node not in self.nodes:
            raise UnknownNode(f"unknown node {node!r}")
        return sorted(self._out[node])

    # -- search -------------------------------------------------------

    def shortest_path(self, source: str, goal: str, lane: tuple = (), blocked: Iterable[str] = frozenset()) -> RoutePath | None:
        """Minimum-cost path through no ``blocked`` node, or None if no route.

        ``lane`` holds extra ``(src, dst, weight)`` edges to route over too
        (see ``_overlay``).  On a frozen graph, a route already found with
        the same blocked set and lane is read from the memo; otherwise it
        is computed (``_search``).
        """
        for n in (source, goal):
            if n not in self.nodes:
                raise UnknownNode(f"unknown node {n!r}")
        if source == goal:
            return RoutePath((source,), 0.0)
        if type(blocked) is not frozenset or self.quarantined:
            blocked = frozenset(blocked).union(self.quarantined)
        if source in blocked or goal in blocked:
            return None
        memo = self._routes
        if memo is None:
            return self._search(source, goal, lane, blocked)
        key = (source, goal, blocked, lane)
        route = memo.get(key, _UNSEEN)
        if route is _UNSEEN:
            route = self._search(source, goal, lane, blocked)
            if len(memo) >= ROUTE_MEMO_ENTRIES:
                memo.clear()
            memo[key] = route
        return route

    def _search(self, source: str, goal: str, lane: tuple, blocked: frozenset[str]) -> RoutePath | None:
        """Compute the route between two distinct unblocked nodes, over
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
        # A blocked node's best is 0.0 and a settled node's is its
        # distance, so with weights > 0 no candidate improves either: one
        # test per edge keeps both out of the heap.
        best = dict.fromkeys(blocked, 0.0)
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
                {"from": e.src, "to": e.dst, "weight": e.weight}
                for e in sorted(self.edges(), key=lambda e: (e.src, e.dst))
            ],
        }
        return json.dumps(doc, indent=2)

