from __future__ import annotations

import math
import random
import sys
import threading

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from oracle import brute_force_shortest, enumerate_paths
from toolrouter.graph import (
    INFINITE,
    ROUTE_MEMO_ENTRIES,
    GraphError,
    NonPositiveWeight,
    RoutePath,
    ToolGraph,
    UnknownEdge,
    UnknownNode,
)
from toolrouter.topologies import BUILDERS, START, TopologyKind, build_topology

from conftest import count_calls, make_random_graph


@pytest.fixture
def support_graph() -> ToolGraph:
    return build_topology(TopologyKind.LINEAR_PIPELINE).fresh_graph()


class TestShortestPath:
    def test_healthy_route_costs_4(self, support_graph):
        path = support_graph.shortest_path(START, "goal_refund")
        assert path.nodes == (START, "crm", "stripe", "email", "goal_refund")
        assert path.total_cost == pytest.approx(4.0)

    def test_source_equals_goal(self, support_graph):
        path = support_graph.shortest_path("crm", "crm")
        assert path.nodes == ("crm",)
        assert path.total_cost == 0

    def test_backup_route_costs_6_after_double_quarantine(self, support_graph):
        path = support_graph.shortest_path(START, "goal_refund", (), frozenset({"stripe", "email"}))
        assert path.nodes == (START, "crm", "razorpay", "sms", "goal_refund")
        assert path.total_cost == pytest.approx(6.0)

    def test_unknown_node_raises(self, support_graph):
        with pytest.raises(UnknownNode):
            support_graph.shortest_path(START, "nope")
        with pytest.raises(UnknownNode):
            support_graph.shortest_path("nope", "goal_refund")

    def test_null_when_no_route(self, support_graph):
        assert support_graph.shortest_path(START, "goal_refund", (), frozenset({"crm"})) is None

    def test_matches_brute_force_on_random_graphs(self):
        rng = random.Random(4312)
        checked = 0
        for _ in range(300):
            g, src, dst = make_random_graph(rng)
            blocked = frozenset(v for v in sorted(g.nodes) if rng.random() < 0.2)
            # A demotion lane, routed over beside the blocked set; the oracle
            # reads it wired into the graph, where the graph's own edge wins.
            a, b = rng.sample(sorted(g.nodes), 2)
            lane = ((a, b, rng.choice([1.0, 2.0, 0.5])),)
            got = g.shortest_path(src, dst, lane, blocked)
            if not g.has_edge(a, b):
                g.add_edge(*lane[0])
            expected = brute_force_shortest(g, src, dst, blocked)
            if expected is None:
                assert got is None
            else:
                assert got is not None
                assert got.total_cost == pytest.approx(expected[0])
                assert got.nodes == expected[1]  # lexicographic tie-break agrees
            checked += 1
        assert checked == 300

    def test_deterministic_across_runs(self):
        g = BUILDERS[TopologyKind.LINEAR_PIPELINE]()  # never frozen, so every route is computed
        first = g.shortest_path(START, "goal_refund", (), frozenset({"stripe"}))
        for _ in range(50):
            again = g.shortest_path(START, "goal_refund", (), frozenset({"stripe"}))
            assert again == first

    def test_tie_break_prefers_lexicographic_sequence(self):
        g = ToolGraph()
        for n in ("a", "b", "c", "z"):
            g.add_node(n)
        g.add_edge("a", "b", 1.0)
        g.add_edge("a", "c", 1.0)
        g.add_edge("b", "z", 1.0)
        g.add_edge("c", "z", 1.0)
        assert g.shortest_path("a", "z").nodes == ("a", "b", "z")

    def test_tight_dead_end_is_skipped(self):
        cases = [
            # b lies on a cost-1 edge from a but has no route onward, so a walk
            # that follows tight edges forward without looking ahead would take it.
            ((("a", "b"), ("a", "c"), ("c", "z")), ("a", "c", "z")),
            # two levels deep: the walk enters b, then c, and backs up twice.
            ((("a", "b"), ("b", "c"), ("a", "d"), ("d", "e"), ("e", "z")), ("a", "d", "e", "z")),
        ]
        for edges, route in cases:
            g = ToolGraph()
            for n in sorted({n for edge in edges for n in edge}):
                g.add_node(n)
            for a, b in edges:
                g.add_edge(a, b, 1.0)
            path = g.shortest_path("a", "z")
            assert path.nodes == route and path.total_cost == len(route) - 1

    def test_sub_tolerance_cycle_ends(self):
        # a <-> b at 1e-10 is a cycle of tight edges under the 1e-9 tolerance:
        # a walk that may re-enter a node already on its path goes round it
        # for ever.
        g = ToolGraph()
        for n in ("a", "b", "z"):
            g.add_node(n)
        g.add_edge("a", "b", 1e-10)
        g.add_edge("b", "a", 1e-10)
        g.add_edge("b", "z", 1.0)
        path = g.shortest_path("a", "z")
        assert (path.total_cost, path.nodes) == brute_force_shortest(g, "a", "z")
        assert path.nodes == ("a", "b", "z")

    def test_long_chain_routes_end_to_end(self):
        # 5,000 hops, each with a tight dead-end branch that sorts first, so
        # the walk enters and backs out of 4,999 dead ends; a recursive walk
        # would pass the interpreter's recursion limit.
        chain = [f"c{i:04d}" for i in range(5000)]
        g = ToolGraph()
        for i, node in enumerate(chain):
            g.add_node(node)
            g.add_node(f"b{i:04d}")
        for i, (a, b) in enumerate(zip(chain, chain[1:])):
            g.add_edge(a, b, 1.0)
            g.add_edge(a, f"b{i:04d}", 1.0)
        path = g.shortest_path(chain[0], chain[-1])
        assert path.nodes == tuple(chain) and path.total_cost == 4999.0

    @settings(derandomize=True, database=None, deadline=None, max_examples=200)
    @given(st.data())
    def test_search_sequences_match_brute_force(self, data):
        """Quarantines (some of a node on the last route, then a reroute;
        some of a node or name that no source -> goal path passes, which
        leaves the route as it was), demotion lanes and goal changes
        between searches from random sources, over tie-prone weights, by
        two tasks on one frozen graph.  Every question is asked by both
        tasks, each with its own blocked set and lane: they share one route
        memo keyed by both, so the oracle checks memo hits and misses.  The
        oracle's graph is an unfrozen copy with the task's lane wired in,
        the first edge between two nodes winning."""
        names = [f"n{i}" for i in range(data.draw(st.integers(2, 9), label="nodes"))]
        pairs = [(a, b) for a in names for b in names if a != b]
        node, pair, weight = st.sampled_from(names), st.sampled_from(pairs), st.sampled_from((0.5, 1.0, 2.0, 3.0))
        edges = [
            (a, b, data.draw(weight))
            for a, b in data.draw(st.lists(pair, min_size=len(names), max_size=3 * len(names), unique=True), label="edges")
        ]

        def build(lane=()) -> ToolGraph:
            g = ToolGraph()
            for name in names:
                g.add_node(name)
            for a, b, w in edges:
                g.add_edge(a, b, w)
            for a, b, w in lane:
                if not g.has_edge(a, b):
                    g.add_edge(a, b, w)
            return g

        shared = build().freeze()
        blocked, lanes = [frozenset(), frozenset()], [(), ()]
        goal, source = data.draw(node, label="goal"), data.draw(node, label="source")

        def ask() -> list[RoutePath | None]:
            routes = []
            for task_blocked, lane in zip(blocked, lanes):
                got = shared.shortest_path(source, goal, lane, task_blocked)
                expected = brute_force_shortest(build(lane), source, goal, task_blocked)
                assert (None if got is None else (got.total_cost, got.nodes)) == expected
                routes.append(got)
            return routes

        routes = ask()
        steps = st.sampled_from(("quarantine", "fail", "off", "lane", "goal", "search", "search"))
        for step in data.draw(st.lists(steps, min_size=1, max_size=12), label="steps"):
            side = data.draw(st.integers(0, 1), label="task")
            if step == "quarantine":
                blocked[side] |= {data.draw(node)}
            elif step == "off":  # a node no source -> goal path passes, or a name that is no node
                on = {n for _, path in enumerate_paths(build(lanes[side]), source, goal) for n in path}
                before = shared.shortest_path(source, goal, lanes[side], blocked[side])
                blocked[side] |= {data.draw(st.sampled_from([n for n in names if n not in on] + ["ghost"]))}
                routes = ask()
                assert routes[side] == before
            elif step == "fail":  # a tool on this task's route fails: quarantine it, reroute
                route = routes[side]
                if route is not None and len(route.nodes) > 2:
                    blocked[side] |= {data.draw(st.sampled_from(route.nodes[1:-1]))}
                routes = ask()
            elif step == "lane":
                lanes[side] += ((*data.draw(pair), data.draw(weight)),)
            elif step == "goal":
                goal = data.draw(node)
            else:
                source = data.draw(node)
                routes = ask()
        assert shared.to_json() == build().to_json()

    def test_never_returns_a_path_through_infinite_edges(self):
        rng = random.Random(99)
        for _ in range(100):
            g, src, dst = make_random_graph(rng)
            blocked = frozenset(n for n in g.nodes if rng.random() < 0.3)
            path = g.shortest_path(src, dst, (), blocked)
            if path is None or src == dst:
                continue
            assert math.isfinite(path.total_cost)
            assert blocked.isdisjoint(path.nodes)
            for a, b in zip(path.nodes, path.nodes[1:]):
                assert g.has_edge(a, b)

    def test_quarantine_never_decreases_costs(self):
        rng = random.Random(7)
        for _ in range(60):
            g, _, _ = make_random_graph(rng)
            nodes = sorted(g.nodes)
            before = {}
            for a in nodes:
                for b in nodes:
                    if a != b:
                        p = g.shortest_path(a, b)
                        before[(a, b)] = None if p is None else p.total_cost
            victim = rng.choice(nodes)
            for a in nodes:
                for b in nodes:
                    if a == b or victim in (a, b):
                        continue
                    after = g.shortest_path(a, b, (), frozenset({victim}))
                    prev = before[(a, b)]
                    if after is None:
                        continue  # route lost entirely; nothing to compare
                    assert prev is not None
                    assert after.total_cost >= prev - 1e-9


def blocked_edges(g, blocked) -> int:
    return sum(e.src in blocked or e.dst in blocked for e in g.edges())


class TestQuarantine:
    def test_counts_touching_edges_and_reroutes(self):
        cases = [
            ((), (), 3),  # crm->stripe, stripe->email, stripe->sms
            # Two edges into stripe, from razorpay (live) and from sms
            # (quarantined first): crm->stripe, razorpay->stripe and
            # stripe->email; sms->stripe and stripe->sms were already blocked.
            ((("razorpay", "stripe"), ("sms", "stripe")), ("sms",), 3),
        ]
        for extra, quarantined, changed in cases:
            g = BUILDERS[TopologyKind.LINEAR_PIPELINE]()  # never frozen, so it can be written
            for a, b in extra:
                g.add_edge(a, b, 1.0)
            blocked = frozenset(quarantined) | {"stripe"}
            assert blocked_edges(g, blocked) - blocked_edges(g, quarantined) == changed
            path = g.shortest_path(START, "goal_refund", (), blocked)
            assert "razorpay" in path.nodes

    def test_idempotent(self):
        g = BUILDERS[TopologyKind.LINEAR_PIPELINE]()  # caller-owned, so it may quarantine
        g.quarantine_node("stripe")
        route = g.shortest_path(START, "goal_refund")
        g.quarantine_node("stripe")
        assert g.quarantined == {"stripe"} and g.shortest_path(START, "goal_refund") == route
        assert route == g.shortest_path(START, "goal_refund", (), frozenset({"stripe"}))

    def test_isolated_node_modifies_nothing(self):
        g = BUILDERS[TopologyKind.LINEAR_PIPELINE]()  # never frozen, so it can be written
        g.add_node("lonely")
        before = g.shortest_path(START, "goal_refund")
        assert blocked_edges(g, {"lonely"}) == 0
        assert g.shortest_path(START, "goal_refund", (), frozenset({"lonely"})) == before

    def test_unknown_node(self):
        with pytest.raises(UnknownNode):
            BUILDERS[TopologyKind.LINEAR_PIPELINE]().quarantine_node("ghost")

    def test_single_search_recovers_any_batch_size(self, monkeypatch):
        # One search handles K simultaneous quarantines; no per-failure searches.
        computed = count_calls(monkeypatch, ToolGraph, "_search")
        g = BUILDERS[TopologyKind.LINEAR_PIPELINE]()  # never frozen, so no memo hides a search
        for k, batch in enumerate([["stripe"], ["stripe", "email"], ["stripe", "email", "razorpay"]], start=1):
            g.shortest_path(START, "goal_refund", (), frozenset(batch))
            assert computed[0] == k


class TestRestoreAndReweight:
    def test_unknown_edge(self, support_graph):
        with pytest.raises(UnknownEdge):
            support_graph.edge("email", "crm")


class TestConstruction:
    def test_no_self_loops(self):
        g = ToolGraph()
        g.add_node("a")
        with pytest.raises(Exception):
            g.add_edge("a", "a", 1.0)

    def test_edges_require_declared_nodes(self):
        g = ToolGraph()
        g.add_node("a")
        with pytest.raises(UnknownNode):
            g.add_edge("a", "missing", 1.0)

    def test_edge_weight_validation(self):
        g = ToolGraph()
        g.add_node("a")
        g.add_node("b")
        for bad in (0.0, -1.0, float("nan"), INFINITE):
            with pytest.raises(NonPositiveWeight):
                g.add_edge("a", "b", bad)

    def test_edge_checks_run_in_order(self):
        g = ToolGraph()
        g.add_node("a")
        with pytest.raises(GraphError, match="self-loop on 'x'"):
            g.add_edge("x", "x", -1.0)
        with pytest.raises(UnknownNode, match="'x' is not a declared node"):
            g.add_edge("x", "y", -1.0)
        with pytest.raises(UnknownNode, match="'y' is not a declared node"):
            g.add_edge("a", "y", -1.0)


class TestFreeze:
    def test_writes_on_a_frozen_graph_are_refused(self):
        base = BUILDERS[TopologyKind.LINEAR_PIPELINE]()
        base.add_node("extra")  # writable until it is frozen
        origin = base.to_json()
        assert base.freeze() is base
        writes = [
            lambda g: g.add_node("lonely"),
            lambda g: g.add_node("crm", sentinel=True),
            lambda g: g.add_edge("crm", "email", 1.0),
            lambda g: g.add_edge("crm", "stripe", 5.0),
            lambda g: g.quarantine_node("stripe"),
        ]
        for write in writes:
            with pytest.raises(GraphError, match="frozen"):
                write(base)
        assert base.to_json() == origin and "crm" not in base.sentinels and base.quarantined == set()


class TestFork:
    """Each task once searched its own fork; now every task searches the
    topology's one frozen graph and passes its quarantine as ``blocked``, so
    the next task must still find that graph clear of the last one's state."""

    def test_fork_starts_clear_of_the_origin_task_state(self, support_graph):
        origin = support_graph.to_json()
        detour = support_graph.shortest_path(START, "goal_refund", blocked={"stripe"})
        assert "stripe" not in detour.nodes and detour.total_cost == pytest.approx(6.0)
        assert support_graph.quarantined == set() and support_graph.to_json() == origin
        path = support_graph.shortest_path(START, "goal_refund")
        assert path.nodes == (START, "crm", "stripe", "email", "goal_refund")


class TestRouteMemo:
    def test_memo_hits_skip_the_search(self, monkeypatch):
        computed = count_calls(monkeypatch, ToolGraph, "_search")  # routes computed, not read from the memo
        g = ToolGraph()
        for name in ("a", "b", "c", "d", "q", "z"):
            g.add_node(name)
        for src, dst, w in (("a", "b", 1.0), ("b", "z", 1.0), ("a", "c", 2.0), ("c", "z", 2.0), ("q", "a", 1.0), ("a", "d", 1.0)):
            g.add_edge(src, dst, w)
        g.freeze()
        first = g.shortest_path("a", "z")
        assert g.shortest_path("a", "z") is first and computed[0] == 1
        # No a -> z walk passes q (a never reaches it), d (it never reaches z)
        # or x (no node at all), so blocking them asks the same question: a
        # hit, whatever iterable holds them.
        assert g.shortest_path("a", "z", (), frozenset({"q"})) is first and computed[0] == 1
        assert g.shortest_path("a", "z", (), ["q", "d"]) is g.shortest_path("a", "z", (), {"x"}) is first
        assert computed[0] == 1
        # One passes b, so blocking b computes; q beside it is then a hit.
        detour = g.shortest_path("a", "z", (), frozenset({"b"}))
        assert detour.nodes == ("a", "c", "z") and computed[0] == 2
        assert g.shortest_path("a", "z", (), ("q", "b")) is detour and computed[0] == 2
        # Every q -> z walk passes q's only successor a: blocking it computes.
        assert g.shortest_path("q", "z", (), {"d"}).nodes == ("q", "a", "b", "z") and computed[0] == 3
        assert g.shortest_path("q", "z", (), {"a"}) is None and computed[0] == 4

    def test_lane_of_one_task_leaves_the_other_untouched(self, monkeypatch):
        base = BUILDERS[TopologyKind.LINEAR_PIPELINE]().freeze()
        lane = (("crm", "goal_refund", 1.0),)  # a demotion-style lane, cheaper than any route
        laned, plain = (START, "crm", "goal_refund"), (START, "crm", "razorpay", "email", "goal_refund")
        stripe, stripe_sms = frozenset({"stripe"}), frozenset({"stripe", "sms"})
        # A lane route never serves a lane-free question, nor the reverse,
        # whichever is asked first.
        assert base.shortest_path(START, "goal_refund", (), stripe).nodes == plain
        assert base.shortest_path(START, "goal_refund", lane, stripe).nodes == laned
        assert base.shortest_path(START, "goal_refund", lane, stripe_sms).nodes == laned
        assert base.shortest_path(START, "goal_refund", (), stripe_sms).nodes == plain
        assert not base.has_edge("crm", "goal_refund")
        # A second task reads the lane route from the memo.
        computed = count_calls(monkeypatch, ToolGraph, "_search")
        again = base.shortest_path(START, "goal_refund", lane, frozenset({"stripe"}))
        assert again is base.shortest_path(START, "goal_refund", lane, stripe)
        assert again.nodes == laned and computed[0] == 0

    def test_a_lane_edge_puts_its_nodes_between(self):
        """c joins an a -> z walk only through the lane, so blocking it
        must still send that lane's route round it."""
        g = ToolGraph()
        for name in ("a", "b", "c", "z"):
            g.add_node(name)
        g.add_edge("a", "b", 1.0)
        g.add_edge("b", "z", 1.0)
        g.freeze()
        lane = (("a", "c", 0.5), ("c", "z", 0.5))
        assert g.shortest_path("a", "z", (), {"c"}).nodes == ("a", "b", "z")
        assert g.shortest_path("a", "z", lane).nodes == ("a", "c", "z")
        assert g.shortest_path("a", "z", lane, {"c"}).nodes == ("a", "b", "z")

    def test_memo_is_capped(self):
        names = [f"n{i:02d}" for i in range(20)]
        g = ToolGraph()
        for name in names:
            g.add_node(name)
        for a, b in zip(names, names[1:] + names[:1]):
            g.add_edge(a, b, 1.0)
        g.freeze()
        questions = [(a, b) for a in names for b in names if a != b]
        assert len(questions) > ROUTE_MEMO_ENTRIES
        for source, goal in questions:
            route = g.shortest_path(source, goal)
            assert 0 < len(g._routes) <= ROUTE_MEMO_ENTRIES
            assert (route.total_cost, route.nodes) == brute_force_shortest(g, source, goal)

    def test_threads_read_and_write_one_memo(self):
        names = [f"n{i:02d}" for i in range(20)]  # more (source, goal) pairs than either memo holds

        def ring() -> ToolGraph:
            g = ToolGraph()
            for name in names:
                g.add_node(name)
            for i, a in enumerate(names):
                g.add_edge(a, names[(i + 1) % len(names)], 1.0)
                g.add_edge(a, names[(i + 5) % len(names)], 3.0)
            return g

        shared, reference, workers, errors = ring().freeze(), ring(), 4, []  # reference: never frozen, computes every route

        def work(seed: int) -> None:
            rng = random.Random(seed)
            try:
                for _ in range(300):
                    blocked = frozenset(rng.sample(names, rng.randint(0, 2)))
                    source, goal = rng.sample(names, 2)
                    assert shared.shortest_path(source, goal, (), blocked) == reference.shortest_path(source, goal, (), blocked)
            except Exception as exc:  # a thread's error must fail the test, not vanish with the thread
                errors.append(exc)

        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            threads = [threading.Thread(target=work, args=(seed,)) for seed in range(workers)]
            for t in threads:
                t.start()
            for t in threads:
                t.join(timeout=20)
        finally:
            sys.setswitchinterval(interval)
        assert not any(t.is_alive() for t in threads) and errors == []
        # a writer checks the size, then stores: racing writers may each add one past the cap
        assert 0 < len(shared._routes) <= ROUTE_MEMO_ENTRIES + workers
        assert 0 < len(shared._spans) <= ROUTE_MEMO_ENTRIES + workers

    def test_unfrozen_graph_keeps_no_memo(self, monkeypatch):
        computed = count_calls(monkeypatch, ToolGraph, "_search")  # routes computed, not read from the memo
        g = ToolGraph()
        for name in ("a", "b"):
            g.add_node(name)
        g.add_edge("a", "b", 1.0)
        g.shortest_path("a", "b")
        g.shortest_path("a", "b")
        assert g._routes is None and computed[0] == 2
        g.add_node("c")  # stays writable
        g.add_edge("b", "c", 1.0)
        assert g.shortest_path("a", "c").nodes == ("a", "b", "c") and g._routes is None
        g.freeze()
        with pytest.raises(GraphError):
            g.add_node("d")
