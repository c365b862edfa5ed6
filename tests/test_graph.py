from __future__ import annotations

import math
import random
import sys
import threading

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from oracle import brute_force_shortest
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
        support_graph.quarantine_node("stripe")
        support_graph.quarantine_node("email")
        path = support_graph.shortest_path(START, "goal_refund")
        assert path.nodes == (START, "crm", "razorpay", "sms", "goal_refund")
        assert path.total_cost == pytest.approx(6.0)

    def test_unknown_node_raises(self, support_graph):
        with pytest.raises(UnknownNode):
            support_graph.shortest_path(START, "nope")
        with pytest.raises(UnknownNode):
            support_graph.shortest_path("nope", "goal_refund")

    def test_null_when_no_route(self, support_graph):
        support_graph.quarantine_node("crm")
        assert support_graph.shortest_path(START, "goal_refund") is None

    def test_matches_brute_force_on_random_graphs(self):
        rng = random.Random(4312)
        checked = 0
        for _ in range(300):
            g, src, dst = make_random_graph(rng)
            for v in sorted(g.nodes):
                if rng.random() < 0.2:
                    g.quarantine_node(v)
            # A demotion lane, routed over after the quarantine; the oracle
            # reads it wired into the graph, where the graph's own edge wins.
            a, b = rng.sample(sorted(g.nodes), 2)
            lane = ((a, b, rng.choice([1.0, 2.0, 0.5])),)
            got = g.shortest_path(src, dst, lane)
            if not g.has_edge(a, b):
                g.add_edge(*lane[0])
            expected = brute_force_shortest(g, src, dst)
            if expected is None:
                assert got is None
            else:
                assert got is not None
                assert got.total_cost == pytest.approx(expected[0])
                assert got.nodes == expected[1]  # lexicographic tie-break agrees
            checked += 1
        assert checked == 300

    def test_deterministic_across_runs(self, support_graph):
        support_graph.quarantine_node("stripe")
        first = support_graph.shortest_path(START, "goal_refund")
        for _ in range(50):
            again = support_graph.shortest_path(START, "goal_refund")
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
        """Quarantines (some of a node on the last route, then a reroute),
        demotion lanes and goal changes between searches from random
        sources, over tie-prone weights, on two forks of one base.  Every
        question is asked on both forks, each with its own lane: they share
        one route memo keyed by quarantine set and lane, so the oracle
        checks memo hits and misses.  The oracle's graph is an unforked
        copy with the fork's lane wired in, the first edge between two
        nodes winning."""
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

        base = build()
        forks, lanes = (base.fork(), base.fork()), [(), ()]
        goal, source = data.draw(node, label="goal"), data.draw(node, label="source")

        def ask() -> list[RoutePath | None]:
            routes = []
            for g, lane in zip(forks, lanes):
                before = g.search_count
                got = g.shortest_path(source, goal, lane)
                assert g.search_count == before + 1
                reference = build(lane)
                for n in g.quarantined:
                    reference.quarantine_node(n)
                expected = brute_force_shortest(reference, source, goal)
                assert (None if got is None else (got.total_cost, got.nodes)) == expected
                routes.append(got)
            return routes

        routes = ask()
        steps = st.sampled_from(("quarantine", "fail", "lane", "goal", "search", "search"))
        for step in data.draw(st.lists(steps, min_size=1, max_size=12), label="steps"):
            side = data.draw(st.integers(0, 1), label="fork")
            g = forks[side]
            if step == "quarantine":
                g.quarantine_node(data.draw(node))
            elif step == "fail":  # a tool on this fork's route fails: quarantine it, reroute
                route = routes[side]
                if route is not None and len(route.nodes) > 2:
                    g.quarantine_node(data.draw(st.sampled_from(route.nodes[1:-1])))
                routes = ask()
            elif step == "lane":
                lanes[side] += ((*data.draw(pair), data.draw(weight)),)
            elif step == "goal":
                goal = data.draw(node)
            else:
                source = data.draw(node)
                routes = ask()

    def test_never_returns_a_path_through_infinite_edges(self):
        rng = random.Random(99)
        for _ in range(100):
            g, src, dst = make_random_graph(rng)
            victims = [n for n in g.nodes if rng.random() < 0.3]
            for v in victims:
                g.quarantine_node(v)
            path = g.shortest_path(src, dst)
            if path is None:
                continue
            assert math.isfinite(path.total_cost)
            for a, b in zip(path.nodes, path.nodes[1:]):
                assert g.edge(a, b).effective_weight != INFINITE

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
            g.quarantine_node(victim)
            for a in nodes:
                for b in nodes:
                    if a == b or victim in (a, b):
                        continue
                    after = g.shortest_path(a, b)
                    prev = before[(a, b)]
                    if after is None:
                        continue  # route lost entirely; nothing to compare
                    assert prev is not None
                    assert after.total_cost >= prev - 1e-9


def blocked_edges(g) -> int:
    return sum(e.effective_weight == INFINITE for e in g.edges())


class TestQuarantine:
    def test_counts_touching_edges_and_reroutes(self):
        cases = [
            ((), (), 3),  # crm->stripe, stripe->email, stripe->sms
            # Two lanes into stripe, from razorpay (live) and from sms
            # (quarantined first): crm->stripe, razorpay->stripe and
            # stripe->email; sms->stripe and stripe->sms were already excluded.
            ((("razorpay", "stripe"), ("sms", "stripe")), ("sms",), 3),
        ]
        for lanes, quarantined, changed in cases:
            g = BUILDERS[TopologyKind.LINEAR_PIPELINE]()  # unforked, so it can be written
            for a, b in lanes:
                g.add_edge(a, b, 1.0)
            for node in quarantined:
                g.quarantine_node(node)
            before = blocked_edges(g)
            g.quarantine_node("stripe")
            assert blocked_edges(g) - before == changed
            path = g.shortest_path(START, "goal_refund")
            assert "razorpay" in path.nodes

    def test_idempotent(self, support_graph):
        support_graph.quarantine_node("stripe")
        snapshot = {(e.src, e.dst): e.effective_weight for e in support_graph.edges()}
        support_graph.quarantine_node("stripe")
        assert {(e.src, e.dst): e.effective_weight for e in support_graph.edges()} == snapshot

    def test_isolated_node_modifies_nothing(self):
        g = BUILDERS[TopologyKind.LINEAR_PIPELINE]()  # unforked, so it can be written
        g.add_node("lonely")
        before = g.shortest_path(START, "goal_refund")
        g.quarantine_node("lonely")
        assert blocked_edges(g) == 0
        assert g.shortest_path(START, "goal_refund") == before

    def test_unknown_node(self, support_graph):
        with pytest.raises(UnknownNode):
            support_graph.quarantine_node("ghost")

    def test_single_search_recovers_any_batch_size(self, support_graph):
        # One search handles K simultaneous quarantines; no per-failure searches.
        for k, batch in enumerate([["stripe"], ["stripe", "email"], ["stripe", "email", "razorpay"]], start=1):
            g = build_topology(TopologyKind.LINEAR_PIPELINE).fresh_graph()
            for node in batch:
                g.quarantine_node(node)
            before = g.search_count
            g.shortest_path(START, "goal_refund")
            assert g.search_count - before == 1


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


class TestFork:
    def test_fork_starts_clear_of_the_origin_task_state(self, support_graph):
        support_graph.quarantine_node("stripe")
        support_graph.shortest_path(START, "goal_refund")
        fork = support_graph.fork()
        assert fork.quarantined == set() and fork.search_count == 0
        assert fork.to_json() == support_graph.to_json()

    def test_writes_on_a_fork_or_its_base_are_refused(self):
        base = BUILDERS[TopologyKind.LINEAR_PIPELINE]()
        base.add_node("extra")  # writable until it is forked
        origin = base.to_json()
        fork = base.fork()
        writes = [
            lambda g: g.add_node("lonely"),
            lambda g: g.add_node("crm", sentinel=True),
            lambda g: g.add_edge("crm", "email", 1.0),
            lambda g: g.add_edge("crm", "stripe", 5.0),
        ]
        for g in (fork, base):
            for write in writes:
                with pytest.raises(GraphError, match="frozen"):
                    write(g)
        assert base.to_json() == fork.to_json() == origin
        assert "crm" not in base.sentinels and base.fork().to_json() == origin


class TestRouteMemo:
    def test_search_count_counts_memo_hits(self, monkeypatch):
        computed = count_calls(monkeypatch, ToolGraph, "_search")  # routes computed, not read from the memo
        base = ToolGraph()
        for name in ("a", "b", "z"):
            base.add_node(name)
        base.add_edge("a", "b", 1.0)
        base.add_edge("b", "z", 1.0)
        task = base.fork()
        first = task.shortest_path("a", "z")
        assert task.shortest_path("a", "z") is first
        assert task.search_count == 2 and computed[0] == 1
        assert base.fork().shortest_path("a", "z") is first  # every fork reads the one memo
        assert computed[0] == 1

    def test_lane_on_one_fork_leaves_the_other_untouched(self, monkeypatch):
        base = BUILDERS[TopologyKind.LINEAR_PIPELINE]()
        lane = (("crm", "goal_refund", 1.0),)  # a demotion-style lane, cheaper than any route
        laned, plain = (START, "crm", "goal_refund"), (START, "crm", "razorpay", "email", "goal_refund")
        a, b = base.fork(), base.fork()
        for g in (a, b):
            g.quarantine_node("stripe")
        # A lane route never serves a lane-free question, nor the reverse,
        # whichever is asked first.
        assert b.shortest_path(START, "goal_refund").nodes == plain
        assert a.shortest_path(START, "goal_refund", lane).nodes == laned
        a.quarantine_node("sms")
        assert a.shortest_path(START, "goal_refund", lane).nodes == laned
        assert a.shortest_path(START, "goal_refund").nodes == plain
        assert not a.has_edge("crm", "goal_refund") and not b.has_edge("crm", "goal_refund")
        # A second fork reads the lane route from the memo.
        computed = count_calls(monkeypatch, ToolGraph, "_search")
        c = base.fork()
        c.quarantine_node("stripe")
        assert c.shortest_path(START, "goal_refund", lane) is c.shortest_path(START, "goal_refund", lane)
        assert c.shortest_path(START, "goal_refund", lane).nodes == laned and computed[0] == 0

    def test_memo_is_capped(self):
        names = [f"n{i:02d}" for i in range(20)]
        base = ToolGraph()
        for name in names:
            base.add_node(name)
        for a, b in zip(names, names[1:] + names[:1]):
            base.add_edge(a, b, 1.0)
        task = base.fork()
        questions = [(a, b) for a in names for b in names if a != b]
        assert len(questions) > ROUTE_MEMO_ENTRIES
        for source, goal in questions:
            route = task.shortest_path(source, goal)
            assert 0 < len(task._routes) <= ROUTE_MEMO_ENTRIES
            assert (route.total_cost, route.nodes) == brute_force_shortest(task, source, goal)

    def test_forks_on_threads_read_and_write_one_memo(self):
        names = [f"n{i:02d}" for i in range(12)]

        def ring() -> ToolGraph:
            g = ToolGraph()
            for name in names:
                g.add_node(name)
            for i, a in enumerate(names):
                g.add_edge(a, names[(i + 1) % len(names)], 1.0)
                g.add_edge(a, names[(i + 5) % len(names)], 3.0)
            return g

        base, workers, errors = ring(), 4, []

        def work(seed: int) -> None:
            rng = random.Random(seed)
            try:
                for _ in range(300):
                    task, victims = base.fork(), rng.sample(names, rng.randint(0, 2))
                    reference = ring()  # unforked: computes every route
                    for victim in victims:
                        task.quarantine_node(victim)
                        reference.quarantine_node(victim)
                    source, goal = rng.sample(names, 2)
                    assert task.shortest_path(source, goal) == reference.shortest_path(source, goal)
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
        assert 0 < len(base._routes) <= ROUTE_MEMO_ENTRIES + workers

    def test_unforked_graph_keeps_no_memo(self, monkeypatch):
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
        g.fork()
        with pytest.raises(GraphError):
            g.add_node("d")
