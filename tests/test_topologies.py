"""Every graph a topology hands out shares one frozen adjacency and route
memo, built once; a task's quarantines stay in its own graph, and a
demotion lane is an input of the task's searches, written into no graph."""

from __future__ import annotations

from toolrouter import graph as graph_module
from toolrouter.calibration import SimClock
from toolrouter.graph import ToolGraph
from toolrouter.orchestrator import RuleReasoner, TaskRequest, TraceStatus, execute_task
from toolrouter.scenarios import (
    FaultEffect,
    FaultEntry,
    FaultSchedule,
    ScheduledInvoker,
    ScheduledProber,
    scenario_tool_states,
)
from toolrouter.topologies import _GRAPHS, START, TopologyKind, _travel_graph, build_topology

from conftest import count_calls


def run(topo, graph, down):
    schedule = FaultSchedule(tuple(FaultEntry(tool, FaultEffect.DOWN_FROM_START) for tool in down))
    invoker = ScheduledInvoker(schedule)
    return execute_task(
        topo.goal,
        graph,
        invoker,
        RuleReasoner(),
        SimClock(),
        TaskRequest(text="book a trip"),
        start=START,
        tool_states=scenario_tool_states(graph),
        prober=ScheduledProber(schedule, invoker),
    )


def test_demoted_task_leaves_the_next_graph_untouched(monkeypatch):
    monkeypatch.setattr(graph_module, "ROUTE_MEMO_ENTRIES", 10**6)  # the shared memo is not cleared mid-test
    topo = build_topology(TopologyKind.DEPENDENCY_DAG)
    lane = [(src, dst) for src, dst, _ in topo.goal.ladder[0].extra_edges]
    down = ("hotel_primary", "hotel_backup")
    graph = topo.fresh_graph()
    trace = run(topo, graph, down)
    assert trace.status is TraceStatus.SUCCESS and trace.final_goal == "transport_only"
    assert not any(graph.has_edge(src, dst) for src, dst in lane)
    assert graph.quarantined == set(down) and graph.search_count > 0
    assert _GRAPHS[TopologyKind.DEPENDENCY_DAG].to_json() == _travel_graph().to_json()

    # A second demoted task reads every route, its demotion route too, from the memo.
    computed = count_calls(monkeypatch, ToolGraph, "_search")
    again = run(topo, topo.fresh_graph(), down)
    assert again.to_json() == trace.to_json()
    assert computed[0] == 0

    fresh = topo.fresh_graph()
    assert fresh.quarantined == set() and fresh.search_count == 0
    assert fresh.to_json() == _travel_graph().to_json()
    assert run(topo, fresh, down=()).final_goal == "book_trip"

