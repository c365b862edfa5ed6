"""Every graph a topology hands out shares one adjacency, built once; what a
task writes into its graph (quarantines, demotion lanes) stays there."""

from __future__ import annotations

from toolrouter.calibration import SimClock
from toolrouter.orchestrator import RuleReasoner, TaskRequest, TraceStatus, execute_task
from toolrouter.scenarios import (
    FaultEffect,
    FaultEntry,
    FaultSchedule,
    ScheduledInvoker,
    ScheduledProber,
    scenario_tool_states,
)
from toolrouter.topologies import START, TopologyKind, _travel_graph, build_topology


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


def test_demoted_task_leaves_the_next_graph_untouched():
    topo = build_topology(TopologyKind.DEPENDENCY_DAG)
    lane = [(src, dst) for src, dst, _ in topo.goal.ladder[0].extra_edges]
    graph = topo.fresh_graph()
    trace = run(topo, graph, down=("hotel_primary", "hotel_backup"))
    assert trace.status is TraceStatus.SUCCESS and trace.final_goal == "transport_only"
    assert all(graph.has_edge(src, dst) for src, dst in lane)
    assert graph.quarantined == {"hotel_primary", "hotel_backup"} and graph.search_count > 0

    fresh = topo.fresh_graph()
    assert not any(fresh.has_edge(src, dst) for src, dst in lane)
    assert fresh.quarantined == set() and fresh.search_count == 0
    assert fresh.to_json() == _travel_graph().to_json()
    assert run(topo, fresh, down=()).final_goal == "book_trip"

