from __future__ import annotations

import contextlib
import gc
import random
import zlib

import pytest

from toolrouter.bench import random_schedule
from toolrouter.calibration import OutOfRange, SimClock
from toolrouter.graph import ToolGraph
from toolrouter import orchestrator
from toolrouter.monitors import MonitorConfig, RequestContext, run_all_monitors
from toolrouter.orchestrator import (
    DemotedGoal,
    Escalate,
    MalformedGoal,
    Outcome,
    ReasonerQuery,
    RuleReasoner,
    TaskGoal,
    TaskRequest,
    TraceStatus,
    execute_task,
)
from toolrouter.scenarios import HealthyInvoker, run_schedule, scenario_tool_states
from toolrouter.topologies import START, TopologyKind, build_topology


class FixedInvoker:
    """Fails the listed tools, succeeds everything else."""

    def __init__(self, down=()):
        self.down = set(down)

    def invoke(self, node, clock):
        if node in self.down:
            return Outcome.failed("timeout")
        return Outcome.ok()


def run_support(request=None, down=(), reasoner=None, goal=None):
    topo = build_topology(TopologyKind.LINEAR_PIPELINE)
    graph = topo.fresh_graph()
    trace = execute_task(
        goal or topo.goal,
        graph,
        FixedInvoker(down),
        reasoner or RuleReasoner(),
        SimClock(),
        request or TaskRequest(text="refund order 5"),
        start=START,
        tool_states=scenario_tool_states(graph),
    )
    return trace, graph


class TestHappyPath:
    def test_no_failures_no_reasoner(self):
        trace, _ = run_support()
        assert trace.status is TraceStatus.SUCCESS
        assert trace.llm_calls == 0
        assert trace.tool_call_count == 3
        assert trace.recovery_events == 0
        assert [c.node for c in trace.tool_calls] == ["crm", "stripe", "email"]

    def test_malformed_goal(self):
        topo = build_topology(TopologyKind.LINEAR_PIPELINE)
        with pytest.raises(MalformedGoal):
            execute_task(
                TaskGoal("x", "missing_goal"),
                topo.fresh_graph(),
                FixedInvoker(),
                RuleReasoner(),
                SimClock(),
                TaskRequest(text="refund"),
                start=START,
            )


class TestInvokerLatency:
    @pytest.mark.parametrize("latency", [float("nan"), float("inf")])
    def test_non_finite_latency_raises_a_typed_error(self, latency):
        class NonFinite:
            def invoke(self, node, clock):
                return Outcome(True, latency)

        topo = build_topology(TopologyKind.LINEAR_PIPELINE)
        graph = topo.fresh_graph()
        clock = SimClock()
        with pytest.raises(OutOfRange, match="delta_ms"):
            execute_task(
                topo.goal,
                graph,
                NonFinite(),
                RuleReasoner(),
                clock,
                TaskRequest(text="refund order 5"),
                start=START,
                tool_states=scenario_tool_states(graph),
            )
        assert clock.now == 0


class TestRecovery:
    def test_single_failure_single_recompute(self):
        trace, graph = run_support(down={"stripe"})
        assert trace.status is TraceStatus.SUCCESS
        assert trace.recovery_events == 1
        assert trace.failure_recomputes == 1
        assert trace.llm_calls == 0
        assert [c.node for c in trace.tool_calls] == ["crm", "stripe", "razorpay", "email"]
        assert graph.is_quarantined("stripe")

    def test_completed_work_is_never_redone(self):
        trace, _ = run_support(down={"email"})
        succeeded = [c.node for c in trace.tool_calls if c.success]
        assert len(succeeded) == len(set(succeeded))
        assert "crm" in trace.completed and "stripe" in trace.completed

    def test_reroute_back_through_a_finished_tool_skips_it(self):
        # start -> A -> B -> D -> goal, with a detour B -> X -> A and a dearer
        # lane A -> C -> goal.  D is down, so the reroute from B is
        # B -> X -> A -> C -> goal: A lies past the route's head but already
        # succeeded, so it is passed, not called again.
        graph = ToolGraph()
        graph.add_node("start", sentinel=True)
        graph.add_node("goal", sentinel=True)
        for node in ("A", "B", "C", "D", "X"):
            graph.add_node(node)
        edges = [("start", "A", 1), ("A", "B", 1), ("B", "D", 1), ("D", "goal", 1)]
        edges += [("B", "X", 1), ("X", "A", 1), ("A", "C", 10), ("C", "goal", 1)]
        for src, dst, w in edges:
            graph.add_edge(src, dst, float(w))
        trace = execute_task(
            TaskGoal("g", "goal"), graph, FixedInvoker({"D"}), RuleReasoner(), SimClock(), TaskRequest(text="cyclic")
        )
        assert [(c.node, c.success) for c in trace.tool_calls] == [
            ("A", True), ("B", True), ("D", False), ("X", True), ("C", True),
        ]
        assert trace.status is TraceStatus.SUCCESS and trace.recovery_events == 1
        assert timeline_violations(trace) == []

    def test_success_calls_avoid_quarantined_nodes(self):
        trace, graph = run_support(down={"stripe", "email"})
        for call in trace.tool_calls:
            if call.success:
                assert call.node not in {"stripe", "email"}
        assert trace.status is TraceStatus.SUCCESS  # razorpay + sms route

    def test_demotion_when_goal_unroutable(self):
        trace, _ = run_support(down={"stripe", "razorpay"})
        assert trace.status is TraceStatus.SUCCESS
        assert trace.llm_calls == 1
        assert trace.demotions and trace.demotions[0]["to"] == "issue_store_credit"
        assert trace.final_goal == "issue_store_credit"
        assert "store_credit" in trace.successes()

    def test_escalates_when_demotion_unreachable(self):
        trace, _ = run_support(down={"email", "sms"})
        assert trace.status is TraceStatus.ESCALATED
        assert trace.llm_calls == 2  # demotion proposal, then escalation
        assert trace.null_routes >= 1

    def test_reasoner_used_only_on_null_or_risk(self):
        for down in [set(), {"stripe"}, {"email"}, {"stripe", "razorpay"}, {"email", "sms"}]:
            trace, _ = run_support(down=down)
            if trace.llm_calls:
                assert trace.null_routes > 0 or trace.risk_interrupts > 0


class TestRiskInterrupt:
    def test_visible_amount_escalates_before_any_tool(self):
        trace, _ = run_support(request=TaskRequest(text="refund order 1", amount=50_000.0))
        assert trace.status is TraceStatus.ESCALATED
        assert trace.llm_calls == 1
        assert trace.tool_call_count == 0
        assert trace.risk_interrupts == 1

    def test_revealed_amount_escalates_mid_task(self):
        req = TaskRequest(text="refund order 1", amount=50_000.0, risk_visible_after=2)
        trace, _ = run_support(request=req)
        assert trace.status is TraceStatus.ESCALATED
        assert trace.tool_call_count == 2

    def test_small_amount_never_interrupts(self):
        trace, _ = run_support(request=TaskRequest(text="refund order 1", amount=10.0))
        assert trace.status is TraceStatus.SUCCESS
        assert trace.risk_interrupts == 0

    def test_recovery_precedes_a_later_risk_interrupt(self):
        req = TaskRequest(text="refund order 1", amount=50_000.0, risk_visible_after=2)
        trace, _ = run_support(request=req, down={"stripe"})
        # stripe's failure is healed by rerouting; once the second success
        # reveals the amount, the risk interrupt stops the run before the
        # notification step.
        assert trace.recovery_events == 1
        assert trace.status is TraceStatus.ESCALATED
        assert [c.node for c in trace.tool_calls] == ["crm", "stripe", "razorpay"]


class RecordingReasoner(RuleReasoner):
    """RuleReasoner that keeps every query it was asked."""

    def __init__(self):
        super().__init__()
        self.queries = []

    def consult(self, query):
        self.queries.append(query)
        return super().consult(query)


class ProposingReasoner(RecordingReasoner):
    """Adversarial reasoner: answers every demotion query with one fixed goal id."""

    def __init__(self, goal_id):
        super().__init__()
        self.goal_id = goal_id

    def consult(self, query):
        verdict = super().consult(query)
        return DemotedGoal(self.goal_id) if query.kind == "demotion" else verdict


class TestReasonerContract:
    def test_counter_increments_once_per_consult(self):
        reasoner = RuleReasoner()
        q = ReasonerQuery("demotion", "g", "g", ("alt",))
        reasoner.consult(q)
        reasoner.consult(q)
        assert reasoner.calls == 2

    def test_trace_count_matches_reasoner_counter(self):
        reasoner = RuleReasoner()
        trace, _ = run_support(down={"email", "sms"}, reasoner=reasoner)
        assert trace.llm_calls == reasoner.calls == 2

    def test_exhausted_ladder_escalates(self):
        reasoner = RuleReasoner()
        verdict = reasoner.consult(ReasonerQuery("demotion", "g", "g", ()))
        assert isinstance(verdict, Escalate)

    @pytest.mark.parametrize("proposal", ["no_such_goal", "issue_refund"])
    def test_proposal_outside_the_ladder_escalates(self, proposal):
        reasoner = ProposingReasoner(proposal)
        trace, _ = run_support(down={"stripe", "razorpay"}, reasoner=reasoner)
        assert trace.status is TraceStatus.ESCALATED
        assert trace.resolution["kind"] == "handoff"
        assert proposal in trace.resolution["note"]
        assert trace.events[-1]["event"] == "escalated"
        assert trace.llm_calls == reasoner.calls == 1
        assert not trace.demotions

    def test_proposal_already_tried_escalates(self):
        # store_credit is the only rung; once it fails too, proposing it
        # again must be refused rather than rewired and retried.
        reasoner = ProposingReasoner("issue_store_credit")
        trace, _ = run_support(down={"stripe", "razorpay", "store_credit"}, reasoner=reasoner)
        assert [q.remaining_options for q in reasoner.queries] == [("issue_store_credit",), ()]
        assert trace.status is TraceStatus.ESCALATED
        assert "issue_store_credit" in trace.resolution["note"]
        assert len(trace.demotions) == 1
        assert trace.llm_calls == 2
        assert "demotion_unroutable" not in [ev["event"] for ev in trace.events]

    def test_queries_name_the_demoted_goal(self):
        reasoner = RecordingReasoner()
        req = TaskRequest(text="refund order 1", amount=50_000.0, risk_visible_after=2)
        trace, _ = run_support(request=req, down={"stripe", "razorpay"}, reasoner=reasoner)
        assert trace.final_goal == "issue_store_credit"
        assert trace.status is TraceStatus.ESCALATED
        risk = reasoner.queries[-1]
        assert (risk.kind, risk.original_goal, risk.active_goal) == (
            "risk_escalation",
            "issue_refund",
            "issue_store_credit",
        )
        assert trace.resolution["note"].startswith("escalating issue_store_credit")


class TestBinaryObservability:
    def test_every_run_ends_success_or_escalated(self):
        cases = [
            set(),
            {"crm"},
            {"stripe"},
            {"email"},
            {"stripe", "razorpay"},
            {"email", "sms"},
            {"stripe", "email", "sms"},
            {"crm", "stripe", "razorpay", "email", "sms", "store_credit"},
        ]
        for down in cases:
            trace, _ = run_support(down=down)
            assert trace.status in (TraceStatus.SUCCESS, TraceStatus.ESCALATED)

    def test_all_tools_down_is_an_explicit_escalation(self):
        trace, _ = run_support(down={"crm"})
        assert trace.status is TraceStatus.ESCALATED
        assert trace.resolution["kind"] in ("handoff", "escalation")

    def test_trace_json_shape(self):
        trace, _ = run_support(down={"stripe"})
        doc = trace.as_dict()
        assert set(doc) >= {"tool_calls", "recovery_events", "llm_calls", "status", "timeline"}
        assert all("t_ms" in ev for ev in doc["timeline"])


class TestTaskStateBelongsToTheTask:
    def test_second_task_on_one_graph_runs_in_full(self):
        topo = build_topology(TopologyKind.LINEAR_PIPELINE)
        graph = topo.fresh_graph()
        for _ in range(2):
            trace = execute_task(
                topo.goal,
                graph,
                HealthyInvoker(),
                RuleReasoner(),
                SimClock(),
                TaskRequest(text="refund order 5"),
                start=START,
            )
            assert trace.status is TraceStatus.SUCCESS
            assert [c.node for c in trace.tool_calls] == ["crm", "stripe", "email"]

    def test_finished_task_leaves_no_reference_cycles(self):
        # A cycle would keep each task's graph and tool states alive until
        # the next garbage collection.
        gc.collect()
        gc.disable()
        try:
            for down in [set(), {"stripe"}, {"stripe", "razorpay"}, {"email", "sms"}]:
                run_support(down=down)
            run_support(request=TaskRequest(text="refund order 1", amount=50_000.0))
            assert gc.collect() == 0
        finally:
            gc.enable()

    def test_signal_payload_writes_do_not_reach_later_sweeps(self):
        # Idle and intent signals are built once at import and shared by
        # every sweep, so writing into one must not reach the next.
        ctx = RequestContext(text="refund order 5")
        expected = run_all_monitors(ctx, MonitorConfig())  # a config of its own
        before, _ = run_support(down={"stripe"})
        for signal in run_all_monitors(ctx):
            for key in list(signal.payload):
                with contextlib.suppress(AttributeError):
                    signal.payload[key].append("crm")
                with contextlib.suppress(TypeError):
                    signal.payload[key] = ["crm"]
        assert run_all_monitors(ctx) == expected
        after, _ = run_support(down={"stripe"})
        assert after.to_json() == before.to_json()


class TestLoopBound:
    def test_exhausted_bound_escalates_without_a_reasoner_call(self, monkeypatch):
        monkeypatch.setattr(orchestrator, "_MAX_LOOP", 1)  # stripe's failure needs a second pass
        trace, _ = run_support(down={"stripe"})
        assert trace.status is TraceStatus.ESCALATED
        assert trace.llm_calls == 0
        assert trace.resolution == {"kind": "loop_bound", "note": "route pass bound 1 reached before a terminal state"}
        last = trace.events[-1]
        assert last["event"] == "escalated" and last["kind"] == "loop_bound" and "bound 1" in last["note"]
        assert [ev["event"] for ev in trace.events].count("reroute") == 1


RECOMPUTE_EVENTS = ("reroute", "route_exhausted")


def timeline_violations(trace) -> list[str]:
    """Replay a trace's timeline against the structural invariants."""
    problems = []
    succeeded: set[str] = set()
    quarantined: set[str] = set()
    routed = False
    recomputes = None  # recomputes since the last quarantine batch after the first route
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
    return problems


class TestGeneratedRunInvariants:
    def test_invariants_hold_over_random_schedules(self):
        rng = random.Random(20261017)
        kinds = list(TopologyKind)
        outcomes = set()
        digest = 0
        for i in range(300):
            topo = build_topology(kinds[i % len(kinds)])
            schedule = random_schedule(topo.kind, rng)
            if rng.random() < 0.25:
                request = TaskRequest(text="fuzz task", amount=50_000.0, risk_visible_after=rng.randint(0, 4))
            else:
                request = TaskRequest(text="fuzz task")
            trace = run_schedule(topo, schedule, request)
            assert trace.status in (TraceStatus.SUCCESS, TraceStatus.ESCALATED)
            assert timeline_violations(trace) == [], (i, schedule)
            outcomes.add((trace.status, bool(trace.demotions), trace.recovery_events > 0))
            digest = zlib.crc32(trace.to_json().encode(), digest)
        # The schedules reach every kind of ending, so the replay saw reroutes,
        # demotions and escalations, not only clean runs.
        assert len(outcomes) >= 5
        # CRC-32 chained over the 300 trace JSONs, like the fixture pin: a
        # change to trace semantics or to random_schedule must update this
        # value and say why.
        assert f"{digest:08x}" == "c1a66bce"
