from __future__ import annotations

import contextlib
import gc
import random
import zlib

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from toolrouter.bench import random_schedule
from toolrouter.calibration import BreakerPhase, SimClock, ToolCalibration, ToolState
from toolrouter.graph import BadLaneEdge, GraphError, ToolGraph
from toolrouter import orchestrator
from toolrouter.monitors import MonitorConfig, MonitorError, run_all_monitors
from toolrouter.orchestrator import (
    BadOutcome,
    DemotedGoal,
    DemotionOption,
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
from toolrouter.scenarios import (
    FaultEffect,
    FaultEntry,
    FaultSchedule,
    ScheduledInvoker,
    ScheduledProber,
    run_schedule,
    scenario_tool_states,
)
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


NULL_ROUTE_EVENTS = ("route_exhausted", "demotion_unroutable")


def events(trace, *kinds):
    """The timeline events of the given kinds, in order."""
    return [ev for ev in trace.events if ev["event"] in kinds]


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


def run_replying(reply, clock):
    """Run the support task with an invoker whose every reply is ``reply``."""

    class Replying:
        def invoke(self, node, _clock):
            return reply

    topo = build_topology(TopologyKind.LINEAR_PIPELINE)
    graph = topo.fresh_graph()
    return execute_task(
        topo.goal,
        graph,
        Replying(),
        RuleReasoner(),
        clock,
        TaskRequest(text="refund order 5"),
        start=START,
        tool_states=scenario_tool_states(graph),
    )


class TestInvokerLatency:
    @pytest.mark.parametrize("latency", [float("nan"), float("inf")])
    def test_non_finite_latency_raises_a_typed_error(self, latency):
        clock = SimClock()
        with pytest.raises(BadOutcome, match="'crm': latency_ms must be a finite number >= 0"):
            run_replying(Outcome(True, latency), clock)
        assert clock.now == 0


class TestInvokerOutcome:
    """An invoker's reply is checked where it enters ``execute_task``; a bad
    one raises ``BadOutcome`` naming the node and the field before the clock
    moves or a call is logged."""

    @pytest.mark.parametrize(
        "reply, names",
        [
            (None, "invoker reply for 'crm' must be an Outcome, got NoneType"),
            ({"success": True}, "invoker reply for 'crm' must be an Outcome, got dict"),
            (Outcome(success="no"), "'crm': success must be a bool, got 'no'"),
            (Outcome(1), "'crm': success must be a bool, got 1"),
            (Outcome(True, "5"), "'crm': latency_ms must be a finite number >= 0, got '5'"),
            (Outcome(True, True), "'crm': latency_ms must be a finite number >= 0, got True"),
            (Outcome(True, -1.0), "'crm': latency_ms must be a finite number >= 0, got -1.0"),
            (Outcome(True, None), "'crm': latency_ms must be a finite number >= 0, got None"),
            (Outcome(False, 100.0, 7), "'crm': failure_kind must be None or a str, got 7"),
        ],
        ids=[
            "none",
            "dict",
            "success_str",
            "success_int",
            "latency_str",
            "latency_bool",
            "latency_negative",
            "latency_none",
            "failure_kind_int",
        ],
    )
    def test_bad_outcome_raises_a_typed_error(self, reply, names):
        clock = SimClock()
        with pytest.raises(BadOutcome) as err:
            run_replying(reply, clock)
        assert names in str(err.value)
        assert clock.now == 0


class TestRecovery:
    def test_single_failure_single_recompute(self):
        trace, graph = run_support(down={"stripe"})
        assert trace.status is TraceStatus.SUCCESS
        assert trace.recovery_events == 1
        assert trace.failure_recomputes == 1
        assert trace.llm_calls == 0
        assert [c.node for c in trace.tool_calls] == ["crm", "stripe", "razorpay", "email"]
        assert trace.quarantined == {"stripe"} and graph.quarantined == set()  # the task's, not the shared graph's

    def test_a_failed_call_joins_its_own_quarantine_batch(self):
        # Default states trip after 3 failures, so one failed call leaves
        # stripe's breaker CLOSED: the orchestrator, not tool_health, puts
        # the failed call in the batch.
        topo = build_topology(TopologyKind.LINEAR_PIPELINE)
        graph = topo.fresh_graph()

        def run(invoker, states, prober=None):
            return execute_task(
                topo.goal,
                graph,
                invoker,
                RuleReasoner(),
                SimClock(),
                TaskRequest(text="refund order 5"),
                start=START,
                tool_states=states,
                prober=prober,
            )

        states = {tool: ToolState(tool) for tool in graph.tool_nodes()}
        trace = run(FixedInvoker({"stripe"}), states)
        assert [ev["tools"] for ev in events(trace, "quarantine")] == [["stripe"]]
        assert trace.failure_recomputes == 1 and trace.recovery_events == 1
        assert states["stripe"].breaker.phase is BreakerPhase.CLOSED
        assert trace.status is TraceStatus.SUCCESS

        # An outage that a probe opens in that same failure sweep joins the batch.
        schedule = FaultSchedule(
            (
                FaultEntry("stripe", FaultEffect.DOWN_FROM_START),
                FaultEntry("email", FaultEffect.FAIL_AT_STEP, probe_visible=True, at_step=2),
            )
        )
        states = {tool: ToolState(tool) for tool in graph.tool_nodes()}
        states["email"] = ToolState("email", ToolCalibration(trip_threshold=1))
        invoker = ScheduledInvoker(schedule)
        trace = run(invoker, states, ScheduledProber(schedule, invoker))
        assert [ev["tools"] for ev in events(trace, "probe_detected", "quarantine")] == [["email"], ["email", "stripe"]]
        assert trace.failure_recomputes == 1 and trace.recovery_events == 1
        assert states["stripe"].breaker.phase is BreakerPhase.CLOSED
        assert [c.node for c in trace.tool_calls] == ["crm", "stripe", "razorpay", "sms"]
        assert trace.status is TraceStatus.SUCCESS

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
        assert events(trace, *NULL_ROUTE_EVENTS)

    def test_reasoner_used_only_on_null_or_risk(self):
        for down in [set(), {"stripe"}, {"email"}, {"stripe", "razorpay"}, {"email", "sms"}]:
            trace, _ = run_support(down=down)
            if trace.llm_calls:
                assert events(trace, *NULL_ROUTE_EVENTS) or trace.resolution["kind"] == "risk_escalation"


class TestRiskInterrupt:
    def test_visible_amount_escalates_before_any_tool(self):
        trace, _ = run_support(request=TaskRequest(text="refund order 1", amount=50_000.0))
        assert trace.status is TraceStatus.ESCALATED
        assert trace.llm_calls == 1
        assert trace.tool_call_count == 0
        assert [ev["kind"] for ev in events(trace, "escalated")] == ["risk_escalation"]

    def test_revealed_amount_escalates_mid_task(self):
        req = TaskRequest(text="refund order 1", amount=50_000.0, risk_visible_after=2)
        trace, _ = run_support(request=req)
        assert trace.status is TraceStatus.ESCALATED
        assert trace.tool_call_count == 2

    def test_small_amount_never_interrupts(self):
        trace, _ = run_support(request=TaskRequest(text="refund order 1", amount=10.0))
        assert trace.status is TraceStatus.SUCCESS
        assert trace.llm_calls == 0

    def test_recovery_precedes_a_later_risk_interrupt(self):
        req = TaskRequest(text="refund order 1", amount=50_000.0, risk_visible_after=2)
        trace, _ = run_support(request=req, down={"stripe"})
        # stripe's failure is healed by rerouting; once the second success
        # reveals the amount, the risk interrupt stops the run before the
        # notification step.
        assert trace.recovery_events == 1
        assert trace.status is TraceStatus.ESCALATED
        assert [c.node for c in trace.tool_calls] == ["crm", "stripe", "razorpay"]


class TestSweepInputs:
    """Every sweep hands the monitors the task's live breakers, its current
    quarantine set and the risk inputs visible at that moment."""

    @settings(derandomize=True, database=None, deadline=None, max_examples=150)
    @given(
        kind=st.sampled_from(TopologyKind),
        seed=st.integers(0, 2**32 - 1),
        amount=st.sampled_from((None, 10.0, 50_000.0)),
        risk_score=st.sampled_from((None, 0.1, 0.9)),
        visible_after=st.integers(0, 4),
    )
    def test_every_sweep_passes_the_live_inputs(self, kind, seed, amount, risk_score, visible_after):
        topo = build_topology(kind)
        schedule = random_schedule(kind, random.Random(seed))
        request = TaskRequest("sweep", amount, risk_score, visible_after)
        graph = topo.fresh_graph()
        states = scenario_tool_states(graph)
        cfg = MonitorConfig()
        traces, mismatches, sweeps = [], [], 0
        real_trace, real_monitors = orchestrator.ExecutionTrace, orchestrator.run_all_monitors

        def new_trace(**fields):
            traces.append(real_trace(**fields))
            return traces[-1]

        def monitors(*args):
            nonlocal sweeps
            sweeps += 1
            trace = traces[-1]
            visible = len(trace.completed) >= visible_after
            expected = (
                states,
                trace.quarantined,
                amount if visible else None,
                risk_score if visible else None,
                cfg,
            )
            if len(args) != len(expected) or not all(a is b for a, b in zip(args, expected)):
                mismatches.append((args, expected))
            return real_monitors(*args)

        invoker = ScheduledInvoker(schedule)
        with pytest.MonkeyPatch.context() as mp:
            mp.setattr(orchestrator, "ExecutionTrace", new_trace)
            mp.setattr(orchestrator, "run_all_monitors", monitors)
            trace = execute_task(
                topo.goal,
                graph,
                invoker,
                RuleReasoner(),
                SimClock(),
                request,
                start=START,
                monitor_config=cfg,
                tool_states=states,
                prober=ScheduledProber(schedule, invoker),
            )
        assert trace is traces[0] and sweeps >= 1
        assert mismatches == []


class TestRequest:
    @pytest.mark.parametrize(
        "field, bad",
        [
            ("amount", -5.0),
            ("amount", float("nan")),
            ("amount", True),
            ("amount", "lots"),
            ("risk_score", -3.0),
            ("risk_score", float("nan")),
            ("risk_score", False),
            ("risk_score", "0.9"),
            ("risk_visible_after", -1),
            ("risk_visible_after", 1.0),
            ("risk_visible_after", True),
            ("risk_visible_after", None),
        ],
    )
    def test_bad_value_fails_when_the_request_is_made(self, field, bad):
        # Checked only when a sweep sees it, a negative amount hidden behind
        # risk_visible_after would run to SUCCESS, a NaN would never flag and
        # a string would raise a stray TypeError mid-run.
        fields = {"amount": None, "risk_score": None, "risk_visible_after": 10, field: bad}
        with pytest.raises(MonitorError, match=f"request {field} must be"):
            TaskRequest("refund order 1", **fields)

    def test_unbounded_risk_inputs_are_accepted(self):
        request = TaskRequest("refund order 1", amount=float("inf"), risk_score=0, risk_visible_after=0)
        trace, _ = run_support(request=request)
        assert trace.status is TraceStatus.ESCALATED and trace.resolution["kind"] == "risk_escalation"

    @settings(derandomize=True, database=None, deadline=None, max_examples=40)
    @given(
        kind=st.sampled_from(TopologyKind),
        seed=st.integers(0, 2**32 - 1),
        amount=st.sampled_from((None, 50_000.0)),
        visible_after=st.integers(0, 4),
        texts=st.lists(st.sampled_from(("refund", "book a trip", "review this", "", "réserver ✈ 予約")) | st.text(), min_size=2, max_size=4),
    )
    def test_text_never_changes_a_trace(self, kind, seed, amount, visible_after, texts):
        topo = build_topology(kind)
        schedule = random_schedule(kind, random.Random(seed))
        traces = {run_schedule(topo, schedule, TaskRequest(text, amount, None, visible_after)).to_json() for text in texts}
        assert len(traces) == 1


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
    def test_trace_count_matches_reasoner_counter(self):
        reasoner = RecordingReasoner()
        trace, _ = run_support(down={"email", "sms"}, reasoner=reasoner)
        assert trace.llm_calls == len(reasoner.queries) == 2

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
        assert trace.llm_calls == len(reasoner.queries) == 1
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

    @pytest.mark.parametrize(
        "reply",
        [None, 42, "issue_store_credit", Escalate(None), Escalate(123)],
        ids=["none", "int", "str", "escalate_none", "escalate_int"],
    )
    def test_malformed_reply_escalates_as_bad_reply(self, reply):
        class FixedReply(RecordingReasoner):
            def consult(self, query):
                super().consult(query)
                return reply

        # a demotion query (no route left) and a risk escalation query
        for run in (dict(down={"stripe", "razorpay"}), dict(request=TaskRequest(text="refund order 1", amount=50_000.0))):
            reasoner = FixedReply()
            trace, _ = run_support(reasoner=reasoner, **run)
            assert trace.status is TraceStatus.ESCALATED
            note = f"malformed reasoner reply of type {type(reply).__name__}"
            assert trace.resolution == {"kind": "bad_reply", "note": note}
            assert trace.llm_calls == len(reasoner.queries) == 1 and not trace.demotions
            assert trace.events[-1] == {"t_ms": trace.events[-1]["t_ms"], "event": "escalated", "kind": "bad_reply", "note": note}


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
                ScheduledInvoker(FaultSchedule()),
                RuleReasoner(),
                SimClock(),
                TaskRequest(text="refund order 5"),
                start=START,
            )
            assert trace.status is TraceStatus.SUCCESS
            assert [c.node for c in trace.tool_calls] == ["crm", "stripe", "email"]

    def test_finished_task_leaves_no_reference_cycles(self):
        # A cycle would keep each task's trace and tool states alive until
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
        # Idle signals are built once at import and shared by every sweep,
        # so writing into one must not reach the next.
        expected = run_all_monitors({}, cfg=MonitorConfig())  # a config of its own
        before, _ = run_support(down={"stripe"})
        for signal in run_all_monitors({}):
            for key in list(signal.payload):
                with contextlib.suppress(AttributeError):
                    signal.payload[key].append("crm")
                with contextlib.suppress(TypeError):
                    signal.payload[key] = ["crm"]
        assert run_all_monitors({}) == expected
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
        # value and say why.  c1a66bce -> c4e818be: the intent monitor is
        # gone, so an idle pre-route sweep logs tool_health 0.10 as its
        # monitor_winner; no other line of any trace moved.
        assert f"{digest:08x}" == "c4e818be"


class TestDemotionLanes:
    def test_second_rung_routes_over_the_first_rungs_lane(self):
        # b is down, so the goal is unroutable and the first rung's lane
        # routes a -> c -> g1; c is down too.  The second rung's one edge
        # leaves e, which only the first rung's lane reaches.
        graph = ToolGraph()
        for node in ("start", "goal", "g1", "g2"):
            graph.add_node(node, sentinel=True)
        for node in ("a", "b", "c", "e"):
            graph.add_node(node)
        for src, dst in (("start", "a"), ("a", "b"), ("b", "goal")):
            graph.add_edge(src, dst, 1.0)
        before = graph.to_json()
        first = DemotionOption("first", "g1", (("a", "c", 1.0), ("c", "g1", 1.0), ("a", "e", 1.0)))
        goal = TaskGoal("full", "goal", ladder=(first, DemotionOption("second", "g2", (("e", "g2", 1.0),))))
        trace = execute_task(goal, graph, FixedInvoker({"b", "c"}), RuleReasoner(), SimClock(), TaskRequest(text="lanes"))
        assert trace.status is TraceStatus.SUCCESS and trace.final_goal == "second"
        assert [d["to"] for d in trace.demotions] == ["first", "second"]
        assert [c.node for c in trace.tool_calls] == ["a", "b", "c", "e"]
        assert trace.resolution["path"] == ["a", "e", "g2"]
        assert graph.to_json() == before  # the lanes were searched over, never written
        assert timeline_violations(trace) == []

    @pytest.mark.parametrize(
        "edge",
        [
            ("crm", "ghost", 1.0),
            ("crm", "crm", 1.0),
            ("email", "store_credit", 0),
            ("email", "store_credit", float("nan")),
            ("email", "store_credit", float("inf")),
            ("email", "store_credit", "x"),
        ],
        ids=["unknown_endpoint", "self_loop", "zero", "nan", "inf", "str"],
    )
    def test_bad_lane_edge_raises_naming_its_rung(self, edge):
        with pytest.raises(BadLaneEdge) as raised:  # a str weight when the rung is made, the rest when searched
            rung = DemotionOption("issue_store_credit", "goal_store_credit", (edge,))
            run_support(down={"stripe", "razorpay"}, goal=TaskGoal("issue_refund", "goal_refund", ladder=(rung,)))
        assert isinstance(raised.value, GraphError)
        assert "'issue_store_credit'" in str(raised.value) and repr(edge) in str(raised.value)

    @pytest.mark.parametrize(
        "edge",
        [("crm", "store_credit"), (["crm"], "store_credit", 1.0), ("crm", "store_credit", [1.0])],
        ids=["pair", "list_endpoint", "list_weight"],
    )
    def test_malformed_lane_edge_raises_when_the_rung_is_made(self, edge):
        with pytest.raises(BadLaneEdge) as raised:
            DemotionOption("issue_store_credit", "goal_store_credit", (edge,))
        assert "'issue_store_credit'" in str(raised.value) and repr(edge) in str(raised.value)

    def test_lane_given_as_a_list_raises_when_the_rung_is_made(self):
        with pytest.raises(BadLaneEdge, match="'issue_store_credit'"):
            DemotionOption("issue_store_credit", "goal_store_credit", [("crm", "store_credit", 1.0)])

    def test_lane_edge_between_linked_nodes_is_ignored(self):
        # The graph's own crm -> store_credit wins, so the bad weight is never read.
        rung = DemotionOption("issue_store_credit", "goal_store_credit", (("crm", "store_credit", 0),))
        trace, _ = run_support(down={"stripe", "razorpay"}, goal=TaskGoal("issue_refund", "goal_refund", ladder=(rung,)))
        assert trace.status is TraceStatus.SUCCESS and trace.final_goal == "issue_store_credit"

    @settings(derandomize=True, database=None, deadline=None, max_examples=100)
    @given(st.data())
    def test_random_ladders_end_in_a_terminal_state(self, data):
        """Random graphs with lane ladders, both fault effects (some
        probe-visible), risky requests and a reasoner that escalates or
        names a rung inside the ladder, outside it or already tried, or
        gives a malformed reply."""
        tools = [f"t{i}" for i in range(data.draw(st.integers(1, 7), label="tools"))]
        rungs = [f"r{i}" for i in range(data.draw(st.integers(0, 3), label="rungs"))]
        sources, targets = ["start", *tools], [*tools, "goal", *(f"{r}_goal" for r in rungs)]
        weight = st.sampled_from((0.5, 1.0, 2.0))

        def edges(to=st.sampled_from(targets), **size):
            edge = st.tuples(st.sampled_from(sources), to, weight).filter(lambda e: e[0] != e[1])
            return st.lists(edge, **size)

        base = ToolGraph()
        for node in ("start", "goal", *(f"{r}_goal" for r in rungs)):
            base.add_node(node, sentinel=True)
        for node in tools:
            base.add_node(node)
        chain = ["start", *data.draw(st.permutations(tools), label="chain"), "goal"]  # one route, then detours
        detours = data.draw(edges(min_size=len(tools), max_size=3 * len(tools)), label="detours")
        for src, dst, w in [(a, b, 1.0) for a, b in zip(chain, chain[1:])] + detours:
            if not base.has_edge(src, dst):
                base.add_edge(src, dst, w)
        lane = {r: edges(min_size=1, max_size=3) | edges(st.just(f"{r}_goal"), min_size=1, max_size=3) for r in rungs}
        ladder = tuple(DemotionOption(r, f"{r}_goal", tuple(data.draw(lane[r], label="lane"))) for r in rungs)
        goal = TaskGoal("goal", "goal", ladder=ladder)
        graph = base.freeze() if data.draw(st.booleans(), label="frozen") else base
        before = graph.to_json()
        entries = [
            FaultEntry(
                tool,
                data.draw(st.sampled_from(FaultEffect), label="effect"),
                probe_visible=data.draw(st.booleans(), label="probe_visible"),
                at_step=data.draw(st.integers(0, 4), label="at_step"),
            )
            for tool in data.draw(st.lists(st.sampled_from(tools), min_size=1, max_size=3, unique=True), label="down")
        ]
        schedule = FaultSchedule(tuple(entries))
        amount = data.draw(st.sampled_from((None, None, 50_000.0)), label="amount")
        request = TaskRequest(text="lanes", amount=amount, risk_visible_after=data.draw(st.integers(0, 3)))
        verdicts = st.sampled_from(["escalate", "malformed", "goal", "nowhere", *rungs, *rungs, *rungs])
        malformed = st.sampled_from((None, "goal", Escalate(None), Escalate("")))

        class AdversarialReasoner:
            def consult(self, query):
                verdict = data.draw(verdicts, label="verdict")
                if verdict == "malformed":
                    return data.draw(malformed, label="reply")
                return Escalate("adversary") if verdict == "escalate" else DemotedGoal(verdict)

        invoker = ScheduledInvoker(schedule)
        trace = execute_task(
            goal,
            graph,
            invoker,
            AdversarialReasoner(),
            SimClock(),
            request,
            tool_states=scenario_tool_states(graph),
            prober=ScheduledProber(schedule, invoker),
        )
        if trace.status is TraceStatus.SUCCESS:
            path = trace.resolution["path"]
            goal_nodes = {"goal": "goal", **{o.goal_id: o.goal_node for o in ladder}}
            assert trace.resolution["kind"] == "completed" and path[-1] == goal_nodes[trace.final_goal]
            lanes = {(s, d) for o in ladder for s, d, _ in o.extra_edges}
            assert all(graph.has_edge(u, v) or (u, v) in lanes for u, v in zip(path, path[1:]))
        else:
            assert trace.status is TraceStatus.ESCALATED and trace.resolution["kind"] and trace.resolution["note"]
        assert timeline_violations(trace) == []
        assert graph.to_json() == before and graph.quarantined == set()
