from __future__ import annotations

import pytest

from toolrouter.baselines import (
    MODERATION_HOLD_THRESHOLD,
    REACT_SCRIPTS,
    audit,
    run_react,
    run_static_workflow,
)
from toolrouter.orchestrator import TraceStatus
from toolrouter.scenarios import load_scenarios, run_self_healing


@pytest.fixture(scope="module")
def suite():
    return load_scenarios()


@pytest.fixture(scope="module")
def by_id(suite):
    return {s.id: s for s in suite}


class TestReact:
    def test_every_scenario_matches_the_fixture_columns(self, suite):
        for scenario in suite:
            trace = run_react(scenario)
            e = scenario.expected["react"]
            assert trace.llm_calls == e["llm_calls"], scenario.id
            assert trace.tool_call_count == e["tool_calls"], scenario.id

    def test_s1(self, by_id):
        trace = run_react(by_id["S1"])
        assert (trace.llm_calls, trace.tool_call_count) == (4, 3)

    def test_t6(self, by_id):
        trace = run_react(by_id["T6"])
        assert (trace.llm_calls, trace.tool_call_count) == (8, 6)

    def test_aggregate_llm_calls(self, suite):
        assert sum(run_react(s).llm_calls for s in suite) == 123

    def test_aggregate_tool_calls_consistent_with_per_scenario_tables(self, suite):
        # The per-scenario reference columns sum to 87; the suite keeps the
        # aggregate consistent with its own rows.
        assert sum(run_react(s).tool_call_count for s in suite) == 87

    def test_mean_calls_per_scenario(self, suite):
        assert 123 / len(suite) == pytest.approx(6.47, abs=0.01)

    def test_all_correct_zero_silent_zero_recoveries(self, suite):
        for scenario in suite:
            trace = run_react(scenario)
            report = audit(trace, scenario)
            assert report.correct, scenario.id
            assert not report.silent_failure, scenario.id
            assert trace.recovery_events == 0

    def test_scripts_cover_every_scenario(self, suite):
        assert set(REACT_SCRIPTS) == {s.id for s in suite}

    @pytest.mark.parametrize("sid, goal", [("S3", "issue_refund"), ("T5", "book_trip")])
    def test_a_demoted_run_ends_at_the_demoted_goal(self, by_id, sid, goal):
        """As in the router's traces: the demotion is logged from the
        original goal, and the final goal and the resolution name its
        target."""
        trace = run_react(by_id[sid])
        assert trace.goal_id == goal
        assert [(d["from"], d["to"]) for d in trace.demotions] == [(goal, "reasoned_fallback")]
        assert trace.final_goal == "reasoned_fallback"
        assert trace.resolution == {"kind": "completed", "goal": "reasoned_fallback"}

    def test_failures_come_from_the_shared_schedule(self, by_id):
        trace = run_react(by_id["S2"])
        outcomes = {c.node: c.success for c in trace.tool_calls}
        assert outcomes["stripe"] is False
        assert outcomes["razorpay"] is True


class TestStaticWorkflow:
    def test_llm_calls_always_zero(self, suite):
        for scenario in suite:
            trace, _ = run_static_workflow(scenario)
            assert trace.llm_calls == 0

    def test_s5_sms_fallback_handles_the_anticipated_failure(self, by_id):
        trace, report = run_static_workflow(by_id["S5"])
        assert not report.silent_failure
        assert "sms" in trace.successes()
        assert trace.recovery_events == 1

    def test_s6_reports_success_but_never_notifies(self, by_id):
        trace, report = run_static_workflow(by_id["S6"])
        assert trace.status is TraceStatus.SUCCESS  # the workflow's own claim
        assert report.silent_failure
        assert not ({"email", "sms"} & trace.successes())
        assert "stripe" in trace.successes()  # refund went through regardless

    def test_s3_aborts_loudly_instead_of_silently(self, by_id):
        trace, report = run_static_workflow(by_id["S3"])
        assert trace.status is TraceStatus.ESCALATED
        assert not report.silent_failure
        assert report.correct

    def test_t6_books_everything_but_drops_confirmation(self, by_id):
        trace, report = run_static_workflow(by_id["T6"])
        assert report.silent_failure
        assert {"flight_backup", "hotel_backup", "car_primary"} <= trace.successes()
        assert not ({"confirm_primary", "confirm_backup"} & trace.successes())

    def test_moderation_holds_at_three_losses(self, by_id):
        for sid in ("M4", "M5", "M6"):
            trace, report = run_static_workflow(by_id[sid])
            assert trace.status is TraceStatus.ESCALATED
            assert trace.resolution["kind"] == "hold"
            assert report.correct and not report.silent_failure
            assert report.classifiers_lost >= MODERATION_HOLD_THRESHOLD

    def test_classifiers_lost_column(self, suite):
        got = {
            s.id: run_static_workflow(s)[1].classifiers_lost
            for s in suite
            if s.domain == "content_moderation"
        }
        assert got == {"M1": 0, "M2": 1, "M3": 0, "M4": 3, "M5": 3, "M6": 4}

    def test_aggregates(self, suite):
        reports = [run_static_workflow(s) for s in suite]
        correct = sum(1 for _, r in reports if r.correct)
        silent = sorted(r.scenario_id for _, r in reports if r.silent_failure)
        tools = sum(t.tool_call_count for t, _ in reports)
        recoveries = sum(t.recovery_events for t, _ in reports)
        assert correct == 16
        assert silent == ["S6", "S7", "T6"]
        assert tools == 87
        assert recoveries == 24

    def test_per_scenario_derived_fixtures(self, suite):
        for scenario in suite:
            trace, report = run_static_workflow(scenario)
            e = scenario.expected["static"]
            assert trace.tool_call_count == e["tool_calls"], scenario.id
            assert trace.recovery_events == e["recoveries"], scenario.id
            assert report.silent_failure == e["silent_failure"], scenario.id


class TestAudit:
    def test_router_escalation_is_not_silent(self, by_id):
        trace = run_self_healing(by_id["S6"])
        report = audit(trace, by_id["S6"])
        assert trace.status is TraceStatus.ESCALATED
        assert not report.silent_failure
        assert report.correct

    def test_workflow_t6_is_silent(self, by_id):
        _, report = run_static_workflow(by_id["T6"])
        assert report.silent_failure

    def test_meeting_all_outcomes_is_never_silent(self, suite):
        for scenario in suite:
            trace = run_self_healing(scenario)
            report = audit(trace, scenario)
            if set(report.outcomes_met) >= set(report.required_outcomes):
                assert not report.silent_failure

    def test_audit_is_uniform_across_architectures(self, by_id):
        scenario = by_id["S2"]
        for trace in (run_self_healing(scenario), run_react(scenario)):
            report = audit(trace, scenario)
            assert report.correct and not report.silent_failure
