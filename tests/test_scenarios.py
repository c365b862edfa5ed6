from __future__ import annotations

import json
import re
import zlib
from pathlib import Path

import pytest

import toolrouter.scenarios as scenarios_mod
from toolrouter.calibration import SimClock
from toolrouter.monitors import MonitorError
from toolrouter.orchestrator import TraceStatus
from toolrouter.scenarios import (
    FaultEffect,
    HealthyInvoker,
    FaultEntry,
    FaultSchedule,
    FixtureCorrupt,
    ScheduledInvoker,
    UnknownTool,
    fixture_digest,
    load_scenarios,
    run_self_healing,
    scenario_tool_states,
)
from toolrouter.topologies import START, TopologyKind, build_topology


@pytest.fixture(scope="module")
def suite():
    return load_scenarios()


@pytest.fixture(scope="module")
def by_id(suite):
    return {s.id: s for s in suite}


class TestLoading:
    def test_nineteen_scenarios_in_stable_order(self, suite):
        assert [s.id for s in suite] == [
            "S1", "S2", "S3", "S4", "S5", "S6", "S7",
            "T1", "T2", "T3", "T4", "T5", "T6",
            "M1", "M2", "M3", "M4", "M5", "M6",
        ]

    def test_domain_counts(self, suite):
        domains = [s.domain for s in suite]
        assert domains.count("customer_support") == 7
        assert domains.count("travel_booking") == 6
        assert domains.count("content_moderation") == 6

    def test_s7_fixture(self, by_id):
        e = by_id["S7"].expected
        assert (e.shr_llm, e.shr_tools, e.react_llm, e.workflow_silent) == (2, 5, 9, True)

    def test_m6_fixture(self, by_id):
        e = by_id["M6"].expected
        assert e.react_llm == 10
        assert e.classifiers_lost == 4

    def test_digest_guard_catches_tampering(self, monkeypatch):
        monkeypatch.setattr(scenarios_mod, "EXPECTED_FIXTURE_DIGEST", "0" * 64)
        with pytest.raises(FixtureCorrupt):
            load_scenarios()

    def test_digest_is_stable(self, suite):
        assert fixture_digest(suite) == scenarios_mod.EXPECTED_FIXTURE_DIGEST

    @staticmethod
    def _copy_fixtures(tmp_path):
        src = Path(scenarios_mod.__file__).parent / "data"
        for f in src.glob("*.json"):
            (tmp_path / f.name).write_text(f.read_text())

    def test_external_override_dir(self, suite, tmp_path):
        self._copy_fixtures(tmp_path)
        doc = json.loads((tmp_path / "S1.json").read_text())
        doc["request"]["text"] = "refund order 58112, modified locally"
        (tmp_path / "S1.json").write_text(json.dumps(doc))
        loaded = load_scenarios(override_dir=tmp_path)
        assert loaded[0].request.text.endswith("modified locally")

    @pytest.mark.parametrize(
        "bad, field",
        [
            ({"bogus": 1}, "bogus"),
            ({"risk_amount_threshold": "lots"}, "risk_amount_threshold"),
            ({"risk_score_threshold": -0.5}, "risk_score_threshold"),
            ({"risk_idle_priority": 0.96}, "risk_idle_priority"),
        ],
        ids=["unknown", "mistyped", "out_of_range", "priority_table"],
    )
    def test_bad_monitor_override_names_the_field(self, tmp_path, bad, field):
        self._copy_fixtures(tmp_path)
        doc = json.loads((tmp_path / "T4.json").read_text())
        doc["monitor_overrides"].update(bad)
        (tmp_path / "T4.json").write_text(json.dumps(doc))
        with pytest.raises(MonitorError, match=field):
            load_scenarios(override_dir=tmp_path)

    @pytest.mark.parametrize(
        "corrupt, names",
        [
            (lambda doc: doc["faults"][0].update(effect="DOWN_LATER"), "'DOWN_LATER' is not a valid FaultEffect"),
            (lambda doc: doc["request"].pop("text"), "'text' is missing"),
            (lambda doc: doc["faults"][0].update(at_step="two"), "at_step must be an integer >= 0, got 'two'"),
            (lambda doc: doc.pop("expected"), "'expected' is missing"),
            (lambda doc: doc.update(faults={"tool": "stripe"}), "faults must be a list, got dict"),
            (lambda doc: doc.update(topology="ring"), "'ring' is not a valid TopologyKind"),
            (lambda doc: doc.update(request="text"), "request must be an object, got str"),
            (lambda doc: doc["request"].update(text=5), "request text must be a string, got int"),
            (lambda doc: doc["request"].update(amount="lots"), "amount must be null or a number >= 0, got 'lots'"),
            (lambda doc: doc["request"].update(amount=-5), "amount must be null or a number >= 0, got -5"),
            (lambda doc: doc["request"].update(amount=True), "amount must be null or a number >= 0, got True"),
            (lambda doc: doc["request"].update(risk_score="high"), "risk_score must be null or a number >= 0, got 'high'"),
            (lambda doc: doc.update(faults=["stripe"]), "faults[0] must be an object, got str"),
            (lambda doc: doc["faults"][0].update(tool="warp_drive"), "fault entry references unknown tool 'warp_drive'"),
        ],
        ids=[
            "effect", "request_text", "at_step", "expected", "faults_object", "topology",
            "request_type", "text_type", "amount_type", "amount_negative", "amount_bool",
            "risk_score_type", "fault_entry_type", "unknown_tool",
        ],
    )
    def test_malformed_scenario_names_the_field(self, tmp_path, corrupt, names):
        self._copy_fixtures(tmp_path)
        doc = json.loads((tmp_path / "S2.json").read_text())
        corrupt(doc)
        (tmp_path / "S2.json").write_text(json.dumps(doc))
        with pytest.raises(FixtureCorrupt, match="^S2: " + re.escape(names)):
            load_scenarios(override_dir=tmp_path)

    def test_schedule_rejects_unknown_tool(self):
        schedule = FaultSchedule((FaultEntry("warp_drive", FaultEffect.DOWN_FROM_START),))
        with pytest.raises(UnknownTool):
            schedule.validate_against(build_topology(TopologyKind.LINEAR_PIPELINE).fresh_graph())


class TestTopologies:
    def test_linear_pipeline_costs(self):
        g = build_topology(TopologyKind.LINEAR_PIPELINE).fresh_graph()
        assert g.shortest_path(START, "goal_refund").total_cost == pytest.approx(4.0)
        g.quarantine_node("stripe")
        g.quarantine_node("email")
        path = g.shortest_path(START, "goal_refund")
        assert path.total_cost == pytest.approx(6.0)
        assert {"razorpay", "sms"} <= set(path.nodes)

    def test_linear_pipeline_has_alternatives_per_stage(self):
        g = build_topology(TopologyKind.LINEAR_PIPELINE).fresh_graph()
        assert {"stripe", "razorpay"} <= g.nodes
        assert {"email", "sms"} <= g.nodes

    def test_travel_dag_has_eight_tools_and_stage_order(self):
        topo = build_topology(TopologyKind.DEPENDENCY_DAG)
        g = topo.fresh_graph()
        assert len(g.tool_nodes()) == 8
        path = g.shortest_path(START, "goal_trip")
        assert path.nodes == (
            START, "flight_primary", "hotel_primary", "car_primary", "confirm_primary", "goal_trip",
        )

    def test_fanout_survives_losing_the_image_classifier(self):
        g = build_topology(TopologyKind.PARALLEL_FANOUT).fresh_graph()
        g.quarantine_node("image_classifier")
        path = g.shortest_path(START, "goal_moderation")
        assert path is not None
        assert path.nodes[1] in ("text_classifier", "history_classifier")

    def test_fanout_has_three_independent_sources(self):
        g = build_topology(TopologyKind.PARALLEL_FANOUT).fresh_graph()
        sources = [n for n in g.tool_nodes() if g.has_edge(START, n)]
        assert len(sources) == 3
        for src in sources:
            assert g.has_edge(src, "action_queue")

    def test_fresh_graph_returns_independent_instances(self):
        topo = build_topology(TopologyKind.LINEAR_PIPELINE)
        a, b = topo.fresh_graph(), topo.fresh_graph()
        a.quarantine_node("stripe")
        assert not b.is_quarantined("stripe")


class TestFaultSchedules:
    def test_empty_schedule_changes_nothing(self):
        base = HealthyInvoker()
        wrapped = ScheduledInvoker(FaultSchedule(), base=base)
        clock = SimClock()
        for node in ("crm", "stripe", "email"):
            assert wrapped.invoke(node, clock) == base.invoke(node, clock)

    def test_s5_email_fails_exactly_once_at_the_email_step(self, by_id):
        trace = run_self_healing(by_id["S5"])
        failures = [c for c in trace.tool_calls if not c.success]
        assert len(failures) == 1
        assert failures[0].node == "email"
        preceding = [c.node for c in trace.tool_calls[: trace.tool_calls.index(failures[0])]]
        assert "stripe" in preceding  # refund already processed

    def test_t6_quarantines_three_tools_over_the_run(self, by_id):
        trace = run_self_healing(by_id["T6"])
        assert sorted(set(trace.quarantined)) == ["confirm_primary", "flight_primary", "hotel_primary"]
        assert trace.recovery_events == 2  # one batched recompute plus the confirm reroute

    def test_fail_at_step_counts_attempts(self):
        schedule = FaultSchedule((FaultEntry("stripe", FaultEffect.FAIL_AT_STEP, at_step=2),))
        invoker = ScheduledInvoker(schedule)
        clock = SimClock()
        assert invoker.invoke("stripe", clock).success  # attempt 0
        assert invoker.invoke("crm", clock).success  # attempt 1
        assert not invoker.invoke("stripe", clock).success  # attempts >= 2

    def test_tool_states_are_made_on_first_lookup(self):
        states = scenario_tool_states(build_topology(TopologyKind.LINEAR_PIPELINE).fresh_graph())
        assert dict(states) == {}  # nothing allocated up front
        stripe = states.get("stripe")
        assert stripe is states["stripe"] and stripe.breaker.trip_threshold == 1
        assert states["crm"].tool == "crm"
        assert sorted(states) == ["crm", "stripe"]
        assert states.get(START) is None and states.get("nope", 0) == 0  # sentinels and unknowns have none
        with pytest.raises(KeyError):
            states["nope"]


class TestEmergentColumns:
    def test_every_scenario_matches_its_fixture(self, suite):
        for scenario in suite:
            trace = run_self_healing(scenario)
            e = scenario.expected
            got = (trace.llm_calls, trace.tool_call_count, trace.recovery_events, trace.status.value)
            want = (e.shr_llm, e.shr_tools, e.shr_recoveries, e.shr_status)
            assert got == want, f"{scenario.id}: {got} != {want}"

    def test_travel_recovery_column_sums_to_seven(self, suite):
        total = sum(
            run_self_healing(s).recovery_events for s in suite if s.domain == "travel_booking"
        )
        assert total == 7

    def test_fixture_traces_are_pinned(self, suite):
        # CRC-32 chained over every scenario's trace JSON in load order.  A
        # change to trace semantics must update this value and say why.
        digest = 0
        for scenario in suite:
            digest = zlib.crc32(run_self_healing(scenario).to_json().encode(), digest)
        assert f"{digest:08x}" == "965b3cb6"

    def test_recovery_grand_total_is_thirteen(self, suite):
        assert sum(run_self_healing(s).recovery_events for s in suite) == 13

    def test_moderation_degrades_gracefully(self, suite):
        for scenario in suite:
            if scenario.domain != "content_moderation":
                continue
            trace = run_self_healing(scenario)
            if scenario.id == "M3":
                assert trace.status is TraceStatus.ESCALATED
            else:
                assert trace.status is TraceStatus.SUCCESS
                assert "action_queue" in trace.successes()

    def test_m2_image_outage_detected_before_routing(self, by_id):
        trace = run_self_healing(by_id["M2"])
        assert all(c.node != "image_classifier" for c in trace.tool_calls)
        assert trace.recovery_events == 0

    def test_t3_probe_detection_saves_a_wasted_call(self, by_id):
        trace = run_self_healing(by_id["T3"])
        assert all(c.node != "hotel_primary" for c in trace.tool_calls)
        failures = [c.node for c in trace.tool_calls if not c.success]
        assert failures == ["flight_primary"]

    def test_t5_demotes_to_transport_only(self, by_id):
        trace = run_self_healing(by_id["T5"])
        assert trace.final_goal == "transport_only"
        assert trace.demotions
        assert "car_backup" in trace.successes()

    def test_runs_are_deterministic(self, by_id):
        a = run_self_healing(by_id["S7"]).as_dict()
        b = run_self_healing(by_id["S7"]).as_dict()
        assert a == b
