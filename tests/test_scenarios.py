from __future__ import annotations

import json
import re
import zlib
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import toolrouter.scenarios as scenarios_mod
from toolrouter.calibration import BreakerPhase, SimClock, ToolCalibration, ToolState
from toolrouter.graph import GraphError
from toolrouter.monitors import MonitorError
from toolrouter.orchestrator import Outcome, TraceStatus
from toolrouter.scenarios import (
    HARD_FAILURE,
    PROBE_LATENCY_MS,
    TOOL_CALL_LATENCY_MS,
    FaultEffect,
    FaultEntry,
    FaultSchedule,
    FixtureCorrupt,
    ScheduledInvoker,
    ScheduledProber,
    UnknownTool,
    fixture_digest,
    load_scenarios,
    run_self_healing,
    scenario_tool_states,
)
from toolrouter.topologies import BUILDERS, START, TopologyKind, build_topology


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
        assert (e["shr"]["llm_calls"], e["shr"]["tool_calls"], e["react"]["llm_calls"], e["static"]["silent_failure"]) == (2, 5, 9, True)

    def test_m6_fixture(self, by_id):
        e = by_id["M6"].expected
        assert e["react"]["llm_calls"] == 10
        assert e["static"]["classifiers_lost"] == 4

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
        with pytest.raises(FixtureCorrupt, match="^T4: monitor_overrides: .*" + field) as err:
            load_scenarios(override_dir=tmp_path)
        assert isinstance(err.value.__cause__, MonitorError)

    @pytest.mark.parametrize(
        "field, bad", [("amount", "lots"), ("risk_score", -1), ("risk_visible_after", 1.5), ("risk_visible_after", True)]
    )
    def test_bad_request_value_names_the_request_field(self, tmp_path, field, bad):
        self._copy_fixtures(tmp_path)
        doc = json.loads((tmp_path / "S2.json").read_text())
        doc["request"][field] = bad
        (tmp_path / "S2.json").write_text(json.dumps(doc))
        with pytest.raises(FixtureCorrupt, match=f"^S2: request {field} must be ") as err:
            load_scenarios(override_dir=tmp_path)
        assert "monitor_overrides" not in str(err.value)

    @pytest.mark.parametrize(
        "corrupt, names",
        [
            (lambda doc: doc["faults"][0].update(effect="DOWN_LATER"), "faults[0].effect must be one of DOWN_FROM_START, FAIL_AT_STEP, got 'DOWN_LATER'"),
            (lambda doc: doc["request"].pop("text"), "'text' is missing"),
            (lambda doc: doc["faults"][0].update(at_step="two"), "faults[0].at_step must be an integer >= 0, got 'two'"),
            (lambda doc: doc.pop("expected"), "'expected' is missing"),
            (lambda doc: doc.update(faults={"tool": "stripe"}), "faults must be a list, got dict"),
            (lambda doc: doc.update(topology="ring"), "'ring' is not a valid TopologyKind"),
            (lambda doc: doc.update(request="text"), "request must be an object, got str"),
            (lambda doc: doc["request"].update(text=5), "request text must be a string, got int"),
            (lambda doc: doc["request"].update(amount="lots"), "request amount must be None or a number >= 0, got 'lots'"),
            (lambda doc: doc["request"].update(amount=-5), "request amount must be None or a number >= 0, got -5"),
            (lambda doc: doc["request"].update(amount=True), "request amount must be None or a number >= 0, got True"),
            (lambda doc: doc["request"].update(risk_score="high"), "request risk_score must be None or a number >= 0, got 'high'"),
            (lambda doc: doc.update(faults=["stripe"]), "faults[0] must be an object, got str"),
            (lambda doc: doc["faults"][0].update(tool="warp_drive"), "fault entry references unknown tool 'warp_drive'"),
            (lambda doc: doc["faults"][0].update(tool=["stripe"]), "faults[0].tool must be a string, got list"),
            (lambda doc: doc.update(topology=["linear_pipeline"]), "topology must be a string, got list"),
            (lambda doc: doc.update(expected=5), "expected must be an object, got int"),
            (lambda doc: doc["expected"].update(react=[]), "expected.react must be an object, got list"),
            (lambda doc: doc["expected"]["shr"].update(llm_calls="x"), "expected.shr.llm_calls must be an integer >= 0, got 'x'"),
            (lambda doc: doc["expected"]["shr"].update(tool_calls=-1), "expected.shr.tool_calls must be an integer >= 0, got -1"),
            (lambda doc: doc["expected"]["react"].update(llm_calls=True), "expected.react.llm_calls must be an integer >= 0, got True"),
            (lambda doc: doc["expected"]["workflow"].update(classifiers_lost=1.5), "expected.workflow.classifiers_lost must be an integer >= 0, got 1.5"),
            (lambda doc: doc["expected"]["workflow"].update(silent_failure="no"), "expected.workflow.silent_failure must be a boolean, got 'no'"),
            (lambda doc: doc["expected"]["shr"].update(status=["success"]), "expected.shr.status must be 'success' or 'escalated', got ['success']"),
            (lambda doc: doc["faults"][0].update(effect="DOWN"), "faults[0].effect must be one of DOWN_FROM_START, FAIL_AT_STEP, got 'DOWN'"),
            (lambda doc: doc["faults"][0].update(probe_visible="false"), "faults[0].probe_visible must be a boolean, got 'false'"),
            (lambda doc: doc["faults"][0].update(kind=["x"]), "faults[0].kind must be one of timeout, error_response, connection_refused, got ['x']"),
            (lambda doc: doc["faults"][0].update(kind="rate_limited"), "faults[0].kind must be one of timeout, error_response, connection_refused, got 'rate_limited'"),
            (lambda doc: doc["faults"][0].update(at_step=5), "faults[0].at_step applies only to FAIL_AT_STEP, not DOWN_FROM_START"),
            (lambda doc: doc["faults"][0].update(effect="FAIL_AT_STEP"), "faults[0].at_step must be an integer >= 1 on FAIL_AT_STEP, it is missing"),
            (lambda doc: doc["faults"][0].update(effect="FAIL_AT_STEP", at_step=0), "faults[0].at_step must be an integer >= 1 on FAIL_AT_STEP, got 0"),
            (lambda doc: doc["request"].update(content_toxic="no"), "request.content_toxic must be a boolean, got 'no'"),
        ],
        ids=[
            "effect", "request_text", "at_step", "expected", "faults_object", "topology",
            "request_type", "text_type", "amount_type", "amount_negative", "amount_bool",
            "risk_score_type", "fault_entry_type", "unknown_tool", "fault_tool_type", "topology_type",
            "expected_type", "expected_section_type", "expected_count_type", "expected_count_negative",
            "expected_count_bool", "expected_optional_count", "expected_flag_type", "expected_status",
            "effect_unknown", "probe_visible_type", "kind_type", "kind_unknown", "at_step_on_down_from_start",
            "at_step_missing_on_fail_at_step", "at_step_zero_on_fail_at_step", "content_toxic_type",
        ],
    )
    def test_malformed_scenario_names_the_field(self, tmp_path, corrupt, names):
        self._copy_fixtures(tmp_path)
        doc = json.loads((tmp_path / "S2.json").read_text())
        corrupt(doc)
        (tmp_path / "S2.json").write_text(json.dumps(doc))
        with pytest.raises(FixtureCorrupt, match="^S2: " + re.escape(names)) as err:
            load_scenarios(override_dir=tmp_path)
        assert err.value.__cause__ is not None

    def test_schedule_rejects_unknown_tool(self):
        schedule = FaultSchedule((FaultEntry("warp_drive", FaultEffect.DOWN_FROM_START),))
        with pytest.raises(UnknownTool):
            schedule.validate_against(build_topology(TopologyKind.LINEAR_PIPELINE).fresh_graph())


class TestTopologies:
    def test_linear_pipeline_costs(self):
        g = build_topology(TopologyKind.LINEAR_PIPELINE).fresh_graph()
        assert g.shortest_path(START, "goal_refund").total_cost == pytest.approx(4.0)
        path = g.shortest_path(START, "goal_refund", (), frozenset({"stripe", "email"}))
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
        path = g.shortest_path(START, "goal_moderation", (), frozenset({"image_classifier"}))
        assert path is not None
        assert path.nodes[1] in ("text_classifier", "history_classifier")

    def test_fanout_has_three_independent_sources(self):
        g = build_topology(TopologyKind.PARALLEL_FANOUT).fresh_graph()
        sources = [n for n in g.tool_nodes() if g.has_edge(START, n)]
        assert len(sources) == 3
        for src in sources:
            assert g.has_edge(src, "action_queue")

    def test_fresh_graph_returns_one_frozen_graph(self):
        for kind, build in BUILDERS.items():
            topo = build_topology(kind)
            g = topo.fresh_graph()
            assert g is topo.fresh_graph() and g.to_json() == build().to_json()
            with pytest.raises(GraphError, match="frozen"):
                g.quarantine_node(g.tool_nodes()[0])


class TestFaultSchedules:
    def test_empty_schedule_changes_nothing(self):
        invoker, clock = ScheduledInvoker(FaultSchedule()), SimClock()
        for node in ("crm", "stripe", "email"):
            assert invoker.invoke(node, clock) == Outcome.ok(TOOL_CALL_LATENCY_MS)
        assert invoker.attempts == 3 and clock.now == 0

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


    def test_scheduled_invoker_shares_one_success_outcome(self):
        schedule = FaultSchedule((FaultEntry("stripe", FaultEffect.FAIL_AT_STEP, at_step=2),))
        invoker, clock = ScheduledInvoker(schedule), SimClock()
        first = invoker.invoke("crm", clock)
        assert first == Outcome.ok(TOOL_CALL_LATENCY_MS) and invoker.invoke("stripe", clock) is first
        assert not invoker.invoke("stripe", clock).success
        assert invoker.invoke("crm", clock) is first and ScheduledInvoker(FaultSchedule()).invoke("crm", clock) is first

    def test_fault_values_keep_no_attribute_dict(self):
        """A workload holds thousands of schedules for its whole run."""
        entry = FaultEntry("stripe", FaultEffect.FAIL_AT_STEP, at_step=2)
        assert not hasattr(entry, "__dict__") and not hasattr(FaultSchedule((entry,)), "__dict__")

    def test_tool_state_maps_share_no_state(self):
        graph = build_topology(TopologyKind.LINEAR_PIPELINE).fresh_graph()
        a, b = scenario_tool_states(graph), scenario_tool_states(graph)
        for tool in graph.tool_nodes():
            assert a[tool] is not b[tool] and a[tool].breaker is not b[tool].breaker
            for state in (a[tool], b[tool]):
                breaker = state.breaker
                assert (breaker.trip_threshold, breaker.cooldown_ms) == (HARD_FAILURE.trip_threshold, HARD_FAILURE.cooldown_ms)
        a["stripe"].record_call(SimClock(), 100.0, success=False)
        assert a["stripe"].breaker.phase is BreakerPhase.OPEN
        assert b["stripe"].breaker.phase is BreakerPhase.CLOSED


class _ReferenceInvoker:
    """The scheduled invoker as it was before it grouped its entries by
    tool: every call reads every entry."""

    def __init__(self, schedule: FaultSchedule):
        self.schedule = schedule
        self.attempts = 0

    def invoke(self, node: str, clock: SimClock) -> Outcome:
        entry = next((e for e in self.schedule.entries if e.tool == node and e.active(self.attempts)), None)
        self.attempts += 1
        if entry is not None:
            return Outcome.failed(entry.kind, TOOL_CALL_LATENCY_MS)
        return Outcome.ok(TOOL_CALL_LATENCY_MS)


def _reference_scan(schedule: FaultSchedule, clock: SimClock, states, attempts: int) -> list[str]:
    """The prober's scan as it was before it kept its probe-visible entries."""
    opened = []
    for entry in schedule.entries:
        if not entry.probe_visible or not entry.active(attempts):
            continue
        state = states.get(entry.tool)
        if state is None or state.breaker.phase is BreakerPhase.OPEN:
            continue
        state.run_health_probe(clock, PROBE_LATENCY_MS, success=False)
        if state.breaker.phase is BreakerPhase.OPEN:
            opened.append(entry.tool)
    return sorted(opened)


class TestScheduledReplay:
    @settings(derandomize=True, database=None, deadline=None, max_examples=150)
    @given(st.data())
    def test_invoker_and_prober_match_the_reference_loops(self, data):
        """Random schedules with both effects, mixed probe visibility and
        at_step 0-5, replayed through interleaved calls and scans: the
        invoker and prober give the same outcomes, attempt counts, opened
        lists and breaker phases as the loops that read every entry."""
        topo = build_topology(data.draw(st.sampled_from(list(TopologyKind))))
        graph = topo.fresh_graph()
        tools = graph.tool_nodes()
        entry = st.builds(
            FaultEntry,
            tool=st.sampled_from(tools),
            effect=st.sampled_from(list(FaultEffect)),
            kind=st.sampled_from(["timeout", "error_response", "connection_refused"]),
            probe_visible=st.booleans(),
            at_step=st.integers(0, 5),
        )
        schedule = FaultSchedule(tuple(data.draw(st.lists(entry, max_size=5))))
        ops = data.draw(st.lists(st.one_of(st.sampled_from(tools), st.none()), max_size=25))

        invoker = ScheduledInvoker(schedule)
        prober = ScheduledProber(schedule, invoker)
        states, clock = scenario_tool_states(graph), SimClock()
        reference = _ReferenceInvoker(schedule)
        ref_states = {t: ToolState(t, ToolCalibration(trip_threshold=1)) for t in tools}
        ref_clock = SimClock()
        for node in ops:
            if node is None:  # a sweep's scan
                assert prober.scan(clock, states, invoker.attempts) == _reference_scan(
                    schedule, ref_clock, ref_states, reference.attempts
                )
            else:
                got, want = invoker.invoke(node, clock), reference.invoke(node, ref_clock)
                assert got == want
                for c, st_map, outcome in ((clock, states, got), (ref_clock, ref_states, want)):
                    c.advance(outcome.latency_ms)
                    st_map[node].record_call(c, outcome.latency_ms, outcome.success)
            assert invoker.attempts == reference.attempts and clock.now == ref_clock.now
            assert [states[t].breaker.phase for t in tools] == [ref_states[t].breaker.phase for t in tools]


class TestEmergentColumns:
    def test_every_scenario_matches_its_fixture(self, suite):
        for scenario in suite:
            trace = run_self_healing(scenario)
            e = scenario.expected["shr"]
            got = (trace.llm_calls, trace.tool_call_count, trace.recovery_events, trace.status.value)
            want = (e["llm_calls"], e["tool_calls"], e["recoveries"], e["status"])
            assert got == want, f"{scenario.id}: {got} != {want}"

    def test_travel_recovery_column_sums_to_seven(self, suite):
        total = sum(
            run_self_healing(s).recovery_events for s in suite if s.domain == "travel_booking"
        )
        assert total == 7

    def test_fixture_traces_are_pinned(self, suite):
        # CRC-32 chained over every scenario's trace JSON in load order.  A
        # change to trace semantics must update this value and say why.
        # 965b3cb6 -> d644cef3: the intent monitor is gone, so an idle
        # pre-route sweep logs tool_health 0.10 as its monitor_winner.
        digest = 0
        for scenario in suite:
            digest = zlib.crc32(run_self_healing(scenario).to_json().encode(), digest)
        assert f"{digest:08x}" == "d644cef3"

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
