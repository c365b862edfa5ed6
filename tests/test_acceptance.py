"""Acceptance suite: one test per published criterion, each printing a
pass/fail line (run with ``pytest tests/test_acceptance.py -v -s``).

Tolerances are pinned here, not deferred: integer cells are exact, the
projection's time figures allow 5% against their rounded reference values,
and the recovery microbenchmark uses a 10 ms ceiling to absorb CI jitter
around a sub-millisecond expectation.

C8 (the telemetry weight function) retired with its code, which no route
read; the other criteria keep their numbers.
"""

from __future__ import annotations

import random
import time

import pytest

from oracle import brute_force_shortest
from conftest import make_random_graph

from toolrouter.baselines import audit
from toolrouter.bench import (
    BenchConfig,
    measure_recovery_latency,
    project_risk,
    run_benchmark,
    run_fuzz,
)
from toolrouter.calibration import (
    BreakerPhase,
    BreakerState,
    SimClock,
    ToolCalibration,
    ToolState,
)
from toolrouter.monitors import MonitorConfig
from toolrouter.orchestrator import TaskRequest, TraceStatus
from toolrouter.scenarios import (
    FaultEffect,
    FaultEntry,
    FaultSchedule,
    load_scenarios,
    run_schedule,
    run_self_healing,
)
from toolrouter.topologies import START, TopologyKind, build_topology


def note(line: str) -> None:
    print(f"ACCEPTANCE {line}")


@pytest.fixture(scope="module")
def suite():
    return load_scenarios()


class TestC1AggregateTable:
    def test_c1_full_benchmark_aggregates_exact(self):
        t0 = time.perf_counter()
        result = run_benchmark()
        elapsed = time.perf_counter() - t0
        shr = result.aggregates["shr"]
        react = result.aggregates["react"]
        static = result.aggregates["static"]
        assert (shr["correct"], shr["llm_calls"], shr["tool_calls"], shr["recoveries"], shr["silent_failures"]) == (
            19, 9, 66, 13, 0,
        )
        assert (react["correct"], react["llm_calls"], react["recoveries"], react["silent_failures"]) == (
            19, 123, 0, 0,
        )
        assert (static["correct"], static["llm_calls"], static["tool_calls"], static["recoveries"], static["silent_failures"]) == (
            16, 0, 87, 24, 3,
        )
        silent = sorted(r.scenario for r in result.rows if r.arch == "static" and r.silent_failure)
        assert silent == ["S6", "S7", "T6"]
        assert elapsed < 5.0
        note(f"C1 aggregate table: PASS (full suite in {elapsed * 1000:.0f} ms)")

    @pytest.mark.xfail(
        strict=True,
        reason=(
            "the pinned aggregate claims 93 tool calls for the scripted-policy "
            "baseline, but the per-scenario fixture columns it aggregates sum to "
            "87; the per-scenario cells are authoritative, so this cell is kept "
            "as a documented discrepancy rather than weakened"
        ),
    )
    def test_c1_react_tool_aggregate_pinned_value(self):
        result = run_benchmark(BenchConfig(architectures=("react",)))
        assert result.aggregates["react"]["tool_calls"] == 93

    def test_c1_react_tool_aggregate_consistent_with_rows(self):
        result = run_benchmark(BenchConfig(architectures=("react",)))
        rows_sum = sum(r.tool_calls for r in result.rows)
        assert result.aggregates["react"]["tool_calls"] == rows_sum == 87
        note("C1 (react tools): aggregate equals its own per-scenario column sum, 87")


class TestC2PerScenarioTables:
    def test_c2_router_cells_are_emergent_and_exact(self, suite):
        for scenario in suite:
            trace = run_self_healing(scenario)
            e = scenario.expected
            assert trace.llm_calls == e.shr_llm, scenario.id
            assert trace.tool_call_count == e.shr_tools, scenario.id
            assert trace.recovery_events == e.shr_recoveries, scenario.id
            assert trace.status.value == e.shr_status, scenario.id
        note("C2 router per-scenario cells: PASS (19/19 exact)")

    def test_c2_baseline_cells_match_their_simulators(self, suite):
        from toolrouter.baselines import run_react, run_static_workflow

        for scenario in suite:
            e = scenario.expected
            react = run_react(scenario)
            assert (react.llm_calls, react.tool_call_count) == (e.react_llm, e.react_tools), scenario.id
            workflow, report = run_static_workflow(scenario)
            assert report.silent_failure == e.workflow_silent, scenario.id
            if e.classifiers_lost is not None:
                assert report.classifiers_lost == e.classifiers_lost, scenario.id
        note("C2 baseline per-scenario cells: PASS")


class TestC3FigureFourCosts:
    def test_c3_healthy_and_double_failure_costs(self):
        g = build_topology(TopologyKind.LINEAR_PIPELINE).fresh_graph()
        healthy = g.shortest_path(START, "goal_refund")
        assert healthy.total_cost == 4.0
        g.quarantine_node("stripe")
        g.quarantine_node("email")
        rerouted = g.shortest_path(START, "goal_refund")
        assert rerouted.total_cost == 6.0
        assert {"razorpay", "sms"} <= set(rerouted.nodes)
        note("C3 pipeline costs: PASS (4.0 healthy, 6.0 after stripe+email quarantine)")


class TestC4OracleEquivalence:
    def test_c4_thousand_random_graphs(self):
        rng = random.Random(1009)
        mismatches = 0
        nulls = 0
        for _ in range(1000):
            g, src, dst = make_random_graph(rng, max_nodes=8)
            expected = brute_force_shortest(g, src, dst)
            got = g.shortest_path(src, dst)
            if expected is None:
                nulls += 1
                if got is not None:
                    mismatches += 1
            elif got is None or abs(got.total_cost - expected[0]) > 1e-9:
                mismatches += 1
        assert mismatches == 0
        note(f"C4 oracle equivalence: PASS (1000 graphs, {nulls} null-agreements, 0 mismatches)")


class TestC5FailureCountInvariance:
    POOLS = {
        TopologyKind.LINEAR_PIPELINE: ["stripe", "razorpay", "email", "sms", "store_credit"],
        TopologyKind.DEPENDENCY_DAG: [
            "hotel_primary", "hotel_backup", "car_primary", "confirm_primary", "flight_backup",
        ],
        TopologyKind.PARALLEL_FANOUT: [
            "text_classifier", "history_classifier", "toxicity_check", "spam_check", "action_queue",
        ],
    }

    def test_c5_one_recompute_per_batch_for_k_1_to_5(self):
        for kind, pool in self.POOLS.items():
            topo = build_topology(kind)
            for k in range(1, 6):
                schedule = FaultSchedule(
                    tuple(
                        FaultEntry(tool, FaultEffect.FAIL_AT_STEP, probe_visible=True, at_step=1)
                        for tool in pool[:k]
                    )
                )
                trace = run_schedule(topo, schedule, TaskRequest(text="invariance probe task"))
                assert trace.failure_recomputes == 1, (kind, k)
                assert len(set(trace.quarantined)) == k, (kind, k)
                assert trace.status in (TraceStatus.SUCCESS, TraceStatus.ESCALATED)
        note("C5 failure-count invariance: PASS (K=1..5 on all three topologies, 1 recompute each)")


class TestC6BinaryObservability:
    def test_c6_fixtures_and_fuzz(self, suite):
        for scenario in suite:
            trace = run_self_healing(scenario)
            assert trace.status in (TraceStatus.SUCCESS, TraceStatus.ESCALATED)
            assert not audit(trace, scenario).silent_failure, scenario.id
        stats = run_fuzz(1000, seed=42)
        assert stats["runs"] == 1000
        assert stats["success"] + stats["escalated"] == 1000
        assert stats["silent"] == 0
        note(f"C6 binary observability: PASS (19 fixtures + 1000 fuzzed schedules, 0 silent)")


class TestC7CircuitBreaker:
    def test_c7_transitions(self):
        clock = SimClock()
        state = ToolState("t", ToolCalibration(trip_threshold=3, cooldown_ms=10_000))
        for _ in range(3):
            state.record_call(clock, 100, False)
        assert state.breaker.phase is BreakerPhase.OPEN

        state.run_health_probe(clock, 50, True)  # pre-cooldown probe: held open
        assert state.breaker.phase is BreakerPhase.OPEN

        clock.advance(10_000)
        state.run_health_probe(clock, 50, False)  # post-cooldown probe fails: reopen
        assert state.breaker.phase is BreakerPhase.OPEN

        clock.advance(10_000)
        state.run_health_probe(clock, 50, True)  # post-cooldown probe succeeds
        assert state.breaker.phase is BreakerPhase.CLOSED

        half_open = BreakerState(phase=BreakerPhase.HALF_OPEN)
        half_open.on_probe(clock.now, False)
        assert half_open.phase is BreakerPhase.OPEN
        note("C7 circuit breaker: PASS (trip, held open, reopen, close, half-open failure)")


class TestC9RiskProjection:
    def test_c9_projection_rows(self):
        rows = project_risk([10_000, 100_000, 1_000_000])
        assert [r["recovery_events_per_day"] for r in rows] == [500, 5_000, 50_000]
        assert [r["react_llm_calls"] for r in rows] == [2_000, 20_000, 200_000]
        assert [(r["workflow_silent_low"], r["workflow_silent_high"]) for r in rows] == [
            (10, 25), (100, 250), (1_000, 2_500),
        ]
        assert rows[0]["react_recovery_seconds"] / 60 == pytest.approx(17, rel=0.05)
        assert rows[1]["react_recovery_seconds"] / 60 == pytest.approx(170, rel=0.05)
        assert rows[2]["react_recovery_seconds"] / 3600 == pytest.approx(28, rel=0.05)
        # The router's recovery is modeled at a 1 ms-per-event ceiling, so the
        # published bounds are met at equality in the worst case.
        assert rows[0]["shr_recovery_seconds"] <= 1
        assert rows[1]["shr_recovery_seconds"] <= 5
        assert rows[2]["shr_recovery_seconds"] <= 50
        note("C9 risk projection: PASS (events and call counts exact, times within 5%)")


class TestC10RecoveryLatency:
    def test_c10_quarantine_plus_recompute_under_10ms(self):
        results = measure_recovery_latency(repetitions=200)
        median = results["overall"]["median_ms"]
        assert median < 10.0
        note(f"C10 recovery microbenchmark: PASS (median {median:.4f} ms per quarantine+recompute)")


class TestC11Determinism:
    def test_c11_byte_identical_reports(self):
        a = run_benchmark(BenchConfig(seed=123)).to_json()
        b = run_benchmark(BenchConfig(seed=123)).to_json()
        assert a == b
        assert a.encode() == b.encode()
        note("C11 determinism: PASS (same seed, byte-identical report JSON)")
