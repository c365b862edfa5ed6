from __future__ import annotations

import math

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from toolrouter.calibration import (
    BASE_COST_RANGE,
    LATENCY_RANGE,
    RELIABILITY_RANGE,
    BreakerPhase,
    BreakerState,
    FactorOutOfRange,
    OutOfRange,
    SimClock,
    TelemetryWindow,
    ToolCalibration,
    ToolState,
    WeightFactors,
    compose_weight,
    latency_factor,
    rate_limit_factor,
    reliability_factor,
)
from toolrouter.graph import INFINITE


def factors(base=1.0, lat=1.0, rel=1.0, rate=1.0, avail=1.0) -> WeightFactors:
    return WeightFactors(base, lat, rel, rate, avail)


class TestComposeWeight:
    def test_identity(self):
        assert compose_weight(factors()) == 1.0

    def test_open_breaker_is_infinite(self):
        assert compose_weight(factors(avail=INFINITE)) == INFINITE

    def test_direct_product(self):
        assert compose_weight(factors(base=2.0, lat=1.5, rel=2.0)) == pytest.approx(6.0)

    def test_infinite_iff_availability_or_rate_limit(self):
        assert compose_weight(factors(rate=INFINITE)) == INFINITE
        assert math.isfinite(compose_weight(factors(base=5.0, lat=10.0, rel=50.0, rate=100.0)))

    def test_range_enforcement(self):
        with pytest.raises(FactorOutOfRange):
            compose_weight(factors(base=0.1))
        with pytest.raises(FactorOutOfRange):
            compose_weight(factors(lat=11.0))
        with pytest.raises(FactorOutOfRange):
            compose_weight(factors(rel=0.9))
        with pytest.raises(FactorOutOfRange):
            compose_weight(factors(avail=2.0))


class TestLatencyFactor:
    def _window(self, latencies, now=0):
        w = TelemetryWindow()
        for lat in latencies:
            w.append(now, lat, True)
        return w

    def test_ratio_identity(self):
        assert latency_factor(self._window([200, 200, 200]), 200, 0) == pytest.approx(1.0)

    def test_degraded_tool_quadruples(self):
        assert latency_factor(self._window([800, 800]), 200, 0) == pytest.approx(4.0)

    def test_fast_tool_clamps_low(self):
        assert latency_factor(self._window([50]), 200, 0) == pytest.approx(0.5)

    def test_empty_window_is_neutral(self):
        assert latency_factor(TelemetryWindow(), 200, 0) == 1.0

    def test_clamps_high(self):
        assert latency_factor(self._window([99_999]), 10, 0) == LATENCY_RANGE[1]

    def test_nonpositive_nominal_rejected(self):
        with pytest.raises(OutOfRange):
            latency_factor(TelemetryWindow(), 0, 0)


class TestReliabilityFactor:
    def _window(self, failures, total, now=0):
        w = TelemetryWindow()
        for i in range(total):
            w.append(now, 100, i >= failures)
        return w

    def test_zero_errors(self):
        assert reliability_factor(self._window(0, 100), 0) == 1.0

    def test_total_failure_hits_ceiling(self):
        assert reliability_factor(self._window(100, 100), 0) == 50.0

    def test_ten_percent_error_rate(self):
        # independent arithmetic: 1.0 + 0.10 * (50.0 - 1.0) = 5.9
        assert reliability_factor(self._window(10, 100), 0) == pytest.approx(5.9)

    def test_empty_window_is_neutral(self):
        assert reliability_factor(TelemetryWindow(), 0) == 1.0


class TestRateLimitFactor:
    def test_full_quota(self):
        assert rate_limit_factor(1.0) == 1.0

    def test_five_percent_left_doubles(self):
        assert rate_limit_factor(0.05) == pytest.approx(2.0)

    def test_exhausted_quota_is_infinite(self):
        assert rate_limit_factor(0.0) == INFINITE

    def test_knee(self):
        assert rate_limit_factor(0.25) == 1.0
        assert rate_limit_factor(0.26) == 1.0

    def test_out_of_range(self):
        with pytest.raises(OutOfRange):
            rate_limit_factor(1.5)
        with pytest.raises(OutOfRange):
            rate_limit_factor(-0.1)

    @given(st.floats(min_value=0.0, max_value=1.0), st.floats(min_value=0.0, max_value=1.0))
    def test_monotone_non_increasing(self, a, b):
        lo, hi = sorted((a, b))
        assert rate_limit_factor(lo) >= rate_limit_factor(hi)


class TestWindowDiscipline:
    def test_capacity_bound(self):
        w = TelemetryWindow()
        for i in range(250):
            w.append(i, 100, True)
        assert len(w.samples(249)) == 100

    def test_horizon_eviction_on_read(self):
        w = TelemetryWindow()
        w.append(0, 100, True)
        w.append(1000, 100, True)
        fresh = w.samples(15 * 60 * 1000 + 500)
        assert [s.at_ms for s in fresh] == [1000]

    def test_horizon_eviction_on_insert(self):
        w = TelemetryWindow()
        w.append(0, 100, False)
        w.append(16 * 60 * 1000, 100, True)
        assert w.error_rate(16 * 60 * 1000) == 0.0


EVENTS = ("call_success", "call_failure", "probe_success", "probe_failure")


def drive(state: BreakerState, event: str, now: int) -> None:
    if event == "call_success":
        state.on_result(now, True)
    elif event == "call_failure":
        state.on_result(now, False)
    elif event == "probe_success":
        state.on_probe(now, True)
    elif event == "probe_failure":
        state.on_probe(now, False)


class TestBreakerStateMachine:
    def test_trip_after_three_consecutive_failures(self):
        clock = SimClock()
        state = ToolState("stripe")
        for _ in range(2):
            state.record_call(clock, 100, False)
            assert state.breaker.phase is BreakerPhase.CLOSED
        state.record_call(clock, 100, False)
        assert state.breaker.phase is BreakerPhase.OPEN
        assert state.current_weight == INFINITE

    def test_success_resets_the_streak(self):
        clock = SimClock()
        state = ToolState("stripe")
        for _ in range(2):
            state.record_call(clock, 100, False)
        state.record_call(clock, 100, True)
        state.record_call(clock, 100, False)
        assert state.breaker.phase is BreakerPhase.CLOSED

    def test_half_open_probe_success_closes(self):
        b = BreakerState(phase=BreakerPhase.HALF_OPEN)
        b.on_probe(0, True)
        assert b.phase is BreakerPhase.CLOSED
        assert b.recovery_progress == 0

    def test_half_open_probe_failure_reopens_with_fresh_cooldown(self):
        b = BreakerState(phase=BreakerPhase.HALF_OPEN)
        b.on_probe(5000, False)
        assert b.phase is BreakerPhase.OPEN
        assert b.opened_at == 5000

    def test_open_holds_through_pre_cooldown_probes(self):
        b = BreakerState(phase=BreakerPhase.OPEN, opened_at=0, cooldown_ms=10_000)
        b.on_probe(9_999, True)
        assert b.phase is BreakerPhase.OPEN

    def test_open_transitions_half_open_after_cooldown(self):
        clock = SimClock()
        state = ToolState("stripe", ToolCalibration(trip_threshold=1, cooldown_ms=10_000))
        state.record_call(clock, 100, False)
        assert state.breaker.phase is BreakerPhase.OPEN
        clock.advance(10_000)
        state.run_health_probe(clock, 50, True)
        assert state.breaker.phase is BreakerPhase.CLOSED
        assert math.isfinite(state.current_weight)

    def test_exhaustive_transition_table(self):
        # Every (phase, event, cooldown-elapsed) cell matches the declared
        # machine; no other transitions exist.
        expected = {
            (BreakerPhase.CLOSED, "call_success", False): BreakerPhase.CLOSED,
            (BreakerPhase.CLOSED, "call_failure", False): BreakerPhase.OPEN,  # threshold 1 below
            (BreakerPhase.CLOSED, "probe_success", False): BreakerPhase.CLOSED,
            (BreakerPhase.CLOSED, "probe_failure", False): BreakerPhase.OPEN,
            (BreakerPhase.OPEN, "call_success", False): BreakerPhase.OPEN,
            (BreakerPhase.OPEN, "call_failure", False): BreakerPhase.OPEN,
            (BreakerPhase.OPEN, "probe_success", False): BreakerPhase.OPEN,
            (BreakerPhase.OPEN, "probe_failure", False): BreakerPhase.OPEN,
            (BreakerPhase.OPEN, "probe_success", True): BreakerPhase.CLOSED,
            (BreakerPhase.OPEN, "probe_failure", True): BreakerPhase.OPEN,
            (BreakerPhase.HALF_OPEN, "call_success", False): BreakerPhase.CLOSED,
            (BreakerPhase.HALF_OPEN, "call_failure", False): BreakerPhase.OPEN,
            (BreakerPhase.HALF_OPEN, "probe_success", False): BreakerPhase.CLOSED,
            (BreakerPhase.HALF_OPEN, "probe_failure", False): BreakerPhase.OPEN,
        }
        for (phase, event, elapsed), want in expected.items():
            b = BreakerState(phase=phase, trip_threshold=1, cooldown_ms=10_000)
            now = 20_000 if elapsed else 0
            b.opened_at = 0 if elapsed else now
            drive(b, event, now)
            assert b.phase is want, (phase, event, elapsed)

    def test_half_open_reachable_only_from_open(self):
        for phase in (BreakerPhase.CLOSED, BreakerPhase.HALF_OPEN):
            for event in EVENTS:
                b = BreakerState(phase=phase, trip_threshold=99)
                drive(b, event, 999_999)
                assert b.phase is not BreakerPhase.HALF_OPEN or phase is BreakerPhase.HALF_OPEN


class TestRecoveryRamp:
    def _recovered_state(self) -> tuple[SimClock, ToolState]:
        clock = SimClock()
        state = ToolState("stripe", ToolCalibration(trip_threshold=1, cooldown_ms=1000))
        state.record_call(clock, 100, False)
        clock.advance(1000)
        state.run_health_probe(clock, 100, True)
        assert state.breaker.phase is BreakerPhase.CLOSED
        return clock, state

    def test_starts_at_four_times_telemetry(self):
        clock, state = self._recovered_state()
        assert state.recovery_weight(clock.now) == pytest.approx(4.0 * state.current_weight)

    def test_ramp_endpoint_is_telemetry_weight(self):
        clock, state = self._recovered_state()
        for _ in range(state.config.ramp_length):
            state.record_call(clock, 100, True)
        assert state.recovery_weight(clock.now) == pytest.approx(state.current_weight)

    def test_monotone_non_increasing(self):
        clock, state = self._recovered_state()
        weights = [state.recovery_weight(clock.now)]
        for _ in range(state.config.ramp_length + 2):
            state.record_call(clock, 100, True)
            weights.append(state.recovery_weight(clock.now))
        assert all(a >= b - 1e-9 for a, b in zip(weights, weights[1:]))

    def test_half_open_weight_is_high_but_finite(self):
        clock = SimClock()
        state = ToolState("stripe", ToolCalibration(trip_threshold=1, cooldown_ms=1000))
        state.record_call(clock, 100, False)
        assert state.recovery_weight(clock.now) == INFINITE
        state.breaker.phase = BreakerPhase.HALF_OPEN
        w = state.recovery_weight(clock.now)
        assert math.isfinite(w) and w > state.config.base_cost


class TestToolStateInvariants:
    @given(
        st.lists(
            st.tuples(st.floats(min_value=0, max_value=5000), st.booleans()),
            min_size=1,
            max_size=60,
        )
    )
    @settings(max_examples=60, deadline=None)
    def test_weight_always_matches_fresh_factors(self, events):
        clock = SimClock()
        state = ToolState("t")
        for latency, ok in events:
            clock.advance(100)
            state.record_call(clock, latency, ok)
            assert state.current_weight == compose_weight(state.factors(clock.now))

    @given(
        st.lists(
            st.tuples(st.floats(min_value=0, max_value=10_000), st.booleans(), st.booleans()),
            max_size=80,
        )
    )
    @settings(max_examples=60, deadline=None)
    def test_factors_stay_in_table_ranges(self, events):
        clock = SimClock()
        state = ToolState("t")
        for latency, ok, probe in events:
            clock.advance(250)
            if probe:
                state.run_health_probe(clock, latency, ok)
            else:
                state.record_call(clock, latency, ok)
            f = state.factors(clock.now)
            assert BASE_COST_RANGE[0] <= f.base_cost <= BASE_COST_RANGE[1]
            assert LATENCY_RANGE[0] <= f.latency_factor <= LATENCY_RANGE[1]
            assert RELIABILITY_RANGE[0] <= f.reliability_factor <= RELIABILITY_RANGE[1]
            assert f.rate_limit_factor >= 1.0
            assert f.availability_factor in (1.0, INFINITE)

    def test_window_never_exceeds_bounds_after_mixed_traffic(self):
        clock = SimClock()
        state = ToolState("t")
        for i in range(500):
            clock.advance(10_000)
            state.record_call(clock, 100 + i, i % 7 == 0)
        rows = state.window.samples(clock.now)
        assert len(rows) <= 100
        assert all(clock.now - s.at_ms <= 15 * 60 * 1000 for s in rows)

    def test_negative_latency_rejected(self):
        with pytest.raises(OutOfRange):
            ToolState("t").record_call(SimClock(), -1, True)


class TestConfig:
    def test_clock_rejects_negative_ticks(self):
        with pytest.raises(OutOfRange):
            SimClock().advance(-5)
