from __future__ import annotations

import pytest

from toolrouter.calibration import (
    LATENCY_RANGE,
    BreakerPhase,
    BreakerState,
    OutOfRange,
    SimClock,
    TelemetryWindow,
    ToolCalibration,
    ToolState,
    latency_factor,
    reliability_factor,
)


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
        assert len(w) == 1


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


class TestToolStateInvariants:
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
