from __future__ import annotations

import dataclasses

import pytest

from toolrouter.calibration import (
    DEFAULT_CALIBRATION,
    WINDOW_CAPACITY,
    WINDOW_HORIZON_MS,
    BreakerPhase,
    BreakerState,
    OutOfRange,
    SimClock,
    ToolCalibration,
    ToolState,
)


class TestWindowDiscipline:
    def test_capacity_bound(self):
        clock = SimClock()
        state = ToolState("t")
        for _ in range(250):
            clock.advance(1)
            state.record_call(clock, 100, True)
        assert len(state.window) == WINDOW_CAPACITY
        assert list(state.window) == list(range(151, 251))

    def test_horizon_eviction_on_insert(self):
        clock = SimClock()
        state = ToolState("t")
        state.record_call(clock, 100, False)
        clock.advance(16 * 60 * 1000)
        state.run_health_probe(clock, 100, True)
        assert list(state.window) == [16 * 60 * 1000]


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
            if i % 3 == 0:
                state.run_health_probe(clock, 5, i % 2 == 0)
            assert len(state.window) <= WINDOW_CAPACITY
            assert all(clock.now - at <= WINDOW_HORIZON_MS for at in state.window)

    def test_negative_latency_rejected(self):
        with pytest.raises(OutOfRange):
            ToolState("t").record_call(SimClock(), -1, True)

    @pytest.mark.parametrize("latency", [float("nan"), float("inf"), -0.5])
    def test_out_of_range_latency_names_the_field(self, latency):
        state = ToolState("t")
        for update in (state.record_call, state.run_health_probe):
            with pytest.raises(OutOfRange, match="latency_ms"):
                update(SimClock(), latency, True)
        assert len(state.window) == 0
        assert state.breaker.phase is BreakerPhase.CLOSED


class TestConfig:
    def test_clock_rejects_negative_ticks(self):
        with pytest.raises(OutOfRange):
            SimClock().advance(-5)

    @pytest.mark.parametrize("start", [float("nan"), -5, 1.9, 7.0, "7", True, None])
    def test_clock_start_must_be_a_whole_millisecond_from_zero(self, start):
        with pytest.raises(OutOfRange, match=r"^now_ms must be an int >= 0"):
            SimClock(start)

    def test_clock_starts_at_any_int_from_zero(self):
        assert SimClock().now == 0 and SimClock(0).now == 0 and SimClock(7).now == 7

    @pytest.mark.parametrize("delta", [float("nan"), float("inf")])
    def test_clock_rejects_non_finite_ticks(self, delta):
        clock = SimClock(7)
        with pytest.raises(OutOfRange, match="delta_ms"):
            clock.advance(delta)
        assert clock.now == 7

    @pytest.mark.parametrize("delta, calls, now", [(0.9, 1_000, 900), (120.7, 1_000, 120_700), (0.25, 3, 0), (0.25, 4, 1)])
    def test_clock_carries_fractional_milliseconds(self, delta, calls, now):
        clock = SimClock()
        for _ in range(calls):
            clock.advance(delta)
        assert clock.now == now and type(clock.now) is int

    def test_calibration_is_frozen_and_shared_by_default(self):
        with pytest.raises(dataclasses.FrozenInstanceError):
            DEFAULT_CALIBRATION.trip_threshold = 1
        with pytest.raises(dataclasses.FrozenInstanceError):
            ToolCalibration(trip_threshold=1).cooldown_ms = 0
        a, b = ToolState("a"), ToolState("b")
        for state in (a, b):
            breaker = state.breaker
            assert (breaker.trip_threshold, breaker.cooldown_ms) == (DEFAULT_CALIBRATION.trip_threshold, DEFAULT_CALIBRATION.cooldown_ms)
        assert a.breaker is not b.breaker
        assert a.breaker == BreakerState(trip_threshold=3, cooldown_ms=10_000)

    def test_state_and_breaker_are_slotted(self):
        state = ToolState("t", ToolCalibration(trip_threshold=2, cooldown_ms=50))
        assert (state.breaker.trip_threshold, state.breaker.cooldown_ms) == (2, 50)
        with pytest.raises(AttributeError):
            state.extra = 1
        with pytest.raises(AttributeError):
            state.breaker.extra = 1

    @pytest.mark.parametrize(
        "field, bad",
        [
            ("trip_threshold", "3"),
            ("trip_threshold", 0),
            ("trip_threshold", -2),
            ("trip_threshold", True),
            ("trip_threshold", 2.0),
            ("cooldown_ms", "10"),
            ("cooldown_ms", -1),
            ("cooldown_ms", float("nan")),
            ("cooldown_ms", float("inf")),
            ("cooldown_ms", True),
        ],
    )
    def test_calibration_checks_its_fields_when_made(self, field, bad):
        with pytest.raises(OutOfRange, match=f"^{field} must be"):
            ToolCalibration(**{field: bad})

    def test_calibration_accepts_its_limits(self):
        assert ToolCalibration(trip_threshold=1, cooldown_ms=0) == ToolCalibration(1, 0)
        assert ToolCalibration(cooldown_ms=2.5).cooldown_ms == 2.5
