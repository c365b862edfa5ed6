"""Edge-weight calibration from simulated telemetry.

Each tool carries a sliding telemetry window, a three-state circuit breaker
(CLOSED / OPEN / HALF_OPEN), and a composite weight:

    weight = base_cost * latency * reliability * rate_limit * availability

Factor ranges:

    base_cost     0.5 .. 5.0   (static configuration)
    latency       0.5 .. 10.0  (rolling mean / nominal, clamped)
    reliability   1.0 .. 50.0  (linear in windowed error rate)
    rate_limit    1.0 .. inf   (spikes as quota runs out)
    availability  1.0 or inf   (infinite exactly while the breaker is OPEN)

The breaker feeds the tool_health monitor; the weight is not yet read by
routing, whose search runs on the graph's fixed edge costs.

All timing runs off an explicit simulated clock; wall time is never read,
so any sequence of events replays bit-identically.
"""

from __future__ import annotations

from collections import deque
from dataclasses import dataclass
from enum import Enum

from .graph import INFINITE

WINDOW_CAPACITY = 100
WINDOW_HORIZON_MS = 15 * 60 * 1000

BASE_COST_RANGE = (0.5, 5.0)
LATENCY_RANGE = (0.5, 10.0)
RELIABILITY_RANGE = (1.0, 50.0)

# Rate-limit curve: flat at 1.0 down to 25% quota, then climbs linearly so
# that 5% remaining doubles the weight; zero quota is an infinite cap.
RATE_LIMIT_KNEE = 0.25
RATE_LIMIT_SLOPE = 0.20


class CalibrationError(Exception):
    pass


class FactorOutOfRange(CalibrationError):
    pass


class OutOfRange(CalibrationError):
    pass


class SimClock:
    """Monotone simulated time in milliseconds; advances only by explicit tick."""

    def __init__(self, now_ms: int = 0):
        self._now = int(now_ms)

    @property
    def now(self) -> int:
        return self._now

    def advance(self, delta_ms: float) -> int:
        if delta_ms < 0:
            raise OutOfRange("clock cannot move backwards")
        self._now += int(delta_ms)
        return self._now


@dataclass
class Sample:
    at_ms: int
    latency_ms: float
    success: bool


class TelemetryWindow:
    """Bounded FIFO of call samples: at most 100 entries, none older than
    15 simulated minutes.  Eviction happens on insert and on read."""

    def __init__(self):
        self._samples: deque[Sample] = deque(maxlen=WINDOW_CAPACITY)

    def append(self, now_ms: int, latency_ms: float, success: bool) -> None:
        self._evict(now_ms)
        self._samples.append(Sample(now_ms, latency_ms, success))

    def _evict(self, now_ms: int) -> None:
        cutoff = now_ms - WINDOW_HORIZON_MS
        while self._samples and self._samples[0].at_ms < cutoff:
            self._samples.popleft()

    def samples(self, now_ms: int) -> list[Sample]:
        self._evict(now_ms)
        return list(self._samples)

    def mean_latency(self, now_ms: int) -> float | None:
        rows = self.samples(now_ms)
        if not rows:
            return None
        return sum(s.latency_ms for s in rows) / len(rows)

    def error_rate(self, now_ms: int) -> float | None:
        rows = self.samples(now_ms)
        if not rows:
            return None
        return sum(1 for s in rows if not s.success) / len(rows)

    def __len__(self) -> int:
        return len(self._samples)


class BreakerPhase(Enum):
    CLOSED = "closed"
    OPEN = "open"
    HALF_OPEN = "half_open"


@dataclass
class BreakerState:
    """Per-tool circuit breaker.

    CLOSED trips to OPEN after ``trip_threshold`` consecutive failures.
    OPEN holds for ``cooldown_ms``; the first probe after cooldown moves it
    to HALF_OPEN and that probe's outcome resolves to CLOSED (success) or
    back to OPEN with a fresh cooldown (failure).  ``recovery_progress``
    counts consecutive successes since the most recent reopen; None means
    no recovery ramp is active.
    """

    phase: BreakerPhase = BreakerPhase.CLOSED
    opened_at: int = 0
    cooldown_ms: int = 10_000
    trip_threshold: int = 3
    consecutive_failures: int = 0
    recovery_progress: int | None = None

    def cooldown_elapsed(self, now_ms: int) -> bool:
        return self.phase is BreakerPhase.OPEN and now_ms - self.opened_at >= self.cooldown_ms

    def on_result(self, now_ms: int, success: bool) -> None:
        if self.phase is BreakerPhase.CLOSED:
            if success:
                self.consecutive_failures = 0
                if self.recovery_progress is not None:
                    self.recovery_progress += 1
            else:
                self.consecutive_failures += 1
                self.recovery_progress = None
                if self.consecutive_failures >= self.trip_threshold:
                    self.phase = BreakerPhase.OPEN
                    self.opened_at = now_ms
        elif self.phase is BreakerPhase.OPEN:
            # A stray call result while open never closes the circuit; a
            # failure restarts the cooldown to damp flapping.
            if not success:
                self.opened_at = now_ms
        elif self.phase is BreakerPhase.HALF_OPEN:
            if success:
                self.phase = BreakerPhase.CLOSED
                self.consecutive_failures = 0
                self.recovery_progress = 0
            else:
                self.phase = BreakerPhase.OPEN
                self.opened_at = now_ms

    def on_probe(self, now_ms: int, success: bool) -> None:
        if self.cooldown_elapsed(now_ms):
            self.phase = BreakerPhase.HALF_OPEN
        self.on_result(now_ms, success)


@dataclass(frozen=True)
class WeightFactors:
    base_cost: float
    latency_factor: float
    reliability_factor: float
    rate_limit_factor: float
    availability_factor: float

    def validate(self) -> "WeightFactors":
        lo, hi = BASE_COST_RANGE
        if not lo <= self.base_cost <= hi:
            raise FactorOutOfRange(f"base_cost {self.base_cost} outside [{lo}, {hi}]")
        lo, hi = LATENCY_RANGE
        if not lo <= self.latency_factor <= hi:
            raise FactorOutOfRange(f"latency_factor {self.latency_factor} outside [{lo}, {hi}]")
        lo, hi = RELIABILITY_RANGE
        if not lo <= self.reliability_factor <= hi:
            raise FactorOutOfRange(f"reliability_factor {self.reliability_factor} outside [{lo}, {hi}]")
        if not (self.rate_limit_factor >= 1.0):
            raise FactorOutOfRange(f"rate_limit_factor {self.rate_limit_factor} below 1.0")
        if self.availability_factor not in (1.0, INFINITE):
            raise FactorOutOfRange("availability_factor must be 1.0 or infinite")
        return self


def compose_weight(factors: WeightFactors) -> float:
    """Product of the five factors; infinite whenever any factor is."""
    factors.validate()
    return (
        factors.base_cost
        * factors.latency_factor
        * factors.reliability_factor
        * factors.rate_limit_factor
        * factors.availability_factor
    )


def latency_factor(window: TelemetryWindow, nominal_latency_ms: float, now_ms: int) -> float:
    if nominal_latency_ms <= 0:
        raise OutOfRange("nominal latency must be > 0")
    mean = window.mean_latency(now_ms)
    if mean is None:
        return 1.0
    lo, hi = LATENCY_RANGE
    return min(hi, max(lo, mean / nominal_latency_ms))


def reliability_factor(window: TelemetryWindow, now_ms: int) -> float:
    rate = window.error_rate(now_ms)
    if rate is None:
        return 1.0
    lo, hi = RELIABILITY_RANGE
    return min(hi, max(lo, lo + rate * (hi - lo)))


def rate_limit_factor(quota_remaining: float) -> float:
    if not 0.0 <= quota_remaining <= 1.0:
        raise OutOfRange(f"quota_remaining {quota_remaining} outside [0, 1]")
    if quota_remaining == 0.0:
        return INFINITE
    if quota_remaining >= RATE_LIMIT_KNEE:
        return 1.0
    return 1.0 + (RATE_LIMIT_KNEE - quota_remaining) / RATE_LIMIT_SLOPE


@dataclass
class ToolCalibration:
    """Per-tool knobs; every field has a module default."""

    trip_threshold: int = 3
    cooldown_ms: int = 10_000
    ramp_length: int = 5
    ramp_start_multiplier: float = 4.0
    nominal_latency_ms: float = 200.0
    base_cost: float = 1.0


class ToolState:
    """Telemetry window + breaker + current composite weight for one tool.

    Confined to one orchestration context at a time.  ``current_weight`` is
    composed on read from the factors at the latest recorded event, so it
    always matches them and costs nothing when no one reads it.
    """

    def __init__(self, tool: str, config: ToolCalibration | None = None):
        self.tool = tool
        self.config = config or ToolCalibration()
        self.window = TelemetryWindow()
        self.breaker = BreakerState(
            cooldown_ms=self.config.cooldown_ms,
            trip_threshold=self.config.trip_threshold,
        )
        self.quota_remaining = 1.0
        self._last_event_ms = 0

    def factors(self, now_ms: int) -> WeightFactors:
        return WeightFactors(
            base_cost=self.config.base_cost,
            latency_factor=latency_factor(self.window, self.config.nominal_latency_ms, now_ms),
            reliability_factor=reliability_factor(self.window, now_ms),
            rate_limit_factor=rate_limit_factor(self.quota_remaining),
            availability_factor=INFINITE if self.breaker.phase is BreakerPhase.OPEN else 1.0,
        )

    @property
    def current_weight(self) -> float:
        return compose_weight(self.factors(self._last_event_ms))

    def record_call(self, clock: SimClock, latency_ms: float, success: bool) -> None:
        """Reactive update: fold one call result into window and breaker."""
        if latency_ms < 0:
            raise OutOfRange("latency must be >= 0")
        self.window.append(clock.now, latency_ms, success)
        self.breaker.on_result(clock.now, success)
        self._last_event_ms = clock.now

    def run_health_probe(self, clock: SimClock, latency_ms: float, success: bool) -> None:
        """Proactive update: same effects as a call, except an OPEN breaker
        whose cooldown has elapsed first moves to HALF_OPEN so the probe
        outcome decides recovery."""
        self.window.append(clock.now, latency_ms, success)
        self.breaker.on_probe(clock.now, success)
        self._last_event_ms = clock.now

    def recovery_weight(self, now_ms: int) -> float:
        """Telemetry weight scaled by the post-recovery ramp.

        Right after a breaker re-closes the tool re-enters routing at
        ``ramp_start_multiplier`` times its telemetry weight, descending
        linearly to 1x over ``ramp_length`` consecutive successes.  While
        HALF_OPEN the weight is held at the ramp start (high but finite);
        while OPEN it is infinite.
        """
        if self.breaker.phase is BreakerPhase.OPEN:
            return INFINITE
        base = compose_weight(self.factors(now_ms))
        start = self.config.ramp_start_multiplier
        if self.breaker.phase is BreakerPhase.HALF_OPEN:
            return base * start
        progress = self.breaker.recovery_progress
        if progress is None or progress >= self.config.ramp_length:
            return base
        mult = start - (start - 1.0) * (progress / self.config.ramp_length)
        return base * mult
