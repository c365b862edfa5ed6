"""Per-tool breaker state from simulated telemetry.

Each tool carries a sliding telemetry window and a three-state circuit
breaker (CLOSED / OPEN / HALF_OPEN).  The breaker feeds the tool_health
monitor and the probers.  ``latency_factor`` and ``reliability_factor``
normalise what a window holds; no run reads them.  No calibration value is
an edge cost: search runs on the graph's fixed costs, and a failed tool
leaves routing by quarantine.

All timing runs off an explicit simulated clock; wall time is never read,
so any sequence of events replays bit-identically.
"""

from __future__ import annotations

from collections import deque
from dataclasses import dataclass
from enum import Enum

WINDOW_CAPACITY = 100
WINDOW_HORIZON_MS = 15 * 60 * 1000

LATENCY_RANGE = (0.5, 10.0)
RELIABILITY_RANGE = (1.0, 50.0)


class CalibrationError(Exception):
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

    def __len__(self) -> int:
        return len(self._samples)


def latency_factor(window: TelemetryWindow, nominal_latency_ms: float, now_ms: int) -> float:
    """Windowed mean latency over nominal, clamped to LATENCY_RANGE; 1.0 when empty."""
    if nominal_latency_ms <= 0:
        raise OutOfRange("nominal latency must be > 0")
    rows = window.samples(now_ms)
    if not rows:
        return 1.0
    lo, hi = LATENCY_RANGE
    return min(hi, max(lo, sum(s.latency_ms for s in rows) / len(rows) / nominal_latency_ms))


def reliability_factor(window: TelemetryWindow, now_ms: int) -> float:
    """Linear in the windowed error rate across RELIABILITY_RANGE; 1.0 when empty."""
    rows = window.samples(now_ms)
    if not rows:
        return 1.0
    lo, hi = RELIABILITY_RANGE
    return lo + sum(1 for s in rows if not s.success) / len(rows) * (hi - lo)


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
    back to OPEN with a fresh cooldown (failure).
    """

    phase: BreakerPhase = BreakerPhase.CLOSED
    opened_at: int = 0
    cooldown_ms: int = 10_000
    trip_threshold: int = 3
    consecutive_failures: int = 0

    def cooldown_elapsed(self, now_ms: int) -> bool:
        return self.phase is BreakerPhase.OPEN and now_ms - self.opened_at >= self.cooldown_ms

    def on_result(self, now_ms: int, success: bool) -> None:
        if self.phase is BreakerPhase.CLOSED:
            if success:
                self.consecutive_failures = 0
            else:
                self.consecutive_failures += 1
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
            else:
                self.phase = BreakerPhase.OPEN
                self.opened_at = now_ms

    def on_probe(self, now_ms: int, success: bool) -> None:
        if self.cooldown_elapsed(now_ms):
            self.phase = BreakerPhase.HALF_OPEN
        self.on_result(now_ms, success)


@dataclass
class ToolCalibration:
    """Per-tool knobs; every field has a module default."""

    trip_threshold: int = 3
    cooldown_ms: int = 10_000


class ToolState:
    """Telemetry window + breaker for one tool.  Confined to one
    orchestration context at a time."""

    def __init__(self, tool: str, config: ToolCalibration | None = None):
        self.tool = tool
        self.config = config or ToolCalibration()
        self.window = TelemetryWindow()
        self.breaker = BreakerState(
            cooldown_ms=self.config.cooldown_ms,
            trip_threshold=self.config.trip_threshold,
        )

    def record_call(self, clock: SimClock, latency_ms: float, success: bool) -> None:
        """Reactive update: fold one call result into window and breaker."""
        if latency_ms < 0:
            raise OutOfRange("latency must be >= 0")
        self.window.append(clock.now, latency_ms, success)
        self.breaker.on_result(clock.now, success)

    def run_health_probe(self, clock: SimClock, latency_ms: float, success: bool) -> None:
        """Proactive update: same effects as a call, except an OPEN breaker
        whose cooldown has elapsed first moves to HALF_OPEN so the probe
        outcome decides recovery."""
        self.window.append(clock.now, latency_ms, success)
        self.breaker.on_probe(clock.now, success)
