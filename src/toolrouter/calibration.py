"""Per-tool circuit breakers on a simulated clock.

Each tool carries a three-state circuit breaker (CLOSED / OPEN /
HALF_OPEN) fed by call results and health probes.  The breaker feeds the
tool_health monitor and the probers.  No calibration value is an edge
cost: search runs on the graph's fixed costs, and a failed tool leaves
routing by quarantine.

All timing runs off an explicit simulated clock; wall time is never read,
so any sequence of events replays bit-identically.
"""

from __future__ import annotations

import math
from collections import deque
from dataclasses import dataclass
from enum import Enum

from .errors import ToolrouterError

WINDOW_CAPACITY = 100
WINDOW_HORIZON_MS = 15 * 60 * 1000


class CalibrationError(ToolrouterError):
    pass


class OutOfRange(CalibrationError):
    pass


def _check_ms(name: str, value: float) -> None:
    """Raise OutOfRange naming ``name`` unless ``0 <= value < inf`` (NaN fails)."""
    if not 0 <= value < math.inf:
        raise OutOfRange(f"{name} must be finite and >= 0, got {value!r}")


class SimClock:
    """Monotone simulated time in milliseconds; advances only by explicit tick."""

    def __init__(self, now_ms: int = 0):
        self._now = int(now_ms)
        self._carry_ns = 0  # nanoseconds advanced but not yet a whole millisecond of ``now``

    @property
    def now(self) -> int:
        return self._now

    def advance(self, delta_ms: float) -> int:
        """Advance by ``delta_ms``.  ``now`` stays a whole millisecond; the
        fraction, rounded to the nanosecond, is carried in integers into
        later advances, so no time is dropped and none drifts."""
        _check_ms("delta_ms", delta_ms)
        whole = int(delta_ms)
        if whole != delta_ms:
            carried, self._carry_ns = divmod(self._carry_ns + round((delta_ms - whole) * 1_000_000), 1_000_000)
            whole += carried
        self._now += whole
        return self._now


class BreakerPhase(Enum):
    CLOSED = "closed"
    OPEN = "open"
    HALF_OPEN = "half_open"


@dataclass(slots=True)
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


@dataclass(frozen=True)
class ToolCalibration:
    """Per-tool knobs, checked when made; every field has a module default.
    Frozen, so one instance can be shared by any number of tool states."""

    trip_threshold: int = 3
    cooldown_ms: int = 10_000

    def __post_init__(self):
        if type(self.trip_threshold) is not int or self.trip_threshold < 1:
            raise OutOfRange(f"trip_threshold must be an integer >= 1, got {self.trip_threshold!r}")
        if type(self.cooldown_ms) not in (int, float) or not 0 <= self.cooldown_ms < math.inf:
            raise OutOfRange(f"cooldown_ms must be a finite number >= 0, got {self.cooldown_ms!r}")


DEFAULT_CALIBRATION = ToolCalibration()


class ToolState:
    """Breaker for one tool, fed by call results and health probes.
    Confined to one orchestration context at a time.

    ``window`` holds the simulated times of the calls and probes of the
    last ``WINDOW_HORIZON_MS``, at most ``WINDOW_CAPACITY`` of them.  No run
    reads it; it stays only for perfbench's traced
    ``calibration.window_len_mean`` and demo 02, until the benchmark
    replaces that metric with a breaker count.

    Without a ``config`` a state shares ``DEFAULT_CALIBRATION``.  States are
    slotted: a task may make one per tool it touches.
    """

    __slots__ = ("tool", "config", "window", "breaker")

    def __init__(self, tool: str, config: ToolCalibration | None = None):
        self.tool = tool
        self.config = config = config or DEFAULT_CALIBRATION
        self.window: deque[int] = deque((), WINDOW_CAPACITY)  # positional: a keyword maxlen is several times slower to build
        self.breaker = BreakerState(BreakerPhase.CLOSED, 0, config.cooldown_ms, config.trip_threshold)

    def _observe(self, now_ms: int, latency_ms: float) -> None:
        """Check the latency, then drop window entries older than the
        horizon and append ``now_ms``."""
        _check_ms("latency_ms", latency_ms)
        window = self.window
        cutoff = now_ms - WINDOW_HORIZON_MS
        while window and window[0] < cutoff:
            window.popleft()
        window.append(now_ms)

    def record_call(self, clock: SimClock, latency_ms: float, success: bool) -> None:
        """Reactive update: fold one call result into window and breaker."""
        self._observe(clock.now, latency_ms)
        self.breaker.on_result(clock.now, success)

    def run_health_probe(self, clock: SimClock, latency_ms: float, success: bool) -> None:
        """Proactive update: same effects as a call, except an OPEN breaker
        whose cooldown has elapsed first moves to HALF_OPEN so the probe
        outcome decides recovery."""
        self._observe(clock.now, latency_ms)
        self.breaker.on_probe(clock.now, success)
