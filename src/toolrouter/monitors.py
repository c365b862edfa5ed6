"""Parallel health monitors and the priority competition.

Two monitors, tool_health (tool outages) and risk (risk signals), each
score the runtime conditions from one fixed priority table; the
orchestrator acts on the single highest-priority signal.  The monitors see
only runtime state, open breakers and the visible risk inputs; a failed call
is the router's own, and the orchestrator adds it to its failure sweep's
quarantine batch.  The only settings are the two risk thresholds
(``MonitorConfig``).  Every monitor is a plain function of the values it
reads, passed as arguments: breaker and threshold checks only, no model
inference anywhere, so a sweep costs microseconds and is fully
deterministic.
"""

from __future__ import annotations

from dataclasses import dataclass
from types import MappingProxyType
from typing import Mapping

from .calibration import BreakerPhase, ToolState
from .errors import ToolrouterError


class MonitorError(ToolrouterError):
    pass


class EmptySignalSet(MonitorError):
    pass


# Fixed tie-break order: earlier source wins on equal priority.
SOURCE_ORDER = ("tool_health", "risk")
_RANK = {source: rank for rank, source in enumerate(SOURCE_ORDER)}

# The priority table.  A tool-health alert outbids everything, so an outage
# is quarantined first; a flagged risk outbids any idle signal, so it
# escalates; with neither, idle tool_health wins and the sweep does nothing.
TOOL_HEALTH_ALERT_PRIORITY = 0.99
RISK_PRIORITY = 0.95
TOOL_HEALTH_IDLE_PRIORITY = 0.10
RISK_IDLE_PRIORITY = 0.05


@dataclass(frozen=True, slots=True)
class MonitorSignal:
    """One monitor's verdict."""

    source: str
    priority: float
    payload: Mapping

    def __post_init__(self):
        if not 0.0 <= self.priority <= 1.0:
            raise MonitorError(f"priority {self.priority} outside [0, 1]")
        if self.source not in SOURCE_ORDER:
            raise MonitorError(f"unknown monitor source {self.source!r}")


@dataclass(frozen=True)
class MonitorConfig:
    """The risk policy: a request whose visible amount or risk score reaches
    its threshold is flagged.  Both thresholds may be overridden per
    scenario; the priority table above is fixed."""

    risk_amount_threshold: float = 10_000.0
    risk_score_threshold: float = 0.8
    risk_priority = RISK_PRIORITY  # a flagged request's priority; not a setting

    def __post_init__(self):
        for name in MonitorConfig.__dataclass_fields__:
            value = getattr(self, name)
            if type(value) not in (int, float) or not 0.0 <= value:
                raise MonitorError(f"monitor setting {name} must be a number >= 0, got {value!r}")

    @staticmethod
    def from_dict(doc: object) -> "MonitorConfig":
        if not isinstance(doc, dict):
            raise MonitorError("monitor settings must be a JSON object")
        unknown = set(doc) - set(MonitorConfig.__dataclass_fields__)
        if unknown:
            raise MonitorError(f"unknown monitor settings {sorted(unknown)}")
        return MonitorConfig(**doc)


DEFAULT_MONITOR_CONFIG = MonitorConfig()

# Signals that depend on nothing but the table are built once and shared by
# every sweep, so their payloads are read-only mappings, with tuples for lists.
_IDLE_RISK = MonitorSignal("risk", RISK_IDLE_PRIORITY, MappingProxyType({"flags": ()}))
_IDLE_TOOL_HEALTH = MonitorSignal("tool_health", TOOL_HEALTH_IDLE_PRIORITY, MappingProxyType({"tools": ()}))


def _risk(amount: float | None, risk_score: float | None, cfg: MonitorConfig) -> MonitorSignal:
    flagged = []
    if amount is not None and amount >= cfg.risk_amount_threshold:
        flagged.append({"kind": "amount", "value": amount, "threshold": cfg.risk_amount_threshold})
    if risk_score is not None and risk_score >= cfg.risk_score_threshold:
        flagged.append({"kind": "score", "value": risk_score, "threshold": cfg.risk_score_threshold})
    if flagged:
        return MonitorSignal("risk", RISK_PRIORITY, {"flags": flagged})
    return _IDLE_RISK


def _tool_health(tool_states: Mapping[str, ToolState], quarantined: frozenset[str]) -> MonitorSignal:
    alerts = sorted(
        tool
        for tool, state in tool_states.items()
        if state.breaker.phase is BreakerPhase.OPEN and tool not in quarantined
    )
    if alerts:
        return MonitorSignal("tool_health", TOOL_HEALTH_ALERT_PRIORITY, {"tools": alerts})
    return _IDLE_TOOL_HEALTH


def run_all_monitors(
    tool_states: Mapping[str, ToolState],
    quarantined: frozenset[str] = frozenset(),
    amount: float | None = None,
    risk_score: float | None = None,
    cfg: MonitorConfig | None = None,
) -> list[MonitorSignal]:
    """Evaluate both monitors on the live breakers, the nodes already
    routed around and the risk inputs as currently visible (None while a
    scenario hides them; they were checked when the ``TaskRequest`` was made).

    Output is one signal per monitor in ``SOURCE_ORDER``; monitors are pure,
    so evaluating them concurrently or in either order yields the same list.
    """
    return [_tool_health(tool_states, quarantined), _risk(amount, risk_score, cfg or DEFAULT_MONITOR_CONFIG)]


def compete(signals: list[MonitorSignal]) -> MonitorSignal:
    """Argmax over priority; ties resolve by fixed source order."""
    if not signals:
        raise EmptySignalSet("no signals to arbitrate")
    best = signals[0]
    for s in signals:
        if s.priority > best.priority or (s.priority == best.priority and _RANK[s.source] < _RANK[best.source]):
            best = s
    return best
