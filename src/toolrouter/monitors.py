"""Parallel health monitors and the priority competition.

Two monitors, tool_health (tool outages) and risk (risk signals), each
score the current request context from one fixed priority table; the
orchestrator acts on the single highest-priority signal.  The monitors see
only runtime state, open breakers and the visible risk inputs; a failed call
is the router's own, and the orchestrator adds it to its failure sweep's
quarantine batch.  The only settings are the two risk thresholds
(``MonitorConfig``).  Every monitor is a plain function of a read-only
snapshot: breaker and threshold checks only, no model inference anywhere,
so a sweep costs microseconds and is fully deterministic.
"""

from __future__ import annotations

from dataclasses import dataclass, field
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


@dataclass(frozen=True, slots=True)
class RequestContext:
    """Read-only snapshot handed to every monitor.

    ``amount`` / ``risk_score`` are the risk inputs as currently visible;
    scenarios may reveal them only after some steps complete.
    ``quarantined`` holds the nodes already routed around.  ``tool_states``
    is the task's live mapping, so a breaker is read as it stands at each
    sweep; the orchestrator builds a snapshot once per change of the risk
    visibility or the quarantine set and hands the same one to every sweep
    in between.  It checks nothing: the risk inputs are checked when the
    ``TaskRequest`` is made.
    """

    amount: float | None = None
    risk_score: float | None = None
    tool_states: Mapping[str, ToolState] = field(default_factory=dict)
    quarantined: frozenset[str] = frozenset()


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


def _risk(ctx: RequestContext, cfg: MonitorConfig) -> MonitorSignal:
    flagged = []
    if ctx.amount is not None and ctx.amount >= cfg.risk_amount_threshold:
        flagged.append({"kind": "amount", "value": ctx.amount, "threshold": cfg.risk_amount_threshold})
    if ctx.risk_score is not None and ctx.risk_score >= cfg.risk_score_threshold:
        flagged.append({"kind": "score", "value": ctx.risk_score, "threshold": cfg.risk_score_threshold})
    if flagged:
        return MonitorSignal("risk", RISK_PRIORITY, {"flags": flagged})
    return _IDLE_RISK


def _tool_health(ctx: RequestContext) -> MonitorSignal:
    alerts = sorted(
        tool
        for tool, state in ctx.tool_states.items()
        if state.breaker.phase is BreakerPhase.OPEN and tool not in ctx.quarantined
    )
    if alerts:
        return MonitorSignal("tool_health", TOOL_HEALTH_ALERT_PRIORITY, {"tools": alerts})
    return _IDLE_TOOL_HEALTH


def run_all_monitors(ctx: RequestContext, cfg: MonitorConfig | None = None) -> list[MonitorSignal]:
    """Evaluate both monitors against the snapshot.

    Output is one signal per monitor in ``SOURCE_ORDER``; monitors are pure,
    so evaluating them concurrently or in either order yields the same list.
    """
    return [_tool_health(ctx), _risk(ctx, cfg or DEFAULT_MONITOR_CONFIG)]


def compete(signals: list[MonitorSignal]) -> MonitorSignal:
    """Argmax over priority; ties resolve by fixed source order."""
    if not signals:
        raise EmptySignalSet("no signals to arbitrate")
    best = signals[0]
    for s in signals:
        if s.priority > best.priority or (s.priority == best.priority and _RANK[s.source] < _RANK[best.source]):
            best = s
    return best
