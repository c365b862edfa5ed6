"""Parallel health monitors and the priority competition.

Three monitors (intent, risk, tool_health) each score the current request
context; the orchestrator acts on the single highest-priority signal.
Every monitor is a plain function of a read-only snapshot: regex and
threshold checks only, no model inference anywhere, so a sweep costs
microseconds and is fully deterministic.
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass, field
from functools import cached_property
from types import MappingProxyType
from typing import Mapping

from .calibration import BreakerPhase, ToolState


class MonitorError(Exception):
    pass


class EmptySignalSet(MonitorError):
    pass


# Fixed tie-break order: earlier source wins on equal priority.
SOURCE_ORDER = ("tool_health", "risk", "intent")
_RANK = {source: rank for rank, source in enumerate(SOURCE_ORDER)}


@dataclass(frozen=True, slots=True)
class MonitorSignal:
    """One monitor's verdict.  Signals that depend only on the config are
    built once per ``MonitorConfig`` and shared by every sweep, so their
    payloads are read-only mappings, with tuples for lists."""

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
    ``failed_tools`` carries tools whose most recent call just failed and
    ``quarantined`` the nodes already routed around.
    """

    text: str
    goal: str
    amount: float | None = None
    risk_score: float | None = None
    tool_states: Mapping[str, ToolState] = field(default_factory=dict)
    failed_tools: tuple[str, ...] = ()
    quarantined: frozenset[str] = frozenset()

    def __post_init__(self):
        if self.amount is not None and self.amount < 0:
            raise MonitorError("amount must be >= 0")


@dataclass(frozen=True)
class MonitorConfig:
    """Static monitor tuning; every value has a sensible default and all of
    them may be overridden per scenario."""

    risk_amount_threshold: float = 10_000.0
    risk_score_threshold: float = 0.8
    intent_keywords: Mapping[str, str] = field(
        default_factory=lambda: {"refund": "issue_refund", "book": "book_trip", "review": "moderate_content"}
    )
    intent_match_priority: float = 0.90
    intent_fallback_priority: float = 0.50
    risk_priority: float = 0.95
    risk_idle_priority: float = 0.05
    tool_health_alert_priority: float = 0.99
    tool_health_idle_priority: float = 0.10

    @staticmethod
    def from_json(text: str) -> "MonitorConfig":
        try:
            doc = json.loads(text)
        except json.JSONDecodeError as exc:
            raise MonitorError(f"invalid JSON: {exc}") from exc
        return MonitorConfig.from_dict(doc)

    @staticmethod
    def from_dict(doc: object) -> "MonitorConfig":
        if not isinstance(doc, dict):
            raise MonitorError("monitor settings must be a JSON object")
        unknown = set(doc) - set(MonitorConfig.__dataclass_fields__)
        if unknown:
            raise MonitorError(f"unknown monitor settings {sorted(unknown)}")
        for name, value in doc.items():
            if name == "intent_keywords":
                ok = isinstance(value, dict) and all(isinstance(x, str) for kv in value.items() for x in kv)
                rule = "an object mapping keywords to goal ids"
            else:
                hi = 1.0 if name.endswith("_priority") else math.inf
                ok = type(value) in (int, float) and 0.0 <= value <= hi
                rule = f"a number in [0, {hi:g}]"
            if not ok:
                raise MonitorError(f"monitor setting {name} must be {rule}, got {value!r}")
        return MonitorConfig(**doc)

    # Signals that depend on nothing but the config are built on first use
    # and kept on the instance; copies and pickles carry only the fields.
    def __getstate__(self) -> dict:
        return {name: getattr(self, name) for name in self.__dataclass_fields__}

    @cached_property
    def _intents(self) -> tuple[tuple[str, MonitorSignal], ...]:
        """(keyword, match signal) pairs in keyword order."""
        return tuple(
            (keyword, MonitorSignal("intent", self.intent_match_priority, MappingProxyType({"intent": goal})))
            for keyword, goal in sorted(self.intent_keywords.items())
        )

    @cached_property
    def _idle(self) -> dict[str, MonitorSignal]:
        return {
            source: MonitorSignal(source, priority, MappingProxyType(payload))
            for source, priority, payload in (
                ("intent", self.intent_fallback_priority, {"intent": None}),
                ("risk", self.risk_idle_priority, {"flags": ()}),
                ("tool_health", self.tool_health_idle_priority, {"tools": ()}),
            )
        }


DEFAULT_MONITOR_CONFIG = MonitorConfig()


def _intent(ctx: RequestContext, cfg: MonitorConfig) -> MonitorSignal:
    lowered = ctx.text.lower()
    for keyword, signal in cfg._intents:
        if keyword in lowered:
            return signal
    return cfg._idle["intent"]


def _risk(ctx: RequestContext, cfg: MonitorConfig) -> MonitorSignal:
    flagged = []
    if ctx.amount is not None and ctx.amount >= cfg.risk_amount_threshold:
        flagged.append({"kind": "amount", "value": ctx.amount, "threshold": cfg.risk_amount_threshold})
    if ctx.risk_score is not None and ctx.risk_score >= cfg.risk_score_threshold:
        flagged.append({"kind": "score", "value": ctx.risk_score, "threshold": cfg.risk_score_threshold})
    if flagged:
        return MonitorSignal("risk", cfg.risk_priority, {"flags": flagged})
    return cfg._idle["risk"]


def _tool_health(ctx: RequestContext, cfg: MonitorConfig) -> MonitorSignal:
    down = [tool for tool, state in ctx.tool_states.items() if state.breaker.phase is BreakerPhase.OPEN]
    if down or ctx.failed_tools:
        alerts = sorted(set(ctx.failed_tools).union(down).difference(ctx.quarantined))
        if alerts:
            return MonitorSignal("tool_health", cfg.tool_health_alert_priority, {"tools": alerts})
    return cfg._idle["tool_health"]


_MONITORS = {
    "intent": _intent,
    "risk": _risk,
    "tool_health": _tool_health,
}


def run_all_monitors(ctx: RequestContext, cfg: MonitorConfig | None = None) -> list[MonitorSignal]:
    """Evaluate every registered monitor against the snapshot.

    Output is one signal per monitor in canonical source order regardless of
    evaluation order; monitors are pure, so evaluating them concurrently or
    in any permutation yields the same list.
    """
    if cfg is None:
        cfg = DEFAULT_MONITOR_CONFIG
    return [_MONITORS[name](ctx, cfg) for name in SOURCE_ORDER]


def compete(signals: list[MonitorSignal]) -> MonitorSignal:
    """Argmax over priority; ties resolve by fixed source order."""
    if not signals:
        raise EmptySignalSet("no signals to arbitrate")
    best = signals[0]
    for s in signals:
        if s.priority > best.priority or (s.priority == best.priority and _RANK[s.source] < _RANK[best.source]):
            best = s
    return best
