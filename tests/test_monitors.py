from __future__ import annotations

import copy
import pickle
import random
from concurrent.futures import ThreadPoolExecutor
from pathlib import Path

import pytest

from toolrouter.calibration import SimClock, ToolCalibration, ToolState
from toolrouter.monitors import (
    SOURCE_ORDER,
    EmptySignalSet,
    MonitorConfig,
    MonitorError,
    MonitorSignal,
    RequestContext,
    _MONITORS,
    compete,
    run_all_monitors,
)
from toolrouter.orchestrator import TaskRequest


def open_breaker_state(tool: str) -> ToolState:
    state = ToolState(tool, ToolCalibration(trip_threshold=1))
    state.record_call(SimClock(), 100, False)
    return state


def by_source(signals):
    return {s.source: s for s in signals}


class TestRunAllMonitors:
    def test_high_value_refund_scores(self):
        signals = run_all_monitors(RequestContext(amount=15_000.0))
        assert by_source(signals)["risk"].priority == 0.95
        assert by_source(signals)["tool_health"].priority == 0.10
        assert compete(signals).source == "risk"

    def test_open_breaker_alerts_tool_health(self):
        states = {"stripe": open_breaker_state("stripe")}
        signals = by_source(run_all_monitors(RequestContext(tool_states=states)))
        assert signals["tool_health"].priority == 0.99
        assert signals["tool_health"].payload["tools"] == ["stripe"]

    def test_routine_request_all_healthy(self):
        # Nothing to act on: idle tool_health (0.10) outbids idle risk (0.05).
        signals = run_all_monitors(RequestContext(amount=120.0))
        assert by_source(signals)["risk"].priority == 0.05
        winner = compete(signals)
        assert (winner.source, winner.priority, winner.payload["tools"]) == ("tool_health", 0.10, ())

    def test_one_signal_per_monitor(self):
        signals = run_all_monitors(RequestContext())
        assert [s.source for s in signals] == list(SOURCE_ORDER)

    def test_quarantined_tools_stop_alerting(self):
        states = {"stripe": open_breaker_state("stripe")}
        signals = by_source(run_all_monitors(RequestContext(tool_states=states, quarantined=frozenset({"stripe"}))))
        assert signals["tool_health"].priority == 0.10

    def test_failed_batch_alerts_even_with_closed_breaker(self):
        states = {"stripe": ToolState("stripe")}  # default threshold 3, still CLOSED
        signals = by_source(run_all_monitors(RequestContext(tool_states=states, failed_tools=("stripe",))))
        assert signals["tool_health"].priority == 0.99

    def test_deterministic_over_repetition(self):
        reference = run_all_monitors(RequestContext(amount=15_000.0))
        for _ in range(1000):
            assert run_all_monitors(RequestContext(amount=15_000.0)) == reference

    def test_evaluation_order_is_irrelevant(self):
        cfg = MonitorConfig()
        snapshot = RequestContext(amount=15_000.0)
        reference = by_source(run_all_monitors(snapshot, cfg))
        rng = random.Random(3)
        names = list(_MONITORS)
        for _ in range(20):
            rng.shuffle(names)
            produced = {name: _MONITORS[name](snapshot, cfg) for name in names}
            assert produced == reference

    def test_concurrent_evaluation_matches_sequential(self):
        snapshot = RequestContext(amount=15_000.0)
        sequential = run_all_monitors(snapshot)
        with ThreadPoolExecutor(max_workers=5) as pool:
            results = list(pool.map(lambda _: run_all_monitors(snapshot), range(32)))
        assert all(r == sequential for r in results)


class TestCompete:
    def test_risk_outbids_idle_tool_health(self):
        signals = [MonitorSignal("tool_health", 0.10, {}), MonitorSignal("risk", 0.95, {})]
        assert compete(signals).source == "risk"

    def test_singleton(self):
        only = MonitorSignal("risk", 0.2, {})
        assert compete([only]) is only

    def test_tool_health_alert_outbids_risk(self):
        signals = [MonitorSignal("risk", 0.95, {}), MonitorSignal("tool_health", 0.99, {})]
        assert compete(signals).source == "tool_health"

    def test_ties_resolve_by_source_order(self):
        signals = [MonitorSignal("risk", 0.5, {}), MonitorSignal("tool_health", 0.5, {})]
        assert compete(signals).source == "tool_health"
        assert compete(signals[::-1]).source == "tool_health"

    def test_empty_set_rejected(self):
        with pytest.raises(EmptySignalSet):
            compete([])

    def test_winner_dominates_every_signal(self, rng):
        for _ in range(200):
            signals = [
                MonitorSignal(src, round(rng.random(), 3), {})
                for src in rng.sample(SOURCE_ORDER, rng.randint(1, len(SOURCE_ORDER)))
            ]
            winner = compete(signals)
            assert all(winner.priority >= s.priority for s in signals)


class TestRiskThreshold:
    @pytest.mark.parametrize("amount", [10_000.0, 10_001.0, 250_000.0])
    def test_at_or_above_threshold_wins(self, amount):
        winner = compete(run_all_monitors(RequestContext(amount=amount)))
        assert (winner.source, winner.priority) == ("risk", 0.95)

    @pytest.mark.parametrize("amount", [0.0, 120.0, 9_999.99])
    def test_below_threshold_loses_to_idle_tool_health(self, amount):
        winner = compete(run_all_monitors(RequestContext(amount=amount)))
        assert (winner.source, winner.priority) == ("tool_health", 0.10)

    def test_score_channel(self):
        signals = by_source(run_all_monitors(RequestContext(risk_score=0.97)))
        assert signals["risk"].priority == 0.95

    def test_configurable_threshold(self):
        cfg = MonitorConfig(risk_amount_threshold=2000.0)
        signals = by_source(run_all_monitors(RequestContext(amount=2600.0), cfg))
        assert signals["risk"].priority == 0.95


class TestValidation:
    def test_priority_bounds(self):
        with pytest.raises(MonitorError):
            MonitorSignal("risk", 1.5, {})

    def test_unknown_source(self):
        with pytest.raises(MonitorError):
            MonitorSignal("llm", 0.5, {})

    def test_negative_amount_rejected(self):
        # The request is checked when it is made, not by the snapshot.
        with pytest.raises(MonitorError, match="amount"):
            TaskRequest("refund", amount=-5.0)

    def test_config_from_dict(self):
        cfg = MonitorConfig.from_dict({"risk_amount_threshold": 500.0})
        assert cfg.risk_amount_threshold == 500.0
        with pytest.raises(MonitorError):
            MonitorConfig.from_dict({"bogus": 1})
        with pytest.raises(MonitorError, match="intent_keywords"):
            MonitorConfig.from_dict({"intent_keywords": {"refund": 3}})
        with pytest.raises(MonitorError, match="memory_priority"):
            MonitorConfig.from_dict({"memory_priority": 0.2})  # no such monitor

    @pytest.mark.parametrize(
        "key",
        [
            "intent_keywords",
            "intent_match_priority",
            "intent_fallback_priority",
            "risk_priority",
            "risk_idle_priority",
            "tool_health_alert_priority",
            "tool_health_idle_priority",
        ],
    )
    def test_priority_table_is_not_a_setting(self, key):
        # Each of these once let a config file break the two-terminal-state
        # promise (a risk that never escalates, an escalation with no flag,
        # an outage nobody sees); the table is now fixed in code.
        with pytest.raises(MonitorError, match=f"unknown monitor settings.*{key}"):
            MonitorConfig.from_dict({key: 0.5})

    def test_config_is_the_risk_policy(self):
        assert list(MonitorConfig.__dataclass_fields__) == ["risk_amount_threshold", "risk_score_threshold"]
        assert MonitorConfig().risk_priority == 0.95
        assert MonitorConfig.from_dict({"risk_score_threshold": 0}).risk_score_threshold == 0
        for bad in (-0.1, float("nan"), True, "1", None):
            with pytest.raises(MonitorError, match="risk_score_threshold must be a number >= 0"):
                MonitorConfig.from_dict({"risk_score_threshold": bad})

    @pytest.mark.parametrize("name", ["risk_amount_threshold", "risk_score_threshold"])
    @pytest.mark.parametrize("bad", [-1.0, float("nan"), "1", True, None])
    def test_config_built_in_code_is_checked(self, name, bad):
        # The same check as from_dict: a negative threshold flags every
        # request, a NaN one never flags, a string fails mid-run.
        with pytest.raises(MonitorError, match=f"monitor setting {name} must be a number >= 0"):
            MonitorConfig(**{name: bad})
        assert getattr(MonitorConfig(**{name: float("inf")}), name) == float("inf")

    def test_used_config_copies_and_pickles(self):
        cfg = MonitorConfig(risk_amount_threshold=500.0)
        reference = run_all_monitors(RequestContext(), cfg)
        for twin in (copy.deepcopy(cfg), pickle.loads(pickle.dumps(cfg))):
            assert twin == cfg
            assert run_all_monitors(RequestContext(), twin) == reference

    def test_monitors_have_no_reasoner_dependency(self):
        # Monitors must stay cheap: the module imports nothing that could
        # reach the reasoner interface.
        import ast

        import toolrouter.monitors as monitors_module

        tree = ast.parse(Path(monitors_module.__file__).read_text())
        imported = set()
        for node in ast.walk(tree):
            if isinstance(node, ast.Import):
                imported.update(alias.name for alias in node.names)
            elif isinstance(node, ast.ImportFrom):
                imported.add(node.module or "")
        assert not any("orchestrator" in mod or "baselines" in mod for mod in imported)
