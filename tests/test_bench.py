from __future__ import annotations

import json
import os
import subprocess
import sys
from dataclasses import replace
from pathlib import Path

import pytest

import toolrouter
from toolrouter.bench import (
    BenchConfig,
    BenchError,
    BenchResult,
    ConfigInvalid,
    DigestMismatch,
    ResultCorrupt,
    UnsupportedFormat,
    diff_against_fixtures,
    load_result,
    measure_recovery_latency,
    persist_result,
    project_risk,
    render_projection,
    render_report,
    run_benchmark,
    run_fuzz,
)
from toolrouter.graph import ToolGraph
from toolrouter.scenarios import load_scenarios

from conftest import count_calls


@pytest.fixture(scope="module")
def result():
    return run_benchmark()


def _repeat_first_row(doc):
    """Append the first row again, with its aggregates recomputed to match."""
    row = dict(doc["rows"][0])
    doc["rows"].append(row)
    agg = doc["aggregates"][row["arch"]]
    agg["scenarios"] += 1
    agg["correct"] += row["correct"]
    agg["silent_failures"] += row["silent_failure"]
    for key in ("llm_calls", "tool_calls", "recoveries"):
        agg[key] += row[key]


class TestRunBenchmark:
    def test_router_aggregate_row(self, result):
        agg = result.aggregates["shr"]
        assert agg["correct"] == 19
        assert agg["llm_calls"] == 9
        assert agg["tool_calls"] == 66
        assert agg["recoveries"] == 13
        assert agg["silent_failures"] == 0

    def test_react_aggregate_row(self, result):
        agg = result.aggregates["react"]
        assert agg["correct"] == 19
        assert agg["llm_calls"] == 123
        assert agg["tool_calls"] == 87  # column sum of the per-scenario fixtures
        assert agg["recoveries"] == 0
        assert agg["silent_failures"] == 0

    def test_static_aggregate_row(self, result):
        agg = result.aggregates["static"]
        assert agg["correct"] == 16
        assert agg["llm_calls"] == 0
        assert agg["tool_calls"] == 87
        assert agg["recoveries"] == 24
        assert agg["silent_failures"] == 3

    def test_static_silent_scenarios(self, result):
        silent = sorted(r.scenario for r in result.rows if r.arch == "static" and r.silent_failure)
        assert silent == ["S6", "S7", "T6"]

    def test_router_llm_decomposition(self, result):
        nonzero = {r.scenario: r.llm_calls for r in result.rows if r.arch == "shr" and r.llm_calls}
        assert nonzero == {"S3": 1, "S4": 1, "S6": 2, "S7": 2, "T4": 1, "T5": 1, "M3": 1}

    def test_router_tools_by_domain(self, result):
        per_domain = {}
        for r in result.rows:
            if r.arch == "shr":
                per_domain[r.domain] = per_domain.get(r.domain, 0) + r.tool_calls
        assert per_domain == {"customer_support": 27, "travel_booking": 27, "content_moderation": 12}

    def test_single_scenario_run(self):
        result = run_benchmark(BenchConfig(scenario_ids=("S2",), architectures=("shr",)))
        row = result.row("S2", "shr")
        assert (row.llm_calls, row.tool_calls, row.recoveries) == (0, 4, 1)
        assert row.correct and not row.silent_failure

    def test_config_validation(self):
        with pytest.raises(ConfigInvalid):
            run_benchmark(BenchConfig(architectures=("quantum",)))
        with pytest.raises(ConfigInvalid):
            run_benchmark(BenchConfig(scenario_ids=("S99",)))

    def test_diff_is_clean(self, result):
        assert diff_against_fixtures(result) == []

    def test_diff_reports_each_fixture_cell_alone(self, result):
        """Every cell of ``scenario.expected``, edited in a copy of its row,
        is the one problem the diff reports: 4 shr, 2 react and 3 static
        cells per scenario, plus classifiers_lost for the six M scenarios."""
        scenarios = {s.id: s for s in load_scenarios()}
        checked = 0
        for i, row in enumerate(result.rows):
            for field, want in scenarios[row.scenario].expected[row.arch].items():
                if isinstance(want, bool):
                    got = not want
                elif isinstance(want, str):
                    got = "escalated" if want == "success" else "success"
                else:
                    got = want + 1
                rows = list(result.rows)
                rows[i] = replace(row, **{field: got})
                edited = BenchResult(rows, result.aggregates, result.metadata)
                assert diff_against_fixtures(edited) == [f"{row.scenario}/{row.arch}/{field}: got {got!r}, expected {want!r}"]
                checked += 1
        assert checked == 19 * (4 + 2 + 3) + 6


class TestDeterminism:
    def test_same_seed_byte_identical(self):
        a = run_benchmark(BenchConfig(seed=7)).to_json()
        b = run_benchmark(BenchConfig(seed=7)).to_json()
        assert a == b

    def test_digest_depends_on_config(self):
        assert BenchConfig(seed=1).digest() != BenchConfig(seed=2).digest()
        assert BenchConfig(seed=1).digest() == BenchConfig(seed=1).digest()


class TestRendering:
    def test_markdown_mirrors_the_reference_tables(self, result):
        text = render_report(result, fmt="md")
        assert "## Customer Support" in text
        assert "## Aggregate" in text
        assert "| Self-Healing Router | 19/19 | 9 | 66 | 13 | 0 |" in text
        assert "| ReAct | 19/19 | 123 | 87 | 0 | 0 |" in text
        assert "| Static Workflow | 16/19 | 0 | 87 | 24 | 3 |" in text

    def test_json_round_trip_is_lossless(self, result):
        text = render_report(result, fmt="json")
        doc = json.loads(text)
        again = BenchResult.from_dict({k: doc[k] for k in ("rows", "aggregates", "metadata")})
        assert again.as_dict() == result.as_dict()

    def test_diff_mode_reports_clean(self, result):
        text = render_report(result, fmt="md", diff=True)
        assert "clean: every cell matches" in text

    def test_unsupported_format(self, result):
        with pytest.raises(UnsupportedFormat):
            render_report(result, fmt="yaml")


class TestPersistence:
    def test_save_load_round_trip(self, result, tmp_path):
        path = tmp_path / "result.json"
        persist_result(result, path)
        again = load_result(path)
        assert again.as_dict() == result.as_dict()

    def test_edited_doc_leaves_the_result_unchanged(self, result):
        before = result.to_json()
        doc = result.as_dict()
        doc["metadata"]["fixture_digest"] = "feedface"
        doc["aggregates"]["shr"]["correct"] = -1
        doc["rows"][0]["correct"] = None
        assert result.to_json() == before

    def test_edited_source_doc_leaves_the_parsed_result_unchanged(self, result):
        doc = result.as_dict()
        parsed = BenchResult.from_dict(doc)
        before = parsed.to_json()
        doc["metadata"]["seed"] = 99
        doc["aggregates"]["shr"]["correct"] = -1
        assert parsed.to_json() == before

    def test_edited_fixture_digest_warns(self, result, tmp_path, caplog):
        path = tmp_path / "result.json"
        doc = result.as_dict()
        doc["metadata"]["fixture_digest"] = "feedface"
        path.write_text(json.dumps(doc))
        with caplog.at_level("WARNING"):
            load_result(path)
        assert any("digest" in r.message for r in caplog.records)
        with pytest.raises(DigestMismatch):
            load_result(path, strict=True)

    @pytest.mark.parametrize(
        "corrupt, names",
        [
            (lambda doc: doc["rows"][0].update(bogus=1), "rows[0]: field 'bogus' is unknown"),
            (lambda doc: doc["rows"][1].pop("status"), "rows[1]: field 'status' is missing"),
            (lambda doc: doc["rows"][0].update(scenario="S99"), "rows[0]: unknown scenario 'S99'"),
            (lambda doc: doc["rows"].__setitem__(0, 7), "rows[0] must be a JSON object"),
            (lambda doc: doc["rows"][0].update(llm_calls="9"), "rows[0]: llm_calls must be a JSON integer, got '9'"),
            (lambda doc: doc["rows"][2].update(correct=1), "rows[2]: correct must be a JSON boolean, got 1"),
            (lambda doc: doc["aggregates"].update(shr=[]), "aggregates.shr must be an object"),
            (lambda doc: doc["aggregates"]["shr"].update(llm_calls=999), "aggregates.shr.llm_calls is 999, its rows give 9"),
            (lambda doc: doc["aggregates"]["static"].update(correct=16.0), "aggregates.static.correct is 16.0, its rows"),
            (lambda doc: doc["aggregates"]["react"].pop("tool_calls"), "aggregates.react.tool_calls is None, its rows"),
            (lambda doc: doc["aggregates"]["shr"].update(bogus=0), "aggregates.shr.bogus is 0, its rows give None"),
            (lambda doc: doc["aggregates"].pop("react"), "aggregates.react is missing for an architecture with rows"),
            (lambda doc: doc.pop("metadata"), "'metadata' is missing"),
            (lambda doc: doc["rows"][0].update(domain=["x"]), "rows[0]: domain must be 'customer_support', the domain of S1, got ['x']"),
            (lambda doc: doc["rows"][0].update(domain={"a": 1}), "rows[0]: domain must be 'customer_support', the domain of S1, got {'a': 1}"),
            (lambda doc: doc["rows"][0].update(domain="x"), "rows[0]: domain must be 'customer_support', the domain of S1, got 'x'"),
            (lambda doc: doc["rows"][0].update(domain="travel_booking"), "rows[0]: domain must be 'customer_support'"),
            (lambda doc: doc["rows"][1].update(status="weird"), "rows[1]: status must be 'success' or 'escalated', got 'weird'"),
            (lambda doc: doc["rows"][1].update(status=3), "rows[1]: status must be 'success' or 'escalated', got 3"),
            (lambda doc: doc["rows"][2].update(classifiers_lost="x"), "rows[2]: classifiers_lost must be null or a JSON integer >= 0, got 'x'"),
            (lambda doc: doc["rows"][2].update(classifiers_lost=-2), "rows[2]: classifiers_lost must be null or a JSON integer >= 0, got -2"),
            (lambda doc: doc["rows"][2].update(classifiers_lost=True), "rows[2]: classifiers_lost must be null or a JSON integer >= 0, got True"),
            (_repeat_first_row, "rows[57]: a second S1/shr row"),
        ],
        ids=[
            "unknown_field",
            "missing_field",
            "unknown_scenario",
            "row_type",
            "row_count_type",
            "row_flag_type",
            "aggregate",
            "aggregate_value",
            "aggregate_value_type",
            "aggregate_key_missing",
            "aggregate_key_unknown",
            "aggregate_missing",
            "metadata",
            "domain_array",
            "domain_object",
            "domain_unknown",
            "domain_of_another_scenario",
            "status_unknown",
            "status_type",
            "classifiers_lost_type",
            "classifiers_lost_negative",
            "classifiers_lost_bool",
            "repeated_row",
        ],
    )
    def test_corrupt_result_names_the_field(self, result, tmp_path, corrupt, names):
        path = tmp_path / "result.json"
        doc = json.loads(result.to_json())
        corrupt(doc)
        path.write_text(json.dumps(doc))
        with pytest.raises(ResultCorrupt) as err:
            load_result(path)
        assert str(err.value).startswith(f"{path}: {names}")


class TestProjection:
    def test_reference_rows(self):
        rows = project_risk([10_000, 100_000, 1_000_000])
        assert [r["recovery_events_per_day"] for r in rows] == [500, 5_000, 50_000]
        assert [r["react_llm_calls"] for r in rows] == [2_000, 20_000, 200_000]
        assert rows[0]["workflow_silent_low"] == 10
        assert rows[0]["workflow_silent_high"] == 25
        assert rows[2]["workflow_silent_low"] == 1_000
        assert rows[2]["workflow_silent_high"] == 2_500

    def test_zero_tasks_all_zero(self):
        row = project_risk([0])[0]
        assert all(v == 0 for k, v in row.items() if k != "tasks_per_day")

    def test_linearity(self, rng):
        for _ in range(50):
            n = rng.randint(1, 10_000_000)
            k = rng.randint(2, 9)
            base, scaled = project_risk([n, k * n])
            for key in base:
                if key == "tasks_per_day":
                    continue
                assert scaled[key] == pytest.approx(k * base[key])

    def test_recovery_time_figures_match_published_rounding(self):
        rows = project_risk([10_000, 100_000, 1_000_000])
        minutes = [r["react_recovery_seconds"] / 60 for r in rows]
        assert minutes[0] == pytest.approx(17, rel=0.05)
        assert minutes[1] == pytest.approx(170, rel=0.05)
        assert rows[2]["react_recovery_seconds"] / 3600 == pytest.approx(28, rel=0.05)
        assert rows[0]["shr_recovery_seconds"] <= 1
        assert rows[1]["shr_recovery_seconds"] <= 5
        assert rows[2]["shr_recovery_seconds"] <= 50

    def test_validation(self):
        with pytest.raises(BenchError, match="failure_rate"):
            project_risk([1], failure_rate=1.5)
        with pytest.raises(BenchError, match="tasks_per_day"):
            project_risk([-1])

    def test_rendering(self):
        text = render_projection(project_risk([10_000]))
        assert "10,000" in text and "500" in text


class TestMicrobenchAndFuzz:
    def test_recovery_latency_is_fast(self):
        results = measure_recovery_latency(repetitions=60)
        assert results["overall"]["median_ms"] < 10.0

    def test_recovery_latency_times_computed_searches(self, monkeypatch):
        searches = count_calls(monkeypatch, ToolGraph, "shortest_path")
        computed = count_calls(monkeypatch, ToolGraph, "_search")  # not read from the route memo
        measure_recovery_latency(repetitions=20)
        assert searches == computed == [3 * 20]

    def test_importing_the_package_leaves_logging_unloaded(self):
        src = Path(toolrouter.__file__).resolve().parent.parent
        code = "import sys, toolrouter; sys.exit('logging' in sys.modules)"
        proc = subprocess.run([sys.executable, "-c", code], env={**os.environ, "PYTHONPATH": str(src)})
        assert proc.returncode == 0

    def test_fuzz_preserves_structural_guarantees(self):
        stats = run_fuzz(150, seed=11)
        assert stats["runs"] == 150
        assert stats["silent"] == 0
        assert stats["success"] + stats["escalated"] == stats["runs"]

    def test_fuzz_is_seed_deterministic(self):
        assert run_fuzz(60, seed=3) == run_fuzz(60, seed=3)
