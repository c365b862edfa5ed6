from __future__ import annotations

import json

import pytest

from conftest import count_calls
from toolrouter import scenarios
from toolrouter.bench import ARCHITECTURES, run_benchmark
from toolrouter.cli import main
from toolrouter.scenarios import SCENARIO_IDS


@pytest.fixture(scope="module")
def bench_result():
    return run_benchmark()


class TestRun:
    def test_markdown_summary(self, capsys):
        assert main(["run", "--scenario", "S2"]) == 0
        out = capsys.readouterr().out
        assert "S2" in out and "recoveries: 1" in out

    def test_json_trace(self, capsys):
        assert main(["run", "--scenario", "S2", "--format", "json"]) == 0
        doc = json.loads(capsys.readouterr().out)
        assert doc["trace"]["llm_calls"] == 0
        assert doc["audit"]["correct"] is True

    def test_static_arch(self, capsys):
        assert main(["run", "--scenario", "S6", "--arch", "static", "--format", "json"]) == 0
        doc = json.loads(capsys.readouterr().out)
        assert doc["audit"]["silent_failure"] is True

    @pytest.mark.parametrize("arch", ARCHITECTURES)
    @pytest.mark.parametrize("scenario", SCENARIO_IDS)
    def test_run_matches_the_benchmark_cell(self, bench_result, capsys, scenario, arch):
        # ``run`` and ``bench`` both go through ``run_architecture``; one
        # scenario under one architecture gives the same cell either way.
        assert main(["run", "--scenario", scenario, "--arch", arch, "--format", "json"]) == 0
        doc = json.loads(capsys.readouterr().out)
        trace, report = doc["trace"], doc["audit"]
        row = bench_result.row(scenario, arch)
        assert (
            trace["llm_calls"], len(trace["tool_calls"]), trace["recovery_events"], trace["status"],
            report["correct"], report["silent_failure"], report["classifiers_lost"],
        ) == (
            row.llm_calls, row.tool_calls, row.recoveries, row.status,
            row.correct, row.silent_failure, row.classifiers_lost,
        )

    def test_unknown_scenario_fails(self, capsys):
        assert main(["run", "--scenario", "S99"]) == 2

    def test_env_config_applies_monitor_overrides(self, tmp_path, monkeypatch, capsys):
        cfg = tmp_path / "overrides.json"
        # a sky-high risk threshold stops S4's interrupt from ever firing
        cfg.write_text(json.dumps({"monitor": {"risk_amount_threshold": 1e9}}))
        monkeypatch.setenv("TOOLROUTER_CONFIG", str(cfg))
        assert main(["run", "--scenario", "S4", "--format", "json"]) == 0
        doc = json.loads(capsys.readouterr().out)
        assert doc["trace"]["llm_calls"] == 0
        assert doc["trace"]["status"] == "success"

    def test_env_config_missing_file_warns(self, monkeypatch, capsys):
        monkeypatch.setenv("TOOLROUTER_CONFIG", "/no/such/file.json")
        assert main(["run", "--scenario", "S1"]) == 0
        assert "ignoring" in capsys.readouterr().err

    @pytest.mark.parametrize(
        "text, names",
        [
            ('{"monitor": {"risk_amount_threshold": 1e9,}}', "invalid JSON"),
            ('{"monitor": {"risk_amount_thresold": 1e9}}', "risk_amount_thresold"),
            ('{"monitor": {"risk_amount_threshold": "high"}}', "risk_amount_threshold"),
            ('{"monitor": {"risk_score_threshold": -1}}', "risk_score_threshold"),
            ('{"monitor": {"intent_match_priority": 1.0}}', "intent_match_priority"),
            ('["monitor"]', "JSON object"),
        ],
    )
    def test_env_config_errors_are_one_line(self, tmp_path, monkeypatch, capsys, text, names):
        cfg = tmp_path / "broken.json"
        cfg.write_text(text)
        monkeypatch.setenv("TOOLROUTER_CONFIG", str(cfg))
        assert main(["run", "--scenario", "S4"]) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        (line,) = captured.err.splitlines()
        assert line.startswith("error: ") and str(cfg) in line and names in line

    @pytest.mark.parametrize("make", [lambda p: p.mkdir(), lambda p: p.write_bytes(b"\xff\xfe{}")])
    def test_env_config_unreadable_path_is_one_line(self, tmp_path, monkeypatch, capsys, make):
        cfg = tmp_path / "config.json"
        make(cfg)
        monkeypatch.setenv("TOOLROUTER_CONFIG", str(cfg))
        assert main(["run", "--scenario", "S1"]) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        (line,) = captured.err.splitlines()
        assert line.startswith("error: ") and str(cfg) in line and "cannot read" in line


class TestBench:
    def test_full_suite_exits_clean(self, capsys):
        assert main(["bench"]) == 0
        out = capsys.readouterr().out
        assert "Self-Healing Router | 19/19" in out

    def test_one_scenario_load_per_command(self, tmp_path, monkeypatch, capsys):
        # A command's run or parse and both of its diffs (the report's and
        # the exit code's) share one read and check of the 19 files.
        path = tmp_path / "res.json"
        assert main(["bench", "--save", str(path), "--out", str(tmp_path / "report.md")]) == 0
        for argv in (["bench", "--diff"], ["report", "--in", str(path), "--diff"]):
            parsed = count_calls(monkeypatch, scenarios, "_parse_scenario")
            checked = count_calls(monkeypatch, scenarios, "fixture_digest")
            assert main(argv) == 0
            assert "clean: every cell matches" in capsys.readouterr().out
            assert (parsed[0], checked[0]) == (len(SCENARIO_IDS), 1), argv
            monkeypatch.undo()

    def test_subset_and_json(self, capsys):
        assert main(["bench", "--scenario", "S1", "S2", "--arch", "shr", "--format", "json"]) == 0
        doc = json.loads(capsys.readouterr().out)
        assert len(doc["rows"]) == 2

    def test_save_and_report_round_trip(self, tmp_path, capsys):
        path = tmp_path / "res.json"
        assert main(["bench", "--save", str(path), "--out", str(tmp_path / "report.md")]) == 0
        assert main(["report", "--in", str(path), "--diff"]) == 0
        out = capsys.readouterr().out
        assert "clean: every cell matches" in out

    def test_report_diff_gates_on_edited_cells(self, tmp_path, capsys):
        path = tmp_path / "res.json"
        assert main(["bench", "--save", str(path), "--out", str(tmp_path / "report.md")]) == 0
        doc = json.loads(path.read_text())
        row = next(r for r in doc["rows"] if r["scenario"] == "S2" and r["arch"] == "shr")
        # The edit keeps the document whole: the aggregate follows its rows.
        doc["aggregates"]["shr"]["llm_calls"] += 99 - row["llm_calls"]
        row["llm_calls"] = 99
        path.write_text(json.dumps(doc))
        assert main(["report", "--in", str(path), "--diff"]) == 1
        assert "S2/shr/llm_calls" in capsys.readouterr().out

    def test_report_refuses_an_aggregate_its_rows_disagree_with(self, tmp_path, capsys):
        path = tmp_path / "res.json"
        assert main(["bench", "--save", str(path), "--out", str(tmp_path / "report.md")]) == 0
        doc = json.loads(path.read_text())
        doc["aggregates"]["shr"]["llm_calls"] = 999
        path.write_text(json.dumps(doc))
        assert main(["report", "--in", str(path), "--diff"]) == 2
        err = capsys.readouterr().err
        assert err == f"error: {path}: aggregates.shr.llm_calls is 999, its rows give 9\n"

    def test_fuzz_flag(self, capsys):
        assert main(["bench", "--scenario", "S1", "--arch", "shr", "--fuzz", "30"]) == 0
        assert "fuzz:" in capsys.readouterr().err


class TestProject:
    def test_default_rows(self, capsys):
        assert main(["project"]) == 0
        out = capsys.readouterr().out
        assert "| 10,000 | 500 |" in out
        assert "~2,000" in out

    def test_json_format(self, capsys):
        assert main(["project", "--tasks-per-day", "10000", "--format", "json"]) == 0
        rows = json.loads(capsys.readouterr().out)
        assert rows[0]["recovery_events_per_day"] == 500


def _write(directory, text: str) -> str:
    path = directory / "result.json"
    path.write_text(text)
    return str(path)


class TestBadInput:
    @pytest.mark.parametrize(
        "argv, names",
        [
            (lambda tmp: ["project", "--failure-rate", "1.5"], "failure_rate"),
            (lambda tmp: ["report", "--in", str(tmp / "missing.json")], "missing.json"),
            (lambda tmp: ["report", "--in", _write(tmp, "not json")], "invalid JSON"),
            (lambda tmp: ["report", "--in", _write(tmp, '{"rows": 1}')], "rows must be a JSON array"),
            (lambda tmp: ["latency", "--repetitions", "0"], "repetitions"),
            (lambda tmp: ["project", "--out", str(tmp / "no" / "out.md")], "cannot write"),
        ],
        ids=["failure_rate", "missing_file", "not_json", "rows_not_list", "repetitions", "unwritable_out"],
    )
    def test_one_error_line_and_exit_2(self, tmp_path, capsys, argv, names):
        assert main(argv(tmp_path)) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        (line,) = captured.err.splitlines()
        assert line.startswith("error: ") and names in line


class TestLatency:
    def test_reports_median(self, capsys):
        assert main(["latency", "--repetitions", "30"]) == 0
        doc = json.loads(capsys.readouterr().out)
        assert doc["overall"]["median_ms"] < 10.0
