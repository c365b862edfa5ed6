"""Command-line surface.

    toolrouter run --scenario S2 [--arch shr] [--format md|json] [--out F]
    toolrouter bench [--arch shr react static] [--seed N] [--fuzz N] [--diff]
    toolrouter project [--tasks-per-day N ...] [--failure-rate F]
    toolrouter report --in result.json [--diff] [--format md|json]

``bench`` exits nonzero when any cell departs from the embedded fixtures,
so it doubles as a CI gate.  Bad input (an out-of-range value, a result
file that is missing or malformed) prints one ``error:`` line and exits 2.
TOOLROUTER_CONFIG may point at a JSON file whose "monitor" section sets the
risk thresholds (risk_amount_threshold, risk_score_threshold) for ``run``;
any other key is an error.
"""

from __future__ import annotations

import argparse
import json
import os
import sys
from pathlib import Path

from .bench import (
    BenchConfig,
    BenchError,
    IoFailure,
    diff_against_fixtures,
    load_result,
    measure_recovery_latency,
    persist_result,
    project_risk,
    render_projection,
    render_report,
    run_architecture,
    run_benchmark,
    run_fuzz,
)
from .monitors import MonitorConfig, MonitorError
from .scenarios import load_scenarios

ENV_CONFIG = "TOOLROUTER_CONFIG"


def _emit(text: str, out: str | None) -> None:
    if out:
        try:
            Path(out).write_text(text)
        except OSError as exc:
            raise IoFailure(f"cannot write {out}: {exc.strerror or exc}") from exc
    else:
        sys.stdout.write(text if text.endswith("\n") else text + "\n")


def _env_monitor_config() -> MonitorConfig | None:
    """Optional risk thresholds from the TOOLROUTER_CONFIG file
    (JSON object with a "monitor" section).  A path that cannot be read as
    text (a directory, say), a file that does not parse, or a section with
    an unknown key raises ``MonitorError`` naming the file."""
    path = os.environ.get(ENV_CONFIG)
    if not path:
        return None
    if not Path(path).exists():
        print(f"warning: {ENV_CONFIG}={path} does not exist; ignoring", file=sys.stderr)
        return None
    try:
        text = Path(path).read_text(encoding="utf-8")
    except (OSError, UnicodeDecodeError) as exc:
        raise MonitorError(f"{ENV_CONFIG}={path}: cannot read the file: {exc}") from exc
    try:
        doc = json.loads(text)
        if not isinstance(doc, dict):
            raise MonitorError("expected a JSON object")
        section = doc.get("monitor")
        return MonitorConfig.from_dict(section) if section else None
    except json.JSONDecodeError as exc:
        raise MonitorError(f"{ENV_CONFIG}={path}: invalid JSON: {exc}") from exc
    except MonitorError as exc:
        raise MonitorError(f"{ENV_CONFIG}={path}: {exc}") from exc


def _cmd_run(args) -> int:
    scenarios = {s.id: s for s in load_scenarios()}
    if args.scenario not in scenarios:
        print(f"unknown scenario {args.scenario!r}; choose from {sorted(scenarios)}", file=sys.stderr)
        return 2
    scenario = scenarios[args.scenario]
    monitor_config = None
    if args.arch == "shr":
        try:
            monitor_config = _env_monitor_config()
        except MonitorError as exc:
            print(f"error: {exc}", file=sys.stderr)
            return 2
    trace, report = run_architecture(scenario, args.arch, monitor_config)
    if args.format == "json":
        doc = {"trace": trace.as_dict(), "audit": report.as_dict()}
        _emit(json.dumps(doc, indent=2, sort_keys=True), args.out)
    else:
        lines = [
            f"# {scenario.id}: {scenario.name} [{args.arch}]",
            "",
            f"- status: {trace.status.value}",
            f"- llm_calls: {trace.llm_calls}",
            f"- tool_calls: {trace.tool_call_count}",
            f"- recoveries: {trace.recovery_events}",
            f"- correct: {report.correct}",
            f"- silent_failure: {report.silent_failure}",
            f"- calls: {', '.join(c.node + ('' if c.success else '(failed)') for c in trace.tool_calls)}",
        ]
        _emit("\n".join(lines), args.out)
    return 0


def _cmd_bench(args) -> int:
    config = BenchConfig(
        scenario_ids=tuple(args.scenario) if args.scenario else None,
        architectures=tuple(args.arch),
        seed=args.seed,
    )
    result = run_benchmark(config)
    text = render_report(result, fmt=args.format, diff=args.diff)
    _emit(text, args.out)
    if args.save:
        persist_result(result, args.save)
    if args.fuzz:
        stats = run_fuzz(args.fuzz, seed=args.seed)
        print(f"fuzz: {stats}", file=sys.stderr)
        if stats["silent"] or stats["success"] + stats["escalated"] != stats["runs"]:
            return 1
    problems = diff_against_fixtures(result)
    if problems:
        for p in problems:
            print(f"fixture diff: {p}", file=sys.stderr)
        return 1
    return 0


def _cmd_project(args) -> int:
    rows = project_risk(args.tasks_per_day, args.failure_rate)
    _emit(render_projection(rows, fmt=args.format), args.out)
    return 0


def _cmd_report(args) -> int:
    result = load_result(args.infile, strict=args.strict)
    text = render_report(result, fmt=args.format, diff=args.diff)
    _emit(text, args.out)
    if args.diff and diff_against_fixtures(result):
        return 1
    return 0


def _cmd_latency(args) -> int:
    results = measure_recovery_latency(args.repetitions)
    _emit(json.dumps(results, indent=2, sort_keys=True), args.out)
    return 0


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(prog="toolrouter", description=__doc__)
    sub = parser.add_subparsers(dest="command", required=True)

    p_run = sub.add_parser("run", help="execute one scenario under one architecture")
    p_run.add_argument("--scenario", required=True)
    p_run.add_argument("--arch", choices=["shr", "react", "static"], default="shr")
    p_run.add_argument("--format", choices=["md", "json"], default="md")
    p_run.add_argument("--out")
    p_run.set_defaults(fn=_cmd_run)

    p_bench = sub.add_parser("bench", help="run the full suite and diff against fixtures")
    p_bench.add_argument("--scenario", nargs="*", default=None)
    p_bench.add_argument("--arch", nargs="*", default=list(("shr", "react", "static")))
    p_bench.add_argument("--seed", type=int, default=0)
    p_bench.add_argument("--fuzz", type=int, default=0, help="extra randomized fault schedules")
    p_bench.add_argument("--diff", action="store_true", help="include the fixture diff in the report")
    p_bench.add_argument("--format", choices=["md", "json"], default="md")
    p_bench.add_argument("--out")
    p_bench.add_argument("--save", help="persist the raw result JSON here")
    p_bench.set_defaults(fn=_cmd_bench)

    p_proj = sub.add_parser("project", help="operational risk projection at scale")
    p_proj.add_argument("--tasks-per-day", type=int, nargs="*", default=[10_000, 100_000, 1_000_000])
    p_proj.add_argument("--failure-rate", type=float, default=0.05)
    p_proj.add_argument("--format", choices=["md", "json"], default="md")
    p_proj.add_argument("--out")
    p_proj.set_defaults(fn=_cmd_project)

    p_rep = sub.add_parser("report", help="render or diff a persisted result")
    p_rep.add_argument("--in", dest="infile", required=True)
    p_rep.add_argument("--diff", action="store_true")
    p_rep.add_argument("--strict", action="store_true", help="fail on fixture digest mismatch")
    p_rep.add_argument("--format", choices=["md", "json"], default="md")
    p_rep.add_argument("--out")
    p_rep.set_defaults(fn=_cmd_report)

    p_lat = sub.add_parser("latency", help="recovery microbenchmark (quarantine + recompute)")
    p_lat.add_argument("--repetitions", type=int, default=200)
    p_lat.add_argument("--out")
    p_lat.set_defaults(fn=_cmd_latency)

    return parser


def main(argv: list[str] | None = None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.fn(args)
    except BenchError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    raise SystemExit(main())
