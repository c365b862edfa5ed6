from __future__ import annotations

import re
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent


def test_ab_counts_runs_this_checkout_against_itself():
    """Two seeds of 60 paper_fuzz tasks, this checkout on both sides: every
    ratio is 1 and every seed stays inside every bound."""
    result = subprocess.run(
        [sys.executable, str(ROOT / "tests" / "ab_counts.py"), "--other", str(ROOT),
         "--workload", "paper_fuzz", "--seeds", "1-2", "--tasks", "60"],
        capture_output=True, text=True, timeout=120,
    )
    assert result.returncode == 0, result.stderr
    rows = re.findall(r"^(\d+) +(.*)$", result.stdout, re.MULTILINE)
    assert [seed for seed, _ in rows] == ["1", "2"], result.stdout
    for _, cells in rows:
        values = [float(v) for v in cells.split()]
        assert len(values) == 9 and values[2::3] == [1.0, 1.0, 1.0], cells
        assert values[0::3] == values[1::3] and values[1] > 0
    inside = re.findall(r"^within bound  (\w+) +(\d+)/(\d+) seeds", result.stdout, re.MULTILINE)
    assert inside == [(m, "2", "2") for m in ("tool_calls_per_task", "llm_calls_per_task", "escalated_share")]


def test_ab_counts_refuses_an_empty_seed_range():
    result = subprocess.run(
        [sys.executable, str(ROOT / "tests" / "ab_counts.py"), "--other", str(ROOT),
         "--workload", "paper_fuzz", "--seeds", "3-1"],
        capture_output=True, text=True, timeout=60,
    )
    assert result.returncode == 2 and "empty seed range" in result.stderr
