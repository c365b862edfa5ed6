from __future__ import annotations

import re
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent


def test_ab_tasks_runs_this_checkout_against_itself():
    """Two rounds of 50 paper_fuzz tasks, this checkout on both sides: the
    tool loads both copies and prints a ratio with its quartiles."""
    result = subprocess.run(
        [sys.executable, str(ROOT / "tests" / "ab_tasks.py"), "--other", str(ROOT),
         "--workload", "paper_fuzz", "--block", "50", "--rounds", "2"],
        capture_output=True, text=True, timeout=120,
    )
    assert result.returncode == 0, result.stderr
    match = re.search(r"ratio this/other: median (\d+\.\d+)  IQR (\d+\.\d+)-(\d+\.\d+)", result.stdout)
    assert match, result.stdout
    median, q1, q3 = map(float, match.groups())
    assert 0 < q1 <= median <= q3
