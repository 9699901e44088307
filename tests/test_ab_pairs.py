"""tools/ab_pairs.py: a checkout against itself gives identical reports."""
from __future__ import annotations

import os
import subprocess
import sys

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))


def test_a_checkout_paired_with_itself_has_no_differing_reports():
    proc = subprocess.run(
        [sys.executable, os.path.join(ROOT, "tools", "ab_pairs.py"), ROOT, ROOT,
         "--workload", "series-jets", "--limit", "3", "--passes", "1"],
        capture_output=True, text=True, timeout=300)
    assert proc.returncode == 0, proc.stderr
    lines = proc.stdout.splitlines()
    assert lines[0] == "series-jets, seed 5: 3 requests x 1 passes"
    assert lines[1].startswith("pass-time ratio B/A: ")
    assert lines[-1] == "differing (exit code, stdout) pairs: 0 of 3"
