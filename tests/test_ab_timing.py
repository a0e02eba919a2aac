"""Smoke test of tools/ab_timing.py: one tree timed against itself."""

import subprocess
import sys
from pathlib import Path

import dsmflow

ROOT = Path(__file__).resolve().parents[1]
SRC = Path(dsmflow.__file__).resolve().parents[1]


def test_one_tree_against_itself_exits_zero():
    proc = subprocess.run(
        [sys.executable, "tools/ab_timing.py", str(SRC), str(SRC), "--rounds", "1"],
        cwd=ROOT, capture_output=True, text=True, timeout=300)
    assert proc.returncode == 0, proc.stderr
    rows = {line.split("  ")[0].strip(): line for line in proc.stdout.splitlines()}
    for name in ("flow n=201", "flow n=2001", "flow n=20001", "sweep admissible",
                 "constants(50) n=20001", "constants bracket(200) n=201",
                 "cli solve scaled-linear", "cli solve quadratic-perturb", "cli solve h-file",
                 "cli compare-newton", "cli verify n=20001 --samples 50",
                 "cold verify n=20001"):
        assert name in rows, proc.stdout
    # the canonical flow takes 31 steps at every n
    assert rows["flow n=201"].split()[-3] == "31"
