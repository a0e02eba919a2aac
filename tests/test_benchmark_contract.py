"""The benchmark's traced runs stay correct on every workload.

A traced run (`perfbench/run.py --trace 1`) wraps every layer of the
package and fails when a call path it pins records no calls on a workload
that should exercise it: for instance `operators.eval` through grid-function
arithmetic, `sampling.trig_polynomial` through its public name, the flow's
steppers through `flow._STEPPERS`, or each operator's own
`solve_derivative`. A refactor that routes around one of them passes the
rest of the suite and fails here.
"""

import json
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[1]


@pytest.mark.parametrize("workload", ["cli-small", "sweep-large", "verify-large"])
def test_traced_run_is_correct(workload):
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", workload, "--seed", "7",
         "--seconds", "0.2", "--trace", "1"],
        cwd=ROOT, capture_output=True, text=True, timeout=300)
    assert proc.returncode == 0, proc.stderr
    last = json.loads(proc.stdout.splitlines()[-1])
    assert last["correct"] is True, proc.stderr
    assert last["failed"] == 0
