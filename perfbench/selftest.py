"""Self-test of the benchmark; exits non-zero if any check fails.

    python3 perfbench/selftest.py

Checks, from the root of a source checkout:
  * every workload passes its output checks on a seed not used to tune it,
    and prints every metric named in BENCHMARK.json, with its unit, both
    untraced and traced;
  * two traced runs with the same seed record identical per-operation
    counts;
  * CLI JSON reports are byte-identical across repeated runs, as the
    package's determinism contract requires.
Takes about two minutes.
"""

import json
import subprocess
import sys
import tempfile
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
RUN = Path(__file__).resolve().parent / "run.py"
WORK = ROOT / ".perfbench_work"
SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())
FRESH_SEED = 90017
failures = []


def check(ok: bool, what: str) -> None:
    print(f"[{'PASS' if ok else 'FAIL'}] {what}", flush=True)
    if not ok:
        failures.append(what)


def run(workload: str, seed: int, seconds: float, trace: int) -> dict:
    proc = subprocess.run(
        [sys.executable, str(RUN), "--workload", workload, "--seed", str(seed),
         "--seconds", str(seconds), "--trace", str(trace)],
        cwd=ROOT, capture_output=True, text=True, timeout=300)
    if proc.returncode != 0:
        print(proc.stderr, file=sys.stderr)
        return {}
    return json.loads(proc.stdout.strip().splitlines()[-1])


def declared(section: str) -> dict:
    return {m["name"]: m["unit"] for m in SPEC[section]}


def counts(workload: str, seed: int) -> dict:
    report = json.loads((WORK / f"{workload}-seed{seed}-trace1.json").read_text())
    return {op: {k: v for k, v in rec.items() if not k.endswith("_s")}
            for op, rec in report["per_op"].items()}


def main() -> int:
    for wl in SPEC["workloads"]:
        name = wl["name"]
        for trace, section in ((0, "end_to_end"), (1, "per_layer")):
            res = run(name, FRESH_SEED, 1, trace)
            check(bool(res) and res["correct"] and res["failed"] == 0 and res["attempted"] >= 1,
                  f"{name} trace={trace}: seed {FRESH_SEED} passes every output check")
            got = {k: v["unit"] for k, v in res.get("metrics", {}).items()}
            check(got == declared(section),
                  f"{name} trace={trace}: prints every {section} metric with its unit")

    first = run("cli-small", 3, 2, 1) and counts("cli-small", 3)
    second = run("cli-small", 3, 2, 1) and counts("cli-small", 3)
    common = sorted(set(first or {}) & set(second or {}))
    check(bool(common) and all(first[op] == second[op] for op in common),
          f"cli-small: per-operation counts repeat exactly for ops {common}")

    sys.path.insert(0, str(ROOT / "src"))
    from dsmflow.cli import main as cli_main

    commands = {
        "solve": (["solve", "--h-family", "quadratic-perturb", "--param", "0.05"],
                  "solve_summary.json"),
        "compare-newton": (["compare-newton", "--h-family", "scaled-linear"],
                           "newton_comparison.json"),
        "verify": (["verify", "--samples", "20", "--seed", "5"], "constants.json"),
    }
    with tempfile.TemporaryDirectory(dir=WORK) as tmp:
        for command, (argv, report) in commands.items():
            argv = argv + ["--out-dir", tmp]
            cli_main(argv)
            before = (Path(tmp) / report).read_bytes()
            cli_main(argv)
            check((Path(tmp) / report).read_bytes() == before,
                  f"{command}: JSON report is byte-identical across runs")

    print(f"{len(failures)} check(s) failed" if failures else "all checks passed")
    return 1 if failures else 0


if __name__ == "__main__":
    sys.exit(main())
