"""Run one workload on sets of seeds and summarise each metric's spread.

    python3 perfbench/spread.py --workload cli-small --seeds 1-10 --seconds 25
    python3 perfbench/spread.py --workload cli-small --seeds 401-410 --seeds 501-510 \\
        --seconds 25 --out perfbench/baseline.json

Every run is untraced. For every metric the runs print (those
BENCHMARK.json names and the extra ones) and each set of seeds, prints the
median and the quartile spread (Q3 - Q1) / median with
`statistics.quantiles(values, n=4)`; with two or more sets, also the change
of the last set's median from the first set's, as a share of it.

`--out FILE` merges the workload's record into FILE (the format of
`baseline.json`): the environment, every run's metric values, the summary
above with each metric's BENCHMARK.json bound, and the per-layer metrics of
one traced run on the first seed.
"""

import argparse
import json
import statistics
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
RUN = Path(__file__).resolve().parent / "run.py"
WORK = ROOT / ".perfbench_work"
SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())
DESCRIPTION = (
    "Per workload: sets of untraced runs (--seconds as given) made with "
    "perfbench/spread.py, every run's metric values, each metric's median and "
    "quartile spread (Q3 - Q1) / median per set, the change of the last set's "
    "median from the first set's as a share of it, and the per-layer metrics "
    "of one traced run on the first seed. Bounded metrics carry their "
    "BENCHMARK.json bound; the others are printed for context only.")


def seeds(text: str) -> list[int]:
    if "-" in text:
        lo, hi = text.split("-")
        return list(range(int(lo), int(hi) + 1))
    return [int(s) for s in text.split(",")]


def run(workload: str, seed: int, seconds: float, trace: int) -> dict | None:
    """One run of run.py; its full report, or None if it failed."""
    proc = subprocess.run(
        [sys.executable, str(RUN), "--workload", workload, "--seed", str(seed),
         "--seconds", str(seconds), "--trace", str(trace)],
        cwd=ROOT, capture_output=True, text=True, timeout=600)
    result = json.loads(proc.stdout.strip().splitlines()[-1]) if proc.returncode == 0 else {}
    if not result.get("correct"):
        print(proc.stderr, file=sys.stderr)
        print(f"seed {seed}: run failed", file=sys.stderr)
        return None
    return json.loads((WORK / f"{workload}-seed{seed}-trace{trace}.json").read_text())


def summarise(vals: list[float]) -> tuple[float, float]:
    """Median and quartile spread as a share of it."""
    med = statistics.median(vals)
    q1, _, q3 = statistics.quantiles(vals, n=4) if len(vals) > 1 else (med, med, med)
    return med, round((q3 - q1) / med, 4) if med else 0.0


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seeds", type=seeds, action="append", required=True,
                        help="a set of seeds, e.g. 1-10 or 3,5,8; repeat for more sets")
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--out", type=Path)
    args = parser.parse_args()

    bounds = {m["name"]: m["bound"] for m in SPEC["end_to_end"]}
    units: dict[str, str] = {}
    sets = []
    env = None
    for seed_set in args.seeds:
        runs = []
        for seed in seed_set:
            report = run(args.workload, seed, args.seconds, 0)
            if report is None:
                return 1
            env = env or report["env"]
            metrics = {k: m["value"] for k, m in report["metrics"].items()}
            units.update({k: m["unit"] for k, m in report["metrics"].items()})
            runs.append({"seed": seed, "attempted": report["attempted"],
                         "failed": report["failed"], "metrics": metrics})
            print(f"seed {seed}: {report['attempted']} ops, "
                  + ", ".join(f"{k} {metrics[k]:.6g}" for k in bounds), flush=True)
        sets.append({"seeds": seed_set, "runs": runs})

    summary = {}
    for name in sorted(units):
        per_set = []
        for s in sets:
            vals = [r["metrics"][name] for r in s["runs"] if r["metrics"][name] is not None]
            if vals:
                per_set.append(summarise(vals))
        if not per_set:
            continue
        medians = [med for med, _ in per_set]
        spreads = [spread for _, spread in per_set]
        change = (round(medians[-1] / medians[0] - 1.0, 4)
                  if len(per_set) > 1 and medians[0] else None)
        summary[name] = {"unit": units[name], "bound": bounds.get(name), "median": medians,
                         "spread": spreads, "median_change": change}
        print(f"{args.workload} {name}: median {', '.join(f'{m:.6g}' for m in medians)} "
              f"{units[name]}, spread {', '.join(f'{s:.4f}' for s in spreads)}"
              + ("" if change is None else f", median change {change:+.4f}")
              + ("" if bounds.get(name) is None else f" (bound {bounds[name]})"))

    if args.out:
        traced = run(args.workload, args.seeds[0][0], args.seconds, 1)
        if traced is None:
            return 1
        record = {"seconds": args.seconds, "env": env, "sets": sets, "end_to_end": summary,
                  "traced": traced["metrics"]}
        data = json.loads(args.out.read_text()) if args.out.exists() else {}
        data["description"] = DESCRIPTION
        data.setdefault("workloads", {})[args.workload] = record
        args.out.write_text(json.dumps(data, indent=1, sort_keys=True) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
