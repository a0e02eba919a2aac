"""Time two dsmflow source trees against each other, both in one process.

    python3 tools/ab_timing.py SRC_A SRC_B [--rounds 30] [--seed 7]

Each ``src`` directory is loaded as its own package (``dsmflow_a`` and
``dsmflow_b``), so both run in the same interpreter, on the same heap and
at the same moments. Every round times each operation once per tree, the
two calls back to back, and the tree that goes first alternates from one
round to the next. A round of untimed warm-up calls comes first.

Where the trees differ, the one loaded second can read a few percent
slower than the other for no reason in its code: at n = 20001 the flow of
whichever tree was loaded second read 1.03 to 1.07 of the other's, while
two copies of one tree read 1.00 either way. So the tool times both load
orders, each in a process of its own (``--first a`` and ``--first b``),
and reports the geometric mean of the two orders' median ratios beside
each order's ratio.

The operations are fixed:

- the canonical flow, h = x + 0.05 x^2 from u0 = U = 1 with the default
  ``FlowConfig``, at n = 201, 2001 and 20001;
- one sweep-large-style admissible operation at n = 20001: a drawn u0 and
  h = F(V) for a drawn V, ``admissibility_check``, then the flow with
  ``eps_rel = 1e-4``, ``eps_abs = 1e-10`` and ``enforce_ball``;
- ``estimate_constants`` with 50 samples at n = 20001, and the 200-sample
  ``bracket_only`` estimate of a CLI solve at n = 201;
- the four cli-small commands at n = 201 through ``cli.main``: solves of
  scaled-linear 1.1, quadratic-perturb 0.05 and an ``--h-file`` input,
  and ``compare-newton`` scaled-linear 1.1;
- verify-large's command through ``cli.main``: ``verify --samples 50`` at
  n = 20001;
- the same command in a fresh Python process of its own (``cold verify``),
  which imports the tree and builds its caches (the sampling basis and
  Gram matrices) on the way, as a first run does.

For each operation the tool prints each tree's median and quartiles in
milliseconds over both orders, the ratio of B's median to A's, and the
rounds B won; for a flow, also its step count and the median time per
step. Timings from one process are paired: a shift of the host's speed
moves both trees alike, where separate benchmark processes can differ by
several percent. The script needs only the standard library and numpy.
"""

from __future__ import annotations

import argparse
import importlib.util
import json
import math
import os
import statistics
import subprocess
import sys
import tempfile
import time
from pathlib import Path

import numpy as np

RADIUS = 0.05  # the CLI's default working-ball radius
_ENTRY = "import sys; from dsmflow.cli import main; sys.exit(main(sys.argv[1:]))"


def load_tree(src: Path, name: str):
    """Import the ``dsmflow`` package under ``src`` as package ``name``."""
    root = Path(src).resolve() / "dsmflow"
    spec = importlib.util.spec_from_file_location(
        name, root / "__init__.py", submodule_search_locations=[str(root)])
    package = importlib.util.module_from_spec(spec)
    sys.modules[name] = package
    spec.loader.exec_module(package)
    for sub in ("cli", "flow", "sampling", "conditions"):
        importlib.import_module(f"{name}.{sub}")
    return package


class Tree:
    """One loaded package, with its inputs and its operations."""

    def __init__(self, package, src: Path, workdir: Path, seed: int):
        self.pkg = package
        self.src = src
        self.workdir = workdir
        self.seed = seed
        self.flows = {}

    def setup(self) -> None:
        pkg = self.pkg
        for n in (201, 2001, 20001):
            p = pkg.ProblemSetup.from_reference(
                pkg.QuadraticVolterra(), pkg.GridFunction.constant(1.0, n), RADIUS)
            x = p.U.x
            self.flows[n] = (p, pkg.GridFunction(x + 0.05 * x * x))
        self.large = self.flows[20001][0]
        self.report = pkg.estimate_constants(self.large, 200, self.seed)
        # the h file of the cli-small --h-file solves: h = F(V), V in the ball
        rng = np.random.default_rng([self.seed, 1 << 20])
        U = pkg.GridFunction.constant(1.0, 201)
        V = pkg.sampling.sample_in_ball(rng, U, RADIUS, 1)
        self.h_file = self.workdir / "h.csv"
        pkg.write_grid_csv(pkg.QuadraticVolterra().eval(V), self.h_file)

    def flow(self, n: int):
        p, h = self.flows[n]
        return self.pkg.integrate_flow(p, p.U, h)

    def sweep(self):
        pkg, s = self.pkg, self.large
        rng = np.random.default_rng([self.seed, 0])
        rho0 = self.report.rho0
        u0 = pkg.sampling.sample_in_ball(rng, s.U, rho0, 1)
        V = pkg.sampling.sample_in_ball(rng, s.U, 0.45 * rho0, 1)
        h = s.operator.eval(V)
        pkg.admissibility_check(s, u0, h, self.report)
        cfg = pkg.FlowConfig(eps_rel=1e-4, eps_abs=1e-10, enforce_ball=True)
        return pkg.integrate_flow(s, u0, h, cfg)

    def constants(self):
        return self.pkg.estimate_constants(self.large, 50, self.seed)

    def bracket(self):
        return self.pkg.estimate_constants(self.flows[201][0], 200, self.seed, bracket_only=True)

    def cold_verify(self) -> None:
        out = self.workdir / "cold_verify"
        proc = subprocess.run(
            [sys.executable, "-c", _ENTRY, "verify", "--n", "20001", "--samples", "50",
             "--out-dir", str(out)],
            env=dict(os.environ, PYTHONPATH=str(self.src)), capture_output=True, text=True)
        if proc.returncode != 0:
            raise RuntimeError(f"{self.src}: cold verify exited {proc.returncode}: {proc.stderr}")

    def cli(self, kind: str, args: list[str], n: int = 201) -> int:
        out = ["--n", str(n), "--out-dir", str(self.workdir / kind)]
        code = self.pkg.cli.main(args + out)
        if code not in (0, 2):  # 2: a solve that stopped at the horizon
            raise RuntimeError(f"{self.pkg.__name__}: {args[0]} exited {code}")
        return code

    def operations(self):
        """(name, call) pairs, in the order each round runs them."""
        ops = [(f"flow n={n}", lambda n=n: self.flow(n)) for n in (201, 2001, 20001)]
        ops += [("sweep admissible", self.sweep),
                ("constants(50) n=20001", self.constants),
                ("constants bracket(200) n=201", self.bracket)]
        commands = {
            "cli solve scaled-linear": ["solve", "--h-family", "scaled-linear",
                                        "--param", "1.1"],
            "cli solve quadratic-perturb": ["solve", "--h-family", "quadratic-perturb",
                                            "--param", "0.05"],
            "cli solve h-file": ["solve", "--h-file", str(self.h_file)],
            "cli compare-newton": ["compare-newton", "--h-family", "scaled-linear",
                                   "--param", "1.1"],
        }
        ops += [(name, lambda name=name, args=args: self.cli(name.replace(" ", "_"), args))
                for name, args in commands.items()]
        ops.append(("cli verify n=20001 --samples 50",
                    lambda: self.cli("cli_verify", ["verify", "--samples", "50"], 20001)))
        ops.append(("cold verify n=20001", self.cold_verify))
        return ops


def quartiles(values: list[float]) -> tuple[float, float, float]:
    if len(values) == 1:
        return values[0], values[0], values[0]
    q1, q2, q3 = statistics.quantiles(values, n=4, method="inclusive")
    return q1, q2, q3


def measure(srcs: dict[str, Path], first: str, rounds: int, seed: int) -> dict:
    """Load both trees, ``first`` first, and time every operation: seconds
    per round, listed for tree a then tree b, and the flows' step counts."""
    with tempfile.TemporaryDirectory() as tmp:
        trees = {}
        for tag in (first, "b" if first == "a" else "a"):
            workdir = Path(tmp) / tag
            workdir.mkdir()
            trees[tag] = Tree(load_tree(srcs[tag], f"dsmflow_{tag}"), srcs[tag], workdir, seed)
            trees[tag].setup()
        ops = [trees[tag].operations() for tag in ("a", "b")]
        names = [name for name, _ in ops[0]]
        times = {name: ([], []) for name in names}
        steps = {}
        for k in range(-1, rounds):  # round -1 warms up
            order = (0, 1) if k % 2 == 0 else (1, 0)
            for i, name in enumerate(names):
                for side in order:
                    call = ops[side][i][1]
                    t0 = time.perf_counter()
                    result = call()
                    elapsed = time.perf_counter() - t0
                    if k >= 0:
                        times[name][side].append(elapsed)
                    if name.startswith("flow"):
                        steps[name] = result.steps
    return {"names": names, "times": times, "steps": steps}


def report(src_a: Path, src_b: Path, rounds: int, runs: dict[str, dict]) -> None:
    """Print the table of both load orders' timings."""
    first = runs["a"]
    print(f"A = {src_a}\nB = {src_b}\n{rounds} rounds in each load order, times in ms; "
          "B/A is the geometric mean of the two orders' median ratios")
    print(f"{'operation':31s} {'A median':>9s} {'A q1-q3':>17s} {'B median':>9s} "
          f"{'B q1-q3':>17s} {'B/A':>6s} {'A 1st':>6s} {'B 1st':>6s} {'B won':>7s} "
          f"{'steps':>5s} {'A/step':>8s} {'B/step':>8s}")
    for name in first["names"]:
        a = [t for run in runs.values() for t in run["times"][name][0]]
        b = [t for run in runs.values() for t in run["times"][name][1]]
        ratios = [statistics.median(run["times"][name][1]) / statistics.median(run["times"][name][0])
                  for run in (runs["a"], runs["b"])]
        qa, qb = quartiles(a), quartiles(b)
        won = sum(y < x for x, y in zip(a, b))
        row = (f"{name:31s} {qa[1] * 1e3:9.3f} {qa[0] * 1e3:8.3f}-{qa[2] * 1e3:<8.3f} "
               f"{qb[1] * 1e3:9.3f} {qb[0] * 1e3:8.3f}-{qb[2] * 1e3:<8.3f} "
               f"{math.sqrt(ratios[0] * ratios[1]):6.3f} {ratios[0]:6.3f} {ratios[1]:6.3f} "
               f"{won:3d}/{len(a):<3d}")
        if name in first["steps"]:
            count = first["steps"][name]
            row += f" {count:5d} {qa[1] / count * 1e3:8.4f} {qb[1] / count * 1e3:8.4f}"
        print(row)


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("src_a", type=Path, help="the first tree's src directory")
    parser.add_argument("src_b", type=Path, help="the second tree's src directory")
    parser.add_argument("--rounds", type=int, default=30,
                        help="timed rounds in each load order (default 30)")
    parser.add_argument("--seed", type=int, default=7, help="seed of the drawn inputs")
    parser.add_argument("--first", choices=("a", "b"),
                        help="time one load order in this process and print it as JSON "
                             "(the tool runs itself so, once per order)")
    args = parser.parse_args(argv)
    if args.rounds < 1:
        parser.error("--rounds must be at least 1")
    srcs = {"a": args.src_a.resolve(), "b": args.src_b.resolve()}
    if args.first:
        print(json.dumps(measure(srcs, args.first, args.rounds, args.seed)))
        return 0
    runs = {}
    for first in ("a", "b"):
        proc = subprocess.run(
            [sys.executable, __file__, str(srcs["a"]), str(srcs["b"]), "--rounds",
             str(args.rounds), "--seed", str(args.seed), "--first", first],
            capture_output=True, text=True)
        if proc.returncode != 0:
            sys.stderr.write(proc.stderr)
            return proc.returncode
        runs[first] = json.loads(proc.stdout)
    report(args.src_a, args.src_b, args.rounds, runs)
    return 0


if __name__ == "__main__":
    sys.exit(main())
