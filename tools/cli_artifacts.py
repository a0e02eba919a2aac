"""Run a fixed list of dsmflow CLI commands and keep everything they leave.

    python3 tools/cli_artifacts.py --src path/to/checkout/src OUT_DIR

Each run gets a directory OUT_DIR/<name>, passed to the CLI as a relative
``--out-dir`` from OUT_DIR, and holds the run's artifacts with its
``stdout.txt``, ``stderr.txt`` and ``exit_code.txt``. A run of several
commands runs them one after another in its directory, which then holds
the last command's artifacts, every command's output and one exit code a
line: a rerun over longer artifacts must leave a fresh run's bytes. Input
files go to OUT_DIR/inputs under relative paths too. So the JSON manifests
name only relative paths, and the trees of two checkouts compare whole:

    diff -r OUT_A OUT_B

The input of the ``--h-file`` run is h = F(V) for a fixed smooth V near
U = 1, computed here in plain Python. It does not depend on the checkout.
The script uses only the standard library; the CLI it runs needs numpy.
"""

from __future__ import annotations

import argparse
import math
import os
import subprocess
import sys
from pathlib import Path

_ENTRY = "import sys; from dsmflow.cli import main; sys.exit(main(sys.argv[1:]))"
_QP = ["--h-family", "quadratic-perturb", "--param", "0.05"]

# (run name, CLI arguments before --out-dir, ...): one or more commands
RUNS = [
    ("solve-default", ["solve"]),
    ("solve-scaled-linear", ["solve", "--h-family", "scaled-linear", "--param", "1.1"]),
    ("solve-quadratic-perturb-201", ["solve", *_QP]),
    ("solve-quadratic-perturb-2001", ["solve", *_QP, "--n", "2001"]),
    # from n = 8193 up a distance block is one row: each distance its own
    ("solve-quadratic-perturb-20001", ["solve", *_QP, "--n", "20001"]),
    ("solve-linear-smoothing", ["solve", "--operator", "linear-smoothing", *_QP]),
    # converges inside the ball, where 0.05 leaves it (exit 2, ball_exit)
    ("solve-enforce-ball", ["solve", "--h-family", "quadratic-perturb", "--param", "0.02",
                            "--enforce-ball"]),
    ("solve-euler", ["solve", *_QP, "--scheme", "euler"]),
    ("solve-h-file-stall", ["solve", "--h-file", "inputs/h_stall.csv"]),
    # a rerun: shorter artifacts written over the stall's
    ("solve-over-h-file-stall", ["solve", "--h-file", "inputs/h_stall.csv"], ["solve"]),
    # a bracket whose bound cannot clear the guard: v is drawn on the grid
    ("solve-guarded", ["solve", "--radius", "0.5", "--u-min", "0.95", "--samples", "60"]),
    ("verify-volterra", ["verify"]),
    ("verify-linear-smoothing", ["verify", "--operator", "linear-smoothing"]),
    ("verify-20001", ["verify", "--n", "20001", "--samples", "50"]),
    # estimates whose last block is partial, or whose samples trip the guard
    ("verify-samples-50", ["verify", "--samples", "50"]),
    ("verify-2001", ["verify", "--n", "2001", "--samples", "30"]),
    ("verify-4097", ["verify", "--n", "4097", "--samples", "11"]),
    ("verify-guarded", ["verify", "--radius", "0.5", "--u-min", "0.95", "--samples", "60"]),
    # a ball of radius 1e150, whose points A(u)q = I(q) does not see
    ("verify-linear-smoothing-huge-ball", ["verify", "--operator", "linear-smoothing",
                                           "--radius", "1e150"]),
    # a bracket whose bound cannot clear the guard of u or v: both are
    # drawn on the grid
    ("solve-radius-2", ["solve", "--radius", "2", "--h-family", "scaled-linear",
                        "--param", "1.1"]),
    ("compare-newton", ["compare-newton", "--h-family", "scaled-linear", "--param", "1.1"]),
    ("probe-loss", ["probe-loss"]),
    ("classical-ift", ["classical-ift"]),
]


def write_stall_input(path: Path, n: int = 201) -> None:
    """h = F(V) on the n-point grid: the cumulative trapezoid integral of V^2,
    with V = 1 + a few low modes. The CLI's flow stalls on it above its
    default tolerance and stops at the horizon."""
    dx = 1.0 / (n - 1)
    xs = [k * dx for k in range(n)]
    v = [1.0 + 0.001 * math.sin(3.0 * math.pi * x) + 0.0005 * math.cos(8.0 * math.pi * x)
         + 0.0003 * math.sin(15.0 * math.pi * x) for x in xs]
    h = [0.0]
    for k in range(1, n):
        h.append(h[-1] + (v[k - 1] ** 2 + v[k] ** 2) * dx / 2.0)
    path.parent.mkdir(parents=True, exist_ok=True)
    rows = "".join(f"{x!r},{value!r}\r\n" for x, value in zip(xs, h))
    path.write_text("x,value\r\n" + rows, newline="")


def run_all(src: Path, out: Path) -> None:
    """Run every entry of ``RUNS`` in ``out``."""
    write_stall_input(out / "inputs" / "h_stall.csv")
    env = dict(os.environ, PYTHONPATH=str(src.resolve()))
    for var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS"):
        env[var] = "1"
    for name, *commands in RUNS:
        run_dir = out / name
        run_dir.mkdir()
        procs = [subprocess.run([sys.executable, "-c", _ENTRY, *args, "--out-dir", name],
                                cwd=out, env=env, capture_output=True, text=True)
                 for args in commands]
        codes = [proc.returncode for proc in procs]
        (run_dir / "stdout.txt").write_text("".join(proc.stdout for proc in procs))
        (run_dir / "stderr.txt").write_text("".join(proc.stderr for proc in procs))
        (run_dir / "exit_code.txt").write_text("".join(f"{code}\n" for code in codes))
        print(f"{name}: exit {' '.join(map(str, codes))}")


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--src", type=Path, required=True,
                        help="the src/ directory of the checkout to run")
    parser.add_argument("out", type=Path, help="directory for the runs; must not exist or be empty")
    args = parser.parse_args(argv)
    if not (args.src / "dsmflow" / "cli.py").is_file():
        parser.error(f"{args.src} holds no dsmflow package")
    if args.out.exists() and any(args.out.iterdir()):
        parser.error(f"{args.out} is not empty")
    args.out.mkdir(parents=True, exist_ok=True)
    run_all(args.src, args.out)
    return 0


if __name__ == "__main__":
    sys.exit(main())
