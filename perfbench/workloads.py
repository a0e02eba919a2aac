"""The benchmark's three workloads.

Each workload is a closed loop with one client: `op(i)` runs operation i to
completion and checks its outputs before the next one starts. Operation i
draws its inputs from `default_rng([seed, i])`, so a given seed and index
always give the same inputs, however many operations a run completes.

`op(i)` times only the call into the program and returns an `OpResult`;
the output checks run after the clock stops.
"""

from __future__ import annotations

import json
import math
import time
from dataclasses import dataclass
from pathlib import Path

import numpy as np

import dsmflow
import dsmflow.cli
import oracles
import speed

# The working-ball radius the CLI uses by default (`--radius 0.05`).
RADIUS = 0.05

# Largest H1 distance from a final iterate to its oracle. A converged CLI
# solve stops at an H2 residual of 1e-8 and lands within about 5e-9 of the
# solution; a converged sweep flow stops at 1e-4 of its initial residual
# and lands within about 3e-6 of V. The --h-file solves stall above the
# stopping tolerance (the discrete inverse barely damps high-frequency
# residual content) and end within about 1.5e-5 of V. Each tolerance
# leaves a factor of ten or more.
TOL_CLI = 1e-6
TOL_SWEEP = 3e-5
TOL_HFILE = 2e-4

# c09's analytic bracket for the two-sided constant of F(u) = int_0^x u^2.
C0_LOWER_BRACKET = (1.7, 2.0)
C0_UPPER_BRACKET = (2.0, 2.9)


@dataclass
class OpResult:
    seconds: float
    kind: str
    ok: bool = True         # every output check passed
    solved: bool = True     # the operation reached the answer it asks for
    oracle_err: float | None = None
    detail: str = ""
    # Mean time of the host-speed reference around the operation (speed.py).
    ref_s: float = 0.0

    @property
    def norm_s(self) -> float:
        """The operation's latency at the reference host's speed."""
        return speed.normalise(self.seconds, self.ref_s)


def _check(result: OpResult, condition: bool, detail: str) -> None:
    if not condition and result.ok:
        result.ok = False
        result.detail = detail


class Workload:
    name = ""
    # Operations in one full cycle of the workload's operation mix.
    cycle = 1

    def __init__(self, seed: int, workdir: Path):
        self.seed = seed
        self.workdir = workdir

    def rng(self, i: int) -> np.random.Generator:
        return np.random.default_rng([self.seed, i])

    def setup(self) -> None:
        """Work done once before the first operation."""

    def op(self, i: int) -> OpResult:
        raise NotImplementedError


class CliSmall(Workload):
    """Four CLI commands at n = 201, run in-process through `cli.main`."""

    name = "cli-small"
    cycle = 4
    n = 201
    kinds = ("solve-scaled-linear", "solve-quadratic-perturb", "solve-h-file",
             "compare-newton")

    def setup(self) -> None:
        # A solvable right-hand side h = F(V) for a V drawn in the working
        # ball around U = 1; V is the oracle of every --h-file solve.
        rng = np.random.default_rng([self.seed, 1 << 20])
        U = dsmflow.GridFunction.constant(1.0, self.n)
        V = dsmflow.sampling.sample_in_ball(rng, U, RADIUS, 1)
        self.h_file = self.workdir / "h.csv"
        dsmflow.write_grid_csv(dsmflow.QuadraticVolterra().eval(V), self.h_file)
        self.h_oracle = V.values.tolist()
        for kind in self.kinds:
            (self.workdir / kind).mkdir(parents=True, exist_ok=True)

    def argv(self, i: int) -> tuple[str, list[str], float | None]:
        kind = self.kinds[i % self.cycle]
        out = ["--n", str(self.n), "--out-dir", str(self.workdir / kind)]
        rng = self.rng(i)
        if kind == "solve-scaled-linear":
            p = 1.1 + rng.uniform(-0.02, 0.02)
            return kind, ["solve", "--h-family", "scaled-linear", "--param", repr(p)] + out, p
        if kind == "solve-quadratic-perturb":
            p = 0.05 + rng.uniform(-0.005, 0.005)
            return kind, ["solve", "--h-family", "quadratic-perturb", "--param", repr(p)] + out, p
        if kind == "solve-h-file":
            return kind, ["solve", "--h-file", str(self.h_file)] + out, None
        p = 1.1 + rng.uniform(-0.02, 0.02)
        return kind, ["compare-newton", "--h-family", "scaled-linear",
                      "--param", repr(p)] + out, p

    def op(self, i: int) -> OpResult:
        kind, argv, p = self.argv(i)
        t0 = time.perf_counter()
        code = dsmflow.cli.main(argv)
        res = OpResult(time.perf_counter() - t0, kind)
        out = self.workdir / kind
        if kind == "compare-newton":
            self._check_compare_newton(res, code, out, p)
        else:
            self._check_solve(res, code, out, kind, p)
        return res

    def _check_solve(self, res, code, out, kind, p) -> None:
        summary = json.loads((out / "solve_summary.json").read_text())
        converged = summary["stop_reason"] == "converged"
        _check(res, code == (0 if converged else 2),
               f"exit {code} with stop reason {summary['stop_reason']}")
        header, rows = oracles.read_csv_rows(out / "trajectory.csv")
        _check(res, header == ["t", "g", "dist_u0", "dist_U"] and len(rows) >= 2,
               "trajectory.csv malformed")
        _check(res, float(rows[-1][1]) == summary["g_final"],
               "trajectory.csv disagrees with the summary")
        final_u = oracles.read_grid_values(out / "final_u.csv")
        if kind == "solve-scaled-linear":
            oracle, tol = oracles.scaled_linear_solution(p, self.n), TOL_CLI
        elif kind == "solve-quadratic-perturb":
            oracle, tol = oracles.quadratic_perturb_solution(p, self.n), TOL_CLI
        else:
            oracle, tol = self.h_oracle, TOL_HFILE
        err = oracles.h1_distance(final_u, oracle)
        _check(res, err <= tol, f"H1 distance {err:.3e} to the oracle exceeds {tol:g}")
        if kind != "solve-h-file":
            _check(res, converged, f"stop reason {summary['stop_reason']}")
        else:
            _check(res, summary["stop_reason"] in ("converged", "horizon"),
                   f"stop reason {summary['stop_reason']}")
        res.solved = converged
        if converged:
            res.oracle_err = err

    def _check_compare_newton(self, res, code, out, p) -> None:
        summary = json.loads((out / "newton_comparison.json").read_text())
        newton, flow = summary["newton"], summary["flow"]
        _check(res, code == 0 and newton["converged"], f"exit {code}, newton {newton}")
        _check(res, flow["stop_reason"] == "converged", f"flow stop {flow['stop_reason']}")
        header, rows = oracles.read_csv_rows(out / "newton_iterations.csv")
        _check(res, header == ["k", "residual", "dist_to_oracle"] and 2 <= len(rows) <= 9,
               f"newton_iterations.csv has {len(rows)} rows")
        # Below the CLI's 1e-10 tolerance the H2 residual is rounding noise
        # amplified by the second difference quotient (1e-12 seen at n = 201).
        expected = oracles.heron_residuals(p, self.n, len(rows))
        for row, g in zip(rows, expected):
            got = float(row[1])
            _check(res, abs(got - g) <= 1e-6 * g + 1e-10,
                   f"Newton residual {got:.6e} at k={row[0]}, Babylonian oracle {g:.6e}")
        res.solved = code == 0


class SweepLarge(Workload):
    """Admissibility sweep at n = 20001 through the library, after check c15."""

    name = "sweep-large"
    cycle = 10
    n = 20001

    def setup(self) -> None:
        self.problem = dsmflow.ProblemSetup.from_reference(
            dsmflow.QuadraticVolterra(), dsmflow.GridFunction.constant(1.0, self.n), RADIUS)
        self.report = dsmflow.estimate_constants(self.problem, 200, self.seed)
        self.cfg = dsmflow.FlowConfig(eps_rel=1e-4, eps_abs=1e-10, enforce_ball=True)
        x = np.linspace(0.0, 1.0, self.n)
        # c15's far-outside data: h' = 1 - 4x crosses zero.
        self.h_far = dsmflow.GridFunction(x - 2.0 * x * x)

    def op(self, i: int) -> OpResult:
        s, rho0 = self.problem, self.report.rho0
        far = i % self.cycle == self.cycle - 1
        t0 = time.perf_counter()
        if far:
            u0, h = s.U, self.h_far
        else:
            rng = self.rng(i)
            u0 = dsmflow.sampling.sample_in_ball(rng, s.U, rho0, 1)
            V = dsmflow.sampling.sample_in_ball(rng, s.U, 0.45 * rho0, 1)
            h = s.operator.eval(V)
        verdict = dsmflow.admissibility_check(s, u0, h, self.report)
        traj = dsmflow.integrate_flow(s, u0, h, self.cfg)
        res = OpResult(time.perf_counter() - t0, "far-outside" if far else "admissible")
        converged = traj.stop_reason == "converged"
        if far:
            _check(res, not verdict.admissible and verdict.dist_h >= 10.0 * rho0,
                   f"far pair judged admissible (dist_h {verdict.dist_h:.3e})")
            _check(res, not converged, "far-outside pair converged")
            res.solved = not converged
            return res
        _check(res, verdict.admissible, f"admissible draw rejected (margin {verdict.margin:.3e})")
        _check(res, converged, f"admissible pair stopped with {traj.stop_reason}")
        err = oracles.h1_distance(traj.final_u.values.tolist(), V.values.tolist())
        _check(res, err <= TOL_SWEEP, f"H1 distance {err:.3e} to V exceeds {TOL_SWEEP:g}")
        res.solved = converged
        res.oracle_err = err
        return res


class VerifyLarge(Workload):
    """`dsmflow verify --samples 50` at n = 20001 through `cli.main`.

    Fifty samples rather than the CLI's default 200 keep an operation near
    one second, so a 25-second run holds about 25 operations rather than
    about six, and its median latency has that many samples.
    """

    name = "verify-large"
    cycle = 1
    n = 20001
    samples = 50

    def setup(self) -> None:
        (self.workdir / "verify").mkdir(parents=True, exist_ok=True)

    def op(self, i: int) -> OpResult:
        seed = int(self.rng(i).integers(2**31))
        out = self.workdir / "verify"
        argv = ["verify", "--n", str(self.n), "--samples", str(self.samples), "--seed", str(seed),
                "--out-dir", str(out)]
        t0 = time.perf_counter()
        code = dsmflow.cli.main(argv)
        res = OpResult(time.perf_counter() - t0, "verify")
        rep = json.loads((out / "constants.json").read_text())
        lo, hi = rep["c0_lower"], rep["c0_upper"]
        _check(res, code == 0, f"exit {code}")
        _check(res, rep["seed"] == seed and rep["sample_count"] == self.samples,
               "report does not echo the seed and sample count")
        _check(res, C0_LOWER_BRACKET[0] <= lo <= C0_LOWER_BRACKET[1]
               and C0_UPPER_BRACKET[0] <= hi <= C0_UPPER_BRACKET[1],
               f"c0 bracket [{lo:.4f}, {hi:.4f}] outside c09's")
        rho0 = oracles.rho_max(RADIUS, lo, hi)
        _check(res, math.isclose(rep["rho0"], rho0, rel_tol=1e-12),
               f"rho0 {rep['rho0']!r} differs from the recomputed {rho0!r}")
        _check(res, rep["admissible"], "the reference pair is not admissible")
        res.solved = code == 0
        return res


WORKLOADS = {w.name: w for w in (CliSmall, SweepLarge, VerifyLarge)}
