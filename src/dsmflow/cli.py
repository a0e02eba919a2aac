"""Command-line interface: reproducible flow solves and condition checks.

Commands write machine-readable CSV/JSON artifacts into --out-dir; every
JSON report embeds the full run manifest (no timestamps), so identical
flags, seed and inputs reproduce identical bytes.

Exit codes: 0 when the command's success condition holds, 2 when the
computation ran but did not meet it (non-converged solve, diverged Newton),
1 for usage and I/O errors.
"""

from __future__ import annotations

import argparse
import json
import math
import sys
from pathlib import Path

import numpy as np

from . import __version__
from .conditions import admissibility_check, estimate_constants
from .flow import (
    SCHEMES,
    STOP_CONVERGED,
    FlowConfig,
    decay_fit,
    integrate_flow,
    write_trajectory_csv,
)
from .newton_lab import (
    ClassicalIFTConfig,
    ContractionEscapeError,
    ConvergenceError,
    contraction_solve,
    newton_solve,
    smoothing_loss_probe,
    write_iteration_csv,
    write_loss_probe_csv,
)
from .operators import OPERATOR_IDS, ProblemSetup, make_operator
from .scale import GridFunction, read_grid_csv, sobolev_norm, write_grid_csv

EXIT_OK = 0
EXIT_USAGE = 1
EXIT_FAILED = 2


# Built-in right-hand-side families. In each, "h" maps to h(x, p), and each
# operator id to the analytic solution u(x, p) of F(u) = h, or to None where
# that has no positive solution (sqrt(1 + 2px) on [0, 1] needs p > -1/2).
_FAMILIES = {
    "scaled-linear": {
        "h": lambda x, p: p * p * x,
        "volterra-quadratic": lambda x, p: np.full(x.size, abs(p)),
        "linear-smoothing": lambda x, p: np.full(x.size, p * p),
    },
    "quadratic-perturb": {
        "h": lambda x, p: x + p * x * x,
        "volterra-quadratic": lambda x, p: (
            np.sqrt(1.0 + 2.0 * p * x) if p > -0.5 else None),
        "linear-smoothing": lambda x, p: 1.0 + 2.0 * p * x,
    },
}
H_FAMILIES = tuple(_FAMILIES)

# Record fields that the JSON reports copy under their own names.
_FLOW_FIELDS = ("stop_reason", "final_t", "g0", "g_final", "steps", "vf_evals", "decay_ratio")
_VERDICT_FIELDS = ("rho0", "admissible", "margin", "dist_u0", "dist_h", "R_required", "radius_ok")
_CONSTANTS_FIELDS = ("c0_lower", "c0_upper", "c_iso", "c_lip", "sample_count", "seed", "skipped")


class _Parser(argparse.ArgumentParser):
    """ArgumentParser whose usage errors exit with code 1, not 2."""

    def error(self, message):
        self.print_usage(sys.stderr)
        self.exit(EXIT_USAGE, f"{self.prog}: error: {message}\n")


def _add_common(parser, n_default=201):
    parser.add_argument("--operator", choices=OPERATOR_IDS, default="volterra-quadratic")
    parser.add_argument("--n", type=int, default=n_default, help="grid-point count")
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--out-dir", type=Path, default=Path("."))
    parser.add_argument("--u-min", type=float, default=0.1,
                        help="guard for the division in the inverse derivative")
    parser.add_argument("--radius", type=float, default=0.05,
                        help="working-ball radius around the reference point")


def _add_input_flags(parser):
    parser.add_argument("--h-file", type=Path, help="right-hand side as grid CSV")
    parser.add_argument("--h-family", choices=H_FAMILIES,
                        help="built-in analytic right-hand side family")
    parser.add_argument("--param", type=float, default=1.1,
                        help="parameter of --h-family")
    parser.add_argument("--u0-file", type=Path,
                        help="initial iterate as grid CSV (default: U)")


def build_parser() -> argparse.ArgumentParser:
    parser = _Parser(prog="dsmflow", description=__doc__.splitlines()[0])
    parser.add_argument("--version", action="version", version=__version__)
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("solve", help="integrate the Newton flow for one right-hand side")
    _add_common(p)
    _add_input_flags(p)
    p.add_argument("--scheme", choices=SCHEMES, default="rk4")
    p.add_argument("--dt", type=float, default=0.05)
    p.add_argument("--t-max", type=float, default=30.0)
    p.add_argument("--eps-rel", type=float, default=0.0)
    p.add_argument("--eps-abs", type=float, default=1e-8)
    p.add_argument("--enforce-ball", action="store_true")
    p.add_argument("--samples", type=int, default=200,
                   help="sample count for the two-sided constants estimate")

    p = sub.add_parser("verify", help="estimate condition constants on the working ball")
    _add_common(p)
    _add_input_flags(p)
    p.add_argument("--samples", type=int, default=200)

    p = sub.add_parser("probe-loss", help="inverse-derivative amplification per sine mode")
    _add_common(p, n_default=401)
    p.add_argument("--k-max", type=int, default=32)

    p = sub.add_parser("compare-newton", help="Newton iteration next to a default flow solve")
    _add_common(p)
    _add_input_flags(p)
    p.add_argument("--max-iter", type=int, default=25)
    p.add_argument("--tol", type=float, default=1e-10)

    p = sub.add_parser("classical-ift", help="contraction solve of the pointwise map z + z^2")
    p.add_argument("--n", type=int, default=201)
    p.add_argument("--out-dir", type=Path, default=Path("."))
    rhs = p.add_mutually_exclusive_group()
    rhs.add_argument("--p", type=float, default=0.1, help="constant right-hand side")
    rhs.add_argument("--p-file", type=Path, help="right-hand side as grid CSV")
    p.add_argument("--epsilon", type=float, default=0.25)
    p.add_argument("--m", type=float, default=1.0)
    p.add_argument("--max-iter", type=int, default=200)
    p.add_argument("--tol", type=float, default=1e-12)

    return parser


def _load_problem(args):
    """Return ``(setup, h, u0, inputs)``; h = F(U) and u0 = U unless flags say
    otherwise, and ``inputs`` maps each input file, of --n nodes, to its path."""
    operator = make_operator(args.operator, u_min=args.u_min)
    setup = ProblemSetup.from_reference(
        operator, GridFunction.constant(1.0, args.n), args.radius)
    h_family = getattr(args, "h_family", None)
    inputs = {key: getattr(args, f"{key}_file", None) for key in ("h", "u0")}
    inputs = {key: path for key, path in inputs.items() if path is not None}
    if "h" in inputs and h_family is not None:
        raise ValueError("--h-file and --h-family are mutually exclusive")
    data = {"h": setup.f, "u0": setup.U}
    if h_family is not None:
        values = _FAMILIES[h_family]["h"](setup.U.x, args.param)
        if not np.all(np.isfinite(values)):
            raise ValueError(f"--param {args.param!r} makes the {h_family} right-hand "
                             "side overflow")
        data["h"] = GridFunction(values)
    for key in inputs:
        data[key] = _read_input(args, key)
    return setup, data["h"], data["u0"], inputs


def _read_input(args, key: str) -> GridFunction:
    """The grid CSV given by --{key}-file, which must have --n nodes."""
    path = getattr(args, f"{key}_file")
    f = read_grid_csv(path)
    if f.n != args.n:
        raise ValueError(f"--{key}-file {path} has {f.n} nodes, but --n is {args.n}")
    return f


def _oracle(args, setup: ProblemSetup) -> GridFunction | None:
    """Analytic solution of F(u) = h for the built-in right-hand sides."""
    if args.h_family is None:
        return None if args.h_file is not None else setup.U
    values = _FAMILIES[args.h_family][args.operator](setup.U.x, args.param)
    return None if values is None else GridFunction(values)


def _outputs(args, **names: str) -> dict:
    """Create --out-dir and map each output key to its file inside it."""
    args.out_dir.mkdir(parents=True, exist_ok=True)
    return {key: args.out_dir / name for key, name in names.items()}


def _write_json(path: Path, payload: dict) -> None:
    with open(path, "w") as handle:
        json.dump(payload, handle, indent=2, sort_keys=True)
        handle.write("\n")


def _write_report(args, inputs: dict, outputs: dict, key: str, payload: dict) -> None:
    """Write ``payload`` to ``outputs[key]`` with the run manifest embedded.

    The manifest carries no timestamps, so identical flags, seed and inputs
    reproduce identical bytes. It records a flag only when the run read it.
    """
    skip = {"command", "operator", "n", "seed", "out_dir", "u0_file", "h_file", "p_file"}
    # flags the run did not read: --param without --h-family, --p beside --p-file
    if getattr(args, "h_family", None) is None:
        skip.add("param")
    if getattr(args, "p_file", None) is not None:
        skip.add("p")
    payload["manifest"] = {
        "command": args.command,
        "operator": getattr(args, "operator", None),
        "n": getattr(args, "n", None),
        "seed": getattr(args, "seed", None),
        "parameters": {k: v for k, v in sorted(vars(args).items())
                       if k not in skip and not isinstance(v, Path)},
        "input_files": {k: str(v) for k, v in inputs.items()},
        "output_files": {k: str(v) for k, v in outputs.items()},
        "version": __version__,
    }
    _write_json(outputs[key], payload)


def _fields(record, names) -> dict:
    return {name: getattr(record, name) for name in names}


def cmd_solve(args) -> int:
    cfg = FlowConfig(scheme=args.scheme, dt=args.dt, t_max=args.t_max,
                     eps_rel=args.eps_rel, eps_abs=args.eps_abs,
                     enforce_ball=args.enforce_ball)
    setup, h, u0, inputs = _load_problem(args)
    # solve reports only what the two-sided bracket gives: rho0 and r
    report = estimate_constants(setup, args.samples, args.seed, bracket_only=True)
    verdict = admissibility_check(setup, u0, h, report)
    traj = integrate_flow(setup, u0, h, cfg)
    try:
        slope, r_squared = decay_fit(traj)
    except ValueError:
        slope, r_squared = None, None

    outputs = _outputs(args, trajectory="trajectory.csv", final_u="final_u.csv",
                       summary="solve_summary.json")
    write_trajectory_csv(traj, outputs["trajectory"])
    write_grid_csv(traj.final_u, outputs["final_u"])
    _write_report(args, inputs, outputs, "summary", {
        **_fields(traj, _FLOW_FIELDS),
        **_fields(verdict, _VERDICT_FIELDS),
        "decay_slope": slope,
        "decay_r_squared": r_squared,
        "r_bound": verdict.r,
    })
    return EXIT_OK if traj.stop_reason == STOP_CONVERGED else EXIT_FAILED


def cmd_verify(args) -> int:
    setup, h, u0, inputs = _load_problem(args)
    report = estimate_constants(setup, args.samples, args.seed)
    verdict = admissibility_check(setup, u0, h, report)

    outputs = _outputs(args, constants="constants.json")
    _write_report(args, inputs, outputs, "constants", {
        **_fields(report, _CONSTANTS_FIELDS),
        **_fields(verdict, ("r", *_VERDICT_FIELDS)),
    })
    return EXIT_OK


def cmd_probe_loss(args) -> int:
    setup, _, _, inputs = _load_problem(args)
    result = smoothing_loss_probe(setup, setup.U, args.k_max)

    outputs = _outputs(args, modes="loss_probe.csv", summary="loss_probe.json")
    write_loss_probe_csv(result, outputs["modes"])
    _write_report(args, inputs, outputs, "summary", {
        "exponent": result.exponent,
        "k_max": args.k_max,
        "ratio_same_index_k1": result.modes[1].ratio_same_index,
        "ratio_shifted_index_k1": result.modes[1].ratio_shifted_index,
    })
    return EXIT_OK


def cmd_compare_newton(args) -> int:
    setup, h, u0, inputs = _load_problem(args)
    record = newton_solve(setup, u0, h, max_iter=args.max_iter, tol=args.tol,
                          oracle=_oracle(args, setup))
    traj = integrate_flow(setup, u0, h, FlowConfig())

    outputs = _outputs(args, iterations="newton_iterations.csv",
                       flow_trajectory="flow_trajectory.csv",
                       summary="newton_comparison.json")
    write_iteration_csv(record, outputs["iterations"])
    write_trajectory_csv(traj, outputs["flow_trajectory"])
    _write_report(args, inputs, outputs, "summary", {
        "newton": {
            "converged": record.converged,
            "iterations": record.steps[-1].k,
            "final_residual": record.steps[-1].residual,
            "diverged_at": record.diverged_at,
        },
        "flow": _fields(traj, _FLOW_FIELDS),
    })
    return EXIT_OK if record.converged else EXIT_FAILED


def cmd_classical_ift(args) -> int:
    inputs: dict = {}
    if args.p_file is not None:
        inputs["p"] = args.p_file
        p_rhs = _read_input(args, "p")
    else:
        p_rhs = GridFunction.constant(args.p, args.n)
    cfg = ClassicalIFTConfig(m=args.m, epsilon=args.epsilon,
                             max_iter=args.max_iter, tol=args.tol)

    def phi(z: GridFunction) -> GridFunction:
        return z + z * z

    try:
        z = contraction_solve(phi, p_rhs, cfg)
    except (ContractionEscapeError, ConvergenceError) as exc:
        z, payload = None, {"solved": False, "reason": str(exc)}
    else:
        payload = {
            "solved": True,
            "defect": sobolev_norm(phi(z) - p_rhs, 0),
            "z_min": z.min(),
            "z_max": z.max(),
        }
        if args.p_file is None:
            oracle = (-1.0 + math.sqrt(1.0 + 4.0 * args.p)) / 2.0
            payload["oracle"] = oracle
            payload["oracle_max_error"] = float(max(abs(v - oracle) for v in z.values))

    # an input contraction_solve rejects (exit 1) leaves no directory behind
    outputs = _outputs(args, solution="contraction_solution.csv",
                       summary="classical_ift.json")
    if z is not None:
        write_grid_csv(z, outputs["solution"])
    _write_report(args, inputs, outputs, "summary", payload)
    return EXIT_FAILED if z is None else EXIT_OK


# A table, not a parser default: main calls a function rebound here, as by a profiler.
COMMANDS = {
    "solve": cmd_solve,
    "verify": cmd_verify,
    "probe-loss": cmd_probe_loss,
    "compare-newton": cmd_compare_newton,
    "classical-ift": cmd_classical_ift,
}
_PARSER = build_parser()


def main(argv=None) -> int:
    args = _PARSER.parse_args(argv)
    try:
        if args.n < 3:
            raise ValueError(f"--n must be at least 3, got {args.n}")
        for name, value in vars(args).items():
            if isinstance(value, float) and not math.isfinite(value):
                raise ValueError(f"{name} must be finite, got {value!r}")
        # Overflowing data surface as the named non-finite quantity that the
        # commands check for, not as numpy warnings.
        with np.errstate(over="ignore", invalid="ignore", divide="ignore"):
            return COMMANDS[args.command](args)
    except (ValueError, OSError) as exc:
        print(f"dsmflow: error: {exc}", file=sys.stderr)
        return EXIT_USAGE
    except RuntimeError as exc:
        print(f"dsmflow: failed: {exc}", file=sys.stderr)
        return EXIT_FAILED


if __name__ == "__main__":
    sys.exit(main())
