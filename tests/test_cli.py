import argparse
import importlib
import json
import math
import os
import pkgutil
import re
import shlex
import subprocess
import sys
import tempfile
from pathlib import Path

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

import dsmflow
import dsmflow.cli as cli_module
import dsmflow.flow as flow_module
from dsmflow.cli import main
from dsmflow.flow import MAX_STEPS, FlowConfig
from dsmflow.newton_lab import ClassicalIFTConfig
from dsmflow.operators import QuadraticVolterra
from dsmflow.sampling import sample_in_ball
from dsmflow.scale import GridFunction, read_grid_csv, write_grid_csv

from oracles import quadratic_formula_root


def run(*argv):
    return main([str(a) for a in argv])


def load(path):
    with open(path) as handle:
        return json.load(handle)


def load_strict(path):
    """Load a JSON report, failing on NaN or Infinity (not strict JSON)."""
    def reject(constant):
        raise ValueError(f"{path}: non-strict JSON constant {constant}")
    with open(path) as handle:
        return json.load(handle, parse_constant=reject)


def write_linear_h(path, scale, n=201):
    write_grid_csv(GridFunction(scale * np.linspace(0.0, 1.0, n)), path)


# --- solve -------------------------------------------------------------------

def test_solve_scaled_linear_family(tmp_path):
    code = run("solve", "--operator", "volterra-quadratic", "--n", 201,
               "--h-family", "scaled-linear", "--param", 1.1,
               "--dt", 0.05, "--t-max", 30, "--out-dir", tmp_path)
    assert code == 0
    summary = load(tmp_path / "solve_summary.json")
    assert summary["stop_reason"] == "converged"
    assert -1.05 <= summary["decay_slope"] <= -0.95
    assert summary["decay_r_squared"] >= 0.999
    final = read_grid_csv(tmp_path / "final_u.csv")
    assert np.max(np.abs(final.values - 1.1)) <= 1e-4
    lines = (tmp_path / "trajectory.csv").read_text().splitlines()
    assert lines[0] == "t,g,dist_u0,dist_U"


def test_flow_reports_count_steps_and_velocities(tmp_path, monkeypatch):
    # h = 1.21 x at n = 201 in fixed steps of 0.05: 341 RK4 steps of 4 velocities
    monkeypatch.setattr(flow_module, "GROW_TOL", -1.0)  # no step grows
    assert run("solve", "--h-family", "scaled-linear", "--param", 1.1,
               "--out-dir", tmp_path) == 0
    assert run("compare-newton", "--h-family", "scaled-linear", "--param", 1.1,
               "--out-dir", tmp_path) == 0
    for flow in (load(tmp_path / "solve_summary.json"),
                 load(tmp_path / "newton_comparison.json")["flow"]):
        assert (flow["steps"], flow["vf_evals"]) == (341, 1364)


def test_flow_reports_grow_the_step_and_pin_the_decay_ratio(tmp_path):
    # the same run with steps growing from 0.05 while the error estimate is at
    # most GROW_TOL * g; at 0.8 it is not, and the steps alternate 0.4 and 0.8
    assert run("solve", "--h-family", "scaled-linear", "--param", 1.1,
               "--out-dir", tmp_path) == 0
    assert run("compare-newton", "--h-family", "scaled-linear", "--param", 1.1,
               "--out-dir", tmp_path) == 0
    for flow in (load(tmp_path / "solve_summary.json"),
                 load(tmp_path / "newton_comparison.json")["flow"]):
        assert (flow["steps"], flow["vf_evals"]) == (31, 124)
        assert flow["decay_ratio"] == pytest.approx(1.0053514, abs=1e-7)


def write_stall_h(path):
    """h = F(V) for a V drawn at radius 0.02: the default solve stalls near
    g = 1.5e-7, above eps_abs, and stops at the horizon."""
    V = sample_in_ball(np.random.default_rng(1), GridFunction.constant(1.0, 201), 0.02, 1)
    write_grid_csv(QuadraticVolterra().eval(V), path)


def test_stalled_solve_grows_the_step_and_reports_the_stall(tmp_path):
    write_stall_h(tmp_path / "h.csv")
    flows = []
    for grow_tol in (-1.0, flow_module.GROW_TOL):  # no step grows, then the default
        out = tmp_path / str(grow_tol)
        with pytest.MonkeyPatch.context() as patch:
            patch.setattr(flow_module, "GROW_TOL", grow_tol)
            assert run("solve", "--h-file", tmp_path / "h.csv", "--out-dir", out) == 2
        flows.append(load(out / "solve_summary.json"))
    fixed, grown = flows
    for flow in (fixed, grown):
        assert flow["stop_reason"] == "horizon" and flow["final_t"] == 30.0
    # the error estimate keeps growing the step where g no longer falls
    assert fixed["steps"] == 600 and grown["steps"] <= 45
    assert grown["g_final"] == pytest.approx(fixed["g_final"], rel=1e-3)
    # g has stopped falling like e^{-t}, and the report shows it
    assert grown["decay_ratio"] > 1.0 + flow_module.GROW_TOL


def test_solve_trivial_inputs_converge_immediately(tmp_path):
    n = 201
    op = QuadraticVolterra()
    U = GridFunction.constant(1.0, n)
    write_grid_csv(U, tmp_path / "u0.csv")
    write_grid_csv(op.eval(U), tmp_path / "h.csv")
    code = run("solve", "--n", n, "--u0-file", tmp_path / "u0.csv",
               "--h-file", tmp_path / "h.csv", "--out-dir", tmp_path)
    assert code == 0
    summary = load(tmp_path / "solve_summary.json")
    assert summary["g0"] == 0.0
    assert summary["final_t"] == 0.0
    assert summary["decay_slope"] is None
    assert summary["decay_ratio"] is None


def test_solve_inadmissible_target_exits_2(tmp_path):
    code = run("solve", "--h-family", "quadratic-perturb", "--param", -2.0,
               "--enforce-ball", "--out-dir", tmp_path)
    assert code == 2
    summary = load(tmp_path / "solve_summary.json")
    assert summary["stop_reason"] in ("ball_exit", "degenerate")
    assert not summary["admissible"]


def test_solve_non_converged_horizon_exits_2(tmp_path):
    code = run("solve", "--h-family", "scaled-linear", "--param", 1.1,
               "--t-max", 1.0, "--out-dir", tmp_path)
    assert code == 2
    assert load(tmp_path / "solve_summary.json")["stop_reason"] == "horizon"


# --- verify ------------------------------------------------------------------

CONTRACT_KEYS = {"c0_lower", "c0_upper", "c_iso", "c_lip", "rho0", "r",
                 "sample_count", "seed", "skipped", "admissible", "margin"}


def test_verify_volterra_reference_run(tmp_path):
    code = run("verify", "--operator", "volterra-quadratic", "--radius", 0.05,
               "--samples", 200, "--seed", 42, "--out-dir", tmp_path)
    assert code == 0
    report = load(tmp_path / "constants.json")
    assert CONTRACT_KEYS <= set(report)
    assert 1.7 <= report["c0_lower"] <= 2.0
    assert 2.0 <= report["c0_upper"] <= 2.9
    assert report["r"] == 0.0 and report["admissible"] is True


@pytest.mark.parametrize("command, report", [("solve", "solve_summary.json"),
                                             ("verify", "constants.json")])
def test_reports_carry_the_radius_check(tmp_path, command, report):
    rng = np.random.default_rng(3)
    U = GridFunction.constant(1.0, 201)
    write_grid_csv(sample_in_ball(rng, U, 0.01, 1), tmp_path / "u0.csv")
    write_grid_csv(QuadraticVolterra().eval(sample_in_ball(rng, U, 0.01, 1)),
                   tmp_path / "h.csv")
    out = tmp_path / "out"
    assert run(command, "--samples", 50, "--u0-file", tmp_path / "u0.csv",
               "--h-file", tmp_path / "h.csv", "--out-dir", out) in (0, 2)
    got = load(out / report)
    setup = dsmflow.ProblemSetup.from_reference(QuadraticVolterra(), U, 0.05)
    verdict = dsmflow.admissibility_check(
        setup, read_grid_csv(tmp_path / "u0.csv"), read_grid_csv(tmp_path / "h.csv"),
        dsmflow.estimate_constants(setup, 50, 0))
    want = {key: getattr(verdict, key)
            for key in ("dist_u0", "dist_h", "R_required", "radius_ok", "margin")}
    assert {key: got[key] for key in want} == want
    assert 0.0 < got["dist_u0"] <= 0.01 and got["radius_ok"] is True


FLOW_KEYS = {"stop_reason", "final_t", "g0", "g_final", "steps", "vf_evals", "decay_ratio"}
RADIUS_KEYS = {"dist_u0", "dist_h", "R_required", "radius_ok"}


def test_reports_hold_exactly_their_keys(tmp_path):
    assert run("solve", "--samples", 10, "--out-dir", tmp_path) == 0
    assert run("verify", "--samples", 10, "--out-dir", tmp_path) == 0
    assert run("compare-newton", "--out-dir", tmp_path) == 0
    solve = load(tmp_path / "solve_summary.json")
    assert set(solve) == FLOW_KEYS | RADIUS_KEYS | {
        "decay_slope", "decay_r_squared", "r_bound", "admissible", "rho0", "margin",
        "manifest"}
    assert set(load(tmp_path / "constants.json")) == CONTRACT_KEYS | RADIUS_KEYS | {
        "manifest"}
    comparison = load(tmp_path / "newton_comparison.json")
    assert set(comparison) == {"newton", "flow", "manifest"}
    assert set(comparison["newton"]) == {"converged", "iterations", "final_residual",
                                         "diverged_at"}
    assert set(comparison["flow"]) == FLOW_KEYS


def test_verify_linear_smoothing(tmp_path):
    code = run("verify", "--operator", "linear-smoothing", "--samples", 50,
               "--seed", 1, "--out-dir", tmp_path)
    assert code == 0
    report = load(tmp_path / "constants.json")
    assert report["c_lip"] == 0.0
    assert abs(report["c_iso"] - 1.0) <= 5e-3


def test_verify_deterministic_bytes(tmp_path):
    argv = ("verify", "--samples", 50, "--seed", 3, "--out-dir", tmp_path)
    assert run(*argv) == 0
    first = (tmp_path / "constants.json").read_bytes()
    assert run(*argv) == 0
    assert (tmp_path / "constants.json").read_bytes() == first


def test_solve_deterministic_bytes(tmp_path):
    argv = ("solve", "--h-family", "quadratic-perturb", "--param", 0.05,
            "--seed", 9, "--out-dir", tmp_path)
    names = ("solve_summary.json", "trajectory.csv", "final_u.csv")
    assert run(*argv) == 0
    first = {name: (tmp_path / name).read_bytes() for name in names}
    assert run(*argv) == 0
    for name in names:
        assert (tmp_path / name).read_bytes() == first[name]


# Runs whose artifacts are each longer than those of the run after them:
# every writer (grid, trajectory, Newton-iterations and loss-probe CSVs,
# JSON reports) writes shorter content over a longer file.
RERUNS = {
    "solve": (["solve", "--h-file", "h.csv"], ["solve"]),
    "compare-newton": (["compare-newton", "--h-file", "h.csv"], ["compare-newton"]),
    "probe-loss": (["probe-loss"], ["probe-loss", "--k-max", 8]),
}


@pytest.mark.parametrize("first, second", RERUNS.values(), ids=RERUNS.keys())
def test_a_rerun_over_longer_artifacts_leaves_the_bytes_of_a_fresh_run(
        tmp_path, monkeypatch, first, second):
    monkeypatch.chdir(tmp_path)  # the manifests name the same relative paths
    write_stall_h(tmp_path / "h.csv")
    run(*first, "--out-dir", "out")
    older = {p.name: p.stat().st_size for p in Path("out").iterdir()}
    opened, real_open = [], os.open

    def spy(file, flags, *args, **kwargs):
        opened.append((os.path.basename(file), flags))
        return real_open(file, flags, *args, **kwargs)

    with monkeypatch.context() as patch:
        patch.setattr(os, "open", spy)
        code = run(*second, "--out-dir", "out")
    Path("out").rename("rerun")
    assert run(*second, "--out-dir", "out") == code
    fresh = {p.name: p.read_bytes() for p in Path("out").iterdir()}
    assert {p.name: p.read_bytes() for p in Path("rerun").iterdir()} == fresh
    assert sorted(older) == sorted(fresh)
    assert all(len(fresh[name]) < size for name, size in older.items())
    # each artifact is overwritten in place and cut, never truncated to
    # zero first, which costs a flush at close on ext4
    assert sorted(name for name, _ in opened) == sorted(fresh)
    assert not any(flags & os.O_TRUNC for _, flags in opened)


@pytest.mark.skipif(not os.path.exists(os.devnull), reason="no null device")
def test_artifacts_linked_to_the_null_device_are_written_through(tmp_path):
    out = tmp_path / "out"
    out.mkdir()
    names = ("solve_summary.json", "trajectory.csv", "final_u.csv")
    for name in names:
        (out / name).symlink_to(os.devnull)
    assert run("solve", "--h-family", "scaled-linear", "--param", 1.1, "--out-dir", out) == 0
    assert all((out / name).is_symlink() for name in names)


# --- probe-loss ----------------------------------------------------------------

def test_probe_loss_exponent_window(tmp_path):
    code = run("probe-loss", "--k-max", 32, "--n", 401, "--out-dir", tmp_path)
    assert code == 0
    assert 0.9 <= load(tmp_path / "loss_probe.json")["exponent"] <= 1.1
    lines = (tmp_path / "loss_probe.csv").read_text().splitlines()
    assert lines[0] == "k,ratio_same_index,ratio_shifted_index"
    assert len(lines) == 34  # header + modes 0..32


@pytest.mark.parametrize("operator", ["volterra-quadratic", "linear-smoothing"])
def test_probe_loss_with_one_mode_exits_1_naming_k_max(tmp_path, capfd, operator):
    out = tmp_path / "out"
    code = run("probe-loss", "--k-max", 1, "--operator", operator, "--out-dir", out)
    assert code == 1
    # capfd sees the process's own streams, where LAPACK would complain
    captured = capfd.readouterr()
    assert captured.out == ""
    err = captured.err.splitlines()
    assert len(err) == 1 and "k_max" in err[0]
    assert not out.exists()


# --- compare-newton ---------------------------------------------------------------

def test_compare_newton_heron_case(tmp_path):
    code = run("compare-newton", "--h-family", "scaled-linear", "--param", 1.1,
               "--out-dir", tmp_path)
    assert code == 0
    summary = load(tmp_path / "newton_comparison.json")
    assert summary["newton"]["converged"] is True
    assert summary["newton"]["iterations"] <= 6
    assert summary["newton"]["final_residual"] <= 1e-10
    assert summary["flow"]["stop_reason"] == "converged"
    lines = (tmp_path / "newton_iterations.csv").read_text().splitlines()
    assert lines[0] == "k,residual,dist_to_oracle"
    assert not lines[1].endswith(",")  # oracle column filled for families


def newton_oracle_column(tmp_path, *argv):
    assert run("compare-newton", *argv, "--out-dir", tmp_path) in (0, 2)
    lines = (tmp_path / "newton_iterations.csv").read_text().splitlines()
    return [line.split(",")[2] for line in lines[1:]]


@pytest.mark.parametrize("operator", ["volterra-quadratic", "linear-smoothing"])
@pytest.mark.parametrize("h_flags", [
    pytest.param((), id="default"),
    pytest.param(("--h-family", "scaled-linear", "--param", 1.1), id="scaled-linear"),
    pytest.param(("--h-family", "quadratic-perturb", "--param", 0.2),
                 id="quadratic-perturb"),
])
def test_compare_newton_oracle_is_the_analytic_solution(tmp_path, operator, h_flags):
    column = newton_oracle_column(tmp_path, "--operator", operator, *h_flags)
    assert all(column)
    # Newton reaches the discrete solution, which is O(dx^2) from the analytic one.
    assert float(column[-1]) <= 1e-5


@pytest.mark.parametrize("h_flags", [
    pytest.param(("--h-family", "quadratic-perturb", "--param", -0.7),
                 id="no-real-solution"),  # 1 + 2p < 0
    pytest.param(("--h-file", "h.csv"), id="h-file"),
])
def test_compare_newton_oracle_column_empty(tmp_path, monkeypatch, h_flags):
    monkeypatch.chdir(tmp_path)
    write_grid_csv(QuadraticVolterra().eval(GridFunction.constant(1.05, 201)), "h.csv")
    column = newton_oracle_column(tmp_path, *h_flags)
    assert column and not any(column)


# --- classical-ift -----------------------------------------------------------------

def test_classical_ift_constant_rhs(tmp_path):
    code = run("classical-ift", "--p", 0.1, "--out-dir", tmp_path)
    assert code == 0
    summary = load(tmp_path / "classical_ift.json")
    assert summary["solved"] is True
    assert summary["oracle"] == pytest.approx(quadratic_formula_root(0.1), abs=1e-15)
    assert summary["oracle_max_error"] <= 1e-10
    z = read_grid_csv(tmp_path / "contraction_solution.csv")
    assert np.max(np.abs(z.values - quadratic_formula_root(0.1))) <= 1e-10


def test_classical_ift_rhs_too_large_is_usage_error(tmp_path):
    assert run("classical-ift", "--p", 0.2, "--out-dir", tmp_path) == 1


@pytest.mark.parametrize("flags, code", [(("--p", 0.2, "--epsilon", 0.3), 1),
                                         (("--p", 0.1, "--max-iter", 1), 2)])
def test_classical_ift_creates_out_dir_only_for_a_report(tmp_path, flags, code):
    out = tmp_path / "out"
    assert run("classical-ift", *flags, "--out-dir", out) == code
    if code == 1:  # rejected input: no report and no directory
        assert not out.exists()
    else:
        summary = load(out / "classical_ift.json")
        assert summary["solved"] is False
        assert summary["reason"] == "no fixed point within 1 iterations"
        assert sorted(p.name for p in out.iterdir()) == ["classical_ift.json"]


def test_classical_ift_p_file_off_the_grid_exits_1_naming_it(tmp_path, capsys):
    small = tmp_path / "p.csv"
    write_grid_csv(GridFunction.constant(0.1, 51), small)
    out = tmp_path / "out"
    assert run("classical-ift", "--p-file", small, "--out-dir", out) == 1
    assert capsys.readouterr().err.splitlines() == [
        f"dsmflow: error: --p-file {small} has 51 nodes, but --n is 201"]
    assert not out.exists()
    assert run("classical-ift", "--p-file", small, "--n", 51, "--out-dir", out) == 0
    assert load(out / "classical_ift.json")["manifest"]["n"] == 51


# --- manifest and error handling ----------------------------------------------------

@pytest.mark.parametrize("argv, report, fields", [
    pytest.param(
        ("solve", "--h-family", "scaled-linear", "--samples", 10, "--seed", 4),
        "solve_summary.json", {"operator": "volterra-quadratic", "n": 201, "seed": 4},
        id="solve"),
    pytest.param(
        ("verify", "--samples", 50, "--seed", 4),
        "constants.json", {"operator": "volterra-quadratic", "n": 201, "seed": 4},
        id="verify"),
    pytest.param(
        ("probe-loss", "--k-max", 4, "--n", 101, "--operator", "linear-smoothing"),
        "loss_probe.json", {"operator": "linear-smoothing", "n": 101, "seed": 0},
        id="probe-loss"),
    pytest.param(
        ("compare-newton", "--h-family", "quadratic-perturb", "--param", 0.1),
        "newton_comparison.json", {"operator": "volterra-quadratic", "n": 201, "seed": 0},
        id="compare-newton"),
    pytest.param(
        ("classical-ift", "--p", 0.1, "--n", 51),
        "classical_ift.json", {"operator": None, "n": 51, "seed": None},
        id="classical-ift"),
])
def test_manifest_embedded_in_reports(tmp_path, argv, report, fields):
    assert run(*argv, "--out-dir", tmp_path) in (0, 2)
    manifest = load(tmp_path / report)["manifest"]
    assert manifest["command"] == argv[0]
    assert {key: manifest[key] for key in fields} == fields
    assert manifest["version"]
    outputs = {Path(path) for path in manifest["output_files"].values()}
    assert outputs == set(tmp_path.iterdir())
    if argv[0] == "verify":
        assert "constants" in manifest["output_files"]
        assert manifest["parameters"]["samples"] == 50


@pytest.mark.parametrize("argv, report, key, value", [
    pytest.param(("solve", "--samples", 10), "solve_summary.json", "param", None,
                 id="solve"),
    pytest.param(("solve", "--samples", 10, "--h-family", "scaled-linear"),
                 "solve_summary.json", "param", 1.1, id="solve-h-family"),
    pytest.param(("verify", "--samples", 10), "constants.json", "param", None,
                 id="verify"),
    pytest.param(("verify", "--samples", 10, "--h-family", "quadratic-perturb",
                  "--param", 0.2), "constants.json", "param", 0.2, id="verify-h-family"),
    pytest.param(("compare-newton", "--max-iter", 2), "newton_comparison.json", "param",
                 None, id="compare-newton"),
    pytest.param(("compare-newton", "--max-iter", 2, "--h-family", "scaled-linear"),
                 "newton_comparison.json", "param", 1.1, id="compare-newton-h-family"),
    pytest.param(("classical-ift", "--p-file", "p.csv"), "classical_ift.json", "p", None,
                 id="classical-ift-p-file"),
    pytest.param(("classical-ift", "--p", 0.05), "classical_ift.json", "p", 0.05,
                 id="classical-ift-p"),
    pytest.param(("verify", "--samples", 10), "constants.json", "u_min", 0.1,
                 id="verify-u-min"),
    pytest.param(("verify", "--samples", 10, "--operator", "linear-smoothing"),
                 "constants.json", "u_min", None, id="verify-linear-smoothing"),
    pytest.param(("solve", "--samples", 10, "--operator", "linear-smoothing"),
                 "solve_summary.json", "u_min", None, id="solve-linear-smoothing"),
])
def test_manifest_records_only_the_flags_the_run_read(tmp_path, argv, report, key, value):
    # a default the run never read, such as --p beside --p-file, --param
    # without --h-family or --u-min with linear-smoothing, would claim an
    # input the run did not use
    write_grid_csv(GridFunction.constant(0.05, 21), tmp_path / "p.csv")
    argv = [tmp_path / a if a == "p.csv" else a for a in argv]
    assert run(*argv, "--n", 21, "--out-dir", tmp_path / "out") in (0, 2)
    parameters = load(tmp_path / "out" / report)["manifest"]["parameters"]
    assert parameters.get(key) == value and (key in parameters) == (value is not None)


def test_main_reuses_its_parser_and_dispatches_through_the_command_table(monkeypatch):
    # a wrapper rebound in COMMANDS, as the traced benchmark installs, is
    # the function main calls
    def rebuilt():
        raise AssertionError("main built a new parser")

    seen = []

    def verify(args):
        seen.append(args.samples)
        return 0

    monkeypatch.setattr(cli_module, "build_parser", rebuilt)
    monkeypatch.setitem(cli_module.COMMANDS, "verify", verify)
    assert run("verify", "--samples", 7) == 0
    assert seen == [7]


def test_missing_input_file_exits_1(tmp_path):
    assert run("solve", "--h-file", tmp_path / "nope.csv",
               "--out-dir", tmp_path) == 1


def test_malformed_csv_exits_1(tmp_path):
    bad = tmp_path / "bad.csv"
    bad.write_text("x,value\n0,1\n0.7,2\n1,3\n")
    assert run("solve", "--h-file", bad, "--out-dir", tmp_path) == 1


def test_csv_with_a_nan_node_exits_1_naming_it(tmp_path, capsys):
    bad = tmp_path / "bad.csv"
    bad.write_text("x,value\n0,0\n0.25,0.25\nnan,0.5\n0.75,0.75\n1,1\n")
    out = tmp_path / "out"
    assert run("solve", "--n", 5, "--h-file", bad, "--out-dir", out) == 1
    assert capsys.readouterr().err.splitlines() == [
        f"dsmflow: error: {bad}: line 4: non-finite entry in nan,0.5"]
    assert not out.exists()


def test_csv_with_uneven_spacing_exits_1_naming_it(tmp_path, capsys):
    # node 100 off by 1e-10 passes the 1e-9 position check, not the spacing check
    x = np.linspace(0.0, 1.0, 201)
    x[100] += 1e-10
    bad = tmp_path / "bad.csv"
    bad.write_text("x,value\n" + "".join(f"{v:.17g},1\n" for v in x))
    out = tmp_path / "out"
    assert run("solve", "--h-file", bad, "--out-dir", out) == 1
    assert capsys.readouterr().err.splitlines() == [
        f"dsmflow: error: {bad}: non-uniform node spacing"]
    assert not out.exists()


@pytest.mark.parametrize("order", [1, -1])
@pytest.mark.parametrize("command", ["solve", "verify", "compare-newton"])
def test_conflicting_h_flags_exit_1(tmp_path, capsys, command, order):
    good = tmp_path / "h.csv"
    write_grid_csv(GridFunction.constant(1.0, 201), good)
    out = tmp_path / "out"
    flags = [("--h-file", good), ("--h-family", "scaled-linear")][::order]
    with pytest.raises(SystemExit) as excinfo:
        run(command, *flags[0], *flags[1], "--out-dir", out)
    assert excinfo.value.code == 1
    first, second = (name for name, _ in flags)
    assert (f"error: argument {second}: not allowed with argument {first}"
            in capsys.readouterr().err)
    assert not out.exists()


def test_parser_defaults_are_the_dataclass_defaults():
    parse = cli_module.build_parser().parse_args
    solve, ift = parse(["solve"]), parse(["classical-ift"])
    for args, config, names in [
            (solve, FlowConfig, ("scheme", "dt", "t_max", "eps_rel", "eps_abs")),
            (ift, ClassicalIFTConfig, ("m", "epsilon", "max_iter", "tol"))]:
        for name in names:
            default = getattr(config(), name)
            assert (getattr(args, name), type(getattr(args, name))) == (default, type(default))
    for command in ("solve", "verify", "probe-loss", "compare-newton"):
        assert parse([command]).u_min == QuadraticVolterra().u_min


@pytest.mark.parametrize("order", [1, -1])
def test_p_and_p_file_are_mutually_exclusive(tmp_path, capsys, order):
    p_file = tmp_path / "p.csv"
    write_grid_csv(GridFunction.constant(0.09, 201), p_file)
    out = tmp_path / "out"
    flags = [("--p", 0.09), ("--p-file", p_file)][::order]
    with pytest.raises(SystemExit) as excinfo:
        run("classical-ift", *flags[0], *flags[1], "--out-dir", out)
    assert excinfo.value.code == 1
    first, second = (name for name, _ in flags)
    assert (f"error: argument {second}: not allowed with argument {first}"
            in capsys.readouterr().err)
    assert not out.exists()


def test_unknown_operator_exits_1(tmp_path, capsys):
    with pytest.raises(SystemExit) as excinfo:
        run("solve", "--operator", "nope", "--out-dir", tmp_path)
    assert excinfo.value.code == 1


def test_record_stride_is_not_a_flag(tmp_path, capsys):
    # the trajectory records every accepted step; no flag thins it
    out = tmp_path / "out"
    with pytest.raises(SystemExit) as excinfo:
        run("solve", "--record-stride", 3, "--out-dir", out)
    assert excinfo.value.code == 1
    assert "unrecognized arguments: --record-stride 3" in capsys.readouterr().err
    assert not out.exists()


def test_grid_size_mismatch_exits_1(tmp_path):
    small = tmp_path / "u0.csv"
    write_grid_csv(GridFunction.constant(1.0, 101), small)
    assert run("solve", "--n", 201, "--u0-file", small,
               "--h-family", "scaled-linear", "--out-dir", tmp_path) == 1


@pytest.mark.parametrize("command", ["solve", "verify", "compare-newton"])
@pytest.mark.parametrize("flag", ["--h-file", "--u0-file"])
def test_input_file_off_the_grid_exits_1_naming_it(tmp_path, capsys, command, flag):
    small = tmp_path / "small.csv"
    write_grid_csv(GridFunction.constant(1.0, 101), small)
    out = tmp_path / "out"
    assert run(command, flag, small, "--out-dir", out) == 1
    assert capsys.readouterr().err.splitlines() == [
        f"dsmflow: error: {flag} {small} has 101 nodes, but --n is 201"]
    assert not out.exists()


@pytest.mark.parametrize("command", ["solve", "verify"])
def test_negative_seed_exits_1_naming_it(tmp_path, capsys, command):
    out = tmp_path / "out"
    assert run(command, "--seed", -1, "--out-dir", out) == 1
    assert capsys.readouterr().err.splitlines() == [
        "dsmflow: error: seed must be a non-negative integer, got -1"]
    assert not out.exists()


@pytest.mark.parametrize("command", ["solve", "verify", "probe-loss", "compare-newton",
                                     "classical-ift"])
@pytest.mark.parametrize("n", [-5, 0, 2])
def test_grid_below_three_nodes_exits_1_naming_n(tmp_path, capsys, command, n):
    out = tmp_path / "out"
    assert run(command, "--n", n, "--out-dir", out) == 1
    assert capsys.readouterr().err.splitlines() == [
        f"dsmflow: error: --n must be at least 3, got {n}"]
    assert not out.exists()


@pytest.mark.parametrize("command", ["solve", "verify", "compare-newton"])
@pytest.mark.parametrize("param", ["1e200", "-1e200"])
def test_overflowing_family_parameter_exits_1_naming_param(tmp_path, capsys, command, param):
    out = tmp_path / "out"
    assert run(command, "--h-family", "scaled-linear", f"--param={param}",
               "--out-dir", out) == 1
    assert capsys.readouterr().err.splitlines() == [
        f"dsmflow: error: --param {float(param)!r} makes the scaled-linear right-hand "
        "side overflow"]
    assert not out.exists()


@pytest.mark.parametrize("command", ["compare-newton", "classical-ift"])
def test_negative_tol_exits_1_naming_it(tmp_path, capsys, command):
    out = tmp_path / "out"
    assert run(command, "--tol", -1, "--out-dir", out) == 1
    assert capsys.readouterr().err.splitlines() == [
        "dsmflow: error: tol must be nonnegative, got -1.0"]
    assert not out.exists()


@pytest.mark.parametrize("argv, field", [
    (("solve", "--t-max", "inf"), "t_max"),
    (("solve", "--dt", "nan"), "dt"),
    (("solve", "--eps-rel", "nan"), "eps_rel"),
    (("solve", "--eps-abs", "nan"), "eps_abs"),
    (("solve", "--u-min", "nan"), "u_min"),
    (("verify", "--radius", "nan"), "radius"),
    (("classical-ift", "--m", "inf"), "m"),
    (("classical-ift", "--epsilon", "nan"), "epsilon"),
    (("classical-ift", "--tol", "nan"), "tol"),
    (("solve", "--h-family", "scaled-linear", "--param", "nan"), "param"),
    (("classical-ift", "--p", "nan"), "p"),
    (("compare-newton", "--tol", "nan"), "tol"),
    (("verify", "--operator", "linear-smoothing", "--u-min", "nan"), "u_min"),
])
def test_non_finite_flag_exits_1_naming_field(tmp_path, capsys, argv, field):
    assert run(*argv, "--out-dir", tmp_path) == 1
    err = capsys.readouterr().err
    assert err.startswith("dsmflow: error: ")
    assert f"{field} must be" in err
    assert not list(tmp_path.iterdir())


def _subparsers():
    """Each command's name mapped to its parser."""
    return next(a for a in cli_module.build_parser()._actions
                if isinstance(a, argparse._SubParsersAction)).choices


def _float_flags():
    """(command, flag, dest) for every float-typed flag of every command."""
    return [(command, action.option_strings[0], action.dest)
            for command, subparser in _subparsers().items()
            for action in subparser._actions if action.type is float]


@pytest.mark.parametrize("value", ["nan", "inf"])
@pytest.mark.parametrize("command, flag, dest", _float_flags())
def test_every_float_flag_rejects_non_finite_values(tmp_path, capsys, command, flag, dest,
                                                    value):
    out = tmp_path / "out"
    assert run(command, flag, value, "--out-dir", out) == 1
    assert capsys.readouterr().err.splitlines() == [
        f"dsmflow: error: {dest} must be finite, got {float(value)!r}"]
    assert not out.exists()


# --- overflowing data ----------------------------------------------------------

@pytest.mark.filterwarnings("ignore::RuntimeWarning")
def test_verify_overflowing_h_exits_1_without_report(tmp_path, capsys):
    write_linear_h(tmp_path / "h.csv", 1e160)
    out = tmp_path / "out"
    assert run("verify", "--h-file", tmp_path / "h.csv", "--samples", 20,
               "--out-dir", out) == 1
    assert capsys.readouterr().err.startswith("dsmflow: error: dist_h is not finite")
    assert not out.exists()


@pytest.mark.filterwarnings("ignore::RuntimeWarning")
@pytest.mark.parametrize("command", ["solve", "compare-newton"])
@pytest.mark.parametrize("scale, code", [(1e100, 2), (1e160, 1), (1e200, 1)])
def test_overflowing_h_exits_1_and_large_h_stops_degenerate(tmp_path, capsys,
                                                             command, scale, code):
    write_linear_h(tmp_path / "h.csv", scale)
    out = tmp_path / "out"
    extra = ("--samples", 20) if command == "solve" else ()
    assert run(command, "--h-file", tmp_path / "h.csv", *extra, "--out-dir", out) == code
    if code == 1:
        assert capsys.readouterr().err.startswith("dsmflow: error: ")
        assert not out.exists()
        return
    reports = sorted(out.glob("*.json"))
    assert len(reports) == 1
    summary = load_strict(reports[0])
    flow = summary if command == "solve" else summary["flow"]
    assert flow["stop_reason"] == "degenerate"


# --- property: solve never fails with a traceback ------------------------------

def _flag_values(finite):
    return st.one_of(finite, st.sampled_from([1e300, -1e300, math.nan, math.inf, -math.inf]))


_FLOATS = st.floats(allow_nan=False, allow_infinity=False)


@settings(max_examples=30, deadline=None)
@given(param=_flag_values(_FLOATS), radius=_flag_values(_FLOATS),
       u_min=_flag_values(_FLOATS), dt=_flag_values(_FLOATS))
def test_solve_flags_exit_cleanly_with_strict_json(param, radius, u_min, dt):
    with tempfile.TemporaryDirectory() as tmp:
        out = Path(tmp)
        code = run("solve", "--n", 21, "--samples", 10, "--h-family", "scaled-linear",
                   f"--param={param!r}", f"--radius={radius!r}",
                   f"--u-min={u_min!r}", f"--dt={dt!r}", "--out-dir", out)
        assert code in (0, 1, 2)
        if 0.0 < dt and 30.0 / dt > MAX_STEPS + 0.5:
            assert code == 1
            assert not list(out.iterdir())
        for report in out.glob("*.json"):
            load_strict(report)


def test_solve_tiny_dt_exits_1_naming_dt_and_t_max(tmp_path, capsys):
    out = tmp_path / "out"
    assert run("solve", "--dt", "1e-300", "--out-dir", out) == 1
    err = capsys.readouterr().err
    assert err.startswith("dsmflow: error: t_max 30.0 / dt 1e-300 asks for 3e+301 steps")
    assert not out.exists()


def test_overflow_prints_only_the_error_line(tmp_path):
    write_linear_h(tmp_path / "h.csv", 1e154, n=21)
    env = {**os.environ, "PYTHONPATH": str(Path(dsmflow.__file__).parents[1])}
    proc = subprocess.run(
        [sys.executable, "-m", "dsmflow.cli", "solve", "--n", "21", "--samples", "10",
         "--h-file", str(tmp_path / "h.csv"), "--out-dir", str(tmp_path / "out")],
        capture_output=True, text=True, env=env, timeout=120)
    assert proc.returncode == 1
    assert proc.stderr == "dsmflow: error: dist_h is not finite: inf\n"
    assert proc.stdout == ""


# --- property: verify never fails with a traceback -----------------------------

@settings(max_examples=30, deadline=None)
@given(operator=st.sampled_from(["volterra-quadratic", "linear-smoothing"]),
       samples=st.integers(min_value=-20, max_value=120),
       radius=_flag_values(_FLOATS), u_min=_flag_values(_FLOATS),
       seed=st.integers(min_value=-5, max_value=2**70))
def test_verify_flags_exit_cleanly_with_strict_json(operator, samples, radius, u_min, seed):
    with tempfile.TemporaryDirectory() as tmp:
        out = Path(tmp)
        code = run("verify", "--n", 21, "--operator", operator, "--samples", samples,
                   f"--radius={radius!r}", f"--u-min={u_min!r}", "--seed", seed,
                   "--out-dir", out)
        assert code in (0, 1, 2)
        reports = list(out.glob("*.json"))
        assert len(reports) == (code == 0)
        for report in reports:
            load_strict(report)


def test_verify_with_every_sample_guarded_exits_2(tmp_path, capsys):
    # U = 1 lies below the guard u_min = 2, so every sample trips it
    out = tmp_path / "out"
    assert run("verify", "--n", 21, "--samples", 30, "--u-min", 2, "--out-dir", out) == 2
    assert capsys.readouterr().err == (
        "dsmflow: failed: all 30 samples tripped the operator guard\n")
    assert not out.exists()


def test_verify_non_finite_constant_exits_1(tmp_path, capsys):
    out = tmp_path / "out"
    assert run("verify", "--n", 21, "--samples", 10, "--operator", "linear-smoothing",
               "--radius", 1e300, "--out-dir", out) == 1
    assert capsys.readouterr().err.startswith("dsmflow: error: c_lip is not finite")
    assert not out.exists()


@pytest.mark.parametrize("flags", [
    # ||u - v|| overflows: verify exits 1 naming c_lip, which solve does not report
    ("--operator", "linear-smoothing", "--radius", 1e300),
    # sampled u and v coincide: only the Lipschitz ratio divides by their distance
    ("--radius", 1e-300),
], ids=["huge-radius", "tiny-radius"])
def test_solve_does_not_fail_on_constants_it_does_not_report(tmp_path, flags):
    assert run("solve", "--n", 21, *flags, "--out-dir", tmp_path) == 0
    summary = load_strict(tmp_path / "solve_summary.json")
    assert summary["admissible"] and 0.0 < summary["rho0"] < float(flags[-1])
    assert "c_lip" not in summary and "c_iso" not in summary


@pytest.mark.parametrize("command, kwargs, samples_inverted", [
    ("solve", {"bracket_only": True}, False),
    ("verify", {}, True),
])
def test_only_verify_pays_for_inverses_in_its_constants(tmp_path, monkeypatch, command,
                                                        kwargs, samples_inverted):
    calls, inverses, inside = [], [], []
    estimate = cli_module.estimate_constants
    solve_derivative = QuadraticVolterra.solve_derivative

    def recording_estimate(*args, **kw):
        calls.append(kw)
        inside.append(True)
        try:
            return estimate(*args, **kw)
        finally:
            inside.pop()

    def counting_solve(self, *args, **kw):
        if inside:
            inverses.append(1)
        return solve_derivative(self, *args, **kw)

    monkeypatch.setattr(cli_module, "estimate_constants", recording_estimate)
    monkeypatch.setattr(QuadraticVolterra, "solve_derivative", counting_solve)
    assert run(command, "--n", 201, "--samples", 50, "--out-dir", tmp_path) == 0
    assert calls == [kwargs]
    assert bool(inverses) == samples_inverted


# --- property: probe-loss, compare-newton and classical-ift never fail with a
# traceback; a report is written only on the exits that promise one ----------

def _reports_after(code, out, writes_on):
    assert code in (0, 1, 2)
    reports = list(out.glob("*.json"))
    assert len(reports) == (code in writes_on)
    for report in reports:
        load_strict(report)


@settings(max_examples=30, deadline=None)
@given(operator=st.sampled_from(["volterra-quadratic", "linear-smoothing"]),
       k_max=st.integers(min_value=-3, max_value=8),
       radius=_flag_values(_FLOATS), u_min=_flag_values(_FLOATS))
def test_probe_loss_flags_exit_cleanly_with_strict_json(operator, k_max, radius, u_min):
    with tempfile.TemporaryDirectory() as tmp:
        out = Path(tmp)
        code = run("probe-loss", "--n", 21, "--operator", operator, "--k-max", k_max,
                   f"--radius={radius!r}", f"--u-min={u_min!r}", "--out-dir", out)
        _reports_after(code, out, (0,))


@settings(max_examples=30, deadline=None)
@given(operator=st.sampled_from(["volterra-quadratic", "linear-smoothing"]),
       family=st.sampled_from(["scaled-linear", "quadratic-perturb"]),
       # p^2 x overflows its norms from |p| = 1e77 and its values from 1e155
       param=st.one_of(_flag_values(_FLOATS), st.sampled_from([1e50, 1e77, 1e100, 1e154])),
       u_min=_flag_values(_FLOATS), tol=_flag_values(_FLOATS),
       max_iter=st.integers(min_value=-2, max_value=30))
def test_compare_newton_flags_exit_cleanly_with_strict_json(operator, family, param, u_min,
                                                             tol, max_iter):
    with tempfile.TemporaryDirectory() as tmp:
        out = Path(tmp)
        code = run("compare-newton", "--n", 21, "--operator", operator, "--h-family", family,
                   f"--param={param!r}", f"--u-min={u_min!r}", f"--tol={tol!r}",
                   "--max-iter", max_iter, "--out-dir", out)
        # exit 2 is a Newton run that missed its tolerance, and is reported
        _reports_after(code, out, (0, 2))


@settings(max_examples=30, deadline=None)
@given(p=_flag_values(_FLOATS), epsilon=_flag_values(_FLOATS), m=_flag_values(_FLOATS),
       tol=_flag_values(_FLOATS), max_iter=st.integers(min_value=-2, max_value=300))
def test_classical_ift_flags_exit_cleanly_with_strict_json(p, epsilon, m, tol, max_iter):
    with tempfile.TemporaryDirectory() as tmp:
        out = Path(tmp)
        code = run("classical-ift", "--n", 21, f"--p={p!r}", f"--epsilon={epsilon!r}",
                   f"--m={m!r}", f"--tol={tol!r}", "--max-iter", max_iter,
                   "--out-dir", out)
        # exit 2 is an iterate that escaped or ran out of iterations, and is reported
        _reports_after(code, out, (0, 2))


# --- README ------------------------------------------------------------------

def _readme_cli_section():
    text = (Path(__file__).parents[1] / "README.md").read_text()
    return text.split("\n## CLI\n", 1)[1].split("\n## ", 1)[0]


def test_readme_names_every_cli_flag():
    # whole tokens only: --p must not count as mentioned inside --p-file
    mentioned = set(re.findall(r"(?<![\w-])--[a-z][\w-]*", _readme_cli_section()))
    parser = cli_module._PARSER
    known = {s for a in parser._actions for s in a.option_strings}  # --version, --help
    sub = next(a for a in parser._actions if isinstance(a, argparse._SubParsersAction))
    for command, subparser in sub.choices.items():
        flags = {s for a in subparser._actions for s in a.option_strings if s.startswith("--")}
        assert flags <= mentioned, (command, sorted(flags - mentioned))
        known |= flags
    assert mentioned <= known, sorted(mentioned - known)


def test_readme_flag_table_lists_each_command_flags():
    after = _readme_cli_section().split("Flags, with their defaults", 1)[1]
    table = after.split("\n\n", 1)[1].split("\n\n", 1)[0]
    listed = {}
    for row in table.splitlines()[2:]:  # past the header and its rule
        commands, flags = row.strip("|").split("|")
        for command in re.findall(r"`([a-z-]+)`", commands):
            listed.setdefault(command, set()).update(
                re.findall(r"(?<![\w-])--[a-z][\w-]*", flags))
    parsed = {command: {s for a in subparser._actions for s in a.option_strings
                        if s.startswith("--") and s != "--help"}
              for command, subparser in _subparsers().items()}
    assert listed == parsed


def _package_names():
    """Every name bound in a dsmflow module, and every attribute of its classes."""
    names = set()
    for info in pkgutil.iter_modules(dsmflow.__path__):
        for name, value in vars(importlib.import_module(f"dsmflow.{info.name}")).items():
            names.add(name)
            if isinstance(value, type):
                names.update(dir(value))
    return names


def test_readme_names_only_constants_and_private_names_that_exist():
    text = (Path(__file__).parents[1] / "README.md").read_text()
    cited = set(re.findall(r"`([A-Z][A-Z0-9_]+|_[a-z]\w*)`", text))
    assert "BLOCK_ELEMENTS" in cited and "_derivative" in cited
    assert sorted(cited - _package_names()) == []


def test_readme_examples_run(tmp_path):
    block = _readme_cli_section().split("```sh\n", 1)[1].split("```", 1)[0]
    examples = [shlex.split(line) for line in block.replace("\\\n", " ").splitlines()
                if line.startswith("dsmflow ")]
    assert len(examples) == 5
    for i, argv in enumerate(examples):
        argv = argv[1:]
        argv[argv.index("--out-dir") + 1] = str(tmp_path / str(i))
        assert main(argv) == 0, argv


_JSON_VALUES = st.recursive(
    st.none() | st.booleans() | st.integers() | st.floats() | st.text(max_size=4),
    lambda children: (st.lists(children, max_size=3) | st.tuples(children, children)
                      | st.dictionaries(st.text(max_size=4), children, max_size=3)),
    max_leaves=12)


@pytest.fixture(scope="module")
def report_path(tmp_path_factory):
    return tmp_path_factory.mktemp("json") / "report.json"


@settings(max_examples=200, deadline=None)
@given(payload=st.dictionaries(st.text(max_size=4), _JSON_VALUES, min_size=1, max_size=4))
@example(payload={"a": {"b": [1.5, ()]}, "c": "\x00", "d": float("nan")})
def test_json_reports_hold_the_indented_dumps_bytes(report_path, payload):
    # every container kind, empty ones, NaN and infinities, and a NUL in a
    # string
    cli_module._write_json(report_path, payload)
    assert report_path.read_text() == json.dumps(payload, indent=2, sort_keys=True) + "\n"
