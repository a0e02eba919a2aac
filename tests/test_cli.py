import json
from pathlib import Path

import numpy as np
import pytest

from dsmflow.cli import main
from dsmflow.operators import QuadraticVolterra
from dsmflow.scale import GridFunction, read_grid_csv, write_grid_csv

from oracles import quadratic_formula_root


def run(*argv):
    return main([str(a) for a in argv])


def load(path):
    with open(path) as handle:
        return json.load(handle)


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


# --- probe-loss ----------------------------------------------------------------

def test_probe_loss_exponent_window(tmp_path):
    code = run("probe-loss", "--k-max", 32, "--n", 401, "--out-dir", tmp_path)
    assert code == 0
    assert 0.9 <= load(tmp_path / "loss_probe.json")["exponent"] <= 1.1
    lines = (tmp_path / "loss_probe.csv").read_text().splitlines()
    assert lines[0] == "k,ratio_same_index,ratio_shifted_index"
    assert len(lines) == 34  # header + modes 0..32


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


def test_missing_input_file_exits_1(tmp_path):
    assert run("solve", "--h-file", tmp_path / "nope.csv",
               "--out-dir", tmp_path) == 1


def test_malformed_csv_exits_1(tmp_path):
    bad = tmp_path / "bad.csv"
    bad.write_text("x,value\n0,1\n0.7,2\n1,3\n")
    assert run("solve", "--h-file", bad, "--out-dir", tmp_path) == 1


def test_conflicting_h_flags_exit_1(tmp_path):
    good = tmp_path / "h.csv"
    write_grid_csv(GridFunction.constant(1.0, 201), good)
    assert run("solve", "--h-file", good, "--h-family", "scaled-linear",
               "--out-dir", tmp_path) == 1


def test_unknown_operator_exits_1(tmp_path, capsys):
    with pytest.raises(SystemExit) as excinfo:
        run("solve", "--operator", "nope", "--out-dir", tmp_path)
    assert excinfo.value.code == 1


def test_grid_size_mismatch_exits_1(tmp_path):
    small = tmp_path / "u0.csv"
    write_grid_csv(GridFunction.constant(1.0, 101), small)
    assert run("solve", "--n", 201, "--u0-file", small,
               "--h-family", "scaled-linear", "--out-dir", tmp_path) == 1


@pytest.mark.parametrize("argv, field", [
    (("solve", "--t-max", "inf"), "t_max"),
    (("solve", "--dt", "nan"), "dt"),
    (("solve", "--eps-rel", "nan"), "eps_rel"),
    (("solve", "--eps-abs", "nan"), "eps_abs"),
    (("solve", "--u-min", "nan"), "u_min"),
    (("verify", "--radius", "nan"), "R"),
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
