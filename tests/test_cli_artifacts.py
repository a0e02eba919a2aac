import filecmp
import importlib.util
import json
from pathlib import Path

import dsmflow
from dsmflow.cli import main
from dsmflow.scale import read_grid_csv

TOOL = Path(__file__).resolve().parents[1] / "tools" / "cli_artifacts.py"
SRC = Path(dsmflow.__file__).resolve().parents[1]


def load_tool():
    spec = importlib.util.spec_from_file_location("cli_artifacts", TOOL)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_run_list_names_each_run_once():
    names = [name for name, *_ in load_tool().RUNS]
    assert len(names) == len(set(names)) == 27


def test_stall_input_is_a_grid_whose_solve_stops_at_the_horizon(tmp_path):
    path = tmp_path / "inputs" / "h.csv"
    load_tool().write_stall_input(path)
    assert read_grid_csv(path).n == 201
    assert main(["solve", "--h-file", str(path), "--out-dir", str(tmp_path / "out")]) == 2
    summary = json.loads((tmp_path / "out" / "solve_summary.json").read_text())
    assert summary["stop_reason"] == "horizon"


def test_two_runs_leave_trees_that_compare_whole(tmp_path, monkeypatch):
    tool = load_tool()
    monkeypatch.setattr(tool, "RUNS", [("ift", ["classical-ift", "--n", "21"])])
    for side in ("a", "b"):
        tool.main(["--src", str(SRC), str(tmp_path / side)])
    run = tmp_path / "a" / "ift"
    assert (run / "exit_code.txt").read_text() == "0\n"
    assert (run / "stdout.txt").read_text() == (run / "stderr.txt").read_text() == ""
    manifest = json.loads((run / "classical_ift.json").read_text())["manifest"]
    assert manifest["output_files"]["summary"] == "ift/classical_ift.json"
    compare = filecmp.dircmp(tmp_path / "a", tmp_path / "b")
    assert not compare.left_only and not compare.right_only
    for sub in ("inputs", "ift"):
        _, mismatch, errors = filecmp.cmpfiles(
            tmp_path / "a" / sub, tmp_path / "b" / sub,
            [p.name for p in (tmp_path / "a" / sub).iterdir()], shallow=False)
        assert not mismatch and not errors
