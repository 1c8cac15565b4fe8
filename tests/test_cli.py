"""Command-line contract: golden outputs, exit codes, entry points."""

import shutil
import subprocess
import sys

import pytest
from cli_cases import GOLDEN, GOLDEN_CASES, EXIT_CASES

from hyperq.cli import main
from hyperq.interference import sweep_rows


@pytest.mark.parametrize(
    "golden_name,expected_code,argv",
    GOLDEN_CASES,
    ids=[name for name, _, _ in GOLDEN_CASES],
)
def test_golden_output(golden_name, expected_code, argv, capsys):
    code = main(argv)
    out = capsys.readouterr().out
    assert code == expected_code
    assert out == (GOLDEN / golden_name).read_text()


@pytest.mark.parametrize("expected_code,argv", EXIT_CASES)
def test_exit_codes(expected_code, argv, capsys):
    code = main(argv)
    captured = capsys.readouterr()
    assert code == expected_code
    # usage and precondition failures keep stdout clean for pipelines
    assert captured.out == ""
    assert captured.err != ""


def test_malformed_json_file(tmp_path, capsys):
    bad = tmp_path / "state.json"
    bad.write_text("this is not json")
    code = main(["transform", "--state", str(bad), "--matrix", str(bad)])
    assert code == 1
    assert capsys.readouterr().out == ""


def test_help_exits_zero(capsys):
    assert main(["--help"]) == 0
    assert "classify" in capsys.readouterr().out


def test_sweep_grid_hits_both_endpoints():
    rows = sweep_rows("trig", 0.5, 0.5, 0.0, 2.0, 5)
    thetas = [theta for theta, _ in rows]
    assert thetas[0] == 0.0
    assert thetas[-1] == 2.0
    assert thetas == sorted(thetas)


def test_module_entry_point_matches_golden():
    name, expected_code, argv = GOLDEN_CASES[0]
    proc = subprocess.run(
        [sys.executable, "-m", "hyperq", *argv], capture_output=True, text=True
    )
    assert proc.returncode == expected_code
    assert proc.stdout == (GOLDEN / name).read_text()


@pytest.mark.skipif(shutil.which("hyperq") is None, reason="script not on PATH")
def test_console_script_runs():
    proc = subprocess.run(["hyperq", "--help"], capture_output=True, text=True)
    assert proc.returncode == 0
