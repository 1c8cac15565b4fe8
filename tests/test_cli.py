"""Command-line contract: golden outputs, exit codes, entry points."""

import ast
import contextlib
import json
import math
import os
import shutil
import subprocess
import sys
import tracemalloc
from pathlib import Path

import pytest
from cli_cases import (
    BAD_VALUE_CASES,
    DATA,
    DIGITS,
    EXIT_CASES,
    GOLDEN,
    GOLDEN_CASES,
    sweep,
    triple,
    verify,
    witness,
)
from helpers import scan

from hyperq import interference
from hyperq.cli import _CHUNK_ROWS, _COMMANDS, _read, main
from hyperq.errors import PreconditionError
from hyperq.interference import InterferenceVerdict, sweep_rows


# Each entry point takes an argv and returns (exit code, stdout, stderr).


def in_process(capsys):
    """``cli.main`` in this process, its output read from ``capsys``."""

    def run(argv):
        code = main(argv)
        captured = capsys.readouterr()
        return code, captured.out, captured.err

    return run


def child_env(buffered):
    """The test's environment with stdout buffering of the child on or off."""
    env = dict(os.environ)
    env.pop("PYTHONUNBUFFERED", None)
    if not buffered:
        env["PYTHONUNBUFFERED"] = "1"
    return env


def run_child(command, buffered=True):
    proc = subprocess.run(
        command, capture_output=True, text=True, env=child_env(buffered)
    )
    return proc.returncode, proc.stdout, proc.stderr


def run_module(argv, buffered=True, flags=()):
    """``python -m hyperq``."""
    return run_child([sys.executable, *flags, "-m", "hyperq", *argv], buffered)


def run_script(argv):
    """The installed ``hyperq`` console script."""
    return run_child(["hyperq", *argv])


# One checker per table; ``run`` is an entry point.


def check_golden(run, name, expected_code, argv):
    """A ``GOLDEN_CASES`` row: its exit code and its exact stdout."""
    code, out, err = run(argv)
    assert code == expected_code, (name, err)
    assert out == (GOLDEN / name).read_text(), name


def check_exit(run, expected_code, argv):
    """An ``EXIT_CASES`` row: its exit code, and on a failure (1 or 2)
    nothing on stdout, which stays clean for pipelines, and a message on
    stderr."""
    code, out, err = run(argv)
    assert code == expected_code, (argv, err)
    if expected_code in (1, 2):
        assert out == "", argv
        assert err != "", argv


def with_files(argv, tmp_path):
    """``argv`` with each ``bytes`` argument written to a file in its place."""
    argv = list(argv)
    for index, arg in enumerate(argv):
        if isinstance(arg, bytes):
            path = tmp_path / f"{index}.json"
            path.write_bytes(arg)
            argv[index] = str(path)
    return argv


def check_refusal(run, argv, expected_code, named, tmp_path):
    """A ``BAD_VALUE_CASES`` row: its exit code, nothing on stdout, and one
    short error line on stderr, naming the input ``named``, if set; returns
    that line."""
    argv = with_files(argv, tmp_path)
    code, out, err = run(argv)
    assert code == expected_code, err
    assert out == "", err
    assert err.startswith("error: ") and err.count("\n") == 1, err
    assert len(err.encode()) < 200, err
    if named.startswith("<"):
        assert err.startswith(f"error: {argv[argv.index(named[1:-1]) + 1]}: "), err
    elif named.startswith("--"):
        assert err.startswith(f"error: {named}: "), err
    elif named:
        assert err.startswith(f"error: {named} must"), err
    return err


@pytest.mark.parametrize(
    "golden_name,expected_code,argv",
    GOLDEN_CASES,
    ids=[name for name, _, _ in GOLDEN_CASES],
)
def test_golden_output(golden_name, expected_code, argv, capsys):
    check_golden(in_process(capsys), golden_name, expected_code, argv)


@pytest.mark.parametrize("expected_code,argv", EXIT_CASES)
def test_exit_codes(expected_code, argv, capsys):
    check_exit(in_process(capsys), expected_code, argv)


@pytest.mark.parametrize("argv,code,named", BAD_VALUE_CASES)
def test_bad_value_gets_its_class_exit_code(argv, code, named, tmp_path, capsys):
    check_refusal(in_process(capsys), argv, code, named, tmp_path)


@pytest.mark.parametrize("argv", [witness("-" + DIGITS)], ids=["witness"])
def test_huge_argument_gets_one_short_error_line(argv, tmp_path, capsys):
    check_refusal(in_process(capsys), argv, 1, "", tmp_path)


@pytest.mark.parametrize("content", [None, b"not json"], ids=["missing", "not-json"])
def test_long_path_is_shortened_in_the_refusal(content, tmp_path, capsys):
    folder = tmp_path / ("d" * 60) / ("e" * 60) / ("f" * 60)
    folder.mkdir(parents=True)
    path = folder / "matrix.json"
    if content is not None:
        path.write_bytes(content)
    assert len(str(path)) > 200
    err = check_refusal(in_process(capsys), verify(str(path)), 1, "", tmp_path)
    assert err.startswith(f"error: ...{str(path)[-77:]}: "), err


def test_writer_refuses_a_number_that_is_not_finite(monkeypatch, tmp_path, capsys):
    # no runner yields one from valid input; a verdict with an infinite
    # phase stands in for the next that would
    verdict = InterferenceVerdict("trig", math.inf, 1, 0.0)
    monkeypatch.setattr(interference, "classify", lambda *args: verdict)
    check_refusal(in_process(capsys), triple(), 1, "", tmp_path)


def test_top_of_range_entry_gets_its_exact_residuals(capsys):
    # u = x + y of [1e308, 1e308] is not a double; u of the halves, 1e308,
    # is.  With two such entries the cross term's quarter sum is 5e307:
    # four times it is not a double, but the residual, 1e308, is
    for name, residual in [
        ("matrix_top_light_cone.json", 1.0),
        ("matrix_top_cross.json", 1e308),
    ]:
        code, out, err = in_process(capsys)(verify(str(DATA / name)))
        assert code == 3, err
        assert f'"orthonormality_residual":{residual!r},' in out
        assert json.loads(out)["stochasticity_residual"] == 1.0


def test_module_entry_point_matches_golden():
    for buffered in (True, False):
        for case in GOLDEN_CASES:
            check_golden(lambda argv: run_module(argv, buffered), *case)


def test_module_entry_point_exit_codes():
    for case in EXIT_CASES:
        check_exit(run_module, *case)


def interfere_argv(steps):
    return sweep("hyp", "0.3", "0.4", theta_max="2", steps=str(steps))


def into_closed_pipe(command):
    """Run ``command``, read one line of its stdout, then close the pipe;
    return the exit code and stderr."""
    proc = subprocess.Popen(
        command,
        stdout=subprocess.PIPE,
        stderr=subprocess.PIPE,
        text=True,
        env=child_env(buffered=True),
    )
    proc.stdout.readline()
    proc.stdout.close()
    with proc.stderr:
        stderr = proc.stderr.read()
    return proc.wait(), stderr


def assert_one_error_line(returncode, stderr):
    assert returncode == 1, stderr
    lines = stderr.splitlines()
    assert len(lines) == 1 and lines[0].startswith("error: "), stderr


@pytest.mark.skipif(shutil.which("hyperq") is None, reason="script not on PATH")
def test_console_script_runs(tmp_path):
    # every row of the three tables through the installed script, as CI
    # installs it, with the checker of the in-process run
    for case in GOLDEN_CASES:
        check_golden(run_script, *case)
    for case in EXIT_CASES:
        check_exit(run_script, *case)
    for case in BAD_VALUE_CASES:
        check_refusal(run_script, *case.values, tmp_path)
    # the output is far larger than a pipe's buffer, so the writes after the
    # first line fail, as when ``head -1`` reads it
    code, stderr = into_closed_pipe(["hyperq", *interfere_argv(100_000)])
    assert_one_error_line(code, stderr)
    assert "Broken pipe" in stderr


def test_closed_pipe_exits_1():
    code, stderr = into_closed_pipe(
        [sys.executable, "-m", "hyperq", *interfere_argv(20000)]
    )
    assert_one_error_line(code, stderr)
    assert "Broken pipe" in stderr


@pytest.mark.skipif(not os.path.exists("/dev/full"), reason="no /dev/full")
@pytest.mark.parametrize(
    "argv",
    [triple("0.3", "0.4"), interfere_argv(20000)],
    ids=["classify", "interfere"],
)
def test_full_device_exits_1(argv):
    with open("/dev/full", "w") as full:
        proc = subprocess.run(
            [sys.executable, "-m", "hyperq", *argv],
            stdout=full,
            stderr=subprocess.PIPE,
            text=True,
            env=child_env(buffered=True),
        )
    assert_one_error_line(proc.returncode, proc.stderr)
    assert "No space left" in proc.stderr


def test_help_exits_zero(capsys):
    # -h or --help, as the command, an option or the last argument, prints
    # the usage text, which names every subcommand and option of the table
    for argv in (["--help"], ["classify", "-h"], triple() + ["--help"]):
        assert main(argv) == 0
        usage = capsys.readouterr().out
        # "  hyperq <command> <option> <VALUE> ... [<option> <VALUE>]"
        words = {line.split()[1]: line.replace("[", "").split() for line in usage.splitlines()[1:]}
        assert words.keys() == _COMMANDS.keys(), usage
        for command, (_, options, _) in _COMMANDS.items():
            assert set(options) <= set(words[command]), (command, usage)


def test_sweep_grid_hits_both_endpoints():
    rows = sweep_rows("trig", 0.5, 0.5, 0.0, 2.0, 5)
    thetas = [theta for theta, _ in rows]
    assert thetas[0] == 0.0
    assert thetas[-1] == 2.0
    assert thetas == sorted(thetas)


@pytest.mark.parametrize(
    "steps, message",
    [
        pytest.param(10**6 + 1, "steps must be from 2 to 1000000", id="1e6+1"),
        pytest.param(10**26, "steps must be from 2 to 1000000", id="1e26"),
        # a count that is not an int, a bool included, is refused by name
        pytest.param(2.5, "steps must be an int, got 2.5", id="2.5"),
        pytest.param(3.0, "steps must be an int, got 3.0", id="3.0"),
        pytest.param(math.nan, "steps must be an int, got nan", id="nan"),
        pytest.param("3", "steps must be an int, got '3'", id="str"),
        pytest.param(True, "steps must be an int, got True", id="bool"),
    ],
)
def test_sweep_refuses_more_steps_than_it_computes(steps, message):
    # 10**26 points would be allocated until the process is killed
    with pytest.raises(ValueError, match=message) as info:
        sweep_rows("trig", 0.5, 0.5, 0.0, 1.0, steps)
    assert not isinstance(info.value, PreconditionError)


@pytest.mark.parametrize("law", ["trig ", "foo", "HYP", ""])
def test_sweep_rejects_an_unknown_law(law):
    with pytest.raises(ValueError, match="law must be"):
        sweep_rows(law, 0.5, 0.5, 0.0, 1.0, 3)


@pytest.mark.parametrize(
    "law,p,first_row",
    [("hyp", "1e300", "0.0,4e+300"), ("trig", "1e-320", "0.0,4e-320")],
)
def test_interfere_answers_across_the_float_range(law, p, first_row, capsys):
    # p1*p2 overflows at 1e300 and underflows at 1e-320; the law does not
    assert main(sweep(law, p, p)) == 0
    assert capsys.readouterr().out.splitlines()[1] == first_row


def test_classify_answers_at_the_top_of_the_double_range(capsys):
    # pprime - p1 - p2 overflows; lambda is -1 + 2.5e-309, the boundary
    assert main(triple(p1="1e308", p2="1e308")) == 0
    assert json.loads(capsys.readouterr().out)["regime"] == "boundary"


@pytest.mark.parametrize(
    "argv,code",
    [
        (triple(pprime="-1.5e-05"), 0),
        (triple(pprime="-2"), 0),
        (sweep(theta_min="-1e-05"), 0),
        (sweep(law="hyp", theta_min="-1e2", theta_max="-.5"), 0),
        # not finite: the value reaches the finiteness rule, exit 1
        (triple(pprime="-inf"), 1),
        (triple(p1="-NaN"), 1),
        (sweep(theta_min="-Infinity"), 1),
    ],
    ids=[
        "exponent",
        "integer",
        "interfere-exponent",
        "interfere-two",
        "inf",
        "nan",
        "interfere-infinity",
    ],
)
def test_negative_number_is_read_as_a_value(argv, code, capsys):
    # "--flag -1.5e-05" reads the same as "--flag=-1.5e-05" on every Python
    joined = []
    for arg in argv:
        if arg.startswith("-") and not arg.startswith("--"):
            joined[-1] += "=" + arg
        else:
            joined.append(arg)
    assert len(joined) < len(argv)
    assert main(argv) == code
    spaced = capsys.readouterr()
    assert main(joined) == code
    assert capsys.readouterr() == spaced
    if code:
        # the error names the value, not a missing argument
        assert "must be finite, got" in spaced.err
    else:
        assert spaced.err == ""


@pytest.mark.parametrize("steps", [_CHUNK_ROWS - 1, _CHUNK_ROWS, _CHUNK_ROWS + 1])
def test_interfere_chunks_match_row_by_row(steps, capsys):
    assert main(interfere_argv(steps)) == 0
    rows = sweep_rows("hyp", 0.3, 0.4, 0.0, 2.0, steps)
    lines = ["theta,p_prime\n"] + [f"{theta!r},{p!r}\n" for theta, p in rows]
    assert capsys.readouterr().out == "".join(lines)


def test_interfere_runner_returns_its_text_unwritten(capsys):
    # the header, then one piece per chunk, built as it is taken
    run, values = _read(interfere_argv(_CHUNK_ROWS + 1))
    code, text = run(**values)
    assert code == 0
    assert capsys.readouterr().out == ""
    pieces = list(text)
    assert pieces[0] == "theta,p_prime\n"
    assert [piece.count("\n") for piece in pieces[1:]] == [_CHUNK_ROWS, 1]


def writes_stdout(node):
    """A reference to ``sys.stdout``, or a ``print`` with no ``file``, which
    writes to it."""
    if isinstance(node, ast.Call) and ast.unparse(node.func) == "print":
        return all(keyword.arg != "file" for keyword in node.keywords)
    return isinstance(node, ast.Attribute) and ast.unparse(node) == "sys.stdout"


def test_main_is_the_one_writer_of_stdout():
    # runners return their output and write nothing, so that one place
    # decides where output goes, in what pieces, and how a failed write is
    # reported; the other name only flushes or replaces an unwritable stdout
    assert set(scan(writes_stdout)) == {"cli.main", "cli._drop_unwritable_stdout"}


def traced_peak(steps):
    """tracemalloc's peak, in bytes, of one in-process ``interfere`` whose
    rows go to the null device."""
    with open(os.devnull, "w") as sink, contextlib.redirect_stdout(sink):
        tracemalloc.start()
        try:
            assert main(interfere_argv(steps)) == 0
            return tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()


def test_interfere_holds_under_16_bytes_per_point():
    # the sweep holds one double per point; an object per row breaks 16.
    # Both grids span several chunks, whose rows are built as they are written
    traced_peak(2)  # imports the runner's modules outside the measurement
    growth = traced_peak(40_000) - traced_peak(10_000)
    assert growth / 30_000 < 16


#: Stdlib modules no subcommand may import: ``dataclasses`` pulls in
#: ``inspect``, and with it ``ast``, ``dis`` and ``tokenize``; ``argparse``
#: pulls in ``gettext``, ``locale`` and ``shutil``, which asks for the
#: terminal width.
HEAVY_STDLIB = {"dataclasses", "inspect", "argparse", "gettext", "locale", "shutil"}

#: The modules above the scalar rules, which ``classify`` and ``interfere``
#: never load.
ALGEBRA_UP = {"hyperq.algebra", "hyperq.born", "hyperq.space", "hyperq.witness"}


@pytest.mark.parametrize(
    "argv,needed,unneeded",
    [
        (triple("0.3", "0.4"), "interference", {*ALGEBRA_UP, "typing"}),
        (interfere_argv(3), "interference", {*ALGEBRA_UP, "typing"}),
        (
            ["transform", "--state", str(DATA / "state_basis.json")]
            + ["--matrix", str(DATA / "matrix_identity.json")],
            "born",
            {"hyperq.interference", "hyperq.witness", "typing"},
        ),
        (
            ["verify", "--matrix", str(DATA / "matrix_hadamard.json")],
            "space",
            {"hyperq.born", "hyperq.interference", "hyperq.witness", "typing"},
        ),
        (
            ["witness", "--seed", "1"],
            "witness",
            {"hyperq.born", "hyperq.interference", "typing"},
        ),
    ],
    ids=["classify", "interfere", "transform", "verify", "witness"],
)
def test_subcommand_loads_only_what_it_needs(argv, needed, unneeded, monkeypatch):
    # -S: no site, whose .pth files may import modules of their own (shutil
    # among them), so the child finds the package by its path
    monkeypatch.setenv("PYTHONPATH", str(Path(interference.__file__).parents[1]))
    code, _, err = run_module(argv, flags=["-S", "-X", "importtime"])
    assert code == 0, err
    # -X importtime names every module the child imports, one per line
    loaded = {
        line.rsplit("|", 1)[1].strip()
        for line in err.splitlines()
        if line.startswith("import time:")
    }
    assert f"hyperq.{needed}" in loaded
    assert not loaded & unneeded
    assert not loaded & HEAVY_STDLIB
