"""Command-line contract: golden outputs, exit codes, entry points."""

import json
import os
import shutil
import subprocess
import sys

import pytest
from cli_cases import DATA, GOLDEN, GOLDEN_CASES, EXIT_CASES

from hyperq.cli import _CHUNK_ROWS, main
from hyperq.errors import PreconditionError
from hyperq.interference import sweep_rows


def child_env(buffered):
    """The test's environment with stdout buffering of the child on or off."""
    env = dict(os.environ)
    env.pop("PYTHONUNBUFFERED", None)
    if not buffered:
        env["PYTHONUNBUFFERED"] = "1"
    return env


def run_module(argv, buffered=True, flags=()):
    return subprocess.run(
        [sys.executable, *flags, "-m", "hyperq", *argv],
        capture_output=True,
        text=True,
        env=child_env(buffered),
    )


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
    if expected_code:
        # usage and precondition failures keep stdout clean for pipelines
        assert captured.out == ""
        assert captured.err != ""


#: A matrix file with a 400-digit integer entry, too large for a double.
BIG_INTEGER_MATRIX = "[[[" + "9" * 400 + ", 0], [0, 0]], [[0, 0], [1, 0]]]"

#: A file nested 100 000 arrays deep, past the JSON decoder's recursion limit.
DEEP_JSON = "[" * 100_000 + "]" * 100_000

#: A matrix file whose second row holds 100 000 zeros.
WIDE_ROW_MATRIX = "[[[1, 0], [0, 0]], [" + ", ".join(["0"] * 100_000) + "]]"

#: A matrix file with an ``Infinity`` entry, which Python's JSON decoder accepts.
INFINITY_MATRIX = "[[[Infinity, 0], [0, 0]], [[0, 0], [1, 0]]]"


def test_malformed_json_file(tmp_path, capsys):
    # each maps to one short error line and exit 1, never a traceback, and
    # the message never echoes the document
    for text in (
        "this is not json",
        BIG_INTEGER_MATRIX,
        DEEP_JSON,
        WIDE_ROW_MATRIX,
        INFINITY_MATRIX,
    ):
        bad = tmp_path / "state.json"
        bad.write_text(text)
        for argv in (
            ["transform", "--state", str(bad), "--matrix", str(bad)],
            ["verify", "--matrix", str(bad)],
        ):
            code = main(argv)
            captured = capsys.readouterr()
            assert code == 1
            assert captured.out == ""
            assert captured.err.startswith("error: ")
            assert captured.err.count("\n") == 1
            assert len(captured.err.encode()) < 200


def test_help_exits_zero(capsys):
    assert main(["--help"]) == 0
    assert "classify" in capsys.readouterr().out


def test_sweep_grid_hits_both_endpoints():
    rows = sweep_rows("trig", 0.5, 0.5, 0.0, 2.0, 5)
    thetas = [theta for theta, _ in rows]
    assert thetas[0] == 0.0
    assert thetas[-1] == 2.0
    assert thetas == sorted(thetas)


@pytest.mark.parametrize("steps", [10**6 + 1, 10**26], ids=["1e6+1", "1e26"])
def test_sweep_refuses_more_steps_than_it_computes(steps):
    # 10**26 points would be allocated until the process is killed
    with pytest.raises(ValueError, match="steps must be from 2 to 1000000") as info:
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
    argv = ["interfere", "--law", law, "--p1", p, "--p2", p]
    argv += ["--theta-min", "0", "--theta-max", "1", "--steps", "3"]
    assert main(argv) == 0
    assert capsys.readouterr().out.splitlines()[1] == first_row


def test_classify_answers_at_the_top_of_the_double_range(capsys):
    # pprime - p1 - p2 overflows; lambda is -1 + 2.5e-309, the boundary
    assert main(triple(p1="1e308", p2="1e308")) == 0
    assert json.loads(capsys.readouterr().out)["regime"] == "boundary"


CLASSIFY_ARGV = ["classify", "--p1", "0.3", "--p2", "0.4", "--pprime", "0.5"]


def interfere_argv(steps):
    return [
        "interfere", "--law", "hyp", "--p1", "0.3", "--p2", "0.4",
        "--theta-min", "0", "--theta-max", "2", "--steps", str(steps),
    ]


#: A negative integer argument of 400 digits, too large for a double.
HUGE_NEGATIVE = "-" + "9" * 400


@pytest.mark.parametrize(
    "argv",
    [
        ["witness", "--seed", "1", "--max-iter", HUGE_NEGATIVE],
        interfere_argv(HUGE_NEGATIVE),
    ],
    ids=["witness", "interfere"],
)
def test_huge_argument_gets_one_short_error_line(argv, capsys):
    code = main(argv)
    captured = capsys.readouterr()
    assert code == 1
    assert captured.out == ""
    assert captured.err.startswith("error: ") and captured.err.count("\n") == 1
    assert len(captured.err) < 200


def triple(p1="0.5", p2="0.5", pprime="0.5"):
    """``classify`` argv over the given values."""
    return ["classify", "--p1", p1, "--p2", p2, "--pprime", pprime]


def sweep(law="trig", p1="0.5", p2="0.5", theta_min="0", theta_max="1", steps="3"):
    """``interfere`` argv over the given values."""
    return [
        "interfere", "--law", law, "--p1", p1, "--p2", p2,
        "--theta-min", theta_min, "--theta-max", theta_max, "--steps", steps,
    ]


def state_with(x1):
    """A state document whose first coordinate is ``[x1, 0]``."""
    return f"[[{x1}, 0], [0, 0]]"


def matrix_with(x11):
    """A matrix document whose first entry is ``[x11, 0]``."""
    return f"[[[{x11}, 0], [0, 0]], [[0, 0], [1, 0]]]"


def transform(state=state_with(1), matrix=matrix_with(1)):
    return ["transform", "--state", state, "--matrix", matrix]


def verify(matrix):
    return ["verify", "--matrix", matrix]


def witness(max_iter):
    return ["witness", "--seed", "1", "--max-iter", max_iter]


#: A 400-digit integer, too large for a double.
DIGITS = "9" * 400


def bad_value(cls, name, code, argv, named=""):
    return pytest.param(argv, code, named, id=f"{cls}-{name}")


# One row per bad-value class and per subcommand option or file that reads
# such a value: (argv, exit code, the input its message must name, if the
# row says).  A value that is not finite (NaN, an infinity, an integer too
# large for a double) or a JSON document of the wrong shape exits 1, as
# does a command-line parameter out of its range; a finite value outside
# the operation's domain, or a finite computation that overflows, exits 2.
# An argument that starts with "[" is a JSON document, written to a file
# whose path takes its place.
BAD_VALUE_CASES = [
    bad_value("negative", "classify-p1", 2, triple(p1="-1")),
    bad_value("negative", "classify-p2", 2, triple(p2="-1.5e-05")),
    bad_value("negative", "interfere-p1", 2, sweep(p1="-1")),
    bad_value("negative", "interfere-p2", 2, sweep(law="hyp", p2="-1.5e-05")),
    bad_value("negative", "interfere-steps", 1, sweep(steps="-2")),
    bad_value("negative", "witness", 1, witness("-1")),
    bad_value("zero", "classify-p1", 2, triple(p1="0")),
    bad_value("zero", "classify-p2", 2, triple(p2="0")),
    bad_value("zero", "interfere-steps", 1, sweep(steps="0")),
    bad_value("zero", "witness", 1, witness("0")),
    bad_value("nan", "classify-p1", 1, triple(p1="nan"), named="p1"),
    bad_value("nan", "classify-p2", 1, triple(p2="nan")),
    bad_value("nan", "classify-pprime", 1, triple(pprime="nan")),
    bad_value("nan", "interfere-p1", 1, sweep(p1="nan")),
    bad_value("nan", "interfere-p2", 1, sweep(law="hyp", p2="nan")),
    bad_value("nan", "interfere-theta-min", 1, sweep(theta_min="nan")),
    bad_value("nan", "interfere-theta-max", 1, sweep(law="hyp", theta_max="nan")),
    bad_value("nan", "transform-state", 1, transform(state=state_with("NaN"))),
    bad_value("nan", "verify", 1, verify(matrix_with("NaN"))),
    bad_value("inf", "classify-p1", 1, triple(p1="inf")),
    # "-inf" is a value, joined to its flag or not
    bad_value(
        "inf", "classify-p2", 1, ["classify", "--p1", "1", "--p2=-inf", "--pprime", "1"]
    ),
    bad_value("inf", "classify-p2-spaced", 1, triple(p2="-inf")),
    bad_value("inf", "interfere-theta-min", 1, sweep(theta_min="-inf")),
    bad_value("inf", "classify-pprime", 1, triple(pprime="inf")),
    bad_value(
        "inf", "classify-pprime-negative", 1, triple(pprime="-inf"), named="pprime"
    ),
    bad_value("inf", "interfere-p1", 1, sweep(p1="inf")),
    bad_value("inf", "interfere-p2", 1, sweep(law="hyp", p2="inf")),
    bad_value("inf", "interfere-theta-max", 1, sweep(theta_max="inf")),
    bad_value("inf", "transform-matrix", 1, transform(matrix=matrix_with("Infinity"))),
    bad_value("inf", "verify", 1, verify(matrix_with("-Infinity"))),
    bad_value("huge-int", "classify-p1", 1, triple(p1=DIGITS)),
    bad_value("huge-int", "interfere-p1", 1, sweep(p1=DIGITS)),
    bad_value("huge-int", "interfere-steps", 1, sweep(steps=DIGITS)),
    bad_value("huge-int", "interfere-negative-steps", 1, sweep(steps="-" + DIGITS)),
    bad_value("huge-int", "witness", 1, witness("-" + DIGITS)),
    bad_value("huge-int", "transform-state", 1, transform(state=state_with(DIGITS))),
    bad_value("huge-int", "verify", 1, verify(matrix_with(DIGITS))),
    bad_value("shape", "transform-state", 1, transform(state=matrix_with(1))),
    bad_value("shape", "transform-matrix", 1, transform(matrix=state_with(1))),
    bad_value("shape", "verify", 1, verify("[[[1, 0], [0, 0]], [[0, 0], [1]]]")),
    # finite values: a phase grid that overflows, more steps than a sweep
    # computes, a hyperbolic phase beyond THETA_MAX
    bad_value(
        "overflow", "interfere-span", 2, sweep(theta_min="-1e308", theta_max="1e308")
    ),
    # 1e308 - (-1e308), a light-cone coordinate of the entry, is not a double
    bad_value(
        "overflow", "verify", 2, verify("[[[1e308, -1e308], [0, 0]], [[0, 0], [1, 0]]]")
    ),
    bad_value(
        "overflow", "interfere-grid", 2, sweep(theta_min="-1", theta_max="1e308")
    ),
    bad_value("too-many", "interfere-steps", 1, sweep(steps="1000001")),
    bad_value("phase", "interfere-theta-max", 2, sweep(law="hyp", theta_max="301")),
]


def with_files(argv, tmp_path):
    """``argv`` with each JSON document written to a file in its place."""
    argv = list(argv)
    for index, arg in enumerate(argv):
        if arg.startswith("["):
            path = tmp_path / f"{index}.json"
            path.write_text(arg)
            argv[index] = str(path)
    return argv


def check_refusal(code, out, err, expected_code, named):
    """The contract for a bad value: its exit code, nothing on stdout, and
    one short error line on stderr, naming the input ``named``, if set."""
    assert code == expected_code, err
    assert out == "", err
    assert err.startswith("error: ") and err.count("\n") == 1, err
    assert len(err.encode()) < 200, err
    if named:
        assert err.startswith(f"error: {named} must"), err


@pytest.mark.parametrize("argv,code,named", BAD_VALUE_CASES)
def test_bad_value_gets_its_class_exit_code(argv, code, named, tmp_path, capsys):
    returned = main(with_files(argv, tmp_path))
    captured = capsys.readouterr()
    check_refusal(returned, captured.out, captured.err, code, named)


def test_verify_answers_a_light_cone_entry(capsys):
    # x*x - y*y of [1e200, 1e200] is inf - inf; in (u, v) it is 2e200 * 0
    code = main(["verify", "--matrix", str(DATA / "matrix_light_cone.json")])
    out = capsys.readouterr().out
    report = json.loads(out)
    assert code == 3
    assert report["orthonormality_residual"] == 1.0
    assert report["unitary"] is False
    assert "Infinity" not in out and "NaN" not in out


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


def test_module_entry_point_matches_golden():
    for buffered in (True, False):
        for name, expected_code, argv in GOLDEN_CASES:
            proc = run_module(argv, buffered)
            label = f"{name}, buffered={buffered}"
            assert proc.returncode == expected_code, label
            assert proc.stdout == (GOLDEN / name).read_text(), label


def test_module_entry_point_exit_codes():
    for expected_code, argv in EXIT_CASES:
        proc = run_module(argv)
        assert proc.returncode == expected_code, argv
        if expected_code:
            assert proc.stdout == "", argv


def assert_one_error_line(returncode, stderr):
    assert returncode == 1, stderr
    lines = stderr.splitlines()
    assert len(lines) == 1 and lines[0].startswith("error: "), stderr


@pytest.mark.skipif(not os.path.exists("/dev/full"), reason="no /dev/full")
@pytest.mark.parametrize(
    "argv",
    [CLASSIFY_ARGV, interfere_argv(20000)],
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


def test_closed_pipe_exits_1():
    # the output is far larger than a pipe's buffer, so the child's writes
    # fail once the read end is closed, whenever that happens
    proc = subprocess.Popen(
        [sys.executable, "-m", "hyperq", *interfere_argv(20000)],
        stdout=subprocess.PIPE,
        stderr=subprocess.PIPE,
        text=True,
        env=child_env(buffered=True),
    )
    proc.stdout.close()
    with proc.stderr:
        stderr = proc.stderr.read()
    assert_one_error_line(proc.wait(), stderr)
    assert "Broken pipe" in stderr


#: Stdlib modules no subcommand may import: ``dataclasses`` pulls in
#: ``inspect``, and with it ``ast``, ``dis`` and ``tokenize``.
HEAVY_STDLIB = {"dataclasses", "inspect"}


@pytest.mark.parametrize(
    "argv,needed,unneeded",
    [
        (CLASSIFY_ARGV, "interference", {"born", "space", "witness"}),
        (interfere_argv(3), "interference", {"born", "space", "witness"}),
        (
            ["transform", "--state", str(DATA / "state_basis.json")]
            + ["--matrix", str(DATA / "matrix_identity.json")],
            "born",
            {"interference", "witness"},
        ),
        (
            ["verify", "--matrix", str(DATA / "matrix_hadamard.json")],
            "space",
            {"born", "interference", "witness"},
        ),
        (["witness", "--seed", "1"], "witness", {"interference"}),
    ],
    ids=["classify", "interfere", "transform", "verify", "witness"],
)
def test_subcommand_loads_only_what_it_needs(argv, needed, unneeded):
    proc = run_module(argv, flags=["-X", "importtime"])
    assert proc.returncode == 0, proc.stderr
    # -X importtime names every module the child imports, one per line
    loaded = {
        line.rsplit("|", 1)[1].strip()
        for line in proc.stderr.splitlines()
        if line.startswith("import time:")
    }
    assert f"hyperq.{needed}" in loaded
    assert not loaded & {f"hyperq.{name}" for name in unneeded}
    assert not loaded & HEAVY_STDLIB


@pytest.mark.skipif(shutil.which("hyperq") is None, reason="script not on PATH")
def test_console_script_runs(tmp_path):
    proc = subprocess.run(["hyperq", "--help"], capture_output=True, text=True)
    assert proc.returncode == 0
    # every bad-value row through the installed script, as CI installs it
    for case in BAD_VALUE_CASES:
        argv, code, named = case.values
        command = ["hyperq", *with_files(argv, tmp_path)]
        proc = subprocess.run(command, capture_output=True, text=True)
        check_refusal(proc.returncode, proc.stdout, proc.stderr, code, named)
