"""The command-line contract as three tables, one row per case.

``GOLDEN_CASES`` pins the exit code and the exact stdout of a command,
``EXIT_CASES`` its exit code, and ``BAD_VALUE_CASES`` the refusal of a bad
input.  ``tests/test_cli.py`` checks each table with one checker, through
``cli.main`` and, where it is installed, the ``hyperq`` script; the golden
and exit tables also run through ``python -m hyperq``.
"""

from pathlib import Path

import pytest

TESTS = Path(__file__).parent
DATA = TESTS / "data"
GOLDEN = TESTS / "golden"


def _data(name: str) -> str:
    return str(DATA / name)


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
    return f"[[{x1}, 0], [0, 0]]".encode()


def matrix_with(x11):
    """A matrix document whose first entry is ``[x11, 0]``."""
    return f"[[[{x11}, 0], [0, 0]], [[0, 0], [1, 0]]]".encode()


def transform(state=state_with(1), matrix=matrix_with(1)):
    return ["transform", "--state", state, "--matrix", matrix]


def verify(matrix):
    return ["verify", "--matrix", matrix]


def witness(max_iter):
    return ["witness", "--seed", "1", "--max-iter", max_iter]


# (golden file, expected exit code, argv)
GOLDEN_CASES = [
    ("classify_trig.json", 0, triple()),
    ("classify_boundary.json", 0, triple(p1="0.25", p2="0.25", pprime="1.0")),
    (
        "interfere_hyp.csv",
        0,
        sweep("hyp", "0.25", "0.25", theta_max="0.962424", steps="2") + ["--sign", "+"],
    ),
    ("interfere_trig.csv", 0, sweep(theta_max="3.14159265", steps="2")),
    (
        "transform_identity.json",
        0,
        transform(_data("state_basis.json"), _data("matrix_identity.json")),
    ),
    (
        "transform_witness.json",
        3,
        transform(_data("state_witness.json"), _data("matrix_hadamard.json")),
    ),
    ("verify_hadamard.json", 0, verify(_data("matrix_hadamard.json"))),
    ("verify_nonunitary.json", 3, verify(_data("matrix_nonunitary.json"))),
    ("verify_jdominant.json", 3, verify(_data("matrix_jdominant.json"))),
    ("witness_seed1.json", 0, witness("10000")),
    ("witness_notfound.json", 4, ["witness", "--seed", "10", "--max-iter", "1"]),
    # x*x - y*y of [1e200, 1e200] is inf - inf; in (u, v) it is 2e200 * 0, so
    # the entry gets its exact residual, 1, and no inf or NaN reaches stdout
    ("verify_light_cone.json", 3, verify(_data("matrix_light_cone.json"))),
]

# (expected exit code, argv); a case that fails, exit 1 or 2, leaves stdout
# empty
EXIT_CASES = [
    (1, []),
    (1, ["frobnicate"]),
    (1, triple(p1="abc")),
    (1, ["classify", "--p1", "0.5", "--p2", "0.5"]),
    (2, triple(p1="0")),
    (1, sweep(steps="1")),
    (1, sweep(theta_min="2", steps="5")),
    (2, sweep("hyp", theta_max="400", steps="2")),
    (2, transform(_data("state_basis.json"), _data("matrix_nonunitary.json"))),
    (1, transform(_data("no_such_file.json"), _data("matrix_identity.json"))),
    (1, transform(_data("matrix_identity.json"), _data("matrix_identity.json"))),
    (1, witness("0")),
    # p1*p2 underflows to 0; the coefficient is then too large for any phase
    (2, triple(p1="1e-320", p2="1e-320", pprime="1")),
    # a finite entry whose row product, its squared norm 1e616, overflows
    (2, verify(_data("matrix_overflow.json"))),
    # a finite coordinate whose squared norm overflows
    (2, transform(_data("state_overflow.json"), _data("matrix_identity.json"))),
    # an infinite phase range, which would put NaN at the first grid point
    (1, sweep("hyp", theta_max="inf", steps="2")),
    # finite inputs whose law value overflows; no inf reaches stdout
    (2, sweep("hyp", "1e308", "1e308")),
    (2, sweep("trig", "1e308", "1e308")),
    # the same sweep at 1e300 fits in a double: 4e300 at theta = 0
    (0, sweep("hyp", "1e300", "1e300")),
    # pprime - p1 - p2 overflows; lambda is -1 + 2.5e-309, the boundary
    (0, triple(p1="1e308", p2="1e308")),
    # x - y of [1e308, -1e308] is not a double, but its half is: the squared
    # norms are exactly 0 and 1
    (0, transform(_data("state_top_light_cone.json"), _data("matrix_identity.json"))),
    # two row products that overflow with opposite signs, to inf and -inf.
    # The orthonormality residual is the exact 1e308, but the column sums of
    # the squared moduli, exactly 1e616, are no double: the stochasticity
    # residual refuses the matrix
    (2, verify(_data("matrix_overflow_opposite.json"))),
    # light-cone entries whose cross term, and so the residual, is 1e308: a
    # double, though four times the kernel's quarter sum is not
    (3, verify(_data("matrix_top_cross.json"))),
    # squared norms that overflow to inf and -inf in one row: the sum is
    # NaN, and the exact residual, about 4e308, no double
    (2, verify(_data("matrix_overflow_inf_minus_inf.json"))),
    # a state whose squared norms sum to 1.0017 is refused before the basis
    # change, whose rounded output here sums to 1.0
    (2, transform(_data("state_off_unit_sum.json"), _data("matrix_off_unit_sum.json"))),
]


#: A 400-digit integer, too large for a double.
DIGITS = "9" * 400

#: A command-line value of 300 characters.
LONG = "x" * 300

#: A document nested 100 000 arrays deep, past the JSON decoder's recursion limit.
DEEP_JSON = b"[" * 100_000 + b"]" * 100_000

#: A matrix document whose second row holds 100 000 zeros.
WIDE_ROW_MATRIX = b"[[[1, 0], [0, 0]], [" + b", ".join([b"0"] * 100_000) + b"]]"

#: A matrix document behind a byte that UTF-8 does not decode.
UNDECODABLE = b"\xff" + matrix_with(1)


def bad_value(cls, name, code, argv, named=""):
    return pytest.param(argv, code, named, id=f"{cls}-{name}")


# One row per bad-value class and per subcommand option or file that reads
# such a value: (argv, exit code, the input its message must name, if the
# row says).  A value that is not finite (NaN, an infinity, an integer too
# large for a double) or a document that is not JSON of the right shape
# exits 1, as does a command-line parameter out of its range; a finite
# value outside the operation's domain, or a finite computation that
# overflows, exits 2.  A ``bytes`` argument is a file's content: the runner
# writes it to a file whose path takes its place.  A row that names an
# option, such as "--state", must start its refusal with that option, as a
# document's content is refused; one that names "<--state>" must start it
# with the path of the file given to the option, as a file is refused.
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
    bad_value(
        "nan", "transform-state", 1, transform(state=state_with("NaN")), named="--state"
    ),
    bad_value("nan", "verify", 1, verify(matrix_with("NaN")), named="--matrix"),
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
    bad_value(
        "inf",
        "transform-matrix",
        1,
        transform(matrix=matrix_with("Infinity")),
        named="--matrix",
    ),
    bad_value("inf", "verify", 1, verify(matrix_with("-Infinity")), named="--matrix"),
    bad_value(
        "inf", "verify-positive", 1, verify(matrix_with("Infinity")), named="--matrix"
    ),
    bad_value(
        "inf",
        "transform-both",
        1,
        transform(matrix_with("Infinity"), matrix_with("Infinity")),
        named="--state",
    ),
    bad_value("huge-int", "classify-p1", 1, triple(p1=DIGITS)),
    bad_value("huge-int", "interfere-p1", 1, sweep(p1=DIGITS)),
    bad_value("huge-int", "interfere-steps", 1, sweep(steps=DIGITS)),
    bad_value("huge-int", "interfere-negative-steps", 1, sweep(steps="-" + DIGITS)),
    bad_value(
        "huge-int",
        "interfere-hyp-negative-steps",
        1,
        sweep("hyp", "0.3", "0.4", theta_max="2", steps="-" + DIGITS),
    ),
    bad_value("huge-int", "witness", 1, witness("-" + DIGITS)),
    bad_value(
        "huge-int",
        "transform-state",
        1,
        transform(state=state_with(DIGITS)),
        named="--state",
    ),
    bad_value(
        "huge-int",
        "transform-both",
        1,
        transform(matrix_with(DIGITS), matrix_with(DIGITS)),
        named="--state",
    ),
    bad_value("huge-int", "verify", 1, verify(matrix_with(DIGITS)), named="--matrix"),
    bad_value(
        "shape", "transform-state", 1, transform(state=matrix_with(1)), named="--state"
    ),
    bad_value(
        "shape",
        "transform-matrix",
        1,
        transform(matrix=state_with(1)),
        named="--matrix",
    ),
    bad_value(
        "shape",
        "verify",
        1,
        verify(b"[[[1, 0], [0, 0]], [[0, 0], [1]]]"),
        named="--matrix",
    ),
    bad_value(
        "wide",
        "transform",
        1,
        transform(WIDE_ROW_MATRIX, WIDE_ROW_MATRIX),
        named="--state",
    ),
    bad_value("wide", "verify", 1, verify(WIDE_ROW_MATRIX), named="--matrix"),
    # documents the JSON reader refuses; the message names the file
    bad_value(
        "not-json",
        "transform",
        1,
        transform(b"this is not json", b"this is not json"),
        named="<--state>",
    ),
    bad_value("not-json", "verify", 1, verify(b"this is not json"), named="<--matrix>"),
    bad_value(
        "undecodable",
        "transform",
        1,
        transform(UNDECODABLE, UNDECODABLE),
        named="<--state>",
    ),
    bad_value("undecodable", "verify", 1, verify(UNDECODABLE), named="<--matrix>"),
    bad_value("deep", "transform", 1, transform(DEEP_JSON, DEEP_JSON), named="<--state>"),
    bad_value("deep", "verify", 1, verify(DEEP_JSON), named="<--matrix>"),
    # finite values: a phase grid that overflows, more steps than a sweep
    # computes, a hyperbolic phase beyond THETA_MAX
    bad_value(
        "overflow", "interfere-span", 2, sweep(theta_min="-1e308", theta_max="1e308")
    ),
    # the entry's squared norm, 1e616, is not a double
    bad_value("overflow", "verify", 2, verify(b"[[[1e308, 0], [0, 0]], [[0, 0], [1, 0]]]")),
    # -1e308 + -1e308, a column sum of the squared moduli, is not a double
    bad_value(
        "overflow",
        "verify-sums",
        2,
        verify(b"[[[0, 1e154], [1, 0]], [[0, 1e154], [0, 1]]]"),
    ),
    bad_value(
        "overflow", "interfere-grid", 2, sweep(theta_min="-1", theta_max="1e308")
    ),
    bad_value("too-many", "interfere-steps", 1, sweep(steps="1000001")),
    bad_value("phase", "interfere-theta-max", 2, sweep(law="hyp", theta_max="301")),
    # usage errors: a command line the reader refuses, with the same one
    # short line as any other refusal; a value past 80 characters is shown
    # as "..." and its last 77
    bad_value("usage", "no-command", 1, []),
    bad_value("usage", "unknown-command", 1, ["frobnicate"]),
    bad_value("usage", "long-command", 1, [LONG] + triple()[1:]),
    bad_value("usage", "unknown-option", 1, triple() + ["--frobnicate", "1"]),
    bad_value("usage", "long-option", 1, triple() + ["--" + LONG, "1"]),
    bad_value("usage", "abbreviated-option", 1, witness("1") + ["--max", "5"]),
    bad_value("usage", "separator", 1, triple() + ["--"]),
    bad_value("usage", "no-value", 1, witness("1") + ["--seed"], named="--seed"),
    bad_value("usage", "missing-option", 1, ["interfere", "--law", "trig"]),
    bad_value("usage", "not-a-float", 1, triple(p1="abc"), named="--p1"),
    bad_value("usage", "long-float", 1, triple(p1=LONG), named="--p1"),
    bad_value("usage", "not-an-int", 1, sweep(steps="2.5"), named="--steps"),
    bad_value("usage", "too-many-digits", 1, witness("9" * 5000), named="--max-iter"),
    bad_value("usage", "line-break", 1, triple(pprime="1\n2"), named="--pprime"),
    bad_value("usage", "unlisted-law", 1, sweep(law="foo"), named="--law"),
    bad_value("usage", "unlisted-sign", 1, sweep() + ["--sign", "*"], named="--sign"),
    bad_value("usage", "long-law", 1, sweep(law=LONG), named="--law"),
    # the longest list of options, then a long unknown one
    bad_value("usage", "long-interfere-option", 1, sweep() + ["--" + LONG, "1"]),
    # control and non-ASCII characters are shown escaped, in ASCII, so that
    # a value or a path of 4-byte characters still fits 200 bytes
    bad_value("usage", "non-ascii-value", 1, triple(p1="\U0001F600" * 300), named="--p1"),
    bad_value("non-ascii", "path", 1, verify("\U0001F600" * 100)),
    bad_value("line-break", "path", 1, verify("no\nsuch.json")),
]
