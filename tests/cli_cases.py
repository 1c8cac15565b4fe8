"""Shared table of command-line cases used by the CLI and acceptance tests."""

from pathlib import Path

TESTS = Path(__file__).parent
DATA = TESTS / "data"
GOLDEN = TESTS / "golden"


def _data(name: str) -> str:
    return str(DATA / name)


# (golden file, expected exit code, argv)
GOLDEN_CASES = [
    (
        "classify_trig.json",
        0,
        ["classify", "--p1", "0.5", "--p2", "0.5", "--pprime", "0.5"],
    ),
    (
        "classify_boundary.json",
        0,
        ["classify", "--p1", "0.25", "--p2", "0.25", "--pprime", "1.0"],
    ),
    (
        "interfere_hyp.csv",
        0,
        [
            "interfere",
            "--law",
            "hyp",
            "--p1",
            "0.25",
            "--p2",
            "0.25",
            "--theta-min",
            "0",
            "--theta-max",
            "0.962424",
            "--steps",
            "2",
            "--sign",
            "+",
        ],
    ),
    (
        "interfere_trig.csv",
        0,
        [
            "interfere",
            "--law",
            "trig",
            "--p1",
            "0.5",
            "--p2",
            "0.5",
            "--theta-min",
            "0",
            "--theta-max",
            "3.14159265",
            "--steps",
            "2",
        ],
    ),
    (
        "transform_identity.json",
        0,
        [
            "transform",
            "--state",
            _data("state_basis.json"),
            "--matrix",
            _data("matrix_identity.json"),
        ],
    ),
    (
        "transform_witness.json",
        3,
        [
            "transform",
            "--state",
            _data("state_witness.json"),
            "--matrix",
            _data("matrix_hadamard.json"),
        ],
    ),
    ("verify_hadamard.json", 0, ["verify", "--matrix", _data("matrix_hadamard.json")]),
    (
        "verify_nonunitary.json",
        3,
        ["verify", "--matrix", _data("matrix_nonunitary.json")],
    ),
    (
        "verify_jdominant.json",
        3,
        ["verify", "--matrix", _data("matrix_jdominant.json")],
    ),
    ("witness_seed1.json", 0, ["witness", "--seed", "1", "--max-iter", "10000"]),
    ("witness_notfound.json", 4, ["witness", "--seed", "10", "--max-iter", "1"]),
]

# (expected exit code, argv); a failing case leaves stdout empty
EXIT_CASES = [
    (1, []),
    (1, ["frobnicate"]),
    (1, ["classify", "--p1", "abc", "--p2", "0.5", "--pprime", "0.5"]),
    (1, ["classify", "--p1", "0.5", "--p2", "0.5"]),
    (2, ["classify", "--p1", "0", "--p2", "0.5", "--pprime", "0.5"]),
    (
        1,
        [
            "interfere",
            "--law",
            "trig",
            "--p1",
            "0.5",
            "--p2",
            "0.5",
            "--theta-min",
            "0",
            "--theta-max",
            "1",
            "--steps",
            "1",
        ],
    ),
    (
        1,
        [
            "interfere",
            "--law",
            "trig",
            "--p1",
            "0.5",
            "--p2",
            "0.5",
            "--theta-min",
            "2",
            "--theta-max",
            "1",
            "--steps",
            "5",
        ],
    ),
    (
        2,
        [
            "interfere",
            "--law",
            "hyp",
            "--p1",
            "0.5",
            "--p2",
            "0.5",
            "--theta-min",
            "0",
            "--theta-max",
            "400",
            "--steps",
            "2",
        ],
    ),
    (
        2,
        [
            "transform",
            "--state",
            _data("state_basis.json"),
            "--matrix",
            _data("matrix_nonunitary.json"),
        ],
    ),
    (
        1,
        [
            "transform",
            "--state",
            _data("no_such_file.json"),
            "--matrix",
            _data("matrix_identity.json"),
        ],
    ),
    (
        1,
        [
            "transform",
            "--state",
            _data("matrix_identity.json"),
            "--matrix",
            _data("matrix_identity.json"),
        ],
    ),
    (1, ["witness", "--seed", "1", "--max-iter", "0"]),
    # p1*p2 underflows to 0; the coefficient is then too large for any phase
    (2, ["classify", "--p1", "1e-320", "--p2", "1e-320", "--pprime", "1"]),
    # finite entries whose light-cone coordinate x - y overflows
    (2, ["verify", "--matrix", _data("matrix_overflow.json")]),
    # finite coordinates whose squared norms sum to NaN (inf * 0)
    (
        2,
        [
            "transform",
            "--state",
            _data("state_nan_norm.json"),
            "--matrix",
            _data("matrix_identity.json"),
        ],
    ),
    # an infinite phase range, which would put NaN at the first grid point
    (
        1,
        [
            "interfere",
            "--law",
            "hyp",
            "--p1",
            "0.5",
            "--p2",
            "0.5",
            "--theta-min",
            "0",
            "--theta-max",
            "inf",
            "--steps",
            "2",
        ],
    ),
    # finite inputs whose law value overflows; no inf reaches stdout
    (
        2,
        [
            "interfere",
            "--law",
            "hyp",
            "--p1",
            "1e308",
            "--p2",
            "1e308",
            "--theta-min",
            "0",
            "--theta-max",
            "1",
            "--steps",
            "3",
        ],
    ),
    (
        2,
        [
            "interfere",
            "--law",
            "trig",
            "--p1",
            "1e308",
            "--p2",
            "1e308",
            "--theta-min",
            "0",
            "--theta-max",
            "1",
            "--steps",
            "3",
        ],
    ),
    # the same sweep at 1e300 fits in a double: 4e300 at theta = 0
    (
        0,
        [
            "interfere",
            "--law",
            "hyp",
            "--p1",
            "1e300",
            "--p2",
            "1e300",
            "--theta-min",
            "0",
            "--theta-max",
            "1",
            "--steps",
            "3",
        ],
    ),
    # pprime - p1 - p2 overflows; lambda is -1 + 2.5e-309, the boundary
    (0, ["classify", "--p1", "1e308", "--p2", "1e308", "--pprime", "0.5"]),
]
