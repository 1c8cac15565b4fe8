"""A contract fuzzer: ``cli.main`` through all five subcommands, over the
whole double range.

Each run builds one command line, runs ``cli.main`` in this process and
checks the command-line contract as code:

- the exit code is in {0, 1, 2, 3, 4}, and no exception escapes ``main``;
- on exit 1 or 2, stdout is empty and stderr is one ``error:`` line under
  200 bytes, and not the JSON writer's refusal of a number that is not
  finite: a runner refuses such a number itself;
- on exit 0, 3 or 4, stdout is a JSON document with no NaN or infinity,
  or, for ``interfere``, a CSV of finite floats under its header.

Numbers come from the landmarks of the double range and from uniform
draws, in value and in exponent; matrices and states from
``make_decomposable_unitary`` and ``amplitude``, moved by a few ulps and
scaled toward overflow, from raw and light-cone entries, and from the
top-of-range matrices that ``verify`` answers or refuses.  Each command
line is well formed (each option gets a value of its type), so its
refusals are hyperq's own; one run in ``MUTATED`` is then bent by
``mutated`` into a usage error, or into a spelling that reads the same, so
that the reader's refusals meet the same contract.

Run ``seed`` builds its command with ``random.Random(seed)``, for seeds
0, 1, 2, ..., so every run is deterministic and a failure names its seed
and its command line.  Under pytest the fuzzer makes ``RUNS`` runs; as a
script it makes ``LONG_RUNS``::

    PYTHONPATH=src python tests/test_contract_fuzz.py
"""

import contextlib
import io
import json
import math
import random
import sys
import tempfile
from pathlib import Path

from hyperq.born import amplitude
from hyperq.cli import main
from hyperq.witness import UnitaryParams, make_decomposable_unitary

#: Runs under pytest, and as a script.
RUNS = 2000
LONG_RUNS = 20_000

MAX = sys.float_info.max

#: The landmarks of the double range, each with both signs.
LANDMARKS = [
    sign * x
    for x in (0.0, 5e-324, sys.float_info.min, 1e-200, 1e-154, 1.0, 1e154, 1e200, 1e308, MAX)
    for sign in (1.0, -1.0)
]

#: Scales that take a unit-sized matrix or state toward either end of the range.
SCALES = [1e-154, 1e154, 1e300, 1e307, 1e308, MAX]

#: Top-of-range matrices: a cross term of 1e308, answered; row products
#: that overflow, alone or to inf and -inf; a light-cone entry whose x + y
#: is not a double; a column sum of the squared moduli that overflows.
#: The pair to inf and -inf is refused, though its exact residual, 1e308,
#: is a double: an open refusal, kept here whichever exit code it gets.
#: Last, squared moduli that overflow to inf and -inf in one row, whose sum
#: is NaN: the stochasticity residual, about 4e308, is no double.
TOP_MATRICES = [
    [[[1e308, 1e308], [1e308, 1e308]], [[0, 0], [1, 0]]],
    [[[1e308, 0], [0, 0]], [[0, 0], [1, 0]]],
    [[[1e308, 0], [0, 1e308]], [[0, 0], [1, 0]]],
    [[[1e308, 1e308], [0, 0]], [[0, 0], [1, 0]]],
    [[[0, 1e154], [1, 0]], [[0, 1e154], [0, 1]]],
    [[[2e154, 0], [0, 2e154]], [[0, 0], [1, 0]]],
]

#: Option values that are not finite; the parser reads each as a float.
NOT_FINITE = ["nan", "inf", "-inf"]

#: Step and iteration counts that are refused: too few, too many, too large.
ODD_STEPS = [-1, 0, 1, 1_000_001, -(10**400)]

#: The share of runs whose command line is mutated.
MUTATED = 0.1

#: Values that some or all options refuse: no number, no integer, negative,
#: not finite, a path that starts with "-", one with a line break, and two
#: past 80 characters, one of them in 4-byte characters.
ODD_VALUES = [
    "abc", "", "2.5", "-1", "-1.5e-05", "-inf", "1e999", "-x", "a\nb", "x" * 300,
    "\U0001F600" * 100,
]

#: Option names that no subcommand takes.
UNKNOWN = ["--frobnicate", "-p1", "--P1", "p1", "x" * 300]


def real(rng: random.Random) -> float:
    """A landmark, a uniform draw near 1, or a draw uniform in the exponent."""
    kind = rng.random()
    if kind < 0.4:
        return rng.choice(LANDMARKS)
    if kind < 0.7:
        return rng.uniform(-2.0, 2.0)
    return rng.choice((1.0, -1.0)) * math.ldexp(rng.random(), rng.randint(-1074, 1024))


def probability(rng: random.Random) -> float:
    """Half the time in [0, 1], else a real, negative one time in thirteen."""
    kind = rng.random()
    if kind < 0.5:
        return rng.random()
    return abs(real(rng)) if kind < 0.85 else real(rng)


def phase(rng: random.Random) -> float:
    """A phase for a sweep: mostly within 20, else any real."""
    return rng.uniform(-20.0, 20.0) if rng.random() < 0.6 else real(rng)


def angles(rng: random.Random, count: int) -> list:
    """``count`` phases within one bound, 1, 3, 20 or 100, so that the
    difference of two is within ``THETA_MAX``, which ``amplitude`` takes.
    Above a phase of about 5, a unitary's rounded entries are no longer
    orthonormal within ``EPS_ALG``."""
    bound = rng.choice((1.0, 3.0, 3.0, 20.0, 100.0))
    return [rng.uniform(-bound, bound) for _ in range(count)]


def option(rng: random.Random, value: float) -> str:
    """A float option's value as a shell passes it, now and then not finite."""
    return rng.choice(NOT_FINITE) if rng.random() < 0.03 else repr(value)


def moved(pairs: list, rng: random.Random) -> list:
    """``pairs`` with every component moved by the same few ulps and, one
    time in three, scaled by one of ``SCALES``, clamped to the largest
    double."""
    steps = rng.randint(-4, 4)
    scale = rng.choice(SCALES) if rng.random() < 0.35 else 1.0
    toward = math.copysign(math.inf, steps)

    def move(x: float) -> float:
        for _ in range(abs(steps)):
            x = math.nextafter(x, toward)
        return max(-MAX, min(MAX, x * scale))

    return [[move(x), move(y)] for x, y in pairs]


def raw_entry(rng: random.Random) -> list:
    """An entry of two reals, or on the light cone, where x*x - y*y cancels."""
    x = real(rng)
    return [x, rng.choice((x, -x))] if rng.random() < 0.3 else [x, real(rng)]


def matrix(rng: random.Random) -> list:
    """Mostly a decomposable unitary, else raw or top-of-range entries."""
    kind = rng.random()
    if kind < 0.2:
        return [[raw_entry(rng), raw_entry(rng)], [raw_entry(rng), raw_entry(rng)]]
    if kind < 0.8:
        params = UnitaryParams(rng.uniform(1e-6, 1 - 1e-6), *angles(rng, 3))
        pairs = [(z.x, z.y) for z in make_decomposable_unitary(params).entries()]
    else:
        pairs = [pair for row in rng.choice(TOP_MATRICES) for pair in row]
    a, b, c, d = moved(pairs, rng)
    return [[a, b], [c, d]]


def state(rng: random.Random) -> list:
    """Mostly a normalized state of two amplitudes, else raw entries."""
    if rng.random() < 0.25:
        return [raw_entry(rng), raw_entry(rng)]
    q = rng.random()
    xi1, xi2 = angles(rng, 2)
    pair = [amplitude(rng.choice((1, -1)), q, xi1), amplitude(rng.choice((1, -1)), 1.0 - q, xi2)]
    return moved([(z.x, z.y) for z in pair], rng)


def command(rng: random.Random) -> list:
    """One command line; a ``bytes`` argument is the content of a file."""
    name = rng.choice(["classify", "interfere", "transform", "verify", "witness"])
    if name == "classify":
        p1, p2, pprime = (option(rng, probability(rng)) for _ in range(3))
        return [name, "--p1", p1, "--p2", p2, "--pprime", pprime]
    if name == "interfere":
        # mostly an ordered phase range and a step count that a sweep takes
        lo, hi = phase(rng), phase(rng)
        if rng.random() < 0.8:
            lo, hi = min(lo, hi), max(lo, hi)
        steps = rng.randint(2, 64) if rng.random() < 0.8 else rng.choice(ODD_STEPS)
        return [
            name, "--law", rng.choice(["trig", "hyp"]),
            "--p1", option(rng, probability(rng)), "--p2", option(rng, probability(rng)),
            "--theta-min", option(rng, lo), "--theta-max", option(rng, hi),
            "--steps", str(steps), "--sign", rng.choice("+-"),
        ]
    if name == "transform":
        return [
            name,
            "--state", json.dumps(state(rng)).encode(),
            "--matrix", json.dumps(matrix(rng)).encode(),
        ]
    if name == "verify":
        return [name, "--matrix", json.dumps(matrix(rng)).encode()]
    max_iter = rng.randint(1, 200) if rng.random() < 0.9 else rng.choice(ODD_STEPS)
    return [name, "--seed", str(rng.getrandbits(64) - 2**63), "--max-iter", str(max_iter)]


def mutated(rng: random.Random, argv: list) -> list:
    """``argv`` after one to three mutations, each drawn from: an option
    dropped, its value dropped, an option repeated with the value of another,
    one joined to its value by ``=``, the options reordered, an unknown
    option, an abbreviated one, a value replaced by one of ``ODD_VALUES``,
    a ``--`` inserted before a value or between options, and an unknown
    command.  A ``bytes`` value, a file's content, is never joined."""
    name, *rest = argv
    # each group is an option and its value, until a mutation splits or joins it
    groups = [rest[i:i + 2] for i in range(0, len(rest), 2)]
    for _ in range(rng.randint(1, 3)):
        kind = rng.randrange(10)
        at = rng.randrange(len(groups)) if groups else None
        pair = at is not None and len(groups[at]) == 2
        if kind == 0 and groups:
            del groups[at]
        elif kind == 1 and pair:
            groups[at] = groups[at][:1]
        elif kind == 2 and pair:
            value = rng.choice([group[-1] for group in groups])
            groups.insert(rng.randrange(len(groups) + 1), [groups[at][0], value])
        elif kind == 3 and pair and isinstance(groups[at][1], str):
            groups[at] = ["=".join(groups[at])]
        elif kind == 4:
            rng.shuffle(groups)
        elif kind == 5:
            groups.insert(rng.randrange(len(groups) + 1), [rng.choice(UNKNOWN), "1"])
        elif kind == 6 and pair and groups[at][0].startswith("--") and len(groups[at][0]) > 3:
            option = groups[at][0]
            groups[at] = [option[: rng.randrange(3, len(option))], groups[at][1]]
        elif kind == 7 and pair:
            groups[at] = [groups[at][0], rng.choice(ODD_VALUES)]
        elif kind == 8 and pair:
            groups[at] = [groups[at][0], "--", groups[at][1]]
        elif kind == 8:
            groups.insert(rng.randrange(len(groups) + 1), ["--"])
        elif kind == 9:
            name = rng.choice(["frobnicate", "Classify", "", "x" * 300])
    return [name] + [arg for group in groups for arg in group]


def run(argv: list, folder: Path) -> tuple[int, str, str]:
    """``cli.main`` on ``argv``, each ``bytes`` argument written to a file in
    ``folder`` in its place; returns the exit code, stdout and stderr."""
    args = list(argv)
    for index, arg in enumerate(args):
        if isinstance(arg, bytes):
            path = folder / f"{index}.json"
            path.write_bytes(arg)
            args[index] = str(path)
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        try:
            code = main(args)
        except (Exception, SystemExit) as exc:
            raise AssertionError(f"{exc!r} escaped main on {argv}") from exc
    return code, out.getvalue(), err.getvalue()


def refuse_constant(name: str) -> None:
    raise AssertionError(f"{name} in a JSON document")


def check_contract(argv: list, folder: Path) -> None:
    code, out, err = run(argv, folder)
    assert code in (0, 1, 2, 3, 4), (argv, code, err)
    if code in (1, 2):
        assert out == "", (argv, out)
        assert err.startswith("error: ") and err.count("\n") == 1, (argv, err)
        assert len(err.encode()) < 200, (argv, err)
        # main's last net under the runners; Python 3.13 appends the value
        assert "not JSON compliant" not in err, (argv, err)
    elif argv[0] == "interfere":
        header, *rows = out.splitlines()
        assert header == "theta,p_prime", (argv, header)
        for row in rows:
            values = [float(field) for field in row.split(",")]
            assert len(values) == 2 and all(map(math.isfinite, values)), (argv, row)
    else:
        json.loads(out, parse_constant=refuse_constant)


def fuzz(runs: int) -> None:
    """The contract check on the commands of seeds 0 to ``runs`` - 1, whose
    input files are written over in one folder."""
    with tempfile.TemporaryDirectory(prefix="hyperq-fuzz-") as folder:
        for seed in range(runs):
            rng = random.Random(seed)
            argv = command(rng)
            if rng.random() < MUTATED:
                argv = mutated(rng, argv)
            try:
                check_contract(argv, Path(folder))
            except AssertionError as exc:
                raise AssertionError(f"seed {seed}: {exc}") from exc


def test_cli_contract_holds_across_the_double_range():
    fuzz(RUNS)


if __name__ == "__main__":
    fuzz(LONG_RUNS)
    print(f"{LONG_RUNS} runs: no contract violation")
