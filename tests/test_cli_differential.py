"""Differential test of the command-line reader: ``cli._read`` against the
argparse parser it replaced, ``argparse_oracle.build_parser``.

Both readers get the contract fuzzer's command lines, each well formed, and
mutations of them (``test_contract_fuzz.mutated``: options dropped,
repeated, joined by ``=``, reordered, unknown or abbreviated, values
dropped or replaced by bad or negative numbers, a ``--`` inserted, an
unknown command).  On each, both must give the same runner and the same
values, of the same types, or both must refuse it, ``_read`` with a
``ValueError`` and argparse with exit 1, except where ``DIVERGENCES`` says
why they differ.  ``--`` is not among them: argparse refuses it too, in
every position, because no subcommand takes anything but options.  No
mutation writes ``-h`` or ``--help``, which ``_read`` takes as a request
for the usage text anywhere, argparse only in an option's place.  After
W. M. McKeeman, "Differential testing for software", Digital Technical
Journal 10(1), 1998.
"""

import contextlib
import io
import random

from argparse_oracle import build_parser
from test_contract_fuzz import command, mutated

from hyperq.cli import _COMMANDS, _read

#: Seeds, and mutations of each seed's command line.
RUNS = 2000
MUTATIONS = 4

#: The command lines on which the two readers are meant to differ: the
#: reader that refuses them, and why.
DIVERGENCES = {
    # argparse reads a unique prefix of an option (--pp, --max) as the
    # option; _read takes whole names only, so that a new option cannot
    # change what an old command line means
    "abbreviation": "_read",
    # a path that starts with "-", "--" included, after a path option:
    # argparse takes it for an option and refuses the option's missing
    # value; _read reads the argument after an option as its value
    "dash-path": "argparse",
}

PARSER = build_parser()


def typed(run, values):
    """The runner and each value with its type, NaN equal to itself."""
    return run, {name: (type(value), repr(value)) for name, value in values.items()}


def ours(argv):
    try:
        return typed(*_read(argv))
    except ValueError:
        return None


def argparse_reads(argv):
    with contextlib.redirect_stderr(io.StringIO()):
        try:
            namespace = vars(PARSER.parse_args(argv))
        except SystemExit as exc:
            assert exc.code == 1, (argv, exc.code)
            return None
    del namespace["command"]
    return typed(namespace.pop("run"), namespace)


def divergences(argv):
    """The ``DIVERGENCES`` whose spelling ``argv`` holds."""
    options = _COMMANDS[argv[0]][1] if argv and argv[0] in _COMMANDS else {}
    found = set()
    for arg, after in zip(argv, argv[1:] + [""]):
        name = arg.partition("=")[0]
        if name != "--" and name not in options and any(o.startswith(name) for o in options):
            found.add("abbreviation")
        elif options.get(arg) is str and after.startswith("-"):
            found.add("dash-path")
    return found


def as_text(argv):
    """``argv`` with each file's content, a ``bytes`` argument, replaced by
    a path: neither reader opens it."""
    return [f"{index}.json" if isinstance(arg, bytes) else arg for index, arg in enumerate(argv)]


def test_reader_matches_argparse():
    seen = set()
    for seed in range(RUNS):
        rng = random.Random(seed)
        argv = as_text(command(rng))
        # the fuzzer's own command lines are read, and read alike
        assert ours(argv) is not None, argv
        assert ours(argv) == argparse_reads(argv), argv
        for _ in range(MUTATIONS):
            bent = mutated(rng, argv)
            mine, theirs = ours(bent), argparse_reads(bent)
            if mine == theirs:
                continue
            reasons = divergences(bent)
            refused_by = {DIVERGENCES[reason] for reason in reasons}
            assert ("_read" in refused_by and mine is None) or (
                "argparse" in refused_by and theirs is None
            ), (seed, bent, mine, theirs)
            if len(reasons) == 1:
                seen |= reasons
    # every divergence listed occurs, alone
    assert seen == set(DIVERGENCES)


def test_last_occurrence_wins():
    argv = ["witness", "--seed", "1", "--max-iter", "5", "--seed=-2"]
    assert ours(argv) == argparse_reads(argv)
    assert _read(argv)[1] == {"seed": -2, "max_iter": 5}
