"""Command-line front end for batch use of the toolkit.

Subcommands
-----------
classify   regime/phase verdict for one probability triple (JSON).
interfere  parameter sweep of an interference law (CSV).
transform  basis change plus Born-rule decomposition of a state file (JSON).
verify     unitarity / positive-cone / stochasticity report for a matrix
           file (JSON).
witness    seeded search for a non-transitivity witness (JSON).

Numbers cross the boundary in fixed machine formats: split-complex scalars
as ``[x, y]``, vectors as ``[[x1,y1],[x2,y2]]``, matrices as row-major
nested arrays of the same pairs.  Data goes to standard output, diagnostics
to standard error.  Each runner returns its exit code and its output and
writes nothing; ``main`` alone writes standard output.  Output is a JSON
document, in which a number that is not finite is refused (exit 1, nothing
on stdout), or, for ``interfere``, CSV text as an iterator of pieces, each
built when it is taken and written with one ``write``.  Every check is made
before the runner returns, so a refused input leaves stdout empty.

The command line is read against one table, ``_COMMANDS``, which gives each
subcommand's runner and options.  An option's value is the argument after
it, or the text after ``=``, so a negative number, ``-inf`` and a path
that starts with ``-`` are values; the last occurrence of an option wins.
Options are spelled in full, and ``--`` is an unknown option.  ``-h`` or
``--help``, as an argument of its own anywhere, prints the usage text,
built from the table, and exits 0.

Exit codes: 0 success; 1 usage (a ``ValueError`` from ``_read``), parse or
I/O failure (a failed write to standard output included), a value that is
not finite (NaN, an infinity, an integer too large for a double:
``ValueError`` from the one finiteness rule,
``hyperq._rules._check_finite``) or a command-line parameter out of its
range; 2 a finite value outside the operation's domain, or a finite
computation that overflows (``PreconditionError``); 3 negative semantic
verdict (not decomposable, verification failed); 4 search exhausted.  JSON
is still emitted on exit 3.  Every refusal, exit 1 or 2, is one ``error:``
line on standard error.  A value or path in it is shown by ``_shown``:
control and non-ASCII characters escaped, and past 80 characters ``...``
and its last 77.

Each runner imports the modules it needs, so ``classify`` and ``interfere``
never load ``algebra``, ``born``, ``space`` or ``witness``, and ``witness``
never loads ``born`` or ``interference``.  No subcommand loads the stdlib
``typing``: the annotation names come from ``collections.abc``.
"""

from __future__ import annotations

import os
import sys
from collections.abc import Callable, Iterable, Iterator, Sequence

from .errors import PreconditionError

__all__ = ["main"]


#: CSV rows in each piece of ``interfere``'s text, which ``main`` writes with
#: one ``write`` call.
_CHUNK_ROWS = 4096


def _shown(text: str) -> str:
    """``text`` as a refusal names it: its control and non-ASCII characters
    escaped, as Python escapes them in a literal, and past 80 characters
    ``...`` and its last 77, so that the refusal fits one short line."""
    text = text.encode("unicode_escape").decode()
    return text if len(text) <= 80 else "..." + text[-77:]


def _load(cls: type, option: str, path: str) -> object:
    """``cls.from_list`` of the JSON document in the file ``path``, given to
    the command-line ``option``.

    A file that cannot be opened or read as JSON is refused as ``<path>:
    <reason>``, the path shown by ``_shown``.  A document that
    ``from_list`` refuses is refused as ``<option>: <reason>``, which tells
    the two files of ``transform`` apart.
    """
    import json

    try:
        fh = open(path, encoding="utf-8")
    except OSError as exc:
        raise OSError(f"{_shown(path)}: {exc.strerror}") from None
    with fh:
        try:
            document = json.load(fh)
        except RecursionError:
            raise ValueError(f"{_shown(path)}: JSON nested too deeply") from None
        # JSONDecodeError and UnicodeDecodeError, named by the file
        except ValueError as exc:
            raise ValueError(f"{_shown(path)}: {exc}") from None
    try:
        return cls.from_list(document)
    except ValueError as exc:
        raise ValueError(f"{option}: {exc}") from None


def _run_classify(p1: float, p2: float, pprime: float) -> tuple[int, object]:
    from .interference import classify

    return 0, classify(pprime, p1, p2).to_json_dict()


def _run_interfere(
    law: str, p1: float, p2: float, theta_min: float, theta_max: float, steps: int, sign: str
) -> tuple[int, Iterator[str]]:
    from .interference import _sweep

    # the whole grid is computed before the runner returns, so a refused
    # point leaves stdout empty; it is held as 8 bytes per point
    chunks = _sweep(law, p1, p2, theta_min, theta_max, steps, 1 if sign == "+" else -1,
                    _CHUNK_ROWS)

    def text() -> Iterator[str]:
        # one piece per chunk, built only when it is taken
        yield "theta,p_prime\n"
        for rows in chunks:
            yield "".join([f"{theta!r},{p_prime!r}\n" for theta, p_prime in rows])

    return 0, text()


def _run_transform(state: str, matrix: str) -> tuple[int, object]:
    from .born import pipeline_probabilities
    from .space import Mat2, Vec2

    beta = _load(Vec2, "--state", state)
    basis = _load(Mat2, "--matrix", matrix)
    decomposition = pipeline_probabilities(beta, basis)
    return 0 if decomposition.decomposable else 3, decomposition.to_json_dict()


def _run_verify(matrix: str) -> tuple[int, object]:
    from .algebra import _in_cone
    from .space import (
        Mat2, _is_unit_sum, doubly_stochastic_residual, is_orthonormal_rows,
        orthonormality_residual, prob_matrix,
    )

    basis = _load(Mat2, "--matrix", matrix)
    (a, b), (c, d) = p = prob_matrix(basis)
    # each verdict comes from the one function that decides its rule
    unitary = is_orthonormal_rows(basis)
    in_cone = all(map(_in_cone, (a, b, c, d)))
    stochastic = _is_unit_sum(a + b, c + d, a + c, b + d)
    return 0 if unitary and in_cone and stochastic else 3, {
        "unitary": unitary,
        "entries_in_g_plus": in_cone,
        "doubly_stochastic": stochastic,
        "orthonormality_residual": orthonormality_residual(basis),
        "stochasticity_residual": doubly_stochastic_residual(p),
    }


def _run_witness(seed: int, max_iter: int) -> tuple[int, object]:
    from .witness import search_non_transitivity

    witness = search_non_transitivity(seed, max_iter)
    if witness is None:
        return 4, {"found": False}
    return 0, witness.to_json_dict()


def _run_help() -> tuple[int, list[str]]:
    """The usage text, one line per subcommand of ``_COMMANDS``."""
    lines = ["usage: hyperq -h | <command> <options>, one of:\n"]
    for command, (_, options, defaults) in _COMMANDS.items():
        words = [command]
        for name, kind in options.items():
            shown = name[2:].upper() if callable(kind) else "|".join(kind)
            words.append(f"[{name} {shown}]" if name in defaults else f"{name} {shown}")
        lines.append(f"  hyperq {' '.join(words)}\n")
    return 0, lines


#: Each subcommand's runner, its options and their defaults.  An option
#: takes one value, converted by ``float``, ``int`` or ``str``, or one of a
#: tuple of words; an option without a default is required.
_COMMANDS = {
    "classify": (_run_classify, {"--p1": float, "--p2": float, "--pprime": float}, {}),
    "interfere": (_run_interfere, {
        "--law": ("trig", "hyp"), "--p1": float, "--p2": float, "--theta-min": float,
        "--theta-max": float, "--steps": int, "--sign": ("+", "-"),
    }, {"--sign": "+"}),
    "transform": (_run_transform, {"--state": str, "--matrix": str}, {}),
    "verify": (_run_verify, {"--matrix": str}, {}),
    "witness": (_run_witness, {"--seed": int, "--max-iter": int}, {"--max-iter": 10000}),
}


def _one_of(subject: str, words: Iterable[str], word: str) -> str:
    """``word`` if it is one of ``words``, else refused as a value of ``subject``."""
    if word in words:
        return word
    raise ValueError(f"{subject}: expected one of {', '.join(words)}, got '{_shown(word)}'")


def _read(argv: Sequence[str]) -> tuple[Callable[..., tuple[int, object]], dict]:
    """The runner that ``argv`` asks for and its keyword arguments.

    ``argv`` is a subcommand of ``_COMMANDS`` and its options.  Each option
    takes one value: the argument after it, or the text after ``=``, so
    ``-1.5e-05`` and ``-inf`` are values.  The last occurrence of an option
    wins.  ``-h`` or ``--help``, as an argument of its own anywhere in
    ``argv``, asks for ``_run_help``.  Any other argv is refused with one
    ``ValueError``.
    """
    if "-h" in argv or "--help" in argv:
        return _run_help, {}
    command, *rest = argv or [""]
    run, options, defaults = _COMMANDS[_one_of("command", _COMMANDS, command)]
    values = dict(defaults)
    args = iter(rest)
    for arg in args:
        name, joined, value = arg.partition("=")
        kind = options[_one_of(command, options, name)]
        value = value if joined else next(args, None)
        if value is None:
            raise ValueError(f"{name}: expected a value")
        try:
            # a tuple of words: its ``index`` refuses any other word
            values[name] = kind(value) if callable(kind) else kind[kind.index(value)]
        except ValueError:
            expected = kind.__name__ if callable(kind) else f"one of {', '.join(kind)}"
            raise ValueError(f"{name}: expected {expected}, got '{_shown(value)}'") from None
    missing = [name for name in options if name not in values]
    if missing:
        raise ValueError(f"{command}: missing {', '.join(missing)}")
    return run, {name[2:].replace("-", "_"): value for name, value in values.items()}


def main(argv: Sequence[str] | None = None) -> int:
    try:
        run, values = _read(sys.argv[1:] if argv is None else argv)
        code, output = run(**values)
        if isinstance(output, dict):
            import json

            # the one JSON writer: a non-finite number is a ValueError here
            print(json.dumps(output, separators=(",", ":"), allow_nan=False))
        else:
            # text, one write per piece, not per row: unbuffered, each
            # write is a syscall
            write = sys.stdout.write
            for piece in output:
                write(piece)
        # flushed here, not at interpreter exit, so that a failed write (a
        # full disk, a closed pipe) is reported like any other I/O error
        sys.stdout.flush()
        return code
    except PreconditionError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except (ValueError, OSError) as exc:
        _drop_unwritable_stdout()
        print(f"error: {exc}", file=sys.stderr)
        return 1


def _drop_unwritable_stdout() -> None:
    """Send stdout to the null device if its buffered bytes cannot be written.

    The interpreter flushes stdout again at exit; a second failure there
    would print "Exception ignored" and exit 120 instead of 1.
    """
    try:
        sys.stdout.flush()
    except OSError:
        devnull = os.open(os.devnull, os.O_WRONLY)
        os.dup2(devnull, sys.stdout.fileno())
        os.close(devnull)
