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

Exit codes: 0 success; 1 usage, parse or I/O failure (a failed write to
standard output included), a value that is not finite (NaN, an infinity, an
integer too large for a double: ``ValueError`` from the one finiteness rule,
``hyperq._rules._check_finite``) or a command-line parameter out of its
range; 2 a finite value outside the operation's domain, or a finite
computation that overflows (``PreconditionError``); 3 negative semantic
verdict (not decomposable, verification failed); 4 search exhausted.  JSON
is still emitted on exit 3.  A negative number, in exponent form too, and
``-inf`` or ``-nan`` are read as an option's value, not as an option.

Each runner imports the modules it needs, so ``classify`` and ``interfere``
never load ``algebra``, ``born``, ``space`` or ``witness``.
"""

from __future__ import annotations

import argparse
import os
import re
import sys
from typing import Iterator, Sequence

from .errors import PreconditionError

__all__ = ["build_parser", "main"]


class _Parser(argparse.ArgumentParser):
    def __init__(self, *args: object, **kwargs: object) -> None:
        super().__init__(*args, **kwargs)
        # "-1.5e-05" and "-inf" are values, not options; argparse's own
        # pattern, which differs between Python versions, misses them
        self._negative_number_matcher = re.compile(r"(?i)^-(\.?\d|(inf|infinity|nan)$)")

    # usage errors must exit 1, not argparse's default 2
    def error(self, message: str) -> None:
        self.print_usage(sys.stderr)
        self.exit(1, f"{self.prog}: error: {message}\n")


#: CSV rows in each piece of ``interfere``'s text, which ``main`` writes with
#: one ``write`` call.
_CHUNK_ROWS = 4096


def _load(cls: type, option: str, path: str) -> object:
    """``cls.from_list`` of the JSON document in the file ``path``, given to
    the command-line ``option``.

    A file that cannot be opened or read as JSON is refused as ``<path>:
    <reason>``, with a path of more than 80 characters shown as ``...`` and
    its last 77, so that the refusal fits one short line.  A document that
    ``from_list`` refuses is refused as ``<option>: <reason>``, which tells
    the two files of ``transform`` apart.
    """
    import json

    shown = path if len(path) <= 80 else "..." + path[-77:]
    try:
        fh = open(path, encoding="utf-8")
    except OSError as exc:
        raise OSError(f"{shown}: {exc.strerror}") from None
    with fh:
        try:
            document = json.load(fh)
        except RecursionError:
            raise ValueError(f"{shown}: JSON nested too deeply") from None
        # JSONDecodeError and UnicodeDecodeError, named by the file
        except ValueError as exc:
            raise ValueError(f"{shown}: {exc}") from None
    try:
        return cls.from_list(document)
    except ValueError as exc:
        raise ValueError(f"{option}: {exc}") from None


def _run_classify(args: argparse.Namespace) -> tuple[int, object]:
    from .interference import classify

    return 0, classify(args.pprime, args.p1, args.p2).to_json_dict()


def _run_interfere(args: argparse.Namespace) -> tuple[int, Iterator[str]]:
    from .interference import _sweep

    sign = 1 if args.sign == "+" else -1
    # the whole grid is computed before the runner returns, so a refused
    # point leaves stdout empty; it is held as 8 bytes per point
    chunks = _sweep(
        args.law, args.p1, args.p2, args.theta_min, args.theta_max, args.steps, sign,
        _CHUNK_ROWS,
    )

    def text() -> Iterator[str]:
        # one piece per chunk, built only when it is taken
        yield "theta,p_prime\n"
        for rows in chunks:
            yield "".join([f"{theta!r},{p_prime!r}\n" for theta, p_prime in rows])

    return 0, text()


def _run_transform(args: argparse.Namespace) -> tuple[int, object]:
    from .born import pipeline_probabilities
    from .space import Mat2, Vec2

    beta = _load(Vec2, "--state", args.state)
    basis = _load(Mat2, "--matrix", args.matrix)
    decomposition = pipeline_probabilities(beta, basis)
    return 0 if decomposition.decomposable else 3, decomposition.to_json_dict()


def _run_verify(args: argparse.Namespace) -> tuple[int, object]:
    from .algebra import _in_cone
    from .space import (
        Mat2,
        _is_unit_sum,
        doubly_stochastic_residual,
        is_orthonormal_rows,
        orthonormality_residual,
        prob_matrix,
    )

    basis = _load(Mat2, "--matrix", args.matrix)
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


def _run_witness(args: argparse.Namespace) -> tuple[int, object]:
    from .witness import search_non_transitivity

    witness = search_non_transitivity(args.seed, args.max_iter)
    if witness is None:
        return 4, {"found": False}
    return 0, witness.to_json_dict()


def build_parser() -> argparse.ArgumentParser:
    parser = _Parser(prog="hyperq", description="split-complex quantum numerics")
    sub = parser.add_subparsers(dest="command", required=True, metavar="command")

    p = sub.add_parser("classify", help="classify one probability triple")
    p.add_argument("--p1", type=float, required=True)
    p.add_argument("--p2", type=float, required=True)
    p.add_argument("--pprime", type=float, required=True)
    p.set_defaults(run=_run_classify)

    p = sub.add_parser("interfere", help="sweep an interference law over theta")
    p.add_argument("--law", choices=("trig", "hyp"), required=True)
    p.add_argument("--p1", type=float, required=True)
    p.add_argument("--p2", type=float, required=True)
    p.add_argument("--theta-min", type=float, required=True)
    p.add_argument("--theta-max", type=float, required=True)
    p.add_argument("--steps", type=int, required=True)
    p.add_argument("--sign", choices=("+", "-"), default="+")
    p.set_defaults(run=_run_interfere)

    p = sub.add_parser("transform", help="change basis and decompose a state")
    p.add_argument("--state", required=True, help="JSON file with [[x1,y1],[x2,y2]]")
    p.add_argument("--matrix", required=True, help="JSON file with a 2x2 matrix")
    p.set_defaults(run=_run_transform)

    p = sub.add_parser("verify", help="check a matrix file")
    p.add_argument("--matrix", required=True, help="JSON file with a 2x2 matrix")
    p.set_defaults(run=_run_verify)

    p = sub.add_parser("witness", help="search for a non-transitivity witness")
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--max-iter", type=int, default=10000)
    p.set_defaults(run=_run_witness)

    return parser


def main(argv: Sequence[str] | None = None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return int(exc.code or 0)
    try:
        code, output = args.run(args)
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


if __name__ == "__main__":
    sys.exit(main())
