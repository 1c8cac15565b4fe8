"""The argparse reader that ``hyperq.cli._read`` replaced, kept as the
oracle of ``test_cli_differential.py``.

``_Parser`` and ``build_parser`` are the code that ``hyperq.cli`` ran
before its option table; only the imports are new.  ``parse_args`` gives
a namespace whose ``run`` is the runner and whose other fields, but
``command``, are the runner's keyword arguments, or exits 1.
"""

import argparse
import re
import sys

from hyperq.cli import _run_classify, _run_interfere, _run_transform, _run_verify, _run_witness


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
