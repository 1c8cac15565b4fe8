"""Helpers shared by the test modules: the scanner behind the AST locks, the
outcome of a call as a comparable value, and the Python calls a call makes."""

import ast
import sys
from pathlib import Path

SRC = Path(__file__).resolve().parent.parent / "src" / "hyperq"


def scan(matches):
    """``{module.qualname: [source, ...]}`` of the nodes in ``src/hyperq``
    that ``matches`` accepts."""
    found = {}

    def visit(node, scope):
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
            scope = [*scope, node.name]
        if matches(node):
            found.setdefault(".".join(scope), []).append(ast.unparse(node))
        for child in ast.iter_child_nodes(node):
            visit(child, scope)

    for path in sorted(SRC.glob("*.py")):
        visit(ast.parse(path.read_text(encoding="utf-8")), [path.stem])
    return found


def outcome(call, *args):
    """The repr of the result, or the type and message of the error."""
    try:
        return repr(call(*args))
    except Exception as exc:
        return type(exc), str(exc)


def python_calls(fn, *args):
    """The names of the Python functions that ``fn(*args)`` runs, ``fn``
    first, one per ``sys.setprofile`` "call" event, in call order.

    Builtins written in C raise no such event, so a hot path's list names
    each Python frame it costs: a helper hop that comes back shows here.
    """
    names = []

    def profile(frame, event, arg):
        if event == "call":
            names.append(frame.f_code.co_name)

    sys.setprofile(profile)
    try:
        fn(*args)
    finally:
        sys.setprofile(None)
    return names
