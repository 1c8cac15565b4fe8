"""The package namespace: every public name resolves on first use."""

import ast
import importlib
import subprocess
import sys
from pathlib import Path

import pytest

import hyperq

SUBMODULES = [importlib.import_module(f"hyperq.{name}") for name in hyperq._SUBMODULES]


def test_every_public_name_resolves():
    for module in SUBMODULES:
        for name in module.__all__:
            assert getattr(hyperq, name) is getattr(module, name), name


def test_all_joins_the_submodules_lists_in_order():
    assert hyperq.__all__ == [name for m in SUBMODULES for name in m.__all__]


def test_no_name_is_exported_twice():
    names = [name for module in SUBMODULES for name in module.__all__]
    assert len(names) == len(set(names))


def test_names_public_only_in_their_module_resolve():
    from hyperq import check_phase, sweep_rows

    assert sweep_rows is hyperq.interference.sweep_rows
    assert check_phase is hyperq.algebra.check_phase


def relative_imports(path):
    """The modules named by ``from .x import ...`` anywhere in ``path``."""
    tree = ast.parse(path.read_text())
    for node in ast.walk(tree):
        if isinstance(node, ast.ImportFrom) and node.level:
            yield node.module


def test_each_submodule_imports_only_earlier_ones():
    # the private leaf of scalar rules, which exports no names, follows errors
    order = list(hyperq._SUBMODULES)
    order.insert(order.index("errors") + 1, "_rules")
    package = Path(hyperq.__file__).parent
    for index, name in enumerate(order):
        imported = set(relative_imports(package / f"{name}.py"))
        assert imported <= set(order[:index]), (name, imported)


def test_dir_lists_public_names_and_submodules():
    listed = dir(hyperq)
    assert set(hyperq.__all__) <= set(listed)
    assert "born" in listed and "cli" in listed


def test_unknown_attribute_raises():
    with pytest.raises(AttributeError, match="no_such_name"):
        hyperq.no_such_name
    assert not hasattr(hyperq, "numpy")


def run_child(code):
    proc = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True)
    assert proc.returncode == 0, proc.stderr


def test_bare_import_loads_no_submodule():
    run_child(
        "import sys, hyperq\n"
        "loaded = [m for m in sys.modules if m.startswith('hyperq.')]\n"
        "assert not loaded, loaded\n"
    )


def test_submodule_resolves_after_bare_import():
    run_child(
        "import sys, hyperq\n"
        "assert hyperq.born is sys.modules['hyperq.born']\n"
        "assert hyperq.born.decompose is hyperq.decompose\n"
    )


def test_classify_loads_errors_algebra_and_interference():
    run_child(
        "import sys, hyperq\n"
        "hyperq.classify\n"
        "loaded = sorted(m for m in sys.modules if m.startswith('hyperq.'))\n"
        "assert loaded == [\n"
        "    'hyperq._rules', 'hyperq.algebra', 'hyperq.errors', 'hyperq.interference'\n"
        "], loaded\n"
    )


def test_interference_residuals_load_no_algebra():
    # the identity checks run on plain floats, not on SplitComplex
    run_child(
        "import sys\n"
        "from hyperq.interference import hyp_linearization_residual\n"
        "assert hyp_linearization_residual(2.0, 3.0, 1.1, -1) <= 1e-15\n"
        "assert 'hyperq.algebra' not in sys.modules, sorted(sys.modules)\n"
    )


def test_dunder_probe_loads_no_submodule():
    # inspect.unwrap, doctest and pydoc probe modules for such names
    run_child(
        "import sys, hyperq\n"
        "assert not hasattr(hyperq, '__wrapped__')\n"
        "loaded = [m for m in sys.modules if m.startswith('hyperq.')]\n"
        "assert not loaded, loaded\n"
    )


def test_star_import_binds_all():
    run_child(
        "before = set(globals())\n"
        "from hyperq import *\n"
        "import hyperq\n"
        "bound = set(globals()) - before - {'before', 'hyperq'}\n"
        "assert bound == set(hyperq.__all__), bound ^ set(hyperq.__all__)\n"
    )


def test_no_test_imports_hypothesis():
    # the seeded generators in tests/generators.py draw every test input
    found = []
    for path in sorted(Path(__file__).parent.glob("*.py")):
        for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
            if isinstance(node, ast.Import):
                modules = [alias.name for alias in node.names]
            elif isinstance(node, ast.ImportFrom):
                modules = [node.module or ""]
            else:
                continue
            found += [f"{path.name}:{node.lineno}" for m in modules if m.split(".")[0] == "hypothesis"]
    assert not found, found
