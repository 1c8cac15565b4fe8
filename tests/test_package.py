"""The package namespace: every public name resolves on first use."""

import subprocess
import sys

import pytest

import hyperq


def test_every_public_name_resolves():
    for name in hyperq.__all__:
        value = getattr(hyperq, name)
        module = getattr(hyperq, hyperq._EXPORTS[name])
        assert value is getattr(module, name), name


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


def test_star_import_binds_all():
    run_child(
        "from hyperq import *\n"
        "import hyperq\n"
        "missing = [n for n in hyperq.__all__ if n not in globals()]\n"
        "assert not missing, missing\n"
    )
