"""Numerics for quantum-style probability over the split-complex numbers.

The split-complex (hyperbolic) numbers replace the imaginary unit with a
unit j satisfying j**2 = +1.  Their squared norm x**2 - y**2 is indefinite,
which changes the character of every construction stacked on top of it:
the unit circle becomes a hyperbola, only the positive cone carries polar
forms, and a two-component state vector assigns Born-style probabilities
only when all of its coefficients stay inside that cone.

The package provides

- :mod:`hyperq.algebra`: split-complex arithmetic, polar decomposition,
  positive-cone membership (:class:`~hyperq.algebra.SplitComplex`);
- :mod:`hyperq.space`: the 2D module with its indefinite inner product,
  row-orthonormal (unitary) matrices, and basis changes;
- :mod:`hyperq.born`: decomposability, the generalized Born rule, and the
  closed-form probability transformation with its sign and phase
  constraints;
- :mod:`hyperq.interference`: trigonometric and hyperbolic interference
  laws with a regime classifier for probability data;
- :mod:`hyperq.witness`: generators of decomposable unitaries and a seeded
  search for non-transitivity witnesses;
- :mod:`hyperq.cli`: a batch command-line interface over all of the above.

Everything is an immutable value operated on by pure functions, safe to
share freely across threads.

The submodules are imported on first use: ``import hyperq`` loads none of
them.  Each submodule lists its public names in its ``__all__``; a name read
from the package is looked up in the submodules in dependency order
(``errors``, ``algebra``, ``interference``, ``space``, ``born``,
``witness``), importing each in turn until one lists it.  So
``hyperq.classify`` loads ``errors``, ``algebra`` and ``interference``, and
the private leaf ``_rules`` (the scalar rules and the law kernel) that the
last two import; a name from ``space``, ``born`` or ``witness`` loads
``interference`` as well.  A submodule name (``hyperq.born``,
``hyperq.cli``) imports just that submodule, and a dunder name that is not
``__all__`` imports nothing.  The command line imports its submodules
directly, so each subcommand pays only for the modules it needs.
"""

import importlib

__version__ = "0.1.0"

#: The submodules that export names, each importing only earlier ones and
#: ``_rules``, which imports only ``errors``.
_SUBMODULES = ("errors", "algebra", "interference", "space", "born", "witness")


def _import(name: str) -> object:
    return importlib.import_module(f".{name}", __name__)


def _public_names() -> list[str]:
    return [name for module in _SUBMODULES for name in _import(module).__all__]


def __getattr__(name: str) -> object:
    if name == "__all__":
        value = _public_names()
    elif name in _SUBMODULES or name == "cli":
        value = _import(name)
    else:
        # a dunder probe (inspect.unwrap, doctest, pydoc) names no export and
        # must not import the submodules to find that out
        dunder = name.startswith("__") and name.endswith("__")
        for submodule in () if dunder else _SUBMODULES:
            module = _import(submodule)
            if name in module.__all__:
                value = getattr(module, name)
                break
        else:
            raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    # cached, so the next lookup is a plain module attribute
    globals()[name] = value
    return value


def __dir__() -> list[str]:
    return sorted({*globals(), *_public_names(), *_SUBMODULES, "cli"})
