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
them, and reading ``hyperq.classify`` (or ``hyperq.born``) imports just the
submodule that defines it.  A command-line run therefore pays only for the
modules its subcommand needs.
"""

import importlib

__version__ = "0.1.0"

_SUBMODULES = frozenset(
    ("algebra", "born", "cli", "errors", "interference", "space", "witness")
)

#: Each public name and the submodule that defines it, in ``__all__`` order.
_EXPORTS = {
    "EPS_ALG": "algebra",
    "EPS_CLS": "interference",
    "EPS_MEM": "algebra",
    "THETA_MAX": "algebra",
    "J": "algebra",
    "ONE": "algebra",
    "ZERO": "algebra",
    "TRIG": "interference",
    "HYP": "interference",
    "BOUNDARY": "interference",
    "SplitComplex": "algebra",
    "PolarForm": "algebra",
    "expj": "algebra",
    "Vec2": "space",
    "Mat2": "space",
    "inner": "space",
    "is_orthonormal_rows": "space",
    "orthonormality_residual": "space",
    "change_basis": "space",
    "prob_matrix": "space",
    "doubly_stochastic_residual": "space",
    "Phase": "born",
    "StateDecomposition": "born",
    "ProbabilityModel": "born",
    "TransformedProbabilities": "born",
    "SignPhaseReport": "born",
    "decompose": "born",
    "amplitude": "born",
    "transform_probabilities": "born",
    "check_sign_phase_constraints": "born",
    "extract_model": "born",
    "pipeline_probabilities": "born",
    "InterferenceVerdict": "interference",
    "classify": "interference",
    "trig_law": "interference",
    "hyp_law": "interference",
    "trig_linearization_residual": "interference",
    "hyp_linearization_residual": "interference",
    "UnitaryParams": "witness",
    "NonTransitivityWitness": "witness",
    "make_decomposable_unitary": "witness",
    "search_non_transitivity": "witness",
    "verify_witness": "witness",
    "PreconditionError": "errors",
    "DegenerateNormError": "errors",
    "PhaseRangeError": "errors",
    "NotUnitaryError": "errors",
    "NotNormalizedError": "errors",
    "DegenerateInputsError": "errors",
    "ConstraintViolatedError": "errors",
}

__all__ = list(_EXPORTS)


def __getattr__(name: str) -> object:
    if name in _SUBMODULES:
        value = importlib.import_module(f".{name}", __name__)
    elif name in _EXPORTS:
        module = importlib.import_module(f".{_EXPORTS[name]}", __name__)
        value = getattr(module, name)
    else:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    # cached, so the next lookup is a plain module attribute
    globals()[name] = value
    return value


def __dir__() -> list[str]:
    return sorted({*globals(), *_EXPORTS, *_SUBMODULES})
