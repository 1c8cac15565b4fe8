"""Precondition guards, one table per invariant over every entry point that
takes the guarded parameter."""

import math

import pytest

from hyperq.algebra import ONE, ZERO, PolarForm
from hyperq.born import (
    ProbabilityModel,
    amplitude,
    check_sign_phase_constraints,
    decompose,
    extract_model,
    pipeline_probabilities,
    transform_probabilities,
)
from hyperq.errors import PreconditionError
from hyperq.interference import (
    hyp_law,
    hyp_linearization_residual,
    sweep_rows,
    trig_linearization_residual,
)
from hyperq.space import Mat2, Vec2, change_basis, is_orthonormal_rows
from hyperq.witness import UnitaryParams, search_non_transitivity

BASIS_STATE = Vec2(ONE, ZERO)
BALANCED = ProbabilityModel(0.5, 0.5, 0.5, 0.5, 0.5, 0.5, 0.0, 1)

# the one settable tolerance; every call is valid at a good one, so only the
# guard can raise
TOL_ENTRY_POINTS = {
    "in_positive_cone": lambda tol: ONE.in_positive_cone(tol),
}

# verdicts held to the fixed EPS_ALG: a tol argument is refused outright
FIXED_TOL_ENTRY_POINTS = {
    "is_orthonormal_rows": lambda tol: is_orthonormal_rows(Mat2.identity(), tol=tol),
    "change_basis": lambda tol: change_basis(BASIS_STATE, Mat2.identity(), tol=tol),
    "decompose": lambda tol: decompose(BASIS_STATE, tol=tol),
    "validate": lambda tol: BALANCED.validate(tol=tol),
    "transform_probabilities": lambda tol: transform_probabilities(BALANCED, tol=tol),
    "check_sign_phase_constraints": lambda tol: check_sign_phase_constraints(
        Mat2.identity(), BASIS_STATE, tol=tol
    ),
    "extract_model": lambda tol: extract_model(BASIS_STATE, Mat2.identity(), tol=tol),
    "pipeline_probabilities": lambda tol: pipeline_probabilities(
        BASIS_STATE, Mat2.identity(), tol=tol
    ),
}

SIGN_ENTRY_POINTS = {
    "PolarForm": lambda sign: PolarForm(sign, 1.0, 0.0),
    "amplitude": lambda sign: amplitude(sign, 0.5, 0.0),
    "ProbabilityModel": lambda sign: ProbabilityModel(
        0.5, 0.5, 0.5, 0.5, 0.5, 0.5, 0.0, sign
    ),
    "hyp_law": lambda sign: hyp_law(0.25, 0.25, 0.0, sign),
    "hyp_linearization_residual": lambda sign: hyp_linearization_residual(
        0.25, 0.25, 0.0, sign
    ),
    "sweep_rows": lambda sign: sweep_rows("hyp", 0.25, 0.25, 0.0, 1.0, 2, sign),
}

# ints no double can hold; the 5000-digit ones are past the interpreter's
# 4300-digit limit on int-to-str conversion
HUGE_INTS = [10**400, -(10**400), 10**5000, -(10**5000)]
HUGE_IDS = ["1e400", "-1e400", "1e5000", "-1e5000"]

# every entry point outside test_interference.FIRST_ERROR_CASES that echoes a
# scalar argument in its message, with the error of a negative and of a
# positive huge int, and of a negative int that a double holds; None where
# the positive one is a valid argument.  A probability that no double holds
# is not finite (ValueError), a negative finite one out of the domain
# (PreconditionError)
SCALAR_ENTRY_POINTS = {
    "trig_linearization_residual": (
        lambda n: trig_linearization_residual(n, 0.5, 0.0),
        ValueError,
        ValueError,
        PreconditionError,
    ),
    "hyp_linearization_residual": (
        lambda n: hyp_linearization_residual(0.5, n, 0.0, 1),
        ValueError,
        ValueError,
        PreconditionError,
    ),
    "amplitude": (
        lambda n: amplitude(1, n, 0.0),
        ValueError,
        ValueError,
        PreconditionError,
    ),
    "in_positive_cone": (
        lambda n: ONE.in_positive_cone(n),
        ValueError,
        None,
        ValueError,
    ),
    "PolarForm.modulus": (
        lambda n: PolarForm(1, n, 0.0),
        ValueError,
        ValueError,
        ValueError,
    ),
    "UnitaryParams.p": (
        lambda n: UnitaryParams(n, 0.0, 0.0, 0.0),
        ValueError,
        ValueError,
        ValueError,
    ),
    "search_non_transitivity": (
        lambda n: search_non_transitivity(1, n),
        ValueError,
        None,
        ValueError,
    ),
}


@pytest.mark.parametrize("tol", [-1.0, math.nan], ids=["negative", "nan"])
@pytest.mark.parametrize("entry", [*TOL_ENTRY_POINTS, *FIXED_TOL_ENTRY_POINTS])
def test_tolerance_guard(entry, tol):
    # a bad tolerance never gets through: in_positive_cone refuses its value,
    # every other entry point has no tolerance to set
    if entry in TOL_ENTRY_POINTS:
        with pytest.raises(ValueError, match="tolerance must be nonnegative"):
            TOL_ENTRY_POINTS[entry](tol)
    else:
        with pytest.raises(TypeError, match="unexpected keyword argument 'tol'"):
            FIXED_TOL_ENTRY_POINTS[entry](tol)


@pytest.mark.parametrize(
    "sign", [0, 2, -1.5, math.nan, *HUGE_INTS], ids=["0", "2", "-1.5", "nan", *HUGE_IDS]
)
@pytest.mark.parametrize("entry", SIGN_ENTRY_POINTS)
def test_sign_guard(entry, sign):
    with pytest.raises(ValueError, match=r"must be \+1 or -1") as info:
        SIGN_ENTRY_POINTS[entry](sign)
    assert len(str(info.value)) < 80
    SIGN_ENTRY_POINTS[entry](1)
    SIGN_ENTRY_POINTS[entry](-1)


@pytest.mark.parametrize("n", HUGE_INTS, ids=HUGE_IDS)
@pytest.mark.parametrize("entry", SCALAR_ENTRY_POINTS)
def test_huge_int_gets_a_short_message(entry, n):
    # never OverflowError, never the digits, never the digit-limit error
    call, negative, positive, _ = SCALAR_ENTRY_POINTS[entry]
    error = negative if n < 0 else positive
    if error is None:
        call(n)
        return
    with pytest.raises(error) as info:
        call(n)
    assert type(info.value) is error
    assert len(str(info.value)) < 80


@pytest.mark.parametrize("n", [10**300, -(10**300)], ids=["1e300", "-1e300"])
@pytest.mark.parametrize("entry", SCALAR_ENTRY_POINTS)
def test_long_int_gets_a_short_message(entry, n):
    # a double holds it: every entry point refuses the negative one, and only
    # UnitaryParams.p the positive one; a refusal shows the double, not 301 digits
    call, _, _, negative = SCALAR_ENTRY_POINTS[entry]
    if n > 0 and entry != "UnitaryParams.p":
        call(n)
        return
    with pytest.raises(negative) as info:
        call(n)
    assert type(info.value) is negative
    assert "e+300" in str(info.value)
    assert len(str(info.value)) < 80
