"""Closed-form interference laws and a regime classifier.

Two-path probability data can interfere in two structurally different ways:

    trigonometric:  P' = P1 + P2 + 2*sqrt(P1*P2) * cos(theta)
    hyperbolic:     P' = P1 + P2 +- 2*sqrt(P1*P2) * cosh(theta)

Both are linearizations of a squared modulus, the first over the ordinary
complex numbers, the second over the split-complex numbers, and the residual
helpers here verify those identities by evaluating both sides through
independent arithmetic.  Both laws, and :func:`sweep_rows` at each grid
point, evaluate one float kernel, ``hyperq.algebra._law``, which never forms
P1*P2 and rewrites a branch that would cancel (the hyperbolic minus sign, a
negative cosine) into terms of one sign.

Given a measured triple (P', P1, P2) the normalized interference
coefficient

    lambda = (P' - P1 - P2) / (2*sqrt(P1*P2))

decides the regime: |lambda| < 1 is reachable by a cosine, |lambda| > 1
only by a hyperbolic cosine, and a narrow band around |lambda| = 1 is
reported as the boundary where both laws coincide at theta = 0.

The hot entry points, :func:`trig_law`, :func:`hyp_law` and
:func:`classify`, run once per point of a sweep.  Each tests the same
predicate as its guards (``check_probability``, ``check_sign``,
``check_phase``, classify's finite-then-positive tests) inline, as one
comparison chain, and calls the guards only when that chain fails, in their
usual order, so the first failing guard raises its usual error.  On float
arguments the chain accepts exactly what the guards accept, so the outputs
and the errors are those of calling the guards every time.
"""

from __future__ import annotations

import math
import sys
from typing import NamedTuple

from .algebra import (
    THETA_MAX,
    _echo,
    _int_overflow,
    _law,
    check_phase,
    check_probability,
    check_sign,
    expj,
)
from .errors import DegenerateInputsError

__all__ = [
    "EPS_CLS",
    "TRIG",
    "HYP",
    "BOUNDARY",
    "InterferenceVerdict",
    "trig_law",
    "hyp_law",
    "trig_linearization_residual",
    "hyp_linearization_residual",
    "classify",
    "sweep_rows",
]

# half-width of the degenerate band around |lambda| = 1
EPS_CLS = 1e-9

# range of the normal floats, where sqrt(p1*p2) keeps full precision
_NORMAL_MIN, _NORMAL_MAX = sys.float_info.min, sys.float_info.max

# largest |lambda| that classify maps to a phase
_LAMBDA_MAX = math.cosh(THETA_MAX)

# edges of the degenerate band around |lambda| = 1
_TRIG_MAX, _HYP_MIN = 1.0 - EPS_CLS, 1.0 + EPS_CLS

_INF = math.inf

TRIG = "trig"
HYP = "hyp"
BOUNDARY = "boundary"


class InterferenceVerdict(NamedTuple):
    """Recovered regime, non-negative phase, term sign, and coefficient."""

    regime: str
    theta: float
    sign: int
    lambda_: float

    def to_json_dict(self) -> dict[str, object]:
        return {
            "regime": self.regime,
            "theta": self.theta,
            "sign": self.sign,
            "lambda": self.lambda_,
        }


# builds a verdict from a 4-tuple without the NamedTuple's Python-level __new__
_verdict = tuple.__new__


def trig_law(p1: float, p2: float, theta: float) -> float:
    """Trigonometric interference of two probabilities at phase theta.

    Any finite phase is accepted; a NaN phase raises ``ValueError``, as
    ``math.cos`` already does for an infinite one.  A value that overflows,
    or an ``int`` argument too large for a double, raises
    :class:`PreconditionError`.
    """
    # the guards' predicate in one chain; they run only to raise
    if not (p1 >= 0.0 and p2 >= 0.0 and theta == theta):
        check_probability(p1)
        check_probability(p2)
        if math.isnan(theta):
            raise ValueError("phase must not be NaN")
    try:
        return _law(p1, p2, theta, 1, True)
    except OverflowError:  # an int too large for a double
        raise _int_overflow() from None


def hyp_law(p1: float, p2: float, theta: float, sign: int) -> float:
    """Hyperbolic interference; with sign +1 never below (sqrt(P1)+sqrt(P2))**2.

    The output may leave [0, 1] even for probability inputs; that is the
    signature feature of the hyperbolic regime, not an error.  A value that
    overflows, or an ``int`` argument too large for a double, raises
    :class:`PreconditionError` (:class:`PhaseRangeError` for the phase).
    """
    # the guards' predicate in one chain; they run only to raise
    if not (p1 >= 0.0 and p2 >= 0.0 and sign in (1, -1) and abs(theta) <= THETA_MAX):
        check_probability(p1)
        check_probability(p2)
        check_sign(sign)
        check_phase(theta)
    try:
        return _law(p1, p2, theta, sign, False)
    except OverflowError:  # an int too large for a double
        raise _int_overflow() from None


def trig_linearization_residual(a: float, b: float, theta: float) -> float:
    """Gap between the trigonometric law and |sqrt(A) + sqrt(B) e^{i theta}|^2.

    The right side is evaluated by explicit ordered-pair complex
    arithmetic, so the two sides share no intermediate expressions.
    """
    left = trig_law(a, b, theta)
    re = math.sqrt(a) + math.sqrt(b) * math.cos(theta)
    im = math.sqrt(b) * math.sin(theta)
    return abs(left - (re * re + im * im))


def hyp_linearization_residual(a: float, b: float, theta: float, sign: int) -> float:
    """Gap between the hyperbolic law and |sqrt(A) +- sqrt(B) e^{j theta}|^2.

    The right side goes through split-complex arithmetic end to end.
    """
    left = hyp_law(a, b, theta, sign)
    w = expj(theta) * (sign * math.sqrt(b)) + math.sqrt(a)
    return abs(left - w.norm_sq())


def classify(pprime: float, p1: float, p2: float) -> InterferenceVerdict:
    """Regime, phase, and sign explaining an observed probability triple.

    Both reference probabilities must be strictly positive, otherwise the
    interference coefficient is undefined and
    :class:`DegenerateInputsError` is raised; the same happens when the
    coefficient is too large for any representable phase, or an ``int``
    argument too large for a double.  Any real ``pprime`` is accepted;
    physical admissibility is the caller's concern.
    """
    try:
        # the guards' predicate in one chain; they run only to raise
        if not (0.0 < p1 < _INF and 0.0 < p2 < _INF and -_INF < pprime < _INF):
            if not (math.isfinite(pprime) and math.isfinite(p1) and math.isfinite(p2)):
                raise DegenerateInputsError("inputs must be finite")
            if p1 <= 0 or p2 <= 0:
                raise DegenerateInputsError(
                    f"reference probabilities must be positive, got {p1!r}, {p2!r}"
                )
        product = p1 * p2
        if _NORMAL_MIN <= product <= _NORMAL_MAX:
            root = math.sqrt(product)
        else:
            # p1*p2 underflowed or overflowed; the split root does neither
            root = math.sqrt(p1) * math.sqrt(p2)
        # 2*root can overflow; halving the quotient gives the same normal floats
        lam = (pprime - p1 - p2) / root / 2.0
    except OverflowError:  # an int too large for a double, never printed
        raise DegenerateInputsError("inputs must fit a double") from None
    mag = abs(lam)
    if mag > _LAMBDA_MAX:
        raise DegenerateInputsError(f"coefficient {lam} exceeds any admissible phase")
    if mag < _TRIG_MAX:
        return _verdict(InterferenceVerdict, (TRIG, math.acos(lam), 1, lam))
    if mag > _HYP_MIN:
        sign = 1 if lam > 0 else -1
        return _verdict(InterferenceVerdict, (HYP, math.acosh(mag), sign, lam))
    sign = 1 if lam >= 0 else -1
    return _verdict(InterferenceVerdict, (BOUNDARY, 0.0, sign, lam))


def sweep_rows(
    law: str,
    p1: float,
    p2: float,
    theta_min: float,
    theta_max: float,
    steps: int,
    sign: int = 1,
) -> list[tuple[float, float]]:
    """``(theta, p_prime)`` of one law on a uniform ``steps``-point phase grid.

    The inputs are checked once for the whole grid, then the interference
    kernel runs at each point.  ``law`` must be ``"trig"`` or ``"hyp"``
    (``ValueError`` otherwise).  Raises :class:`PreconditionError` when a
    law value is not finite, as it can be for probabilities near the top of
    the float range, or when an ``int`` argument is too large for a double.
    """
    if law not in (TRIG, HYP):
        raise ValueError(f"law must be {TRIG!r} or {HYP!r}, got {law!r}")
    if steps < 2:
        raise ValueError(f"steps must be at least 2, got {_echo(steps)}")
    if not theta_min < theta_max:
        raise ValueError("theta-min must be strictly below theta-max")
    try:
        span = theta_max - theta_min
        # an infinite span would put a NaN phase (0 * inf) at the first point
        if not math.isfinite(span):
            raise ValueError(f"phase range [{theta_min}, {theta_max}] must be finite")
        check_probability(p1)
        check_probability(p2)
        check_sign(sign)
        thetas = [theta_min + span * i / (steps - 1) for i in range(steps)]
        trig = law == TRIG
        if not trig:
            # the grid is monotone, so its end points bound every phase
            check_phase(thetas[0])
            check_phase(thetas[-1])
        return [(theta, _law(p1, p2, theta, sign, trig)) for theta in thetas]
    except OverflowError:  # an int too large for a double
        raise _int_overflow() from None
