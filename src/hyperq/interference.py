"""Closed-form interference laws and a regime classifier.

Two-path probability data can interfere in two structurally different ways:

    trigonometric:  P' = P1 + P2 + 2*sqrt(P1*P2) * cos(theta)
    hyperbolic:     P' = P1 + P2 +- 2*sqrt(P1*P2) * cosh(theta)

Both are linearizations of a squared modulus, the first over the ordinary
complex numbers, the second over the split-complex numbers, and the residual
helpers here verify those identities by evaluating both sides through
independent arithmetic on plain floats: the complex modulus from its real
and imaginary parts, the split-complex one as the product u*v of its two
light-cone coordinates.  So the module imports only ``_rules`` and
``errors``, never the split-complex ``algebra``.  The laws themselves,
:func:`trig_law` and :func:`hyp_law`, are defined in ``hyperq._rules``, so
that ``born`` and ``witness`` call them without loading this module, and
are exported from here.  Neither forms P1*P2, and each rewrites a branch
that would cancel (the hyperbolic minus sign, a negative cosine) into
terms of one sign.  A sweep (:func:`sweep_rows`, ``hyperq interfere``) does
not call them per point: one grid kernel forms the terms that no phase
changes once and repeats the laws' operations, in their order, into an
``array('d')``, so every value has the law's bits.  The law still decides
every refusal: the grid kernel calls it at the first point whose value is
not finite.

Given a measured triple (P', P1, P2) the normalized interference
coefficient

    lambda = (P' - P1 - P2) / (2*sqrt(P1*P2))

decides the regime: |lambda| < 1 is reachable by a cosine, |lambda| > 1
only by a hyperbolic cosine, and a narrow band around |lambda| = 1 is
reported as the boundary where both laws coincide at theta = 0.

The hot entry points, :func:`trig_law`, :func:`hyp_law` and
:func:`classify`, run once per point of a sweep.  Each tests the same
predicate as its guards (``check_probability``, ``check_sign``,
``check_phase``, classify's positive references) inline, as one comparison
chain, and calls the guards only when that chain fails, in their usual
order, so the first failing guard raises its usual error.  On float
arguments the chain accepts exactly what the guards accept, so the outputs
and the errors are those of calling the guards every time.

Every bad value gets the error of its class.  One that is not finite (NaN,
an infinity, an ``int`` too large for a double) gets the finiteness rule's
``ValueError``, from ``hyperq._rules._check_finite``: the guards and
classify call it before their own refusal, and the laws before their
overflow refusal, so ``+inf``, which passes ``p >= 0``, is told apart from
an overflow there.  A finite value outside the domain, or a finite
computation that overflows, gets a :class:`PreconditionError`.
"""

from __future__ import annotations

import math
import sys
from collections import namedtuple
from collections.abc import Iterator

from ._rules import (
    THETA_MAX,
    _check_finite,
    _echo,
    _is_finite,
    check_phase,
    check_probability,
    check_sign,
    hyp_law,
    trig_law,
)
from .errors import DegenerateInputsError, PreconditionError

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

#: Most grid points a sweep computes; it holds 8 bytes per point.
_STEPS_MAX = 10**6

#: classify's inputs, as the finiteness rule names them.
_CLASSIFY_INPUTS = "pprime", "p1", "p2"

TRIG = "trig"
HYP = "hyp"
BOUNDARY = "boundary"


class InterferenceVerdict(namedtuple("InterferenceVerdict", "regime theta sign lambda_")):
    """Recovered regime, non-negative phase, term sign, and coefficient."""

    __slots__ = ()

    def to_json_dict(self) -> dict[str, object]:
        return {
            "regime": self.regime,
            "theta": self.theta,
            "sign": self.sign,
            "lambda": self.lambda_,
        }


# builds a verdict from a 4-tuple without the namedtuple's Python-level __new__
_verdict = tuple.__new__


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

    The right side is the product u*v of the number's two light-cone
    coordinates, u = sqrt(A) +- sqrt(B) e^{theta} and
    v = sqrt(A) +- sqrt(B) e^{-theta}, in plain floats.  It shares no
    intermediate expressions with the law, and no cosh - sinh cancels in
    it, so it is accurate to a few ulps of
    A + B + 2 sqrt(A) sqrt(B) cosh(theta) at every phase the law accepts.
    """
    left = hyp_law(a, b, theta, sign)
    ra, rb = math.sqrt(a), sign * math.sqrt(b)
    return abs(left - (ra + rb * math.exp(theta)) * (ra + rb * math.exp(-theta)))


def classify(pprime: float, p1: float, p2: float) -> InterferenceVerdict:
    """Regime, phase, and sign explaining an observed probability triple.

    An argument that is not finite (an ``int`` too large for a double
    included) raises the finiteness rule's ``ValueError``, naming it.  Both
    reference probabilities must be strictly positive, otherwise the
    interference coefficient is undefined and
    :class:`DegenerateInputsError` is raised; the same happens when the
    coefficient is too large for any representable phase.  Any finite
    ``pprime`` is accepted; physical admissibility is the caller's concern.
    Where ``p1*p2`` overflows, ``pprime - p1 - p2`` can too, and the
    coefficient is formed from the quartered terms, which cannot.
    """
    try:
        # the guards' predicate in one chain; they run only to raise
        if not (0.0 < p1 < _INF and 0.0 < p2 < _INF and -_INF < pprime < _INF):
            _check_finite(_CLASSIFY_INPUTS, (pprime, p1, p2))
            raise DegenerateInputsError(
                "reference probabilities must be positive, "
                f"got {_echo(p1)}, {_echo(p2)}"
            )
        product = p1 * p2
        if _NORMAL_MIN <= product <= _NORMAL_MAX:
            # 2*root can overflow; halving the quotient gives the same normal floats
            lam = (pprime - p1 - p2) / math.sqrt(product) / 2.0
        else:
            # p1*p2 underflowed or overflowed; the split root does neither
            root = math.sqrt(p1) * math.sqrt(p2)
            if product < _NORMAL_MIN:
                lam = (pprime - p1 - p2) / root / 2.0
            else:
                # pprime - p1 - p2 can overflow too; its quarters cannot
                lam = (0.25 * pprime - 0.25 * p1 - 0.25 * p2) / root * 2.0
    except OverflowError:
        # an int: one too large for a double is refused; ints that fit one,
        # with a difference that does not, are classified as their doubles
        _check_finite(_CLASSIFY_INPUTS, (pprime, p1, p2))
        return classify(float(pprime), float(p1), float(p2))
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


def _sweep(
    law: str,
    p1: float,
    p2: float,
    theta_min: float,
    theta_max: float,
    steps: int,
    sign: int,
    chunk: int = _STEPS_MAX,
) -> Iterator[Iterator[tuple[float, float]]]:
    """The rows of :func:`sweep_rows`, in runs of at most ``chunk`` rows.

    The grid kernel of :func:`sweep_rows` and ``hyperq interfere``.  It
    checks the inputs as :func:`sweep_rows` documents, forms the terms of
    :func:`trig_law` or :func:`hyp_law` that no phase changes once, and
    repeats that law's operations, in its order, at every point into one
    ``array('d')``, 8 bytes per point, so each value has the law's bits.
    The law decides every refusal: it is called at the first point whose
    value is not finite, or whose arithmetic raises, and raises there,
    before any row is built.  Each run's phases are recomputed from their
    indexes when it is taken.  A change to a law's arithmetic is repeated
    here; the sweep tests compare the two bit for bit.
    """
    if law not in (TRIG, HYP):
        raise ValueError(f"law must be {TRIG!r} or {HYP!r}, got {law!r}")
    if steps.__class__ is not int:
        raise ValueError(f"steps must be an int, got {_echo(steps)}")
    if not 2 <= steps <= _STEPS_MAX:
        raise ValueError(f"steps must be from 2 to {_STEPS_MAX}, got {_echo(steps)}")
    _check_finite(("theta-min", "theta-max"), (theta_min, theta_max))
    if not theta_min < theta_max:
        raise ValueError("theta-min must be strictly below theta-max")
    span = theta_max - theta_min
    n = steps - 1
    # finite end points can lie too far apart for the grid's largest
    # product, span * (steps - 1), to fit a double
    if not _is_finite(span * n):
        raise PreconditionError(
            f"phase range [{_echo(theta_min)}, {_echo(theta_max)}] overflows its grid"
        )
    check_probability(p1)
    check_probability(p2)
    check_sign(sign)
    trig = law == TRIG
    if not trig:
        # the grid is monotone, so its end points bound every phase
        for i in (0, n):
            check_phase(theta_min + span * i / n)
    # an extension module, loaded by sweeps only, not by classify's children
    from array import array

    values = array("d", (0.0,)) * steps
    i = 0
    try:
        # the law's terms that no phase changes, formed as the law forms them
        ra, rb = math.sqrt(p1), math.sqrt(p2)
        total, k2, k4 = p1 + p2, 2.0 * (ra * rb), 4.0 * (ra * rb)
        d = (p1 - p2) / (ra + rb) if p1 != p2 else 0.0
        dd = d * d
        # each value in the law's operation order, so with its bits
        if trig:
            for i in range(steps):
                theta = theta_min + span * i / n
                c = math.cos(theta)
                if c >= 0.0:
                    values[i] = total + k2 * c
                else:
                    h = math.cos(0.5 * theta)
                    values[i] = dd + k4 * h * h
        elif sign > 0:
            for i in range(steps):
                values[i] = total + k2 * math.cosh(theta_min + span * i / n)
        else:
            for i in range(steps):
                h = math.sinh(0.5 * (theta_min + span * i / n))
                values[i] = dd - k4 * h * h
    except (OverflowError, ValueError):  # a huge int; an int sum no double holds
        values[i] = math.nan
    if not all(map(math.isfinite, values)):
        # the law, given the same arithmetic, raises at the first such value
        for i, value in enumerate(values):
            if not math.isfinite(value):
                theta = theta_min + span * i / n
                if trig:
                    values[i] = trig_law(p1, p2, theta)
                else:
                    values[i] = hyp_law(p1, p2, theta, sign)
    return (
        zip(
            [theta_min + span * i / n for i in range(start, min(start + chunk, steps))],
            values[start : start + chunk],
        )
        for start in range(0, steps, chunk)
    )


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

    The inputs are checked once for the whole grid, and the law's terms that
    no phase changes are formed once.  No point calls :func:`trig_law` or
    :func:`hyp_law`, but every value has the law's bits, and the law still
    decides every refusal, at the first point whose value is not finite.
    ``law`` must be ``"trig"`` or ``"hyp"``, ``steps`` an ``int`` (not a
    ``bool``) from 2 to 10**6, the phase range finite and increasing, and
    the probabilities finite (``ValueError`` otherwise).  A negative
    probability, a phase range too wide for its grid to fit a double, or a
    law value that overflows, as it can for probabilities near the top of
    the float range, raises :class:`PreconditionError`.
    """
    (rows,) = _sweep(law, p1, p2, theta_min, theta_max, steps, sign)
    return list(rows)
