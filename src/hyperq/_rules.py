"""The scalar rules of hyperq and the interference kernel, on plain floats.

The finiteness rule (:func:`_check_finite`), the guards of a probability, a
sign and a phase, and the law kernel :func:`_law` hold no split-complex
value, so they live here, apart from ``hyperq.algebra``: ``hyperq
classify`` and ``hyperq interfere`` load ``errors``, this module,
``interference`` and ``cli``, and never compile or run ``algebra``.
``hyperq.algebra`` imports every scalar rule defined here, so each is
also ``hyperq.algebra.<name>``, and ``THETA_MAX`` and ``check_phase`` are
public there; it does not import ``_law``, which it never calls.  This
module imports only ``math`` and ``hyperq.errors``.
"""

from __future__ import annotations

import math

from .errors import PhaseRangeError, PreconditionError

#: Largest |theta| accepted by ``expj`` and the hyperbolic laws.  cosh
#: overflows a double near 710; stopping well short leaves room for products.
THETA_MAX = 300.0


def _is_finite(value: float) -> bool:
    """``math.isfinite``, but False for an ``int`` too large for a double."""
    try:
        return math.isfinite(value)
    except OverflowError:
        return False


def _echo(value: object) -> str:
    """A scalar argument as an error message shows it; for raise paths only.

    The ``repr``, except for an ``int`` of more than 53 bits: its digits
    would swamp the message (past 4300 of them formatting raises the
    interpreter's digit-limit ``ValueError``), so it shows as the ``repr``
    of its double, or as the words below when no double holds it.
    """
    if isinstance(value, int) and value.bit_length() > 53:
        try:
            return repr(float(value))
        except OverflowError:
            return "an int too large for a double"
    return repr(value)


def _check_finite(names: tuple[str, ...], values: tuple[float, ...]) -> None:
    """The finiteness rule: each of ``values`` is a finite real.

    The first that is not (an ``int`` too large for a double included)
    raises ``ValueError("<name> must be finite, got <value>")``, with the
    value shown by :func:`_echo`.  The one decision of finiteness: every
    value type's real fields and the scalar operands of ``SplitComplex``'s
    operators (both through ``algebra._scalar``), the guards
    ``check_probability`` and ``check_phase``, ``algebra.amplitude``, the
    law kernel :func:`_law`, ``classify``, ``sweep_rows``' phase range and
    ``space.doubly_stochastic_residual`` (when an ``int`` entry or sum is
    not a double) all call it.  A value type's ``__init__``, on a finite
    float, and the hot entry points test their own predicate inline and
    call this only to raise.
    """
    try:
        if all(map(math.isfinite, values)):
            return
    except OverflowError:  # an int too large for a double
        pass
    name, value = next(pair for pair in zip(names, values) if not _is_finite(pair[1]))
    raise ValueError(f"{name} must be finite, got {_echo(value)}")


def check_phase(theta: float) -> None:
    """Reject a phase that is not finite or exceeds ``THETA_MAX``.

    A phase that is not finite (an ``int`` too large for a double included)
    gets the finiteness rule's ``ValueError``, a finite one beyond the range
    :class:`PhaseRangeError`.  ``hyp_law`` and ``algebra.amplitude``, hot
    entry points, test the same predicate, ``abs(theta) <= THETA_MAX``,
    inline and call this guard only to raise.
    """
    # one comparison on the valid path; NaN and inf fail it too
    if abs(theta) <= THETA_MAX:
        return
    _check_finite(("phase",), (theta,))
    raise PhaseRangeError(
        f"|theta| = {_echo(abs(theta))} exceeds THETA_MAX = {THETA_MAX}"
    )


def check_sign(sign: int, name: str = "sign") -> None:
    """Reject a term or polar sign other than +1 or -1 with ``ValueError``.

    ``hyp_law`` and ``algebra.amplitude``, hot entry points, test the same
    predicate inline and call this guard only to raise.
    """
    if sign not in (1, -1):
        raise ValueError(f"{name} must be +1 or -1, got {_echo(sign)}")


def check_probability(p: float) -> None:
    """Reject a probability that fails ``p >= 0``.

    A failing one that is not finite (NaN, ``-inf``, an ``int`` too large for
    a double) gets the finiteness rule's ``ValueError``; a negative finite
    one :class:`PreconditionError`.  ``+inf`` and a huge positive ``int``
    pass: the law kernel, :func:`_law`, refuses them as not finite.
    ``trig_law``, ``hyp_law`` and ``algebra.amplitude``, the hot entry
    points, test the same predicate inline and call this guard only to
    raise.
    """
    if not p >= 0:
        _check_finite(("probability",), (p,))
        raise PreconditionError(f"probability must be nonnegative, got {_echo(p)}")


def _law(a: float, b: float, theta: float, sign: int, trig: bool) -> float:
    """``a + b + sign*2*sqrt(a*b)*c`` with ``c = cos(theta)`` or ``cosh(theta)``.

    The one float kernel of the interference laws: ``trig_law`` and
    ``hyp_law`` call it, and a sweep's grid kernel repeats its operations in
    its order and calls it only to raise, at the first point whose value is
    not finite.  The caller has checked ``a, b >= 0``, the sign and the
    phase; ``sign`` is not read for ``trig``.  ``a*b`` is never formed, and
    a branch that would cancel is rewritten into terms of one sign, with
    ``d = (a - b) / (sqrt(a) + sqrt(b))``: ``d**2 -
    4*sqrt(a)*sqrt(b)*sinh(theta/2)**2`` for the hyperbolic minus sign,
    ``d**2 + 4*sqrt(a)*sqrt(b)*cos(theta/2)**2`` for ``cos(theta) < 0``.
    When the value is not finite, an input that is not (``+inf``, NaN, an
    ``int`` too large for a double) gets the finiteness rule's
    ``ValueError``; finite inputs whose value overflows, as it does
    once ``4*sqrt(a)*sqrt(b)`` does, raise :class:`PreconditionError`.
    """
    try:
        ra, rb = math.sqrt(a), math.sqrt(b)
        if trig:
            c = math.cos(theta)
            plus = c >= 0.0
        else:
            plus = sign > 0
        if plus:
            value = a + b + 2.0 * (ra * rb) * (c if trig else math.cosh(theta))
        else:
            # a - b is exact when a and b are close, where ra - rb would cancel
            d = (a - b) / (ra + rb) if a != b else 0.0
            h = math.cos(0.5 * theta) if trig else math.sinh(0.5 * theta)
            t = 4.0 * (ra * rb) * h * h
            value = d * d + t if trig else d * d - t
    except (OverflowError, ValueError):  # a huge int; cos of an infinite phase
        value = math.nan
    if not math.isfinite(value):
        # named as the guards name them: the phase first, which trig_law
        # leaves to this kernel, then a probability that check_probability
        # lets pass (+inf, a huge positive int)
        _check_finite(("phase", "probability", "probability"), (theta, a, b))
        raise PreconditionError(
            f"law value at theta = {theta!r} is not finite: {value!r}"
        )
    return value
