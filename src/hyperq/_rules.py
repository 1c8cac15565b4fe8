"""The scalar rules of hyperq and the interference laws, on plain floats.

The finiteness rule (:func:`_check_finite`), the guards of a probability, a
sign and a phase, and the two interference laws, :func:`trig_law` and
:func:`hyp_law`, hold no split-complex value, so they live here, apart from
``hyperq.algebra``: ``hyperq classify`` and ``hyperq interfere`` load
``errors``, this module, ``interference`` and ``cli``, and never compile or
run ``algebra``.  ``hyperq.algebra`` imports every scalar rule defined here,
so each is also ``hyperq.algebra.<name>``, and ``THETA_MAX`` and
``check_phase`` are public there; it does not import the laws, which it
never calls.  ``hyperq.interference`` exports them, and ``born`` and
``witness`` call them from here, without loading ``interference``.  Each
law is one Python frame on its valid path: its guard chain, its
arithmetic and its finiteness test are inline, and it calls a guard or
:func:`_refuse_law_value` only to raise.  This module imports only
``math`` and ``hyperq.errors``.
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
    laws' refusal :func:`_refuse_law_value`, ``classify``, ``sweep_rows``'
    phase range and ``space.doubly_stochastic_residual`` (when an ``int``
    entry or sum is not a double) all call it.  A value type's ``__init__``, on a finite
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
    :class:`PhaseRangeError`.  ``hyp_law``, ``algebra.amplitude`` and
    ``born.ProbabilityModel.validate``, hot entry points, test the same
    predicate, ``abs(theta) <= THETA_MAX``, inline and call this guard only
    to raise.
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
    pass: the laws refuse them as not finite.  ``trig_law``, ``hyp_law``
    and ``algebra.amplitude``, the hot entry points, test the same
    predicate inline and call this guard only to raise.
    """
    if not p >= 0:
        _check_finite(("probability",), (p,))
        raise PreconditionError(f"probability must be nonnegative, got {_echo(p)}")


def _refuse_law_value(theta: float, a: float, b: float, value: float) -> None:
    """The refusal of a law value that is not finite; for raise paths only.

    An input that is not finite (``+inf``, NaN, an ``int`` too large for a
    double) gets the finiteness rule's ``ValueError``, named as the guards
    name it: the phase first, which ``trig_law`` leaves to this refusal,
    then a probability that ``check_probability`` lets pass.  Finite inputs
    whose value overflows, as it does once ``4*sqrt(a)*sqrt(b)`` does, raise
    :class:`PreconditionError`.
    """
    _check_finite(("phase", "probability", "probability"), (theta, a, b))
    raise PreconditionError(f"law value at theta = {theta!r} is not finite: {value!r}")


def trig_law(p1: float, p2: float, theta: float) -> float:
    """Trigonometric interference of two probabilities at phase theta.

    Any finite phase is accepted.  An argument that is not finite (an
    ``int`` too large for a double included) raises ``ValueError``, a
    negative probability or a value that overflows
    :class:`PreconditionError`.
    """
    # the guards' predicate in one chain; they run only to raise, and the
    # refusal below covers a phase or a probability that is not finite
    if not (p1 >= 0.0 and p2 >= 0.0):
        check_probability(p1)
        check_probability(p2)
    try:
        ra, rb = math.sqrt(p1), math.sqrt(p2)
        c = math.cos(theta)
        if c >= 0.0:
            value = p1 + p2 + 2.0 * (ra * rb) * c
        else:
            # p1 - p2 is exact when p1 and p2 are close, where ra - rb would
            # cancel; 1 + cos(theta) = 2*cos(theta/2)**2
            d = (p1 - p2) / (ra + rb) if p1 != p2 else 0.0
            h = math.cos(0.5 * theta)
            value = d * d + 4.0 * (ra * rb) * h * h
    except (OverflowError, ValueError):  # a huge int; cos of an infinite phase
        value = math.nan
    if value - value:  # NaN unless the value is finite
        _refuse_law_value(theta, p1, p2, value)
    return value


def hyp_law(p1: float, p2: float, theta: float, sign: int) -> float:
    """Hyperbolic interference; with sign +1 never below (sqrt(P1)+sqrt(P2))**2.

    The output may leave [0, 1] even for probability inputs; that is the
    signature feature of the hyperbolic regime, not an error.  An argument
    that is not finite (an ``int`` too large for a double included) raises
    ``ValueError``, as does a sign other than +1 or -1; a negative
    probability or a value that overflows raises :class:`PreconditionError`,
    and a phase beyond ``THETA_MAX`` :class:`PhaseRangeError`.
    """
    # the guards' predicate in one chain; they run only to raise
    if not (p1 >= 0.0 and p2 >= 0.0 and sign in (1, -1) and abs(theta) <= THETA_MAX):
        check_probability(p1)
        check_probability(p2)
        check_sign(sign)
        check_phase(theta)
    try:
        ra, rb = math.sqrt(p1), math.sqrt(p2)
        if sign > 0:
            value = p1 + p2 + 2.0 * (ra * rb) * math.cosh(theta)
        else:
            # as in trig_law, with cosh(theta) - 1 = 2*sinh(theta/2)**2
            d = (p1 - p2) / (ra + rb) if p1 != p2 else 0.0
            h = math.sinh(0.5 * theta)
            value = d * d - 4.0 * (ra * rb) * h * h
    except (OverflowError, ValueError):  # a huge int
        value = math.nan
    if value - value:  # NaN unless the value is finite
        _refuse_law_value(theta, p1, p2, value)
    return value
