"""Arithmetic of split-complex numbers (also called hyperbolic numbers).

The split-complex plane is the two dimensional real algebra spanned by 1 and
a unit ``j`` with ``j*j = +1``.  Sums are componentwise and products mirror
ordinary complex arithmetic except for a sign flip in the real part:

    (x1 + j y1) * (x2 + j y2) = (x1 x2 + y1 y2) + j (x1 y2 + x2 y1)

Conjugation negates the j component, so the squared modulus

    z * z.conj() = x**2 - y**2

is an *indefinite* quadratic form.  It vanishes on the diagonals |x| == |y|
(the light cone, home of all zero divisors of the algebra) and is negative
when the j component dominates.  The squared modulus is multiplicative,
which makes the positive cone {x**2 - y**2 >= 0} closed under products.

Numbers with strictly positive squared modulus factor as

    z = sign(x) * m * expj(theta),    expj(theta) = cosh(theta) + j sinh(theta)

with m = sqrt(x**2 - y**2) > 0 and a unique real phase theta: the hyperbolic
analogue of the complex polar form.  ``expj`` turns addition of phases into
multiplication, exactly like Euler's formula does on the unit circle.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

from .errors import DegenerateNormError, PhaseRangeError, PreconditionError

__all__ = [
    "EPS_ALG",
    "EPS_MEM",
    "THETA_MAX",
    "SplitComplex",
    "PolarForm",
    "J",
    "ONE",
    "ZERO",
    "check_phase",
    "expj",
]

#: Tolerance for algebraic identities expected to hold up to rounding.
EPS_ALG = 1e-9

#: Default tolerance for positive-cone membership tests.
EPS_MEM = 1e-12

#: Largest |theta| accepted by ``expj`` and the hyperbolic laws.  cosh
#: overflows a double near 710; stopping well short leaves room for products.
THETA_MAX = 300.0


@dataclass(frozen=True)
class SplitComplex:
    """Immutable split-complex number ``x + j*y`` with finite components."""

    x: float
    y: float

    def __post_init__(self) -> None:
        if not (math.isfinite(self.x) and math.isfinite(self.y)):
            raise ValueError(f"components must be finite, got ({self.x}, {self.y})")

    # -- ring structure ----------------------------------------------------

    def __add__(self, other: SplitComplex | float | int) -> SplitComplex:
        other = _coerce(other)
        return SplitComplex(self.x + other.x, self.y + other.y)

    __radd__ = __add__

    def __sub__(self, other: SplitComplex | float | int) -> SplitComplex:
        other = _coerce(other)
        return SplitComplex(self.x - other.x, self.y - other.y)

    def __rsub__(self, other: SplitComplex | float | int) -> SplitComplex:
        return _coerce(other) - self

    def __mul__(self, other: SplitComplex | float | int) -> SplitComplex:
        if isinstance(other, (int, float)):
            return SplitComplex(self.x * other, self.y * other)
        return SplitComplex(
            self.x * other.x + self.y * other.y,
            self.x * other.y + other.x * self.y,
        )

    __rmul__ = __mul__

    def __truediv__(self, other: SplitComplex | float | int) -> SplitComplex:
        if isinstance(other, (int, float)):
            return SplitComplex(self.x / other, self.y / other)
        return self * other.inverse()

    def __neg__(self) -> SplitComplex:
        return SplitComplex(-self.x, -self.y)

    def __pos__(self) -> SplitComplex:
        return self

    def __str__(self) -> str:
        return f"{self.x:g}{self.y:+g}j"

    # -- involution and modulus --------------------------------------------

    def conj(self) -> SplitComplex:
        """Conjugate ``x - j*y``; an involutive ring homomorphism."""
        return SplitComplex(self.x, -self.y)

    def norm_sq(self) -> float:
        """Squared modulus ``x**2 - y**2``.  May be negative or zero.

        Evaluated as ``(x - y) * (x + y)``: near the light cone the
        subtraction of the raw components is exact, so the factored form
        keeps full relative precision where ``x*x - y*y`` loses it to
        cancellation.
        """
        return (self.x - self.y) * (self.x + self.y)

    def in_positive_cone(self, tol: float = EPS_MEM) -> bool:
        """True when the squared modulus is >= -tol.

        Membership is non-strict: the light cone belongs to the positive
        cone even though its elements admit no polar form.
        """
        check_tol(tol)
        return self.norm_sq() >= -tol

    def mag(self) -> float:
        """Largest absolute component; a cheap magnitude for tolerance scaling."""
        return max(abs(self.x), abs(self.y))

    def dist(self, other: SplitComplex) -> float:
        """Chebyshev distance between component pairs."""
        return max(abs(self.x - other.x), abs(self.y - other.y))

    # -- polar structure ----------------------------------------------------

    def polar(self) -> PolarForm:
        """Factor ``self = sign * modulus * expj(theta)``.

        Requires a strictly positive squared modulus; elements on or inside
        the light cone raise :class:`DegenerateNormError`.  The phase is
        recovered through ``asinh`` of the normalized j component, which is
        single valued and keeps the sign of theta.
        """
        ns = self.norm_sq()
        if ns <= 0.0:
            raise DegenerateNormError(
                f"polar form needs positive squared modulus, got {ns} for {self}"
            )
        return PolarForm(*_polar(self.x, self.y, ns))

    def inverse(self) -> SplitComplex:
        """Multiplicative inverse ``conj(z) / norm_sq(z)``.

        Defined exactly for positive squared modulus; zero divisors (the
        light cone) and j-dominant elements with negative squared modulus
        are rejected for the group-theoretic inverse requested here.
        """
        ns = self.norm_sq()
        if ns <= 0.0:
            raise DegenerateNormError(
                f"no inverse on or inside the light cone (norm_sq={ns})"
            )
        return SplitComplex(self.x / ns, -self.y / ns)

    # -- serialization -------------------------------------------------------

    def to_list(self) -> list[float]:
        """JSON form ``[x, y]``."""
        return [self.x, self.y]

    @classmethod
    def from_list(cls, data: object) -> SplitComplex:
        if isinstance(data, (list, tuple)) and len(data) == 2:
            x, y = data
            if (
                isinstance(x, (int, float))
                and isinstance(y, (int, float))
                and not isinstance(x, bool)
                and not isinstance(y, bool)
            ):
                return cls(float(x), float(y))
        raise ValueError(f"expected [x, y] with numeric entries, got {data!r}")


@dataclass(frozen=True)
class PolarForm:
    """Polar data ``(sign, modulus, theta)`` of a split-complex number."""

    sign: int
    modulus: float
    theta: float

    def __post_init__(self) -> None:
        check_sign(self.sign)
        if not self.modulus > 0.0:
            raise ValueError(f"modulus must be strictly positive, got {self.modulus}")

    def to_number(self) -> SplitComplex:
        """Reconstruct the source number ``sign * modulus * expj(theta)``."""
        return expj(self.theta) * (self.sign * self.modulus)


def expj(theta: float) -> SplitComplex:
    """Unit-circle element ``cosh(theta) + j*sinh(theta)``.

    Satisfies ``expj(a) * expj(b) == expj(a + b)`` and has squared modulus 1
    for every phase.  Phases beyond ``THETA_MAX`` are rejected instead of
    silently overflowing to infinity.
    """
    check_phase(theta)
    return SplitComplex(math.cosh(theta), math.sinh(theta))


def check_phase(theta: float) -> None:
    """Reject a phase that is not finite or exceeds ``THETA_MAX``.

    A non-finite phase raises ``ValueError``, an out-of-range one
    :class:`PhaseRangeError`.
    """
    # one comparison on the valid path; NaN and inf fail it too
    if abs(theta) <= THETA_MAX:
        return
    if not math.isfinite(theta):
        raise ValueError(f"phase must be finite, got {theta}")
    raise PhaseRangeError(f"|theta| = {abs(theta)} exceeds THETA_MAX = {THETA_MAX}")


def check_tol(tol: float) -> None:
    """Reject a negative tolerance with ``ValueError``; NaN fails too."""
    if not tol >= 0:
        raise ValueError(f"tolerance must be nonnegative, got {tol!r}")


def check_sign(sign: int, name: str = "sign") -> None:
    """Reject a term or polar sign other than +1 or -1 with ``ValueError``."""
    if sign not in (1, -1):
        raise ValueError(f"{name} must be +1 or -1, got {sign!r}")


def check_probability(p: float) -> None:
    """Reject a negative probability with ``ValueError``; NaN fails too."""
    if not p >= 0:
        raise ValueError(f"probability must be nonnegative, got {p!r}")


def _polar(x: float, y: float, ns: float) -> tuple[int, float, float]:
    """``(sign, modulus, theta)`` of ``x + j*y`` from its squared modulus ``ns``.

    The one plain-float polar kernel; the caller has checked ``ns > 0``.
    """
    sign = 1 if x > 0.0 else -1
    modulus = math.sqrt(ns)
    return sign, modulus, math.asinh(sign * y / modulus)


def _law(a: float, b: float, theta: float, sign: int, trig: bool) -> float:
    """``a + b + sign*2*sqrt(a*b)*c`` with ``c = cos(theta)`` or ``cosh(theta)``.

    The one float kernel of the interference laws.  The caller has checked
    ``a, b >= 0``, the sign and the phase; ``sign`` is not read for
    ``trig``.  ``a*b`` is never formed, and a branch that would cancel is
    rewritten into terms of one sign, with ``d = (a - b) / (sqrt(a) +
    sqrt(b))``: ``d**2 - 4*sqrt(a)*sqrt(b)*sinh(theta/2)**2`` for the
    hyperbolic minus sign, ``d**2 + 4*sqrt(a)*sqrt(b)*cos(theta/2)**2`` for
    ``cos(theta) < 0``.  Raises :class:`PreconditionError` when the value is
    not finite, as it is once ``4*sqrt(a)*sqrt(b)`` overflows.
    """
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
    if not math.isfinite(value):
        raise PreconditionError(
            f"law value at theta = {theta!r} is not finite: {value!r}"
        )
    return value


def _coerce(value: SplitComplex | float | int) -> SplitComplex:
    if isinstance(value, SplitComplex):
        return value
    return SplitComplex(float(value), 0.0)


#: The hyperbolic unit, with J * J == ONE.
J = SplitComplex(0.0, 1.0)
ONE = SplitComplex(1.0, 0.0)
ZERO = SplitComplex(0.0, 0.0)
