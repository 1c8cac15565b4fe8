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
import operator

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

#: Fixed tolerance of every verdict, for identities that hold up to rounding.
EPS_ALG = 1e-9

#: Negligible squared norm; the default of ``SplitComplex.in_positive_cone``.
EPS_MEM = 1e-12

#: Largest |theta| accepted by ``expj`` and the hyperbolic laws.  cosh
#: overflows a double near 710; stopping well short leaves room for products.
THETA_MAX = 300.0


class _Value:
    """Base of the immutable value types: slots, init, equality, hash and repr.

    A subclass lists its fields in ``__slots__`` and, if its arguments need
    checking, a static ``_check`` taking the fields in order.  The class gets
    a generated ``__init__(self, <fields>)`` that calls ``_check`` (its own or
    an inherited one) and stores each field through its slot descriptor
    (assignment is blocked here).  Equality holds only between instances of
    the same class with equal field tuples, the hash is that of the field
    tuple, and the repr reads ``Name(field=value, ...)``.  ``__reduce__``
    rebuilds through ``__init__``, so ``copy`` and ``pickle`` work and
    re-validate.
    """

    __slots__ = ()
    __match_args__: tuple[str, ...] = ()

    def __init_subclass__(cls, **kwargs: object) -> None:
        super().__init_subclass__(**kwargs)
        # the base's fields, then the slots this class adds
        fields = cls.__match_args__ = cls.__match_args__ + cls.__slots__
        # a plain callable, not a method: called as self._field_tuple(self);
        # every value type has at least two fields, so it returns a tuple
        cls._field_tuple = operator.attrgetter(*fields)
        # __init__ compiled from the slot names, as namedtuple compiles its
        # __new__: _check if the class has one, then each descriptor's __set__
        args = ", ".join(fields)
        namespace = {f"_set{i}": getattr(cls, f).__set__ for i, f in enumerate(fields)}
        source = [f"def __init__(self, {args}):"]
        check = getattr(cls, "_check", None)
        if check is not None:
            namespace["_check"] = check
            source.append(f" _check({args})")
        source += [f" _set{i}(self, {f})" for i, f in enumerate(fields)]
        exec("\n".join(source), namespace)
        init = cls.__init__ = namespace["__init__"]
        init.__module__ = cls.__module__
        init.__qualname__ = f"{cls.__qualname__}.__init__"

    def __setattr__(self, name: str, value: object) -> None:
        raise AttributeError(f"cannot assign to field {name!r}")

    def __delattr__(self, name: str) -> None:
        raise AttributeError(f"cannot delete field {name!r}")

    def __eq__(self, other: object) -> bool:
        if other.__class__ is self.__class__:
            return self._field_tuple(self) == self._field_tuple(other)
        return NotImplemented

    def __hash__(self) -> int:
        return hash(self._field_tuple(self))

    def __repr__(self) -> str:
        pairs = ", ".join(
            f"{name}={value!r}"
            for name, value in zip(self.__match_args__, self._field_tuple(self))
        )
        return f"{self.__class__.__qualname__}({pairs})"

    def __reduce__(self) -> tuple[type, tuple[object, ...]]:
        return self.__class__, self._field_tuple(self)


class SplitComplex(_Value):
    """Immutable split-complex number ``x + j*y`` with finite components.

    A non-finite component given to the constructor, or an ``int`` too
    large for a double, raises ``ValueError``; an arithmetic result that is
    not finite (an overflow), or such an ``int`` operand, raises
    :class:`PreconditionError`.
    """

    __slots__ = ("x", "y")

    @staticmethod
    def _check(x: float, y: float) -> None:
        try:
            if math.isfinite(x) and math.isfinite(y):
                return
        except OverflowError:
            raise ValueError(
                "components must be finite, got an int too large for a double"
            ) from None
        raise ValueError(f"components must be finite, got ({x}, {y})")

    # -- ring structure ----------------------------------------------------

    # Each operator takes a SplitComplex or an int/float scalar and returns
    # NotImplemented for anything else, so a Vec2 operand reaches Vec2's
    # reflected method and an unrelated type raises TypeError.

    def __add__(self, other: SplitComplex | float | int) -> SplitComplex:
        other = _coerce(other)
        if other is None:
            return NotImplemented
        return _result(self.x + other.x, self.y + other.y)

    __radd__ = __add__

    def __sub__(self, other: SplitComplex | float | int) -> SplitComplex:
        other = _coerce(other)
        if other is None:
            return NotImplemented
        return _result(self.x - other.x, self.y - other.y)

    def __rsub__(self, other: SplitComplex | float | int) -> SplitComplex:
        return -self + other if isinstance(other, _SCALARS) else NotImplemented

    def __mul__(self, other: SplitComplex | float | int) -> SplitComplex:
        if isinstance(other, SplitComplex):
            return _result(
                self.x * other.x + self.y * other.y,
                self.x * other.y + other.x * self.y,
            )
        if isinstance(other, _SCALARS):
            try:
                return _result(self.x * other, self.y * other)
            except OverflowError:
                raise _int_overflow() from None
        return NotImplemented

    __rmul__ = __mul__

    def __truediv__(self, other: SplitComplex | float | int) -> SplitComplex:
        if isinstance(other, SplitComplex):
            return self * other.inverse()
        if isinstance(other, _SCALARS):
            try:
                return _result(self.x / other, self.y / other)
            except OverflowError:
                raise _int_overflow() from None
        return NotImplemented

    def __neg__(self) -> SplitComplex:
        return _result(-self.x, -self.y)

    def __pos__(self) -> SplitComplex:
        return self

    def __str__(self) -> str:
        return f"{self.x:g}{self.y:+g}j"

    # -- involution and modulus --------------------------------------------

    def conj(self) -> SplitComplex:
        """Conjugate ``x - j*y``; an involutive ring homomorphism."""
        return _result(self.x, -self.y)

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
        cone even though its elements admit no polar form.  A negative or
        NaN ``tol`` raises ``ValueError``.
        """
        if not tol >= 0:
            raise ValueError(f"tolerance must be nonnegative, got {tol!r}")
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
        the light cone raise :class:`DegenerateNormError`, and a squared
        modulus that overflows raises :class:`PreconditionError`.  The phase
        is recovered through ``asinh`` of the normalized j component, which
        is single valued and keeps the sign of theta.
        """
        return PolarForm(*_polar(self.x, self.y, self.norm_sq()))

    def inverse(self) -> SplitComplex:
        """Multiplicative inverse ``conj(z) / norm_sq(z)``.

        Defined exactly for positive squared modulus; zero divisors (the
        light cone) and j-dominant elements with negative squared modulus
        are rejected for the group-theoretic inverse requested here.  A
        squared modulus that overflows raises :class:`PreconditionError`,
        where dividing by it would return a silent 0.
        """
        ns = self.norm_sq()
        _check_norm_sq(self.x, self.y, ns)
        return _result(self.x / ns, -self.y / ns)

    # -- serialization -------------------------------------------------------

    def to_list(self) -> list[float]:
        """JSON form ``[x, y]``."""
        return [self.x, self.y]

    @classmethod
    def from_list(cls, data: object) -> SplitComplex:
        if isinstance(data, (list, tuple)) and len(data) == 2:
            x, y = data
            if _is_number(x) and _is_number(y):
                return cls(float(x), float(y))
        raise ValueError(f"expected [x, y] with numeric entries, got {data!r}")


class PolarForm(_Value):
    """Polar data ``(sign, modulus, theta)`` of a split-complex number."""

    __slots__ = ("sign", "modulus", "theta")

    @staticmethod
    def _check(sign: int, modulus: float, theta: float) -> None:
        check_sign(sign)
        if not modulus > 0.0:
            raise ValueError(f"modulus must be strictly positive, got {modulus}")

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
    :class:`PhaseRangeError`.  ``hyp_law``, a hot entry point, tests the same
    predicate, ``abs(theta) <= THETA_MAX``, inline and calls this guard only
    to raise.
    """
    # one comparison on the valid path; NaN and inf fail it too
    if abs(theta) <= THETA_MAX:
        return
    if not math.isfinite(theta):
        raise ValueError(f"phase must be finite, got {theta}")
    raise PhaseRangeError(f"|theta| = {abs(theta)} exceeds THETA_MAX = {THETA_MAX}")


def check_sign(sign: int, name: str = "sign") -> None:
    """Reject a term or polar sign other than +1 or -1 with ``ValueError``.

    ``hyp_law``, a hot entry point, tests the same predicate inline and
    calls this guard only to raise.
    """
    if sign not in (1, -1):
        raise ValueError(f"{name} must be +1 or -1, got {sign!r}")


def check_probability(p: float) -> None:
    """Reject a negative probability with ``ValueError``; NaN fails too.

    ``trig_law`` and ``hyp_law``, the hot entry points, test the same
    predicate, ``p >= 0.0``, inline and call this guard only to raise.
    """
    if not p >= 0:
        raise ValueError(f"probability must be nonnegative, got {p!r}")


def _check_norm_sq(x: float, y: float, ns: float) -> None:
    """Reject ``x + j*y`` unless its squared modulus ``ns`` is positive and finite.

    The one guard of the polar form and the inverse: ``ns <= 0`` (on or
    inside the light cone) raises :class:`DegenerateNormError`, and an
    ``ns`` that overflowed to inf, or to NaN as ``inf * 0``, raises
    :class:`PreconditionError`.
    """
    # one comparison on the valid path; NaN fails it too
    if 0.0 < ns < math.inf:
        return
    if ns <= 0.0:
        raise DegenerateNormError(
            f"({x}, {y}) has zero or negative squared norm {ns}; "
            "a polar form or inverse needs a positive one"
        )
    raise PreconditionError(f"squared norm of ({x}, {y}) is not finite: {ns}")


def _polar(x: float, y: float, ns: float) -> tuple[int, float, float]:
    """``(sign, modulus, theta)`` of ``x + j*y`` from its squared modulus ``ns``.

    The one plain-float polar kernel, behind :func:`_check_norm_sq`.
    """
    _check_norm_sq(x, y, ns)
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


_new = object.__new__
_sc_x, _sc_y = SplitComplex.x.__set__, SplitComplex.y.__set__


def _result(x: float, y: float) -> SplitComplex:
    """``SplitComplex(x, y)`` for the result of an arithmetic operation.

    The one constructor of the operators.  A ``SplitComplex`` operand is
    finite, so a component that is not comes from an overflow (or
    ``inf - inf``), or from a non-finite scalar given to ``*`` or ``/``;
    it raises :class:`PreconditionError`, not the ``ValueError`` of
    malformed input at construction.
    """
    if not (math.isfinite(x) and math.isfinite(y)):
        raise PreconditionError(f"arithmetic result is not finite: ({x}, {y})")
    z = _new(SplitComplex)
    _sc_x(z, x)
    _sc_y(z, y)
    return z


#: The scalar operand types of the ``SplitComplex`` operators.
_SCALARS = (int, float)


def _is_number(value: object) -> bool:
    """A JSON number: an ``int`` or ``float`` that fits a double, not a ``bool``."""
    if isinstance(value, float):
        return True
    if isinstance(value, bool) or not isinstance(value, int):
        return False
    try:
        float(value)  # an int past the largest double overflows
    except OverflowError:
        return False
    return True


def _coerce(value: object) -> SplitComplex | None:
    """A ``+``/``-`` operand as a ``SplitComplex``; None for any other type."""
    if isinstance(value, SplitComplex):
        return value
    if isinstance(value, _SCALARS):
        try:
            return SplitComplex(float(value), 0.0)
        except OverflowError:
            raise _int_overflow() from None
    return None


def _int_overflow() -> PreconditionError:
    """The error of an ``int`` operand that no double can hold."""
    return PreconditionError("int operand overflows a double")


def _is_finite(value: float) -> bool:
    """``math.isfinite``, but False for an ``int`` too large for a double."""
    try:
        return math.isfinite(value)
    except OverflowError:
        return False


#: The hyperbolic unit, with J * J == ONE.
J = SplitComplex(0.0, 1.0)
ONE = SplitComplex(1.0, 0.0)
ZERO = SplitComplex(0.0, 0.0)
