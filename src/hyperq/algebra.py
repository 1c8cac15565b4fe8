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

The polar kernel ``_polar`` and its inverse, ``amplitude(sign, q, xi) =
sign * sqrt(q) * expj(xi)``, live here side by side.  ``amplitude`` builds
a coefficient of squared norm ``q``: a state coefficient of the Born rule,
under which name ``hyperq.born`` exports it, and an entry of the matrices
that ``hyperq.witness`` generates without loading ``born``.
"""

from __future__ import annotations

import math
import operator
import sys

# the scalar rules, on plain floats, live in a leaf module that classify
# and interfere load without this one; each stays readable as
# hyperq.algebra.<name>
from ._rules import (
    THETA_MAX,
    _check_finite,
    _echo,
    _is_finite,
    check_phase,
    check_probability,
    check_sign,
)
from .errors import DegenerateNormError, PreconditionError

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

#: Negligible weight: a squared norm this small carries no phase.
EPS_MEM = 1e-12


#: The field kinds of a value type that are not one exact class.  A real is
#: stored as ``float``, a sign (+1 or -1) and an index (1 or 2) as ``int``.
_REAL, _SIGN, _INDEX = "real", "sign", "index"

#: The call-free test that ``__init__`` makes of a field named ``{0}``, true
#: when the field fails its kind (``x - x`` is 0.0 for a finite float, a
#: true NaN otherwise); an exact class, ``{1}``, is tested by identity.
_FAILS = {
    _REAL: "{0}.__class__ is not float or {0} - {0}",
    _SIGN: "{0}.__class__ is not int or {0} not in (1, -1)",
    _INDEX: "{0}.__class__ is not int or {0} not in (1, 2)",
}


def _field(name: str, value: object, kind: object) -> object:
    """A field that failed its kind's test in ``__init__``, as it is stored.

    The one slow path of every value type's fields: a real number passes
    the finiteness rule and is stored as its ``float`` (:func:`_scalar`),
    a sign equal to +1 or -1 (``1.0``, ``True``) as its ``int``.
    Any other value raises ``ValueError`` naming the field.
    """
    if kind == _REAL:
        try:
            return _scalar(value, name)
        except TypeError:  # no number at all
            pass
    elif kind == _SIGN:
        check_sign(value, name)
        return int(value)
    elif kind == _INDEX:
        raise ValueError(f"{name} must be the int 1 or 2, got {_echo(value)}")
    noun = getattr(kind, "__name__", kind)
    raise ValueError(f"{name} must be a {noun}, got {type(value).__name__}")


class _Value:
    """Base of the immutable value types: slots, init, equality, hash and repr.

    A subclass declares its fields once, as the dict ``__slots__`` from each
    field's name to its kind: ``_REAL``, ``_SIGN``, ``_INDEX``, an exact
    class (``bool``, ``tuple``, ``SplitComplex``, ...), or ``(kind, None)``,
    which also lets None through.  The class gets a generated
    ``__init__(self, <fields>)`` that makes one call-free test per field,
    hands a field that fails it to :func:`_field`, which converts it or
    raises ``ValueError``, and stores each through its slot descriptor
    (assignment is blocked here).  A class with cross-field domain tests
    writes them in a ``_check(self)``, which ``__init__`` calls last and a
    subclass inherits.  Equality holds only between instances of the same
    class with equal field tuples, the hash is that of the field tuple, and
    the repr reads ``Name(field=value, ...)``.
    ``__reduce__`` rebuilds through ``__init__``, so ``copy`` and
    ``pickle`` work and re-validate.
    """

    __slots__ = ()
    __match_args__: tuple[str, ...] = ()
    _kinds: dict[str, object] = {}

    def __init_subclass__(cls, **kwargs: object) -> None:
        super().__init_subclass__(**kwargs)
        # the base's fields, then those this class declares
        kinds = cls._kinds = {**cls._kinds, **dict(cls.__slots__)}
        fields = cls.__match_args__ = tuple(kinds)
        # a plain callable, not a method: called as self._field_tuple(self);
        # every value type has at least two fields, so it returns a tuple
        cls._field_tuple = operator.attrgetter(*fields)
        # __init__ compiled from the kinds, as namedtuple compiles its
        # __new__: it tests each field, then stores it through its
        # descriptor's __set__, then calls _check if there is one
        check = getattr(cls, "_check", None)
        namespace = {"_field": _field, "_check": check}
        tests, stores = [], []
        for i, (f, kind) in enumerate(kinds.items()):
            optional = kind.__class__ is tuple
            namespace[f"_k{i}"] = kind = kind[0] if optional else kind
            fails = _FAILS.get(kind, "{0}.__class__ is not {1}").format(f, f"_k{i}")
            if optional:
                fails = f"{f} is not None and ({fails})"
            tests.append(f" if {fails}: {f} = _field({f!r}, {f}, _k{i})")
            namespace[f"_set{i}"] = getattr(cls, f).__set__
            stores.append(f" _set{i}(self, {f})")
        args = ", ".join(fields)
        source = [f"def __init__(self, {args}):", *tests, *stores]
        if check is not None:
            source.append(" _check(self)")
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

    Both components are stored as ``float``.  A non-finite component given
    to the constructor, or an ``int`` too large for a double, raises the
    finiteness rule's ``ValueError``, and so does such a scalar operand of
    ``+ - * /``; dividing by a zero scalar raises what dividing by ``ZERO``
    raises, :class:`DegenerateNormError`.  An arithmetic result that is not
    finite (an overflow) raises :class:`PreconditionError`.
    """

    __slots__ = {"x": _REAL, "y": _REAL}

    # -- ring structure ----------------------------------------------------

    # Each operator takes a SplitComplex or an int/float scalar and returns
    # NotImplemented for anything else, so a Vec2 operand reaches Vec2's
    # reflected method and an unrelated type raises TypeError.  A scalar is
    # converted once, by _scalar, before the arithmetic.

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
            other = _scalar(other)
            return _result(self.x * other, self.y * other)
        return NotImplemented

    __rmul__ = __mul__

    def __truediv__(self, other: SplitComplex | float | int) -> SplitComplex:
        if isinstance(other, SplitComplex):
            return self * other.inverse()
        if isinstance(other, _SCALARS):
            other = _scalar(other)
            if other == 0.0:  # the zero divisor, refused as ZERO is
                return self / ZERO
            return _result(self.x / other, self.y / other)
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

        The package's one squared-norm read.  Evaluated as ``(x - y) * (x +
        y)`` on the halved components, times 4: near the light cone the
        subtraction is exact, so the factored form keeps full relative
        precision where ``x*x - y*y`` loses it to cancellation.  Halving is
        exact unless a half is subnormal, and the ``* 4.0`` unless it
        overflows, so both factors of finite components are finite and the
        result is finite, ``inf`` or ``-inf``, never NaN.
        """
        x, y = 0.5 * self.x, 0.5 * self.y
        return (x - y) * (x + y) * 4.0

    def in_positive_cone(self, tol: float = EPS_ALG) -> bool:
        """True when the squared modulus is >= -tol.

        Membership is non-strict: the light cone belongs to the positive
        cone even though its elements admit no polar form.  At the default
        ``tol = EPS_ALG`` this is the library's cone rule, :func:`_in_cone`;
        ``tol = 0.0`` gives the exact cone.  A negative or NaN ``tol``
        raises ``ValueError``.
        """
        if not tol >= 0:
            raise ValueError(f"tolerance must be nonnegative, got {_echo(tol)}")
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
        """Read the JSON form ``[x, y]``; anything else raises ``ValueError``."""
        match data:
            case [x, y]:
                # two floats pass without the call; _numbers refuses the rest
                if not (x.__class__ is y.__class__ is float):
                    _numbers(_NUMBER, x, y)
                return cls(x, y)
        raise _malformed(_NUMBER, data)


class PolarForm(_Value):
    """Polar data ``(sign, modulus, theta)`` of a split-complex number.

    The sign is +1 or -1, stored as an ``int``; the modulus is finite and
    positive, the phase finite, both stored as ``float``.  Anything else
    raises ``ValueError``.
    """

    __slots__ = {"sign": _SIGN, "modulus": _REAL, "theta": _REAL}

    def _check(self) -> None:
        if not self.modulus > 0.0:
            raise ValueError(f"modulus must be strictly positive, got {self.modulus!r}")

    def to_number(self) -> SplitComplex:
        """Reconstruct the source number ``sign * modulus * expj(theta)``."""
        return expj(self.theta) * (self.sign * self.modulus)


def expj(theta: float) -> SplitComplex:
    """Unit-circle element ``cosh(theta) + j*sinh(theta)``.

    Satisfies ``expj(a) * expj(b) == expj(a + b)`` and has squared modulus 1
    for every phase in exact arithmetic.  Phases beyond ``THETA_MAX`` are
    rejected instead of silently overflowing to infinity.  In doubles the
    squared modulus ``x*x - y*y`` cancels, losing about ``cosh(theta)**2``
    ulps of 1: ``expj(17).norm_sq()`` reads 0.99 and ``expj(20).norm_sq()``
    0.0, and ``expj(19).polar()`` raises :class:`DegenerateNormError`, though
    every ``|theta| <= THETA_MAX`` is accepted.  The value is right to an
    ulp per component; only a modulus or a polar form read back from it has
    this limit.
    """
    check_phase(theta)
    return SplitComplex(math.cosh(theta), math.sinh(theta))


def _in_cone(ns: float) -> bool:
    """The positive-cone rule: squared norm ``ns >= -EPS_ALG``; NaN fails.

    The one test of decomposability, of a matrix entry's membership and of
    the witness threshold (a witness is a squared norm outside the cone).
    """
    return ns >= -EPS_ALG


def _check_norm_sq(x: float, y: float, ns: float) -> None:
    """Reject ``x + j*y`` unless its squared modulus ``ns`` is positive and finite.

    The one guard of the polar form and the inverse: ``ns <= 0`` (on or
    inside the light cone) raises :class:`DegenerateNormError`, and an
    ``ns`` that overflowed to inf raises :class:`PreconditionError`.
    :func:`_polar` and ``born._polar_or_absent`` test the same predicate
    inline and call this, through ``_polar``, only to raise.
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

    The plain-float polar kernel, behind :func:`_check_norm_sq`, whose
    predicate it tests inline, calling the guard only to raise.  Its
    arithmetic is repeated once, bit for bit, in ``born._polar_or_absent``,
    which calls this only to raise; a test holds the two to the same bits.
    """
    if not 0.0 < ns < math.inf:
        _check_norm_sq(x, y, ns)
    sign = 1 if x > 0.0 else -1
    modulus = math.sqrt(ns)
    return sign, modulus, math.asinh(sign * y / modulus)


#: The largest double; ``amplitude`` refuses a probability above it.
_DOUBLE_MAX = sys.float_info.max


def amplitude(sign: int, q: float, xi: float) -> SplitComplex:
    """Coefficient ``sign * sqrt(q) * expj(xi)`` with squared norm ``q``.

    The inverse of :func:`_polar`: a state coefficient of the Born rule
    (exported by ``hyperq.born``) and an entry of a witness's matrix.  A
    probability that is not finite (``+inf``, an ``int`` too large for a
    double) gets the finiteness rule's ``ValueError``, naming it.
    """
    # the guards' predicate in one chain; they run only to raise, the
    # finiteness rule last, for what passes check_probability
    if not (sign in (1, -1) and q >= 0 and q <= _DOUBLE_MAX and abs(xi) <= THETA_MAX):
        check_sign(sign)
        check_probability(q)
        check_phase(xi)
        _check_finite(("probability",), (q,))
    r = sign * math.sqrt(q)
    # the components of expj(xi) * r, without building expj(xi); finite,
    # since sqrt(_DOUBLE_MAX) * cosh(THETA_MAX) is
    return _result(math.cosh(xi) * r, math.sinh(xi) * r)


_new = object.__new__
_sc_x, _sc_y = SplitComplex.x.__set__, SplitComplex.y.__set__


def _result(x: float, y: float) -> SplitComplex:
    """``SplitComplex(x, y)`` for the result of an arithmetic operation.

    The one constructor of the operators, and the one place outside a
    value type's ``__init__`` that stores a field.  Every operand is finite
    (a scalar one passed :func:`_scalar`), so a component that is not comes
    from an overflow (or ``inf - inf``); it raises
    :class:`PreconditionError`, not the ``ValueError`` of malformed input at
    construction.  The test is call-free, as ``__init__``'s is: ``x - x``
    is 0.0 for a finite float and NaN otherwise.
    """
    if x - x or y - y:
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
    # an int past the largest double is not finite to _is_finite
    return isinstance(value, int) and not isinstance(value, bool) and _is_finite(value)


def _coerce(value: object) -> SplitComplex | None:
    """A ``+``/``-`` operand as a ``SplitComplex``; None for any other type."""
    if isinstance(value, SplitComplex):
        return value
    if isinstance(value, _SCALARS):
        return SplitComplex(_scalar(value), 0.0)
    return None


def _scalar(value: float, name: str = "operand") -> float:
    """A scalar operand of the operators, or a real field, as a ``float``.

    The finiteness rule runs first, so NaN, an infinity or an ``int`` too
    large for a double raises ``ValueError("operand must be finite, ...")``
    (the field's name in place of ``operand``) before any arithmetic.
    """
    _check_finite((name,), (value,))
    return float(value)


#: Name and shape of the JSON document read by ``SplitComplex.from_list``.
_NUMBER = "split-complex number", "[x, y]"


def _numbers(form: tuple[str, str], *leaves: object) -> tuple[object, ...]:
    """The leaves of a JSON document, each a JSON number, as given.

    The first leaf that is no number (:func:`_is_number`) is refused
    through :func:`_malformed`; a ``float`` is one without the call.  The
    value type built from them converts each to ``float`` (:func:`_field`).
    The ``from_list`` readers test for all-``float`` leaves inline and call
    this only when that test fails.
    """
    for leaf in leaves:
        if leaf.__class__ is not float and not _is_number(leaf):
            raise _malformed(form, leaf, " with numeric entries")
    return leaves


def _malformed(
    form: tuple[str, str], found: object, entries: str = "", detail: str = ""
) -> ValueError:
    """The refusal of a JSON reader, for raise paths only.

    It names the document and its expected shape, and the kind of value
    found in its place (:func:`_kind`), followed by ``detail``.  It never
    echoes the document, which may be any size.
    """
    kind = _kind(found)
    return ValueError(
        f"malformed {form[0]}: expected {form[1]}{entries}, got {kind}{detail}"
    )


def _kind(found: object) -> str:
    """A JSON value as a refusal names it: a number through :func:`_echo`,
    otherwise its type name."""
    number = isinstance(found, _SCALARS) and not isinstance(found, bool)
    return _echo(found) if number else type(found).__name__


#: The hyperbolic unit, with J * J == ONE.
J = SplitComplex(0.0, 1.0)
ONE = SplitComplex(1.0, 0.0)
ZERO = SplitComplex(0.0, 0.0)
