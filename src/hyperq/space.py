"""Two dimensional module over the split-complex numbers.

Vectors carry an indefinite sesquilinear product

    inner(u, v) = u1 * conj(v1) + u2 * conj(v2)

which is linear in the first argument, conjugate-symmetric, and, viewed as a
real bilinear form on the four real coordinates, has signature (+,-,+,-).
A 2x2 matrix is *unitary* here when its rows are orthonormal under this
product.  Taking the squared modulus of every entry of a unitary matrix
whose entries all sit in the positive cone yields a doubly stochastic
probability matrix, the bridge between the linear algebra and probability
bookkeeping built on top of it in :mod:`hyperq.born`.
"""

from __future__ import annotations

import math
from collections.abc import Sequence

from .algebra import (
    EPS_ALG, ONE, ZERO, _SCALARS, SplitComplex, _malformed, _numbers, _result, _Value
)
from ._rules import _check_finite, _echo
from .errors import NotUnitaryError, PreconditionError

__all__ = [
    "Vec2",
    "Mat2",
    "inner",
    "orthonormality_residual",
    "is_orthonormal_rows",
    "change_basis",
    "prob_matrix",
    "doubly_stochastic_residual",
]

#: Name and shape of the JSON documents read by ``from_list``.
_VECTOR = "vector", "[[x1, y1], [x2, y2]]"
_MATRIX = "matrix", "[[[x11, y11], [x12, y12]], [[x21, y21], [x22, y22]]]"


class Vec2(_Value):
    """Pair of split-complex coordinates in an implicit ordered basis."""

    __slots__ = {"c1": SplitComplex, "c2": SplitComplex}

    def __add__(self, other: Vec2) -> Vec2:
        if not isinstance(other, Vec2):
            return NotImplemented
        return Vec2(self.c1 + other.c1, self.c2 + other.c2)

    def __sub__(self, other: Vec2) -> Vec2:
        if not isinstance(other, Vec2):
            return NotImplemented
        return Vec2(self.c1 - other.c1, self.c2 - other.c2)

    def __mul__(self, scalar: SplitComplex | float | int) -> Vec2:
        if not isinstance(scalar, (SplitComplex, *_SCALARS)):
            return NotImplemented
        return Vec2(self.c1 * scalar, self.c2 * scalar)

    __rmul__ = __mul__

    def __neg__(self) -> Vec2:
        return Vec2(-self.c1, -self.c2)

    def coords(self) -> tuple[SplitComplex, SplitComplex]:
        return (self.c1, self.c2)

    def norms_sq(self) -> tuple[float, float]:
        """Squared moduli of both coordinates."""
        return (self.c1.norm_sq(), self.c2.norm_sq())

    def norm_sq_sum(self) -> float:
        return self.c1.norm_sq() + self.c2.norm_sq()

    def dist(self, other: Vec2) -> float:
        """Chebyshev distance over the four components.

        One ``max`` over the component gaps: the components are finite, so
        this is the larger of the two coordinates' ``SplitComplex.dist``.
        """
        a, b, c, d = self.c1, other.c1, self.c2, other.c2
        return max(abs(a.x - b.x), abs(a.y - b.y), abs(c.x - d.x), abs(c.y - d.y))

    def to_list(self) -> list[list[float]]:
        """JSON form ``[[x1, y1], [x2, y2]]``."""
        return [self.c1.to_list(), self.c2.to_list()]

    @classmethod
    def from_list(cls, data: object) -> Vec2:
        """Read the JSON form ``[[x1, y1], [x2, y2]]``; else ``ValueError``."""
        match data:
            case [[x1, y1], [x2, y2]]:
                # four floats pass without the call; _numbers refuses the rest
                if not (
                    x1.__class__ is y1.__class__ is x2.__class__ is y2.__class__ is float
                ):
                    _numbers(_VECTOR, x1, y1, x2, y2)
                return cls(SplitComplex(x1, y1), SplitComplex(x2, y2))
        raise _malformed(_VECTOR, data)

    @classmethod
    def basis1(cls) -> Vec2:
        return cls(ONE, ZERO)

    @classmethod
    def basis2(cls) -> Vec2:
        return cls(ZERO, ONE)


class Mat2(_Value):
    """2x2 matrix of split-complex entries, row major."""

    __slots__ = dict.fromkeys(("a11", "a12", "a21", "a22"), SplitComplex)

    @property
    def row1(self) -> Vec2:
        return Vec2(self.a11, self.a12)

    @property
    def row2(self) -> Vec2:
        return Vec2(self.a21, self.a22)

    def rows(self) -> tuple[Vec2, Vec2]:
        return (self.row1, self.row2)

    def entries(self) -> tuple[SplitComplex, SplitComplex, SplitComplex, SplitComplex]:
        return (self.a11, self.a12, self.a21, self.a22)

    def to_list(self) -> list[list[list[float]]]:
        """JSON form ``[[[x11,y11],[x12,y12]], [[x21,y21],[x22,y22]]]``."""
        return [self.row1.to_list(), self.row2.to_list()]

    @classmethod
    def from_list(cls, data: object) -> Mat2:
        """Read the JSON form of :meth:`to_list`; anything else raises ``ValueError``."""
        match data:
            case [[[x11, y11], [x12, y12]], [[x21, y21], [x22, y22]]]:
                # eight floats pass without the call; _numbers refuses the rest
                if not (
                    x11.__class__ is y11.__class__ is x12.__class__ is y12.__class__
                    is x21.__class__ is y21.__class__ is x22.__class__ is y22.__class__
                    is float
                ):
                    _numbers(_MATRIX, x11, y11, x12, y12, x21, y21, x22, y22)
                return cls(
                    SplitComplex(x11, y11),
                    SplitComplex(x12, y12),
                    SplitComplex(x21, y21),
                    SplitComplex(x22, y22),
                )
        raise _malformed(_MATRIX, data)

    @classmethod
    def from_rows(cls, r1: Vec2, r2: Vec2) -> Mat2:
        return cls(r1.c1, r1.c2, r2.c1, r2.c2)

    @classmethod
    def identity(cls) -> Mat2:
        return cls(ONE, ZERO, ZERO, ONE)


def inner(u: Vec2, v: Vec2) -> SplitComplex:
    """Indefinite sesquilinear product, conjugation on the second argument.

    ``inner(u, u)`` always has a vanishing j component, so self-products are
    real; they may still be negative, which is the whole point of working
    over an indefinite form.
    """
    return u.c1 * v.c1.conj() + u.c2 * v.c2.conj()


def orthonormality_residual(m: Mat2) -> float:
    """Largest deviation of the row products from the orthonormal pattern.

    Measures ``inner(r1, r1)`` and ``inner(r2, r2)`` against 1 and
    ``inner(r1, r2)`` against 0, componentwise, and returns the worst case.

    Computed in the light-cone coordinates ``u = x + y``, ``v = x - y``, in
    which a product is componentwise and ``conj`` swaps u and v: a row's
    self-product is ``u1*v1 + u2*v2`` (a real number), and ``inner(r1, r2)``
    is ``((U + V)/2, (U - V)/2)`` with ``U = u11*v21 + u12*v22`` and
    ``V = v11*u21 + v12*u22``, whose larger component is ``(|U| + |V|)/2``.
    Eight products, and an error within ``5u*S`` of the exact residual
    (``u = 2**-53``, ``S`` one plus the largest sum of product magnitudes),
    where the squares of the (x, y) form grow with cosh-sized components.
    u and v are formed from the halved components, so a finite entry has
    finite coordinates, and each of the four sums is a quarter of the one
    above: ``n`` of a row's self-product, ``U/4`` and ``V/4``.  Each is
    scaled once it is summed, to ``|4*n - 1|`` and ``2*(|U/4| + |V/4|)``,
    exactly unless the scaled value overflows.  One test of the three gaps
    raises :class:`PreconditionError` when the residual is not finite, that
    is when a row product ``u*v`` or the residual itself is not a double.
    """
    x11, y11 = 0.5 * m.a11.x, 0.5 * m.a11.y
    x12, y12 = 0.5 * m.a12.x, 0.5 * m.a12.y
    x21, y21 = 0.5 * m.a21.x, 0.5 * m.a21.y
    x22, y22 = 0.5 * m.a22.x, 0.5 * m.a22.y
    u11, v11 = x11 + y11, x11 - y11
    u12, v12 = x12 + y12, x12 - y12
    u21, v21 = x21 + y21, x21 - y21
    u22, v22 = x22 + y22, x22 - y22
    n1, n2 = u11 * v11 + u12 * v12, u21 * v21 + u22 * v22
    U, V = u11 * v21 + u12 * v22, v11 * u21 + v12 * u22
    g1, g2 = abs(4.0 * n1 - 1.0), abs(4.0 * n2 - 1.0)
    g3 = 2.0 * (abs(U) + abs(V))
    residual = max(g1, g2, g3)
    # the gaps are nonnegative, so their sum is NaN exactly when one is,
    # which the builtin max can drop
    if math.isnan(g1 + g2 + g3) or residual == math.inf:
        raise PreconditionError(f"orthonormality residual overflows: {(g1, g2, g3)}")
    return residual


def is_orthonormal_rows(m: Mat2) -> bool:
    """True when the rows are orthogonal unit vectors, within ``EPS_ALG``.

    The one test of unitarity; :func:`change_basis` and ``hyperq verify``
    call it.
    """
    return orthonormality_residual(m) <= EPS_ALG


def change_basis(coeffs: Vec2, basis: Mat2) -> Vec2:
    """Coordinates of a vector after expressing each old basis vector in a new one.

    Row i of ``basis`` holds the new-basis coordinates of old basis vector i,
    so the transformed coefficient pair is the row vector ``coeffs`` times
    the matrix:

        out_k = coeffs.c1 * basis[1][k] + coeffs.c2 * basis[2][k]

    The matrix must pass :func:`is_orthonormal_rows`; anything else is not a
    legitimate basis change and raises :class:`NotUnitaryError`.  A product
    that overflows raises :class:`PreconditionError`.
    """
    if not is_orthonormal_rows(basis):
        residual = orthonormality_residual(basis)
        raise NotUnitaryError(f"rows are not orthonormal (residual {residual})")
    # SplitComplex products and sums written out in their operation order;
    # an inf or NaN never turns finite again, so _result checking the
    # outputs suffices
    x1, y1 = coeffs.c1.x, coeffs.c1.y
    x2, y2 = coeffs.c2.x, coeffs.c2.y
    a11, a12, a21, a22 = basis.a11, basis.a12, basis.a21, basis.a22
    return Vec2(
        _result(
            (x1 * a11.x + y1 * a11.y) + (x2 * a21.x + y2 * a21.y),
            (x1 * a11.y + a11.x * y1) + (x2 * a21.y + a21.x * y2),
        ),
        _result(
            (x1 * a12.x + y1 * a12.y) + (x2 * a22.x + y2 * a22.y),
            (x1 * a12.y + a12.x * y1) + (x2 * a22.y + a22.x * y2),
        ),
    )


def prob_matrix(m: Mat2) -> tuple[tuple[float, float], tuple[float, float]]:
    """Entrywise squared moduli ``((p11, p12), (p21, p22))``.

    For a unitary matrix with all entries in the positive cone the result is
    doubly stochastic; no such condition is checked here.
    """
    return (m.a11.norm_sq(), m.a12.norm_sq()), (m.a21.norm_sq(), m.a22.norm_sq())


def _is_unit_sum(*totals: float) -> bool:
    """The unit-sum rule: each of ``totals`` is 1 within ``EPS_ALG``; NaN fails.

    The one test of a state's normalization, of a probability model's
    weight, row and column sums, and of ``hyperq verify``'s stochasticity;
    each passes its whole table of totals in one call.
    """
    for total in totals:
        if not abs(total - 1.0) <= EPS_ALG:
            return False
    return True


def doubly_stochastic_residual(p: Sequence[Sequence[float]]) -> float:
    """Largest deviation of any row or column sum of a 2x2 table from 1.

    NaN when an entry is NaN: the builtin ``max`` would drop it silently.
    An ``int`` entry too large for a double gets the finiteness rule's
    ``ValueError``.  Raises :class:`PreconditionError` when a sum overflows,
    to an infinity, past a double for ``int`` entries, or, from entries that
    overflowed with opposite signs, to NaN.
    """
    (a, b), (c, d) = p
    try:
        g1, g2 = abs(a + b - 1.0), abs(c + d - 1.0)
        g3, g4 = abs(a + c - 1.0), abs(b + d - 1.0)
    except OverflowError:
        # an int entry, or an int sum, that no double holds; the first is
        # refused here, the second overflows below
        _check_finite(("p11", "p12", "p21", "p22"), (a, b, c, d))
    else:
        # the gaps are nonnegative, so their sum is NaN exactly when one is
        if math.isnan(g1 + g2 + g3 + g4):
            # a NaN entry gives NaN; other entries give a NaN sum only as
            # inf + -inf, an overflow
            if any(map(math.isnan, (a, b, c, d))):
                return math.nan
        else:
            residual = max(g1, g2, g3, g4)
            # a comparison, not a call: this runs on every verify
            if residual != math.inf:
                return residual
    # an int sum's digits would swamp the message
    sums = ", ".join(map(_echo, (a + b, c + d, a + c, b + d)))
    raise PreconditionError(f"row and column sums overflow: ({sums})")
