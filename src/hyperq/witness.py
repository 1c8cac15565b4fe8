"""Constructive search for failures of decomposability transitivity.

Decomposability is basis-relative and, perhaps surprisingly, not
transitive: a state with positive-cone coefficients in basis b, changed
into a basis a through a matrix whose rows are themselves decomposable
states, can end up with a coefficient of negative squared norm.  Nothing in
the chain looks pathological until the final coordinates appear.

The generator here produces the full family of row-orthonormal matrices
with positive-cone entries,

    [  sqrt(p)   * e^{j g1},        sqrt(1-p) * e^{j g2}      ]
    [  sqrt(1-p) * e^{j (g1-d)},   -sqrt(p)   * e^{j (g2-d)}  ],

parametrized by a probability split p and three free phases.  Row norms are
1 by construction and the orthogonality cross terms cancel because both
columns carry the same phase offset d.  Negating a whole row would give a
second sign pattern but changes no squared norm, so only this one is
generated.

For a state ``(sqrt(q1) e^{j xi1}, sqrt(q2) e^{j xi2})`` with q2 = 1 - q1,
the squared norms of the transformed coordinates follow in closed form:

    p1 = q1*p + q2*(1-p) + 2*sqrt(q1*q2*p*(1-p)) * cosh(xi1 - xi2 + d)
    p2 = q1*(1-p) + q2*p - 2*sqrt(q1*q2*p*(1-p)) * cosh(xi1 - xi2 + d)

The phases g1 and g2 cancel from both, and the shared phase is simply
xi1 - xi2 + d.  Every term of p1 is non-negative, so only coordinate 2 can
leave the positive cone: the interference term of p2 carries the minus
sign of the -sqrt(p) entry, and cosh >= 1 lets it outgrow the rest.  p2 is
the minus branch of the hyperbolic law with weights q1*(1-p) and q2*p, and
the search evaluates it with ``hyp_law``, which it takes from
``hyperq._rules`` (``hyperq.interference`` exports it).

Every entry and state coefficient is built by ``amplitude``, the inverse of
the polar kernel, which this module takes from ``hyperq.algebra``: it
never loads ``hyperq.born``.

The search draws random states and matrices from this family and returns
the first combination whose transformed coordinates leave the positive
cone, packaged with everything needed to re-verify the violation from
scratch.  Leaving the cone means a squared norm below ``-EPS_ALG``: the
one cone rule, ``hyperq.algebra._in_cone``, that also decides
``decompose``, so a witness's transformed state is never decomposable.

Both ends build only what they return.  The search builds a hit's matrix
with the private builder ``_unitary`` straight from the floats it drew,
with no ``UnitaryParams`` between, and :func:`verify_witness` decides the
state with ``decompose``'s two rules, the unit sum
(``hyperq.space._is_unit_sum``) and the cone (``_in_cone``) on each squared
norm, with no ``StateDecomposition`` between.
"""

from __future__ import annotations

import random

from ._rules import _echo, hyp_law
from .algebra import EPS_ALG, _INDEX, _REAL, _in_cone, _Value, amplitude
from .errors import PreconditionError
from .space import Mat2, Vec2, _is_unit_sum, change_basis

__all__ = [
    "UnitaryParams",
    "NonTransitivityWitness",
    "make_decomposable_unitary",
    "search_non_transitivity",
    "verify_witness",
]

PHASE_RANGE = 3.0


class UnitaryParams(_Value):
    """Parameters of one decomposable row-orthonormal matrix, stored as floats."""

    __slots__ = {"p": _REAL, "gamma1": _REAL, "gamma2": _REAL, "delta": _REAL}

    def _check(self) -> None:
        if not 0.0 < self.p < 1.0:
            raise ValueError(f"p must lie strictly inside (0, 1), got {self.p!r}")


def make_decomposable_unitary(params: UnitaryParams) -> Mat2:
    """Row-orthonormal matrix with every entry in the positive cone.

    Its entrywise squared norms form the doubly stochastic matrix
    [[p, 1-p], [1-p, p]].
    """
    return _unitary(params.p, params.gamma1, params.gamma2, params.delta)


def _unitary(p: float, g1: float, g2: float, d: float) -> Mat2:
    """The matrix of :func:`make_decomposable_unitary`, from its four floats.

    The caller has checked ``0 < p < 1``, as ``UnitaryParams`` does.
    """
    return Mat2(
        amplitude(1, p, g1),
        amplitude(1, 1.0 - p, g2),
        amplitude(1, 1.0 - p, g1 - d),
        amplitude(-1, p, g2 - d),
    )


class NonTransitivityWitness(_Value):
    """A decomposable state pushed out of the positive cone by a basis change.

    ``beta`` is decomposable, every row of ``basis`` is decomposable, yet
    coordinate ``violating_index`` of ``alpha = change_basis(beta, basis)``
    has squared norm ``norm_sq`` below zero.  ``beta`` and ``alpha`` must
    be a ``Vec2`` and ``basis`` a ``Mat2``, exactly (a subclass is refused);
    ``violating_index`` must be the ``int`` 1 or 2 (a ``bool`` is refused)
    and is stored as an ``int``; ``norm_sq`` is a real field, stored as a
    ``float``.
    """

    __slots__ = {
        "beta": Vec2, "basis": Mat2, "alpha": Vec2,
        "violating_index": _INDEX, "norm_sq": _REAL,
    }

    def to_json_dict(self) -> dict[str, object]:
        return {
            "beta": self.beta.to_list(),
            "B": self.basis.to_list(),
            "alpha": self.alpha.to_list(),
            "violating_index": self.violating_index,
            "norm_sq": self.norm_sq,
        }


def search_non_transitivity(
    seed: int, max_iter: int
) -> NonTransitivityWitness | None:
    """Randomized hunt for a transitivity failure, deterministic per seed.

    Each iteration draws, in this fixed order from a Mersenne Twister
    seeded with ``seed``: the state weight q1 from (0, 1), state phases
    xi1, xi2 from [-3, 3], the matrix weight p from (0, 1), and matrix
    phases gamma1, gamma2, delta from [-3, 3].  The closed form of p2 in the
    module docstring decides whether a draw is a hit; only for a hit is the
    witness built along the linear-algebra route: ``change_basis``, its
    unitarity test included, of the state through the matrix of
    :func:`make_decomposable_unitary`, built by the private builder
    ``_unitary`` from the drawn floats with no ``UnitaryParams`` between,
    supplies the violating index and its squared norm.  The first sample
    whose transformed coordinates leave the positive cone (a squared norm
    below ``-EPS_ALG``, the rule ``decompose`` applies) is returned; None
    if ``max_iter`` samples all stay decomposable.  A ``max_iter`` that is
    not an ``int`` (a ``bool`` included) or is below 1 raises
    ``ValueError``.
    """
    if max_iter.__class__ is not int:
        raise ValueError(f"max_iter must be an int, got {_echo(max_iter)}")
    if max_iter < 1:
        raise ValueError(f"max_iter must be at least 1, got {_echo(max_iter)}")
    draw = random.Random(seed).random
    # rng.uniform(lo, hi) computed as it documents, lo + (hi - lo) * random();
    # uniform(0.0, 1.0) is then random() itself
    lo, hi = -PHASE_RANGE, PHASE_RANGE
    span = hi - lo
    for _ in range(max_iter):
        q1 = draw()
        xi1 = lo + span * draw()
        xi2 = lo + span * draw()
        p = draw()
        gamma1 = lo + span * draw()
        gamma2 = lo + span * draw()
        delta = lo + span * draw()
        # the weights must lie in (0, 1); random() lies in [0, 1), so only
        # 0.0 falls outside
        if not (0.0 < q1 and 0.0 < p):
            continue
        q2 = 1.0 - q1
        p2 = hyp_law(q1 * (1.0 - p), q2 * p, xi1 - xi2 + delta, -1)
        if _in_cone(p2):
            continue
        beta = Vec2(amplitude(1, q1, xi1), amplitude(1, q2, xi2))
        basis = _unitary(p, gamma1, gamma2, delta)
        alpha = change_basis(beta, basis)
        # a hit counts only if the linear-algebra route confirms it
        for index, coord in enumerate(alpha.coords(), start=1):
            ns = coord.norm_sq()
            if not _in_cone(ns):
                return NonTransitivityWitness(beta, basis, alpha, index, ns)
    return None


def verify_witness(w: NonTransitivityWitness) -> bool:
    """Re-check a claimed witness from its fields; False when a check fails.

    Confirms that the state is decomposable by ``decompose``'s two rules,
    read from its squared norms without building a ``StateDecomposition``:
    their sum is 1 (``space._is_unit_sum``) and each lies in the positive
    cone (``_in_cone``).  Confirms then that every matrix entry lies in
    the positive cone (``change_basis`` checks that the rows are
    orthonormal, so each row is then a decomposable state), that the stored
    coordinates really are the basis change of the state, and that
    the flagged coordinate lies outside the positive cone, so ``decompose``
    calls the transformed state not decomposable, with its squared norm
    matching the stored value.  Every cone verdict is :func:`_in_cone`'s.
    The constructor has already refused an index other than 1 or 2 and a
    ``norm_sq`` that is not finite; an overflow or a refusal met while
    re-checking (a ``PreconditionError`` or ``ValueError``) gives False.
    """
    try:
        q1, q2 = w.beta.norms_sq()
        if not (_is_unit_sum(q1 + q2) and _in_cone(q1) and _in_cone(q2)):
            return False
        a11, a12, a21, a22 = w.basis.entries()
        if not (
            _in_cone(a11.norm_sq())
            and _in_cone(a12.norm_sq())
            and _in_cone(a21.norm_sq())
            and _in_cone(a22.norm_sq())
        ):
            return False
        alpha = change_basis(w.beta, w.basis)
        if alpha.dist(w.alpha) > EPS_ALG:
            return False
        ns = alpha.coords()[w.violating_index - 1].norm_sq()
        return not _in_cone(ns) and abs(ns - w.norm_sq) <= EPS_ALG
    except (PreconditionError, ValueError):
        return False
