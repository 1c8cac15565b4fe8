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
the search evaluates it with the interference kernel
``hyperq.algebra._law``.

The search draws random states and matrices from this family and returns
the first combination whose transformed coordinates leave the positive
cone, packaged with everything needed to re-verify the violation from
scratch.
"""

from __future__ import annotations

import random

from .algebra import EPS_ALG, EPS_MEM, _is_finite, _law, _Value
from .born import amplitude, decompose
from .errors import PreconditionError
from .space import Mat2, Vec2, change_basis

__all__ = [
    "UnitaryParams",
    "NonTransitivityWitness",
    "make_decomposable_unitary",
    "search_non_transitivity",
    "verify_witness",
]

PHASE_RANGE = 3.0


class UnitaryParams(_Value):
    """Parameters of one decomposable row-orthonormal matrix."""

    __slots__ = ("p", "gamma1", "gamma2", "delta")

    @staticmethod
    def _check(p: float, gamma1: float, gamma2: float, delta: float) -> None:
        if not 0.0 < p < 1.0:
            raise ValueError(f"p must lie strictly inside (0, 1), got {p!r}")
        for name, value in (("gamma1", gamma1), ("gamma2", gamma2), ("delta", delta)):
            if not _is_finite(value):
                raise ValueError(f"{name} must be finite")


def make_decomposable_unitary(params: UnitaryParams) -> Mat2:
    """Row-orthonormal matrix with every entry in the positive cone.

    Its entrywise squared norms form the doubly stochastic matrix
    [[p, 1-p], [1-p, p]].
    """
    p, g1, g2, d = params.p, params.gamma1, params.gamma2, params.delta
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
    has squared norm ``norm_sq`` below zero.
    """

    __slots__ = ("beta", "basis", "alpha", "violating_index", "norm_sq")

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
    witness built along the linear-algebra route, ``change_basis`` of the
    state through :func:`make_decomposable_unitary`, which supplies the
    violating index and its squared norm.  The first sample whose
    transformed coordinates acquire a squared norm below ``-EPS_MEM`` is
    returned; None if ``max_iter`` samples all stay decomposable.
    """
    if max_iter < 1:
        raise ValueError(f"max_iter must be at least 1, got {max_iter!r}")
    rng = random.Random(seed)
    for _ in range(max_iter):
        q1 = rng.uniform(0.0, 1.0)
        xi1 = rng.uniform(-PHASE_RANGE, PHASE_RANGE)
        xi2 = rng.uniform(-PHASE_RANGE, PHASE_RANGE)
        p = rng.uniform(0.0, 1.0)
        gamma1 = rng.uniform(-PHASE_RANGE, PHASE_RANGE)
        gamma2 = rng.uniform(-PHASE_RANGE, PHASE_RANGE)
        delta = rng.uniform(-PHASE_RANGE, PHASE_RANGE)
        # uniform() is closed at the endpoints; open-interval draws only
        if not (0.0 < q1 < 1.0 and 0.0 < p < 1.0):
            continue
        q2 = 1.0 - q1
        p2 = _law(q1 * (1.0 - p), q2 * p, xi1 - xi2 + delta, -1, False)
        if p2 >= -EPS_MEM:
            continue
        beta = Vec2(amplitude(1, q1, xi1), amplitude(1, q2, xi2))
        basis = make_decomposable_unitary(UnitaryParams(p, gamma1, gamma2, delta))
        alpha = change_basis(beta, basis)
        # a hit counts only if the linear-algebra route confirms it
        for index, coord in enumerate(alpha.coords(), start=1):
            ns = coord.norm_sq()
            if ns < -EPS_MEM:
                return NonTransitivityWitness(beta, basis, alpha, index, ns)
    return None


def verify_witness(w: NonTransitivityWitness) -> bool:
    """Re-check a claimed witness from its raw fields; False on any failure.

    Confirms that the state is decomposable, that every matrix entry lies in
    the positive cone (``change_basis`` checks that the rows are
    orthonormal, so each row is then a decomposable state), that the stored
    coordinates really are the basis change of the state, and that
    the flagged coordinate has squared norm below ``-EPS_MEM`` matching the
    stored value.
    """
    try:
        if w.violating_index not in (1, 2):
            return False
        if not decompose(w.beta).decomposable:
            return False
        if not all(entry.in_positive_cone(EPS_ALG) for entry in w.basis.entries()):
            return False
        alpha = change_basis(w.beta, w.basis)
        if alpha.dist(w.alpha) > EPS_ALG:
            return False
        ns = alpha.coords()[w.violating_index - 1].norm_sq()
        return ns < -EPS_MEM and abs(ns - w.norm_sq) <= EPS_ALG
    except (PreconditionError, ValueError):
        return False
