"""Generalized Born rule over the split-complex scalars.

A normalized state vector assigns probability ``norm_sq(coefficient)`` to
each outcome, exactly as the classical Born rule does with the complex
modulus, but the indefinite squared norm makes this meaningful only when
every coefficient lies in the positive cone.  Such states are called
*decomposable* in the chosen basis.

Writing each coefficient as ``s * sqrt(q) * expj(xi)`` and each basis-matrix
entry as ``s_ik * sqrt(p_ik) * expj(g_ik)`` turns the basis change into a
closed-form transformation of the probabilities themselves:

    p1 = q1*p11 + q2*p21 + eps1 * 2*sqrt(q1*p11*q2*p21) * cosh(theta)
    p2 = q1*p12 + q2*p22 - eps1 * 2*sqrt(q1*p12*q2*p22) * cosh(theta)

with a single phase ``theta`` shared by both columns and opposite signs on
the two interference terms.  Both facts are forced by requiring p1 + p2 = 1
for every input state; :func:`check_sign_phase_constraints` measures how
well a concrete matrix and state satisfy them, and
:func:`transform_probabilities` evaluates the closed form, one column at a
time, through the interference kernel ``hyperq.algebra._law``.  The
transformed values can leave [0, 1]: that is the formalism's signal that the
state stopped being decomposable, so they are flagged rather than clamped.
"""

from __future__ import annotations

import math
from typing import NamedTuple

from .algebra import (
    EPS_ALG,
    EPS_MEM,
    SplitComplex,
    _is_finite,
    _is_number,
    _law,
    _polar,
    _Value,
    check_phase,
    check_probability,
    check_sign,
)
from .errors import ConstraintViolatedError, NotNormalizedError, PreconditionError
from .space import Mat2, Vec2, change_basis

__all__ = [
    "Phase",
    "StateDecomposition",
    "ProbabilityModel",
    "TransformedProbabilities",
    "SignPhaseReport",
    "decompose",
    "amplitude",
    "transform_probabilities",
    "check_sign_phase_constraints",
    "extract_model",
    "pipeline_probabilities",
]


class Phase(NamedTuple):
    """Sign and hyperbolic phase of one nonzero state coefficient."""

    sign: int
    xi: float


class StateDecomposition(_Value):
    """Coefficients of a state in a basis plus the Born-rule verdict.

    ``probabilities`` and ``phases`` are None when the state is not
    decomposable; a phase entry is None for a coefficient of negligible
    squared norm, where the polar form carries no information.
    """

    __slots__ = ("coefficients", "decomposable", "probabilities", "phases")

    def to_json_dict(self) -> dict[str, object]:
        probs = None if self.probabilities is None else list(self.probabilities)
        return {
            "coefficients": self.coefficients.to_list(),
            "decomposable": self.decomposable,
            "probabilities": probs,
        }


def _phase_of(c: SplitComplex, ns: float) -> Phase | None:
    """Polar sign and phase of ``c`` with squared norm ``ns``, if not negligible."""
    if ns <= EPS_MEM:
        return None
    sign, _, theta = _polar(c.x, c.y, ns)
    return Phase(sign, theta)


def decompose(phi: Vec2) -> StateDecomposition:
    """Born-rule reading of a normalized state in the implicit basis.

    Within ``EPS_ALG``, the squared norms of the coefficients must sum to 1
    (raises :class:`NotNormalizedError` otherwise), and the state is
    decomposable iff both coefficients lie in the positive cone; only then
    are the squared norms meaningful as probabilities.
    """
    q1, q2 = phi.norms_sq()
    # written so that a NaN sum fails too
    if not abs(q1 + q2 - 1.0) <= EPS_ALG:
        raise NotNormalizedError(f"squared norms sum to {q1 + q2}, expected 1")
    # SplitComplex.in_positive_cone(EPS_ALG) on the squared norms already held
    if not (q1 >= -EPS_ALG and q2 >= -EPS_ALG):
        return StateDecomposition(phi, False, None, None)
    return StateDecomposition(
        phi, True, (q1, q2), (_phase_of(phi.c1, q1), _phase_of(phi.c2, q2))
    )


def amplitude(sign: int, q: float, xi: float) -> SplitComplex:
    """Coefficient ``sign * sqrt(q) * expj(xi)`` with squared norm ``q``."""
    check_sign(sign)
    check_probability(q)
    check_phase(xi)
    r = sign * math.sqrt(q)
    # the components of expj(xi) * r, without building expj(xi)
    return SplitComplex(math.cosh(xi) * r, math.sinh(xi) * r)


def _check_unit_sums(kind: str, *totals: float) -> None:
    """Raise :class:`PreconditionError` at the first total off 1 by over ``EPS_ALG``."""
    for index, total in enumerate(totals, start=1):
        if abs(total - 1.0) > EPS_ALG:
            raise PreconditionError(f"{kind} {index} sums to {total}, expected 1")


class ProbabilityModel(_Value):
    """Probability-level data of a basis change: weights, matrix, phase, sign.

    ``q1, q2`` are the state's outcome probabilities in the old basis,
    ``p11..p22`` the squared norms of the basis-matrix entries, ``theta``
    the common interference phase, and ``eps1`` the sign on the first
    interference term.  The second sign is always ``-eps1``; independent
    signs cannot preserve total probability.
    """

    __slots__ = ("q1", "q2", "p11", "p12", "p21", "p22", "theta", "eps1")

    @staticmethod
    def _check(
        q1: float,
        q2: float,
        p11: float,
        p12: float,
        p21: float,
        p22: float,
        theta: float,
        eps1: int,
    ) -> None:
        values = (q1, q2, p11, p12, p21, p22, theta)
        try:
            finite = all(map(math.isfinite, values))
        except OverflowError:  # an int too large for a double
            finite = False
        if not finite:
            names = ("q1", "q2", "p11", "p12", "p21", "p22", "theta")
            name = next(n for n, v in zip(names, values) if not _is_finite(v))
            raise ValueError(f"{name} must be finite")
        check_sign(eps1, "eps1")

    @property
    def eps2(self) -> int:
        return -self.eps1

    def validate(self) -> None:
        """Raise :class:`PreconditionError` unless all invariants hold.

        The checks run in order: weights sum to 1, every entry lies in
        [0, 1], both rows sum to 1, ``|theta| <= THETA_MAX``, the
        cross-column symmetry ``p11*p21 == p12*p22``, both columns sum to 1.
        Without the symmetry the two interference terms cannot cancel and
        p1 + p2 would drift from 1, so its violation raises
        :class:`ConstraintViolatedError`.  Each holds within ``EPS_ALG``.
        """
        if abs(self.q1 + self.q2 - 1.0) > EPS_ALG:
            raise PreconditionError(f"q1 + q2 = {self.q1 + self.q2}, expected 1")
        entries = (self.q1, self.q2, self.p11, self.p12, self.p21, self.p22)
        if min(entries) < -EPS_ALG or max(entries) > 1.0 + EPS_ALG:
            raise PreconditionError("probabilities must lie in [0, 1]")
        _check_unit_sums("row", self.p11 + self.p12, self.p21 + self.p22)
        check_phase(self.theta)
        gap = self.p11 * self.p21 - self.p12 * self.p22
        if abs(gap) > EPS_ALG:
            raise ConstraintViolatedError(
                f"p11*p21 - p12*p22 = {gap}; the interference terms cannot cancel"
            )
        _check_unit_sums("column", self.p11 + self.p21, self.p12 + self.p22)

    def to_json_dict(self) -> dict[str, object]:
        return {
            "q": [self.q1, self.q2],
            "P": [[self.p11, self.p12], [self.p21, self.p22]],
            "theta": self.theta,
            "eps1": self.eps1,
        }

    @classmethod
    def from_json_dict(cls, data: object) -> ProbabilityModel:
        if not isinstance(data, dict):
            raise ValueError(f"expected an object, got {data!r}")
        try:
            (q1, q2) = data["q"]
            ((p11, p12), (p21, p22)) = data["P"]
            theta = data["theta"]
            eps1 = data["eps1"]
        except (KeyError, TypeError, ValueError) as exc:
            raise ValueError(f"malformed probability model: {exc}") from exc
        # the JSON number rule of SplitComplex.from_list; a bool is no number
        if not all(map(_is_number, (q1, q2, p11, p12, p21, p22, theta))):
            raise ValueError(
                f"malformed probability model: q, P and theta must be numbers, "
                f"got {data!r}"
            )
        if isinstance(eps1, bool) or not isinstance(eps1, int):
            raise ValueError(
                f"malformed probability model: eps1 must be an integer, got {eps1!r}"
            )
        return cls(q1, q2, p11, p12, p21, p22, theta, eps1)


class TransformedProbabilities(NamedTuple):
    """Output pair of the closed-form transformation; may leave [0, 1]."""

    p1: float
    p2: float

    @property
    def in_range(self) -> bool:
        return all(-EPS_ALG <= p <= 1.0 + EPS_ALG for p in self)


def transform_probabilities(m: ProbabilityModel) -> TransformedProbabilities:
    """Closed-form new-basis probabilities of a probability model.

    The model must pass :meth:`ProbabilityModel.validate`; a matrix without
    the cross-column symmetry raises :class:`ConstraintViolatedError`.
    Out-of-range outputs are legitimate (the state is then not decomposable)
    and reported via ``in_range``.
    """
    m.validate()
    # weights can dip a hair below 0 inside the tolerance slack
    w11, w21 = max(m.q1 * m.p11, 0.0), max(m.q2 * m.p21, 0.0)
    w12, w22 = max(m.q1 * m.p12, 0.0), max(m.q2 * m.p22, 0.0)
    return TransformedProbabilities(
        _law(w11, w21, m.theta, m.eps1, False),
        _law(w12, w22, m.theta, -m.eps1, False),
    )


class SignPhaseReport(_Value):
    """Diagnostics of the common-phase and opposite-sign requirements.

    ``theta1`` and ``theta2`` are the per-column interference phases; for a
    legitimate basis change their difference vanishes and the term signs
    ``eps1, eps2`` are opposite.  ``residual`` is the signed sum of the
    normalized interference terms, the amount by which total probability
    conservation fails.  Fields are None when the corresponding column
    carries no interference term; if no term survives at all the report is
    ``vacuous`` and the constraints hold trivially.
    """

    __slots__ = (
        "eta",
        "gamma1",
        "gamma2",
        "theta1",
        "theta2",
        "theta_diff",
        "eps1",
        "eps2",
        "opposite_signs",
        "residual",
        "vacuous",
        "satisfied",
    )


def _polar_or_absent(z: SplitComplex) -> tuple[int, float, float, float] | None:
    """``(sign, modulus, theta, norm_sq)``, or None for negligible squared norm.

    Entries with norm_sq ~ 0 contribute zero probability weight, so their
    undefined phase is never needed.  A clearly negative squared norm means
    the amplitude cannot carry a probability at all, and ``_polar`` raises
    :class:`DegenerateNormError` for it (:class:`PreconditionError` for one
    that overflows).
    """
    q = z.norm_sq()
    if abs(q) <= EPS_MEM:
        return None
    sign, modulus, theta = _polar(z.x, z.y, q)
    return sign, modulus, theta, q


#: ``(gamma, eps, weight, top_norm_sq, bottom_norm_sq)`` of one column's
#: interference term.
_Term = tuple[float, int, float, float, float]


def _column_term(
    top: SplitComplex, bottom: SplitComplex, state_sign: int
) -> _Term | None:
    """The interference term of one matrix column, or None if it vanishes."""
    pt = _polar_or_absent(top)
    pb = _polar_or_absent(bottom)
    if pt is None or pb is None:
        return None
    return pt[2] - pb[2], state_sign * pt[0] * pb[0], pt[1] * pb[1], pt[3], pb[3]


def _column_terms(
    basis: Mat2, beta: Vec2
) -> tuple[float, float, float, _Term | None, _Term | None] | None:
    """``(eta, q1, q2, term1, term2)`` of a (basis, state) pair, or None.

    ``eta`` is the phase difference of the two state coefficients and
    ``q1``, ``q2`` their squared norms; None when either coefficient is
    negligible, so that no interference term exists.
    Amplitudes are read in the order beta.c1, beta.c2, a11, a21, a12, a22,
    and the first with negative squared norm raises
    :class:`DegenerateNormError`.
    """
    s1 = _polar_or_absent(beta.c1)
    s2 = _polar_or_absent(beta.c2)
    if s1 is None or s2 is None:
        return None
    state_sign = s1[0] * s2[0]
    return (
        s1[2] - s2[2],
        s1[3],
        s2[3],
        _column_term(basis.a11, basis.a21, state_sign),
        _column_term(basis.a12, basis.a22, state_sign),
    )


_VACUOUS = SignPhaseReport(
    eta=None,
    gamma1=None,
    gamma2=None,
    theta1=None,
    theta2=None,
    theta_diff=None,
    eps1=None,
    eps2=None,
    opposite_signs=None,
    residual=0.0,
    vacuous=True,
    satisfied=True,
)


def check_sign_phase_constraints(basis: Mat2, beta: Vec2) -> SignPhaseReport:
    """Measure the common-phase and opposite-sign constraints on (basis, beta).

    Purely diagnostic: the matrix is not required to be unitary, so the
    report can quantify how a perturbed matrix breaks the constraints.
    Amplitudes of negligible squared norm drop their interference term;
    amplitudes with negative squared norm have no polar form and raise
    :class:`DegenerateNormError`.  The constraints hold within ``EPS_ALG``.
    """
    terms = _column_terms(basis, beta)
    if terms is None:
        return _VACUOUS
    eta, _, _, term1, term2 = terms
    if term1 is None and term2 is None:
        return _VACUOUS

    gamma1 = eps1 = theta1 = None
    gamma2 = eps2 = theta2 = None
    residual = 0.0
    if term1 is not None:
        gamma1, eps1, w1, _, _ = term1
        theta1 = eta + gamma1
        residual += eps1 * w1 * math.cosh(theta1)
    if term2 is not None:
        gamma2, eps2, w2, _, _ = term2
        theta2 = eta + gamma2
        residual += eps2 * w2 * math.cosh(theta2)

    theta_diff = None
    opposite = None
    if term1 is not None and term2 is not None:
        theta_diff = theta1 - theta2
        opposite = eps2 == -eps1
    satisfied = (
        abs(residual) <= EPS_ALG
        and (theta_diff is None or abs(theta_diff) <= EPS_ALG)
        and opposite is not False
    )
    return SignPhaseReport(
        eta=eta,
        gamma1=gamma1,
        gamma2=gamma2,
        theta1=theta1,
        theta2=theta2,
        theta_diff=theta_diff,
        eps1=eps1,
        eps2=eps2,
        opposite_signs=opposite,
        residual=residual,
        vacuous=False,
        satisfied=satisfied,
    )


def extract_model(beta: Vec2, basis: Mat2) -> ProbabilityModel:
    """Probability model of a concrete (state, basis-matrix) pair.

    Requires both interference terms to be present with a shared phase and
    opposite signs; anything else has no closed-form counterpart and raises
    :class:`PreconditionError`.  The checks are those of
    :func:`check_sign_phase_constraints` on the same column phases, but no
    report is built and no residual is computed: the fit reads only the
    phase and the sign of column 1.  The squared norms are those the polar
    forms were taken from, so each amplitude's is computed once.
    """
    terms = _column_terms(basis, beta)
    if terms is None or terms[3] is None or terms[4] is None:
        raise PreconditionError("both interference terms are needed to fit a model")
    eta, q1, q2, (gamma1, eps1, _, p11, p21), (gamma2, eps2, _, p12, p22) = terms
    theta1 = eta + gamma1
    theta_diff = theta1 - (eta + gamma2)
    if abs(theta_diff) > EPS_ALG:
        raise PreconditionError(
            f"columns disagree on the phase: theta1 - theta2 = {theta_diff}"
        )
    if eps2 != -eps1:
        raise PreconditionError("term signs are equal; no valid model exists")
    return ProbabilityModel(q1, q2, p11, p12, p21, p22, theta=theta1, eps1=eps1)


def pipeline_probabilities(beta: Vec2, basis: Mat2) -> StateDecomposition:
    """Linear-algebra route: change basis, then read probabilities off.

    Agrees with :func:`transform_probabilities` on the model extracted by
    :func:`extract_model` whenever every amplitude admits a polar form.
    """
    return decompose(change_basis(beta, basis))
