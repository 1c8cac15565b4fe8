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
time, with the hyperbolic law ``hyp_law``, which it takes from
``hyperq._rules`` (``hyperq.interference`` exports it).  The
transformed values can leave [0, 1]: that is the formalism's signal that the
state stopped being decomposable, so they are flagged rather than clamped.

:func:`amplitude`, which builds a coefficient from ``(s, q, xi)``, is
exported here but defined in ``hyperq.algebra``, beside the polar kernel it
inverts, so that ``hyperq.witness`` builds its matrices without this module.
"""

from __future__ import annotations

import math
from collections import namedtuple

from ._rules import THETA_MAX, check_phase, hyp_law
from .algebra import (
    EPS_ALG,
    EPS_MEM,
    _REAL,
    _SIGN,
    SplitComplex,
    _in_cone,
    _kind,
    _malformed,
    _numbers,
    _polar,
    _Value,
    amplitude,
)
from .errors import ConstraintViolatedError, NotNormalizedError, PreconditionError
from .space import Mat2, Vec2, _is_unit_sum, change_basis

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


class Phase(namedtuple("Phase", "sign xi")):
    """Sign and hyperbolic phase of one nonzero state coefficient."""

    __slots__ = ()


class StateDecomposition(_Value):
    """Coefficients of a state in a basis plus the Born-rule verdict.

    ``probabilities`` and ``phases`` are None when the state is not
    decomposable; a phase entry is None for a coefficient of negligible
    squared norm, where the polar form carries no information.  ``phases``
    is computed on access from the coefficients and the probabilities; it
    is not a field.
    """

    __slots__ = {
        "coefficients": Vec2, "decomposable": bool, "probabilities": (tuple, None)
    }

    @property
    def phases(self) -> tuple[Phase | None, Phase | None] | None:
        if self.probabilities is None:
            return None
        c1, c2 = self.coefficients.coords()
        q1, q2 = self.probabilities
        return _phase_of(c1, q1), _phase_of(c2, q2)

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


def _unit_norms(phi: Vec2) -> tuple[float, float]:
    """The squared norms of ``phi``'s coefficients, which must sum to 1.

    The unit-sum rule of a state, within ``EPS_ALG``, for :func:`decompose`
    and :func:`pipeline_probabilities`; a state off it raises
    :class:`NotNormalizedError`.
    """
    q1, q2 = phi.c1.norm_sq(), phi.c2.norm_sq()
    if not _is_unit_sum(q1 + q2):
        raise NotNormalizedError(f"squared norms sum to {q1 + q2}, expected 1")
    return q1, q2


def decompose(phi: Vec2) -> StateDecomposition:
    """Born-rule reading of a normalized state in the implicit basis.

    Within ``EPS_ALG``, the squared norms of the coefficients must sum to 1
    (raises :class:`NotNormalizedError` otherwise), and the state is
    decomposable iff both coefficients lie in the positive cone; only then
    are the squared norms meaningful as probabilities.
    """
    q1, q2 = _unit_norms(phi)
    inside = _in_cone(q1) and _in_cone(q2)
    return StateDecomposition(phi, inside, (q1, q2) if inside else None)


def _check_unit_sums(kind: str, *totals: float) -> None:
    """Raise :class:`PreconditionError` at the first total off 1 by over ``EPS_ALG``.

    For the ordered checks of :meth:`ProbabilityModel.validate`, which run
    only once its one test of all the totals has failed.
    """
    for index, total in enumerate(totals, start=1):
        if not _is_unit_sum(total):
            raise PreconditionError(f"{kind} {index} sums to {total}, expected 1")


#: Name and shape of the JSON document read by ``from_json_dict``.
_MODEL = "probability model", (
    '{"q": [q1, q2], "P": [[p11, p12], [p21, p22]], "theta": theta, "eps1": eps1}'
)


class ProbabilityModel(_Value):
    """Probability-level data of a basis change: weights, matrix, phase, sign.

    ``q1, q2`` are the state's outcome probabilities in the old basis,
    ``p11..p22`` the squared norms of the basis-matrix entries, ``theta``
    the common interference phase, and ``eps1`` the sign on the first
    interference term.  The second sign is always ``-eps1``; independent
    signs cannot preserve total probability.  The seven reals are stored as
    ``float``, ``eps1`` as an ``int``.
    """

    __slots__ = {
        "q1": _REAL, "q2": _REAL, "p11": _REAL, "p12": _REAL,
        "p21": _REAL, "p22": _REAL, "theta": _REAL, "eps1": _SIGN,
    }

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
        A valid model is decided by one test of all six; only a model that
        fails it runs the checks in order, to raise the first one's error.
        """
        q1, q2 = self.q1, self.q2
        p11, p12, p21, p22 = self.p11, self.p12, self.p21, self.p22
        theta = self.theta
        gap = p11 * p21 - p12 * p22
        asymmetric = abs(gap) > EPS_ALG
        if (
            _is_unit_sum(q1 + q2, p11 + p12, p21 + p22, p11 + p21, p12 + p22)
            and _in_unit_interval((q1, q2, p11, p12, p21, p22))
            and abs(theta) <= THETA_MAX
            and not asymmetric
        ):
            return
        if not _is_unit_sum(q1 + q2):
            raise PreconditionError(f"q1 + q2 = {q1 + q2}, expected 1")
        if not _in_unit_interval((q1, q2, p11, p12, p21, p22)):
            raise PreconditionError("probabilities must lie in [0, 1]")
        _check_unit_sums("row", p11 + p12, p21 + p22)
        check_phase(theta)
        if asymmetric:
            raise ConstraintViolatedError(
                f"p11*p21 - p12*p22 = {gap}; the interference terms cannot cancel"
            )
        _check_unit_sums("column", p11 + p21, p12 + p22)

    def to_json_dict(self) -> dict[str, object]:
        return {
            "q": [self.q1, self.q2],
            "P": [[self.p11, self.p12], [self.p21, self.p22]],
            "theta": self.theta,
            "eps1": self.eps1,
        }

    @classmethod
    def from_json_dict(cls, data: object) -> ProbabilityModel:
        """Read the JSON form of :meth:`to_json_dict`; else ``ValueError``.

        ``q``, ``P`` and ``theta`` hold JSON numbers, ``eps1`` an integer
        (a bool is neither); other keys are ignored.
        """
        match data:
            case {
                "q": [q1, q2],
                "P": [[p11, p12], [p21, p22]],
                "theta": theta,
                "eps1": int(eps1),
            } if not isinstance(eps1, bool):
                return cls(*_numbers(_MODEL, q1, q2, p11, p12, p21, p22, theta), eps1)
            case {}:
                raise _malformed(_MODEL, data, detail=_misfit(data))
        raise _malformed(_MODEL, data)


def _misfit(data: dict) -> str:
    """The first key of a model document that is missing or does not match
    ``_MODEL``, and the kind of its value; for raise paths only."""
    for key in ("q", "P", "theta", "eps1"):
        if key not in data:
            return f' without "{key}"'
        match key, data[key]:
            case ("q", [_, _]) | ("P", [[_, _], [_, _]]) | ("theta", _):
                continue
            case "eps1", int(eps1) if not isinstance(eps1, bool):
                continue
            case _, found:
                return f' with "{key}": {_kind(found)}'
    return ""


def _in_unit_interval(values: tuple[float, ...]) -> bool:
    """The unit-interval rule: each value in ``[-EPS_ALG, 1 + EPS_ALG]``; NaN fails.

    The one test of a probability model's entries and of ``in_range``.
    """
    for p in values:
        if not -EPS_ALG <= p <= 1.0 + EPS_ALG:
            return False
    return True


class TransformedProbabilities(namedtuple("TransformedProbabilities", "p1 p2")):
    """Output pair of the closed-form transformation; may leave [0, 1]."""

    __slots__ = ()

    in_range = property(_in_unit_interval)


# builds the pair from a 2-tuple without the namedtuple's Python-level __new__
_pair = tuple.__new__


def transform_probabilities(m: ProbabilityModel) -> TransformedProbabilities:
    """Closed-form new-basis probabilities of a probability model.

    The model must pass :meth:`ProbabilityModel.validate`; a matrix without
    the cross-column symmetry raises :class:`ConstraintViolatedError`.
    Out-of-range outputs are legitimate (the state is then not decomposable)
    and reported via ``in_range``.
    """
    m.validate()
    # weights can dip a hair below 0 inside the tolerance slack; each is
    # clamped as max(w, 0.0) would clamp it, keeping -0.0
    w11, w21, w12, w22 = m.q1 * m.p11, m.q2 * m.p21, m.q1 * m.p12, m.q2 * m.p22
    if w11 < 0.0:
        w11 = 0.0
    if w21 < 0.0:
        w21 = 0.0
    if w12 < 0.0:
        w12 = 0.0
    if w22 < 0.0:
        w22 = 0.0
    return _pair(
        TransformedProbabilities,
        (hyp_law(w11, w21, m.theta, m.eps1), hyp_law(w12, w22, m.theta, -m.eps1)),
    )


class SignPhaseReport(_Value):
    """Diagnostics of the common-phase and opposite-sign requirements.

    ``theta1`` and ``theta2`` are the per-column interference phases; for a
    legitimate basis change their difference vanishes and the term signs
    ``eps1, eps2`` are opposite.  ``residual`` is the signed sum of the
    normalized interference terms, the amount by which total probability
    conservation fails.  Fields are None when the corresponding column
    carries no interference term; if no term survives at all the report is
    ``vacuous``, ``eta`` is None too, and the constraints hold trivially.
    """

    __slots__ = {
        "eta": (_REAL, None), "gamma1": (_REAL, None), "gamma2": (_REAL, None),
        "theta1": (_REAL, None), "theta2": (_REAL, None), "theta_diff": (_REAL, None),
        "eps1": (_SIGN, None), "eps2": (_SIGN, None), "opposite_signs": (bool, None),
        "residual": _REAL, "vacuous": bool, "satisfied": bool,
    }


def _polar_or_absent(*amplitudes: SplitComplex) -> list:
    """Per amplitude, ``(sign, modulus, theta, norm_sq)``, or None for a
    negligible squared norm, in the order given.

    Entries with norm_sq ~ 0 contribute zero probability weight, so their
    undefined phase is never needed.  A clearly negative squared norm means
    the amplitude cannot carry a probability at all, and ``_polar`` raises
    :class:`DegenerateNormError` for it (:class:`PreconditionError` for one
    that overflows): the first such amplitude raises.  The one copy of
    ``_polar``'s arithmetic: its three lines are repeated here, in the same
    operations, so that a polar form costs no call; ``_polar`` runs only to
    raise, and a test holds the two to the same bits and refusals.
    """
    forms = []
    for z in amplitudes:
        q = z.norm_sq()
        if abs(q) <= EPS_MEM:
            forms.append(None)
            continue
        x = z.x
        if not 0.0 < q < math.inf:
            _polar(x, z.y, q)  # raises: no polar form
        sign = 1 if x > 0.0 else -1
        modulus = math.sqrt(q)
        forms.append((sign, modulus, math.asinh(sign * z.y / modulus), q))
    return forms


def _column_terms(basis: Mat2, beta: Vec2) -> tuple | None:
    """``(eta, q1, q2, term1, term2)`` of a (basis, state) pair, or None.

    ``eta`` is the phase difference of the two state coefficients and
    ``q1``, ``q2`` their squared norms.  ``term_k`` is the interference
    term of matrix column k, ``(gamma, theta, eps, weight, p_top,
    p_bottom)``: the phase difference of its entries, the term's phase
    ``theta = eta + gamma``, its sign, its weight (the product of the moduli
    of its entries) and the squared norms of its entries; None when an
    entry is negligible.  The whole result is None when no term
    survives: a state coefficient is negligible, or both columns are.
    Amplitudes are read in the order beta.c1, beta.c2, a11, a21, a12, a22,
    and the first with negative squared norm raises
    :class:`DegenerateNormError`.
    """
    s1, s2 = _polar_or_absent(beta.c1, beta.c2)
    if s1 is None or s2 is None:
        return None
    eta = s1[2] - s2[2]
    state_sign = s1[0] * s2[0]
    t1, b1, t2, b2 = _polar_or_absent(basis.a11, basis.a21, basis.a12, basis.a22)
    terms = []
    for pt, pb in ((t1, b1), (t2, b2)):
        if pt is None or pb is None:
            terms.append(None)
        else:
            gamma = pt[2] - pb[2]
            sign = state_sign * pt[0] * pb[0]
            terms.append((gamma, eta + gamma, sign, pt[1] * pb[1], pt[3], pb[3]))
    term1, term2 = terms
    if term1 is None and term2 is None:
        return None
    return eta, s1[3], s2[3], term1, term2


def _sign_phase(
    theta1: float, theta2: float, eps1: int, eps2: int
) -> tuple[float, bool, bool]:
    """``(theta1 - theta2, common phase, opposite signs)`` of two column terms.

    The one test of the common-phase (within ``EPS_ALG``) and opposite-sign
    constraints, for :func:`check_sign_phase_constraints` and
    :func:`extract_model`.
    """
    theta_diff = theta1 - theta2
    return theta_diff, abs(theta_diff) <= EPS_ALG, eps2 == -eps1


def _rescaled_residual(*terms: tuple | None) -> float:
    """The signed sum of the interference terms, in an unbounded exponent range.

    For the raise branch of :func:`check_sign_phase_constraints`, where a
    term or the sum overflowed.  Each weight is scaled by ``2**-k``, which
    is exact, with ``k`` taken by ``math.frexp`` from the largest term's
    factors so that no scaled term reaches ``2**1022``; the same sum is
    formed and scaled back by ``2**k`` with ``math.ldexp``.  A sum that is
    still not finite is no double, and raises :class:`PreconditionError`.
    """
    factors = [
        (eps * w, math.cosh(theta)) for _, theta, eps, w, _, _ in filter(None, terms)
    ]
    k = max(math.frexp(a)[1] + math.frexp(c)[1] for a, c in factors) - 1022
    scaled = 0.0
    for a, c in factors:
        scaled += math.ldexp(a, -k) * c
    try:
        residual = math.ldexp(scaled, k)
    except OverflowError:  # ldexp refuses to overflow
        residual = math.copysign(math.inf, scaled)
    if not math.isfinite(residual):
        raise PreconditionError(f"interference residual overflows: {residual}")
    return residual


def check_sign_phase_constraints(basis: Mat2, beta: Vec2) -> SignPhaseReport:
    """Measure the common-phase and opposite-sign constraints on (basis, beta).

    Purely diagnostic: the matrix is not required to be unitary, so the
    report can quantify how a perturbed matrix breaks the constraints.
    Amplitudes of negligible squared norm drop their interference term;
    amplitudes with negative squared norm have no polar form and raise
    :class:`DegenerateNormError`.  A residual too large for a double, as it
    can be for entries near 1e154, raises :class:`PreconditionError`.
    Where a term overflows, :func:`_rescaled_residual` sums the terms
    again, so two such terms that cancel give their difference, not a
    refusal.  The constraints hold within ``EPS_ALG``.
    """
    terms = _column_terms(basis, beta)
    eta, _, _, term1, term2 = terms or (None,) * 5
    gamma1 = theta1 = eps1 = gamma2 = theta2 = eps2 = None
    residual = 0.0
    if term1 is not None:
        gamma1, theta1, eps1, w1, _, _ = term1
        residual += eps1 * w1 * math.cosh(theta1)
    if term2 is not None:
        gamma2, theta2, eps2, w2, _, _ = term2
        residual += eps2 * w2 * math.cosh(theta2)
    if not math.isfinite(residual):
        residual = _rescaled_residual(term1, term2)
    theta_diff, common, opposite = None, True, None
    if term1 is not None and term2 is not None:
        theta_diff, common, opposite = _sign_phase(theta1, theta2, eps1, eps2)
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
        vacuous=terms is None,
        satisfied=abs(residual) <= EPS_ALG and common and opposite is not False,
    )


def extract_model(beta: Vec2, basis: Mat2) -> ProbabilityModel:
    """Probability model of a concrete (state, basis-matrix) pair.

    Requires both interference terms to be present with a shared phase and
    opposite signs; anything else has no closed-form counterpart and raises
    :class:`PreconditionError`.  No report is built and no residual is
    computed: the fit reads only the phase and the sign of column 1.  The
    squared norms are those the polar forms were taken from, so each
    amplitude's is computed once.
    """
    _, q1, q2, term1, term2 = _column_terms(basis, beta) or (None,) * 5
    if term1 is None or term2 is None:
        raise PreconditionError("both interference terms are needed to fit a model")
    (_, theta1, eps1, _, p11, p21), (_, theta2, eps2, _, p12, p22) = term1, term2
    theta_diff, common, opposite = _sign_phase(theta1, theta2, eps1, eps2)
    if not common:
        raise PreconditionError(
            f"columns disagree on the phase: theta1 - theta2 = {theta_diff}"
        )
    if not opposite:
        raise PreconditionError("term signs are equal; no valid model exists")
    return ProbabilityModel(q1, q2, p11, p12, p21, p22, theta1, eps1)


def pipeline_probabilities(beta: Vec2, basis: Mat2) -> StateDecomposition:
    """Linear-algebra route: change basis, then read probabilities off.

    The state given must be normalized, by :func:`decompose`'s unit-sum
    rule, as the closed form requires (:class:`NotNormalizedError`
    otherwise); so must the changed state, whose squared norms lose
    rounding in the basis change.  Agrees with
    :func:`transform_probabilities` on the model extracted by
    :func:`extract_model` whenever every amplitude admits a polar form.
    """
    _unit_norms(beta)
    return decompose(change_basis(beta, basis))
