"""Decomposability, the closed-form probability transformation, and the
sign/phase constraint system."""

import hashlib
import math
import random

import pytest
from helpers import outcome, python_calls
from hypothesis import example, given
from hypothesis import strategies as st

from hyperq._rules import hyp_law
from hyperq.algebra import (
    EPS_ALG,
    EPS_MEM,
    ONE,
    THETA_MAX,
    ZERO,
    SplitComplex,
    _check_finite,
    _polar,
    check_phase,
    check_probability,
    check_sign,
    expj,
)
from hyperq.born import (
    Phase,
    ProbabilityModel,
    SignPhaseReport,
    TransformedProbabilities,
    _phase_of,
    _polar_or_absent,
    amplitude,
    check_sign_phase_constraints,
    decompose,
    extract_model,
    pipeline_probabilities,
    transform_probabilities,
)
from hyperq.errors import (
    ConstraintViolatedError,
    DegenerateNormError,
    NotNormalizedError,
    PhaseRangeError,
    PreconditionError,
)
from hyperq.space import (
    Mat2,
    Vec2,
    change_basis,
    doubly_stochastic_residual,
    orthonormality_residual,
    prob_matrix,
)
from hyperq.witness import UnitaryParams, make_decomposable_unitary

# the refusals of ProbabilityModel.from_json_dict: the shape, never the content
MODEL = (
    "malformed probability model: expected "
    '{"q": [q1, q2], "P": [[p11, p12], [p21, p22]], "theta": theta, "eps1": eps1}'
)
MODEL_ENTRIES = f"{MODEL} with numeric entries"
HUGE = "an int too large for a double"

LN2 = math.log(2)
SQH = math.sqrt(0.5)


def witness_state() -> Vec2:
    """sqrt(1/2) e^{j ln 2} and sqrt(1/2): decomposable, but fragile."""
    return Vec2(amplitude(1, 0.5, LN2), amplitude(1, 0.5, 0.0))


def hadamard_like() -> Mat2:
    return make_decomposable_unitary(UnitaryParams(0.5, 0.0, 0.0, 0.0))


OFFSET = make_decomposable_unitary(UnitaryParams(0.3, 0.4, -0.2, 0.9))


weights = st.floats(min_value=0.05, max_value=0.95)
signs = st.sampled_from((1, -1))
phases = st.floats(min_value=-3.0, max_value=3.0)
states = st.builds(
    lambda s1, s2, q, xi1, xi2: Vec2(amplitude(s1, q, xi1), amplitude(s2, 1 - q, xi2)),
    signs, signs, weights, phases, phases,
)
unitaries = st.builds(
    lambda p, g1, g2, d: make_decomposable_unitary(UnitaryParams(p, g1, g2, d)),
    weights, phases, phases, phases,
)


class TestDecompose:
    def test_basis_state(self):
        d = decompose(Vec2(ONE, ZERO))
        assert d.decomposable
        assert d.probabilities == (1.0, 0.0)
        assert d.phases == (Phase(1, 0.0), None)

    def test_balanced_state_with_phase(self):
        d = decompose(witness_state())
        assert d.decomposable
        assert d.probabilities[0] == pytest.approx(0.5, abs=1e-12)
        assert d.probabilities[1] == pytest.approx(0.5, abs=1e-12)
        sign1, xi1 = d.phases[0]
        assert sign1 == 1 and xi1 == pytest.approx(LN2, abs=1e-12)

    def test_transformed_witness_state_is_not_decomposable(self):
        alpha = change_basis(witness_state(), hadamard_like())
        d = decompose(alpha)
        assert not d.decomposable
        assert d.probabilities is None
        assert d.phases is None

    def test_light_cone_coefficient_is_weightless(self):
        d = decompose(Vec2(SplitComplex(0.3, 0.3), ONE))
        assert d.decomposable
        assert d.probabilities == (0.0, 1.0)
        assert d.phases == (None, Phase(1, 0.0))

    def test_decompose_calls(self):
        # the unit-sum rule reads both squared norms without a hop
        assert python_calls(decompose, witness_state()) == [
            "decompose",
            "_unit_norms",
            "norm_sq",
            "norm_sq",
            "_is_unit_sum",
            "_in_cone",
            "_in_cone",
            "__init__",
        ]

    def test_rejects_unnormalized(self):
        with pytest.raises(NotNormalizedError):
            decompose(Vec2(ONE, ONE))

    @given(states)
    @example(Vec2(ONE, ZERO))
    @example(Vec2(SplitComplex(0.3, 0.3), ONE))
    @example(change_basis(witness_state(), hadamard_like()))
    def test_phases_equal_the_eager_tuple(self, phi):
        # _phase_of over both coefficients, or None when not decomposable
        d = decompose(phi)
        q1, q2 = phi.norms_sq()
        eager = (_phase_of(phi.c1, q1), _phase_of(phi.c2, q2)) if d.decomposable else None
        assert d.phases == eager
        assert type(d.phases) is type(eager)

    @given(states)
    def test_phases_are_the_polar_phases(self, phi):
        polar = [c.polar() for c in phi.coords()]
        assert decompose(phi).phases == tuple((p.sign, p.theta) for p in polar)

    def test_overflowing_norm_is_not_normalized(self):
        # the squared norm 1e616 is not a double: inf
        with pytest.raises(NotNormalizedError):
            decompose(Vec2(SplitComplex(1e308, 0.0), ONE))


# arguments with every edge of amplitude's guards, and signs that pass and fail
amplitude_args = st.sampled_from(
    [math.nan, math.inf, -math.inf, 0.0, -0.0, 5e-324, 0.5, 1.0, 1e308, -1.0]
    + [THETA_MAX, -THETA_MAX, math.nextafter(THETA_MAX, 400.0), 10**400, -(10**400)]
    + [True, False, "0.5", None]
) | st.floats()
amplitude_signs = st.sampled_from(
    [1, -1, 0, 2, 1.0, -1.0, True, False, 1.5, math.nan, "1", None]
)


def guarded_amplitude(sign, q, xi):
    """``amplitude`` calling its three guards, in order, then the finiteness
    rule on the probability, before computing."""
    check_sign(sign)
    check_probability(q)
    check_phase(xi)
    _check_finite(("probability",), (q,))
    r = sign * math.sqrt(q)
    return SplitComplex(math.cosh(xi) * r, math.sinh(xi) * r)


class TestAmplitude:
    def test_examples(self):
        assert amplitude(1, 1.0, 0.0) == ONE
        a = amplitude(-1, 0.25, LN2)
        assert a.dist(SplitComplex(-0.625, -0.375)) < 1e-12
        assert amplitude(1, 0.0, 5.0) == ZERO

    @pytest.mark.parametrize("q", [0.0, 0.25, 0.5, 0.99, 1.0, 2.5])
    def test_norm_sq_recovers_q(self, q):
        for sign in (1, -1):
            assert amplitude(sign, q, 1.3).norm_sq() == pytest.approx(q, abs=1e-9)

    def test_validation(self):
        with pytest.raises(ValueError):
            amplitude(0, 0.5, 0.0)
        with pytest.raises(ValueError):
            amplitude(1, -0.1, 0.0)
        with pytest.raises(PhaseRangeError):
            amplitude(1, 0.5, 400.0)
        with pytest.raises(ValueError):
            amplitude(1, 0.5, math.nan)

    @pytest.mark.parametrize("q", [math.inf, 10**400], ids=["inf", "huge-int"])
    def test_probability_that_is_not_finite_is_named(self, q):
        # +inf passes check_probability; the finiteness rule names it, not
        # the component it would have made infinite
        with pytest.raises(ValueError, match="^probability must be finite") as info:
            amplitude(1, q, 0.0)
        assert not isinstance(info.value, PreconditionError)

    def test_matches_expj_product(self):
        rng = random.Random(3)
        for _ in range(1000):
            sign, q, xi = rng.choice((1, -1)), rng.random(), rng.uniform(-300, 300)
            assert amplitude(sign, q, xi) == expj(xi) * (sign * math.sqrt(q))

    @given(amplitude_signs, amplitude_args, amplitude_args)
    @example(1, 10**400, 0.0)
    @example(1, math.inf, 0.0)
    @example(-1, 0.5, -(10**400))
    @example(1, math.nan, 0.0)
    @example(1, 0.5, math.nextafter(THETA_MAX, math.inf))
    @example(1, "0.5", 0.0)
    @example(1, 0.5, "0")
    @example(True, 0.5, 0.5)
    @example(2, "0.5", math.nan)
    @example(math.nan, -1.0, 400.0)
    def test_inline_guards_match_the_guards(self, sign, q, xi):
        got = outcome(amplitude, sign, q, xi)
        assert got == outcome(guarded_amplitude, sign, q, xi)


def balanced_model(theta: float, eps1: int = 1) -> ProbabilityModel:
    return ProbabilityModel(0.5, 0.5, 0.5, 0.5, 0.5, 0.5, theta, eps1)


#: Matrices (p11, p12, p21, p22) that fail at most one check of
#: ``validate``: ``HALF`` none, ``ROWS`` the row sums, ``BOX`` the unit
#: interval, ``ASYM`` the symmetry (a gap of about 1.3e-9, with rows and
#: columns inside the slack), ``COLS`` column 1 and ``COLS2`` column 2
#: (1 + 1.8e-9, with rows and symmetry inside the slack).
HALF = (0.5, 0.5, 0.5, 0.5)
ROWS = (0.6, 0.6, 0.4, 0.4)
BOX = (1.5, -0.5, -0.5, 1.5)
ASYM = (0.1, 0.9 + 0.95e-9, 0.9 + 0.5e-9, 0.1 - 0.5e-9 - 0.95e-9)
COLS = (0.5 + 0.9e-9, 0.5, 0.5 + 0.9e-9, 0.5)
COLS2 = (0.5, 0.5 + 0.9e-9, 0.5, 0.5 + 0.9e-9)

#: The checks of ``validate`` in the order it makes them.
CHECKS = ("weights", "interval", "rows", "phase", "symmetry", "columns")

#: Models that fail one check, or two at once, with the checks, the error
#: and the exact message the first of them gives.
REFUSAL_ORDER = [
    ((0.6, 0.6, *HALF, 0.0), ("weights",),
     PreconditionError, "q1 + q2 = 1.2, expected 1"),
    ((0.5, 0.5, *BOX, 0.0), ("interval",),
     PreconditionError, "probabilities must lie in [0, 1]"),
    ((0.5, 0.5, *ROWS, 0.0), ("rows",),
     PreconditionError, "row 1 sums to 1.2, expected 1"),
    ((0.5, 0.5, *HALF, 301.0), ("phase",),
     PhaseRangeError, "|theta| = 301.0 exceeds THETA_MAX = 300.0"),
    ((0.5, 0.5, *ASYM, 0.0), ("symmetry",),
     ConstraintViolatedError,
     "p11*p21 - p12*p22 = 1.2600000071083528e-09; the interference terms cannot cancel"),
    ((0.5, 0.5, *COLS, 0.0), ("columns",),
     PreconditionError, "column 1 sums to 1.0000000018, expected 1"),
    ((0.5, 0.5, *COLS2, 0.0), ("columns",),
     PreconditionError, "column 2 sums to 1.0000000018, expected 1"),
    ((0.7, 0.7, *BOX, 0.0), ("weights", "interval"),
     PreconditionError, "q1 + q2 = 1.4, expected 1"),
    ((0.6, 0.6, *ROWS, 0.0), ("weights", "rows"),
     PreconditionError, "q1 + q2 = 1.2, expected 1"),
    ((0.5, 0.5 + 2e-9, *HALF, -301.0), ("weights", "phase"),
     PreconditionError, "q1 + q2 = 1.0000000020000002, expected 1"),
    ((0.6, 0.6, *ASYM, 0.0), ("weights", "symmetry"),
     PreconditionError, "q1 + q2 = 1.2, expected 1"),
    ((0.6, 0.6, *COLS, 0.0), ("weights", "columns"),
     PreconditionError, "q1 + q2 = 1.2, expected 1"),
    ((1.5, -0.5, *ROWS, 0.0), ("interval", "rows"),
     PreconditionError, "probabilities must lie in [0, 1]"),
    ((1.5, -0.5, *HALF, 301.0), ("interval", "phase"),
     PreconditionError, "probabilities must lie in [0, 1]"),
    ((1.5, -0.5, *ASYM, 0.0), ("interval", "symmetry"),
     PreconditionError, "probabilities must lie in [0, 1]"),
    ((1.5, -0.5, *COLS, 0.0), ("interval", "columns"),
     PreconditionError, "probabilities must lie in [0, 1]"),
    ((0.5, 0.5, *ROWS, 301.0), ("rows", "phase"),
     PreconditionError, "row 1 sums to 1.2, expected 1"),
    ((0.5, 0.5, 0.5, 0.6, 0.5, 0.4, 0.0), ("rows", "symmetry"),
     PreconditionError, "row 1 sums to 1.1, expected 1"),
    ((0.5, 0.5, 0.6, 0.6, 0.6, 0.6, 0.0), ("rows", "columns"),
     PreconditionError, "row 1 sums to 1.2, expected 1"),
    ((0.5, 0.5, 0.5, 0.5, 0.6, 0.6, 0.0), ("rows", "columns"),
     PreconditionError, "row 2 sums to 1.2, expected 1"),
    ((0.5, 0.5, *ASYM, -301.0), ("phase", "symmetry"),
     PhaseRangeError, "|theta| = 301.0 exceeds THETA_MAX = 300.0"),
    ((0.5, 0.5, *COLS, 301.0), ("phase", "columns"),
     PhaseRangeError, "|theta| = 301.0 exceeds THETA_MAX = 300.0"),
    ((0.5, 0.5, *COLS2, 301.0), ("phase", "columns"),
     PhaseRangeError, "|theta| = 301.0 exceeds THETA_MAX = 300.0"),
    ((0.5, 0.5, 0.3, 0.7, 0.2, 0.8, 0.0), ("symmetry", "columns"),
     ConstraintViolatedError,
     "p11*p21 - p12*p22 = -0.49999999999999994; the interference terms cannot cancel"),
]


def failing_checks(q1, q2, p11, p12, p21, p22, theta):
    """The checks of ``validate`` that the model fails, in order, each
    written out from its rule."""

    def unit(*totals):
        return all(abs(t - 1.0) <= EPS_ALG for t in totals)

    entries = (q1, q2, p11, p12, p21, p22)
    fails = (
        not unit(q1 + q2),
        not all(-EPS_ALG <= p <= 1.0 + EPS_ALG for p in entries),
        not unit(p11 + p12, p21 + p22),
        not abs(theta) <= THETA_MAX,
        abs(p11 * p21 - p12 * p22) > EPS_ALG,
        not unit(p11 + p21, p12 + p22),
    )
    return tuple(check for check, fail in zip(CHECKS, fails) if fail)


class TestProbabilityModel:
    def test_validate_accepts_balanced(self):
        balanced_model(LN2).validate()

    def test_eps1_guard(self):
        with pytest.raises(ValueError):
            balanced_model(0.0, eps1=2)

    def test_eps2_is_forced_opposite(self):
        assert balanced_model(0.0, eps1=1).eps2 == -1
        assert balanced_model(0.0, eps1=-1).eps2 == 1

    @pytest.mark.parametrize("field", ["q1", "q2", "p11", "p12", "p21", "p22", "theta"])
    def test_rejects_non_finite_field(self, field):
        fields = dict(q1=0.5, q2=0.5, p11=0.5, p12=0.5, p21=0.5, p22=0.5, theta=0.0)
        fields[field] = math.nan
        with pytest.raises(ValueError, match=f"{field} must be finite"):
            ProbabilityModel(**fields, eps1=1)

    def test_validate_rejects_bad_weights(self):
        m = ProbabilityModel(0.7, 0.7, 0.5, 0.5, 0.5, 0.5, 0.0, 1)
        with pytest.raises(PreconditionError):
            m.validate()

    def test_validate_rejects_entry_outside_unit_interval(self):
        m = ProbabilityModel(1.5, -0.5, 0.5, 0.5, 0.5, 0.5, 0.0, 1)
        with pytest.raises(PreconditionError, match=r"must lie in \[0, 1\]"):
            m.validate()

    def test_json_round_trip(self):
        m = balanced_model(LN2)
        assert ProbabilityModel.from_json_dict(m.to_json_dict()) == m

    def test_from_json_rejects_malformed(self):
        good = balanced_model(LN2).to_json_dict()
        # q, P and theta are JSON numbers (a bool is not one, nor an integer
        # too large for a double), eps1 an integer; a key that is missing or
        # of another shape is named, its value is not echoed
        without = {key: value for key, value in good.items() if key != "theta"}
        for bad, message in (
            ({"q": [0.5], "P": [], "theta": 0}, f'{MODEL}, got dict with "q": list'),
            ({**good, "q": ["0.5", 0.5]}, f"{MODEL_ENTRIES}, got str"),
            ({**good, "q": [None, 0.5]}, f"{MODEL_ENTRIES}, got NoneType"),
            ({**good, "q": [True, False]}, f"{MODEL_ENTRIES}, got bool"),
            ({**good, "q": {0.5, 0.25}}, f'{MODEL}, got dict with "q": set'),
            ({**good, "q": [0.5, 0.25, 0.25]}, f'{MODEL}, got dict with "q": list'),
            ({**good, "P": [[0.5, 0.5], [0.5, None]]}, f"{MODEL_ENTRIES}, got NoneType"),
            ({**good, "P": [[0.5, 0.5], [0.5, "0.5"]]}, f"{MODEL_ENTRIES}, got str"),
            ({**good, "P": [[0.5, 0.5]]}, f'{MODEL}, got dict with "P": list'),
            ({**good, "P": [[0.5, 0.5], 0.5]}, f'{MODEL}, got dict with "P": list'),
            ({**good, "P": None}, f'{MODEL}, got dict with "P": NoneType'),
            ({**good, "theta": "0"}, f"{MODEL_ENTRIES}, got str"),
            (without, f'{MODEL}, got dict without "theta"'),
            ({"P": good["P"]}, f'{MODEL}, got dict without "q"'),
            ({**good, "eps1": True}, f'{MODEL}, got dict with "eps1": bool'),
            ({**good, "eps1": 1.0}, f'{MODEL}, got dict with "eps1": 1.0'),
            ({**good, "eps1": "1"}, f'{MODEL}, got dict with "eps1": str'),
            ({**good, "theta": 10**400}, f"{MODEL_ENTRIES}, got {HUGE}"),
            ({**good, "q": [0.5, -(10**400)]}, f"{MODEL_ENTRIES}, got {HUGE}"),
        ):
            with pytest.raises(ValueError) as info:
                ProbabilityModel.from_json_dict(bad)
            assert str(info.value) == message
            assert len(message) < 200

    @pytest.mark.parametrize("fields,checks,error,message", REFUSAL_ORDER)
    def test_the_first_failing_check_refuses(self, fields, checks, error, message):
        assert failing_checks(*fields) == checks
        with pytest.raises(PreconditionError) as info:
            ProbabilityModel(*fields, 1).validate()
        assert type(info.value) is error
        assert str(info.value) == message

    def test_from_json_rejects_non_object(self):
        for bad, kind in (([0.5, 0.5], "list"), ({0.5}, "set"), ("q", "str"), (None, "NoneType")):
            with pytest.raises(ValueError) as info:
                ProbabilityModel.from_json_dict(bad)
            assert str(info.value) == f"{MODEL}, got {kind}"


class TestTransformProbabilities:
    def test_zero_phase_is_extremal(self):
        p = transform_probabilities(balanced_model(0.0))
        assert p.p1 == pytest.approx(1.0, abs=1e-12)
        assert p.p2 == pytest.approx(0.0, abs=1e-12)
        assert p.in_range

    def test_hyperbolic_phase_leaves_range(self):
        p = transform_probabilities(balanced_model(LN2))
        assert p.p1 == pytest.approx(1.125, abs=1e-12)
        assert p.p2 == pytest.approx(-0.125, abs=1e-12)
        assert not p.in_range

    def test_zero_phase_collapses_to_perfect_squares(self):
        rng = random.Random(7)
        for _ in range(200):
            q1 = rng.uniform(0.05, 0.95)
            p = rng.uniform(0.05, 0.95)
            m = ProbabilityModel(q1, 1 - q1, p, 1 - p, 1 - p, p, 0.0, 1)
            got = transform_probabilities(m)
            want1 = (math.sqrt(q1 * p) + math.sqrt((1 - q1) * (1 - p))) ** 2
            want2 = (math.sqrt(q1 * (1 - p)) - math.sqrt((1 - q1) * p)) ** 2
            assert got.p1 == pytest.approx(want1, abs=1e-12)
            assert got.p2 == pytest.approx(want2, abs=1e-12)

    def test_eps1_moves_the_boost(self):
        up = transform_probabilities(balanced_model(1.0, eps1=1))
        down = transform_probabilities(balanced_model(1.0, eps1=-1))
        assert up.p1 == pytest.approx(down.p2, abs=1e-12)
        assert up.p2 == pytest.approx(down.p1, abs=1e-12)

    def test_asymmetric_matrix_is_rejected(self):
        m = ProbabilityModel(0.5, 0.5, 0.3, 0.7, 0.2, 0.8, 0.0, 1)
        with pytest.raises(ConstraintViolatedError):
            transform_probabilities(m)

    def test_bad_rows_are_a_precondition_failure(self):
        m = ProbabilityModel(0.5, 0.5, 0.3, 0.5, 0.5, 0.3, 0.0, 1)
        with pytest.raises(PreconditionError):
            transform_probabilities(m)

    def test_phase_range_guard(self):
        with pytest.raises(PhaseRangeError):
            transform_probabilities(balanced_model(301.0))

    @pytest.mark.parametrize(
        "q1,q2",
        [(-0.0, 1.0), (1.0, -0.0), (-1e-10, 1.0 + 1e-10), (1.0 + 1e-10, -1e-10)],
    )
    def test_weights_are_clamped_as_max_clamps(self, q1, q2):
        # a weight a hair below 0 is clamped to 0.0, with max's bits
        for matrix in (HALF, (1.0, -0.0, -0.0, 1.0), (1e-10 + 1.0, -1e-10, -1e-10, 1.0)):
            m = ProbabilityModel(q1, q2, *matrix, 0.5, 1)
            w11, w21 = max(m.q1 * m.p11, 0.0), max(m.q2 * m.p21, 0.0)
            w12, w22 = max(m.q1 * m.p12, 0.0), max(m.q2 * m.p22, 0.0)
            want = (hyp_law(w11, w21, 0.5, 1), hyp_law(w12, w22, 0.5, -1))
            assert repr(tuple(transform_probabilities(m))) == repr(want)

    def test_the_pair_is_a_transformed_probabilities(self):
        p = transform_probabilities(balanced_model(LN2))
        assert type(p) is TransformedProbabilities
        assert p == (p.p1, p.p2) and not p.in_range

    def test_the_closed_form_route_calls(self):
        # every rule stays one call; a helper hop that comes back fails here
        def route(beta, basis):
            return transform_probabilities(extract_model(beta, basis))

        assert python_calls(route, witness_state(), OFFSET) == [
            "route",
            "extract_model",
            "_column_terms",
            "_polar_or_absent",
            *["norm_sq"] * 2,
            "_polar_or_absent",
            *["norm_sq"] * 4,
            "_sign_phase",
            "__init__",
            "transform_probabilities",
            "validate",
            "_is_unit_sum",
            "_in_unit_interval",
            "hyp_law",
            "hyp_law",
        ]

    def test_columns_are_checked_at_the_tolerance_edge(self):
        # rows sum to 1 + 9e-10 and the symmetry gap is 9e-10, both within
        # EPS_ALG; column 1 sums to 1 + 1.8e-9
        a, b = 0.5 + 0.9e-9, 0.5
        m = ProbabilityModel(0.5, 0.5, a, b, a, b, 0.0, 1)
        with pytest.raises(PreconditionError, match="column 1"):
            transform_probabilities(m)


def reference_polar(z: SplitComplex) -> tuple | None:
    """``_polar_or_absent``'s entry for one amplitude, through ``_polar``."""
    q = z.norm_sq()
    if abs(q) <= EPS_MEM:
        return None
    return (*_polar(z.x, z.y, q), q)


def first_float_above(y: float, bound: float) -> float:
    """The least ``x >= y`` whose squared norm with j component ``y`` is
    above ``bound``, stepping by one ulp from ``sqrt(bound + y*y)``."""
    x = math.sqrt(bound + y * y)
    while SplitComplex(x, y).norm_sq() > bound:
        x = math.nextafter(x, 0.0)
    while not SplitComplex(x, y).norm_sq() > bound:
        x = math.nextafter(x, math.inf)
    return x


def polar_grid() -> list[SplitComplex]:
    """Amplitudes on the light cone and 1 ulp off it, at the negligible
    bound and 1 ulp either side, inside the cone, overflowing, and random
    ones with |theta| <= 20."""
    grid = []
    for x in (1.0, 1e4, 1e150, -1e4, -1.0):
        for y in (x, -x):
            for near in (y, math.nextafter(y, math.inf), math.nextafter(y, -math.inf)):
                grid += [SplitComplex(x, near), SplitComplex(near, x)]
    for y in (0.0, 0.5):
        edge = first_float_above(y, EPS_MEM)
        for x in (edge, math.nextafter(edge, 0.0), math.nextafter(edge, math.inf)):
            grid += [SplitComplex(x, y), SplitComplex(-x, y), SplitComplex(y, x)]
    grid += [
        SplitComplex(0.5, 2.0),
        SplitComplex(0.0, 1e-6),
        SplitComplex(0.0, 2e-6),
        SplitComplex(1e200, 0.0),
        SplitComplex(0.0, 1e200),
        SplitComplex(-1e200, 1e199),
        ZERO,
        SplitComplex(-0.0, 0.0),
    ]
    rng = random.Random(37)
    for _ in range(2000):
        sign, q, xi = rng.choice((1, -1)), rng.uniform(0.0, 2.0), rng.uniform(-20, 20)
        grid.append(amplitude(sign, q, xi))
        grid.append(SplitComplex(rng.uniform(-3, 3), rng.uniform(-3, 3)))
    return grid


POLAR_GRID = polar_grid()


class TestPolarOrAbsent:
    """``_polar_or_absent`` repeats ``_polar``'s arithmetic inline: it gives
    the kernel's bits at every point of the grid, and its refusals."""

    def test_entries_are_polar_bits(self):
        got = [outcome(_polar_or_absent, z) for z in POLAR_GRID]
        assert got == [outcome(lambda z: [reference_polar(z)], z) for z in POLAR_GRID]

    def test_the_grid_reaches_every_outcome(self):
        found = [outcome(reference_polar, z) for z in POLAR_GRID]
        forms = {o for o in found if isinstance(o, str)}
        assert "None" in forms and len(forms) > 1000
        assert {o[0] for o in found if isinstance(o, tuple)} == {
            DegenerateNormError,
            PreconditionError,
        }

    def test_the_first_amplitude_without_a_polar_form_refuses(self):
        good, absent = amplitude(1, 0.5, 1.0), ZERO
        inside, overflow = SplitComplex(0.5, 2.0), SplitComplex(1e200, 0.0)
        for zs in (
            (good, absent, inside, overflow),
            (absent, overflow, inside),
            (good, good, absent),
        ):
            want = outcome(lambda: [reference_polar(z) for z in zs])
            assert outcome(_polar_or_absent, *zs) == want


class TestSignPhaseConstraints:
    def test_identity_basis_is_vacuous(self):
        report = check_sign_phase_constraints(Mat2.identity(), witness_state())
        assert report.vacuous
        assert report.satisfied
        assert report.residual == 0.0

    def test_zero_coefficient_is_vacuous(self):
        report = check_sign_phase_constraints(hadamard_like(), Vec2(ONE, ZERO))
        assert report.vacuous and report.satisfied

    def test_vacuous_reports_are_one_empty_report(self):
        # a negligible state coefficient, and a full state whose columns both
        # have a negligible entry: eta is None in both, not the state's phase
        fields = dict.fromkeys(SignPhaseReport.__slots__)
        fields.update(residual=0.0, vacuous=True, satisfied=True)
        empty = SignPhaseReport(**fields)
        for basis, beta in [
            (hadamard_like(), Vec2(ONE, ZERO)),
            (Mat2(ONE, ZERO, ZERO, ONE), witness_state()),
        ]:
            report = check_sign_phase_constraints(basis, beta)
            assert report == empty
            assert repr(report) == repr(empty)

    def test_generator_satisfies_constraints(self):
        rng = random.Random(11)
        for _ in range(100):
            params = UnitaryParams(
                rng.uniform(0.05, 0.95),
                rng.uniform(-3, 3),
                rng.uniform(-3, 3),
                rng.uniform(-3, 3),
            )
            q1 = rng.uniform(0.05, 0.95)
            beta = Vec2(
                amplitude(rng.choice([1, -1]), q1, rng.uniform(-3, 3)),
                amplitude(rng.choice([1, -1]), 1 - q1, rng.uniform(-3, 3)),
            )
            report = check_sign_phase_constraints(make_decomposable_unitary(params), beta)
            assert not report.vacuous
            assert abs(report.theta_diff) <= 1e-9
            assert report.opposite_signs
            assert report.satisfied

    def test_perturbed_matrix_reports_the_offset(self):
        skewed = Mat2(OFFSET.a11, OFFSET.a12 * expj(0.1), OFFSET.a21, OFFSET.a22)
        report = check_sign_phase_constraints(skewed, witness_state())
        assert abs(report.theta_diff) == pytest.approx(0.1, abs=1e-9)
        assert not report.satisfied

    def test_negative_norm_amplitude_raises(self):
        bad = Mat2(ONE, ZERO, ZERO, SplitComplex(0.5, 2.0))
        with pytest.raises(DegenerateNormError):
            check_sign_phase_constraints(bad, witness_state())

    def test_overflowing_residual_is_a_precondition_error(self):
        # each term's weight is 1e308, times cosh(6): finite entries, an
        # infinite residual that the report's real field would refuse
        big = Mat2(*[SplitComplex(1e154, 0.0)] * 4)
        beta = Vec2(amplitude(1, 0.5, 3.0), amplitude(1, 0.5, -3.0))
        with pytest.raises(PreconditionError, match="residual overflows: inf"):
            check_sign_phase_constraints(big, beta)

    def test_overflowing_terms_that_cancel_give_the_exact_residual(self):
        # both terms are 1e300 * cosh(24), about 2.6e310, of opposite signs:
        # their sum overflows to NaN, their exact difference is 0
        big = Mat2(
            amplitude(1, 1e300, 12),
            amplitude(1, 1e300, 12),
            amplitude(1, 1e300, 0),
            amplitude(-1, 1e300, 0),
        )
        beta = Vec2(amplitude(1, 0.5, 12), amplitude(1, 0.5, 0))
        report = check_sign_phase_constraints(big, beta)
        assert report.residual == 0.0
        assert report.satisfied


class TestExtractAndPipeline:
    def test_pipeline_identity(self):
        d = pipeline_probabilities(Vec2(ONE, ZERO), Mat2.identity())
        assert d.decomposable and d.probabilities == (1.0, 0.0)

    def test_pipeline_refuses_a_state_off_the_unit_sum(self):
        # the basis change's rounded output sums to 1.0, so only the rule
        # applied to the state given refuses it, as the closed form does
        beta = Vec2(
            SplitComplex(-988267.5644871382, 988267.5644870356),
            SplitComplex(-2523352.088595902, -2523352.0885957438),
        )
        basis = Mat2(
            SplitComplex(0.9660781720370845, -0.07093080768023097),
            SplitComplex(0.28082470758251155, 0.08448888327554056),
            SplitComplex(0.3428476333811999, 0.2140568959959815),
            SplitComplex(-1.6285240123258222, -1.312941203448749),
        )
        assert sum(change_basis(beta, basis).norms_sq()) == 1.0
        message = "^squared norms sum to 1.0017358150341182, expected 1$"
        with pytest.raises(NotNormalizedError, match=message):
            pipeline_probabilities(beta, basis)

    def test_closed_form_and_extraction_track_pipeline(self):
        rng = random.Random(3)
        for _ in range(100):
            q1 = rng.uniform(0.05, 0.95)
            xi1 = rng.uniform(-3, 3)
            sign2 = rng.choice([1, -1])
            xi2 = rng.uniform(-3, 3)
            beta = Vec2(amplitude(1, q1, xi1), amplitude(sign2, 1 - q1, xi2))
            p = rng.uniform(0.05, 0.95)
            gamma1, gamma2, delta = (rng.uniform(-3, 3) for _ in range(3))
            basis = make_decomposable_unitary(
                UnitaryParams(p, gamma1, gamma2, delta)
            )
            known = ProbabilityModel(
                q1, 1 - q1, p, 1 - p, 1 - p, p,
                theta=(xi1 - xi2) + delta, eps1=sign2,
            )
            alpha = change_basis(beta, basis)
            closed = transform_probabilities(known)
            assert closed.p1 == pytest.approx(alpha.c1.norm_sq(), abs=1e-9)
            assert closed.p2 == pytest.approx(alpha.c2.norm_sq(), abs=1e-9)
            assert closed.p1 + closed.p2 == pytest.approx(1.0, abs=1e-9)

            fitted = extract_model(beta, basis)
            fitted.validate()
            assert fitted.eps1 == known.eps1
            assert fitted.q1 == pytest.approx(q1, rel=1e-12)
            assert fitted.p11 == pytest.approx(p, rel=1e-12)
            # a22 carries phase gamma2 - delta, up to 6; its stored floats
            # pin the norm only to about cosh(6)**2 * ulp relative
            assert fitted.p22 == pytest.approx(p, rel=1e-10)
            assert fitted.theta == pytest.approx(known.theta, abs=1e-10)
            refit = transform_probabilities(fitted)
            # the stored pair pins theta only to O(sinh(2*gamma) * ulp), and
            # the cross term amplifies the defect by cosh(theta)
            tol = 1e-9 + 1e-11 * math.cosh(fitted.theta)
            assert refit.p1 == pytest.approx(alpha.c1.norm_sq(), abs=tol)
            assert refit.p2 == pytest.approx(alpha.c2.norm_sq(), abs=tol)

    @given(states, unitaries)
    def test_extracted_norms_are_the_public_norms(self, beta, basis):
        fitted = extract_model(beta, basis)
        assert fitted == ProbabilityModel(
            beta.c1.norm_sq(),
            beta.c2.norm_sq(),
            basis.a11.norm_sq(),
            basis.a12.norm_sq(),
            basis.a21.norm_sq(),
            basis.a22.norm_sq(),
            theta=fitted.theta,
            eps1=fitted.eps1,
        )

    def test_zero_phases_match_theta_zero_model(self):
        beta = Vec2(amplitude(1, 0.3, 0.0), amplitude(1, 0.7, 0.0))
        basis = make_decomposable_unitary(UnitaryParams(0.6, 0.0, 0.0, 0.0))
        model = extract_model(beta, basis)
        assert model.theta == pytest.approx(0.0, abs=1e-12)
        closed = transform_probabilities(model)
        d = pipeline_probabilities(beta, basis)
        assert d.decomposable
        assert closed.p1 == pytest.approx(d.probabilities[0], abs=1e-9)

    @pytest.mark.parametrize(
        "beta,basis,error,match",
        [
            pytest.param(
                witness_state(),
                Mat2(ONE, ZERO, ZERO, SplitComplex(0.5, 2.0)),
                DegenerateNormError,
                "negative squared norm",
                id="jdominant-entry",
            ),
            pytest.param(
                Vec2(ONE, ZERO),
                hadamard_like(),
                PreconditionError,
                "both interference terms",
                id="zero-coefficient",
            ),
            pytest.param(
                # squared norm 1e400 overflows to inf
                Vec2(SplitComplex(1e200, 0.0), ONE),
                hadamard_like(),
                PreconditionError,
                "squared norm .* is not finite",
                id="norm-overflow",
            ),
            pytest.param(
                witness_state(),
                Mat2.identity(),
                PreconditionError,
                "both interference terms",
                id="identity",
            ),
            pytest.param(
                Vec2(ONE, ZERO),
                Mat2.identity(),
                PreconditionError,
                "both interference terms",
                id="vacuous",
            ),
            pytest.param(
                witness_state(),
                Mat2(OFFSET.a11, OFFSET.a12 * expj(0.1), OFFSET.a21, OFFSET.a22),
                PreconditionError,
                "columns disagree",
                id="skewed-column",
            ),
            pytest.param(
                witness_state(),
                # make_decomposable_unitary negates a22; undo it
                Mat2(OFFSET.a11, OFFSET.a12, OFFSET.a21, -OFFSET.a22),
                PreconditionError,
                "term signs are equal",
                id="equal-signs",
            ),
        ],
    )
    def test_extract_rejects(self, beta, basis, error, match):
        with pytest.raises(error, match=match):
            extract_model(beta, basis)

    @given(states, unitaries)
    def test_extract_matches_the_report(self, beta, basis):
        report = check_sign_phase_constraints(basis, beta)
        q1, q2 = beta.norms_sq()
        (p11, p12), (p21, p22) = prob_matrix(basis)
        assembled = ProbabilityModel(
            q1, q2, p11, p12, p21, p22, theta=report.theta1, eps1=report.eps1
        )
        assert extract_model(beta, basis) == assembled

    def test_pipeline_flags_the_witness_instance(self):
        d = pipeline_probabilities(witness_state(), hadamard_like())
        assert not d.decomposable


# -- pinned outputs ---------------------------------------------------------------


def born_pair(rng, kind):
    """A (state, matrix) pair of one kind, from plain-float amplitudes.

    valid         a decomposable state and a decomposable unitary, both
                  drawn as the witness search draws them;
    nonunitary    the same with row 2 scaled off the unit hyperbola;
    unnormalised  the same with the state scaled;
    jdominant     a unitary whose column-1 entries have squared norm -t.
    """

    def amp(sign, q, xi):
        r = sign * math.sqrt(q)
        return SplitComplex(r * math.cosh(xi), r * math.sinh(xi))

    q1, p = rng.random(), rng.random()
    xi1, xi2, g1, g2, d = (rng.uniform(-3.0, 3.0) for _ in range(5))
    beta = Vec2(amp(1, q1, xi1), amp(1, 1.0 - q1, xi2))
    if kind == "jdominant":
        t = rng.uniform(0.05, 0.5)
        r = math.sqrt(t)
        a = SplitComplex(r * math.sinh(g1 / 3.0), r * math.cosh(g1 / 3.0))
        b = amp(1, 1.0 + t, g2 / 3.0)
        u = amp(1, 1.0, d / 3.0)
        return beta, Mat2(a, b, b.conj() * u, -(a.conj() * u))
    row1 = amp(1, p, g1), amp(1, 1.0 - p, g2)
    row2 = amp(1, 1.0 - p, g1 - d), amp(-1, p, g2 - d)
    if kind == "nonunitary":
        f = rng.uniform(1.05, 1.5)
        row2 = row2[0] * f, row2[1] * f
    elif kind == "unnormalised":
        beta = beta * rng.uniform(1.05, 1.5)
    return beta, Mat2(*row1, *row2)


#: Pairs that reach the early exits and the read order of the polar forms:
#: a negligible state coefficient ahead of degenerate entries, a negligible
#: entry ahead of a degenerate one, and two degenerate entries.
EDGE_PAIRS = [
    (Vec2(ONE, ZERO), Mat2.identity()),
    (Vec2(ONE, ZERO), Mat2(ONE, SplitComplex(0.0, 1.0), ONE, ONE)),
    (Vec2(SplitComplex(0.5, 1.0), SplitComplex(0.0, 1.0)), hadamard_like()),
    (witness_state(), Mat2(ZERO, ONE, SplitComplex(0.0, 1.0), ONE)),
    (witness_state(), Mat2(ONE, SplitComplex(0.0, 2.0), SplitComplex(0.0, 1.0), ONE)),
    (witness_state(), Mat2.identity()),
    (Vec2(SplitComplex(1e200, 0.0), ONE), hadamard_like()),
]


def born_outputs(beta, basis):
    """Every output of the born pipeline on one pair, as ``outcome`` gives it."""

    def decomposition():
        d = decompose(change_basis(beta, basis))
        return d, d.phases

    def transformed():
        t = transform_probabilities(extract_model(beta, basis))
        return t, t.in_range

    p = prob_matrix(basis)
    return (
        outcome(orthonormality_residual, basis),
        repr(p),
        outcome(doubly_stochastic_residual, p),
        outcome(decomposition),
        outcome(check_sign_phase_constraints, basis, beta),
        outcome(extract_model, beta, basis),
        outcome(transformed),
    )


#: sha256 of the outputs below, computed before the born kernels were batched.
BORN_DIGEST = "211b9723be079c74e058582c0594f131c06d771081f558c01de2c07575e89f61"


def test_born_outputs_are_pinned():
    rng = random.Random(2001)
    kinds = ["valid"] * 17 + ["nonunitary", "unnormalised", "jdominant"]
    pairs = [born_pair(rng, kinds[i % 20]) for i in range(2000)] + EDGE_PAIRS
    docs = [born_outputs(beta, basis) for beta, basis in pairs]
    assert hashlib.sha256(repr(docs).encode()).hexdigest() == BORN_DIGEST
