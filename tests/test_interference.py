"""Interference laws, linearization identities, and the regime classifier."""

import importlib.util
import math
import pickle
import sys
from decimal import Decimal, localcontext
from pathlib import Path

import pytest
from hypothesis import example, given
from hypothesis import strategies as st

from hyperq.algebra import _law, check_phase, check_probability, check_sign
from hyperq.errors import DegenerateInputsError, PhaseRangeError, PreconditionError
from hyperq.interference import (
    BOUNDARY,
    HYP,
    TRIG,
    InterferenceVerdict,
    classify,
    hyp_law,
    hyp_linearization_residual,
    trig_law,
    trig_linearization_residual,
)


def _load_oracle():
    """``perfbench/accuracy.py``: the benchmark's 60-digit ``decimal`` reference."""
    perfbench = Path(__file__).resolve().parents[1] / "perfbench"
    # accuracy.py imports its sibling workloads.py
    sys.path.insert(0, str(perfbench))
    try:
        spec = importlib.util.spec_from_file_location(
            "perfbench_accuracy", perfbench / "accuracy.py"
        )
        module = importlib.util.module_from_spec(spec)
        spec.loader.exec_module(module)
    finally:
        sys.path.remove(str(perfbench))
    return module


oracle = _load_oracle()

#: unit roundoff of a double
U = 2.0**-53


def assert_law_within_8u(got, p1, p2, theta, sign, hyperbolic):
    """``|got - exact| <= 8u * S`` for the law ``p1 + p2 + sign*2*sqrt(p1*p2)*c``.

    ``S = (sqrt(p1) - sqrt(p2))**2 + 2*sqrt(p1*p2)*|1 + sign*c|`` is the sum
    of the magnitudes of the terms of the law's cancellation-free form; it
    equals ``|exact|`` except on the hyperbolic minus branch.  The oracle
    itself rounds to ``DIGITS`` digits of the raw terms ``p1 + p2 +
    2*sqrt(p1*p2)*|c|``, so ``10**(10 - DIGITS)`` of them is allowed on top;
    that slack only shows where ``S`` is 0, as for ``p1 == p2`` at
    ``theta = 0`` on the minus branch.
    """
    exact = oracle.exact_law(p1, p2, theta, sign, hyperbolic)
    with localcontext() as ctx:
        ctx.prec = oracle.DIGITS
        a, b = Decimal(p1), Decimal(p2)
        d = a.sqrt() - b.sqrt()
        c = oracle.cos_cosh(theta, hyperbolic)
        cross = 2 * (a * b).sqrt()
        terms = d * d + cross * abs(1 + sign * c)
        slack = Decimal(10) ** (10 - oracle.DIGITS) * (a + b + cross * abs(c))
        err = abs(Decimal(got) - exact)
        assert err <= 8 * Decimal(U) * terms + slack, (got, exact)


weights = st.floats(min_value=0.0, max_value=10.0)
positive_weights = st.floats(min_value=0.05, max_value=1.0)
law_phases = st.floats(min_value=-5.0, max_value=5.0, allow_nan=False)
signs = st.sampled_from([1, -1])


class TestLaws:
    def test_trig_examples(self):
        assert trig_law(0.5, 0.5, math.pi) == pytest.approx(0.0, abs=1e-12)
        assert trig_law(0.5, 0.5, math.pi / 2) == pytest.approx(1.0, abs=1e-12)
        assert trig_law(0.5, 0.5, 2 * math.pi / 3) == pytest.approx(0.5, abs=1e-12)

    def test_hyp_examples(self):
        assert hyp_law(0.25, 0.25, 0.0, 1) == 1.0
        assert hyp_law(0.25, 0.25, math.acosh(1.5), 1) == pytest.approx(1.25, abs=1e-12)
        assert hyp_law(0.25, 0.25, math.log(2), -1) == pytest.approx(-0.125, abs=1e-12)

    def test_input_validation(self):
        with pytest.raises(ValueError):
            trig_law(-0.1, 0.5, 0.0)
        with pytest.raises(ValueError):
            hyp_law(0.5, 0.5, 0.0, 0)
        with pytest.raises(PhaseRangeError):
            hyp_law(0.5, 0.5, 301.0, 1)
        with pytest.raises(ValueError):
            hyp_law(0.25, 0.25, math.nan, 1)
        with pytest.raises(ValueError):
            trig_law(0.25, 0.25, math.nan)

    def test_overflow_is_refused(self):
        # the value, or 4*sqrt(p1)*sqrt(p2) inside it, overflows a double
        with pytest.raises(PreconditionError):
            hyp_law(1e308, 1e308, 0.0, 1)
        with pytest.raises(PreconditionError):
            hyp_law(1e308, 1e308, 0.0, -1)
        with pytest.raises(PreconditionError):
            trig_law(1e308, 1e308, 0.0)

    @given(weights, weights, law_phases)
    def test_plus_branch_dominates_perfect_square(self, a, b, theta):
        floor = (math.sqrt(a) + math.sqrt(b)) ** 2
        assert hyp_law(a, b, theta, 1) >= floor - 1e-9


# Ranges where no intermediate result underflows, so a relative bound holds;
# subnormal inputs are covered by the command-line tests.
oracle_weights = st.just(0.0) | st.floats(min_value=1e-30, max_value=1e30)
nudges = st.floats(min_value=-1e-6, max_value=1e-6)
oracle_pairs = st.tuples(oracle_weights, oracle_weights) | st.tuples(
    oracle_weights, nudges
).map(lambda an: (an[0], an[0] * (1.0 + an[1])))
oracle_phases = (
    st.just(0.0)
    | st.floats(min_value=1e-12, max_value=20.0)
    | st.floats(min_value=1e-12, max_value=20.0).map(lambda t: -t)
)
near_pi = nudges.map(lambda e: math.pi + e)


class TestLawsAgainstTheOracle:
    @given(oracle_pairs, oracle_phases, signs)
    def test_hyp_law(self, pair, theta, sign):
        p1, p2 = pair
        assert_law_within_8u(hyp_law(p1, p2, theta, sign), p1, p2, theta, sign, True)

    @given(oracle_pairs, oracle_phases | near_pi)
    def test_trig_law(self, pair, theta):
        p1, p2 = pair
        assert_law_within_8u(trig_law(p1, p2, theta), p1, p2, theta, 1, False)

    @pytest.mark.parametrize("theta", [1e-2, 1e-4, 1e-6, 1e-8])
    def test_hyp_minus_branch_near_zero_phase(self, theta):
        value = hyp_law(0.25, 0.25, theta, -1)
        assert_law_within_8u(value, 0.25, 0.25, theta, -1, True)
        # the sign decides decomposability
        assert value < 0.0

    def test_trig_law_near_pi(self):
        value = trig_law(0.5, 0.5, 3.14159265)
        assert_law_within_8u(value, 0.5, 0.5, 3.14159265, 1, False)
        assert value > 0.0


class TestLinearizationIdentities:
    def test_trig_examples(self):
        assert trig_linearization_residual(1.0, 1.0, math.pi / 3) <= 1e-12
        assert trig_linearization_residual(0.3, 0.7, 2.1) <= 1e-9
        # A = 0 degenerates both sides to B, up to cos**2 + sin**2 rounding
        assert trig_linearization_residual(0.0, 5.0, 1.0) <= 1e-12

    def test_hyp_examples(self):
        assert hyp_linearization_residual(1.0, 1.0, 0.0, -1) == 0.0
        assert hyp_linearization_residual(0.25, 0.25, math.log(2), 1) <= 1e-9
        assert hyp_linearization_residual(0.5, 0.5, 3.0, -1) <= 1e-9

    def test_hyp_sides_agree_on_the_example_value(self):
        left = hyp_law(0.25, 0.25, math.log(2), 1)
        assert left == pytest.approx(1.125, abs=1e-12)

    @given(weights, weights, law_phases)
    def test_trig_residual_everywhere(self, a, b, theta):
        assert trig_linearization_residual(a, b, theta) <= 1e-9

    @given(weights, weights, law_phases, signs)
    def test_hyp_residual_everywhere(self, a, b, theta, sign):
        assert hyp_linearization_residual(a, b, theta, sign) <= 1e-9

    def test_rejects_negative_inputs(self):
        with pytest.raises(ValueError):
            trig_linearization_residual(-1.0, 1.0, 0.0)
        with pytest.raises(ValueError):
            hyp_linearization_residual(-1.0, 1.0, 0.0, 1)


class TestClassify:
    def test_trig_example(self):
        v = classify(0.5, 0.5, 0.5)
        assert v.regime == TRIG
        assert v.lambda_ == pytest.approx(-0.5, abs=1e-12)
        assert v.theta == pytest.approx(2 * math.pi / 3, abs=1e-9)
        assert v.sign == 1

    def test_hyp_example(self):
        v = classify(1.25, 0.25, 0.25)
        assert v.regime == HYP
        assert v.lambda_ == pytest.approx(1.5, abs=1e-12)
        assert v.theta == pytest.approx(math.acosh(1.5), abs=1e-12)
        assert v.sign == 1

    def test_boundary_example(self):
        v = classify(1.0, 0.25, 0.25)
        assert v.regime == BOUNDARY
        assert v.theta == 0.0
        assert v.lambda_ == pytest.approx(1.0, abs=1e-12)

    def test_negative_boundary(self):
        v = classify(0.0, 0.25, 0.25)
        assert v.regime == BOUNDARY
        assert v.sign == -1

    def test_json_shape(self):
        d = classify(0.5, 0.5, 0.5).to_json_dict()
        assert set(d) == {"regime", "theta", "sign", "lambda"}

    @pytest.mark.parametrize("offset", [0.0, 1e-10, -1e-10])
    def test_degenerate_band(self, offset):
        pprime = trig_law(0.25, 0.25, 0.0) + 2 * 0.25 * offset
        assert classify(pprime, 0.25, 0.25).regime == BOUNDARY

    def test_band_does_not_swallow_clear_regimes(self):
        lam = 1.0 + 1e-6
        assert classify(0.5 + 0.5 * lam, 0.25, 0.25).regime == HYP
        lam = 1.0 - 1e-6
        assert classify(0.5 + 0.5 * lam, 0.25, 0.25).regime == TRIG

    def test_rejects_degenerate_inputs(self):
        with pytest.raises(DegenerateInputsError):
            classify(0.5, 0.0, 0.5)
        with pytest.raises(DegenerateInputsError):
            classify(0.5, 0.5, -0.1)
        with pytest.raises(DegenerateInputsError):
            classify(math.nan, 0.5, 0.5)

    def test_overflowing_product_keeps_the_coefficient(self):
        # an infinite p1*p2, or 2*sqrt(p1*p2), used to give lambda = 0 (trig)
        v = classify(1e308, 1e300, 1e300)
        assert v.regime == HYP
        assert v.lambda_ == pytest.approx((1e308 - 2e300) / 2e300, rel=1e-15)
        v = classify(1e308, 1e308, 1e308)
        assert v.regime == TRIG
        assert v.lambda_ == pytest.approx(-0.5, rel=1e-15)

    def test_rejects_unrepresentable_phase(self):
        with pytest.raises(DegenerateInputsError):
            classify(1e155, 0.25, 0.25)
        # p1*p2 underflows to 0, so this used to divide by zero
        with pytest.raises(DegenerateInputsError):
            classify(1.0, 1e-320, 1e-320)

    @given(
        positive_weights,
        positive_weights,
        st.floats(min_value=0.01, max_value=math.pi - 0.01),
    )
    def test_trig_round_trip(self, p1, p2, theta):
        v = classify(trig_law(p1, p2, theta), p1, p2)
        assert v.regime == TRIG
        assert v.sign == 1
        assert v.theta == pytest.approx(theta, abs=1e-9)

    @given(
        positive_weights,
        positive_weights,
        st.floats(min_value=0.01, max_value=10.0),
        signs,
    )
    def test_hyp_round_trip(self, p1, p2, theta, sign):
        v = classify(hyp_law(p1, p2, theta, sign), p1, p2)
        assert v.regime == HYP
        assert v.sign == sign
        assert v.theta == pytest.approx(theta, abs=1e-8)

    @given(
        st.floats(min_value=-5.0, max_value=5.0, allow_nan=False),
        positive_weights,
        positive_weights,
    )
    def test_regime_dichotomy(self, pprime, p1, p2):
        v = classify(pprime, p1, p2)
        assert v.regime in (TRIG, HYP, BOUNDARY)
        if v.regime == TRIG:
            assert math.cos(v.theta) * v.sign == pytest.approx(v.lambda_, abs=1e-9)
        elif v.regime == HYP:
            assert math.cosh(v.theta) * v.sign == pytest.approx(v.lambda_, abs=1e-9)


NAN, INF = math.nan, math.inf

# (entry point, arguments with two or more of them bad, error, its message):
# the guards run in their order, so the first failing one names the fault
FIRST_ERROR_CASES = [
    (hyp_law, (-1, 0.5, NAN, 0), ValueError, "probability must be nonnegative, got -1"),
    (hyp_law, (0.5, 0.5, NAN, 0), ValueError, "sign must be +1 or -1, got 0"),
    (hyp_law, (NAN, -1.0, 400.0, 2), ValueError, "probability must be nonnegative, got nan"),
    (hyp_law, (0.5, -INF, 400.0, 2), ValueError, "probability must be nonnegative, got -inf"),
    (hyp_law, (0.5, 0.5, INF, 2), ValueError, "sign must be +1 or -1, got 2"),
    (hyp_law, (0.5, 0.5, -301.0, 1.5), ValueError, "sign must be +1 or -1, got 1.5"),
    (
        hyp_law,
        (1e308, 1e308, 301.0, 1),
        PhaseRangeError,
        "|theta| = 301.0 exceeds THETA_MAX = 300.0",
    ),
    (trig_law, (NAN, 0.5, NAN), ValueError, "probability must be nonnegative, got nan"),
    (trig_law, (0.5, -INF, NAN), ValueError, "probability must be nonnegative, got -inf"),
    (trig_law, (-0.5, -0.25, 0.0), ValueError, "probability must be nonnegative, got -0.5"),
    (trig_law, (1e308, 1e308, NAN), ValueError, "phase must not be NaN"),
    (classify, (INF, -1.0, 0.5), DegenerateInputsError, "inputs must be finite"),
    (classify, (0.5, 0.0, NAN), DegenerateInputsError, "inputs must be finite"),
    (classify, (NAN, 0.0, 0.0), DegenerateInputsError, "inputs must be finite"),
    (classify, (-INF, INF, 0.5), DegenerateInputsError, "inputs must be finite"),
    (
        classify,
        (0.5, -0.0, 0.5),
        DegenerateInputsError,
        "reference probabilities must be positive, got -0.0, 0.5",
    ),
    (
        classify,
        (0.5, -1.0, -2.0),
        DegenerateInputsError,
        "reference probabilities must be positive, got -1.0, -2.0",
    ),
    (
        classify,
        (1e155, 0.25, -0.25),
        DegenerateInputsError,
        "reference probabilities must be positive, got 0.25, -0.25",
    ),
]


@pytest.mark.parametrize(
    "entry,args,error,message",
    FIRST_ERROR_CASES,
    ids=[f"{entry.__name__}{args}" for entry, args, _, _ in FIRST_ERROR_CASES],
)
def test_first_failing_guard_wins(entry, args, error, message):
    with pytest.raises(error) as info:
        entry(*args)
    assert type(info.value) is error
    assert str(info.value) == message


@pytest.mark.parametrize(
    "triple,regime",
    [((0.5, 0.5, 0.5), TRIG), ((1.25, 0.25, 0.25), HYP), ((1.0, 0.25, 0.25), BOUNDARY)],
    ids=[TRIG, HYP, BOUNDARY],
)
def test_verdict_is_a_full_named_tuple(triple, regime):
    v = classify(*triple)
    assert type(v) is InterferenceVerdict
    assert v.regime == regime
    assert v == InterferenceVerdict(*v)
    assert repr(v) == repr(InterferenceVerdict(*v))
    regime, theta, sign, lambda_ = v
    assert v._asdict() == dict(regime=regime, theta=theta, sign=sign, lambda_=lambda_)
    assert v.to_json_dict() == {
        "regime": regime, "theta": theta, "sign": sign, "lambda": lambda_
    }
    clone = pickle.loads(pickle.dumps(v))
    assert type(clone) is InterferenceVerdict
    assert clone == v


# floats with every edge of the guards, and signs that pass and fail
edge_floats = st.sampled_from(
    [NAN, INF, -INF, 0.0, -0.0, 5e-324, 1e-320, 0.5, 1e308, -1.0, 300.0, -300.0, 301.0]
) | st.floats()
any_signs = st.sampled_from([1, -1, 0, 2, 1.0, -1.0, True, 1.5, NAN])


def outcome(call, *args):
    """The repr of the result, or the type and message of the error."""
    try:
        return repr(call(*args))
    except Exception as exc:
        return type(exc), str(exc)


def guarded_trig_law(p1, p2, theta):
    check_probability(p1)
    check_probability(p2)
    if math.isnan(theta):
        raise ValueError("phase must not be NaN")
    return _law(p1, p2, theta, 1, True)


def guarded_hyp_law(p1, p2, theta, sign):
    check_probability(p1)
    check_probability(p2)
    check_sign(sign)
    check_phase(theta)
    return _law(p1, p2, theta, sign, False)


class TestInlineGuards:
    """The laws' inline tests agree with calling every guard, in order."""

    @given(edge_floats, edge_floats, edge_floats)
    @example(0.5, 0.5, NAN)
    @example(0.5, -0.5, 0.5)
    def test_trig_law(self, p1, p2, theta):
        assert outcome(trig_law, p1, p2, theta) == outcome(guarded_trig_law, p1, p2, theta)

    @given(edge_floats, edge_floats, edge_floats, any_signs)
    @example(0.5, 0.5, 301.0, 1)
    @example(0.5, 0.5, 0.5, 0)
    @example(0.5, -0.5, 0.5, 1)
    def test_hyp_law(self, p1, p2, theta, sign):
        got = outcome(hyp_law, p1, p2, theta, sign)
        assert got == outcome(guarded_hyp_law, p1, p2, theta, sign)

    @given(edge_floats, edge_floats, edge_floats)
    @example(INF, 0.5, 0.5)
    @example(NAN, 0.5, 0.5)
    @example(0.5, 0.5, -0.5)
    def test_classify(self, pprime, p1, p2):
        got = outcome(classify, pprime, p1, p2)
        if not all(map(math.isfinite, (pprime, p1, p2))):
            assert got == (DegenerateInputsError, "inputs must be finite")
        elif p1 <= 0 or p2 <= 0:
            message = f"reference probabilities must be positive, got {p1!r}, {p2!r}"
            assert got == (DegenerateInputsError, message)
        else:
            assert isinstance(got, str) or "exceeds any admissible phase" in got[1]
