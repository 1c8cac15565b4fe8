"""Interference laws, linearization identities, and the regime classifier."""

import importlib.util
import math
import pickle
import sys
from decimal import Decimal, localcontext
from pathlib import Path

import pytest
from generators import (
    any_sign,
    edge_float,
    floats,
    grid_pair,
    hyp_phase,
    integers,
    law_weight,
    near_pi,
    oracle_pair,
    oracle_phase,
    phase5,
    positive_weight,
    sampled,
    seeded,
    sign,
)
from helpers import outcome, python_calls

from hyperq.algebra import (
    _check_finite,
    check_phase,
    check_probability,
    check_sign,
)
from hyperq.errors import DegenerateInputsError, PhaseRangeError, PreconditionError
from hyperq.interference import (
    BOUNDARY,
    HYP,
    TRIG,
    InterferenceVerdict,
    classify,
    hyp_law,
    hyp_linearization_residual,
    sweep_rows,
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

    @pytest.mark.parametrize(
        "law,args",
        [
            (trig_law, (0.25, 0.5, 1.0)),  # cos(theta) >= 0
            (trig_law, (0.25, 0.5, 3.0)),  # cos(theta) < 0
            (hyp_law, (0.25, 0.5, 1.0, 1)),
            (hyp_law, (0.25, 0.5, 1.0, -1)),
        ],
    )
    def test_a_valid_law_value_is_one_python_frame(self, law, args):
        # the guards and the refusal of a value that is not finite are
        # calls on the raise path only
        assert python_calls(law, *args) == [law.__name__]

    @seeded(law_weight, law_weight, phase5)
    def test_plus_branch_dominates_perfect_square(self, a, b, theta):
        floor = (math.sqrt(a) + math.sqrt(b)) ** 2
        assert hyp_law(a, b, theta, 1) >= floor - 1e-9


class TestLawsAgainstTheOracle:
    # cosh's series has no cancelling terms, so the oracle holds at every
    # phase hyp_law accepts; cos's does not past |theta| of about 100
    @seeded(oracle_pair, oracle_phase | hyp_phase, sign)
    def test_hyp_law(self, pair, theta, sign):
        p1, p2 = pair
        assert_law_within_8u(hyp_law(p1, p2, theta, sign), p1, p2, theta, sign, True)

    @seeded(oracle_pair, oracle_phase | near_pi)
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

    @seeded(law_weight, law_weight, phase5)
    def test_trig_residual_everywhere(self, a, b, theta):
        assert trig_linearization_residual(a, b, theta) <= 1e-9

    @seeded(law_weight, law_weight, phase5, sign)
    def test_hyp_residual_everywhere(self, a, b, theta, sign):
        assert hyp_linearization_residual(a, b, theta, sign) <= 1e-9

    @seeded(
        law_weight,
        law_weight,
        hyp_phase,
        sign,
        cases=[
            (5e-324, 5e-324, 3.0, -1),
            # in (x, y) coordinates cosh - sinh cancels all of this value
            (0.7665163703845079, 5.502747537472402, 39.57991040532255, -1),
        ],
    )
    def test_hyp_residual_within_a_few_ulps_at_every_phase(self, a, b, theta, sign):
        # a few ulps of the law's terms, sqrt(a)*sqrt(b) because a*b underflows
        cosh = math.cosh(theta)
        scale = a + b + 2.0 * math.sqrt(a) * math.sqrt(b) * cosh
        # where sqrt(a)*sqrt(b) is subnormal the law rounds it to 2**-1074,
        # not to a relative ulp, and multiplies that by 2*cosh(theta)
        floor = 4.0 * 2.0**-1074 * cosh
        assert hyp_linearization_residual(a, b, theta, sign) <= 16 * U * scale + floor

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
        # a value that is not finite is not degenerate: the finiteness rule
        # refuses it, and names it
        with pytest.raises(ValueError, match="pprime must be finite, got nan") as info:
            classify(math.nan, 0.5, 0.5)
        assert not isinstance(info.value, PreconditionError)

    def test_overflowing_product_keeps_the_coefficient(self):
        # an infinite p1*p2, or 2*sqrt(p1*p2), used to give lambda = 0 (trig)
        v = classify(1e308, 1e300, 1e300)
        assert v.regime == HYP
        assert v.lambda_ == pytest.approx((1e308 - 2e300) / 2e300, rel=1e-15)
        v = classify(1e308, 1e308, 1e308)
        assert v.regime == TRIG
        assert v.lambda_ == pytest.approx(-0.5, rel=1e-15)

    def test_overflowing_difference_keeps_the_coefficient(self):
        # pprime - p1 - p2 overflows; the exact lambda is -1 + 2.5e-309
        v = classify(0.5, 1e308, 1e308)
        assert (v.regime, v.sign, v.lambda_) == (BOUNDARY, -1, -1.0)
        # halved, the difference would still overflow; exactly -1.5
        v = classify(-1.7e308, 1.7e308, 1.7e308)
        assert (v.regime, v.sign, v.lambda_) == (HYP, -1, -1.5)
        assert v.theta == math.acosh(1.5)
        # ints a double holds, whose exact difference it does not
        assert classify(-(10**308), 10**308, 10**308) == classify(-1e308, 1e308, 1e308)
        # ints whose difference only the retry as doubles reaches: it is
        # refused as the doubles' is, for the same infinite coefficient
        for args in ((-(10**308), 1, 10**308), (-1e308, 1.0, 1e308)):
            with pytest.raises(DegenerateInputsError) as info:
                classify(*args)
            assert str(info.value) == "coefficient -inf exceeds any admissible phase"

    def test_rejects_unrepresentable_phase(self):
        with pytest.raises(DegenerateInputsError):
            classify(1e155, 0.25, 0.25)
        # p1*p2 underflows to 0, so this used to divide by zero
        with pytest.raises(DegenerateInputsError):
            classify(1.0, 1e-320, 1e-320)

    @seeded(positive_weight, positive_weight, floats(0.01, math.pi - 0.01))
    def test_trig_round_trip(self, p1, p2, theta):
        v = classify(trig_law(p1, p2, theta), p1, p2)
        assert v.regime == TRIG
        assert v.sign == 1
        assert v.theta == pytest.approx(theta, abs=1e-9)

    @seeded(positive_weight, positive_weight, floats(0.01, 10.0), sign)
    def test_hyp_round_trip(self, p1, p2, theta, sign):
        v = classify(hyp_law(p1, p2, theta, sign), p1, p2)
        assert v.regime == HYP
        assert v.sign == sign
        assert v.theta == pytest.approx(theta, abs=1e-8)

    @seeded(phase5, positive_weight, positive_weight)
    def test_regime_dichotomy(self, pprime, p1, p2):
        v = classify(pprime, p1, p2)
        assert v.regime in (TRIG, HYP, BOUNDARY)
        if v.regime == TRIG:
            assert math.cos(v.theta) * v.sign == pytest.approx(v.lambda_, abs=1e-9)
        elif v.regime == HYP:
            assert math.cosh(v.theta) * v.sign == pytest.approx(v.lambda_, abs=1e-9)


NAN, INF = math.nan, math.inf
# ints that no double can hold; GIANT is past the interpreter's 4300-digit
# limit on int-to-str conversion
HUGE, GIANT = 10**400, 10**5000
TOO_LARGE = "an int too large for a double"
NEGATIVE = "probability must be nonnegative, got"
NOT_FINITE_HUGE = f"probability must be finite, got {TOO_LARGE}"
SIGN_HUGE = f"sign must be +1 or -1, got {TOO_LARGE}"
STEPS_HUGE = f"steps must be from 2 to 1000000, got {TOO_LARGE}"

# (entry point, arguments with two or more of them bad, error, its message):
# the guards run in their order, so the first failing one names the fault.
# A value that is not finite (NaN, an infinity, an int no double holds) gets
# the finiteness rule's ValueError, a finite one outside the domain a
# PreconditionError.  The HUGE and GIANT rows have one bad argument: the
# error is the documented one, and its message, under 80 characters, never
# prints the int
FIRST_ERROR_CASES = [
    (hyp_law, (-1, 0.5, NAN, 0), PreconditionError, f"{NEGATIVE} -1"),
    (hyp_law, (0.5, 0.5, NAN, 0), ValueError, "sign must be +1 or -1, got 0"),
    (hyp_law, (NAN, -1.0, 400.0, 2), ValueError, "probability must be finite, got nan"),
    (hyp_law, (0.5, -INF, 400.0, 2), ValueError, "probability must be finite, got -inf"),
    (hyp_law, (0.5, 0.5, INF, 2), ValueError, "sign must be +1 or -1, got 2"),
    (hyp_law, (0.5, 0.5, -301.0, 1.5), ValueError, "sign must be +1 or -1, got 1.5"),
    (
        hyp_law,
        (1e308, 1e308, 301.0, 1),
        PhaseRangeError,
        "|theta| = 301.0 exceeds THETA_MAX = 300.0",
    ),
    (trig_law, (NAN, 0.5, NAN), ValueError, "probability must be finite, got nan"),
    (trig_law, (0.5, -INF, NAN), ValueError, "probability must be finite, got -inf"),
    (trig_law, (-0.5, -0.25, 0.0), PreconditionError, f"{NEGATIVE} -0.5"),
    (trig_law, (1e308, 1e308, NAN), ValueError, "phase must be finite, got nan"),
    # +inf passes p >= 0; the kernel tells it apart from an overflow
    (trig_law, (INF, 0.5, 0.0), ValueError, "probability must be finite, got inf"),
    (hyp_law, (0.5, INF, 1.0, -1), ValueError, "probability must be finite, got inf"),
    (classify, (INF, -1.0, 0.5), ValueError, "pprime must be finite, got inf"),
    (classify, (0.5, 0.0, NAN), ValueError, "p2 must be finite, got nan"),
    (classify, (NAN, 0.0, 0.0), ValueError, "pprime must be finite, got nan"),
    (classify, (-INF, INF, 0.5), ValueError, "pprime must be finite, got -inf"),
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
    (hyp_law, (HUGE, 0.5, 0.0, 1), ValueError, NOT_FINITE_HUGE),
    (hyp_law, (0.5, HUGE, 1.0, -1), ValueError, NOT_FINITE_HUGE),
    (hyp_law, (0.5, 0.5, HUGE, 1), ValueError, f"phase must be finite, got {TOO_LARGE}"),
    (trig_law, (HUGE, 0.5, 0.0), ValueError, NOT_FINITE_HUGE),
    (trig_law, (0.5, 0.5, HUGE), ValueError, f"phase must be finite, got {TOO_LARGE}"),
    (classify, (0.5, HUGE, 0.5), ValueError, f"p1 must be finite, got {TOO_LARGE}"),
    (classify, (HUGE, 0.5, 0.5), ValueError, f"pprime must be finite, got {TOO_LARGE}"),
    (classify, (0.5, HUGE, HUGE), ValueError, f"p1 must be finite, got {TOO_LARGE}"),
    (sweep_rows, ("trig", HUGE, 0.5, 0.0, 1.0, 3), ValueError, NOT_FINITE_HUGE),
    (sweep_rows, ("hyp", 0.5, HUGE, 0.0, 1.0, 3), ValueError, NOT_FINITE_HUGE),
    (
        sweep_rows,
        ("trig", 0.5, 0.5, 0, HUGE, 3),
        ValueError,
        f"theta-max must be finite, got {TOO_LARGE}",
    ),
    (
        sweep_rows,
        ("trig", 0.5, 0.5, HUGE, HUGE + 1, 3),
        ValueError,
        f"theta-min must be finite, got {TOO_LARGE}",
    ),
    # a guard that refuses a huge int names it and prints no digit
    (hyp_law, (-HUGE, 0.5, 0.0, 1), ValueError, NOT_FINITE_HUGE),
    (hyp_law, (0.5, -GIANT, NAN, 0), ValueError, NOT_FINITE_HUGE),
    (hyp_law, (0.5, 0.5, NAN, HUGE), ValueError, SIGN_HUGE),
    (hyp_law, (0.5, 0.5, 0.0, -GIANT), ValueError, SIGN_HUGE),
    (hyp_law, (GIANT, 0.5, 0.0, 1), ValueError, NOT_FINITE_HUGE),
    (trig_law, (0.5, -HUGE, NAN), ValueError, NOT_FINITE_HUGE),
    (trig_law, (-GIANT, 0.5, 0.0), ValueError, NOT_FINITE_HUGE),
    (trig_law, (0.5, GIANT, 0.0), ValueError, NOT_FINITE_HUGE),
    (classify, (0.5, -GIANT, 0.5), ValueError, f"p1 must be finite, got {TOO_LARGE}"),
    (sweep_rows, ("hyp", -HUGE, 0.5, 0.0, 1.0, 3), ValueError, NOT_FINITE_HUGE),
    (sweep_rows, ("hyp", 0.5, 0.5, 0.0, 1.0, 3, -GIANT), ValueError, SIGN_HUGE),
    (sweep_rows, ("trig", 0.5, 0.5, 0.0, 1.0, -HUGE), ValueError, STEPS_HUGE),
    (sweep_rows, ("trig", 0.5, 0.5, 0.0, 1.0, -GIANT), ValueError, STEPS_HUGE),
    (sweep_rows, ("trig", 0.5, 0.5, 0.0, 1.0, GIANT), ValueError, STEPS_HUGE),
    # an int of more than 53 bits that a double holds shows as that double
    (
        classify,
        (0.5, -(2**60), 0.5),
        DegenerateInputsError,
        "reference probabilities must be positive, "
        "got -1.152921504606847e+18, 0.5",
    ),
]

def case_id(entry, args):
    """The call as a test id, with HUGE and GIANT by name."""
    shown = [
        # str() of GIANT raises the digit-limit error
        ("-GIANT" if a < 0 else "GIANT")
        if isinstance(a, int) and abs(a) == GIANT
        else repr(a).replace(str(HUGE), "HUGE")
        for a in args
    ]
    return f"{entry.__name__}({', '.join(shown)})"


@pytest.mark.parametrize(
    "entry,args,error,message",
    FIRST_ERROR_CASES,
    ids=[case_id(entry, args) for entry, args, _, _ in FIRST_ERROR_CASES],
)
def test_first_failing_guard_wins(entry, args, error, message):
    with pytest.raises(error) as info:
        entry(*args)
    assert type(info.value) is error
    assert str(info.value) == message
    assert len(message) < 80


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


# each guard in order, then the public law: a law whose inline chain let
# through what a guard refuses, or refused what every guard accepts, differs
def guarded_trig_law(p1, p2, theta):
    check_probability(p1)
    check_probability(p2)
    _check_finite(("phase",), (theta,))
    return trig_law(p1, p2, theta)


def guarded_hyp_law(p1, p2, theta, sign):
    check_probability(p1)
    check_probability(p2)
    check_sign(sign)
    check_phase(theta)
    return hyp_law(p1, p2, theta, sign)


class TestInlineGuards:
    """The laws' inline tests agree with calling every guard, in order."""

    @seeded(edge_float, edge_float, edge_float, cases=[(0.5, 0.5, NAN), (0.5, -0.5, 0.5)])
    def test_trig_law(self, p1, p2, theta):
        assert outcome(trig_law, p1, p2, theta) == outcome(guarded_trig_law, p1, p2, theta)

    @seeded(
        edge_float,
        edge_float,
        edge_float,
        any_sign,
        cases=[(0.5, 0.5, 301.0, 1), (0.5, 0.5, 0.5, 0), (0.5, -0.5, 0.5, 1)],
    )
    def test_hyp_law(self, p1, p2, theta, sign):
        got = outcome(hyp_law, p1, p2, theta, sign)
        assert got == outcome(guarded_hyp_law, p1, p2, theta, sign)

    @seeded(
        edge_float,
        edge_float,
        edge_float,
        cases=[(INF, 0.5, 0.5), (NAN, 0.5, 0.5), (0.5, 0.5, -0.5)],
    )
    def test_classify(self, pprime, p1, p2):
        got = outcome(classify, pprime, p1, p2)
        if not all(map(math.isfinite, (pprime, p1, p2))):
            name, value = next(
                pair
                for pair in zip(("pprime", "p1", "p2"), (pprime, p1, p2))
                if not math.isfinite(pair[1])
            )
            assert got == (ValueError, f"{name} must be finite, got {value!r}")
        elif p1 <= 0 or p2 <= 0:
            message = f"reference probabilities must be positive, got {p1!r}, {p2!r}"
            assert got == (DegenerateInputsError, message)
        else:
            assert isinstance(got, str) or "exceeds any admissible phase" in got[1]


def law_grid(law, p1, p2, theta_min, theta_max, steps, sign):
    """A sweep as the public laws compute it, one call per point in grid
    order, after each guard that the sweep applies once."""
    check_probability(p1)
    check_probability(p2)
    check_sign(sign)
    span = theta_max - theta_min
    rows = []
    for i in range(steps):
        theta = theta_min + span * i / (steps - 1)
        if law == TRIG:
            rows.append((theta, trig_law(p1, p2, theta)))
        else:
            rows.append((theta, hyp_law(p1, p2, theta, sign)))
    return rows


def grid_bits(sweep, *args):
    """Each row as the bits of its two doubles, or the error's type and message."""
    try:
        return [(theta.hex(), p.hex()) for theta, p in sweep(*args)]
    except Exception as exc:
        return type(exc), str(exc)


class TestSweepGrid:
    """The grid kernel gives the laws' bits at every point, and their refusals."""

    @seeded(
        sampled([TRIG, HYP]),
        grid_pair,
        # ranges up to 10 wide cross cos(theta) < 0
        floats(-7.0, 7.0),
        floats(1e-3, 10.0),
        integers(2, 40),
        sign,
        draws=300,
        cases=[
            # the plus branch raises (an int sum no double holds) after a finite point
            (TRIG, (int(1.7e308), 10**307), math.pi, math.pi, 2, 1),
            # ... and after a point whose value overflows, which is refused first
            (TRIG, (int(1.7e308), 10**307), 4.711, 0.039, 2, 1),
            # every value is finite, though their sum is not
            (TRIG, (4e307, 4e307), 0.0, 0.1, 3, 1),
            (HYP, (0.5, 0.5 + 1e-12), 0.0, 1e-3, 5, -1),
            (HYP, (1e308, 1e308), 0.0, 1.0, 3, 1),
            (TRIG, (HUGE, 0.5), 0.0, 1.0, 3, 1),
        ],
    )
    def test_rows_are_law_bits(self, law, pair, theta_min, width, steps, sign):
        args = (law, *pair, theta_min, theta_min + width, steps, sign)
        assert grid_bits(sweep_rows, *args) == grid_bits(law_grid, *args)
