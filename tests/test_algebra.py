"""Split-complex arithmetic: frozen examples plus algebraic-law properties."""

import math
import operator

import pytest
from hypothesis import given
from hypothesis import strategies as st

from hyperq.algebra import (
    EPS_ALG,
    J,
    ONE,
    THETA_MAX,
    ZERO,
    PolarForm,
    SplitComplex,
    expj,
)
from hyperq.errors import DegenerateNormError, PhaseRangeError, PreconditionError
from hyperq.space import Vec2

coords = st.floats(min_value=-10.0, max_value=10.0, allow_nan=False)
numbers = st.builds(SplitComplex, coords, coords)
phases = st.floats(min_value=-5.0, max_value=5.0, allow_nan=False)


def assert_close(a: SplitComplex, b: SplitComplex, scale: float = 1.0) -> None:
    assert a.dist(b) <= EPS_ALG * max(1.0, scale)


class TestConstruction:
    def test_rejects_non_finite(self):
        for bad in (math.nan, math.inf, -math.inf):
            with pytest.raises(ValueError):
                SplitComplex(bad, 0.0)
            with pytest.raises(ValueError):
                SplitComplex(0.0, bad)

    def test_immutable(self):
        z = SplitComplex(1.0, 2.0)
        with pytest.raises(AttributeError, match="cannot assign to field 'x'"):
            z.x = 3.0

    def test_list_round_trip(self):
        z = SplitComplex(1.5, -2.5)
        assert SplitComplex.from_list(z.to_list()) == z

    @pytest.mark.parametrize(
        "bad", [[1.0], [1.0, 2.0, 3.0], ["a", 2.0], [True, 0.0], "xy", None, 7]
    )
    def test_from_list_rejects(self, bad):
        with pytest.raises(ValueError):
            SplitComplex.from_list(bad)

    def test_str(self):
        assert str(SplitComplex(1.5, -2.0)) == "1.5-2j"
        assert str(J) == "0+1j"


class TestRingOperations:
    def test_add_examples(self):
        assert SplitComplex(1, 2) + SplitComplex(3, -1) == SplitComplex(4, 1)
        assert ZERO + SplitComplex(5, 7) == SplitComplex(5, 7)
        assert SplitComplex(1, 1) + SplitComplex(-1, -1) == ZERO

    def test_mul_examples(self):
        assert J * J == ONE
        assert SplitComplex(1, 1) * SplitComplex(1, -1) == ZERO
        assert SplitComplex(2, 1) * SplitComplex(3, 2) == SplitComplex(8, 7)

    def test_scalar_mixing(self):
        z = SplitComplex(2.0, 3.0)
        assert 2 * z == SplitComplex(4.0, 6.0)
        assert z * 0.5 == SplitComplex(1.0, 1.5)
        assert 1 + z == SplitComplex(3.0, 3.0)
        assert z - 1 == SplitComplex(1.0, 3.0)
        assert 1 - z == SplitComplex(-1.0, -3.0)
        assert -z == SplitComplex(-2.0, -3.0)
        assert +z == z
        assert z / 2 == SplitComplex(1.0, 1.5)

    def test_vec2_operand_reaches_vec2(self):
        z, v = SplitComplex(2.0, 1.0), Vec2(ONE, J)
        assert z * v == v * z == Vec2(z, J * z)
        with pytest.raises(TypeError):
            z / v

    @pytest.mark.parametrize(
        "op", [operator.add, operator.sub, operator.mul, operator.truediv]
    )
    def test_str_operand_raises_type_error(self, op):
        with pytest.raises(TypeError):
            op(SplitComplex(1, 0), "1.5")
        with pytest.raises(TypeError):
            op("1.5", SplitComplex(1, 0))

    def test_division_by_number(self):
        z = SplitComplex(8, 7)
        w = SplitComplex(3, 2)
        assert_close(z / w, SplitComplex(2, 1))

    @given(numbers, numbers)
    def test_add_commutes(self, a, b):
        assert a + b == b + a

    @given(numbers, numbers, numbers)
    def test_add_associates(self, a, b, c):
        assert_close((a + b) + c, a + (b + c))

    @given(numbers, numbers)
    def test_mul_commutes(self, a, b):
        assert a * b == b * a

    @given(numbers, numbers, numbers)
    def test_mul_associates(self, a, b, c):
        scale = a.mag() * b.mag() * c.mag()
        assert_close((a * b) * c, a * (b * c), scale)

    @given(numbers, numbers, numbers)
    def test_distributes(self, a, b, c):
        scale = a.mag() * (b.mag() + c.mag())
        assert_close(a * (b + c), a * b + a * c, scale)

    @given(numbers)
    def test_identities(self, a):
        assert a + ZERO == a
        assert a * ONE == a


class TestInvolution:
    def test_examples(self):
        assert SplitComplex(3, 2).conj() == SplitComplex(3, -2)
        assert SplitComplex(5, 0).conj() == SplitComplex(5, 0)
        assert SplitComplex(1, 7).conj().conj() == SplitComplex(1, 7)

    @given(numbers, numbers)
    def test_multiplicative(self, a, b):
        assert_close((a * b).conj(), a.conj() * b.conj(), a.mag() * b.mag())

    @given(numbers, numbers)
    def test_additive(self, a, b):
        assert (a + b).conj() == a.conj() + b.conj()


class TestNormSq:
    def test_examples(self):
        assert SplitComplex(3, 2).norm_sq() == 5.0
        assert SplitComplex(1, 1).norm_sq() == 0.0
        assert J.norm_sq() == -1.0

    @given(numbers)
    def test_matches_self_product(self, z):
        w = z * z.conj()
        assert w.y == 0.0
        assert w.x == pytest.approx(z.norm_sq(), abs=EPS_ALG * max(1.0, z.mag() ** 2))

    @given(numbers, numbers)
    def test_multiplicative(self, a, b):
        scale = max(1.0, (a.mag() * b.mag()) ** 2)
        got = (a * b).norm_sq()
        want = a.norm_sq() * b.norm_sq()
        assert abs(got - want) <= EPS_ALG * scale


class TestPositiveCone:
    def test_examples(self):
        assert SplitComplex(2, 1).in_positive_cone(0.0)
        assert not SplitComplex(1, 2).in_positive_cone(0.0)
        # the light cone is included: membership is non-strict
        assert SplitComplex(1, 1).in_positive_cone(0.0)

    @given(numbers, numbers)
    def test_closed_under_products(self, a, b):
        if a.in_positive_cone(0.0) and b.in_positive_cone(0.0):
            assert (a * b).in_positive_cone(EPS_ALG)


class TestExpj:
    def test_examples(self):
        assert expj(0.0) == ONE
        assert_close(expj(math.log(2)), SplitComplex(1.25, 0.75))
        assert expj(3.7).norm_sq() == pytest.approx(1.0, abs=EPS_ALG)

    @given(phases, phases)
    def test_homomorphism(self, a, b):
        assert_close(expj(a) * expj(b), expj(a + b), math.cosh(a) * math.cosh(b))

    @given(phases)
    def test_conjugate_negates_phase(self, a):
        assert expj(a).conj() == expj(-a)

    def test_range_guard(self):
        expj(THETA_MAX)
        with pytest.raises(PhaseRangeError):
            expj(THETA_MAX * 1.01)
        with pytest.raises(ValueError):
            expj(math.nan)


class TestPolar:
    def test_positive_real_axis(self):
        p = SplitComplex(2, 0).polar()
        assert p == PolarForm(1, 2.0, 0.0)

    def test_negative_example(self):
        p = SplitComplex(-5, 3).polar()
        assert p.sign == -1
        assert p.modulus == pytest.approx(4.0, abs=1e-12)
        assert p.theta == pytest.approx(-math.log(2), abs=1e-12)

    @pytest.mark.parametrize(
        "z", [SplitComplex(1, 1), SplitComplex(2, -2), SplitComplex(1, 2), ZERO]
    )
    def test_rejects_degenerate(self, z):
        with pytest.raises(DegenerateNormError):
            z.polar()

    def test_polar_form_validation(self):
        with pytest.raises(ValueError):
            PolarForm(0, 1.0, 0.0)
        with pytest.raises(ValueError):
            PolarForm(1, 0.0, 0.0)

    @given(numbers)
    def test_round_trip(self, z):
        if z.norm_sq() <= 1e-6:
            return
        assert_close(z.polar().to_number(), z, z.mag())


class TestInverse:
    def test_examples(self):
        assert SplitComplex(2, 0).inverse() == SplitComplex(0.5, 0)
        assert_close(SplitComplex(1.25, 0.75).inverse(), SplitComplex(1.25, -0.75))

    @pytest.mark.parametrize("z", [SplitComplex(1, 1), J, ZERO])
    def test_rejects_degenerate(self, z):
        with pytest.raises(DegenerateNormError):
            z.inverse()

    @given(numbers)
    def test_left_and_right_inverse(self, z):
        if z.norm_sq() <= 1e-6:
            return
        assert_close(z * z.inverse(), ONE)
        assert_close(z.inverse() * z, ONE)

    @given(phases, phases, st.sampled_from([1, -1]), st.sampled_from([1, -1]))
    def test_unit_circle_is_a_group(self, a, b, sa, sb):
        u = expj(a) * sa
        v = expj(b) * sb
        w = u * v
        # the cancellation cosh**2 - sinh**2 loses digits as mag grows
        tol = EPS_ALG * max(1.0, w.mag() ** 2)
        assert w.norm_sq() == pytest.approx(1.0, abs=tol)
        assert u.inverse().norm_sq() == pytest.approx(
            1.0, abs=EPS_ALG * max(1.0, u.mag() ** 2)
        )


BIG = SplitComplex(1e308, 0.0)
# an int that no double can hold
HUGE = 10**400


class TestOverflow:
    """An arithmetic result that is not finite is a refused precondition."""

    def test_precondition_error_is_a_value_error(self):
        assert issubclass(PreconditionError, ValueError)

    @pytest.mark.parametrize(
        "operation",
        [
            lambda: BIG * 10.0,
            lambda: 10 * BIG,
            lambda: BIG + BIG,
            lambda: BIG + 1e308,
            lambda: -BIG - BIG,
            lambda: 1e308 - (-BIG),
            lambda: BIG * BIG,
            lambda: SplitComplex(1e308, 1e308) * SplitComplex(2.0, 0.0),
            lambda: BIG / 1e-10,
            lambda: BIG / SplitComplex(1e-10, 0.0),
            lambda: SplitComplex(1e300, 0.0).inverse(),
            lambda: SplitComplex(1e308, 1e308).inverse(),
            lambda: PolarForm(1, 1e308, 2.0).to_number(),
            lambda: SplitComplex(1e200, 0.0).polar(),
            lambda: SplitComplex(1e308, -1e308).polar(),
            lambda: SplitComplex(1.0, 0.0) * HUGE,
            lambda: HUGE * SplitComplex(1.0, 0.0),
            lambda: SplitComplex(1.0, 0.0) / HUGE,
            lambda: SplitComplex(1.0, 0.0) + HUGE,
            lambda: HUGE + SplitComplex(1.0, 0.0),
            lambda: SplitComplex(1.0, 0.0) - HUGE,
            lambda: HUGE - SplitComplex(1.0, 0.0),
        ],
        ids=[
            "scalar-mul",
            "scalar-rmul",
            "add",
            "add-scalar",
            "sub",
            "rsub",
            "mul",
            "mul-cross-terms",
            "scalar-div",
            "div",
            "inverse-norm-overflow",
            "inverse-nan-norm",
            "polar-to-number",
            "polar-norm-overflow",
            "polar-nan-norm",
            "huge-int-mul",
            "huge-int-rmul",
            "huge-int-div",
            "huge-int-add",
            "huge-int-radd",
            "huge-int-sub",
            "huge-int-rsub",
        ],
    )
    def test_overflow_raises_precondition_error(self, operation):
        with pytest.raises(PreconditionError, match="overflows|not finite"):
            operation()

    @pytest.mark.parametrize("method", ["polar", "inverse"])
    @pytest.mark.parametrize(
        "z", [SplitComplex(1e200, 0.0), SplitComplex(1e308, -1e308)], ids=["inf", "nan"]
    )
    def test_non_finite_norm_is_not_degenerate(self, z, method):
        with pytest.raises(PreconditionError, match="squared norm .* is not finite") as info:
            getattr(z, method)()
        assert not isinstance(info.value, DegenerateNormError)

    def test_example(self):
        with pytest.raises(PreconditionError, match=r"not finite: \(inf, 0.0\)"):
            SplitComplex(1e308, 0) * 10.0

    @pytest.mark.parametrize(
        "build",
        [
            lambda: SplitComplex(math.inf, 0.0),
            lambda: SplitComplex(0.0, math.nan),
            lambda: SplitComplex.from_list([math.inf, 0.0]),
            lambda: BIG + math.inf,
            lambda: SplitComplex(HUGE, 0.0),
            lambda: SplitComplex(0.0, -HUGE),
        ],
        ids=["inf", "nan", "from_list", "inf-operand", "huge-int-x", "huge-int-y"],
    )
    def test_non_finite_input_stays_a_value_error(self, build):
        with pytest.raises(ValueError, match="must be finite") as info:
            build()
        assert not isinstance(info.value, PreconditionError)

    def test_largest_finite_results_pass(self):
        assert BIG * 1.0 == BIG
        assert (BIG - BIG) == ZERO
        assert SplitComplex(1e154, 0.0).inverse() == SplitComplex(1e-154, -0.0)
