"""Indefinite inner product, orthonormality, and basis changes in 2D."""

import math
import operator
import subprocess
import sys
from fractions import Fraction

import pytest
from helpers import python_calls
from hypothesis import given
from hypothesis import strategies as st

from hyperq.algebra import EPS_ALG, J, ONE, ZERO, SplitComplex
from hyperq.errors import NotUnitaryError, PreconditionError
from hyperq.space import (
    Mat2,
    Vec2,
    change_basis,
    doubly_stochastic_residual,
    inner,
    is_orthonormal_rows,
    orthonormality_residual,
    prob_matrix,
)
from hyperq.witness import UnitaryParams, make_decomposable_unitary
from test_guards import HUGE_IDS, HUGE_INTS

# the refusals of the JSON readers: the document's shape, never its content
VECTOR = "malformed vector: expected [[x1, y1], [x2, y2]]"
VECTOR_ENTRIES = f"{VECTOR} with numeric entries"
MATRIX = "malformed matrix: expected [[[x11, y11], [x12, y12]], [[x21, y21], [x22, y22]]]"
MATRIX_ENTRIES = f"{MATRIX} with numeric entries"
HUGE = "an int too large for a double"

coords = st.floats(min_value=-10.0, max_value=10.0, allow_nan=False)
numbers = st.builds(SplitComplex, coords, coords)
vectors = st.builds(Vec2, numbers, numbers)

wide_coords = st.floats(min_value=-1e3, max_value=1e3, allow_nan=False)
wide_numbers = st.builds(SplitComplex, wide_coords, wide_coords)
wide_vectors = st.builds(Vec2, wide_numbers, wide_numbers)
wide_matrices = st.builds(Mat2, wide_numbers, wide_numbers, wide_numbers, wide_numbers)

#: A finite entry whose row product, its squared norm 1e616, is not a double.
OVERFLOW = [[[1e308, 0], [0, 0]], [[0, 0], [1, 0]]]

#: Two entries whose row products overflow with opposite signs, to inf and -inf.
#: The exact residual is 1e308, a double; refusing it is an open FOUND, and
#: a mend moves this matrix out of the refused cases.
OPPOSITE_OVERFLOW = [[[1e308, 0], [0, 1e308]], [[0, 0], [1, 0]]]

#: Light-cone entries whose cross term with the second row, and so the
#: residual, is 1e308: a double, though four times its quarter sum is not.
TOP_CROSS = [[[1e308, 1e308], [1e308, 1e308]], [[0, 0], [1, 0]]]

#: A finite entry on the light cone whose squares are not doubles.
LIGHT_CONE = [[[1e200, 1e200], [0, 0]], [[0, 0], [1, 0]]]

#: The same at the top of the range, where x + y is not a double either.
TOP_LIGHT_CONE = [[[1e308, 1e308], [0, 0]], [[0, 0], [1, 0]]]

#: The unit roundoff of a double.
ULP = Fraction(1, 2**53)

#: The least magnitude that rounds to infinity: no double is this large.
TOP = Fraction(2**1024 - 2**970)

unit_interval = st.floats(min_value=0.05, max_value=0.95)
small_phases = st.floats(min_value=-3.0, max_value=3.0, allow_nan=False)
unitaries = st.builds(
    lambda p, g1, g2, d: make_decomposable_unitary(UnitaryParams(p, g1, g2, d)),
    unit_interval,
    small_phases,
    small_phases,
    small_phases,
)

# components scaled toward the largest double
top_coords = st.builds(
    operator.mul,
    st.floats(min_value=-1.0, max_value=1.0),
    st.sampled_from([1e154, 1e200, 1e300, 1e307, 1e308, sys.float_info.max]),
)
top_numbers = st.builds(SplitComplex, top_coords, top_coords)
light_cone_numbers = st.builds(
    lambda x, sign: SplitComplex(x, sign * x), top_coords, st.sampled_from([1, -1])
)
# |y| > |x|: a negative squared norm
j_dominant_numbers = st.builds(lambda x, y: SplitComplex(1e-3 * x, y), top_coords, top_coords)
# rows near the top of the range, or small, so that a large row meets a small one
top_rows = st.one_of(
    *(st.builds(Vec2, n, n) for n in (top_numbers, light_cone_numbers, j_dominant_numbers)),
    vectors,
)
top_matrices = st.builds(Mat2.from_rows, top_rows, top_rows)


def halved_products(m: Mat2) -> list[Fraction]:
    """The (u, v) kernel's eight products, in exact arithmetic: u and v of
    the halved components, ``u = (x + y)/2``, ``v = (x - y)/2``, in the
    order of its four sums, two products each."""
    (u11, v11), (u12, v12), (u21, v21), (u22, v22) = (
        ((Fraction(z.x) + Fraction(z.y)) / 2, (Fraction(z.x) - Fraction(z.y)) / 2)
        for z in m.entries()
    )
    return [
        u11 * v11, u12 * v12, u21 * v21, u22 * v22,
        u11 * v21, u12 * v22, v11 * u21, v12 * u22,
    ]


def exact_residual(m: Mat2) -> tuple[Fraction, Fraction]:
    """The orthonormality residual of ``m`` in exact arithmetic, and its scale.

    The residual follows the definition: ``inner`` of the rows, with each
    entry's components read as exact rationals.  The scale is 1 plus the
    largest sum of product magnitudes among the (u, v) kernel's four sums,
    on the whole components, four times those of the halves.
    """
    (x11, y11), (x12, y12), (x21, y21), (x22, y22) = (
        (Fraction(z.x), Fraction(z.y)) for z in m.entries()
    )
    n1 = x11 * x11 - y11 * y11 + x12 * x12 - y12 * y12
    n2 = x21 * x21 - y21 * y21 + x22 * x22 - y22 * y22
    cross_x = x11 * x21 - y11 * y21 + x12 * x22 - y12 * y22
    cross_y = x21 * y11 - x11 * y21 + x22 * y12 - x12 * y22
    residual = max(abs(n1 - 1), abs(n2 - 1), abs(cross_x), abs(cross_y))
    p = halved_products(m)
    magnitudes = [abs(p[k]) + abs(p[k + 1]) for k in range(0, 8, 2)]
    return residual, 1 + 4 * max(magnitudes)


def hyperbolic_rotation(t: float) -> Mat2:
    c, s = math.cosh(t), math.sinh(t)
    return Mat2(
        SplitComplex(c, 0), SplitComplex(0, s), SplitComplex(0, s), SplitComplex(c, 0)
    )


class TestVec2:
    def test_arithmetic(self):
        u = Vec2(ONE, J)
        v = Vec2(J, ONE)
        assert u + v == Vec2(SplitComplex(1, 1), SplitComplex(1, 1))
        assert u - v == Vec2(SplitComplex(1, -1), SplitComplex(-1, 1))
        assert -u == Vec2(-ONE, -J)
        assert 2 * u == Vec2(SplitComplex(2, 0), SplitComplex(0, 2))
        assert u * J == Vec2(J, ONE)

    @pytest.mark.parametrize(
        "op,operand",
        [
            pytest.param(operator.mul, Vec2(ONE, ONE), id="vec2-times-vec2"),
            pytest.param(operator.mul, Mat2.identity(), id="vec2-times-mat2"),
            pytest.param(operator.add, 1, id="vec2-plus-int"),
            pytest.param(operator.sub, ONE, id="vec2-minus-scalar"),
            pytest.param(operator.mul, "2", id="vec2-times-str"),
        ],
    )
    def test_foreign_operand_raises_type_error(self, op, operand):
        # the message names Vec2 as an operand, not one of its coordinates
        u = Vec2(ONE, ZERO)
        with pytest.raises(TypeError, match="'Vec2'"):
            op(u, operand)
        with pytest.raises(TypeError, match="'Vec2'"):
            op(operand, u)

    @given(wide_vectors, wide_vectors)
    def test_dist_is_the_larger_coordinate_dist(self, u, v):
        assert u.dist(v) == max(u.c1.dist(v.c1), u.c2.dist(v.c2))

    def test_dist_reads_every_component(self):
        u = Vec2(ZERO, ZERO)
        for gaps in ((3, 0, 0, 0), (0, 3, 0, 0), (0, 0, 3, 0), (0, 0, 0, 3)):
            x1, y1, x2, y2 = gaps
            assert u.dist(Vec2(SplitComplex(x1, y1), SplitComplex(x2, y2))) == 3.0

    def test_norms(self):
        v = Vec2(SplitComplex(3, 2), J)
        assert v.norms_sq() == (5.0, -1.0)
        assert v.norm_sq_sum() == 4.0

    def test_list_round_trip(self):
        v = Vec2(SplitComplex(1, 2), SplitComplex(3, 4))
        assert v.to_list() == [[1, 2], [3, 4]]
        assert Vec2.from_list(v.to_list()) == v

    @pytest.mark.parametrize(
        "bad,message",
        [
            pytest.param([[1, 2]], f"{VECTOR}, got list", id="bad0"),
            pytest.param([[1, 2], [3]], f"{VECTOR}, got list", id="bad1"),
            pytest.param("xy", f"{VECTOR}, got str", id="xy"),
            pytest.param([1, 2], f"{VECTOR}, got list", id="bad3"),
            pytest.param([[1, 2], [3, 4], [5, 6]], f"{VECTOR}, got list", id="three-pairs"),
            pytest.param([[1, 0], [True, 0]], f"{VECTOR_ENTRIES}, got bool", id="bool"),
            pytest.param([{"x": 1}, [0, 1]], f"{VECTOR}, got list", id="dict"),
            pytest.param([[1, 0], [math.inf, 0]], "x must be finite, got inf", id="inf"),
            pytest.param(["ab", [0, 1]], f"{VECTOR}, got list", id="string"),
            pytest.param({1, 2}, f"{VECTOR}, got set", id="set"),
            pytest.param([[1, 0], ["0", 1]], f"{VECTOR_ENTRIES}, got str", id="str-leaf"),
            pytest.param([[1, 0], [0, 10**400]], f"{VECTOR_ENTRIES}, got {HUGE}", id="huge"),
            # three floats pass the inline test, the last leaf sends the
            # reader to the full leaf check
            pytest.param(
                [[0.5, 0.5], [0.5, True]], f"{VECTOR_ENTRIES}, got bool", id="last-bool"
            ),
            pytest.param(
                [[0.5, 0.5], [0.5, 10**400]], f"{VECTOR_ENTRIES}, got {HUGE}", id="last-huge"
            ),
            pytest.param(
                [[0.5, 0.5], [0.5, "0"]], f"{VECTOR_ENTRIES}, got str", id="last-str"
            ),
        ],
    )
    def test_from_list_rejects(self, bad, message):
        with pytest.raises(ValueError) as info:
            Vec2.from_list(bad)
        assert str(info.value) == message
        assert len(message) < 200

    def test_from_list_stores_a_last_int_leaf_as_a_float(self):
        v = Vec2.from_list([[0.5, 0.5], [0.5, 1]])
        assert v == Vec2(SplitComplex(0.5, 0.5), SplitComplex(0.5, 1.0))
        assert v.c2.y.__class__ is float

    def test_from_list_of_floats_calls_no_leaf_check(self):
        calls = python_calls(Vec2.from_list, [[0.5, 0.5], [0.5, 0.5]])
        assert calls == ["from_list", *["__init__"] * 3]


class TestMat2:
    def test_rows_and_entries(self):
        m = Mat2.identity()
        assert m.row1 == Vec2.basis1()
        assert m.row2 == Vec2.basis2()
        assert m.entries() == (ONE, ZERO, ZERO, ONE)
        assert Mat2.from_rows(m.row1, m.row2) == m

    def test_list_round_trip(self):
        m = hyperbolic_rotation(0.3)
        assert Mat2.from_list(m.to_list()) == m

    @pytest.mark.parametrize(
        "bad,message",
        [
            pytest.param([[1, 2], [3, 4]], f"{MATRIX}, got list", id="bad0"),
            pytest.param([[[1, 2]]], f"{MATRIX}, got list", id="bad1"),
            pytest.param(None, f"{MATRIX}, got NoneType", id="None"),
            pytest.param(
                [[[1, 0], [0, 0], [0, 0]], [[0, 0], [1, 0]]],
                f"{MATRIX}, got list",
                id="three-pairs",
            ),
            pytest.param(
                [[[1, 0], [0, 0]], [[0, False], [1, 0]]],
                f"{MATRIX_ENTRIES}, got bool",
                id="bool",
            ),
            pytest.param([[[1, 0], [0, 0]], {"a": 1}], f"{MATRIX}, got list", id="dict"),
            pytest.param(
                [[[1, 0], [0, 0]], [[0, 0], [math.inf, 0]]],
                "x must be finite, got inf",
                id="inf",
            ),
            pytest.param(["ab", [[0, 0], [1, 0]]], f"{MATRIX}, got list", id="string"),
            pytest.param({1, 2}, f"{MATRIX}, got set", id="set"),
            pytest.param(
                [[[1, 0], [0, 0]], [[0, 0], [1, "0"]]],
                f"{MATRIX_ENTRIES}, got str",
                id="str-leaf",
            ),
            pytest.param(
                [[[-(10**400), 0], [0, 0]], [[0, 0], [1, 0]]],
                f"{MATRIX_ENTRIES}, got {HUGE}",
                id="huge",
            ),
            # seven floats pass the inline test, the last leaf sends the
            # reader to the full leaf check
            pytest.param(
                [[[1.0, 0.0], [0.0, 0.0]], [[0.0, 0.0], [1.0, False]]],
                f"{MATRIX_ENTRIES}, got bool",
                id="last-bool",
            ),
            pytest.param(
                [[[1.0, 0.0], [0.0, 0.0]], [[0.0, 0.0], [1.0, 10**400]]],
                f"{MATRIX_ENTRIES}, got {HUGE}",
                id="last-huge",
            ),
            pytest.param(
                [[[1.0, 0.0], [0.0, 0.0]], [[0.0, 0.0], [1.0, "0"]]],
                f"{MATRIX_ENTRIES}, got str",
                id="last-str",
            ),
        ],
    )
    def test_from_list_rejects(self, bad, message):
        with pytest.raises(ValueError) as info:
            Mat2.from_list(bad)
        assert str(info.value) == message
        assert len(message) < 200

    def test_from_list_stores_a_last_int_leaf_as_a_float(self):
        m = Mat2.from_list([[[1.0, 0.0], [0.0, 0.0]], [[0.0, 0.0], [1.0, 0]]])
        assert m == Mat2.identity()
        assert m.a22.y.__class__ is float

    def test_from_list_of_floats_calls_no_leaf_check(self):
        calls = python_calls(Mat2.from_list, Mat2.identity().to_list())
        assert calls == ["from_list", *["__init__"] * 5]


class TestInner:
    def test_unit_basis_vector(self):
        assert inner(Vec2.basis1(), Vec2.basis1()) == ONE

    def test_indefiniteness(self):
        v = Vec2(J, ZERO)
        assert inner(v, v) == SplitComplex(-1, 0)

    @given(vectors, vectors)
    def test_conjugate_symmetry(self, u, v):
        assert inner(u, v) == inner(v, u).conj()

    @given(vectors)
    def test_self_product_is_real(self, u):
        assert inner(u, u).y == 0.0

    @given(vectors, vectors, vectors, numbers, numbers)
    def test_linear_in_first_argument(self, u, w, v, a, b):
        left = inner(u * a + w * b, v)
        right = inner(u, v) * a + inner(w, v) * b
        scale = (a.mag() + b.mag()) * (u.c1.mag() + u.c2.mag() + w.c1.mag() + w.c2.mag())
        scale *= v.c1.mag() + v.c2.mag()
        assert left.dist(right) <= EPS_ALG * max(1.0, scale)

    @given(vectors)
    def test_nondegenerate_on_probes(self, z):
        # the four real-coordinate probes pin down every component
        probes = [
            Vec2(ONE, ZERO),
            Vec2(J, ZERO),
            Vec2(ZERO, ONE),
            Vec2(ZERO, J),
        ]
        if all(inner(z, e) == SplitComplex(0, 0) for e in probes):
            assert z == Vec2(ZERO, ZERO)


class TestOverflow:
    BIG = Vec2(SplitComplex(1e308, 0.0), ZERO)

    @pytest.mark.parametrize(
        "operation",
        [
            lambda big: big + big,
            lambda big: -big - big,
            lambda big: big * 10.0,
            lambda big: 10.0 * big,
            lambda big: inner(big, big),
        ],
        ids=["add", "sub", "scale", "rscale", "inner"],
    )
    def test_overflow_raises_precondition_error(self, operation):
        with pytest.raises(PreconditionError, match="not finite"):
            operation(self.BIG)


class TestOrthonormality:
    def test_identity(self):
        assert is_orthonormal_rows(Mat2.identity())
        assert orthonormality_residual(Mat2.identity()) == 0.0

    def test_hyperbolic_rotation(self):
        assert is_orthonormal_rows(hyperbolic_rotation(0.7))

    def test_repeated_row(self):
        m = Mat2(ONE, ZERO, ONE, ZERO)
        assert not is_orthonormal_rows(m)

    @given(unitaries)
    def test_generated_unitaries_pass(self, m):
        assert is_orthonormal_rows(m)

    @given(st.one_of(wide_matrices, unitaries, top_matrices))
    def test_residual_is_within_rounding_of_exact_arithmetic(self, m):
        # to first order each of the kernel's four quarter sums is off by
        # at most 4u times its scale (u and v rounded, then the product,
        # then the sum); the x4 or x2 after the sum is exact, and 4n - 1 or
        # |U| + |V| rounds once more; random draws reach about 2.2u*S
        exact, scale = exact_residual(m)
        bound = 5 * ULP * scale
        try:
            residual = orthonormality_residual(m)
        except PreconditionError:
            # refused only where a product or the residual, within its
            # rounding, is not a double
            products = halved_products(m)
            assert exact + bound >= TOP or max(map(abs, products)) * (1 + 3 * ULP) >= TOP
        else:
            assert abs(Fraction(residual) - exact) <= bound

    def test_light_cone_entry_gets_the_exact_residual(self):
        # x*x - y*y would overflow to inf - inf; u*v is 2e200 * 0.  At the
        # top of the range x + y is not a double, but u of the halves is
        for entries in (LIGHT_CONE, TOP_LIGHT_CONE):
            m = Mat2.from_list(entries)
            assert orthonormality_residual(m) == 1.0 == exact_residual(m)[0]

    def test_huge_cross_product_gives_a_finite_residual(self):
        # U = V = (2h)**2, each finite, while |U| + |V| is not a double
        h = 0.6e154
        m = Mat2.from_list([[[h, h], [h, -h]], [[h, -h], [h, h]]])
        assert orthonormality_residual(m) == float(exact_residual(m)[0])
        # the quarter sum U is 5e307; 4U is not a double, but 2(|U| + |V|) is
        m = Mat2.from_list(TOP_CROSS)
        assert orthonormality_residual(m) == 1e308 == float(exact_residual(m)[0])

    def test_overflowing_row_product_is_a_precondition(self):
        # one product is inf; two of opposite signs are inf and -inf
        for entries in (OVERFLOW, OPPOSITE_OVERFLOW):
            with pytest.raises(PreconditionError):
                orthonormality_residual(Mat2.from_list(entries))


class TestChangeBasis:
    def test_identity_change(self):
        v = Vec2.basis1()
        assert change_basis(v, Mat2.identity()) == v

    def test_basis_vector_maps_to_row(self):
        m = hyperbolic_rotation(0.4)
        assert change_basis(Vec2.basis1(), m) == m.row1

    def test_rejects_non_unitary(self):
        with pytest.raises(NotUnitaryError):
            change_basis(Vec2.basis1(), Mat2(ONE, ZERO, ONE, ZERO))

    def test_rejects_overflowing_product(self):
        # a unitary matrix, but 1e308 * cosh(1.4) is not a double
        big = Vec2(SplitComplex(1e308, 0.0), ZERO)
        with pytest.raises(PreconditionError):
            change_basis(big, hyperbolic_rotation(1.4))

    @given(wide_vectors, unitaries)
    def test_equals_the_operator_product(self, v, m):
        assert change_basis(v, m) == Vec2(
            v.c1 * m.a11 + v.c2 * m.a21, v.c1 * m.a12 + v.c2 * m.a22
        )

    @given(vectors, unitaries)
    def test_preserves_norm_sum(self, v, m):
        before = v.norm_sq_sum()
        after = change_basis(v, m).norm_sq_sum()
        scale = max(1.0, v.c1.mag() ** 2 + v.c2.mag() ** 2)
        assert abs(after - before) <= 1e-7 * scale


class TestProbMatrix:
    def test_identity(self):
        assert prob_matrix(Mat2.identity()) == ((1.0, 0.0), (0.0, 1.0))

    def test_balanced_generator(self):
        m = make_decomposable_unitary(UnitaryParams(0.5, 0.8, 0.8, 0.2))
        (p11, p12), (p21, p22) = prob_matrix(m)
        assert (p11, p12, p21, p22) == pytest.approx([0.5] * 4, rel=1e-7, abs=1e-12)

    @given(unitaries)
    def test_generated_unitaries_are_doubly_stochastic(self, m):
        assert doubly_stochastic_residual(prob_matrix(m)) <= 1e-9

    def test_residual_measures_worst_sum(self):
        p = ((0.6, 0.4), (0.3, 0.5))
        assert doubly_stochastic_residual(p) == pytest.approx(0.2)

    def test_plain_float_tuples(self):
        p = prob_matrix(hyperbolic_rotation(0.4))
        assert isinstance(p, tuple)
        assert all(type(row) is tuple for row in p)
        assert all(type(entry) is float for row in p for entry in row)

    def test_nan_entry_gives_nan_residual(self):
        # no finite matrix gives a NaN entry, but a table can hold one.  A
        # NaN at each position: in p21 or p22 the first of the four sums
        # stays finite, and the builtin max would return a finite gap
        for row, col in ((0, 0), (0, 1), (1, 0), (1, 1)):
            table = [[0.5, 0.25], [0.5, 0.75]]
            table[row][col] = math.nan
            assert math.isnan(doubly_stochastic_residual(table)), (row, col)

    @pytest.mark.parametrize(
        "table",
        [
            ((1e308, 1e308), (0.0, 1.0)),
            ((1.0, 0.0), (1e308, 1e308)),
            ((1e308, 0.0), (1e308, 1.0)),
            ((0.0, -1e308), (1.0, -1e308)),
            # squared moduli that overflowed with opposite signs: the sums
            # are NaN, though no entry is
            ((math.inf, -math.inf), (0.0, 1.0)),
            # int entries that each fit a double, whose exact int sum,
            # 2**1024, does not
            ((2**1023, 2**1023), (0, 1)),
        ],
        ids=["row1", "row2", "col1", "col2", "opposite", "int-sum"],
    )
    def test_overflowing_sum_is_a_precondition(self, table):
        with pytest.raises(PreconditionError, match="sums overflow"):
            doubly_stochastic_residual(table)

    @pytest.mark.parametrize("n", HUGE_INTS, ids=HUGE_IDS)
    def test_entry_no_double_holds_is_not_finite(self, n):
        for row, col in ((0, 0), (0, 1), (1, 0), (1, 1)):
            table = [[0, 1], [1, 0]]
            table[row][col] = n
            with pytest.raises(ValueError, match="must be finite") as info:
                doubly_stochastic_residual(table)
            assert len(str(info.value)) < 80, (row, col)

    def test_finite_gaps_whose_total_overflows_give_the_largest(self):
        # each gap is finite; only their total, never returned, is not
        p = ((1.7e308, 0.0), (0.0, 1.7e308))
        assert doubly_stochastic_residual(p) == 1.7e308 - 1.0


def test_import_leaves_numpy_out():
    # the star import loads every submodule; a bare import loads none
    code = "import sys; from hyperq import *; assert 'numpy' not in sys.modules"
    proc = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True)
    assert proc.returncode == 0, proc.stderr
