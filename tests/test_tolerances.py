"""Each tolerance rule is decided in one place, and every entry point agrees.

For each rule an input sits at the tolerance edge (the last float input the
rule accepts) and another at the next float beyond it.  Every public entry
point that uses the rule must accept the first and refuse the second.  An
AST scan then locks the set of comparisons against the tolerance constants,
so a new inline copy of a rule fails here; a second scan keeps the
squared-norm read in ``SplitComplex.norm_sq`` alone.
"""

import ast
import json
import math
import struct

import pytest
from generators import seeded, table
from helpers import scan

from hyperq.algebra import EPS_ALG, EPS_MEM, ONE, ZERO, SplitComplex
from hyperq.born import (
    Phase,
    ProbabilityModel,
    TransformedProbabilities,
    _check_unit_sums,
    _in_unit_interval,
    amplitude,
    check_sign_phase_constraints,
    decompose,
    extract_model,
    pipeline_probabilities,
)
from hyperq.cli import main
from hyperq.errors import (
    DegenerateInputsError,
    NotNormalizedError,
    NotUnitaryError,
    PreconditionError,
)
from hyperq.interference import (
    _HYP_MIN,
    _LAMBDA_MAX,
    _TRIG_MAX,
    BOUNDARY,
    HYP,
    TRIG,
    classify,
)
from hyperq.space import Mat2, Vec2, _is_unit_sum, change_basis, is_orthonormal_rows
from hyperq.witness import (
    NonTransitivityWitness,
    UnitaryParams,
    make_decomposable_unitary,
    verify_witness,
)

def _bits(x):
    return struct.unpack("<q", struct.pack("<d", x))[0]


def _float(bits):
    return struct.unpack("<d", struct.pack("<q", bits))[0]


def edge(accepts, lo, hi):
    """Adjacent floats ``(x0, x1)`` in ``[lo, hi]``, ``accepts(x0)`` and not ``x1``.

    Bisection on the bit patterns of non-negative floats, which are ordered
    like the floats; needs ``accepts(lo)`` and not ``accepts(hi)``.
    """
    a, b = _bits(lo), _bits(hi)
    assert 0 <= a < b and accepts(lo) and not accepts(hi)
    while b - a > 1:
        mid = (a + b) // 2
        if accepts(_float(mid)):
            a = mid
        else:
            b = mid
    return _float(a), _float(b)


def verify_report(tmp_path, capsys, matrix):
    """``hyperq verify`` on ``matrix``: its exit code and JSON report."""
    path = tmp_path / "matrix.json"
    path.write_text(json.dumps(matrix.to_list()))
    code = main(["verify", "--matrix", str(path)])
    return code, json.loads(capsys.readouterr().out)


def transform_code(tmp_path, capsys, beta, basis):
    """Exit code of ``hyperq transform`` on a state and a matrix."""
    (tmp_path / "state.json").write_text(json.dumps(beta.to_list()))
    (tmp_path / "basis.json").write_text(json.dumps(basis.to_list()))
    argv = ["transform", "--state", str(tmp_path / "state.json")]
    code = main(argv + ["--matrix", str(tmp_path / "basis.json")])
    capsys.readouterr()
    return code


def raises(error, call, *args):
    """True when ``call(*args)`` raises exactly ``error``, False when it returns."""
    try:
        call(*args)
    except error as exc:
        assert type(exc) is error
        return True
    return False


# -- unitarity: orthonormality_residual(m) <= EPS_ALG -------------------------


def stretched(x):
    """``diag(1, x)``: its orthonormality residual is ``|x*x - 1|``."""
    return Mat2(ONE, ZERO, ZERO, SplitComplex(x, 0.0))


UNITARY_EDGE = edge(lambda x: abs(x * x - 1.0) <= EPS_ALG, 1.0, 1.0 + 2 * EPS_ALG)


AT_AND_BEYOND = {"ids": ["at", "beyond"]}


def sheared(x):
    """Rows ``(1, 0)`` and ``(x, 1)``: for a small ``x`` the norms round to 1
    and the residual is the cross term ``|x|``, exactly."""
    return Mat2(ONE, ZERO, SplitComplex(x, 0.0), ONE)


@pytest.mark.parametrize(
    "m,unitary",
    [
        (stretched(UNITARY_EDGE[0]), True),
        (stretched(UNITARY_EDGE[1]), False),
        # the residual is EPS_ALG itself, which the diagonal never reaches
        (sheared(EPS_ALG), True),
        (sheared(math.nextafter(EPS_ALG, 1.0)), False),
    ],
    ids=["at", "beyond", "cross-term-at", "cross-term-beyond"],
)
def test_unitarity_edge(m, unitary, tmp_path, capsys):
    assert is_orthonormal_rows(m) is unitary
    assert raises(NotUnitaryError, change_basis, Vec2.basis1(), m) is not unitary
    code, report = verify_report(tmp_path, capsys, m)
    assert report["unitary"] is unitary
    assert code == (0 if unitary else 3)


# -- unit sum: abs(total - 1) <= EPS_ALG ----------------------------------------


def unit_sum_edge():
    """``(t0, t1)``: the last float total above 1 the rule accepts, and the next."""
    t = 1.0 + EPS_ALG
    while t - 1.0 > EPS_ALG:
        t = math.nextafter(t, 0.0)
    while math.nextafter(t, 2.0) - 1.0 <= EPS_ALG:
        t = math.nextafter(t, 2.0)
    return t, math.nextafter(t, 2.0)


def with_norm(g):
    """A coefficient whose squared norm is exactly ``g = t - 1``, with t near 1.

    ``x = t/2`` and ``y = (2 - t)/2`` are exact, ``x - y = t - 1`` is exact
    by Sterbenz's lemma and ``x + y = 1``.
    """
    t = 1.0 + g
    return SplitComplex(t / 2.0, (2.0 - t) / 2.0)


@pytest.mark.parametrize("t,unit", zip(unit_sum_edge(), (True, False)), **AT_AND_BEYOND)
def test_unit_sum_edge(t, unit, tmp_path, capsys):
    g = t - 1.0
    c = with_norm(g)
    assert c.norm_sq() == g
    # a state: squared norms 1 and g
    assert raises(NotNormalizedError, decompose, Vec2(ONE, c)) is not unit
    # a model: weights, then row 1, sum to t (column 2 too, when row 1 passes)
    weights = ProbabilityModel(1.0, g, 0.5, 0.5, 0.5, 0.5, 0.0, 1)
    assert raises(PreconditionError, weights.validate) is not unit
    rows = ProbabilityModel(0.5, 0.5, 1.0, g, 0.0, 1.0, 0.0, 1)
    assert raises(PreconditionError, rows.validate) is not unit
    # a matrix whose row 1 and column 2 of squared norms sum to t
    _, report = verify_report(tmp_path, capsys, Mat2(ONE, c, ZERO, ONE))
    assert report["doubly_stochastic"] is unit


# -- unit interval: -EPS_ALG <= p <= 1 + EPS_ALG ------------------------------

LOW, HIGH = -EPS_ALG, 1.0 + EPS_ALG


@pytest.mark.parametrize(
    "low,high,inside",
    [
        (LOW, HIGH, True),
        (math.nextafter(LOW, -1.0), HIGH, False),
        (LOW, math.nextafter(HIGH, 2.0), False),
    ],
    ids=["at", "beyond-low", "beyond-high"],
)
def test_unit_interval_edge(low, high, inside):
    assert TransformedProbabilities(low, high).in_range is inside
    # rows and columns sum to 1 within EPS_ALG and p11*p21 == p12*p22, so
    # only the entry range can fail
    model = ProbabilityModel(0.5, 0.5, low, high, high, low, 0.0, 1)
    if inside:
        model.validate()
    else:
        with pytest.raises(PreconditionError, match=r"must lie in \[0, 1\]"):
            model.validate()


# -- table forms: one call per table, the verdict of one call per value -------


def around(x):
    """``x`` and the floats one ulp below and above it."""
    return [math.nextafter(x, -math.inf), x, math.nextafter(x, math.inf)]


#: Totals and probabilities at and one ulp around each tolerance edge, the
#: edges the rules compute, and the values no finite comparison accepts.
EDGE_VALUES = [
    *around(1.0 + EPS_ALG),
    *around(1.0 - EPS_ALG),
    *around(-EPS_ALG),
    *unit_sum_edge(),
    LOW,
    HIGH,
    0.0,
    -0.0,
    1.0,
    math.nan,
    math.inf,
    -math.inf,
]
tables = table(EDGE_VALUES)


def check_unit_sums_per_value(kind, *totals):
    """``_check_unit_sums`` as one rule call per total: None, or the refusal."""
    for index, total in enumerate(totals, start=1):
        if not _is_unit_sum(total):
            return f"{kind} {index} sums to {total}, expected 1"
    return None


@seeded(tables)
def test_unit_sum_table_is_the_per_value_verdict(totals):
    verdict = _is_unit_sum(*totals)
    assert verdict is all(_is_unit_sum(total) for total in totals)
    assert verdict is all(abs(total - 1.0) <= EPS_ALG for total in totals)
    expected = check_unit_sums_per_value("row", *totals)
    try:
        _check_unit_sums("row", *totals)
    except PreconditionError as exc:
        assert str(exc) == expected
    else:
        assert expected is None


@seeded(tables)
def test_unit_interval_table_is_the_per_value_verdict(values):
    verdict = _in_unit_interval(tuple(values))
    assert verdict is all(_in_unit_interval((p,)) for p in values)
    assert verdict is all(-EPS_ALG <= p <= 1.0 + EPS_ALG for p in values)
    if len(values) == 2:
        assert TransformedProbabilities(*values).in_range is verdict


@pytest.mark.parametrize("pair", [(math.nan, 0.5), (0.5, math.nan), (math.nan,) * 2])
def test_nan_is_outside_the_unit_interval(pair):
    assert _in_unit_interval(pair) is False
    assert TransformedProbabilities(*pair).in_range is False
    assert _is_unit_sum(*pair) is False


# -- positive cone: norm_sq >= -EPS_ALG ---------------------------------------


def tilted(y):
    """A unitary ``[[u, v], [-conj(v), conj(u)]]`` with ``u = j*y``, norm ``-y*y``."""
    u = SplitComplex(0.0, y)
    v = SplitComplex(math.sqrt(1.0 + y * y), 0.0)
    return Mat2(u, v, -v.conj(), u.conj())


def entry_witness(basis):
    """A claimed witness through ``basis`` that only the entry test can refuse.

    The state ``(1, -1 - j)`` is decomposable (squared norms 1 and 0); through
    ``tilted(y)`` its coordinate 1 has squared norm about ``-2*y``, far
    outside the cone.
    """
    beta = Vec2(ONE, SplitComplex(-1.0, -1.0))
    alpha = change_basis(beta, basis)
    return NonTransitivityWitness(beta, basis, alpha, 1, alpha.c1.norm_sq())


def band_witness(t):
    """A claimed witness that only the flagged coordinate can refuse.

    The state ``(amplitude(1, 0.3, t), amplitude(1, 0.7, 0))`` through
    ``make_decomposable_unitary(UnitaryParams(0.6, 0, 0, 0))``: the squared
    norm of coordinate 2 is ``0.54 - 2*sqrt(0.0504)*cosh(t)``.
    """
    beta = Vec2(amplitude(1, 0.3, t), amplitude(1, 0.7, 0.0))
    basis = make_decomposable_unitary(UnitaryParams(0.6, 0.0, 0.0, 0.0))
    alpha = change_basis(beta, basis)
    return NonTransitivityWitness(beta, basis, alpha, 2, alpha.c2.norm_sq())


def band_edge(norm_sq):
    """``(t0, t1)``: the band witness's squared norm is >= ``norm_sq`` at ``t0``
    and not at the next float ``t1``."""
    return edge(lambda t: band_witness(t).norm_sq >= norm_sq, 0.0, 1.0)


def cone_edge(tol):
    """``(y0, y1)``: ``-y*y`` is in the cone at ``tol`` for ``y0``, not for ``y1``."""
    return edge(lambda y: -(y * y) >= -tol, 0.0, 2.0 * math.sqrt(tol))


@pytest.mark.parametrize(
    "y,t,inside",
    zip(cone_edge(EPS_ALG), band_edge(-EPS_ALG), (True, False)),
    **AT_AND_BEYOND,
)
def test_cone_edge_at_eps_alg(y, t, inside, tmp_path, capsys):
    basis = tilted(y)
    assert is_orthonormal_rows(basis)
    assert basis.a11.in_positive_cone() is inside
    # squared norms 1 + 2**-30 (about) and -y*y still sum to 1 within EPS_ALG
    state = Vec2(SplitComplex(1.0 + 2.0**-31, 0.0), SplitComplex(0.0, y))
    assert decompose(state).decomposable is inside
    assert pipeline_probabilities(Vec2.basis1(), basis).decomposable is inside
    code = transform_code(tmp_path, capsys, Vec2.basis1(), basis)
    assert code == (0 if inside else 3)
    # the matrix entries: hyperq verify and verify_witness's entry test agree
    code, report = verify_report(tmp_path, capsys, basis)
    assert report["entries_in_g_plus"] is inside
    assert code == (0 if inside else 3)
    assert verify_witness(entry_witness(basis)) is inside
    # a witness is exactly a transformed state that decompose refuses
    w = band_witness(t)
    assert pipeline_probabilities(w.beta, w.basis).decomposable is inside
    assert verify_witness(w) is not inside


@pytest.mark.parametrize(
    "y,t,inside",
    zip(cone_edge(EPS_MEM), band_edge(-EPS_MEM), (True, False)),
    **AT_AND_BEYOND,
)
def test_cone_edge_at_eps_mem(y, t, inside, tmp_path, capsys):
    """EPS_MEM is no cone edge: on both sides every entry point says inside.

    One float beyond, the squared norms lie in ``(-EPS_ALG, -EPS_MEM)``: as a
    matrix entry that passes ``hyperq verify`` and ``verify_witness``, as a
    coordinate it makes no witness.  Only an explicit ``tol`` moves the edge.
    """
    basis = tilted(y)
    assert basis.a11.in_positive_cone(EPS_MEM) is inside
    assert basis.a11.in_positive_cone() is True
    code, report = verify_report(tmp_path, capsys, basis)
    assert report["entries_in_g_plus"] is True
    assert code == 0
    assert verify_witness(entry_witness(basis)) is True
    w = band_witness(t)
    assert (w.norm_sq >= -EPS_MEM) is inside and w.norm_sq > -EPS_ALG
    assert pipeline_probabilities(w.beta, w.basis).decomposable is True
    assert transform_code(tmp_path, capsys, w.beta, w.basis) == 0
    assert verify_witness(w) is False


# -- negligible phase: a coefficient's phase is read when norm_sq > EPS_MEM ----

#: A coefficient whose squared norm is ``EPS_MEM`` exactly.
AT_EPS_MEM = (1.2869945791015625e-06, 8.101574208984375e-07)


@pytest.mark.parametrize(
    "x,phase_read",
    [(AT_EPS_MEM[0], False), (math.nextafter(AT_EPS_MEM[0], 1.0), True)],
    **AT_AND_BEYOND,
)
def test_negligible_phase_edge(x, phase_read):
    c = SplitComplex(x, AT_EPS_MEM[1])
    assert (c.norm_sq() > EPS_MEM) is phase_read
    rest = SplitComplex(math.sqrt(1.0 - EPS_MEM), 0.0)
    first, second = decompose(Vec2(c, rest)).phases
    assert (first is not None) is phase_read
    assert second == Phase(1, 0.0)


# -- common phase and opposite signs: |theta1 - theta2| <= EPS_ALG ------------

STATE = Vec2(amplitude(1, 0.5, 0.0), amplitude(1, 0.5, 0.0))


def skewed(t):
    """Column phases 0 and about ``t``, opposite signs, a negligible residual."""
    half = amplitude(1, 0.5, 0.0)
    return Mat2(half, half, half, amplitude(-1, 0.5, -t))


PHASE_EDGE = edge(
    lambda t: abs(check_sign_phase_constraints(skewed(t), STATE).theta_diff) <= EPS_ALG,
    0.0,
    2.0 * EPS_ALG,
)


@pytest.mark.parametrize("t,common", zip(PHASE_EDGE, (True, False)), **AT_AND_BEYOND)
def test_common_phase_edge(t, common):
    report = check_sign_phase_constraints(skewed(t), STATE)
    assert report.opposite_signs
    assert abs(report.residual) <= EPS_ALG
    assert report.satisfied is common
    if common:
        assert extract_model(STATE, skewed(t)).theta == report.theta1
    else:
        with pytest.raises(PreconditionError, match="columns disagree on the phase"):
            extract_model(STATE, skewed(t))


# -- regime band: classify's |lambda| against _TRIG_MAX, _HYP_MIN, _LAMBDA_MAX --


def band_lambda(pprime):
    """``lambda`` of ``classify(pprime, 1.0, 1.0)`` in its own operations (root 1)."""
    return (pprime - 1.0 - 1.0) / 1.0 / 2.0


def band_regime(pprime):
    """The regime ``classify`` gives ``(pprime, 1.0, 1.0)``; None when it refuses."""
    try:
        return classify(pprime, 1.0, 1.0).regime
    except DegenerateInputsError:
        return None


# (lambda at a bound, pprime giving it, the next float pprime beyond, regimes);
# _TRIG_MAX is reached from below zero: above it, adjacent pprimes step
# lambda by two floats
BAND_EDGES = [
    (
        -_TRIG_MAX,
        *edge(lambda x: band_lambda(x) <= -_TRIG_MAX, 0.0, 1.0),
        (BOUNDARY, TRIG),
    ),
    (_HYP_MIN, *edge(lambda x: band_lambda(x) <= _HYP_MIN, 2.0, 8.0), (BOUNDARY, HYP)),
    (
        _LAMBDA_MAX,
        *edge(lambda x: band_lambda(x) <= _LAMBDA_MAX, 2.0, 4.0 * _LAMBDA_MAX),
        (HYP, None),
    ),
]


@pytest.mark.parametrize(
    "bound,at,beyond,regimes", BAND_EDGES, ids=["trig-max", "hyp-min", "lambda-max"]
)
def test_regime_band_edges(bound, at, beyond, regimes):
    assert band_lambda(at) == bound
    assert classify(at, 1.0, 1.0).lambda_ == bound
    assert (band_regime(at), band_regime(beyond)) == regimes


# -- the AST lock ---------------------------------------------------------------

#: Every comparison in ``src/hyperq`` that names a tolerance constant, a
#: regime band bound or ``in_positive_cone``'s ``tol``, by function.  A rule
#: is decided where it appears here; a new comparison means a new rule or a
#: copy of an old one.
ALLOWED = {
    "algebra.SplitComplex.in_positive_cone": [
        "tol >= 0",
        "self.norm_sq() >= -tol",
    ],
    "algebra._in_cone": ["ns >= -EPS_ALG"],
    "born._phase_of": ["ns <= EPS_MEM"],
    "born.ProbabilityModel.validate": ["abs(gap) > EPS_ALG"],
    "born._in_unit_interval": ["-EPS_ALG <= p <= 1.0 + EPS_ALG"],
    "born._polar_or_absent": ["abs(q) <= EPS_MEM"],
    "born._sign_phase": ["abs(theta_diff) <= EPS_ALG"],
    "born.check_sign_phase_constraints": ["abs(residual) <= EPS_ALG"],
    "interference.classify": ["mag > _LAMBDA_MAX", "mag < _TRIG_MAX", "mag > _HYP_MIN"],
    "space.is_orthonormal_rows": ["orthonormality_residual(m) <= EPS_ALG"],
    "space._is_unit_sum": ["abs(total - 1.0) <= EPS_ALG"],
    "witness.verify_witness": [
        "alpha.dist(w.alpha) > EPS_ALG",
        "abs(ns - w.norm_sq) <= EPS_ALG",
    ],
}

TOLERANCE_NAMES = {
    "EPS_ALG",
    "EPS_MEM",
    "EPS_CLS",
    "_TRIG_MAX",
    "_HYP_MIN",
    "_LAMBDA_MAX",
    "tol",
}


def names_a_tolerance(node):
    """A comparison that names one of ``TOLERANCE_NAMES``."""
    if not isinstance(node, ast.Compare):
        return False
    names = {
        sub.id if isinstance(sub, ast.Name) else sub.attr
        for sub in ast.walk(node)
        if isinstance(sub, (ast.Name, ast.Attribute))
    }
    return bool(names & TOLERANCE_NAMES)


def test_tolerance_comparisons_are_the_allowed_ones():
    assert scan(names_a_tolerance) == ALLOWED


def is_squared_norm(node):
    """A product ``(a - b) * (a + b)``, its factors and the sum's terms in
    either order."""
    if not (isinstance(node, ast.BinOp) and isinstance(node.op, ast.Mult)):
        return False
    factors = node.left, node.right
    if not all(isinstance(f, ast.BinOp) for f in factors):
        return False
    if {type(f.op) for f in factors} != {ast.Sub, ast.Add}:
        return False
    diff, total = sorted(factors, key=lambda f: isinstance(f.op, ast.Add))
    terms = [sorted(map(ast.dump, (f.left, f.right))) for f in (diff, total)]
    return terms[0] == terms[1]


@pytest.mark.parametrize(
    "source,found",
    [
        ("(x - y) * (x + y)", True),
        ("(c.x + c.y) * (c.x - c.y)", True),
        ("(x - y) * (y + x)", True),
        ("(x - y) * (x - y)", False),
        ("(x - y) * (z + y)", False),
        ("(x - y) + (x + y)", False),
    ],
)
def test_squared_norm_matcher(source, found):
    assert is_squared_norm(ast.parse(source, mode="eval").body) is found


def test_squared_norm_is_read_in_one_place():
    """Every squared norm goes through ``SplitComplex.norm_sq``, so a change
    to how it is read (its range, its rounding) is a change to one function."""
    # the halves' product, which norm_sq scales back by 4
    assert scan(is_squared_norm) == {
        "algebra.SplitComplex.norm_sq": ["(x - y) * (x + y)"]
    }
