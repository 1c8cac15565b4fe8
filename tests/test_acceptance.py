"""Acceptance gate: one test per criterion, each printing a PASS/FAIL line.

Every check runs at desk scale with a fixed seed, so the whole gate is
deterministic and finishes in seconds.  Run with ``pytest
tests/test_acceptance.py -v`` (the verdict lines print straight to the
terminal, bypassing capture).
"""

import math
import random
import subprocess
import sys

import pytest
from cli_cases import GOLDEN, GOLDEN_CASES

from hyperq.algebra import EPS_ALG, SplitComplex, expj
from hyperq.born import (
    ProbabilityModel,
    amplitude,
    transform_probabilities,
)
from hyperq.errors import DegenerateNormError
from hyperq.interference import (
    BOUNDARY,
    HYP,
    TRIG,
    classify,
    hyp_law,
    hyp_linearization_residual,
    trig_law,
    trig_linearization_residual,
)
from hyperq.space import (
    Vec2,
    change_basis,
    doubly_stochastic_residual,
    is_orthonormal_rows,
    prob_matrix,
)
from hyperq.witness import (
    UnitaryParams,
    make_decomposable_unitary,
    search_non_transitivity,
    verify_witness,
)


@pytest.fixture
def announce(capsys):
    def _announce(num: int, label: str, ok: bool, detail: str = "") -> None:
        verdict = "PASS" if ok else "FAIL"
        suffix = f" ({detail})" if detail and not ok else ""
        with capsys.disabled():
            print(f"ACCEPTANCE {num} [{label}]: {verdict}{suffix}")
        assert ok, f"criterion {num} ({label}) failed {suffix}"

    return _announce


def random_number(rng: random.Random) -> SplitComplex:
    return SplitComplex(rng.uniform(-10, 10), rng.uniform(-10, 10))


def test_criterion_1_algebra_laws(announce):
    rng = random.Random(101)
    bad = 0
    for _ in range(10_000):
        a, b, c = (random_number(rng) for _ in range(3))
        scale2 = max(1.0, a.mag() * b.mag() * c.mag())
        checks = [
            a + b == b + a,
            (a + b) + c == (a + c) + b or ((a + b) + c).dist(a + (b + c)) <= 1e-9,
            a * b == b * a,
            ((a * b) * c).dist(a * (b * c)) <= 1e-9 * scale2,
            (a * (b + c)).dist(a * b + a * c) <= 1e-9 * scale2,
            a + SplitComplex(0, 0) == a,
            a * SplitComplex(1, 0) == a,
            (a + b).conj() == a.conj() + b.conj(),
            (a * b).conj() == a.conj() * b.conj(),
            a.conj().conj() == a,
            abs((a * b).norm_sq() - a.norm_sq() * b.norm_sq())
            <= 1e-9 * max(1.0, (a.mag() * b.mag()) ** 2),
        ]
        bad += not all(checks)
    announce(1, "algebra laws", bad == 0, f"{bad} failing triples")


def test_criterion_2_polar_round_trip(announce):
    rng = random.Random(202)
    bad = 0
    collected = 0
    while collected < 10_000:
        z = random_number(rng)
        if z.norm_sq() <= 1e-6:
            continue
        collected += 1
        back = z.polar().to_number()
        if z.dist(back) > 1e-9 * max(1.0, z.mag()):
            bad += 1
    rejected = 0
    cone = 0
    for _ in range(1_000):
        t = rng.uniform(-10, 10)
        if t == 0.0:
            continue
        for z in (SplitComplex(t, t), SplitComplex(t, -t)):
            cone += 1
            try:
                z.polar()
            except DegenerateNormError:
                rejected += 1
    ok = bad == 0 and rejected == cone
    announce(
        2,
        "polar round trip",
        ok,
        f"{bad} bad reconstructions, {cone - rejected} unrejected cone points",
    )


def test_criterion_3_linearization_identities(announce):
    rng = random.Random(303)
    worst = 0.0
    for _ in range(10_000):
        a = rng.uniform(0, 10)
        b = rng.uniform(0, 10)
        theta = rng.uniform(-5, 5)
        worst = max(
            worst,
            trig_linearization_residual(a, b, theta),
            hyp_linearization_residual(a, b, theta, 1),
            hyp_linearization_residual(a, b, theta, -1),
        )
    announce(3, "linearization identities", worst <= 1e-9, f"worst residual {worst}")


def generated_pair(rng: random.Random):
    """A decomposable (state, unitary) pair plus the model that built it.

    The closed form is evaluated at the generator's own parameters: the
    materialized split-complex data carries phase rounding of order
    sinh(2*gamma)*ulp near the light cone, so a model re-fitted from the
    stored floats is several orders of magnitude less accurate than the
    parameters the pair was constructed from.
    """
    q1 = rng.uniform(0.02, 0.98)
    sign1, sign2 = rng.choice([1, -1]), rng.choice([1, -1])
    xi1, xi2 = rng.uniform(-3, 3), rng.uniform(-3, 3)
    beta = Vec2(amplitude(sign1, q1, xi1), amplitude(sign2, 1 - q1, xi2))
    p = rng.uniform(0.02, 0.98)
    gamma1, gamma2, delta = (rng.uniform(-3, 3) for _ in range(3))
    basis = make_decomposable_unitary(UnitaryParams(p, gamma1, gamma2, delta))
    model = ProbabilityModel(
        q1,
        1 - q1,
        p,
        1 - p,
        1 - p,
        p,
        theta=(xi1 - xi2) + delta,
        eps1=sign1 * sign2,
    )
    return beta, basis, model


def test_criterion_4_closed_form_equivalence(announce):
    rng = random.Random(404)
    worst_gap = 0.0
    worst_sum = 0.0
    for _ in range(1_000):
        beta, basis, model = generated_pair(rng)
        closed = transform_probabilities(model)
        alpha = change_basis(beta, basis)
        worst_gap = max(
            worst_gap,
            abs(closed.p1 - alpha.c1.norm_sq()),
            abs(closed.p2 - alpha.c2.norm_sq()),
        )
        worst_sum = max(worst_sum, abs(closed.p1 + closed.p2 - 1.0))
    ok = worst_gap <= 1e-9 and worst_sum <= 1e-9
    announce(
        4,
        "closed form vs pipeline",
        ok,
        f"worst gap {worst_gap}, worst sum error {worst_sum}",
    )


def test_criterion_5_constraint_necessity(announce):
    rng = random.Random(505)
    equal_ok = True
    opposite_worst = 0.0
    for _ in range(1_000):
        q1 = rng.uniform(0.05, 0.95)
        p = rng.uniform(0.05, 0.95)
        theta = rng.uniform(0.1, 3.0)
        eps = rng.choice([1, -1])
        ch = math.cosh(theta)
        # equal signs on both interference terms: total must drift from 1
        p1 = q1 * p + (1 - q1) * (1 - p) + eps * 2 * math.sqrt(
            q1 * p * (1 - q1) * (1 - p)
        ) * ch
        p2 = q1 * (1 - p) + (1 - q1) * p + eps * 2 * math.sqrt(
            q1 * (1 - p) * (1 - q1) * p
        ) * ch
        if abs(p1 + p2 - 1.0) <= 1e-3:
            equal_ok = False
        model = ProbabilityModel(q1, 1 - q1, p, 1 - p, 1 - p, p, theta, eps)
        out = transform_probabilities(model)
        opposite_worst = max(opposite_worst, abs(out.p1 + out.p2 - 1.0))
    ok = equal_ok and opposite_worst <= 1e-9
    announce(
        5,
        "opposite-sign necessity",
        ok,
        f"equal-sign drift detected: {equal_ok}, opposite worst {opposite_worst}",
    )


def test_criterion_6_classifier_round_trips(announce):
    rng = random.Random(606)
    trig_worst = 0.0
    hyp_worst = 0.0
    regime_ok = True
    for _ in range(3_000):
        p1 = rng.uniform(0.05, 1.0)
        p2 = rng.uniform(0.05, 1.0)
        theta = rng.uniform(0.01, math.pi - 0.01)
        v = classify(trig_law(p1, p2, theta), p1, p2)
        regime_ok &= v.regime == TRIG and v.sign == 1
        trig_worst = max(trig_worst, abs(v.theta - theta))
        theta = rng.uniform(0.01, 10.0)
        sign = rng.choice([1, -1])
        v = classify(hyp_law(p1, p2, theta, sign), p1, p2)
        regime_ok &= v.regime == HYP and v.sign == sign
        hyp_worst = max(hyp_worst, abs(v.theta - theta))
    band_ok = True
    for offset in (0.0, 2e-10, -2e-10, 9e-10, -9e-10):
        lam = 1.0 + offset
        band_ok &= classify(0.5 + 0.5 * lam, 0.25, 0.25).regime == BOUNDARY
    for offset in (5e-9, -5e-9, 1e-6, -1e-6):
        lam = 1.0 + offset
        band_ok &= classify(0.5 + 0.5 * lam, 0.25, 0.25).regime != BOUNDARY
    ok = regime_ok and trig_worst <= 1e-9 and hyp_worst <= 1e-8 and band_ok
    announce(
        6,
        "classifier round trips",
        ok,
        f"trig worst {trig_worst}, hyp worst {hyp_worst}, band ok {band_ok}",
    )


def test_criterion_7_unitary_stochastic_link(announce):
    rng = random.Random(707)
    bad = 0
    for _ in range(10_000):
        m = make_decomposable_unitary(
            UnitaryParams(
                rng.uniform(0.001, 0.999),
                rng.uniform(-3, 3),
                rng.uniform(-3, 3),
                rng.uniform(-3, 3),
            )
        )
        p = prob_matrix(m)
        checks = (
            is_orthonormal_rows(m)
            and doubly_stochastic_residual(p) <= 1e-9
            and abs(p[0][0] - p[1][1]) <= 1e-9
            and abs(p[0][1] - p[1][0]) <= 1e-9
        )
        bad += not checks
    announce(7, "unitary/doubly stochastic", bad == 0, f"{bad} failing matrices")


def test_criterion_8_non_transitivity(announce):
    beta = Vec2(amplitude(1, 0.5, math.log(2)), amplitude(1, 0.5, 0.0))
    basis = make_decomposable_unitary(UnitaryParams(0.5, 0.0, 0.0, 0.0))
    alpha = change_basis(beta, basis)
    analytic_ok = abs(alpha.c2.norm_sq() + 0.125) <= 1e-12
    w = search_non_transitivity(1, 10_000)
    search_ok = w is not None and verify_witness(w)
    ok = analytic_ok and search_ok
    announce(
        8,
        "non-transitivity witness",
        ok,
        f"analytic norm {alpha.c2.norm_sq()}, search found {w is not None}",
    )


def run_cli(argv):
    return subprocess.run(
        [sys.executable, "-m", "hyperq", *argv], capture_output=True, text=True
    )


def test_criterion_9_cli_contract(announce):
    failures = []
    # each golden once; test_cli runs them twice, buffered and unbuffered
    for name, expected_code, argv in GOLDEN_CASES:
        proc = run_cli(argv)
        if proc.returncode != expected_code:
            failures.append(f"{name}: exit {proc.returncode}")
        elif proc.stdout != (GOLDEN / name).read_text():
            failures.append(f"{name}: output drifted from golden")
    announce(9, "CLI golden contract", not failures, "; ".join(failures))
