"""Accuracy of hyperq's floating-point results against exact references.

The references use only the standard library: ``fractions.Fraction`` for
split-complex ring operations and ``norm_sq`` (exact on the binary inputs),
and 60-digit ``decimal`` Taylor series for cos and cosh.  The inputs come
from a fixed seed, not the run's seed, so the figures are comparable
between runs and commits; they are reported, not gated.
"""

from __future__ import annotations

import math
import random
from decimal import Decimal, localcontext
from fractions import Fraction

from hyperq import Mat2, PreconditionError, Vec2, change_basis, extract_model, hyp_law
from hyperq import transform_probabilities, trig_law

from workloads import born_pair

DIGITS = 60
SEED = 20260101
# the hyp_law minus branch at p1 = p2 = 1/4, where it cancels (ROADMAP item 3)
CANCELLATION = [(0.25, 0.25, theta, -1) for theta in (1e-2, 1e-4, 1e-6)]


def cos_cosh(x: float, hyperbolic: bool) -> Decimal:
    """cosh(x) or cos(x) of the binary value x, to about DIGITS digits."""
    with localcontext() as ctx:
        ctx.prec = DIGITS + 10
        x2 = Decimal(x) * Decimal(x)
        term = total = Decimal(1)
        k = 0
        while True:
            k += 2
            term = term * x2 / ((k - 1) * k)
            total += term if hyperbolic else (-term if k % 4 == 2 else term)
            if term < total.copy_abs().scaleb(-(DIGITS + 5)):
                return +total


def exact_law(p1, p2, theta, sign, hyperbolic):
    with localcontext() as ctx:
        ctx.prec = DIGITS
        a, b = Decimal(p1), Decimal(p2)
        return a + b + sign * 2 * (a * b).sqrt() * cos_cosh(theta, hyperbolic)


def rel_err(got: float, exact: Decimal) -> float:
    if exact == 0:
        return 0.0 if got == 0 else math.inf
    return float(abs((Decimal(got) - exact) / exact))


def law_errors(rng, n=200):
    """Largest relative error of hyp_law and of trig_law."""
    hyp = trig = 0.0
    cases = [(1.0 - rng.random(), 1.0 - rng.random(), rng.uniform(0, 6), rng.choice((1, -1)))
             for _ in range(n)]
    for p1, p2, theta, sign in cases + CANCELLATION:
        hyp = max(hyp, rel_err(hyp_law(p1, p2, theta, sign), exact_law(p1, p2, theta, sign, True)))
    for _ in range(n):
        p1, p2, theta = 1.0 - rng.random(), 1.0 - rng.random(), rng.uniform(0, math.pi)
        trig = max(trig, rel_err(trig_law(p1, p2, theta), exact_law(p1, p2, theta, 1, False)))
    return hyp, trig


def exact_norms(state, matrix):
    """Exact norm_sq of each coordinate of state times matrix."""
    q = [[Fraction(c) for c in z] for z in state]
    out = []
    for k in (0, 1):
        m1 = [Fraction(c) for c in matrix[0][k]]
        m2 = [Fraction(c) for c in matrix[1][k]]
        x = q[0][0] * m1[0] + q[0][1] * m1[1] + q[1][0] * m2[0] + q[1][1] * m2[1]
        y = q[0][0] * m1[1] + m1[0] * q[0][1] + q[1][0] * m2[1] + m2[0] * q[1][1]
        out.append(x * x - y * y)
    return out


def route_errors(rng, n=200):
    """Largest gap between the routes, and each route's error against exact.

    The linear-algebra route is norm_sq of change_basis; the closed form is
    transform_probabilities of extract_model.  Pairs a route rejects are
    skipped; the benchmark's born-transform check counts those.
    """
    gap = linalg = closed = 0.0
    for _ in range(n):
        state, matrix, _ = born_pair(rng, "valid")
        beta, basis = Vec2.from_list(state), Mat2.from_list(matrix)
        try:
            alpha = change_basis(beta, basis)
            p = transform_probabilities(extract_model(beta, basis))
        except PreconditionError:
            continue
        exact = exact_norms(state, matrix)
        for ns, pk, ex in zip((alpha.c1.norm_sq(), alpha.c2.norm_sq()), p, exact):
            gap = max(gap, abs(ns - pk))
            linalg = max(linalg, abs(Fraction(ns) - ex))
            closed = max(closed, abs(Fraction(pk) - ex))
    return gap, float(linalg), float(closed)


def metrics():
    rng = random.Random(SEED)
    hyp, trig = law_errors(rng)
    gap, linalg, closed = route_errors(rng)
    return {
        "interference.hyp_law.max_rel_err": hyp,
        "interference.trig_law.max_rel_err": trig,
        "born.route_gap.max": gap,
        "born.linalg.max_err": linalg,
        "born.closed_form.max_err": closed,
    }
