"""Seeded generators: the one source of random test inputs.

Each generator takes a ``random.Random`` and returns one value.  ``check``
runs a property over seeds 0 to n - 1, drawing its arguments from
``Draws(seed)``, so every run draws the same inputs, and a failure names
its seed and the arguments it drew.  ``seeded`` is ``check`` as a test
decorator, with explicit cases run first.

A ``Domain`` needs a ``Draws``, the ``random.Random`` that also knows its
seed, because it draws its edges first: at seed s, the k-th edge draw of a
run takes edge (s + k) mod m of a domain with m edges while s < m, so
seeds 0 to m - 1 give every argument every edge; later seeds draw at
random, half the floats uniform in value and half in the exponent.  A
``floats`` domain lists its bounds and their inward neighbours, and ±0.0,
5e-324, the smallest normal and 1.0 where they lie inside; ``any_float``
adds NaN, ±inf and ±max.  A union of domains lists every edge of every
branch, and ``one_of`` draws each of its branches first.

The contract fuzzer's generators (``real`` to ``state``) take any
``random.Random`` and draw no edges, so a seed builds the command line it
always built.
"""

import functools
import inspect
import math
import operator
import random
import sys

from hyperq._rules import THETA_MAX
from hyperq.algebra import SplitComplex
from hyperq.born import amplitude
from hyperq.space import Mat2, Vec2
from hyperq.witness import UnitaryParams, make_decomposable_unitary

#: Draws per property, hypothesis's default before.
DRAWS = 100

MAX = sys.float_info.max


class Draws(random.Random):
    """``random.Random(seed)`` that also counts its edge draws."""

    def __init__(self, seed: int) -> None:
        super().__init__(seed)
        self.index = seed
        self.edge_draws = 0

    def edge(self, count: int):
        """The index of the edge that this draw takes among ``count``, or
        None once the seed is past them."""
        if self.index >= count:
            return None
        at = (self.index + self.edge_draws) % count
        self.edge_draws += 1
        return at


def check(prop, *generators, draws: int = DRAWS) -> None:
    """``prop`` on arguments drawn by ``generators`` from ``Draws(seed)``,
    for seeds 0 to ``draws`` - 1; a failure names the seed and arguments."""
    for seed in range(draws):
        rng = Draws(seed)
        args = [generate(rng) for generate in generators]
        try:
            prop(*args)
        except Exception as exc:
            raise AssertionError(f"seed {seed}: {', '.join(map(repr, args))}") from exc


def seeded(*generators, draws: int = DRAWS, cases=()):
    """``check`` as a test decorator: the test runs on each of the explicit
    ``cases``, a tuple of arguments each, then on ``draws`` seeded draws.
    The drawn arguments are the test's last; pytest sees only those before."""

    def decorate(test):
        params = list(inspect.signature(test).parameters.values())

        @functools.wraps(test)
        def run(*fixed):
            for index, args in enumerate(cases):
                try:
                    test(*fixed, *args)
                except Exception as exc:
                    raise AssertionError(f"case {index}: {', '.join(map(repr, args))}") from exc
            check(functools.partial(test, *fixed), *generators, draws=draws)

        run.__signature__ = inspect.Signature(params[: len(params) - len(generators)])
        return run

    return decorate


class Domain:
    """Values that ``draw(rng)`` gives at random, edges first."""

    def __init__(self, draw, edges) -> None:
        self.draw = draw
        # one of each edge, -0.0 apart from 0.0, in order
        self.edges = list({repr(edge): edge for edge in edges}.values())
        self.branches = [self]

    def __call__(self, rng: Draws):
        at = rng.edge(len(self.edges))
        return self.draw(rng) if at is None else self.edges[at]

    def __or__(self, other: "Domain") -> "Domain":
        """The union: every edge of every branch, then a branch at random."""
        branches = self.branches + other.branches
        union = Domain(lambda rng: rng.choice(branches).draw(rng), self.edges + other.edges)
        union.branches = branches
        return union


def floats(lo: float, hi: float) -> Domain:
    """Doubles in [lo, hi]: half the draws uniform in value, half in the
    exponent, so that a range through zero reaches the subnormals."""
    inside = [x for x in (0.0, -0.0, 5e-324, sys.float_info.min, 1.0) if lo < x < hi]
    tiny = 0.0 if lo <= 0.0 <= hi else min(abs(lo), abs(hi))
    low = math.frexp(tiny)[1] if tiny else -1074
    high = math.frexp(max(abs(lo), abs(hi)))[1]

    def draw(rng):
        if rng.random() < 0.5:
            return rng.uniform(lo, hi)
        x = math.ldexp(0.5 + 0.5 * rng.random(), rng.randint(low, high))
        if hi <= 0.0 or (lo < 0.0 and rng.random() < 0.5):
            x = -x
        return min(max(x, lo), hi)

    return Domain(draw, [lo, math.nextafter(lo, hi), hi, math.nextafter(hi, lo), *inside])


def integers(lo: int, hi: int) -> Domain:
    return Domain(lambda rng: rng.randint(lo, hi), [lo, hi])


def sampled(values) -> Domain:
    values = list(values)
    return Domain(lambda rng: rng.choice(values), values)


def one_of(*branches):
    """Each branch first, then one at random: for branches that are no
    ``Domain``, whose edges are their parts'."""
    pick = sampled(range(len(branches)))
    return lambda rng: branches[pick(rng)](rng)


def builds(make, *parts):
    """``make`` of one draw of each part, in order."""
    return lambda rng: make(*(part(rng) for part in parts))


def _pair(*values):
    return values


# -- the contract fuzzer's generators ---------------------------------------------

#: The landmarks of the double range, each with both signs.
LANDMARKS = [
    sign * x
    for x in (0.0, 5e-324, sys.float_info.min, 1e-200, 1e-154, 1.0, 1e154, 1e200, 1e308, MAX)
    for sign in (1.0, -1.0)
]

#: Scales that take a unit-sized matrix or state toward either end of the range.
SCALES = [1e-154, 1e154, 1e300, 1e307, 1e308, MAX]

#: Top-of-range matrices: a cross term of 1e308, answered; row products
#: that overflow, alone or to inf and -inf; a light-cone entry whose x + y
#: is not a double; a column sum of the squared moduli that overflows.
#: The row products to inf and -inf give the orthonormality residual 1e308,
#: but ``verify`` refuses that matrix: its exact column sum, 1e616, is no
#: double.  Last, squared moduli that overflow to inf and -inf in one row,
#: whose sum is NaN: the stochasticity residual, about 4e308, is no double.
TOP_MATRICES = [
    [[[1e308, 1e308], [1e308, 1e308]], [[0, 0], [1, 0]]],
    [[[1e308, 0], [0, 0]], [[0, 0], [1, 0]]],
    [[[1e308, 0], [0, 1e308]], [[0, 0], [1, 0]]],
    [[[1e308, 1e308], [0, 0]], [[0, 0], [1, 0]]],
    [[[0, 1e154], [1, 0]], [[0, 1e154], [0, 1]]],
    [[[2e154, 0], [0, 2e154]], [[0, 0], [1, 0]]],
]


def real(rng: random.Random) -> float:
    """A landmark, a uniform draw near 1, or a draw uniform in the exponent."""
    kind = rng.random()
    if kind < 0.4:
        return rng.choice(LANDMARKS)
    if kind < 0.7:
        return rng.uniform(-2.0, 2.0)
    return rng.choice((1.0, -1.0)) * math.ldexp(rng.random(), rng.randint(-1074, 1024))


def probability(rng: random.Random) -> float:
    """Half the time in [0, 1], else a real, negative one time in thirteen."""
    kind = rng.random()
    if kind < 0.5:
        return rng.random()
    return abs(real(rng)) if kind < 0.85 else real(rng)


def phase(rng: random.Random) -> float:
    """A phase for a sweep: mostly within 20, else any real."""
    return rng.uniform(-20.0, 20.0) if rng.random() < 0.6 else real(rng)


def angles(rng: random.Random, count: int) -> list:
    """``count`` phases within one bound, 1, 3, 20 or 100, so that the
    difference of two is within ``THETA_MAX``, which ``amplitude`` takes.
    Above a phase of about 5, a unitary's rounded entries are no longer
    orthonormal within ``EPS_ALG``."""
    bound = rng.choice((1.0, 3.0, 3.0, 20.0, 100.0))
    return [rng.uniform(-bound, bound) for _ in range(count)]


def moved(pairs: list, rng: random.Random) -> list:
    """``pairs`` with every component moved by the same few ulps and, one
    time in three, scaled by one of ``SCALES``, clamped to the largest
    double."""
    steps = rng.randint(-4, 4)
    scale = rng.choice(SCALES) if rng.random() < 0.35 else 1.0
    toward = math.copysign(math.inf, steps)

    def move(x: float) -> float:
        for _ in range(abs(steps)):
            x = math.nextafter(x, toward)
        return max(-MAX, min(MAX, x * scale))

    return [[move(x), move(y)] for x, y in pairs]


def raw_entry(rng: random.Random) -> list:
    """An entry of two reals, or on the light cone, where x*x - y*y cancels."""
    x = real(rng)
    return [x, rng.choice((x, -x))] if rng.random() < 0.3 else [x, real(rng)]


def matrix(rng: random.Random) -> list:
    """Mostly a decomposable unitary, else raw or top-of-range entries."""
    kind = rng.random()
    if kind < 0.2:
        return [[raw_entry(rng), raw_entry(rng)], [raw_entry(rng), raw_entry(rng)]]
    if kind < 0.8:
        params = UnitaryParams(rng.uniform(1e-6, 1 - 1e-6), *angles(rng, 3))
        pairs = [(z.x, z.y) for z in make_decomposable_unitary(params).entries()]
    else:
        pairs = [pair for row in rng.choice(TOP_MATRICES) for pair in row]
    a, b, c, d = moved(pairs, rng)
    return [[a, b], [c, d]]


def state(rng: random.Random) -> list:
    """Mostly a normalized state of two amplitudes, else raw entries."""
    if rng.random() < 0.25:
        return [raw_entry(rng), raw_entry(rng)]
    q = rng.random()
    xi1, xi2 = angles(rng, 2)
    pair = [amplitude(rng.choice((1, -1)), q, xi1), amplitude(rng.choice((1, -1)), 1.0 - q, xi2)]
    return moved([(z.x, z.y) for z in pair], rng)


# -- the property tests' domains --------------------------------------------------

#: Every double: NaN, the infinities and the largest double among the edges.
any_float = Domain(real, [math.nan, math.inf, -math.inf, MAX, -MAX, 0.0, -0.0, 5e-324,
                          sys.float_info.min, 1.0])

sign = sampled([1, -1])
coord = floats(-10.0, 10.0)
wide_coord = floats(-1e3, 1e3)
weight = floats(0.05, 0.95)
phase3 = floats(-3.0, 3.0)
phase5 = floats(-5.0, 5.0)

number = builds(SplitComplex, coord, coord)
wide_number = builds(SplitComplex, wide_coord, wide_coord)
vector = builds(Vec2, number, number)
wide_vector = builds(Vec2, wide_number, wide_number)
wide_matrix = builds(Mat2, wide_number, wide_number, wide_number, wide_number)


def unitary(rng: Draws) -> Mat2:
    """A decomposable unitary: a weight and three phases within 3."""
    return make_decomposable_unitary(UnitaryParams(weight(rng), *(phase3(rng) for _ in range(3))))


def normalized_state(rng: Draws) -> Vec2:
    """Two amplitudes whose squared norms q and 1 - q sum to 1."""
    s1, s2, q, xi1, xi2 = sign(rng), sign(rng), weight(rng), phase3(rng), phase3(rng)
    return Vec2(amplitude(s1, q, xi1), amplitude(s2, 1 - q, xi2))


# components scaled toward the largest double
unit_coord = floats(-1.0, 1.0)
top_scale = sampled([1e154, 1e200, 1e300, 1e307, 1e308, MAX])
top_coord = builds(operator.mul, unit_coord, top_scale)
top_number = builds(SplitComplex, top_coord, top_coord)


def light_cone_number(rng: Draws) -> SplitComplex:
    x = top_coord(rng)
    return SplitComplex(x, sign(rng) * x)


def j_dominant_number(rng: Draws) -> SplitComplex:
    """|y| > |x|: a negative squared norm."""
    return SplitComplex(1e-3 * top_coord(rng), top_coord(rng))


# rows near the top of the range, or small, so that a large row meets a small one
top_row = one_of(
    *(builds(Vec2, n, n) for n in (top_number, light_cone_number, j_dominant_number)), vector
)
top_matrix = builds(Mat2.from_rows, top_row, top_row)
residual_matrix = one_of(wide_matrix, unitary, top_matrix)

# arguments with every edge of amplitude's guards, and signs that pass and fail
amplitude_arg = sampled(
    [math.nan, math.inf, -math.inf, 0.0, -0.0, 5e-324, 0.5, 1.0, 1e308, -1.0]
    + [THETA_MAX, -THETA_MAX, math.nextafter(THETA_MAX, 400.0), 10**400, -(10**400)]
    + [True, False, "0.5", None]
) | any_float
amplitude_sign = sampled([1, -1, 0, 2, 1.0, -1.0, True, False, 1.5, math.nan, "1", None])

# the interference laws: weights, phases, and the oracle's ranges, where no
# intermediate result underflows, so that a relative bound holds
law_weight = floats(0.0, 10.0)
positive_weight = floats(0.05, 1.0)
hyp_phase = floats(-THETA_MAX, THETA_MAX)
oracle_weight = sampled([0.0]) | floats(1e-30, 1e30)
oracle_pair = one_of(
    builds(_pair, oracle_weight, oracle_weight),
    builds(lambda a, nudge: (a, a * (1.0 + nudge)), oracle_weight, floats(-1e-6, 1e-6)),
)
oracle_phase = sampled([0.0]) | floats(1e-12, 20.0) | floats(-20.0, -1e-12)
near_pi = sampled([math.pi]) | floats(math.pi - 1e-6, math.pi + 1e-6)

# floats with every edge of the guards, and signs that pass and fail
edge_float = sampled(
    [math.nan, math.inf, -math.inf, 0.0, -0.0, 5e-324, 1e-320, 0.5, 1e308, -1.0, 300.0,
     -300.0, 301.0]
) | any_float
any_sign = sampled([1, -1, 0, 2, 1.0, -1.0, True, 1.5, math.nan])

# the sweep grid: generic, subnormal and top-of-range probabilities, and ints
grid_probability = (
    floats(0.0, 2.0)
    | floats(0.0, sys.float_info.min)
    | floats(1e299, 1e301)
    | integers(0, 10**6)
    | sampled([2**1000])
)
# 1e308's value overflows, 10**400 fits no double, and 10**308 + 10**308 none
refused_probability = sampled([1e308, 10**308, 10**400])
grid_pair = one_of(
    builds(_pair, grid_probability, grid_probability),
    # p1 close to p2, where the hyperbolic minus branch would cancel
    builds(lambda p, gap: (p, p + gap), floats(1e-6, 1.0), floats(-1e-12, 1e-12)),
    builds(_pair, refused_probability, grid_probability),
    builds(_pair, grid_probability, refused_probability),
    builds(_pair, refused_probability, refused_probability),
)

# the tolerance tables: up to six totals, each a tolerance edge or any float
table_length = integers(0, 6)


def table(edge_values):
    """Lists of up to six values, each one of ``edge_values`` or any float."""
    values = sampled(edge_values) | any_float
    return lambda rng: [values(rng) for _ in range(table_length(rng))]
