"""The seeded generators: edges first, the same draws from the same seed,
and a failure that names its seed and its arguments."""

import inspect

import pytest

import generators
from generators import Domain, Draws, check, floats, one_of, sampled, seeded

DOMAINS = {name: value for name, value in vars(generators).items() if isinstance(value, Domain)}

#: The helpers and the generator factories, which draw nothing themselves.
FACTORIES = {"check", "seeded", "floats", "integers", "sampled", "one_of", "builds", "table",
             "angles", "moved"}

#: Every generator the tests draw from, Domains and the rest.
GENERATORS = {
    name: value
    for name, value in vars(generators).items()
    if callable(value)
    and not isinstance(value, type)
    and getattr(value, "__module__", None) == "generators"
    and not name.startswith("_")
    and name not in FACTORIES
}
GENERATORS["table"] = generators.table([0.5, 1.0])


def shown(values):
    """The values as reprs, so that NaN equals NaN and -0.0 differs from 0.0."""
    return [repr(value) for value in values]


def test_the_first_draws_are_every_edge():
    for name, domain in DOMAINS.items():
        first = [domain(Draws(seed)) for seed in range(len(domain.edges))]
        assert shown(first) == shown(domain.edges), name


def test_a_float_domain_lists_its_bounds_their_neighbours_and_the_landmarks_inside():
    assert shown(floats(-10.0, 10.0).edges) == shown(
        [-10.0, -9.999999999999998, 10.0, 9.999999999999998, 0.0, -0.0, 5e-324,
         2.2250738585072014e-308, 1.0]
    )
    # 0.0 is a bound, and -0.0 lies outside
    assert shown(floats(0.0, 2.0).edges) == shown(
        [0.0, 5e-324, 2.0, 1.9999999999999998, 2.2250738585072014e-308, 1.0]
    )


def test_any_float_lists_nan_the_infinities_and_the_largest_double():
    assert {"nan", "inf", "-inf", "1.7976931348623157e+308", "-1.7976931348623157e+308"} <= set(
        shown(generators.any_float.edges)
    )


def test_a_union_lists_every_edge_of_every_branch():
    union = sampled([0.0]) | floats(1.0, 2.0) | sampled(["x"])
    assert shown(union.edges) == shown([0.0, 1.0, 1.0000000000000002, 2.0, 1.9999999999999998, "x"])


def test_one_of_draws_every_branch_first():
    pick = one_of(*(lambda rng, k=k: k for k in range(5)))
    assert [pick(Draws(seed)) for seed in range(5)] == [0, 1, 2, 3, 4]


def test_each_argument_takes_every_edge():
    domain = sampled("abc")
    draws = [Draws(seed) for seed in range(3)]
    pairs = [(domain(rng), domain(rng)) for rng in draws]
    assert sorted(a for a, _ in pairs) == sorted(b for _, b in pairs) == ["a", "b", "c"]


def test_one_seed_draws_the_same_values():
    for name, generate in GENERATORS.items():
        first = shown(generate(Draws(seed)) for seed in range(200))
        assert shown(generate(Draws(seed)) for seed in range(200)) == first, name


def test_a_failure_names_its_seed_and_arguments():
    def prop(a, b):
        assert a < 1e-3

    with pytest.raises(AssertionError) as info:
        check(prop, floats(-1.0, 1.0), sampled(["x"]))
    # seed 0 draws the first edges, -1.0 and "x"; seed 2 the bound 1.0
    assert str(info.value) == "seed 2: 1.0, 'x'"
    assert isinstance(info.value.__cause__, AssertionError)


def test_seeded_runs_the_cases_then_the_draws_and_hides_the_drawn_arguments():
    calls = []

    class Case:
        @seeded(sampled([1, 2]), draws=3, cases=[(7,)])
        def test_value(self, value):
            calls.append(value)

    assert list(inspect.signature(Case.test_value).parameters) == ["self"]
    Case().test_value()
    assert calls[:3] == [7, 1, 2]
    assert len(calls) == 4


def test_seeded_names_a_failing_case():
    @seeded(sampled([1]), cases=[(0,)])
    def test_value(value):
        assert value

    with pytest.raises(AssertionError, match=r"^case 0: 0$"):
        test_value()
