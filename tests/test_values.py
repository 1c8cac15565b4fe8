"""The value-type contract shared by the nine immutable classes.

Each row builds one instance by keyword and checks what the frozen
dataclasses these classes replaced gave: equality by class and fields, the
hash of the field tuple, the ``Name(field=value, ...)`` repr, ``copy`` and
``pickle`` round trips, and refused assignment and deletion.  The generated
``__init__`` takes exactly the fields, and a subclass keeps the checks.
"""

import copy
import inspect
import math
import pickle

import pytest

import hyperq
from hyperq.algebra import J, ONE, ZERO, PolarForm, SplitComplex, _Value
from hyperq.born import Phase, ProbabilityModel, SignPhaseReport, StateDecomposition
from hyperq.space import Mat2, Vec2
from hyperq.witness import NonTransitivityWitness, UnitaryParams

V = Vec2(ONE, J)
M = Mat2(ONE, ZERO, ZERO, ONE)
V_REPR = "Vec2(c1=SplitComplex(x=1.0, y=0.0), c2=SplitComplex(x=0.0, y=1.0))"
M_REPR = (
    "Mat2(a11=SplitComplex(x=1.0, y=0.0), a12=SplitComplex(x=0.0, y=0.0), "
    "a21=SplitComplex(x=0.0, y=0.0), a22=SplitComplex(x=1.0, y=0.0))"
)

# (class, keyword arguments in field order, repr of the dataclass form)
ROWS = [
    (SplitComplex, dict(x=1.0, y=-0.5), "SplitComplex(x=1.0, y=-0.5)"),
    (
        PolarForm,
        dict(sign=-1, modulus=2.0, theta=0.25),
        "PolarForm(sign=-1, modulus=2.0, theta=0.25)",
    ),
    (Vec2, dict(c1=ONE, c2=J), V_REPR),
    (
        Mat2,
        dict(a11=ONE, a12=ZERO, a21=J, a22=ONE),
        "Mat2(a11=SplitComplex(x=1.0, y=0.0), a12=SplitComplex(x=0.0, y=0.0), "
        "a21=SplitComplex(x=0.0, y=1.0), a22=SplitComplex(x=1.0, y=0.0))",
    ),
    (
        StateDecomposition,
        dict(
            coefficients=V,
            decomposable=True,
            probabilities=(1.0, -1.0),
            phases=(Phase(1, 0.0), None),
        ),
        f"StateDecomposition(coefficients={V_REPR}, decomposable=True, "
        "probabilities=(1.0, -1.0), phases=(Phase(sign=1, xi=0.0), None))",
    ),
    (
        ProbabilityModel,
        dict(
            q1=0.25, q2=0.75, p11=0.5, p12=0.5, p21=0.5, p22=0.5, theta=0.125, eps1=-1
        ),
        "ProbabilityModel(q1=0.25, q2=0.75, p11=0.5, p12=0.5, p21=0.5, p22=0.5, "
        "theta=0.125, eps1=-1)",
    ),
    (
        SignPhaseReport,
        dict(
            eta=0.5,
            gamma1=0.25,
            gamma2=None,
            theta1=0.75,
            theta2=None,
            theta_diff=None,
            eps1=1,
            eps2=None,
            opposite_signs=None,
            residual=0.0625,
            vacuous=False,
            satisfied=False,
        ),
        "SignPhaseReport(eta=0.5, gamma1=0.25, gamma2=None, theta1=0.75, "
        "theta2=None, theta_diff=None, eps1=1, eps2=None, opposite_signs=None, "
        "residual=0.0625, vacuous=False, satisfied=False)",
    ),
    (
        UnitaryParams,
        dict(p=0.3, gamma1=0.4, gamma2=-0.2, delta=0.9),
        "UnitaryParams(p=0.3, gamma1=0.4, gamma2=-0.2, delta=0.9)",
    ),
    (
        NonTransitivityWitness,
        dict(beta=V, basis=M, alpha=V, violating_index=2, norm_sq=-0.5),
        f"NonTransitivityWitness(beta={V_REPR}, basis={M_REPR}, alpha={V_REPR}, "
        "violating_index=2, norm_sq=-0.5)",
    ),
]

each_row = pytest.mark.parametrize(
    "cls,kwargs,expected_repr", ROWS, ids=[cls.__name__ for cls, _, _ in ROWS]
)

# (class, field, a value its _check refuses) for each class that has one,
# then the classes whose finiteness test also refuses an int past any double
BAD_FIELDS = [
    (SplitComplex, "x", math.nan),
    (PolarForm, "modulus", 0.0),
    (ProbabilityModel, "theta", math.inf),
    (UnitaryParams, "p", 1.0),
    (SplitComplex, "y", 10**400),
    (ProbabilityModel, "q1", 10**400),
    (UnitaryParams, "delta", -(10**400)),
]
BAD_FIELD_IDS = [
    cls.__name__ if isinstance(bad, float) else f"{cls.__name__}-huge-{name}"
    for cls, name, bad in BAD_FIELDS
]


@each_row
def test_keyword_and_positional_construction_agree(cls, kwargs, expected_repr):
    value = cls(**kwargs)
    assert value == cls(*kwargs.values())
    assert cls.__match_args__ == tuple(kwargs)
    for name, field in kwargs.items():
        assert getattr(value, name) is field


@each_row
def test_equality_needs_the_same_class(cls, kwargs, expected_repr):
    value = cls(**kwargs)
    twin = type("Twin", (cls,), {"__slots__": ()})(**kwargs)
    assert value == cls(**kwargs)
    assert not value != cls(**kwargs)
    assert value != twin and twin != value
    assert value != tuple(kwargs.values())


@each_row
def test_hash_is_the_field_tuple_hash(cls, kwargs, expected_repr):
    assert hash(cls(**kwargs)) == hash(tuple(kwargs.values()))


@each_row
def test_repr_is_the_dataclass_form(cls, kwargs, expected_repr):
    assert repr(cls(**kwargs)) == expected_repr


@each_row
@pytest.mark.parametrize(
    "clone",
    [copy.copy, copy.deepcopy, lambda value: pickle.loads(pickle.dumps(value))],
    ids=["copy", "deepcopy", "pickle"],
)
def test_copies_are_equal(cls, kwargs, expected_repr, clone):
    value = cls(**kwargs)
    copied = clone(value)
    assert type(copied) is cls
    assert copied == value
    assert repr(copied) == expected_repr


@each_row
def test_fields_cannot_be_set_or_deleted(cls, kwargs, expected_repr):
    value = cls(**kwargs)
    for name, field in kwargs.items():
        with pytest.raises(AttributeError, match=f"cannot assign to field '{name}'"):
            setattr(value, name, field)
        with pytest.raises(AttributeError, match=f"cannot delete field '{name}'"):
            delattr(value, name)
        assert getattr(value, name) is field
    with pytest.raises(AttributeError):
        value.extra = 1
    assert not hasattr(value, "__dict__")


@each_row
def test_signature_is_the_fields(cls, kwargs, expected_repr):
    assert tuple(inspect.signature(cls).parameters) == cls.__match_args__
    assert cls.__init__.__qualname__ == f"{cls.__qualname__}.__init__"
    assert cls.__init__.__module__ == cls.__module__


@each_row
def test_missing_field_is_named(cls, kwargs, expected_repr):
    for name in kwargs:
        given = {key: value for key, value in kwargs.items() if key != name}
        with pytest.raises(TypeError, match=f"missing 1 required .* '{name}'"):
            cls(**given)


@pytest.mark.parametrize("cls,name,bad", BAD_FIELDS, ids=BAD_FIELD_IDS)
def test_subclass_keeps_the_check(cls, name, bad):
    kwargs = next(kwargs for row_cls, kwargs, _ in ROWS if row_cls is cls)
    twin = type("Twin", (cls,), {"__slots__": ()})
    for target in (cls, twin):
        with pytest.raises(ValueError, match="must"):
            target(**{**kwargs, name: bad})


def test_rows_cover_every_value_type():
    # reading __all__ imports every exporting submodule
    assert hyperq.__all__
    subclasses = _Value.__subclasses__()
    defined = {sub for sub in subclasses if sub.__module__.startswith("hyperq.")}
    assert defined == {cls for cls, _, _ in ROWS}
    checked = {cls for cls in defined if hasattr(cls, "_check")}
    assert checked == {cls for cls, _, _ in BAD_FIELDS}
