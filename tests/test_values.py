"""The value-type contract shared by the nine immutable classes.

Each row builds one instance by keyword and checks what the frozen
dataclasses these classes replaced gave: equality by class and fields, the
hash of the field tuple, the ``Name(field=value, ...)`` repr, ``copy`` and
``pickle`` round trips, and refused assignment and deletion.
"""

import copy
import pickle

import pytest

from hyperq.algebra import J, ONE, ZERO, PolarForm, SplitComplex
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

pytestmark = pytest.mark.parametrize(
    "cls,kwargs,expected_repr", ROWS, ids=[cls.__name__ for cls, _, _ in ROWS]
)


def test_keyword_and_positional_construction_agree(cls, kwargs, expected_repr):
    value = cls(**kwargs)
    assert value == cls(*kwargs.values())
    assert cls.__match_args__ == tuple(kwargs)
    for name, field in kwargs.items():
        assert getattr(value, name) is field


def test_equality_needs_the_same_class(cls, kwargs, expected_repr):
    value = cls(**kwargs)
    twin = type("Twin", (cls,), {"__slots__": ()})(**kwargs)
    assert value == cls(**kwargs)
    assert not value != cls(**kwargs)
    assert value != twin and twin != value
    assert value != tuple(kwargs.values())


def test_hash_is_the_field_tuple_hash(cls, kwargs, expected_repr):
    assert hash(cls(**kwargs)) == hash(tuple(kwargs.values()))


def test_repr_is_the_dataclass_form(cls, kwargs, expected_repr):
    assert repr(cls(**kwargs)) == expected_repr


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
