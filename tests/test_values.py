"""The value-type contract shared by the nine immutable classes.

Each row builds one instance by keyword and checks what the frozen
dataclasses these classes replaced gave: equality by class and fields, the
hash of the field tuple, the ``Name(field=value, ...)`` repr, ``copy`` and
``pickle`` round trips, and refused assignment and deletion.  The generated
``__init__`` takes exactly the fields and tests each against the kind its
class declares, a subclass keeps the checks, and no other path builds a
value.
"""

import ast
import copy
import inspect
import math
import pickle

import pytest
from helpers import scan

import hyperq
from hyperq.algebra import _INDEX, _REAL, _SIGN, J, ONE, ZERO, PolarForm, SplitComplex
from hyperq.algebra import _Value
from hyperq.born import ProbabilityModel, SignPhaseReport, StateDecomposition, decompose
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
        dict(coefficients=V, decomposable=True, probabilities=(1.0, -1.0)),
        f"StateDecomposition(coefficients={V_REPR}, decomposable=True, "
        "probabilities=(1.0, -1.0))",
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

# (class, field, a value its kind or its _check refuses), at least one row
# for each kind a class declares; first the classes whose finiteness test
# also refuses an int past any double
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
# PolarForm's modulus and phase go through the same finiteness rule
BAD_FIELDS += [
    (PolarForm, "modulus", math.inf),
    (PolarForm, "modulus", 10**400),
    (PolarForm, "theta", math.nan),
]
BAD_FIELD_IDS += ["PolarForm-inf-modulus", "PolarForm-huge-modulus", "PolarForm-nan-theta"]
# the witness's index is the int 1 or 2; its squared norm follows the rule
BAD_FIELDS += [
    (NonTransitivityWitness, "violating_index", 2.0),
    (NonTransitivityWitness, "violating_index", True),
    (NonTransitivityWitness, "violating_index", 3),
    (NonTransitivityWitness, "norm_sq", 10**400),
    (NonTransitivityWitness, "norm_sq", math.nan),
    (NonTransitivityWitness, "beta", None),
    (NonTransitivityWitness, "basis", V),
    (NonTransitivityWitness, "alpha", M),
]
BAD_FIELD_IDS += [
    "NonTransitivityWitness-float-index",
    "NonTransitivityWitness-bool-index",
    "NonTransitivityWitness-index-3",
    "NonTransitivityWitness-huge-norm_sq",
    "NonTransitivityWitness-nan-norm_sq",
    "NonTransitivityWitness-none-beta",
    "NonTransitivityWitness-vector-basis",
    "NonTransitivityWitness-matrix-alpha",
]
# the kinds of the other fields: a sign, a non-number real, an exact class,
# a bool, and each kind that also lets None through
BAD_FIELDS += [
    (PolarForm, "sign", 0),
    (ProbabilityModel, "eps1", 2),
    (SplitComplex, "x", "1.0"),
    (Vec2, "c1", 1.0),
    (Mat2, "a21", "x"),
    (StateDecomposition, "coefficients", None),
    (StateDecomposition, "decomposable", "yes"),
    (StateDecomposition, "probabilities", 3),
    (SignPhaseReport, "eta", math.nan),
    (SignPhaseReport, "eps2", 2),
    (SignPhaseReport, "opposite_signs", 1),
    (SignPhaseReport, "residual", None),
    (SignPhaseReport, "vacuous", None),
]
BAD_FIELD_IDS += [
    "PolarForm-sign-0",
    "ProbabilityModel-eps1-2",
    "SplitComplex-str-x",
    "Vec2-float-c1",
    "Mat2-str-a21",
    "StateDecomposition-none-coefficients",
    "StateDecomposition-str-decomposable",
    "StateDecomposition-int-probabilities",
    "SignPhaseReport-nan-eta",
    "SignPhaseReport-eps2-2",
    "SignPhaseReport-int-opposite_signs",
    "SignPhaseReport-none-residual",
    "SignPhaseReport-none-vacuous",
]


def kind_of(cls, name):
    """The kind a class declares for a field, without its "or None"."""
    kind = cls._kinds[name]
    return kind[0] if isinstance(kind, tuple) else kind


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
        with pytest.raises(ValueError, match=f"^{name} must "):
            target(**{**kwargs, name: bad})


@pytest.mark.parametrize(
    "build,message",
    [
        (lambda: Vec2(1.0, 2.0), "c1 must be a SplitComplex, got float"),
        (lambda: Mat2(ONE, ZERO, "x", ZERO), "a21 must be a SplitComplex, got str"),
        (
            lambda: StateDecomposition(None, "yes", 3),
            "coefficients must be a Vec2, got NoneType",
        ),
        # refused where it is built, before decompose reads a coordinate
        (lambda: decompose(Vec2(1.0, 0.0)), "c1 must be a SplitComplex, got float"),
    ],
    ids=["vector", "matrix", "decomposition", "decompose"],
)
def test_wrong_kind_is_refused_at_construction(build, message):
    with pytest.raises(ValueError, match=f"^{message}$"):
        build()


def makes_a_bypass(node):
    """A reference to ``algebra._new`` or ``object.__new__``, which make an
    instance without ``__init__``, or an import of ``_new``."""
    if isinstance(node, ast.Name):
        return node.id == "_new"
    if isinstance(node, ast.Attribute):
        return node.attr == "_new" or ast.unparse(node) == "object.__new__"
    return isinstance(node, ast.alias) and node.name == "_new"


def test_init_is_the_one_construction_path():
    # every value is built through its class's __init__, which checks each
    # field; only the operators' constructor stores fields itself, so that
    # an overflowing result raises PreconditionError, not ValueError.  The
    # module-level names are the binding ``_new = object.__new__``
    assert scan(makes_a_bypass) == {
        "algebra": ["_new", "object.__new__"],
        "algebra._result": ["_new"],
    }


def test_rows_cover_every_value_type():
    # reading __all__ imports every exporting submodule
    assert hyperq.__all__
    subclasses = _Value.__subclasses__()
    defined = {sub for sub in subclasses if sub.__module__.startswith("hyperq.")}
    assert defined == {cls for cls, _, _ in ROWS}
    declared = {(cls, kind) for cls in defined for kind in cls._kinds.values()}
    assert {(cls, cls._kinds[name]) for cls, name, _ in BAD_FIELDS} == declared


#: The type each numeric kind is stored as.
STORED_AS = {_REAL: float, _SIGN: int, _INDEX: int}

# (class, arguments in field order): each class with a numeric kind built
# from int, bool and float input; a field of any other kind, or None where
# the kind lets it through, is stored as given
STORED_INPUTS = [
    (SplitComplex, (3, -2)),
    (SplitComplex, (True, False)),
    (SplitComplex, (0.5, -1.5)),
    (PolarForm, (-1, 2, 0)),
    (PolarForm, (True, True, False)),
    (PolarForm, (-1.0, 2.0, 0.5)),
    (ProbabilityModel, (1, 0, 1, 0, 0, 1, 0, -1)),
    (ProbabilityModel, (True, False, True, False, False, True, False, True)),
    (ProbabilityModel, (1.0, 0.0, 1.0, 0.0, 0.0, 1.0, 0.5, -1.0)),
    (UnitaryParams, (0.5, 1, -2, 0)),
    (UnitaryParams, (0.5, True, False, True)),
    (UnitaryParams, (0.5, 0.25, -0.5, 3.0)),
    (NonTransitivityWitness, (V, M, V, 2, -1)),
    (NonTransitivityWitness, (V, M, V, 1, False)),
    (NonTransitivityWitness, (V, M, V, 2, -0.5)),
]
STORED_IDS = [
    f"{cls.__name__}-{type(args[-1]).__name__}" for cls, args in STORED_INPUTS
]
# the report's last field is a bool; its ids name the type of the first
STORED_INPUTS += [
    (SignPhaseReport, (1, 0, None, -2, None, None, 1, None, None, 0, False, True)),
    (
        SignPhaseReport,
        (True, False, None, True, None, None, True, None, None, False, True, False),
    ),
    (
        SignPhaseReport,
        (0.5, 0.25, -0.25, 0.75, 0.5, 0.25, 1.0, -1.0, True, 0.0, False, True),
    ),
]
STORED_IDS += ["SignPhaseReport-int", "SignPhaseReport-bool", "SignPhaseReport-float"]


@pytest.mark.parametrize("cls,args", STORED_INPUTS, ids=STORED_IDS)
def test_reals_are_stored_as_float_and_signs_as_int(cls, args):
    value = cls(*args)
    twin = {}
    for name, given in zip(cls.__match_args__, args):
        stored = getattr(value, name)
        stored_as = None if given is None else STORED_AS.get(kind_of(cls, name))
        if stored_as is None:
            assert stored is given
        else:
            assert type(stored) is stored_as
            assert stored == given
        twin[name] = given if stored_as is None else stored_as(given)
    # one numeric type inside: the value equals its float-and-int twin
    assert value == cls(**twin)


def test_stored_types_cover_every_checked_class():
    numeric = {
        cls
        for cls, _, _ in ROWS
        if any(kind_of(cls, name) in STORED_AS for name in cls._kinds)
    }
    assert {cls for cls, _ in STORED_INPUTS} == numeric


def test_bool_sign_reads_back_from_json():
    model = ProbabilityModel(0.25, 0.75, 0.5, 0.5, 0.5, 0.5, 0.125, eps1=True)
    document = model.to_json_dict()
    assert type(document["eps1"]) is int
    assert ProbabilityModel.from_json_dict(document) == model
