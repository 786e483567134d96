"""The value-type contract shared by every record type of the package."""

import numpy as np
import pytest

from qmoments.centralfield import (
    BuckinghamPotential,
    LennardJonesPotential,
    PowerLawPotential,
)
from qmoments.cli import Outcomes, RunConfig
from qmoments.core import (
    NATURAL,
    DomainError,
    Exponents,
    MomentValue,
    PhysicalConstants,
    Tolerances,
    Verdict,
)
from qmoments.inequalities import DiscreteDensity
from qmoments.matrixlab import FiniteState, HermitianOperator
from qmoments.moments import POSITION_AXIS, Observable
from qmoments.quadrature import QuadResult

#: each record type with valid field values, in field order
CASES = [
    (Exponents, (3.0, 2.0, 5.0 / 6.0, 1.2, 0.4, 0.6)),
    (PhysicalConstants, (2.0, 1.0, 1.0)),
    (Tolerances, (1e-8, 1000)),
    (MomentValue, ("convergent", 2.0, 1.5, 1e-9, "")),
    (Verdict, ("x", 1.0, 2.0, 1e-9, {"p": 2.0}, "ok", "")),
    (QuadResult, (1.0, 1e-12, 45, True, False)),
    (HermitianOperator, (np.eye(2),)),
    (FiniteState, (np.array([1.0, 0.0]),)),
    (Observable, (POSITION_AXIS, 3)),
    (DiscreteDensity, (np.array([1.0, 2.0]), np.array([0.5, 1.0]), np.array([1.0, 1.0]))),
    (PowerLawPotential, (1.0, 2.0)),
    (LennardJonesPotential, (1.0, 2.0)),
    (BuckinghamPotential, (1.0, 2.0, 3.0)),
    (RunConfig, (Tolerances(), None, 0, "json", None, False, "natural", NATURAL)),
    (Outcomes, (1, 1, 0, 0, 0, ["a note"])),
]
IDS = [cls.__name__ for cls, _ in CASES]
MUTABLE = (RunConfig, Outcomes)
#: types with an array field, whose field-wise equality has no truth value
ARRAY_FIELDS = (HermitianOperator, FiniteState)
#: types with an unhashable (dict or list) field value
UNHASHABLE_FIELDS = (Verdict,)


def _names(cls):
    return list(cls.__annotations__)


def _same(a, b) -> bool:
    return type(a) is type(b) and all(
        np.array_equal(x, y) if isinstance(x, np.ndarray) else x == y
        for x, y in ((getattr(a, n), getattr(b, n)) for n in _names(type(a))))


@pytest.mark.parametrize("cls, args", CASES, ids=IDS)
def test_construction_by_position_and_by_keyword(cls, args):
    names = _names(cls)
    assert len(names) == len(args)
    by_position = cls(*args)
    by_keyword = cls(**dict(zip(names, args)))
    assert _same(by_position, by_keyword)
    for n, a in zip(names, args):
        if not isinstance(a, np.ndarray):
            assert getattr(by_position, n) == a


@pytest.mark.parametrize("cls, args", CASES, ids=IDS)
def test_missing_or_unknown_argument_is_a_type_error(cls, args):
    with pytest.raises(TypeError):
        cls(*args, no_such_field=1)
    with pytest.raises(TypeError):
        cls(*args, args[0])
    if len(args) > 1:
        with pytest.raises(TypeError):
            cls(*args[1:], **{_names(cls)[0]: args[0]})  # a value twice
    names = _names(cls)
    if names[0] not in cls.__dict__:  # the first field has no default
        with pytest.raises(TypeError):
            cls(**dict(zip(names[1:], args[1:])))


@pytest.mark.parametrize("cls, args", CASES, ids=IDS)
def test_frozen_types_refuse_assignment_and_deletion(cls, args):
    obj = cls(*args)
    first = _names(cls)[0]
    if cls in MUTABLE:
        setattr(obj, first, args[0])
        assert getattr(obj, first) == args[0]
        with pytest.raises(TypeError):
            hash(obj)
        return
    with pytest.raises(AttributeError):
        setattr(obj, first, args[0])
    with pytest.raises(AttributeError):
        delattr(obj, first)
    with pytest.raises(AttributeError):
        obj.not_a_field = 1


@pytest.mark.parametrize("cls, args", [c for c in CASES if c[0] not in ARRAY_FIELDS],
                         ids=[i for i, c in zip(IDS, CASES) if c[0] not in ARRAY_FIELDS])
def test_equal_fields_give_equal_objects(cls, args):
    a, b = cls(*args), cls(*args)
    assert a == b and not a != b
    assert a != object()
    if cls not in MUTABLE + UNHASHABLE_FIELDS:
        assert hash(a) == hash(b)
        assert len({a, b}) == 1


def test_objects_differing_in_one_field_are_unequal():
    assert Tolerances(rel_tol=1e-8) != Tolerances(rel_tol=1e-9)
    assert QuadResult(1.0, 0.0, 15, True) != QuadResult(2.0, 0.0, 15, True)
    assert Outcomes(checks=1) != Outcomes(checks=2)


@pytest.mark.parametrize("cls, args", CASES, ids=IDS)
def test_repr_names_the_class_and_its_fields(cls, args):
    text = repr(cls(*args))
    assert text.startswith(f"{cls.__name__}(") and text.endswith(")")
    pos = [text.index(f"{n}=") for n in _names(cls)]
    assert pos == sorted(pos)


def test_mutable_defaults_are_fresh_per_instance():
    a, b = Verdict("a", 1.0, 2.0, 0.0), Verdict("b", 1.0, 2.0, 0.0)
    assert a.inputs == {} and a.inputs is not b.inputs
    x, y = Outcomes(), Outcomes()
    x.notes.append("n")
    assert y.notes == []


def test_post_init_validation_runs_on_construction():
    with pytest.raises(DomainError):
        Tolerances(max_evals=44)
    with pytest.raises(DomainError):
        PhysicalConstants(hbar=float("nan"))
    with pytest.raises(DomainError):
        FiniteState(np.zeros(3))
    # __post_init__ may normalize a frozen field
    assert np.linalg.norm(FiniteState(np.array([3.0, 4.0])).amplitudes) == pytest.approx(1.0)
