"""The value classes behave as frozen dataclasses did: equality, hash, repr, immutability, copies.

Each case builds a fresh object on every call, so two calls give equal but
distinct objects.  The reprs are pinned as the frozen dataclasses printed them.
"""

from __future__ import annotations

import copy
import pickle

import pytest

from symsplit.jacobi import JacobiElement, SplitVerdict, splits
from symsplit.mcg import (MCGModel, ManifoldParams, SplittingTheoremVerdict, aut_model,
                          splitting_theorem_verdict)
from symsplit.quadratic import OrbitClass, OrbitReport, QuadraticRefinement, orbit_decomposition
from symsplit.symplectic import Covector, SymplecticMatrix, Vector, _Value
from symsplit.verify import SuiteResult

_SHEAR = ((1, 1), (0, 1))
_Q = "QuadraticRefinement(nbits=2, state={})"
_WITNESS = "Covector(coords=(0, 0), modulus=2)"


_SPLIT = (f"SplitVerdict(rank=1, base={_Q.format(3)}, splits=True, witness={_WITNESS},"
          f" fixed_refinement={_Q.format(3)}, candidates_checked=1)")


# class -> (factory, repr)
CASES = {
    Vector: (lambda: Vector((1, 0, 0, 1)), "Vector(coords=(1, 0, 0, 1))"),
    Covector: (lambda: Covector((5, -1), 4), "Covector(coords=(1, 3), modulus=4)"),
    SymplecticMatrix: (lambda: SymplecticMatrix(_SHEAR), "SymplecticMatrix(rows=((1, 1), (0, 1)))"),
    QuadraticRefinement: (lambda: QuadraticRefinement((1, 1)), _Q.format(3)),
    OrbitClass: (lambda: orbit_decomposition(1).orbits[1],
                 f"OrbitClass(arf_label=1, size=1, representative={_Q.format(3)})"),
    OrbitReport: (lambda: orbit_decomposition(1),
                  f"OrbitReport(rank=1, orbits=(OrbitClass(arf_label=0, size=3,"
                  f" representative={_Q.format(0)}), OrbitClass(arf_label=1, size=1,"
                  f" representative={_Q.format(3)})))"),
    JacobiElement: (lambda: JacobiElement(Covector((2, 0)), SymplecticMatrix(_SHEAR)),
                    "JacobiElement(x=Covector(coords=(2, 0), modulus=0),"
                    " a=SymplecticMatrix(rows=((1, 1), (0, 1))))"),
    SplitVerdict: (lambda: splits(1), _SPLIT),
    ManifoldParams: (lambda: ManifoldParams(7, 2), "ManifoldParams(p=7, r=2)"),
    MCGModel: (lambda: aut_model(3, 1),
               f"MCGModel(params=ManifoldParams(p=3, r=1), modulus=0, base={_Q.format(0)})"),
    SplittingTheoremVerdict: (lambda: splitting_theorem_verdict(3, 1),
                              f"SplittingTheoremVerdict(params=ManifoldParams(p=3, r=1),"
                              f" verdict={_SPLIT})"),
    SuiteResult: (lambda: SuiteResult("torsor", 2, 3), "SuiteResult(name='torsor', passed=2, total=3)"),
}
classes = pytest.mark.parametrize("cls", list(CASES), ids=lambda cls: cls.__name__)


def _fields(obj) -> tuple:
    return tuple(getattr(obj, name) for name in obj._fields)


def test_every_value_class_is_covered():
    # the twelve classes that were frozen dataclasses, and nothing else derives from the base
    assert set(_Value.__subclasses__()) == set(CASES)


@classes
def test_instances_have_no_dict(cls):
    obj = CASES[cls][0]()
    assert type(obj) is cls and not hasattr(obj, "__dict__")


@classes
def test_equal_only_within_one_class(cls):
    obj = CASES[cls][0]()
    twin_cls = type(f"Twin{cls.__name__}", (_Value,), {"__slots__": cls.__slots__})
    twin = object.__new__(twin_cls)
    for name, value in zip(cls._fields, _fields(obj)):
        object.__setattr__(twin, name, value)
    assert _fields(twin) == _fields(obj)
    assert obj != twin and twin != obj and not obj == twin
    assert obj != _fields(obj) and obj != None  # noqa: E711


@classes
def test_equal_objects_hash_equal(cls):
    first, second = CASES[cls][0](), CASES[cls][0]()
    assert first is not second and first == second and not first != second
    assert hash(first) == hash(second) == hash(_fields(first))
    assert len({first, second}) == 1


@classes
def test_fields_cannot_be_assigned_or_deleted(cls):
    obj = CASES[cls][0]()
    before = _fields(obj)
    for name in cls.__slots__ + ("extra",):
        with pytest.raises(AttributeError):
            setattr(obj, name, 1)
        with pytest.raises(AttributeError):
            delattr(obj, name)
    assert _fields(obj) == before


@classes
def test_repr_format(cls):
    factory, expected = CASES[cls]
    assert repr(factory()) == expected


@classes
def test_copies_and_pickles_are_equal(cls):
    obj = CASES[cls][0]()
    copies = [copy.copy(obj), copy.deepcopy(obj)]
    copies += [pickle.loads(pickle.dumps(obj, protocol))
               for protocol in range(pickle.HIGHEST_PROTOCOL + 1)]
    for other in copies:
        assert type(other) is cls and other == obj and hash(other) == hash(obj)
        assert repr(other) == repr(obj)


@pytest.mark.parametrize("cls", [OrbitClass, OrbitReport, SplitVerdict, SplittingTheoremVerdict,
                                 SuiteResult], ids=lambda cls: cls.__name__)
def test_field_only_classes_take_one_value_per_field(cls):
    # these classes use the base's positional constructor, which stores the values in slot order
    assert "__init__" not in vars(cls)
    obj = CASES[cls][0]()
    fields = _fields(obj)
    assert cls(*fields) == obj
    for values in (fields[:-1], fields + (None,)):
        with pytest.raises(TypeError, match=rf"^{cls.__name__} takes {len(fields)} values,"
                                            rf" got {len(values)}$"):
            cls(*values)


def test_private_slots_are_not_fields():
    # SymplecticMatrix records in `_checked` that its constructor form-checked the rows; the
    # record is no field, so a checked and a `_trusted` matrix with equal rows are alike
    assert SymplecticMatrix._fields == ("rows",) and "_checked" in SymplecticMatrix.__slots__
    checked, trusted = SymplecticMatrix(_SHEAR), SymplecticMatrix._trusted(_SHEAR)
    assert checked._checked and not hasattr(trusted, "_checked")
    assert checked == trusted and trusted == checked and hash(checked) == hash(trusted)
    assert repr(checked) == repr(trusted) == CASES[SymplecticMatrix][1]
    # copies and unpickled objects are rebuilt through the public constructor, so checked
    copies = [copy.copy(trusted), copy.deepcopy(trusted)]
    copies += [pickle.loads(pickle.dumps(trusted, protocol))
               for protocol in range(pickle.HIGHEST_PROTOCOL + 1)]
    for other in copies:
        assert other is not trusted and other == trusted and other._checked
