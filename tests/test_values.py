"""Construction and value semantics of the package's immutable records.

The records are plain classes, not dataclasses.  A record's fields are
its slots (cls._fields); fgab.intmat.Frozen.__init__ takes one value per
field, in that order, unless the class validates its input and writes its
own __init__.  One rule, in fgab.intmat.Value, decides the equality of the
classes that compare by value: equal when of one class with equal fields.
A Value is hashable only where a reader hashes it (the atom runs, the
tests' sets of witnesses); IntMatrix (the Smith cache key) and FgGroup
(equal on its presentation) write their own equality and hash.  Every
record refuses to have an attribute set or deleted.  A case is a class,
the arguments of one value and, per argument position, another argument:
changing any one field must make the value unequal.
"""

import pytest

import nccwk.harness.cli  # imports every module that defines a record
from nccwk.fgab.groups import FgGroup, GroupHom, ShortExactSeq
from nccwk.fgab.intmat import Frozen, IntMatrix
from nccwk.harness.inputfmt import (
    Const,
    ExpLin,
    FamilySpec,
    InputDocument,
    L5,
    MapSpec,
    Power,
    Query,
    SizeExpr,
    SystemSpec,
)
from nccwk.harness.search import SearchBounds
from nccwk.homind import AtInterior, AtPoint, FullPath, MapDescription
from nccwk.nccw import CompactIdealSpec, KData, NccwComplex
from nccwk.order import GradedElement

from complexes import dimension_drop

M = IntMatrix.from_rows([[1, 2], [3, 4]])
Z2, Z4 = FgGroup.from_cyclic([2]), FgGroup.from_cyclic([4])
Z = FgGroup.free(1)
ONE = IntMatrix.identity(1)
DOUBLE = ONE.scale(2)
TWICE = GroupHom(Z, Z, DOUBLE)
POINT = NccwComplex((1,), (1,), ONE, ONE)
TORSION = dimension_drop(2)
SWAPPED = NccwComplex(TORSION.k, TORSION.h, TORSION.beta, TORSION.alpha)
N0, N1, TWO = ExpLin(True, 0), ExpLin(True, 1), SizeExpr(((1, (Const(2),)),))

# (class, arguments, {position: another argument}), hashable classes first
HASHABLE = [
    (IntMatrix, (2, 2, M.entries), {2: ((1, 2), (3, 5))}),
    (IntMatrix, (0, 1, ()), {1: 2}),
    (FgGroup, (1, IntMatrix.from_rows([[2]])), {1: IntMatrix.from_rows([[4]])}),
    (FgGroup, (1, IntMatrix.zero(1, 0)), {1: IntMatrix.zero(1, 1)}),
    (NccwComplex, ((1,), (2,), ONE, ONE, False), {0: (2,), 1: (3,), 2: DOUBLE, 3: DOUBLE}),
    (NccwComplex, ((1,), (1,), ONE, ONE, True), {4: False}),
    (CompactIdealSpec, ((0,), (0,)), {0: (1,), 1: ()}),
    (AtPoint, (0,), {0: 1}),
    (AtInterior, (0,), {0: 1}),
    (FullPath, (0,), {0: 1}),
]
EQUAL_ONLY = [
    (GroupHom, (Z, Z, DOUBLE), {2: ONE.scale(3)}),
    (GroupHom, (Z2, Z2, ONE), {0: Z4, 1: FgGroup.from_cyclic([1])}),
    (ShortExactSeq, (TWICE, GroupHom(Z, Z2, ONE)), {0: GroupHom(Z, Z, ONE.scale(4))}),
    (ShortExactSeq, (GroupHom(Z, Z, ONE), GroupHom(Z, Z2, ONE)), {1: GroupHom(Z, Z4, ONE)}),
    (KData, (Z, ONE, Z, IntMatrix.zero(1, 1)),
     {0: Z2, 1: ONE.scale(-1), 2: Z2, 3: IntMatrix.zero(0, 1)}),
    (MapDescription, (POINT, POINT, ((AtPoint(0),),), ((FullPath(0),),), True),
     {2: ((AtInterior(0),),), 3: ((AtPoint(0),),), 4: False}),
    (MapDescription, (TORSION, TORSION, ((AtPoint(0),), (AtPoint(1),)),
                      ((FullPath(0),),), True),
     {0: SWAPPED, 1: SWAPPED, 2: ((AtPoint(1),), (AtPoint(0),))}),
    (GradedElement, ((1, 2), (3,)), {0: (1, 0), 1: (4,)}),
    (SearchBounds, (3, 2, 2, 1), {0: 4, 1: 3, 2: 3, 3: 2}),
    (ExpLin, (True, 1), {0: False, 1: 2}),
    (Const, (2,), {0: 3}),
    (Power, (2, N0), {0: 3, 1: N1}),
    (L5, (N0,), {0: N1}),
    (SizeExpr, ((1, (Const(2),)),), {0: ((-1, (Const(2),)),)}),
    (FamilySpec, ("F", 0, (TWO,), (TWO,), ONE, ONE, True),
     {0: "G", 1: 1, 2: (SizeExpr(((1, (Const(3),)),)),), 3: (), 4: DOUBLE, 5: DOUBLE, 6: False}),
    (MapSpec, ("m", "A", "A", ((AtPoint(0),),), ((FullPath(0),),), True),
     {0: "n", 1: "B", 2: "B", 3: ((AtInterior(0),),), 4: ((AtPoint(0),),), 5: False}),
    (SystemSpec, ("S", "F", "m", 0, None), {0: "T", 1: "G", 2: "n", 3: 1, 4: 2}),
    (Query, ("ktheory", (("name", "A"),)), {0: "classify", 1: ()}),
    (InputDocument, ((), (), (), (), ()),
     {0: (("A", POINT),), 1: (("F", None),), 2: (("m", None),), 3: (("S", None),),
      4: (Query("ktheory", ()),)}),
]
CASES = ([pytest.param(*case, True, id=f"{case[0].__name__}-{i}") for i, case in enumerate(HASHABLE)]
         + [pytest.param(*case, False, id=f"{case[0].__name__}-{i}")
            for i, case in enumerate(EQUAL_ONLY)])


@pytest.mark.parametrize("cls, args, others, hashable", CASES)
def test_equal_fields_equal_values(cls, args, others, hashable):
    a, b = cls(*args), cls(*args)
    assert a is not b and a == b and not a != b
    if hashable:
        assert hash(a) == hash(b)
    else:
        with pytest.raises(TypeError):
            hash(a)
    assert a != args


@pytest.mark.parametrize("cls, args, others, hashable", CASES)
def test_each_field_is_compared(cls, args, others, hashable):
    a = cls(*args)
    for i, other in others.items():
        b = cls(*args[:i], other, *args[i + 1:])
        assert a != b and not a == b, f"{cls.__name__} equality ignores argument {i}"


@pytest.mark.parametrize("cls, args, others, hashable", CASES)
def test_values_are_immutable(cls, args, others, hashable):
    a = cls(*args)
    for name in cls._fields:
        before = getattr(a, name)
        with pytest.raises(AttributeError):
            setattr(a, name, None)
        with pytest.raises(AttributeError):
            delattr(a, name)
        assert getattr(a, name) is before


def test_matrix_is_not_a_tuple():
    assert IntMatrix(1, 1, ((1,),)) != (1, 1, ((1,),))
    assert not IntMatrix(1, 1, ((1,),)) == (1, 1, ((1,),))
    assert IntMatrix(0, 0, ()) != ()


def _records(cls=Frozen):
    for sub in cls.__subclasses__():
        if sub.__module__.startswith("nccwk.") and sub.__init__ is Frozen.__init__ and sub._fields:
            yield sub
        yield from _records(sub)


RECORDS = sorted(set(_records()), key=lambda c: (c.__module__, c.__name__))


def test_records_found():
    names = {cls.__name__ for cls in RECORDS}
    assert {"ModNKData", "SmithDecomposition", "AtInterior", "FullPath", "InputDocument",
            "ScenarioReport", "OddBlock", "LadderPurity", "Classification"} <= names
    assert not names & {"IntMatrix", "FgGroup", "NccwComplex", "SearchBounds", "LimitElement"}


@pytest.mark.parametrize("cls", RECORDS, ids=lambda c: c.__name__)
def test_record_constructor(cls):
    fields = cls._fields
    values = [object() for _ in fields]
    a = cls(*values)
    assert all(getattr(a, name) is v for name, v in zip(fields, values, strict=True))
    for bad in (values[:-1], values + [object()]):
        with pytest.raises(TypeError, match=f"{cls.__name__} takes {len(fields)} values "
                                            rf"\({', '.join(fields)}\), got {len(bad)}"):
            cls(*bad)
    with pytest.raises(TypeError):
        cls(*values[:-1], **{fields[-1]: values[-1]})
    for name, v in zip(fields, values):
        with pytest.raises(AttributeError):
            setattr(a, name, None)
        with pytest.raises(AttributeError):
            delattr(a, name)
        assert getattr(a, name) is v
