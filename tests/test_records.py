"""The value records: frozen, equal and hashed by their field tuple, never
equal to a plain tuple or to a record of another class, and validated
whenever they are built, unpickling included."""

import copy
import pickle

import pytest

from cobarext import cobar
from cobarext.charts import ChartDot
from cobarext.f2linalg import F2Matrix
from cobarext.grading import CobarMonomial, RO2Degree
from cobarext.hopf import NegativeConeClass
from cobarext.records import Record
from cobarext.xadic import EinftyMonomial

MONO = EinftyMonomial(1, 4, (2, 1))

# (record, its fields in order); the first five are dict and set keys
RECORDS = [
    (RO2Degree(1, 2), (1, 2)),
    (MONO, (1, 4, (2, 1))),
    (ChartDot(5, 3, -1, "a u^4 y_0^2 y_1", MONO), (5, 3, -1, "a u^4 y_0^2 y_1", MONO)),
    (NegativeConeClass(2, 1), (2, 1)),
    (CobarMonomial(2, -1, (1, 2)), (2, -1, (1, 2))),
    (F2Matrix(2, 2, (0b01, 0b11)), (2, 2, (0b01, 0b11))),
    (cobar.EntriesReport(()), ((),)),
]


@pytest.mark.parametrize("record,fields", RECORDS, ids=[type(r).__name__ for r, _ in RECORDS])
def test_records_are_frozen_values_of_their_field_tuple(record, fields):
    name = next(iter(record.as_dict()))
    with pytest.raises(AttributeError):
        setattr(record, name, fields[0])
    with pytest.raises(AttributeError):
        delattr(record, name)
    assert tuple(record.as_dict().values()) == fields
    with pytest.raises(TypeError):
        type(record)(*fields, None)
    twin = type(record)(*fields)
    assert twin == record and twin is not record
    assert hash(twin) == hash(record) == hash(fields)
    assert record != fields and fields != record
    assert len({record, fields}) == 2
    assert pickle.loads(pickle.dumps(record)) == record
    assert copy.deepcopy(record) == record
    shown = ", ".join(f"{k}={v!r}" for k, v in record.as_dict().items())
    assert repr(record) == f"{type(record).__name__}({shown})"


def test_a_record_takes_its_fields_by_position_or_name():
    class Pair(Record):
        first: int
        second: str
        __slots__ = tuple(__annotations__)

    # the first construction, by name, compiles the class's __init__
    assert Pair(second="b", first=1) == Pair(1, "b")
    assert Pair(1, second="b").as_dict() == {"first": 1, "second": "b"}
    with pytest.raises(TypeError):
        Pair(1)
    with pytest.raises(TypeError):
        Pair(1, "b", third=None)


def test_records_of_different_classes_are_unequal():
    # both hash as (2, 1)
    assert RO2Degree(2, 1) != NegativeConeClass(2, 1)
    assert len({RO2Degree(2, 1), NegativeConeClass(2, 1)}) == 2


def test_degrees_order_as_their_pairs():
    pairs = [(1, 0), (-2, 5), (0, 0), (1, -3), (-2, -1), (0, 0)]
    assert sorted(RO2Degree(p, q) for p, q in pairs) == [RO2Degree(p, q) for p, q in sorted(pairs)]
    a, b = RO2Degree(0, 1), RO2Degree(1, 0)
    assert a < b and a <= b and b > a and b >= a and a <= a and a >= a
    with pytest.raises(TypeError):
        RO2Degree(0, 0) < (1, 0)


BAD = [
    (EinftyMonomial, (0, 0, (1, 0))),  # trailing zero power
    (EinftyMonomial, (-1, 0, (1,))),
    (EinftyMonomial, (0, 0, (2, -1, 1))),
    (CobarMonomial, (-1, 0, ())),
    (CobarMonomial, (0, 0, (2, 0, 1))),
    (NegativeConeClass, (-1, 0)),
    (NegativeConeClass, (0, -1)),
    (F2Matrix, (1, 2, (0,))),  # column count
    (F2Matrix, (2, 2, (0b1, -1))),
    (F2Matrix, (2, 2, (0b100, 0b1))),
    (F2Matrix, (2, 2, (0b1, 0b110))),
]


@pytest.mark.parametrize("cls,fields", BAD, ids=[f"{c.__name__}{f}" for c, f in BAD])
def test_validating_records_refuse_bad_fields(cls, fields):
    with pytest.raises(ValueError):
        cls(*fields)
