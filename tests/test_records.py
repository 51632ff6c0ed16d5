"""Value semantics of the package's record classes, and a start-up that
imports no ``dataclasses`` or ``typing``."""

import copy
import inspect
import subprocess
import sys
from fractions import Fraction
from pathlib import Path

import pytest

from lllcolor.hindman import AdditionLike, PigeonholeReport, StagedFamily
from lllcolor.lll import Assignment, ConditionRefusal, Event, LLLCertificate, VarSpec
from lllcolor.streams import Coloring, ConstraintStream, SparsityReport
from lllcolor.verify import AuditReport, MemberVerdict

F = Fraction
SRC = Path(__file__).resolve().parent.parent / "src"


def add(x, y):
    return x + y


def first(x, n):
    return n


VERDICT = MemberVerdict(0, 8, True, False, (1, 2), 3, 4, 5, ())

# each record's fields, then another value for each field the test changes;
# a count that the constructor checks against another field keeps its value
SAMPLES = {
    AdditionLike: (
        dict(name="sum", pair=add, growth=first, mult_bound=1),
        dict(name="sum2", pair=max, growth=min, mult_bound=2),
    ),
    StagedFamily: (
        dict(mode="ce", count=1, stage_count=8, changes=(((3, frozenset({1, 2})),),)),
        dict(mode="sigma2", stage_count=9, changes=(((4, frozenset({1, 2})),),)),
    ),
    PigeonholeReport: (
        dict(max_s=1, forced_triple_holds=True, forced_counterexamples=(),
             naive_counterexamples=("0101",)),
        dict(max_s=2, forced_triple_holds=False, forced_counterexamples=("010",),
             naive_counterexamples=()),
    ),
    VarSpec: (
        dict(index=0, range_size=2, weights=(F(1, 2), F(1, 2))),
        dict(index=1, weights=(F(1, 4), F(3, 4))),
    ),
    Event: (
        dict(id=0, vbl=(0, 1), forbidden=((0, 0),)),
        dict(id=1, vbl=(0, 2), forbidden=((1, 0),)),
    ),
    Assignment: (dict(values={0: 1}), dict(values={0: 0})),
    LLLCertificate: (
        dict(r=(F(1, 3),), q=F(1), margins=(F(-1, 3),)),
        dict(r=(F(1, 2),), q=F(3, 4), margins=(F(-1, 4),)),
    ),
    ConditionRefusal: (
        dict(first_violation=0, r=(F(1, 3),), q=F(1), margins=(F(1, 3),)),
        dict(first_violation=1, r=(F(1, 2),), q=F(3, 4), margins=(F(1, 4),)),
    ),
    SparsityReport: (
        dict(window=64, M=4, q=F(1, 2), counts={4: [0, 1]}, violations=(), near=(),
             cross_check="none", cells_checked=0, max_size_seen=4, items_in_window=1),
        dict(window=128, M=5, q=F(1, 3), counts={}, violations=((4, 0, 5, 4),),
             near=((4, 0, 4, 4),), cross_check="full", cells_checked=1, max_size_seen=5,
             items_in_window=2),
    ),
    Coloring: (
        dict(bits="0110", seed=1, stream_fingerprint="", n0=64, phases=0),
        dict(bits="01", seed=2, stream_fingerprint="ab", n0=128, phases=1),
    ),
    MemberVerdict: (
        dict(member=0, bound=8, stabilized=True, vacuous=False, elements=(1, 2),
             stable_since=3, first_emission=4, translates_checked=5, violations=()),
        dict(member=1, bound=9, stabilized=False, vacuous=True, elements=(),
             stable_since=None, first_emission=None, translates_checked=0,
             violations=((3, (1, 2)),)),
    ),
    AuditReport: (
        dict(mode="comp", bound_rule="M+i", guard=64, horizon=1024, members=(VERDICT,),
             translates_checked=5, violations_total=0),
        dict(mode="main", bound_rule="2*(M+i)", guard=128, horizon=2048, members=(),
             translates_checked=6, violations_total=1),
    ),
}
MUTABLE = {SparsityReport}


def stream(**changes):
    fields = dict(M=4, q=F(1, 2), items=((0, 1, 2, 3), (1, 2, 3, 4)), provenance=((0, 5), (0, 6)))
    return ConstraintStream(**{**fields, **changes})


@pytest.mark.parametrize("cls", SAMPLES, ids=lambda cls: cls.__name__)
class TestRecords:
    def test_fields_follow_the_constructor(self, cls):
        assert cls._fields == tuple(inspect.signature(cls).parameters)
        assert set(SAMPLES[cls][1]) <= set(cls._fields)

    def test_equal_fields_give_equal_records(self, cls):
        fields = SAMPLES[cls][0]
        a, b = cls(**fields), cls(*fields.values())
        assert a == b and not a != b
        assert a != tuple(fields.values())
        if cls in MUTABLE or cls is Assignment:
            # a dict field leaves the record unhashable
            with pytest.raises(TypeError):
                hash(a)
        else:
            assert hash(a) == hash(b)

    def test_one_changed_field_gives_an_unequal_record(self, cls):
        fields, others = SAMPLES[cls]
        a = cls(**fields)
        for name, value in others.items():
            assert cls(**{**fields, name: value}) != a, name

    def test_frozen_records_refuse_assignment(self, cls):
        fields = SAMPLES[cls][0]
        a = cls(**fields)
        for name in cls._fields:
            if cls in MUTABLE:
                setattr(a, name, getattr(a, name))
                continue
            with pytest.raises(AttributeError, match=f"cannot assign to field '{name}'"):
                setattr(a, name, getattr(a, name))
            with pytest.raises(AttributeError, match=f"cannot delete field '{name}'"):
                delattr(a, name)
        with pytest.raises(AttributeError):
            a.unknown = 1
        assert a == cls(**fields)

    def test_copies_are_equal(self, cls):
        a = cls(**SAMPLES[cls][0])
        assert copy.copy(a) == a and copy.deepcopy(a) == a

    def test_repr_names_each_field(self, cls):
        fields = SAMPLES[cls][0]
        expect = ", ".join(f"{name}={value!r}" for name, value in fields.items())
        assert repr(cls(**fields)).endswith(f"{cls.__name__}({expect})")


class TestConstraintStreamRecord:
    def test_equality_ignores_the_oracle_and_the_fingerprint(self):
        a = stream()
        b = ConstraintStream.from_bases(
            4, F(1, 2), [(0, 1, 2, 3)], [0, 0], [0, 1], [(0, 5), (0, 6)],
            locality_fn=lambda m, n: (),
        )
        b.fingerprint()
        assert a._fp is None and b._fp is not None
        assert a == b and not a != b

    def test_one_changed_field_gives_an_unequal_stream(self):
        a = stream()
        assert stream(M=3) != a
        assert stream(q=F(1, 3)) != a
        assert stream(items=((0, 1, 2, 3), (2, 3, 4, 5))) != a
        assert stream(items=((0, 1, 2, 3), (1, 2, 3, 5))) != a
        assert stream(provenance=None) != a
        assert stream(provenance=((0, 5), (1, 6))) != a
        assert stream(provenance=((0, 5), (0, 7))) != a

    def test_unhashable_and_mutable(self):
        a = stream()
        with pytest.raises(TypeError):
            hash(a)
        a.locality_fn = len
        assert a.locality_fn is len

    def test_repr_leaves_out_the_oracle_and_the_fingerprint(self):
        a = stream()
        a.fingerprint()
        text = repr(a)
        assert text.startswith("ConstraintStream(M=4, q=Fraction(1, 2), bases=((0, 1, 2, 3),)")
        assert "locality_fn" not in text and "_fp" not in text


def test_cli_imports_no_dataclasses_or_typing():
    # -S: no site module, so no .pth file brings in typing on its own
    code = (
        f"import sys; sys.path.insert(0, {str(SRC)!r}); import lllcolor.cli; "
        "print(sorted({'dataclasses', 'inspect', 'ast', 'typing'} & set(sys.modules)))"
    )
    out = subprocess.run(
        [sys.executable, "-S", "-c", code], capture_output=True, text=True, check=True
    ).stdout
    assert out == "[]\n"
