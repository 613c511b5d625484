"""The package's records are immutable value types.

Fans and walls are ``lru_cache`` keys and set members, so equality and
hashing are by value, never across classes, and never with a bare tuple.
"""

import pickle
import sys

import pytest

import toricfano
from toricfano import _record
from toricfano.classify import (
    CatalogEntry,
    ClassificationResult,
    DivisorAnalysis,
    FixedPointProbe,
    SimplificationStep,
    Theorem1Report,
)
from toricfano.cli import Report
from toricfano.fan import Fan, ValidationReport, Wall, star_subdivide
from toricfano.intersect import DivisorPositivity, TDivisor
from toricfano.mori import ContractionInfo

P2_RAYS = ((1, 0), (0, 1), (-1, -1))
P2_CONES = ((0, 1), (0, 2), (1, 2))
P2 = Fan(2, P2_RAYS, P2_CONES)
WALL = Wall((0, 1), 2, 3, (1, 1))

# every record class with the positional arguments of one instance
SAMPLES = {
    Fan: (2, P2_RAYS, P2_CONES),
    ValidationReport: (("cone 0 is not simplicial",),),
    Wall: ((0, 1), 2, 3, (1, 1)),
    TDivisor: ((1, 1, 1),),
    DivisorPositivity: (True, True, 1, WALL),
    ContractionInfo: (0, 0, "fibration"),
    DivisorAnalysis: (2, True, 1, (1, 1, 1), WALL),
    CatalogEntry: ("i", None, P2, ((0, 1), (1, 1), (2, 1)), "P^2"),
    SimplificationStep: (WALL, 3, P2, 0, (0, 1)),
    ClassificationResult: ("i", None, ((1, 0), (0, 1)), "point-contraction", ()),
    FixedPointProbe: (0, "projective-space", ((1, 0), (0, 1)), None),
    Theorem1Report: (2, True, (True, True, True), (), ()),
}
RECORDS = list(SAMPLES)


def fields(cls):
    return tuple(cls.__annotations__)


def test_every_record_is_sampled():
    found = {
        value
        for name, module in list(sys.modules.items())
        if name.startswith("toricfano")
        for value in vars(module).values()
        if isinstance(value, type) and value.__setattr__ is _record._read_only
    }
    assert found == set(SAMPLES)
    assert all(getattr(toricfano, cls.__name__) is cls for cls in RECORDS)


@pytest.mark.parametrize("cls", RECORDS, ids=lambda c: c.__name__)
class TestRecord:
    def test_equality_is_by_class_and_values(self, cls):
        args = SAMPLES[cls]
        a, b = cls(*args), cls(*args)
        assert a is not b and a == b and not a != b
        assert a != tuple(args)
        sub = type("Sub", (cls,), {})(*args)
        assert a != sub and sub != a
        for other in RECORDS:
            if other is not cls and len(fields(other)) == len(args):
                assert a != other(*SAMPLES[other])

    def test_hash_is_the_hash_of_the_values(self, cls):
        record = cls(*SAMPLES[cls])
        values = tuple(getattr(record, name) for name in fields(cls))
        assert values == SAMPLES[cls]
        assert hash(record) == hash(values)
        assert len({record, cls(*SAMPLES[cls])}) == 1

    def test_fields_are_read_only(self, cls):
        record = cls(*SAMPLES[cls])
        for name in fields(cls):
            before = getattr(record, name)
            with pytest.raises(AttributeError):
                setattr(record, name, before)
            with pytest.raises(AttributeError):
                delattr(record, name)
            assert getattr(record, name) is before
        with pytest.raises(AttributeError):
            record.extra = 1

    def test_repr(self, cls):
        record = cls(*SAMPLES[cls])
        inner = ", ".join(
            f"{name}={value!r}" for name, value in zip(fields(cls), SAMPLES[cls])
        )
        assert repr(record) == f"{cls.__name__}({inner})"

    def test_keyword_construction(self, cls):
        args = SAMPLES[cls]
        assert cls(**dict(zip(fields(cls), args))) == cls(*args)
        assert cls(*args[:1], **dict(zip(fields(cls)[1:], args[1:]))) == cls(*args)

    def test_bad_arguments_raise_type_error(self, cls):
        args = SAMPLES[cls]
        with pytest.raises(TypeError):
            cls()
        with pytest.raises(TypeError):
            cls(*args, bogus=1)
        with pytest.raises(TypeError):
            cls(*args, *args)
        with pytest.raises(TypeError):
            cls(*args, **{fields(cls)[0]: args[0]})

    def test_pickle_round_trip(self, cls):
        record = cls(*SAMPLES[cls])
        assert pickle.loads(pickle.dumps(record)) == record


def test_repr_format():
    assert repr(WALL) == "Wall(wall_rays=(0, 1), apex_a=2, apex_b=3, coeffs=(1, 1))"


def test_defaults():
    # a Fano probe has no defaults and the generated ``__init__``
    probe = FixedPointProbe(cone_index=1, conclusion=None, witness=None, violation=None)
    assert probe == FixedPointProbe(1, None, None, None)
    assert FixedPointProbe.__init__.__qualname__ == "record.<locals>.__init__"
    with pytest.raises(TypeError):
        FixedPointProbe(1)
    analysis = DivisorAnalysis(ray_index=4, is_proj_space=False)
    assert (analysis.d, analysis.line_class, analysis.line_wall) == (None, None, None)
    assert ClassificationResult("i", None, (), "simplified").steps == ()
    assert Theorem1Report(3, True, (), ()).global_violations == ()


def test_divisor_analysis_construction_matches_the_generated_init():
    """``DivisorAnalysis`` writes its own ``__init__``, as the records built
    in hot loops do, since most analyses take the defaults.  Built by
    position, by keyword or with defaults, it has the fields, hash and repr
    that the record's generated ``__init__`` gives, and equals the analysis
    built from those fields by position."""
    namespace = {"__annotations__": dict(DivisorAnalysis.__annotations__)}
    namespace.update(d=None, line_class=None, line_wall=None)
    generated = _record.record(type("DivisorAnalysis", (), namespace))
    assert DivisorAnalysis.__init__.__qualname__ == "DivisorAnalysis.__init__"
    assert generated.__init__.__qualname__ == "record.<locals>.__init__"
    calls = [
        ((4, False), {}),
        ((), {"ray_index": 4, "is_proj_space": False}),
        ((4,), {"is_proj_space": False, "d": None}),
        ((2, True, 1, (1, 1, 1), WALL), {}),
        ((2, True), {"line_wall": WALL, "d": -1, "line_class": (0, 1)}),
        ((), dict(zip(fields(DivisorAnalysis), (2, True, 1, (1, 1, 1), WALL)))),
    ]
    for args, kwargs in calls:
        ours, theirs = DivisorAnalysis(*args, **kwargs), generated(*args, **kwargs)
        values = tuple(getattr(theirs, name) for name in fields(DivisorAnalysis))
        assert tuple(getattr(ours, name) for name in fields(DivisorAnalysis)) == values
        assert hash(ours) == hash(theirs) == hash(values)
        assert repr(ours) == repr(theirs)
        assert ours == DivisorAnalysis(*values) and ours != theirs
        assert vars(ours) == vars(theirs)


def test_a_missing_field_is_named():
    with pytest.raises(TypeError, match="is_proj_space"):
        DivisorAnalysis(3)
    with pytest.raises(TypeError, match="bogus"):
        Wall((0, 1), 2, 3, (1, 1), bogus=2)


def test_fan_normalises_and_checks_its_entries():
    fan = Fan(2, P2_RAYS, ((1, 0), (2, 0), (2, 1)))
    assert fan.max_cones == P2_CONES
    assert fan == P2 and hash(fan) == hash(P2)
    assert Fan(2, list(map(list, P2_RAYS)), [[1, 0], [0, 2], [2, 1]]) == P2
    with pytest.raises(TypeError, match="ray 0 coordinate"):
        Fan(2, ((1.0, 0), (0, 1), (-1, -1)), P2_CONES)
    with pytest.raises(TypeError, match="cone 1 entry"):
        Fan(2, P2_RAYS, ((0, 1), (0, 2.0), (1, 2)))
    with pytest.raises(TypeError, match="divisor coefficient 1"):
        TDivisor((1, 1.5, 1))


def test_fan_hash_is_kept_from_construction():
    """A fan is hashed on every cache lookup keyed by it, so its hash, the
    record's hash of the field tuple, is computed once and stored; the value
    a fan built from lists, after a pickle round trip or by star subdivision
    has is the same."""
    fan = Fan(2, list(map(list, P2_RAYS)), [[1, 0], [0, 2], [2, 1]])
    values = (fan.dim, fan.rays, fan.max_cones)
    assert vars(fan)["_hash"] == hash(fan) == hash(values) == hash(P2)
    assert hash(pickle.loads(pickle.dumps(fan))) == hash(values)
    blown = star_subdivide(P2, (0, 1))
    assert hash(blown) == hash((2, blown.rays, blown.max_cones))
    assert hash(blown) == hash(Fan(2, blown.rays, blown.max_cones))
    # hash() reads the stored value and does not walk the tuples again
    object.__setattr__(fan, "_hash", 12345)
    assert hash(fan) == 12345


def test_reports_do_not_share_findings():
    first, second = Report("x"), Report("x")
    first.findings.append({"a": 1})
    assert second.findings == []
    assert (second.command, second.status, second.witness) == ("x", "pass", None)
    assert Report("y", status="fail").status == "fail"
