"""The contract every value record of the package keeps.

The records are plain classes on one base, ``strategies._Record``.  Each
value record, built by keyword, has the ``Name(field=value, ...)`` repr; a
record with equal fields, built positionally, is equal and hashes equal; a
record never equals a value of another type; every field refuses assignment
and deletion with an AttributeError naming it; the dict form keeps the
constructor's field order; and a pickle round trip rebuilds an equal record
through the constructor.  Every record is either such a value record or an
array holder, whose array fields are read-only however it was built.
"""

import inspect
import pickle

import numpy as np
import pytest

from p3poly import cli, linalg  # noqa: F401 -- every layer is loaded for the walk below
from p3poly import geometry as ge
from p3poly import manifold as mf
from p3poly import quantum as qu
from p3poly import stats as sta
from p3poly import strategies as st

_COORDS = (0.0, 0.5, 1.0, 0.25, 0.0, 0.125, 0.5, 0.25)
_POINT_TEXT = f"BehaviourPoint(coords={_COORDS!r}, representation='reduced-8')"
_PARAMS_TEXT = "ManifoldParams(a0=0.5, a1=0.25, c0=1.0, c1=0.0)"

RECORDS = [
    (lambda: st.ScenarioShape(n=3, m=2, d=2), "ScenarioShape(n=3, m=2, d=2)"),
    (
        lambda: st.DeterministicStrategy(first=2, middle=1, last=3),
        "DeterministicStrategy(first=2, middle=1, last=3)",
    ),
    (lambda: st.BehaviourPoint(coords=_COORDS, representation=st.REDUCED_8), _POINT_TEXT),
    # The two defaults fill in.
    (lambda: sta.NoiseSpec(0.05), "NoiseSpec(sigma=0.05, seed=42, absolute=False)"),
    (lambda: sta.NoiseSpec(sigma=0.5, seed=7, absolute=True), "NoiseSpec(sigma=0.5, seed=7, absolute=True)"),
    (
        lambda: sta.TestReport(
            distance=0.5, sigma_d=0.25, z=2.0, p_value=0.0455, overlap=0.617, alpha=0.01, reject=False
        ),
        "TestReport(distance=0.5, sigma_d=0.25, z=2.0, p_value=0.0455, overlap=0.617, alpha=0.01, "
        "reject=False)",
    ),
    (lambda: mf.ManifoldParams(a0=0.5, a1=0.25, c0=1.0, c1=0.0), _PARAMS_TEXT),
    (
        lambda: mf.ProjectionResult(
            params=mf.ManifoldParams(0.5, 0.25, 1.0, 0.0),
            point=st.BehaviourPoint.reduced(_COORDS),
            squared_distance=0.0, distance=0.0, iterations=1, converged=True, global_gap=0.0,
        ),
        f"ProjectionResult(params={_PARAMS_TEXT}, point={_POINT_TEXT}, squared_distance=0.0, "
        "distance=0.0, iterations=1, converged=True, global_gap=0.0)",
    ),
    (
        lambda: ge.CoverageReport(
            members=(0, 5), newly_covered=(7, 3), running_totals=(7, 10), complete=False
        ),
        "CoverageReport(members=(0, 5), newly_covered=(7, 3), running_totals=(7, 10), complete=False)",
    ),
    (lambda: qu.NoSignallingResult(witness=None), "NoSignallingResult(witness=None)"),
    (
        lambda: qu.BoundReport(l2=0.5, l1=1.0, delta_a=0.25, delta_b=0.25, delta_ab=0.5),
        "BoundReport(l2=0.5, l1=1.0, delta_a=0.25, delta_b=0.25, delta_ab=0.5)",
    ),
]


@pytest.mark.parametrize(
    "build, text", RECORDS,
    ids=[
        "ScenarioShape", "DeterministicStrategy", "BehaviourPoint", "NoiseSpec-defaults", "NoiseSpec",
        "TestReport", "ManifoldParams", "ProjectionResult", "CoverageReport", "NoSignallingResult",
        "BoundReport",
    ],
)
def test_value_record_contract(build, text, monkeypatch):
    record = build()
    cls = type(record)
    assert repr(record) == text
    twin = cls(*record._astuple())
    assert twin is not record
    assert twin == record and not twin != record and hash(twin) == hash(record)
    # Not even the tuple of its own fields, nor a record of another class.
    assert record.__eq__(record._astuple()) is NotImplemented and record != record._astuple()
    others = [other() for other, _ in RECORDS]
    assert all(record != other for other in others if type(other) is not cls)
    for name in record._fields:
        with pytest.raises(AttributeError, match=f"^cannot assign to field '{name}'$"):
            setattr(record, name, getattr(record, name))
        with pytest.raises(AttributeError, match=f"^cannot delete field '{name}'$"):
            delattr(record, name)
    assert list(record._asdict()) == list(record._fields) == list(inspect.signature(cls).parameters)
    assert tuple(record._asdict().values()) == record._astuple()
    # Unpickling calls the constructor on the field values, so its checks run.
    data = pickle.dumps(record)
    calls = []
    init = cls.__init__
    monkeypatch.setattr(cls, "__init__", lambda self, *args: calls.append(args) or init(self, *args))
    clone = pickle.loads(data)
    assert calls == [record._astuple()]
    assert type(clone) is cls and clone == record and repr(clone) == text


def _lhv_fields():
    # One state per source; every wing puts all weight on outcome 0.
    response = np.zeros((2, 1, 2))
    response[..., 0] = 1.0
    return np.ones(1), np.ones(1), response, response[:, :, None].copy(), response.copy()


# The records that compare by identity, each with a builder of fresh field
# values; a holder's array fields are the fields that hold a numpy array.
ARRAY_HOLDERS = {
    qu.DensityMatrix: lambda: (np.eye(2, dtype=complex) / 2,),
    qu.FullDistribution: lambda: (st.ScenarioShape(1, 1, 2), np.array([[0.25, 0.75]])),
    qu.LhvModel: _lhv_fields,
    # A tuple of stacks, which the public constructor freezes itself.
    qu.MeasurementSet: lambda: ((np.array([[np.diag([1.0, 0.0]), np.diag([0.0, 1.0])]]),),),
    ge.VisibilityGraph: lambda: ((0b10, 0b01),),
}


def _subclasses(cls):
    for sub in cls.__subclasses__():
        yield sub
        yield from _subclasses(sub)


def test_every_record_is_covered():
    # A record added without a place in RECORDS or ARRAY_HOLDERS fails here.
    value_records = {type(build()) for build, _ in RECORDS}
    records = set(_subclasses(st._Record))
    assert records == value_records | set(ARRAY_HOLDERS)
    assert not value_records & set(ARRAY_HOLDERS)
    for cls in ARRAY_HOLDERS:
        assert cls.__eq__ is object.__eq__ and cls.__hash__ is object.__hash__


@pytest.mark.parametrize("cls", list(ARRAY_HOLDERS), ids=lambda cls: cls.__name__)
def test_array_holder_fields_are_read_only(cls):
    build = ARRAY_HOLDERS[cls]
    given = build()
    public = cls(*given)
    # The public constructor freezes private copies, never the caller's arrays.
    assert all(a.flags.writeable for a in given if isinstance(a, np.ndarray))
    # The private constructor stores the values themselves.
    values = build()
    unchecked = cls._unchecked(*values)
    assert all(mine is theirs for mine, theirs in zip(unchecked._astuple(), values, strict=True))
    for record in (public, unchecked):
        for array in [value for value in record._astuple() if isinstance(value, np.ndarray)]:
            with pytest.raises(ValueError, match="read-only"):
                array.flat[0] = 0


def test_value_record_leaves_a_callers_array_writable():
    # Only an array holder freezes what it stores; a value record stores a
    # caller's array as it is.
    given = np.array(0.5)
    report = linalg.BoundReport(given, 1.0, 0.25, 0.25, 0.5)
    assert report.l2 is given and given.flags.writeable
