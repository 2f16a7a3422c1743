"""The immutable records: construction, checks, equality, hash, repr and
immutability, for every record class of the package.

Each RECORDS entry lists a valid construction as the record's fields, by
name and in order; the field names are pinned here, not read from the
class.  ALTERNATIVES gives, for every field, another valid value, so a
field left out of equality or hash shows as two different records that
compare equal."""

import math
from array import array

import numpy as np
import pytest

from volqso.classify import CanonicalParams, ClassReport, VolterraClass
from volqso.cli import _Config
from volqso.ergodic import (
    CesaroSeries,
    CoordinateObservable,
    ErgodicVerdict,
    MonomialObservable,
    SojournEvent,
    SojournTable,
    TrajectoryConfig,
    TrajectoryResult,
    Verdict,
)
from volqso.errors import (
    DimensionMismatch,
    NegativeCoordinate,
    NonFiniteInput,
    SumNotOne,
    ValidationError,
    WrongDimension,
)
from volqso.fixed_points import (
    FixedPointInventory,
    FixedPointRecord,
    RepellerLyapunov,
    StabilityType,
)
from volqso.lyapunov import (
    DecayReport,
    DecayVerdict,
    LogGainMatrix,
    LyapunovCandidate,
)
from volqso.qso import HeredityTensor, SkewMatrix, to_tensor
from volqso.simplex import FaceId, LogSimplexPoint, SimplexPoint, _Record

INF = float("inf")
A4 = SkewMatrix(((0.0, 0.5, 0.5, -0.5), (-0.5, 0.0, 0.5, 0.5),
                 (-0.5, -0.5, 0.0, 0.5), (0.5, -0.5, -0.5, 0.0)))
P4 = SimplexPoint((0.4, 0.3, 0.2, 0.1))
P4B = SimplexPoint((0.1, 0.2, 0.3, 0.4))
PARAMS = CanonicalParams(0.1, 0.2, 0.3, 0.4, 0.5, 0.6)
EVENT = SojournEvent(1, 10, 20, -3.0, False)
TABLE = SojournTable((EVENT,), 100, 0.05, 4)
FINAL = LogSimplexPoint((0.0, -INF, -INF, -INF))
RECORD = FixedPointRecord(P4, FaceId((1, 2, 3, 4)), (), (0.5 + 0j,),
                          StabilityType.SADDLE)

# class -> its fields and a valid value for each, in field order
RECORDS = {
    CanonicalParams: dict(a12=0.1, a13=0.2, a14=0.3, a23=0.4, a24=0.5,
                          a34=0.6),
    ClassReport: dict(volterra_class=VolterraClass.CYCLIC, witness_row=None,
                      permutation=(1, 2, 3, 4), canonical_params=PARAMS,
                      invariant=0.5),
    _Config: dict(matrix=A4, runs=(), observables=(), workers=1,
                  delta_conv=1e-3, delta_osc=5e-2, verify=None),
    CoordinateObservable: dict(label=1),
    MonomialObservable: dict(exponents=(1.0, -1.0), name="F"),
    TrajectoryConfig: dict(matrix=A4, start=P4, steps=100, epsilon=0.05,
                           checkpoints=(1, 10, 100), record_stride=10),
    CesaroSeries: dict(function_id="x1", checkpoints=((1, 0.5), (2, 0.25))),
    SojournEvent: dict(vertex=1, entry_step=10, exit_step=20,
                       log_phi_entry=-3.0, started_inside=False),
    SojournTable: dict(events=(EVENT,), total_steps=100, epsilon=0.05, m=4),
    ErgodicVerdict: dict(oscillation=(("x1", 0.1),),
                         verdict=Verdict.INCONCLUSIVE),
    TrajectoryResult: dict(
        m=4, steps=10, epsilon=0.05, observable_names=("x1",), cesaro=(),
        sojourn=TABLE, trace_steps=array("q", [0, 10]),
        trace_log_coords=array("d", [0.0] + [-INF] * 3 + [-1.0] * 4),
        trace_log_phi=array("d", [-INF, -3.0]), monomial_traces={},
        min_log_phi=-3.0, final=FINAL, max_abs_drift=0.0),
    FixedPointRecord: dict(point=P4, support=FaceId((1, 2, 3, 4)),
                           transverse_multipliers=(),
                           in_face_eigenvalues=(0.5 + 0j,),
                           stability=StabilityType.SADDLE, degenerate=False),
    FixedPointInventory: dict(records=(RECORD,), everywhere_fixed=False,
                              degenerate_edges=(), degenerate_faces=(),
                              degenerate_interior=False),
    RepellerLyapunov: dict(exponents=(1.0, -1.0, 0.5, 0.0)),
    LogGainMatrix: dict(b=((0.0, 0.1), (0.2, 0.0))),
    LyapunovCandidate: dict(exponents=(1.0, 0.0, 0.0, -1.0), margin=0.1,
                            vertex_gains=(0.9, 0.8, 0.9, 0.8)),
    DecayReport: dict(verdict=DecayVerdict.DECAYING,
                      decade_drifts=((10, 100, -1.0),), log_start=-1.0,
                      log_end=-5.0),
    SkewMatrix: dict(rows=((0.0, 0.5), (-0.5, 0.0))),
    HeredityTensor: dict(p=to_tensor(A4).p),
    SimplexPoint: dict(coords=(0.5, 0.5)),
    LogSimplexPoint: dict(log_coords=(0.0, -INF)),
    FaceId: dict(support=(1, 3)),
}

# another valid value for every field of every record
ALTERNATIVES = {
    CanonicalParams: dict(a12=0.9, a13=0.9, a14=0.9, a23=0.9, a24=0.9,
                          a34=0.9),
    ClassReport: dict(volterra_class=VolterraClass.DOMINANT_ROW,
                      witness_row=1, permutation=(2, 1, 3, 4),
                      canonical_params=CanonicalParams(*[0.5] * 6),
                      invariant=0.25),
    _Config: dict(matrix=SkewMatrix.zero(4),
                  runs=(TrajectoryConfig(A4, P4, 10),),
                  observables=(CoordinateObservable(1),), workers=2,
                  delta_conv=2e-3, delta_osc=0.1, verify=(P4, 1000, 100)),
    CoordinateObservable: dict(label=2),
    MonomialObservable: dict(exponents=(1.0, 1.0), name="G"),
    TrajectoryConfig: dict(matrix=SkewMatrix.zero(4), start=P4B, steps=200,
                           epsilon=0.1, checkpoints=None, record_stride=5),
    CesaroSeries: dict(function_id="x2", checkpoints=((1, 0.5),)),
    SojournEvent: dict(vertex=2, entry_step=11, exit_step=None,
                       log_phi_entry=-4.0, started_inside=True),
    SojournTable: dict(events=(), total_steps=200, epsilon=0.1, m=3),
    ErgodicVerdict: dict(oscillation=(("x1", 0.2),),
                         verdict=Verdict.CONVERGED_AT_SCALE),
    TrajectoryResult: dict(
        m=3, steps=20, epsilon=0.1, observable_names=("x2",),
        cesaro=(CesaroSeries("x1", ()),),
        sojourn=SojournTable((), 10, 0.05, 4),
        trace_steps=array("q", [0, 5]),
        trace_log_coords=array("d", [0.0] + [-INF] * 3 + [-2.0] * 4),
        trace_log_phi=array("d", [-INF, -4.0]),
        monomial_traces={"F1": array("d", [0.0, -1.0])}, min_log_phi=-4.0,
        final=LogSimplexPoint((-INF, 0.0, -INF, -INF)), max_abs_drift=1e-16),
    FixedPointRecord: dict(point=P4B, support=FaceId((1, 2)),
                           transverse_multipliers=((3, 1.5),),
                           in_face_eigenvalues=(0.25 + 0j,),
                           stability=StabilityType.REPELLING,
                           degenerate=True),
    FixedPointInventory: dict(records=(), everywhere_fixed=True,
                              degenerate_edges=(FaceId((1, 2)),),
                              degenerate_faces=(FaceId((1, 2, 3)),),
                              degenerate_interior=True),
    RepellerLyapunov: dict(exponents=(1.0, 1.0, 1.0, 1.0)),
    LogGainMatrix: dict(b=((0.0, 0.3), (0.2, 0.0))),
    LyapunovCandidate: dict(exponents=(0.0, 1.0, 0.0, -1.0), margin=0.2,
                            vertex_gains=(0.8, 0.8, 0.9, 0.8)),
    DecayReport: dict(verdict=DecayVerdict.NOT_DECAYING,
                      decade_drifts=((10, 100, 1.0),), log_start=-2.0,
                      log_end=-6.0),
    SkewMatrix: dict(rows=((0.0, -0.5), (0.5, 0.0))),
    HeredityTensor: dict(p=to_tensor(SkewMatrix.zero(4)).p),
    SimplexPoint: dict(coords=(0.25, 0.75)),
    LogSimplexPoint: dict(log_coords=(-INF, 0.0)),
    FaceId: dict(support=(2, 3)),
}

# the fields a record may leave out, with their defaults
DEFAULTS = {
    ClassReport: dict(witness_row=None, permutation=None,
                      canonical_params=None, invariant=None),
    MonomialObservable: dict(name=""),
    TrajectoryConfig: dict(epsilon=0.05, checkpoints=None,
                           record_stride=1000),
    FixedPointRecord: dict(degenerate=False),
    FixedPointInventory: dict(everywhere_fixed=False, degenerate_edges=(),
                              degenerate_faces=(), degenerate_interior=False),
}

# a record holding a dict is unhashable
UNHASHABLE = {TrajectoryResult}

CLASSES = list(RECORDS)
IDS = [cls.__name__ for cls in CLASSES]


def build(cls, **changes):
    return cls(**dict(RECORDS[cls], **changes))


def same_value(x, y) -> bool:
    return x is y or x == y


def same_fields(a, b, fields) -> bool:
    return all(same_value(getattr(a, f), getattr(b, f)) for f in fields)


def test_every_record_is_listed():
    # the imports above load every module that defines a record
    assert set(_Record.__subclasses__()) == set(RECORDS)
    assert len(RECORDS) == 22
    assert set(ALTERNATIVES) == set(RECORDS)
    for cls in CLASSES:
        assert set(ALTERNATIVES[cls]) == set(RECORDS[cls]), cls.__name__


@pytest.mark.parametrize("cls", CLASSES, ids=IDS)
def test_positional_and_keyword_construction(cls):
    fields = RECORDS[cls]
    by_name = build(cls)
    by_position = cls(*fields.values())
    assert same_fields(by_name, by_position, fields)
    for f, value in fields.items():
        assert same_value(getattr(by_name, f), value), f
    first, *rest = fields
    for bad_args, bad_kwargs in [
            ((*fields.values(), None), {}),          # too many
            ((), dict(fields, no_such_field=None)),  # unknown
            ((fields[first],), fields),              # repeated
            ((), {f: fields[f] for f in rest})]:     # the first missing
        with pytest.raises(TypeError):
            cls(*bad_args, **bad_kwargs)


@pytest.mark.parametrize("cls", list(DEFAULTS), ids=lambda c: c.__name__)
def test_defaults(cls):
    defaults = DEFAULTS[cls]
    required = {f: v for f, v in RECORDS[cls].items() if f not in defaults}
    rec = cls(**required)
    for f, value in defaults.items():
        assert getattr(rec, f) == value, f
    assert cls(*required.values()) == rec


@pytest.mark.parametrize("cls", CLASSES, ids=IDS)
def test_field_wise_equality_and_hash(cls):
    rec, twin = build(cls), build(cls)
    assert rec == twin and not rec != twin
    for f, alt in ALTERNATIVES[cls].items():
        other = build(cls, **{f: alt})
        assert rec != other and not rec == other, f
    if cls in UNHASHABLE:
        with pytest.raises(TypeError):
            hash(rec)
    else:
        assert hash(rec) == hash(twin)
        assert hash(rec) == hash(tuple(getattr(rec, f) for f in RECORDS[cls]))


@pytest.mark.parametrize("cls", CLASSES, ids=IDS)
def test_unequal_to_another_class_with_equal_fields(cls):
    class Twin(cls):
        pass

    rec = build(cls)
    other = Twin(*(getattr(rec, f) for f in RECORDS[cls]))
    assert same_fields(rec, other, RECORDS[cls])
    assert rec != other and other != rec
    assert not rec == other


@pytest.mark.parametrize("cls", CLASSES, ids=IDS)
def test_dataclass_repr(cls):
    rec = build(cls)
    text = ", ".join(f"{f}={getattr(rec, f)!r}" for f in RECORDS[cls])
    assert repr(rec) == f"{cls.__qualname__}({text})"


@pytest.mark.parametrize("cls", CLASSES, ids=IDS)
def test_immutable(cls):
    rec = build(cls)
    for f in RECORDS[cls]:
        value = getattr(rec, f)
        with pytest.raises(AttributeError):
            setattr(rec, f, ALTERNATIVES[cls][f])
        with pytest.raises(AttributeError):
            delattr(rec, f)
        assert getattr(rec, f) is value
    with pytest.raises(AttributeError):
        rec.no_such_field = 1
    assert not hasattr(rec, "no_such_field")


# the checks and conversions the constructors made in __post_init__ while
# the records were frozen dataclasses
@pytest.mark.parametrize("cls,changes,error", [
    (SimplexPoint, dict(coords=(1.0,)), WrongDimension),
    (SimplexPoint, dict(coords=(0.2,) * 5), WrongDimension),
    (SimplexPoint, dict(coords=(math.nan, 1.0)), NonFiniteInput),
    (SimplexPoint, dict(coords=(1.5, -0.5)), NegativeCoordinate),
    (SimplexPoint, dict(coords=(0.5, 0.4)), SumNotOne),
    (LogSimplexPoint, dict(log_coords=(0.0,)), WrongDimension),
    (LogSimplexPoint, dict(log_coords=(math.nan, 0.0)), NonFiniteInput),
    (LogSimplexPoint, dict(log_coords=(INF, 0.0)), NonFiniteInput),
    (LogSimplexPoint, dict(log_coords=(-INF, -INF)), ValidationError),
    (FaceId, dict(support=()), ValidationError),
    (FaceId, dict(support=(2, 2)), ValidationError),
    (FaceId, dict(support=(0, 1)), ValidationError),
    (SkewMatrix, dict(rows=((0.0,),)), WrongDimension),
    (SkewMatrix, dict(rows=((0.0, 0.5), (-0.5,))), WrongDimension),
    (SkewMatrix, dict(rows=((0.0, INF), (-INF, 0.0))), NonFiniteInput),
    (SkewMatrix, dict(rows=((0.0, 1.5), (-1.5, 0.0))), ValidationError),
    (SkewMatrix, dict(rows=((0.0, 0.5), (0.5, 0.0))), ValidationError),
    (HeredityTensor, dict(p=[[1.0]]), WrongDimension),
    (HeredityTensor, dict(p=[[[1.0]]]), WrongDimension),
    (HeredityTensor, dict(p=[[[math.nan, 1.0]] * 2] * 2), NonFiniteInput),
    (HeredityTensor, dict(p=[[[-0.5, 1.5]] * 2] * 2), ValidationError),
    (HeredityTensor, dict(p=[[[0.5, 0.6]] * 2] * 2), ValidationError),
    (CanonicalParams, dict(a23=-0.1), ValidationError),
    (TrajectoryConfig, dict(start=SimplexPoint((0.5, 0.5))),
     DimensionMismatch),
    (TrajectoryConfig, dict(steps=0), ValidationError),
    (TrajectoryConfig, dict(epsilon=0.25), ValidationError),
    (TrajectoryConfig, dict(epsilon=0.0), ValidationError),
    (TrajectoryConfig, dict(record_stride=0), ValidationError),
    (TrajectoryConfig, dict(checkpoints=()), ValidationError),
    (TrajectoryConfig, dict(checkpoints=(10, 10)), ValidationError),
    (TrajectoryConfig, dict(checkpoints=(0, 10)), ValidationError),
    (TrajectoryConfig, dict(checkpoints=(1, 101)), ValidationError),
    (MonomialObservable, dict(exponents=("x", 1.0)), ValueError),
])
def test_constructor_checks(cls, changes, error):
    with pytest.raises(error):
        build(cls, **changes)


def test_constructor_conversions():
    assert SimplexPoint([1, 0]).coords == (1.0, 0.0)
    assert all(type(c) is float for c in SimplexPoint([1, 0]).coords)
    assert LogSimplexPoint((0.0, 0.0)).log_coords == (-math.log(2),) * 2
    assert FaceId([3, 1, 2]).support == (1, 2, 3)
    rows = SkewMatrix([[0, 1], [-1, 0]]).rows
    assert rows == ((0.0, 1.0), (-1.0, 0.0))
    assert all(type(v) is float for row in rows for v in row)
    tensor = HeredityTensor(np.array(to_tensor(A4).p))
    assert tensor == to_tensor(A4)
    assert all(type(v) is float for plane in tensor.p for row in plane
               for v in row)
    assert all(type(row) is tuple for plane in tensor.p for row in plane)
    params = CanonicalParams(-0.0, 0, 0, 0, 0, 1)
    assert math.copysign(1.0, params.a12) == 1.0
    assert type(params.a13) is float
    cfg = TrajectoryConfig(A4, P4, 100, checkpoints=[1.0, 50])
    assert cfg.checkpoints == (1, 50)
    assert all(type(n) is int for n in cfg.checkpoints)
    assert MonomialObservable([1, -1]).exponents == (1.0, -1.0)
