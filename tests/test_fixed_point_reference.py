"""Fixed-point records against a reference that computes each step factor
separately for the residual check, the transverse multipliers and the
in-face Jacobian, as the records were computed before they were built
from one pass of step factors.  Floats and complex numbers must agree
bit for bit, so they are compared by repr."""

import math
import operator
import random
from itertools import combinations

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from volqso import fixed_points
from volqso.errors import DegenerateFactor, NotAFixedPoint, SumNotOne
from volqso.fixed_points import (
    FIXED_TOL,
    NONHYP_TOL,
    FixedPointRecord,
    StabilityType,
    _spectrum,
    all_fixed_points,
    tangent_restriction,
)
from volqso.qso import FACTOR_CLAMP, SkewMatrix
from volqso.sampling import random_skew_matrix
from volqso.simplex import FaceId, SimplexPoint, _renormalized

NO_DIVIDE_TOL = 4 * 2.220446049250313e-16


# --- the reference -----------------------------------------------------------


def slow_renormalized(coords):
    """`_renormalized` without its return on an exact sum of 1."""
    s = math.fsum(coords)
    if s <= 0.0:
        raise SumNotOne(f"coordinate sum {s} is not positive")
    if abs(s - 1.0) > NO_DIVIDE_TOL:
        coords = [c / s for c in coords]
    else:
        coords = list(coords)
    for _ in range(2):
        r = math.fsum(coords) - 1.0
        if r == 0.0:
            break
        k = max(range(len(coords)), key=coords.__getitem__)
        adjusted = coords[k] - r
        if adjusted == coords[k]:
            break
        coords[k] = adjusted
    return tuple(coords)


def ref_apply_volterra(a, x):
    out = []
    for k in range(a.m):
        f = 1.0 + math.fsum(map(operator.mul, a.rows[k], x.coords))
        if f < 0.0:
            if f < -FACTOR_CLAMP:
                raise DegenerateFactor(
                    f"step factor {f} at slot {k + 1}; input is corrupted")
            f = 0.0
        out.append(x.coords[k] * f)
    return slow_renormalized(out)


def ref_check_fixed(a, p):
    image = ref_apply_volterra(a, p)
    residual = max(abs(u - v) for u, v in zip(image, p.coords))
    if residual > FIXED_TOL:
        raise NotAFixedPoint(f"|V(p) - p|_inf = {residual:.3e}")


def ref_factor(row, x):
    return 1.0 + math.fsum(map(operator.mul, row, x))


def ref_jacobian(rows, x):
    out = []
    for r, row in enumerate(rows):
        f = ref_factor(row, x)
        out.append(tuple((f if c == r else 0.0) + x[r] * s
                         for c, s in enumerate(row)))
    return tuple(out)


def ref_classify_moduli(moduli):
    if any(abs(v - 1.0) <= NONHYP_TOL for v in moduli):
        return StabilityType.NON_HYPERBOLIC
    if all(v > 1.0 for v in moduli):
        return StabilityType.REPELLING
    if all(v < 1.0 for v in moduli):
        return StabilityType.ATTRACTING
    return StabilityType.SADDLE


def ref_record(a, point, support, degenerate=False, **_):
    """A record as it was computed before the step factors were shared; a
    vertex is built with the checked constructors."""
    if support.size == 1:
        point = SimplexPoint.vertex(a.m, support.support[0])
        support = FaceId(support.support)
    ref_check_fixed(a, point)
    x = point.coords
    idx = support.indices()
    transverse = tuple((k + 1, ref_factor(row, x))
                       for k, row in enumerate(a.rows) if k not in idx)
    if len(idx) >= 2:
        sub = [[a.rows[i][j] for j in idx] for i in idx]
        in_face = _spectrum(tangent_restriction(
            ref_jacobian(sub, [x[i] for i in idx])))
    else:
        in_face = ()
    moduli = [abs(z) for z in in_face] + [abs(v) for _, v in transverse]
    return FixedPointRecord(
        point=point,
        support=support,
        transverse_multipliers=transverse,
        in_face_eigenvalues=in_face,
        stability=ref_classify_moduli(moduli),
        degenerate=degenerate,
    )


# --- the matrices ------------------------------------------------------------


# zero, the extremes, 1e-300 next to them, and dyadic fractions
BOUNDARY = ([0.0, 1.0, -1.0, 1e-300, -1e-300]
            + [i / 64 for i in range(-64, 65)])


def skew(m, entries):
    rows = [[0.0] * m for _ in range(m)]
    for (i, j), v in zip(combinations(range(m), 2), entries):
        rows[i][j], rows[j][i] = v, -v
    return SkewMatrix(tuple(map(tuple, rows)))


def matrices(m):
    rng = random.Random(17 + m)
    n = m * (m - 1) // 2
    # the boundary family, weighted to its special values
    for _ in range(1000):
        yield skew(m, [rng.choice(BOUNDARY[:5]) if rng.random() < 0.4
                       else rng.choice(BOUNDARY) for _ in range(n)])
    for _ in range(200):
        yield skew(m, [rng.uniform(-1.0, 1.0) for _ in range(n)])
    for seed in range(500):
        yield random_skew_matrix(m, seed)


# --- the tests ---------------------------------------------------------------


def assert_same_inventory(a, got, want):
    assert repr(got) == repr(want), a.rows
    assert got == want, a.rows
    for g, w in zip(got.records, want.records):
        assert type(g.point) is SimplexPoint and type(g.support) is FaceId
        for field in FixedPointRecord._fields:
            assert repr(getattr(g, field)) == repr(getattr(w, field)), (
                a.rows, field)


@pytest.mark.parametrize("m", [3, 4])
def test_records_bit_identical_to_reference(monkeypatch, m):
    mats = list(matrices(m))
    got = [all_fixed_points(a) for a in mats]
    monkeypatch.setattr(fixed_points, "_record_for", ref_record)
    want = [all_fixed_points(a) for a in mats]
    for a, g, w in zip(mats, got, want):
        assert_same_inventory(a, g, w)
    # the inputs reach every stability type, continua and interior points
    records = [r for inv in got for r in inv.records]
    assert {r.stability for r in records} == set(StabilityType)
    assert any(r.degenerate for r in records)
    assert any(r.support.size == 3 and not r.degenerate for r in records)
    if m == 4:
        assert any(inv.degenerate_interior for inv in got)


@pytest.mark.parametrize("factors", [None, [1.25, 0.75, 1.0]])
def test_record_checks_fixedness(factors):
    # given factors or not, every record goes through the residual check
    a = SkewMatrix(((0.0, 0.5, 0.0), (-0.5, 0.0, 0.0), (0.0, 0.0, 0.0)))
    not_fixed = SimplexPoint((0.5, 0.5, 0.0))
    with pytest.raises(NotAFixedPoint,
                       match=r"^\|V\(p\) - p\|_inf = 1\.250e-01$"):
        fixed_points._record_for(a, not_fixed, FaceId((1,)),
                                 factors=factors)


# --- _renormalized ------------------------------------------------------------


COORD = st.one_of(
    st.floats(0.0, 1e3, allow_nan=False, allow_infinity=False),
    st.integers(0, 64).map(lambda i: i / 64),
    st.sampled_from([0.0, 1.0, 1e-300, 5e-324, 1 / 3]))
POSITIVE_SUM = st.lists(COORD, min_size=2, max_size=4).filter(
    lambda c: math.fsum(c) > 0.0)
# divided by their sum, coordinates often sum to an ulp or two off 1
COORDS = st.one_of(POSITIVE_SUM, POSITIVE_SUM.map(
    lambda c: [v / math.fsum(c) for v in c]))


def bits(coords):
    return [repr(c) for c in coords]


@settings(max_examples=500, deadline=None)
@given(COORDS)
def test_renormalized_idempotent_and_equal_to_slow_path(coords):
    once = _renormalized(coords)
    assert bits(once) == bits(slow_renormalized(coords))
    assert bits(_renormalized(once)) == bits(once)
    assert bits(_renormalized(list(once))) == bits(slow_renormalized(once))


@pytest.mark.parametrize("coords", [
    [1.0, 0.0, 0.0], [0.25, 0.75], [0.5, 0.25, 0.125, 0.125],
    [1 / 3, 1 / 3, 1 / 3], [0.1, 0.2, 0.7]])
def test_renormalized_exact_sum(coords):
    out = _renormalized(coords)
    assert math.fsum(out) == 1.0
    assert bits(out) == bits(slow_renormalized(coords))
