"""Fixed-point records and the Volterra step against references.

The step is compared with the chain it was computed by before it became one
loop: the step factors, then the image with its clamp, then the checked
renormalization.  The inventory is compared with `all_fixed_points` and
`face_fixed_point` as they were before they tested the faces and built the
vertex records themselves; there each record comes from a reference that
computes every step factor separately for the residual check, the
transverse multipliers and the in-face Jacobian.  Floats and complex
numbers must agree bit for bit, so they are compared by repr."""

import math
import operator
import random
from itertools import combinations

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from volqso import fixed_points
from volqso.classify import pfaffian4
from volqso.errors import (
    DegenerateFactor,
    DimensionMismatch,
    NotAFixedPoint,
    SumNotOne,
    ValidationError,
    VolqsoError,
    WrongDimension,
)
from volqso.fixed_points import (
    FIXED_TOL,
    NONHYP_TOL,
    PFAFFIAN_TOL,
    FixedPointInventory,
    FixedPointRecord,
    StabilityType,
    _spectrum,
    all_fixed_points,
    face_fixed_point,
    tangent_restriction,
)
from volqso.qso import (
    FACTOR_CLAMP,
    SkewMatrix,
    apply_volterra,
    raw_volterra_image,
)
from volqso.sampling import random_skew_matrix
from volqso.simplex import FaceId, SimplexPoint, _renormalized, _trusted

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


def ref_step_factors(rows, x):
    out = []
    for row in rows:
        out.append(1.0 + math.fsum(map(operator.mul, row, x)))
    return out


def ref_image(x, factors):
    out = []
    for k, f in enumerate(factors):
        if f < 0.0:
            if f < -FACTOR_CLAMP:
                raise DegenerateFactor(
                    f"step factor {f} at slot {k + 1}; input is corrupted")
            f = 0.0
        out.append(x[k] * f)
    return out


def ref_raw_volterra_image(a, x):
    if a.m != x.m:
        raise DimensionMismatch(f"matrix m={a.m}, point m={x.m}")
    return ref_image(x.coords, ref_step_factors(a.rows, x.coords))


def ref_apply_volterra(a, x):
    return _trusted(SimplexPoint, slow_renormalized(
        ref_raw_volterra_image(a, x)))


def ref_check_fixed(a, p):
    image = ref_apply_volterra(a, p).coords
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


def ref_record(a, point, support, degenerate=False):
    """A record as it was computed before the step factors were shared."""
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


def ref_face_fixed_point(a, face):
    if a.m not in (3, 4):
        raise WrongDimension(f"m={a.m} not supported")
    if face.size != 3:
        raise ValidationError(f"face {face.support} is not a 3-face")
    if face.support[-1] > a.m:
        raise WrongDimension(f"face {face.support} outside 1..{a.m}")
    i, j, k = face.indices()
    u = a.rows[i][j]
    v = a.rows[i][k]
    w = a.rows[j][k]
    kern = (w, -v, u)
    if all(t > 0.0 for t in kern):
        q = kern
    elif all(t < 0.0 for t in kern):
        q = tuple(-t for t in kern)
    else:
        return None
    s = math.fsum(q)
    coords = [0.0] * a.m
    for pos, t in zip((i, j, k), q):
        coords[pos] = t / s
    point = SimplexPoint(_renormalized(coords))
    return ref_record(a, point, face)


def ref_continuum_record(a, face):
    coords = [0.0] * a.m
    for pos in face.indices():
        coords[pos] = 1.0 / face.size
    return ref_record(a, SimplexPoint(_renormalized(coords)), face,
                      degenerate=True)


def ref_interior_kernel_record(a):
    (_, a12, a13, a14), (_, _, a23, a24), (_, _, _, a34) = a.rows[:3]
    dual = ((0.0, a34, -a24, a23), (-a34, 0.0, a14, -a13),
            (a24, -a14, 0.0, a12), (-a23, a13, -a12, 0.0))
    sums = [math.fsum(row) for row in dual]
    k = max(range(4), key=lambda j: abs(sums[j]))
    if sums[k] == 0.0:
        return None
    p = [v / sums[k] for v in dual[k]]
    d = max(([sums[k] * v - s * w for v, w in zip(dual[j], dual[k])]
             for j, s in enumerate(sums) if j != k),
            key=lambda w: math.fsum(v * v for v in w))
    pairs = [(i, j) for i in range(4) for j in range(4) if d[i] > 0.0 > d[j]]
    t, best = 0.0, min(p)
    if pairs:
        best, t = min([(p[i], None) for i in range(4) if d[i] == 0.0] + [
            ((p[j] * d[i] - p[i] * d[j]) / (d[i] - d[j]),
             (p[j] - p[i]) / (d[i] - d[j])) for i, j in pairs],
            key=lambda peak: (peak[0], peak[1] is None))
        if t is None:
            t = 0.5 * (max((best - p[i]) / d[i] for i, _ in pairs)
                       + min((best - p[j]) / d[j] for _, j in pairs))
    if best <= fixed_points._INTERIOR_MARGIN:
        return None
    point = SimplexPoint(_renormalized([q + t * w for q, w in zip(p, d)]))
    try:
        return ref_record(a, point, FaceId((1, 2, 3, 4)), degenerate=True)
    except NotAFixedPoint:
        return None


def ref_all_fixed_points(a):
    m = a.m
    if m not in (3, 4):
        raise WrongDimension(f"m={m} not supported")
    records = [ref_record(a, SimplexPoint.vertex(m, l), FaceId((l,)))
               for l in range(1, m + 1)]
    if all(v == 0.0 for row in a.rows for v in row):
        return FixedPointInventory(records=tuple(records),
                                   everywhere_fixed=True)

    degenerate_edges = []
    for i, j in combinations(range(m), 2):
        if a.rows[i][j] == 0.0:
            degenerate_edges.append(FaceId((i + 1, j + 1)))
            records.append(ref_continuum_record(a, degenerate_edges[-1]))

    degenerate_faces = []
    for combo in combinations(range(m), 3):
        face = FaceId(tuple(i + 1 for i in combo))
        i, j, k = combo
        if (a.rows[i][j] == 0.0 and a.rows[i][k] == 0.0
                and a.rows[j][k] == 0.0):
            degenerate_faces.append(face)
            records.append(ref_continuum_record(a, face))
            continue
        rec = ref_face_fixed_point(a, face)
        if rec is not None:
            records.append(rec)

    degenerate_interior = False
    if m == 4 and abs(pfaffian4(a)) <= PFAFFIAN_TOL:
        rec = ref_interior_kernel_record(a)
        if rec is not None:
            degenerate_interior = True
            records.append(rec)

    return FixedPointInventory(
        records=tuple(records),
        degenerate_edges=tuple(degenerate_edges),
        degenerate_faces=tuple(degenerate_faces),
        degenerate_interior=degenerate_interior,
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


def outcome(fn, *args):
    """repr of fn(*args), or the type and message of what it raised."""
    try:
        return repr(fn(*args))
    except VolqsoError as exc:
        return type(exc).__name__, str(exc)


def step_points(a, rng):
    """Start points for one step of `a`: the barycentre, the vertices,
    interior points, face points with exact zeros, and points on a row k's
    -1 entries whose sum overshoots 1 by dust (accepted by SimplexPoint) or
    by more (built unchecked), so that the step factor 1 - (x_i + ...) of
    slot k falls below 0 by dust or by more."""
    m = a.m
    yield SimplexPoint.barycenter(m)
    for label in range(1, m + 1):
        yield SimplexPoint.vertex(m, label)
    for zeros in (0, 1, m - 2):
        w = [rng.uniform(0.01, 1.0) for _ in range(m)]
        for k in rng.sample(range(m), zeros):
            w[k] = 0.0
        yield SimplexPoint(_renormalized(w))
    k = rng.randrange(m)
    prey = [i for i in range(m) if a.rows[k][i] == -1.0]
    if not prey:
        return
    w = [rng.randint(1, 9) if i in prey else 0 for i in range(m)]
    x = [v / sum(w) for v in w]
    x[k] = rng.choice([0.0, 1e-14])
    for overshoot, build in ((1e-15, SimplexPoint), (5e-13, SimplexPoint),
                             (2e-12, lambda c: _trusted(SimplexPoint, c))):
        y = list(x)
        y[prey[-1]] += overshoot
        yield build(tuple(y))


@pytest.mark.parametrize("m", [2, 3, 4])
def test_step_bit_identical_to_reference(m):
    rng = random.Random(23 + m)
    clamped = corrupted = 0
    for a in matrices(m):
        for x in step_points(a, rng):
            assert outcome(raw_volterra_image, a, x) == outcome(
                ref_raw_volterra_image, a, x), (a.rows, x.coords)
            assert outcome(apply_volterra, a, x) == outcome(
                ref_apply_volterra, a, x), (a.rows, x.coords)
            factors = ref_step_factors(a.rows, x.coords)
            clamped += any(-FACTOR_CLAMP <= f < 0.0 for f in factors)
            corrupted += min(factors) < -FACTOR_CLAMP
    # both sides of the clamp are reached
    assert clamped > 20 and corrupted > 20
    with pytest.raises(DimensionMismatch, match=r"^matrix m=\d, point m="):
        raw_volterra_image(a, SimplexPoint.barycenter(5 - m // 2))


@pytest.mark.parametrize("m", [3, 4])
def test_records_bit_identical_to_reference(m):
    mats = list(matrices(m))
    got = [all_fixed_points(a) for a in mats]
    want = [ref_all_fixed_points(a) for a in mats]
    faces = [FaceId(f) for f in combinations(range(1, m + 1), 3)]
    for a, g, w in zip(mats, got, want):
        assert_same_inventory(a, g, w)
        for face in faces:
            assert outcome(face_fixed_point, a, face) == outcome(
                ref_face_fixed_point, a, face), (a.rows, face)
    for face in (FaceId((1, 2)), FaceId((1, 2, m + 1))):
        assert outcome(face_fixed_point, a, face) == outcome(
            ref_face_fixed_point, a, face)
    # the inputs reach every stability type, continua and interior points
    records = [r for inv in got for r in inv.records]
    assert {r.stability for r in records} == set(StabilityType)
    assert any(r.degenerate for r in records)
    assert any(r.support.size == 3 and not r.degenerate for r in records)
    if m == 4:
        assert any(inv.degenerate_interior for inv in got)


def signed_zero_matrices(m):
    """Matrices whose zeros, on and off the diagonal, are 0.0 or -0.0."""
    rng = random.Random(31 + m)
    n = m * (m - 1) // 2
    for _ in range(300):
        rows = [list(row) for row in skew(m, [
            rng.choice([0.0, -0.0, 0.5, -0.5, 0.25, 1.0, -1.0])
            for _ in range(n)]).rows]
        for i in range(m):
            rows[i][i] = rng.choice([0.0, -0.0])
        yield SkewMatrix(rows)


TINY = [5e-324, 1e-310, 1e-300, 2.0 ** -60, 1e-17]


def tiny_kernel_matrices(m):
    """Matrices with a 3-face whose kernel direction (w, -v, u) has one
    strict sign and entries as small as the smallest double."""
    rng = random.Random(37 + m)
    for _ in range(300):
        entries = [rng.uniform(-1.0, 1.0) for _ in range(m * (m - 1) // 2)]
        i, j, k = sorted(rng.sample(range(m), 3))
        u, v, w = (rng.choice(TINY) if rng.random() < 0.6
                   else rng.uniform(0.0, 1.0) for _ in range(3))
        sign = rng.choice([1.0, -1.0])
        pairs = list(combinations(range(m), 2))
        for pair, value in (((i, j), u), ((i, k), -v), ((j, k), w)):
            entries[pairs.index(pair)] = sign * value
        yield skew(m, entries)


EDGE_FAMILIES = {"signed-zero": signed_zero_matrices,
                 "tiny-kernel": tiny_kernel_matrices}


@pytest.mark.parametrize("m", [3, 4])
@pytest.mark.parametrize("family", sorted(EDGE_FAMILIES))
def test_edge_families_bit_identical_to_reference(family, m):
    faces = [FaceId(f) for f in combinations(range(1, m + 1), 3)]
    tiny_points = 0
    for a in EDGE_FAMILIES[family](m):
        got = outcome(all_fixed_points, a)
        assert got == outcome(ref_all_fixed_points, a), a.rows
        if isinstance(got, str):
            assert_same_inventory(a, all_fixed_points(a),
                                  ref_all_fixed_points(a))
            tiny_points += any(0.0 < min(c for c in r.point.coords if c)
                               < 1e-15 for r in all_fixed_points(a).records
                               if r.support.size == 3 and not r.degenerate)
        for face in faces:
            assert outcome(face_fixed_point, a, face) == outcome(
                ref_face_fixed_point, a, face), (a.rows, face)
    if family == "tiny-kernel":
        # face points with coordinates below 1e-15
        assert tiny_points > 20


@pytest.mark.parametrize("m", [3, 4])
def test_vertex_records_check_the_diagonal(m):
    # a vertex record is fixed exactly when a[l][l] is +-0.0, which
    # SkewMatrix enforces; a matrix built unchecked with another diagonal
    # entry is refused at the first such vertex
    for l, d in [(0, 0.5), (m - 1, -0.25), (1, 5e-324)]:
        rows = [[0.0] * m for _ in range(m)]
        rows[l][l] = d
        a = _trusted(SkewMatrix, tuple(map(tuple, rows)))
        with pytest.raises(NotAFixedPoint, match=(
                rf"^a\[{l + 1}\]\[{l + 1}\] = {d!r}, not \+-0\.0: "
                rf"vertex {l + 1} cannot be checked$")):
            all_fixed_points(a)
    a = SkewMatrix([[-0.0 if i == j else 0.0 for j in range(m)]
                    for i in range(m)])
    assert_same_inventory(a, all_fixed_points(a), ref_all_fixed_points(a))


def test_record_checks_fixedness():
    # every record goes through the residual check
    a = SkewMatrix(((0.0, 0.5, 0.0), (-0.5, 0.0, 0.0), (0.0, 0.0, 0.0)))
    not_fixed = (0.5, 0.5, 0.0)
    with pytest.raises(NotAFixedPoint,
                       match=r"^\|V\(p\) - p\|_inf = 1\.250e-01$"):
        fixed_points._record(a.rows, not_fixed, (0, 1))


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
