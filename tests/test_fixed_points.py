import math
import random
from fractions import Fraction
from itertools import combinations

import mpmath
import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from volqso.classify import matrix_from_canonical
from volqso.errors import NotAFixedPoint, NotRepelling, ValidationError
from volqso.fixed_points import (
    FIXED_TOL,
    StabilityType,
    _classify_moduli,
    _spectrum,
    all_fixed_points,
    face_fixed_point,
    jacobian_spectrum,
    lyapunov_from_repeller,
    tangent_restriction,
    volterra_jacobian,
)
from volqso.qso import SkewMatrix, apply_volterra, skew3
from volqso.sampling import (
    interior_points,
    random_canonical_params,
    random_skew_matrix,
)
from volqso.simplex import FaceId, SimplexPoint, validate


# --- independent eigenvalue oracle -----------------------------------------
# characteristic polynomial by Faddeev-LeVerrier, roots by Durand-Kerner


def char_poly(mat: np.ndarray) -> list[float]:
    """Coefficients [1, c1, ..., cn] of det(tI - M)."""
    n = mat.shape[0]
    coeffs = [1.0]
    mk = np.array(mat, dtype=float)
    for k in range(1, n + 1):
        ck = -np.trace(mk) / k
        coeffs.append(float(ck))
        if k < n:
            mk = mat @ (mk + ck * np.eye(n))
    return coeffs


def durand_kerner(coeffs, iterations=200) -> list[complex]:
    n = len(coeffs) - 1
    if n == 0:
        return []
    def p(z):
        acc = 0.0 + 0.0j
        for c in coeffs:
            acc = acc * z + c
        return acc
    roots = [(0.4 + 0.9j) ** k for k in range(n)]
    for _ in range(iterations):
        new = []
        for i, r in enumerate(roots):
            denom = 1.0 + 0.0j
            for j, s in enumerate(roots):
                if i != j:
                    denom *= (r - s)
            new.append(r - p(r) / denom)
        if max(abs(a - b) for a, b in zip(new, roots)) < 1e-14:
            roots = new
            break
        roots = new
    return roots


def assert_same_spectrum(got, expected, tol=1e-8):
    got = list(got)
    expected = list(expected)
    assert len(got) == len(expected)
    for a in got:
        j = min(range(len(expected)), key=lambda i: abs(a - expected[i]))
        assert abs(a - expected[j]) <= tol
        expected.pop(j)


# --- exact oracle for the interior of a singular 4x4 matrix ----------------
# A = u v^T - v u^T fixes the sum-1 points with u.x = v.x = 0, a line; its
# representative is the centre of the segment maximizing min_i x_i


def solve_exact(rows, rhs):
    """The unique solution of a square Fraction system, or None."""
    aug = [list(r) + [b] for r, b in zip(rows, rhs)]
    n = len(aug)
    for c in range(n):
        piv = next((r for r in range(c, n) if aug[r][c] != 0), None)
        if piv is None:
            return None
        aug[c], aug[piv] = aug[piv], aug[c]
        for r in range(n):
            if r != c and aug[r][c] != 0:
                f = aug[r][c] / aug[c][c]
                aug[r] = [x - f * y for x, y in zip(aug[r], aug[c])]
    return [aug[r][n] / aug[r][r] for r in range(n)]


def exact_interior_centre(u, v):
    """(centre, min coordinate there, whether the maximizing segment has
    positive length), or None when no sum-1 point of the kernel exists.
    The concave min_i x_i is largest along the line where two coordinates
    are equal; the maximizing such points include both ends of the
    maximizing segment, the extremes of the lexicographic order along the
    line."""
    ones = [Fraction(1)] * 4
    points = []
    for i, j in combinations(range(4), 2):
        tie = [Fraction(int(c == i) - int(c == j)) for c in range(4)]
        x = solve_exact([u, v, ones, tie], [0, 0, 1, 0])
        if x is not None:
            points.append(tuple(x))
    if not points:
        return None
    best = max(min(x) for x in points)
    ends = [x for x in points if min(x) == best]
    lo, hi = min(ends), max(ends)
    return [(a + b) / 2 for a, b in zip(lo, hi)], best, lo != hi


def rank2_matrix(u, v) -> SkewMatrix | None:
    """u v^T - v u^T, or None when it is zero or has an entry off [-1, 1]."""
    rows = [[u[i] * v[j] - v[i] * u[j] for j in range(4)] for i in range(4)]
    entries = [abs(x) for row in rows for x in row]
    if max(entries) == 0 or max(entries) > 1:
        return None
    return SkewMatrix(tuple(tuple(float(x) for x in row) for row in rows))


def interior_record(a: SkewMatrix):
    found = [r for r in all_fixed_points(a).records if r.support.size == 4]
    assert len(found) <= 1
    return found[0] if found else None


def restricted(a: SkewMatrix, rec):
    """The matrix and the point on rec's support alone: their tangent
    Jacobian is rec's in-face matrix."""
    idx = rec.support.indices()
    return (SkewMatrix(tuple(tuple(a.rows[i][j] for j in idx) for i in idx)),
            SimplexPoint(tuple(rec.point.coords[i] for i in idx)))


# --- mpmath oracle for the spectra -------------------------------------------


def exact_eigenvalues(t) -> list:
    """Eigenvalues of the float matrix t (n = 2 or 3), to 50 digits."""
    with mpmath.workdps(50):
        return list(mpmath.eig(mpmath.matrix([list(row) for row in t]),
                               left=False, right=False))


def assert_near_exact(got, t):
    """`got` is sorted by real, then imaginary part, and is the spectrum of
    the float matrix t: for n = 2 each part within 4 ulps of the exact
    value, and a complex pair or the larger real root correctly rounded;
    for n = 3 within 1e-13; for n = 1 the entry itself."""
    assert list(got) == sorted(got, key=lambda z: (z.real, z.imag))
    if len(t) == 1:
        assert got == (complex(t[0][0]),)
        return
    exact = exact_eigenvalues(t)
    assert len(got) == len(exact) == len(t)
    rounded = got if got[0].imag else [
        max(got, key=lambda z: (abs(z.real), z.real))]
    for z in got:
        e = exact.pop(min(range(len(exact)),
                          key=lambda i: abs(z - complex(exact[i]))))
        if len(t) == 3:
            assert abs(z - complex(e)) <= 1e-13, (t, got)
            continue
        for part, exact_part in ((z.real, mpmath.re(e)),
                                 (z.imag, mpmath.im(e))):
            assert abs(mpmath.mpf(part) - exact_part) <= 4 * math.ulp(
                float(exact_part)), (t, got)
        if z in rounded:
            # a pair's real part is the dyadic mean (t00 + t11) / 2, often a
            # tie between two doubles: rounded exactly here
            real = (float((Fraction(t[0][0]) + Fraction(t[1][1])) / 2)
                    if z.imag else float(mpmath.re(e)))
            assert (z.real, z.imag) == (real, float(mpmath.im(e))), (t, got)


def assert_records_near_exact(a: SkewMatrix) -> int:
    """Each record's in-face spectrum against the oracle, on the record's
    own tangent matrix; returns how many records have one."""
    checked = 0
    for rec in all_fixed_points(a).records:
        if rec.support.size >= 2:
            sub, q = restricted(a, rec)
            assert jacobian_spectrum(sub, q) == rec.in_face_eigenvalues
            assert_near_exact(rec.in_face_eigenvalues,
                              tangent_restriction(volterra_jacobian(sub, q)))
            checked += 1
    return checked


# --- LAPACK as the oracle of the stability verdicts --------------------------


def discriminant(t) -> Fraction:
    """The exact discriminant of the characteristic polynomial of the float
    matrix t (n = 2 or 3): the product of the squared eigenvalue gaps."""
    f = [[Fraction(v) for v in row] for row in t]
    if len(f) == 2:
        (a, b), (c, d) = f
        return (a - d) ** 2 + 4 * b * c
    (p, q, r), (u, v, w), (x, y, z) = f
    e1 = p + v + z
    e2 = p * v - q * u + p * z - r * x + v * z - w * y
    e3 = p * (v * z - w * y) - q * (u * z - w * x) + r * (u * y - v * x)
    # z^3 + b z^2 + c z + d with b = -e1, c = e2, d = -e3
    b, c, d = -e1, e2, -e3
    return 18 * b * c * d - 4 * b ** 3 * d + b * b * c * c - 4 * c ** 3 \
        - 27 * d * d


def assert_lapack_parity(a: SkewMatrix):
    """Each record's verdict is the one a reference spectrum of the
    record's own tangent matrix gives, and the spectra agree to 1e-12.  The
    reference is LAPACK's, except where two eigenvalues nearly coincide
    (exact discriminant below 1e-8): LAPACK's error there grows toward 1e-8,
    the square root of a double's rounding, and the 50-digit oracle stands
    in."""
    for rec in all_fixed_points(a).records:
        reference = []
        if rec.support.size >= 2:
            t = tangent_restriction(volterra_jacobian(*restricted(a, rec)))
            if len(t) > 1 and abs(discriminant(t)) < 1e-8:
                reference = [complex(z) for z in exact_eigenvalues(t)]
            else:
                reference = [complex(z)
                             for z in np.linalg.eigvals(np.array(t))]
            assert_same_spectrum(rec.in_face_eigenvalues, reference,
                                 tol=1e-12)
        moduli = [abs(z) for z in reference] + [
            abs(v) for _, v in rec.transverse_multipliers]
        assert _classify_moduli(moduli) == rec.stability


# zero, the extremes, 1e-300 next to them, and dyadic fractions
BOUNDARY_ENTRY = st.one_of(
    st.sampled_from([0.0, 1.0, -1.0, 1e-300, -1e-300]),
    st.integers(-64, 64).map(lambda i: i / 64))


@st.composite
def boundary_matrices(draw):
    m = draw(st.sampled_from((3, 4)))
    rows = [[0.0] * m for _ in range(m)]
    for i, j in combinations(range(m), 2):
        rows[i][j] = draw(BOUNDARY_ENTRY)
        rows[j][i] = -rows[i][j]
    return SkewMatrix(tuple(map(tuple, rows)))


# ---------------------------------------------------------------------------


class TestFaceFixedPoint:
    def test_repelling_face_134(self, all_half):
        rec = face_fixed_point(all_half, FaceId((1, 3, 4)))
        assert rec is not None
        third = 1.0 / 3.0
        assert rec.point.coords == pytest.approx((third, 0.0, third, third),
                                                 abs=1e-10)
        assert rec.point.coords[1] == 0.0
        assert rec.multiplier_at(2) == pytest.approx(7.0 / 6.0, abs=1e-10)
        assert rec.stability == StabilityType.REPELLING
        # in-face pair 1 +/- i/sqrt(12), checked against the root oracle
        expected = [1 + 1j / math.sqrt(12), 1 - 1j / math.sqrt(12)]
        assert_same_spectrum(rec.in_face_eigenvalues, expected, tol=1e-10)

    def test_saddle_face_124(self, all_half):
        rec = face_fixed_point(all_half, FaceId((1, 2, 4)))
        assert rec is not None
        third = 1.0 / 3.0
        assert rec.point.coords == pytest.approx((third, third, 0.0, third),
                                                 abs=1e-10)
        assert rec.multiplier_at(3) == pytest.approx(5.0 / 6.0, abs=1e-10)
        assert rec.stability == StabilityType.SADDLE

    def test_faces_123_and_234_empty(self, all_half):
        assert face_fixed_point(all_half, FaceId((1, 2, 3))) is None
        assert face_fixed_point(all_half, FaceId((2, 3, 4))) is None

    def test_empty_faces_for_random_canonical(self, rng):
        # no interior fixed points on the faces missing coordinate 1 or 4
        for _ in range(100):
            a = matrix_from_canonical(random_canonical_params(rng))
            assert face_fixed_point(a, FaceId((1, 2, 3))) is None
            assert face_fixed_point(a, FaceId((2, 3, 4))) is None
            assert face_fixed_point(a, FaceId((1, 3, 4))) is not None
            assert face_fixed_point(a, FaceId((1, 2, 4))) is not None

    def test_kernel_direction_annihilated(self, rng):
        # S @ (w, -v, u) vanishes exactly for S = [[0,u,v],[-u,0,w],[-v,-w,0]]
        for _ in range(200):
            u, v, w = (float(2 * rng.random() - 1) for _ in range(3))
            s = np.array([[0, u, v], [-u, 0, w], [-v, -w, 0]])
            kern = np.array([w, -v, u])
            assert np.max(np.abs(s @ kern)) <= 1e-14

    def test_wrong_face_size(self, all_half):
        with pytest.raises(ValidationError):
            face_fixed_point(all_half, FaceId((1, 2)))

    def test_records_are_fixed_points(self, rng):
        for _ in range(50):
            a = matrix_from_canonical(random_canonical_params(rng))
            for face in (FaceId((1, 3, 4)), FaceId((1, 2, 4))):
                rec = face_fixed_point(a, face)
                img = apply_volterra(a, rec.point)
                resid = max(abs(x - y) for x, y in
                            zip(img.coords, rec.point.coords))
                assert resid <= FIXED_TOL
                # interaction balance on the support: (Ap)_i vanishes
                ap = np.array(a.rows) @ np.array(rec.point.coords)
                for i in rec.support.indices():
                    assert abs(ap[i]) <= 1e-10


class TestJacobian:
    def test_column_sums_are_one(self, rng):
        a = random_skew_matrix(4, rng)
        p = interior_points(4, 1, rng)[0]
        j = np.array(volterra_jacobian(a, p))
        assert np.allclose(j.sum(axis=0), 1.0, atol=1e-14)

    def test_zero_matrix_at_barycenter_all_ones(self):
        a = SkewMatrix.zero(4)
        spec = jacobian_spectrum(a, SimplexPoint.barycenter(4))
        assert all(z == pytest.approx(1.0, abs=1e-14) for z in spec)

    def test_vertex_spectrum_is_triangular(self, rng):
        # multipliers at e_j are {1 + a[k][j] : k != j}
        for _ in range(100):
            a = random_skew_matrix(4, rng)
            for j in range(4):
                spec = jacobian_spectrum(a, SimplexPoint.vertex(4, j + 1))
                expected = [1.0 + a.rows[k][j] for k in range(4) if k != j]
                assert_same_spectrum(spec, [complex(v) for v in expected],
                                     tol=1e-10)

    def test_canonical_vertex_one_multipliers(self, rng):
        p = random_canonical_params(rng)
        a = matrix_from_canonical(p)
        spec = jacobian_spectrum(a, SimplexPoint.vertex(4, 1))
        expected = [1 - p.a12, 1 - p.a13, 1 + p.a14]
        assert_same_spectrum(spec, [complex(v) for v in expected], tol=1e-10)

    def test_not_a_fixed_point(self, all_half):
        with pytest.raises(NotAFixedPoint):
            jacobian_spectrum(all_half, SimplexPoint.barycenter(4))

    def test_eig_matches_char_poly_oracle(self, rng):
        for _ in range(100):
            a = matrix_from_canonical(random_canonical_params(rng))
            rec = face_fixed_point(a, FaceId((1, 3, 4)))
            spec = jacobian_spectrum(a, rec.point)
            r = np.array(tangent_restriction(volterra_jacobian(a, rec.point)))
            oracle = durand_kerner(char_poly(r))
            assert_same_spectrum(spec, oracle, tol=1e-8)

    def test_tangent_restriction_matches_entrywise_loop(self, rng):
        # reference: one subtraction per entry, J[r,c] - J[r,n]
        for n in (2, 3, 4):
            for _ in range(200):
                j = rng.standard_normal((n, n)) * 10.0 ** rng.uniform(-8, 8)
                ref = np.empty((n - 1, n - 1))
                for r in range(n - 1):
                    for c in range(n - 1):
                        ref[r, c] = j[r, c] - j[r, n - 1]
                got = np.array(tangent_restriction(j.tolist()))
                assert got.tobytes() == ref.tobytes()

    def test_face_spectrum_embeds_in_full_spectrum(self, rng):
        # full tangent spectrum = in-face pair + the transverse multiplier
        for _ in range(50):
            a = matrix_from_canonical(random_canonical_params(rng))
            rec = face_fixed_point(a, FaceId((1, 3, 4)))
            full = jacobian_spectrum(a, rec.point)
            expected = list(rec.in_face_eigenvalues) + [
                complex(rec.multiplier_at(2))]
            assert_same_spectrum(full, expected, tol=1e-9)


class TestSpectrum:
    def test_face_records_of_random_and_canonical_matrices(self, rng):
        checked = 0
        for m in (3, 4):
            for _ in range(40):
                checked += assert_records_near_exact(random_skew_matrix(m, rng))
        for _ in range(40):
            checked += assert_records_near_exact(
                matrix_from_canonical(random_canonical_params(rng)))
        assert checked >= 100

    def test_vertex_spectra_are_the_diagonal_exactly(self, rng):
        # the tangent Jacobian at e_j is triangular up to one row, and its
        # eigenvalues 1 + a[k][j] are doubles, which bisection lands on
        for m in (3, 4):
            for _ in range(40):
                a = random_skew_matrix(m, rng)
                for j in range(m):
                    p = SimplexPoint.vertex(m, j + 1)
                    spec = jacobian_spectrum(a, p)
                    assert spec == tuple(complex(v) for v in sorted(
                        1.0 + a.rows[k][j] for k in range(m) if k != j))
                    assert all(z.imag == 0.0 for z in spec)
                    assert_near_exact(
                        spec, tangent_restriction(volterra_jacobian(a, p)))

    def test_zero_matrix_spectrum_is_exactly_one(self):
        for m in (2, 3, 4):
            assert jacobian_spectrum(SkewMatrix.zero(m),
                                     SimplexPoint.barycenter(m)) == (
                (1 + 0j,) * (m - 1))

    def test_degenerate_edges(self):
        a = SkewMatrix(((0.0, 0.0, 0.5, -0.5),
                        (0.0, 0.0, 0.5, 0.5),
                        (-0.5, -0.5, 0.0, 0.5),
                        (0.5, -0.5, -0.5, 0.0)))
        assert assert_records_near_exact(a) >= 2
        assert assert_records_near_exact(
            SkewMatrix(((0.0, 0.0, 0.25), (0.0, 0.0, -0.75),
                        (-0.25, 0.75, 0.0)))) >= 1

    def test_singular_interior_records(self):
        rng = random.Random(2013)
        found = 0
        while found < 30:
            den = rng.choice((2, 4, 8))
            u, v = ([Fraction(rng.randint(-den, den), den) for _ in range(4)]
                    for _ in range(2))
            a = rank2_matrix(u, v)
            rec = None if a is None else interior_record(a)
            if rec is not None:
                found += 1
                assert_near_exact(rec.in_face_eigenvalues, tangent_restriction(
                    volterra_jacobian(a, rec.point)))

    @pytest.mark.parametrize("t,expected", [
        # discriminant exactly 0: a Jordan block, and a multiple of I
        (((2.0, 1.0), (-1.0, 0.0)), (1, 1)),
        (((0.75, 0.0), (0.0, 0.75)), (0.75, 0.75)),
        # b = 0 or c = 0, roots far apart: the smaller cannot cancel
        (((1.0, 0.0), (5.0, 2.0)), (1, 2)),
        (((1e-20, 3.0), (0.0, 1.0)), (1e-20, 1)),
        (((-1.0, 0.0), (0.5, 1e-17)), (-1, 1e-17)),
        # 1e-300 next to 1
        (((1.0, 1e-300), (1e-300, 1.0)), (1, 1)),
        (((1.0, 1e-300), (-1e-300, 1.0)), (1 - 1e-300j, 1 + 1e-300j)),
        (((1e-300, 1.0), (-1.0, 1e-300)), (1e-300 - 1j, 1e-300 + 1j)),
        (((1e-300, 1e-300), (1e-300, 0.0)), None),
        (((1e-300, 1.0, 0.0), (0.0, 2e-300, 1.0), (0.0, 0.0, 3e-300)),
         (1e-300, 2e-300, 3e-300)),
        (((1.0, 1e-300, 0.0), (0.0, 1.0, 1e-300), (1e-300, 0.0, 1.0)),
         None),
        # P diag(1/2, 1/3, 1/3) P^-1, P = [[2,1,1],[1,2,1],[1,1,2]], rounded:
        # a close pair near 1/3 that dividing out a rounded root would split
        (((0.5833333333333334, -0.08333333333333333, -0.08333333333333333),
          (0.125, 0.2916666666666667, -0.041666666666666664),
          (0.125, -0.041666666666666664, 0.2916666666666667)), None),
    ])
    def test_by_hand(self, t, expected):
        # an exact expected value where the 50-digit oracle cannot resolve
        # the eigenvalues: 1e-300 next to 1, or a Jordan block
        got = _spectrum(t)
        if expected is None:
            assert_near_exact(got, t)
        else:
            assert got == tuple(complex(z) for z in expected)


class TestLapackParity:
    def test_random_and_canonical_matrices(self, rng):
        for m in (3, 4):
            for _ in range(1000):
                assert_lapack_parity(random_skew_matrix(m, rng))
        for _ in range(100):
            assert_lapack_parity(
                matrix_from_canonical(random_canonical_params(rng)))

    @settings(max_examples=200, deadline=None)
    @given(boundary_matrices())
    def test_boundary_matrices(self, a):
        assert_lapack_parity(a)


class TestAllFixedPoints:
    def test_zero_matrix_everywhere_fixed(self):
        inv = all_fixed_points(SkewMatrix.zero(4))
        assert inv.everywhere_fixed
        assert len(inv.records) == 4
        assert all(r.stability == StabilityType.NON_HYPERBOLIC
                   for r in inv.records)

    def test_all_half_has_six_records(self, all_half):
        inv = all_fixed_points(all_half)
        assert len(inv.records) == 6
        supports = sorted(r.support.support for r in inv.records)
        assert supports == [(1,), (1, 2, 4), (1, 3, 4), (2,), (3,), (4,)]
        assert not inv.everywhere_fixed
        assert not inv.degenerate_interior
        by_support = {r.support.support: r for r in inv.records}
        assert by_support[(1, 3, 4)].stability == StabilityType.REPELLING
        assert by_support[(1, 2, 4)].stability == StabilityType.SADDLE
        for v in range(1, 5):
            assert by_support[(v,)].stability == StabilityType.SADDLE

    def test_grid_enumeration_oracle(self, all_half):
        # scan each 3-face on a grid: fine residual minima must coincide with
        # reported face points; faces without records stay far from fixed
        inv = all_fixed_points(all_half)
        recorded = {r.support.support: r for r in inv.records}
        n = 60
        for combo in ((1, 2, 3), (1, 2, 4), (1, 3, 4), (2, 3, 4)):
            best_resid = float("inf")
            best_point = None
            for i in range(1, n):
                for j in range(1, n - i):
                    k = n - i - j
                    coords = [0.0] * 4
                    for pos, val in zip(combo, (i, j, k)):
                        coords[pos - 1] = val / n
                    p = validate(coords)
                    img = apply_volterra(all_half, p)
                    resid = max(abs(x - y)
                                for x, y in zip(img.coords, p.coords))
                    if resid < best_resid:
                        best_resid = resid
                        best_point = p
            if combo in recorded:
                rec = recorded[combo]
                assert max(abs(x - y) for x, y in
                           zip(best_point.coords, rec.point.coords)) < 2.0 / n
            else:
                assert best_resid > 1e-3

    def test_unit_parameter_cycle_interior_point(self):
        inv = all_fixed_points(skew3(1.0, 1.0, 1.0))
        assert len(inv.records) == 4
        interior = [r for r in inv.records if r.support.size == 3]
        assert len(interior) == 1
        third = 1.0 / 3.0
        assert interior[0].point.coords == pytest.approx(
            (third, third, third), abs=1e-14)
        assert interior[0].stability == StabilityType.REPELLING

    def test_degenerate_edge(self, rng):
        a = SkewMatrix(((0.0, 0.0, 0.5, -0.5),
                        (0.0, 0.0, 0.5, 0.5),
                        (-0.5, -0.5, 0.0, 0.5),
                        (0.5, -0.5, -0.5, 0.0)))
        inv = all_fixed_points(a)
        assert FaceId((1, 2)) in inv.degenerate_edges
        mid = [r for r in inv.records if r.support.support == (1, 2)]
        assert len(mid) == 1
        assert mid[0].degenerate
        assert mid[0].point.coords == (0.5, 0.5, 0.0, 0.0)
        assert mid[0].stability == StabilityType.NON_HYPERBOLIC

    def test_singular_matrix_interior_continuum(self):
        # rank-2 skew matrix u v^T - v u^T: kernel meets the open simplex
        u = np.array([0.5, -0.5, 0.0, 0.0])
        v = np.array([0.0, 0.0, 0.5, -0.5])
        arr = np.outer(u, v) - np.outer(v, u)
        a = SkewMatrix(tuple(tuple(float(x) for x in row) for row in arr))
        inv = all_fixed_points(a)
        assert inv.degenerate_interior
        interior = [r for r in inv.records if r.support.size == 4]
        assert len(interior) == 1
        rec = interior[0]
        img = apply_volterra(a, rec.point)
        assert max(abs(x - y) for x, y in
                   zip(img.coords, rec.point.coords)) <= FIXED_TOL
        assert rec.degenerate
        assert rec.point.coords == (0.25, 0.25, 0.25, 0.25)

    def test_singular_interior_matches_exact_centre(self):
        # dyadic u, v: the float matrix is exactly u v^T - v u^T (Pf 0.0);
        # every other pair shares a coordinate, so two rows are equal, the
        # line runs along e_i - e_j and its maximum is often a segment
        rng = random.Random(2012)
        checked = found = segments = 0
        while checked < 250:
            den = rng.choice((2, 4, 8))
            u, v = ([Fraction(rng.randint(-den, den), den) for _ in range(4)]
                    for _ in range(2))
            if checked % 2 == 0:
                i, j = rng.sample(range(4), 2)
                u[j], v[j] = u[i], v[i]
            a = rank2_matrix(u, v)
            if a is None:
                continue
            checked += 1
            exact = exact_interior_centre(u, v)
            rec = interior_record(a)
            assert (rec is not None) == (exact is not None and exact[1] > 0)
            if rec is None:
                continue
            found += 1
            segments += exact[2]
            assert max(abs(Fraction(x) - c) for x, c in
                       zip(rec.point.coords, exact[0])) <= 1e-15
        assert found >= 50 and segments >= 5

    def test_interior_tie_keeps_equal_rows_symmetric(self):
        # rows 1 and 4 are equal, so e1 - e4 spans the fixed segment's
        # direction; both ends, (3/16, 3/16, 3/8, 1/4) and (1/4, 3/16, 3/8,
        # 3/16), are optimal, and the centre keeps x1 = x4
        a = SkewMatrix(((0.0, -0.375, 0.1875, 0.0),
                        (0.375, 0.0, -0.4375, 0.375),
                        (-0.1875, 0.4375, 0.0, -0.1875),
                        (0.0, -0.375, 0.1875, 0.0)))
        assert interior_record(a).point.coords == (
            0.21875, 0.1875, 0.375, 0.21875)
        rng = random.Random(7)
        found = 0
        for _ in range(200):
            u, v = ([Fraction(rng.randint(-8, 8), 8) for _ in range(4)]
                    for _ in range(2))
            u[3], v[3] = u[0], v[0]
            a = rank2_matrix(u, v)
            rec = None if a is None else interior_record(a)
            if rec is not None:
                found += 1
                x = rec.point.coords
                assert abs(x[0] - x[3]) <= 1e-15
        assert found >= 20

    def test_every_record_is_fixed(self, rng):
        for _ in range(30):
            a = matrix_from_canonical(random_canonical_params(rng))
            for rec in all_fixed_points(a).records:
                img = apply_volterra(a, rec.point)
                assert max(abs(x - y) for x, y in
                           zip(img.coords, rec.point.coords)) <= FIXED_TOL

    def test_repelling_face_tracks_invariant_sign(self, rng):
        # empirical cross-check: I > 0 <-> the {1,3,4} face point repels
        agree = total = 0
        for _ in range(150):
            p = random_canonical_params(rng)
            from volqso.classify import invariant_i
            inv_val = invariant_i(p)
            if abs(inv_val) < 1e-3:
                continue
            a = matrix_from_canonical(p)
            r134 = face_fixed_point(a, FaceId((1, 3, 4)))
            r124 = face_fixed_point(a, FaceId((1, 2, 4)))
            kinds = {r134.stability, r124.stability}
            if kinds != {StabilityType.REPELLING, StabilityType.SADDLE}:
                continue
            total += 1
            repelling_134 = r134.stability == StabilityType.REPELLING
            if repelling_134 == (inv_val > 0):
                agree += 1
        assert total > 100
        assert agree == total


class TestRepellerLyapunov:
    def test_exponents_from_all_half_repeller(self, all_half):
        rec = face_fixed_point(all_half, FaceId((1, 3, 4)))
        lyap = lyapunov_from_repeller(rec)
        third = 1.0 / 3.0
        assert lyap.exponents == pytest.approx((third, 0.0, third, third),
                                               abs=1e-12)
        assert math.fsum(lyap.exponents) == pytest.approx(1.0, abs=1e-12)

    def test_value_at_barycenter_is_quarter(self, all_half):
        rec = face_fixed_point(all_half, FaceId((1, 3, 4)))
        lyap = lyapunov_from_repeller(rec)
        assert lyap.value(SimplexPoint.barycenter(4)) == pytest.approx(
            0.25, rel=1e-12)

    def test_saddle_rejected(self, all_half):
        rec = face_fixed_point(all_half, FaceId((1, 2, 4)))
        with pytest.raises(NotRepelling):
            lyapunov_from_repeller(rec)

    def test_positive_on_open_simplex(self, all_half, rng):
        rec = face_fixed_point(all_half, FaceId((1, 3, 4)))
        lyap = lyapunov_from_repeller(rec)
        for p in interior_points(4, 50, rng):
            assert lyap.value(p) > 0.0
