import math
import random
from fractions import Fraction
from itertools import combinations

import numpy as np
import pytest

from volqso.classify import matrix_from_canonical
from volqso.errors import NotAFixedPoint, NotRepelling, ValidationError
from volqso.fixed_points import (
    FIXED_TOL,
    StabilityType,
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
                ap = a.as_array() @ np.array(rec.point.coords)
                for i in rec.support.indices():
                    assert abs(ap[i]) <= 1e-10


class TestJacobian:
    def test_column_sums_are_one(self, rng):
        a = random_skew_matrix(4, rng)
        p = interior_points(4, 1, rng)[0]
        j = volterra_jacobian(a, p)
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
            r = tangent_restriction(volterra_jacobian(a, rec.point))
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
                assert tangent_restriction(j).tobytes() == ref.tobytes()

    def test_face_spectrum_embeds_in_full_spectrum(self, rng):
        # full tangent spectrum = in-face pair + the transverse multiplier
        for _ in range(50):
            a = matrix_from_canonical(random_canonical_params(rng))
            rec = face_fixed_point(a, FaceId((1, 3, 4)))
            full = jacobian_spectrum(a, rec.point)
            expected = list(rec.in_face_eigenvalues) + [
                complex(rec.multiplier_at(2))]
            assert_same_spectrum(full, expected, tol=1e-9)


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
