import math
from fractions import Fraction

import numpy as np
import pytest

from volqso.ergodic import TrajectoryConfig
from volqso.errors import (
    DegenerateFactor,
    DimensionMismatch,
    NonFiniteInput,
    NotVolterra,
    ValidationError,
    WrongDimension,
)
from volqso.fixed_points import jacobian_spectrum, volterra_jacobian
from volqso.qso import (
    HeredityTensor,
    SkewMatrix,
    apply_qso,
    apply_volterra,
    apply_volterra_log,
    is_volterra,
    raw_volterra_image,
    skew3,
    skewize,
    to_skew_matrix,
    to_tensor,
)
from volqso.sampling import interior_points, random_skew_matrix
from volqso.simplex import SimplexPoint, _trusted, validate

INF = float("inf")


def random_tensor(m, rng) -> HeredityTensor:
    """General (non-symmetric) stochastic tensor via Dirichlet rows."""
    p = rng.dirichlet(np.ones(m), size=(m, m))
    return HeredityTensor(p)


class TestSkewMatrix:
    def test_exact_skewness_required(self):
        with pytest.raises(ValidationError):
            SkewMatrix(((0.0, 0.5), (0.5, 0.0)))

    def test_entry_bound(self):
        with pytest.raises(ValidationError):
            SkewMatrix(((0.0, 1.5), (-1.5, 0.0)))

    def test_nonfinite_rejected(self):
        with pytest.raises(NonFiniteInput):
            SkewMatrix(((0.0, float("nan")), (float("nan"), 0.0)))

    def test_unit_entries_allowed(self):
        skew3(1.0, 1.0, 1.0)

    def test_skewize_projects(self):
        a = skewize([[1e-16, 0.5], [-0.5 + 1e-16, 0.0]])
        assert a.rows[0][1] == -a.rows[1][0]
        assert a.rows[0][0] == 0.0

    def test_skewize_clips_as_numpy_does(self):
        # spill and infinities clip to [-1, 1]; NaN stays NaN, and is
        # rejected, as np.clip((a - a.T) / 2, -1, 1) would leave it
        arr = [[0.0, 2.0, INF, 0.5], [-2.0, 0.0, -INF, -1.0 - 1e-15],
               [-INF, INF, 0.0, -0.0], [-0.5, 1.0, 0.0, 0.0]]
        a = np.array(arr)
        upper = np.triu(np.clip((a - a.T) / 2.0, -1.0, 1.0), 1)
        assert skewize(arr).rows == tuple(map(tuple, upper - upper.T))
        for bad in ([[0.0, math.nan], [0.0, 0.0]], [[0.0, INF], [INF, 0.0]]):
            with pytest.raises(NonFiniteInput):
                skewize(bad)
        for shape in ([0.0, 1.0], [[0.0, 1.0]], [[[0.0]]]):
            with pytest.raises(WrongDimension):
                skewize(shape)


class TestHeredityTensor:
    def test_row_stochastic_required(self):
        p = np.zeros((2, 2, 2))
        p[:, :, 0] = 0.6
        p[:, :, 1] = 0.6
        with pytest.raises(ValidationError):
            HeredityTensor(p)

    def test_negative_rejected(self):
        p = np.zeros((2, 2, 2))
        p[:, :, 0] = 1.2
        p[:, :, 1] = -0.2
        with pytest.raises(ValidationError):
            HeredityTensor(p)

    def test_symmetrize_preserves_operator(self, rng):
        # the quadratic form only sees the parent-order average
        for _ in range(10):
            t = random_tensor(3, rng)
            p = np.array(t.p)
            q = HeredityTensor((p + p.transpose(1, 0, 2)) / 2.0)
            for x in interior_points(3, 10, rng):
                left = apply_qso(t, x)
                right = apply_qso(q, x)
                assert left.coords == pytest.approx(right.coords, abs=1e-14)


class TestApplyQso:
    def test_identity_heredity_tensor(self, rng):
        t = to_tensor(SkewMatrix.zero(4))
        for x in interior_points(4, 5, rng):
            y = apply_qso(t, x)
            assert y.coords == pytest.approx(x.coords, abs=1e-15)

    def test_vertex_collapses_to_diagonal_row(self, rng):
        t = random_tensor(4, rng)
        for i in range(4):
            y = apply_qso(t, SimplexPoint.vertex(4, i + 1))
            assert y.coords == pytest.approx(tuple(t.p[i][i]), rel=1e-12)

    def test_all_half_matrix_at_barycenter(self, all_half):
        t = to_tensor(all_half)
        y = apply_qso(t, SimplexPoint.barycenter(4))
        assert y.coords == pytest.approx(
            (0.28125, 0.28125, 0.21875, 0.21875), abs=1e-15)

    def test_dimension_mismatch(self, rng):
        with pytest.raises(DimensionMismatch):
            apply_qso(random_tensor(3, rng), SimplexPoint.barycenter(4))


class TestVolterraDetection:
    def test_tensor_from_matrix_is_volterra(self, rng):
        for m in (2, 3, 4):
            assert is_volterra(to_tensor(random_skew_matrix(m, rng)))

    def test_mass_off_parents_detected(self):
        p = np.zeros((3, 3, 3))
        for i in range(3):
            for j in range(3):
                p[i][j][i] = 1.0
        p[0][1][2] = 0.1
        p[0][1][0] = 0.9
        assert not is_volterra(HeredityTensor(p))

    def test_symmetrization_preserves_volterra(self, rng):
        p = np.array(to_tensor(random_skew_matrix(4, rng)).p)
        # the parent-order average of (0.7, 0.3) and (0.4, 0.6) offspring
        # mass stays on the parental types
        p[0][1][0], p[0][1][1] = 0.55, 0.45
        p[1][0][0], p[1][0][1] = 0.55, 0.45
        assert is_volterra(HeredityTensor(p))


class TestMatrixTensorConversion:
    def test_identity_tensor_gives_zero_matrix(self):
        a = to_skew_matrix(to_tensor(SkewMatrix.zero(3)))
        assert all(v == 0.0 for row in a.rows for v in row)

    def test_always_winning_parent_gives_unit_entry(self):
        # offspring of (1,2) is always type 1
        p = np.zeros((2, 2, 2))
        p[0][0][0] = 1.0
        p[1][1][1] = 1.0
        p[0][1][0] = 1.0
        p[1][0][0] = 1.0
        a = to_skew_matrix(HeredityTensor(p))
        assert a.rows[0][1] == 1.0
        assert a.rows[1][0] == -1.0

    def test_round_trip(self, rng):
        # tensor entries quantize at ulp(1)/2, so the round-trip is identity
        # up to one ulp of 1; exact for dyadic entries
        for _ in range(100):
            a = random_skew_matrix(4, rng)
            back = to_skew_matrix(to_tensor(a))
            for r1, r2 in zip(a.rows, back.rows):
                for v1, v2 in zip(r1, r2):
                    assert abs(v1 - v2) <= 1e-15

    def test_round_trip_exact_for_dyadic_entries(self, all_half):
        assert to_skew_matrix(to_tensor(all_half)).rows == all_half.rows

    def test_not_volterra_rejected(self, rng):
        with pytest.raises(NotVolterra):
            to_skew_matrix(random_tensor(3, rng))

    def test_tautology_pins_sign_convention(self, rng):
        # apply_qso(to_tensor(A), x) == apply_volterra(A, x) defines the
        # tensor <-> matrix conversion
        for _ in range(50):
            m = int(rng.integers(2, 5))
            a = random_skew_matrix(m, rng)
            t = to_tensor(a)
            for x in interior_points(m, 4, rng):
                left = apply_qso(t, x)
                right = apply_volterra(a, x)
                assert left.coords == pytest.approx(right.coords, abs=1e-12)


class TestNumpyReference:
    """The tensor helpers against the numpy expressions they replaced:
    equal where the arithmetic is the same; apply_qso sums with fsum where
    einsum summed in its own order, so within 2 ulp of 1."""

    def test_tensor_helpers_equal_numpy_forms(self, rng):
        for k in range(300):
            m = k % 3 + 2
            a = random_skew_matrix(m, rng)
            p = np.zeros((m, m, m))
            for i in range(m):
                p[i][i][i] = 1.0
                for j in range(m):
                    if i != j:
                        p[i][j][i] = (1.0 + a.rows[i][j]) / 2.0
                        p[i][j][j] = (1.0 + a.rows[j][i]) / 2.0
            t = to_tensor(a)
            assert np.array_equal(np.array(t.p), p)
            i_, j_, k_ = np.indices(p.shape)
            off = (k_ != i_) & (k_ != j_)
            general = random_tensor(m, rng)
            for tensor, array in ((t, p), (general, np.array(general.p))):
                assert is_volterra(tensor) == bool(np.all(array[off] <= 1e-15))
            back = np.zeros((m, m))
            for r in range(m):
                for c in range(m):
                    if r != c:
                        back[r][c] = p[c][r][r] + p[r][c][r] - 1.0
            assert to_skew_matrix(t) == skewize(back)
            x = interior_points(m, 1, rng)[0]
            xs = np.array(x.coords)
            image = np.einsum("ijk,i,j->k", np.array(general.p), xs, xs)
            ref = image / image.sum()
            assert max(abs(u - v) for u, v in zip(
                apply_qso(general, x).coords, ref)) <= 4.5e-16


class TestApplyVolterra:
    def test_zero_matrix_is_identity(self, rng):
        a = SkewMatrix.zero(4)
        for x in interior_points(4, 10, rng):
            assert apply_volterra(a, x).coords == x.coords

    def test_vertices_fixed(self, rng):
        for m in (3, 4):
            a = random_skew_matrix(m, rng)
            for i in range(m):
                v = SimplexPoint.vertex(m, i + 1)
                assert apply_volterra(a, v).coords == v.coords

    def test_all_half_at_barycenter(self, all_half):
        y = apply_volterra(all_half, SimplexPoint.barycenter(4))
        assert y.coords == pytest.approx(
            (0.28125, 0.28125, 0.21875, 0.21875), abs=1e-15)

    def test_sum_conserved_before_renormalization(self, rng):
        for _ in range(1000):
            m = int(rng.integers(3, 5))
            a = random_skew_matrix(m, rng)
            x = interior_points(m, 1, rng)[0]
            raw = raw_volterra_image(a, x)
            assert abs(math.fsum(raw) - 1.0) <= 1e-14

    def test_face_invariance_exact(self, rng):
        a = random_skew_matrix(4, rng)
        x = validate((0.5, 0.0, 0.3, 0.2))
        y = apply_volterra(a, x)
        assert y.coords[1] == 0.0

    def test_nonnegative_row_never_loses_share(self, rng):
        a = SkewMatrix(((0.0, 0.5, 0.5, 0.5),
                        (-0.5, 0.0, 0.3, -0.2),
                        (-0.5, -0.3, 0.0, 0.4),
                        (-0.5, 0.2, -0.4, 0.0)))
        for x in interior_points(4, 200, rng):
            assert apply_volterra(a, x).coords[0] >= x.coords[0] - 1e-12

    def test_nonpositive_row_never_gains_share(self, rng):
        a = SkewMatrix(((0.0, -0.5, -0.5, -0.5),
                        (0.5, 0.0, 0.3, -0.2),
                        (0.5, -0.3, 0.0, 0.4),
                        (0.5, 0.2, -0.4, 0.0)))
        for x in interior_points(4, 200, rng):
            assert apply_volterra(a, x).coords[0] <= x.coords[0] + 1e-12

    def test_step_factor_sum_correctly_rounded(self, rng):
        # image_k = x_k * (1 + (Ax)_k), (Ax)_k the correctly rounded sum of
        # the products a[k][i] * x_i, also when a coordinate is tiny
        for i in range(1000):
            m = int(rng.integers(2, 5))
            a = random_skew_matrix(m, rng)
            coords = list(interior_points(m, 1, rng)[0].coords)
            coords[i % m] = (0.0, 1e-300, 5e-324, coords[i % m])[i % 4]
            x = validate(coords, sum_tol=1.0)   # renormalizes
            expected = [xk * (1.0 + float(sum(
                Fraction(v * xi) for v, xi in zip(row, x.coords))))
                for row, xk in zip(a.rows, x.coords)]
            assert raw_volterra_image(a, x) == expected

    def test_factor_dust_clamped_to_zero(self):
        # x2 + x3 is just over 1 - x1, so 1 + (Ax)_1 rounds below 0: dust
        # is clamped to 0, keeping the image nonnegative; more is an error
        a = SkewMatrix(((0.0, -1.0, -1.0), (1.0, 0.0, 0.0), (1.0, 0.0, 0.0)))
        x = SimplexPoint((1e-14, 0.5, 0.5 + 1e-14))
        raw = raw_volterra_image(a, x)
        assert math.copysign(1.0, raw[0]) == 1.0 and raw[0] == 0.0
        assert apply_volterra(a, x).coords[0] == 0.0
        corrupt = _trusted(SimplexPoint, (1e-14, 0.5, 0.5 + 2e-12))
        with pytest.raises(DegenerateFactor, match=r"at slot 1; input is "):
            raw_volterra_image(a, corrupt)

    def test_forward_invariance_random(self, rng):
        for _ in range(2000):
            m = int(rng.integers(3, 5))
            a = random_skew_matrix(m, rng)
            x = interior_points(m, 1, rng)[0]
            validate(apply_volterra(a, x).coords)


class TestApplyVolterraLog:
    def test_zero_matrix_near_identity(self, rng):
        a = SkewMatrix.zero(4)
        for x in interior_points(4, 20, rng):
            lx = x.to_log()
            ly = apply_volterra_log(a, lx)
            for u, v in zip(lx.log_coords, ly.log_coords):
                assert abs(u - v) <= 1e-14

    def test_agrees_with_linear(self, rng):
        for _ in range(1000):
            m = int(rng.integers(3, 5))
            a = random_skew_matrix(m, rng)
            x = interior_points(m, 1, rng)[0]
            lin = apply_volterra(a, x)
            log_img = apply_volterra_log(a, x.to_log()).to_linear()
            for u, v in zip(lin.coords, log_img.coords):
                assert v == pytest.approx(u, rel=1e-10)

    def test_agrees_with_linear_tiny_coordinates(self, rng):
        x = validate((1e-99, 1e-60, 0.5, 0.5))
        for _ in range(100):
            a = random_skew_matrix(4, rng)
            lin = apply_volterra(a, x)
            log_img = apply_volterra_log(a, x.to_log()).to_linear()
            for u, v in zip(lin.coords, log_img.coords):
                assert v == pytest.approx(u, rel=1e-10)

    def test_zero_slot_stays_minus_inf(self, rng):
        a = random_skew_matrix(4, rng)
        lx = validate((0.5, 0.0, 0.3, 0.2)).to_log()
        assert apply_volterra_log(a, lx).log_coords[1] == -INF

    def test_dimension_mismatch(self, rng):
        with pytest.raises(DimensionMismatch):
            apply_volterra_log(random_skew_matrix(3, rng),
                               SimplexPoint.barycenter(4).to_log())


class TestVolterra3:
    def test_zero_parameters_identity(self, rng):
        for x in interior_points(3, 10, rng):
            assert apply_volterra(skew3(0.0, 0.0, 0.0), x).coords == x.coords

    def test_vertex_fixed(self):
        v = SimplexPoint.vertex(3, 1)
        assert apply_volterra(skew3(1.0, 1.0, 1.0), v).coords == v.coords

    def test_matches_skew_matrix_route(self, rng):
        for _ in range(50):
            a, b, c = (float(2 * rng.random() - 1) for _ in range(3))
            x = interior_points(3, 1, rng)[0]
            explicit = SkewMatrix(((0.0, a, -b), (-a, 0.0, c), (b, -c, 0.0)))
            assert (apply_volterra(skew3(a, b, c), x).coords
                    == apply_volterra(explicit, x).coords)

    def test_componentwise_form(self, rng):
        # (x,y,z) -> (x(1+ay-bz), y(1-ax+cz), z(1+bx-cy)), the placement
        # forced by skew-symmetry
        for _ in range(100):
            a, b, c = (float(2 * rng.random() - 1) for _ in range(3))
            p = interior_points(3, 1, rng)[0]
            x, y, z = p.coords
            expected = (x * (1 + a * y - b * z),
                        y * (1 - a * x + c * z),
                        z * (1 + b * x - c * y))
            total = math.fsum(expected)
            got = apply_volterra(skew3(a, b, c), p)
            for u, v in zip(got.coords, expected):
                assert u == pytest.approx(v / total, rel=1e-13)

    def test_parameter_bound(self):
        with pytest.raises(ValidationError):
            skew3(1.5, 0.0, 0.0)


class TestTrustedConstruction:
    """random_skew_matrix, apply_volterra and validate build their results
    without re-running the constructors' checks; the checked constructors
    must accept those values and give equal objects."""

    @staticmethod
    def floats(values):
        return all(type(v) is float for v in values)

    def test_trusted_sites_equal_checked_constructors(self, rng):
        for k in range(3000):
            m = int(rng.integers(2, 5))
            a = random_skew_matrix(m, rng)
            assert SkewMatrix(a.rows) == a
            assert all(self.floats(row) for row in a.rows)
            raw = rng.random(m)
            raw[rng.random(m) < 0.3] = 0.0      # faces
            dust = k % 7 == 0                   # a -1e-13 that validate clamps
            if dust:
                raw[0] = 0.0
            if raw.sum() == 0.0:
                continue
            p = raw / raw.sum()
            if dust:
                p[0] = -1e-13
            x = validate(p)
            assert SimplexPoint(x.coords) == x and self.floats(x.coords)
            y = apply_volterra(a, x)
            assert SimplexPoint(y.coords) == y and self.floats(y.coords)
            assert validate(y.coords) == y

    def test_boundary_matrices(self):
        x = SimplexPoint((0.5, 0.25, 0.25))
        for a in (skew3(1.0, 1.0, 1.0), skew3(-1.0, 1.0, 0.0),
                  SkewMatrix.zero(3)):
            y = apply_volterra(a, x)
            assert SimplexPoint(y.coords) == y

    @pytest.mark.parametrize("m", [0, 1, 5])
    def test_dimension_still_checked(self, rng, m):
        with pytest.raises(WrongDimension):
            random_skew_matrix(m, rng)
        if m:
            with pytest.raises(WrongDimension):
                validate([1.0 / m] * m)


# every function of a matrix (or its tensor) and a point
SIZE_MISMATCHES = {
    "raw_volterra_image": raw_volterra_image,
    "apply_volterra": apply_volterra,
    "apply_volterra_log": lambda a, p: apply_volterra_log(a, p.to_log()),
    "apply_qso": lambda a, p: apply_qso(to_tensor(a), p),
    "volterra_jacobian": volterra_jacobian,
    "jacobian_spectrum": jacobian_spectrum,
    "TrajectoryConfig": lambda a, p: TrajectoryConfig(a, p, steps=10),
}


@pytest.mark.parametrize("call", SIZE_MISMATCHES.values(),
                         ids=SIZE_MISMATCHES.keys())
@pytest.mark.parametrize("m,n", [(3, 4), (4, 3), (2, 3)])
def test_size_mismatch_is_dimension_mismatch(call, m, n):
    a = skewize([[0.5 * (j - i) / m for j in range(m)] for i in range(m)])
    with pytest.raises(DimensionMismatch,
                       match=rf"^(matrix|tensor) m={m}, (point|start) m={n}$"):
        call(a, SimplexPoint.barycenter(n))
