import math

import pytest
from hypothesis import given, strategies as st

from volqso.errors import (
    IndeterminateForm,
    NegativeCoordinate,
    NonFiniteInput,
    SumNotOne,
    ValidationError,
    WrongDimension,
)
from volqso.simplex import (
    FaceId,
    LogSimplexPoint,
    SimplexPoint,
    log_phi,
    log_sum_exp,
    monomial,
    phi,
    validate,
)

INF = float("inf")


class TestValidate:
    def test_barycenter_valid(self):
        p = validate((0.25, 0.25, 0.25, 0.25))
        assert p.coords == (0.25, 0.25, 0.25, 0.25)

    def test_vertex_valid(self):
        p = validate((1.0, 0.0, 0.0, 0.0))
        assert p.coords == (1.0, 0.0, 0.0, 0.0)

    def test_sum_not_one(self):
        with pytest.raises(SumNotOne):
            validate((0.5, 0.6, 0.0, 0.0))

    def test_tiny_negative_clamped_to_zero(self):
        p = validate((-1e-13, 0.5, 0.5, 1e-13))
        assert p.coords[0] == 0.0
        assert math.fsum(p.coords) == 1.0

    def test_true_negative_rejected(self):
        with pytest.raises(NegativeCoordinate):
            validate((-1e-6, 0.5, 0.5, 1e-6))

    def test_nonfinite_rejected(self):
        with pytest.raises(NonFiniteInput):
            validate((float("nan"), 0.5, 0.5))
        with pytest.raises(NonFiniteInput):
            validate((INF, 0.5, 0.5))

    def test_sum_tolerance_boundary(self):
        validate((0.5, 0.5 + 5e-10))           # inside 1e-9
        with pytest.raises(SumNotOne):
            validate((0.5, 0.5 + 5e-9))

    def test_idempotent(self, rng):
        for _ in range(200):
            raw = rng.random(4)
            raw /= raw.sum()
            p1 = validate(raw)
            p2 = validate(p1.coords)
            assert p2.coords == p1.coords

    @given(st.lists(st.floats(min_value=1e-6, max_value=1.0), min_size=2,
                    max_size=4))
    def test_sum_invariant_after_construction(self, raw):
        total = math.fsum(raw)
        p = validate([v / total for v in raw])
        assert abs(math.fsum(p.coords) - 1.0) <= 1e-12


class TestLogRoundTrip:
    def test_round_trip_identity(self, rng):
        for _ in range(200):
            raw = rng.random(4)
            raw /= raw.sum()
            p = validate(raw)
            q = p.to_log().to_linear()
            for a, b in zip(p.coords, q.coords):
                assert a == pytest.approx(b, rel=1e-12)

    def test_round_trip_tiny_coordinates(self):
        p = validate((1e-250, 1e-100, 1e-20, 1.0 - 1e-20))
        q = p.to_log().to_linear()
        for a, b in zip(p.coords, q.coords):
            if a >= 1e-300:
                assert b == pytest.approx(a, rel=1e-12)

    def test_exact_zero_is_minus_inf_and_back(self):
        p = validate((0.5, 0.0, 0.5))
        lp = p.to_log()
        assert lp.log_coords[1] == -INF
        assert lp.to_linear().coords[1] == 0.0

    def test_normalized_to_zero_lse(self, rng):
        for _ in range(50):
            logs = -10.0 * rng.random(4)
            lp = LogSimplexPoint(tuple(logs))
            assert abs(log_sum_exp(lp.log_coords)) <= 1e-12

    def test_rejects_nan_and_plus_inf(self):
        with pytest.raises(NonFiniteInput):
            LogSimplexPoint((float("nan"), 0.0, 0.0))
        with pytest.raises(NonFiniteInput):
            LogSimplexPoint((INF, 0.0, 0.0))

    def test_all_zero_rejected(self):
        with pytest.raises(ValidationError):
            LogSimplexPoint((-INF, -INF, -INF))


class TestPhi:
    def test_barycenter(self):
        assert phi(SimplexPoint.barycenter(4)) == pytest.approx(1 / 64,
                                                                rel=1e-15)

    def test_vertex(self):
        assert phi(SimplexPoint.vertex(4, 1)) == 0.0

    def test_direct_arithmetic(self):
        # max(0.4*0.3*0.2, 0.4*0.1*0.2) = 0.024
        assert phi(validate((0.4, 0.3, 0.1, 0.2))) == pytest.approx(
            0.024, rel=1e-15)

    def test_wrong_dimension(self):
        with pytest.raises(WrongDimension):
            phi(SimplexPoint.barycenter(3))

    def test_upper_bound_random(self, rng):
        # a product of three coordinates never exceeds (1/3)^3
        for _ in range(10_000):
            raw = rng.random(4)
            p = validate(raw / raw.sum())
            assert phi(p) <= (1 / 3) ** 3 + 1e-15

    def test_log_phi_matches_linear(self, rng):
        for _ in range(100):
            raw = rng.random(4)
            p = validate(raw / raw.sum())
            assert math.exp(log_phi(p.to_log().log_coords)) == pytest.approx(
                phi(p), rel=1e-12)


class TestMonomial:
    def test_barycenter_all_ones(self):
        p = SimplexPoint.barycenter(4)
        assert monomial(p, (1, 1, 1, 1)) == pytest.approx(1 / 256, rel=1e-12)

    def test_vertex_zero_factor(self):
        assert monomial(SimplexPoint.vertex(4, 1), (1, 1, 1, 1)) == 0.0

    def test_zero_exponent_skips_zero_coordinate(self):
        p = validate((1 / 3, 0.0, 1 / 3, 1 / 3))
        assert monomial(p, (1, 0, 1, 1)) == pytest.approx(1 / 27, rel=1e-12)

    def test_zero_base_negative_exponent_is_inf(self):
        p = validate((0.5, 0.0, 0.25, 0.25))
        assert monomial(p, (1, -1, 1, 1)) == INF

    def test_mixed_zero_bases_indeterminate(self):
        p = validate((0.5, 0.0, 0.0, 0.5))
        with pytest.raises(IndeterminateForm):
            monomial(p, (0, 1, -1, 0))

    def test_nan_exponent_rejected(self):
        with pytest.raises(NonFiniteInput):
            monomial(SimplexPoint.barycenter(4), (1, float("nan"), 1, 1))

    def test_dimension_mismatch(self):
        with pytest.raises(ValidationError):
            monomial(SimplexPoint.barycenter(4), (1, 1, 1))


class TestFaceId:
    def test_sorted_support(self):
        assert FaceId((4, 1)).support == (1, 4)

    def test_empty_rejected(self):
        with pytest.raises(ValidationError):
            FaceId(())

    def test_duplicates_rejected(self):
        with pytest.raises(ValidationError):
            FaceId((1, 1, 2))

    def test_indices_are_zero_based(self):
        assert FaceId((1, 3, 4)).indices() == (0, 2, 3)
