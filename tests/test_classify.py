import time
from itertools import permutations

import numpy as np
import pytest

from volqso.classify import (
    CanonicalParams,
    VolterraClass,
    classify,
    invariant_i,
    matrix_from_canonical,
    pfaffian4,
)
from volqso.errors import ValidationError, WrongDimension
from volqso.qso import SkewMatrix
from volqso.sampling import random_canonical_params, random_skew_matrix


def pfaffian_recursive(rows, idx=None) -> float:
    """Independent Pfaffian oracle: expansion along the first remaining row."""
    if idx is None:
        idx = list(range(len(rows)))
    if not idx:
        return 1.0
    i = idx[0]
    total = 0.0
    for pos, j in enumerate(idx[1:], start=1):
        rest = [k for k in idx if k not in (i, j)]
        total += (-1.0) ** (pos + 1) * rows[i][j] * pfaffian_recursive(rows,
                                                                       rest)
    return total


class TestCanonicalForm:
    def test_all_half_report(self, all_half):
        rep = classify(all_half)
        assert rep.volterra_class == VolterraClass.CYCLIC
        assert rep.permutation == (1, 2, 3, 4)
        assert rep.canonical_params.as_tuple() == (0.5,) * 6
        assert rep.invariant == 0.25
        assert rep.witness_row is None

    def test_invariant_single_term(self):
        assert invariant_i((1.0, 0.0, 0.0, 0.0, 0.0, 1.0)) == -1.0

    def test_invariant_matches_minus_pfaffian(self, rng):
        for _ in range(200):
            p = random_canonical_params(rng, low=0.0, high=1.0)
            a = matrix_from_canonical(p)
            assert invariant_i(p) == pytest.approx(-pfaffian4(a), abs=1e-14)
            assert pfaffian4(a) == pytest.approx(
                pfaffian_recursive(a.rows), abs=1e-14)

    def test_sign_pattern_of_assembled_matrix(self, rng):
        p = random_canonical_params(rng)
        a = matrix_from_canonical(p).rows
        assert a[0][1] >= 0 and a[0][2] >= 0 and a[0][3] <= 0
        assert a[1][2] >= 0 and a[1][3] >= 0 and a[2][3] >= 0

    def test_negative_params_rejected(self):
        with pytest.raises(ValidationError):
            CanonicalParams(-0.1, 0.5, 0.5, 0.5, 0.5, 0.5)


class TestClassify:
    def test_dominant_row(self):
        a = SkewMatrix(((0.0, 0.5, 0.5, 0.5),
                        (-0.5, 0.0, 0.3, -0.2),
                        (-0.5, -0.3, 0.0, 0.4),
                        (-0.5, 0.2, -0.4, 0.0)))
        rep = classify(a)
        assert rep.volterra_class == VolterraClass.DOMINANT_ROW
        assert rep.witness_row == 1
        assert rep.permutation is None

    def test_dominated_row_is_negated_dominant(self):
        a = SkewMatrix(((0.0, -0.5, -0.5, -0.5),
                        (0.5, 0.0, -0.3, 0.2),
                        (0.5, 0.3, 0.0, -0.4),
                        (0.5, -0.2, 0.4, 0.0)))
        rep = classify(a)
        assert rep.volterra_class == VolterraClass.DOMINATED_ROW
        assert rep.witness_row == 1

    def test_zero_matrix_is_class_one(self):
        rep = classify(SkewMatrix.zero(4))
        assert rep.volterra_class == VolterraClass.DOMINANT_ROW
        assert rep.witness_row == 1

    def test_wrong_dimension(self, rng):
        with pytest.raises(WrongDimension):
            classify(random_skew_matrix(3, rng))

    def test_every_matrix_gets_a_verdict(self, rng):
        # exhaustiveness on 1e5 i.i.d. samples; NoCanonicalForm never fires
        t0 = time.perf_counter()
        counts = {1: 0, 2: 0, 3: 0}
        for _ in range(100_000):
            rep = classify(random_skew_matrix(4, rng))
            counts[int(rep.volterra_class)] += 1
        assert sum(counts.values()) == 100_000
        assert all(c > 0 for c in counts.values())
        assert time.perf_counter() - t0 < 60

    def test_matches_brute_force_row_scans(self, rng):
        for _ in range(2000):
            a = random_skew_matrix(4, rng)
            rep = classify(a)
            has_nonneg = any(all(v >= 0 for v in row) for row in a.rows)
            has_nonpos = any(all(v <= 0 for v in row) for row in a.rows)
            if has_nonneg:
                assert rep.volterra_class == VolterraClass.DOMINANT_ROW
            elif has_nonpos:
                assert rep.volterra_class == VolterraClass.DOMINATED_ROW
            else:
                assert rep.volterra_class == VolterraClass.CYCLIC

    def test_class_invariant_under_relabeling(self, rng):
        for _ in range(300):
            a = random_skew_matrix(4, rng)
            cls = classify(a).volterra_class
            perm = list(rng.permutation(4))
            b = SkewMatrix(tuple(tuple(a.rows[p][q] for q in perm)
                                 for p in perm))
            assert classify(b).volterra_class == cls

    def test_permutation_maps_to_canonical(self, rng):
        for _ in range(300):
            a = random_skew_matrix(4, rng)
            rep = classify(a)
            if rep.volterra_class != VolterraClass.CYCLIC:
                continue
            perm = [p - 1 for p in rep.permutation]
            b = [[a.rows[p][q] for q in perm] for p in perm]
            assert b[0][1] == rep.canonical_params.a12
            assert b[0][3] == -rep.canonical_params.a14
            assert rep.invariant == pytest.approx(
                invariant_i(rep.canonical_params), abs=1e-14)

    def test_canonical_matrix_reclassifies_to_identity(self, rng):
        for _ in range(100):
            p = random_canonical_params(rng)
            rep = classify(matrix_from_canonical(p))
            assert rep.volterra_class == VolterraClass.CYCLIC
            assert rep.permutation == (1, 2, 3, 4)
            assert rep.canonical_params.as_tuple() == p.as_tuple()

    def test_lexicographically_smallest_permutation(self, all_half):
        # all canonical-pattern-matching relabelings of the all-0.5 matrix;
        # classify must return the lexicographically smallest
        matches = []
        for perm in permutations(range(4)):
            b = [[all_half.rows[p][q] for q in perm] for p in perm]
            if (b[0][1] >= 0 and b[0][2] >= 0 and b[0][3] <= 0
                    and b[1][2] >= 0 and b[1][3] >= 0 and b[2][3] >= 0):
                matches.append(tuple(p + 1 for p in perm))
        assert classify(all_half).permutation == min(matches)
