import itertools
import math
import random
from fractions import Fraction

import numpy as np
import pytest

from volqso.errors import (
    DimensionMismatch,
    NonFiniteInput,
    SingularEntry,
    ValidationError,
)
from volqso.lyapunov import (
    MARGIN_TOL,
    DecayVerdict,
    build_b,
    synthesize,
    verify_along_trajectory,
    vertex_constraint_values,
    vertex_gains,
)
from volqso.qso import SkewMatrix, skew3
from volqso.sampling import random_skew_matrix

from test_lyapunov_reference import exact_optimum, ref_lex_max_min


class TestLogGainMatrix:
    def test_zero_matrix(self):
        b = build_b(SkewMatrix.zero(4))
        assert all(v == 0.0 for row in b.b for v in row)

    def test_all_half_entries(self, all_half):
        b = build_b(all_half)
        assert b.b[0][1] == pytest.approx(math.log(2), rel=1e-15)
        assert b.b[0][3] == pytest.approx(-math.log(1.5), rel=1e-15)
        assert all(b.b[i][i] == 0.0 for i in range(4))

    def test_unit_entry_singular(self):
        with pytest.raises(SingularEntry):
            build_b(skew3(1.0, 0.5, 0.5))

    def test_skew_link_identity(self, rng):
        # log(1 + a[i][j]) == -b[j][i], exactly (same log1p call negated)
        for _ in range(50):
            a = random_skew_matrix(4, rng)
            if any(abs(v) >= 1.0 for row in a.rows for v in row):
                continue
            b = build_b(a)
            for i in range(4):
                for j in range(4):
                    assert math.log1p(a.rows[i][j]) == -b.b[j][i]


class TestVertexGains:
    def test_hand_feasible_exponents(self, all_half):
        # lambda = (1, 1, 0.5, 1.5): all four vertex constraints negative
        values = vertex_constraint_values(all_half, (1.0, 1.0, 0.5, 1.5))
        expected = (
            math.log(0.5) + 0.5 * math.log(0.5) + 1.5 * math.log(1.5),
            math.log(1.5) + 0.5 * math.log(0.5) + 1.5 * math.log(0.5),
            math.log(1.5) + math.log(1.5) + 1.5 * math.log(0.5),
            math.log(0.5) + math.log(1.5) + 0.5 * math.log(1.5),
        )
        for got, ref in zip(values, expected):
            assert got == pytest.approx(ref, abs=1e-12)
            assert got < 0.0

    def test_gains_exponentiate_constraints(self, all_half, rng):
        lam = tuple(2 * rng.random(4) - 1)
        values = vertex_constraint_values(all_half, lam)
        gains = vertex_gains(all_half, lam)
        for g, v in zip(gains, values):
            assert g == pytest.approx(math.exp(v), rel=1e-12)

    def test_formulation_equivalence_regression(self, rng):
        # sign of the worst constraint matches the sign of the worst log-gain
        for _ in range(100):
            a = random_skew_matrix(4, rng)
            if any(abs(v) >= 1.0 for row in a.rows for v in row):
                continue
            lam = tuple(2 * rng.random(4) - 1)
            worst = max(vertex_constraint_values(a, lam))
            worst_gain = max(vertex_gains(a, lam))
            if abs(worst) > 1e-12:
                assert (worst > 0) == (worst_gain > 1.0)

    def test_dimension_check(self, all_half):
        with pytest.raises(DimensionMismatch, match=r"^2 exponents for m=4$"):
            vertex_constraint_values(all_half, (1.0, 1.0))

    @pytest.mark.parametrize("fn", [vertex_constraint_values, vertex_gains])
    def test_exponents_checked_as_monomial_checks_them(self, all_half, fn):
        # a wrong count is a size mismatch, a NaN a non-finite input; both
        # are ValidationErrors, so the CLI's exit codes stay
        with pytest.raises(DimensionMismatch, match=r"^3 exponents for m=4$"):
            fn(all_half, (1.0, 1.0, 1.0))
        for lam in [(1.0, math.nan, 0.5, 1.5), (math.nan,) * 4]:
            with pytest.raises(NonFiniteInput, match=r"^NaN exponent$"):
                fn(all_half, lam)
        assert issubclass(DimensionMismatch, ValidationError)
        assert issubclass(NonFiniteInput, ValidationError)


class TestSynthesize:
    def test_all_half_feasible(self, all_half):
        cand = synthesize(all_half)
        assert cand is not None
        assert cand.margin > 0.0
        assert all(g < 1.0 for g in cand.vertex_gains)
        # soundness: every constraint holds with slack >= margin - 1e-9
        values = vertex_constraint_values(all_half, cand.exponents)
        for v in values:
            assert -v >= cand.margin - 1e-9
        # definitional recheck of the stored gains
        for g, v in zip(cand.vertex_gains, values):
            assert g == pytest.approx(math.exp(v), rel=1e-12)

    def test_zero_matrix_infeasible(self):
        assert synthesize(SkewMatrix.zero(4)) is None

    def test_exponents_within_unit_box(self, all_half):
        cand = synthesize(all_half)
        assert all(-1.0 - 1e-12 <= v <= 1.0 + 1e-12 for v in cand.exponents)

    def test_unit_entry_rejected(self):
        with pytest.raises(SingularEntry):
            synthesize(skew3(1.0, 1.0, 1.0))

    def test_grid_oracle_completeness_sample(self, rng):
        # coarse grid over the exponent box; whenever the grid finds strict
        # feasibility, synthesize must too
        from volqso.classify import VolterraClass, classify

        axes = np.arange(-10, 11) * 0.1
        grid = np.array(np.meshgrid(*[axes] * 4,
                                    indexing="ij")).reshape(4, -1).T
        found = 0
        while found < 20:
            a = random_skew_matrix(4, rng)
            if classify(a).volterra_class != VolterraClass.CYCLIC:
                continue
            if any(abs(v) >= 1.0 for row in a.rows for v in row):
                continue
            found += 1
            lg = np.array([[math.log1p(a.rows[i][j]) for j in range(4)]
                           for i in range(4)])
            grid_feasible = bool((grid @ lg).max(axis=1).min() < 0.0)
            cand = synthesize(a)
            if grid_feasible:
                assert cand is not None

    def test_candidate_margin_iff_gains_below_one(self, rng):
        for _ in range(50):
            a = random_skew_matrix(4, rng)
            if any(abs(v) >= 1.0 for row in a.rows for v in row):
                continue
            cand = synthesize(a)
            if cand is not None:
                assert cand.margin > 0.0
                assert all(g < 1.0 for g in cand.vertex_gains)


def _solve(system):
    """Solution of a square linear system given as augmented Fraction rows;
    None when it is singular."""
    rows = [list(r) for r in system]
    n = len(rows)
    for col in range(n):
        piv = next((r for r in range(col, n) if rows[r][col]), None)
        if piv is None:
            return None
        rows[col], rows[piv] = rows[piv], rows[col]
        p = rows[col][col]
        rows[col] = [v / p for v in rows[col]]
        for r in range(n):
            if r != col and rows[r][col]:
                f = rows[r][col]
                rows[r] = [v - f * w for v, w in zip(rows[r], rows[col])]
    return [r[n] for r in rows]


def exact_vertices(lg):
    """Optimal t and every optimal vertex lam of: maximize t subject to
    sum_i lg[i][j] lam_i + t <= 0 and -1 <= lam_i <= 1, with the float
    entries of lg taken as exact rationals.  Each (m+1)-subset of the 3m
    constraints (m rows, lam_i = -1, lam_i = 1) is solved as equalities in
    Fractions and kept when feasible."""
    m = len(lg)
    exact = [[Fraction(v) for v in row] for row in lg]
    found = []
    for subset in itertools.combinations(range(3 * m), m + 1):
        at = {}
        for c in subset:
            if c >= m:
                at.setdefault((c - m) % m, []).append(-1 if c < 2 * m else 1)
        if any(len(v) > 1 for v in at.values()):
            continue    # lam_i = -1 and lam_i = 1 at once
        free = [i for i in range(m) if i not in at]
        sol = _solve([[exact[i][j] for i in free] + [Fraction(1)]
                      + [-sum(exact[i][j] * v[0] for i, v in at.items())]
                      for j in subset if j < m])
        if sol is None:
            continue
        lam = [Fraction(at[i][0]) if i in at else sol[free.index(i)]
               for i in range(m)]
        t = sol[-1]
        if all(abs(v) <= 1 for v in lam) and all(
                sum(exact[i][j] * lam[i] for i in range(m)) + t <= 0
                for j in range(m)):
            found.append((t, tuple(lam)))
    best = max(t for t, _ in found)
    return best, sorted({lam for t, lam in found if t == best})


def _skew_rows(m, draw):
    rows = [[0.0] * m for _ in range(m)]
    for i in range(m):
        for j in range(i + 1, m):
            rows[i][j] = draw()
            rows[j][i] = -rows[i][j]
    return rows


# a 2-face of exponent vectors is optimal, with four vertices; the simplex's
# first optimal vertex is (0.368..., -1, -1), the lexicographically smallest
# is (-0.046..., 1, -1)
TIE_M3 = [[0, 0, -0.75], [0, 0, -0.25], [0.75, 0.25, 0]]


def _oracle_cases():
    rnd = random.Random(2012)
    dyadic = [0.0, 0.25, -0.25, 0.5, -0.5, 0.75, -0.75]
    cases = {"all-half": [[0, 0.5, 0.5, -0.5], [-0.5, 0, 0.5, 0.5],
                          [-0.5, -0.5, 0, 0.5], [0.5, -0.5, -0.5, 0]],
             "tie-m3": TIE_M3,
             "tie-m4": [[0, 0.75, -0.75, -0.5], [-0.75, 0, -0.5, 0],
                        [0.75, 0.5, 0, -0.25], [0.5, 0, 0.25, 0]]}
    for m in (2, 3, 4):
        cases[f"zero-m{m}"] = [[0.0] * m for _ in range(m)]
        for k in range(6 if m == 4 else 8):
            cases[f"random-m{m}-{k}"] = _skew_rows(
                m, lambda: rnd.uniform(-1.0, 1.0))
            cases[f"dyadic-m{m}-{k}"] = _skew_rows(
                m, lambda: rnd.choice(dyadic))
    return cases


ORACLE_CASES = _oracle_cases()
_ORACLE = {}


def oracle(name):
    """(log-gain rows, exact optimum t, optimal vertices) of a named case."""
    if name not in _ORACLE:
        rows = ORACLE_CASES[name]
        lg = [[math.log1p(v) for v in row] for row in rows]
        _ORACLE[name] = (lg, *exact_vertices(lg))
    return _ORACLE[name]


class TestExactOptimum:
    """synthesize against an exact vertex enumeration: the solver's optimum
    is the exact rational one, ties go to the lexicographically smallest
    exponents, and the float exponents are that optimum correctly rounded."""

    @pytest.mark.parametrize("setting", [
        {}, {"float_pivots": 0}, {"float_pivots": 2}, {"float_tol": 0.5}],
        ids=["default", "exact-from-start", "exact-repivots",
             "float-basis-dropped"])
    @pytest.mark.parametrize("name", sorted(ORACLE_CASES))
    def test_solver_equals_oracle(self, name, setting):
        # so does the Fraction solver that tests/test_lyapunov_reference.py
        # holds as the reference, along each of its paths: the settings
        # hand its exact phases a float basis, the start, an unfinished
        # float basis (they must pivot on exactly) or a basis infeasible in
        # exact arithmetic
        lg, t, optimal = oracle(name)
        assert exact_optimum(lg) == (t, list(optimal[0]))
        assert ref_lex_max_min(lg, **setting) == (t, list(optimal[0]))

    @pytest.mark.parametrize("name", sorted(ORACLE_CASES))
    def test_synthesize_rounds_oracle(self, name):
        lg, t, optimal = oracle(name)
        a = SkewMatrix(ORACLE_CASES[name])
        cand = synthesize(a)
        exponents = tuple(float(v) for v in optimal[0])
        margin = min(-v for v in vertex_constraint_values(a, exponents))
        if t <= MARGIN_TOL or margin <= 0.0:
            assert cand is None
        else:
            assert cand.exponents == exponents
            assert cand.margin == margin

    def test_cases_include_ties_and_degenerate_vertices(self):
        ties = [n for n in ORACLE_CASES if len(oracle(n)[2]) > 1
                and oracle(n)[1] > MARGIN_TOL]
        degenerate = 0
        for name in ORACLE_CASES:
            lg, t, optimal = oracle(name)
            lam = optimal[0]
            active = sum(abs(v) == 1 for v in lam) + sum(
                sum(Fraction(lg[i][j]) * lam[i] for i in range(len(lam)))
                + t == 0 for j in range(len(lam)))
            degenerate += active > len(lam) + 1
        assert len(ties) >= 3 and degenerate >= 3

    def test_tie_goes_to_smallest_exponents(self):
        lg, t, optimal = oracle("tie-m3")
        assert len(optimal) == 4
        cand = synthesize(SkewMatrix(TIE_M3))
        assert cand.exponents == (-0.04655470219574071, 1.0, -1.0)
        assert cand.exponents == tuple(map(float, optimal[0]))

    def test_zero_matrix_optimum_is_the_smallest_corner(self):
        for m in (2, 3, 4):
            assert exact_optimum([[0.0] * m] * m) == (0, [-1] * m)


class TestVerifyAlongTrajectory:
    def test_synthesized_candidate_decays(self, all_half, generic_start4):
        cand = synthesize(all_half)
        report = verify_along_trajectory(cand, all_half, generic_start4,
                                         steps=20_000)
        assert report.verdict == DecayVerdict.DECAYING
        assert all(d < 0 for _, _, d in report.decade_drifts)
        assert report.log_end < report.log_start

    def test_zero_exponents_do_not_decay(self, all_half, generic_start4):
        report = verify_along_trajectory((0.0, 0.0, 0.0, 0.0), all_half,
                                         generic_start4, steps=5000)
        assert report.verdict == DecayVerdict.NOT_DECAYING

    def test_flipped_exponents_grow(self, all_half, generic_start4):
        cand = synthesize(all_half)
        flipped = tuple(-v for v in cand.exponents)
        report = verify_along_trajectory(flipped, all_half, generic_start4,
                                         steps=5000)
        assert report.verdict == DecayVerdict.NOT_DECAYING

    def test_steps_floor(self, all_half, generic_start4):
        with pytest.raises(ValidationError):
            verify_along_trajectory((1.0, 0.0, 0.0, 0.0), all_half,
                                    generic_start4, steps=100)
