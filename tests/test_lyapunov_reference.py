"""The exact LP of `synthesize` against the Fraction solver it replaced.

`_exact_optimum` runs one simplex on an integer tableau over one positive
denominator (Bareiss pivots, sign tests of integers), from the starting
vertex.  The reference below is the solver as it was before: a float
simplex picks a basis, a fraction-free installation brings it in exactly
(or falls back to the start), and the exact phases run on `Fraction`s.
Both must reach the same optimum (t, lam) exactly, ties broken the same
way, and `synthesize` must return the same candidate, bit for bit.
The matrices include families built so that the ratio test meets ties and
the tie rule's later phases have several optimal exponents to choose from;
the reference counts both."""

import importlib.util
import math
import random
from fractions import Fraction
from itertools import combinations
from pathlib import Path

import pytest

from volqso import lyapunov
from volqso.errors import SingularEntry
from volqso.lyapunov import (
    MARGIN_TOL,
    LyapunovCandidate,
    synthesize,
    vertex_constraint_values,
)
from volqso.qso import SkewMatrix
from volqso.sampling import random_canonical_matrix, random_skew_matrix

PERFBENCH = Path(__file__).resolve().parents[1] / "perfbench"

# how often the reference met a tie: in the ratio test, and among the
# optimal exponents (a tie-rule phase that had to run)
TIES = {"ratio": 0, "optimal": 0}
FLOAT_TOL = 1e-12         # float phase: reduced costs and pivots below are 0
FLOAT_PIVOTS = 50         # float pivots before the exact phases take over


# --- the reference -----------------------------------------------------------


def ref_pivot(tab, r, j):
    row = tab[r]
    p = row[j]
    row[:] = [v / p if v else v for v in row]
    for k, other in enumerate(tab):
        f = other[j]
        if k != r and f:
            other[:] = [o - f * v if v else o for o, v in zip(other, row)]


def ref_simplex(tab, basis, x, lo, hi, cost, fixed, tol, max_pivots):
    n = len(x)
    pivots = 0
    while True:
        d = list(cost)
        for r, b in enumerate(basis):
            if cost[b]:
                cb, row = cost[b], tab[r]
                for j in range(n):
                    if row[j]:
                        d[j] -= cb * row[j]
        basic = set(basis)
        for j in range(n):
            if j in basic or j in fixed:
                continue
            if d[j] > tol and x[j] < hi[j]:
                sign = 1
                break
            if d[j] < -tol and x[j] > lo[j]:
                sign = -1
                break
        else:
            return d
        if pivots == max_pivots:
            return None
        pivots += 1
        theta, leave = hi[j] - lo[j], None
        for r, b in enumerate(basis):
            rate = sign * tab[r][j]
            if rate > tol:
                room = (x[b] - lo[b]) / rate
            elif rate < -tol and hi[b] != math.inf:
                room = (x[b] - hi[b]) / rate
            else:
                continue
            if tol == 0 and room == theta and leave is not None:
                TIES["ratio"] += 1
            if room < theta or (room == theta and leave is not None
                                and b < basis[leave]):
                theta, leave = room, r
        step = sign * theta
        x[j] += step
        for r, b in enumerate(basis):
            if tab[r][j]:
                x[b] -= step * tab[r][j]
        if leave is not None:
            b = basis[leave]
            x[b] = lo[b] if sign * tab[leave][j] > 0 else hi[b]
            ref_pivot(tab, leave, j)
            basis[leave] = j


def ref_start(lg, num):
    m = len(lg)
    cols = [[num(lg[i][j]) for i in range(m)] for j in range(m)]
    tab = [col + [num(1)] + [num(1 if k == j else 0) for k in range(m)]
           for j, col in enumerate(cols)]
    sums = [sum(col) for col in cols]
    t = min(sums)
    x = [num(-1)] * m + [t] + [s - t for s in sums]
    return tab, list(range(m + 1, 2 * m + 1)), x


def ref_over_power_of_two(values):
    ratios = [v.as_integer_ratio() for v in values]
    den = max(q for _, q in ratios)
    return [u * (den // q) for u, q in ratios], den


def ref_exact_state(lg, basis, x, lo, hi):
    m, n = len(lg), len(x)
    flat, scale = ref_over_power_of_two([v for row in lg for v in row])
    ilg = [flat[i:i + m] for i in range(0, m * m, m)]
    tab, exact, ex = ref_start(ilg, int)
    det = 1
    for j in basis:
        if j in exact:
            continue
        r = next((r for r, b in enumerate(exact)
                  if b not in basis and tab[r][j]), None)
        if r is None:
            return ref_start(ilg, Fraction), scale
        p, prow = tab[r][j], tab[r]
        for k, row in enumerate(tab):
            if k != r:
                f = row[j]
                row[:] = [(p * v - f * w) // det for v, w in zip(row, prow)]
        det = p
        exact[r] = j
    for j in range(n):
        if j not in basis and j != m:
            ex[j] = hi[j] if j < m and x[j] > 0 else lo[j]
    for r, b in enumerate(exact):
        ex[b] = Fraction(-sum(tab[r][j] * ex[j] for j in range(n)
                              if j not in basis), det)
        if not lo[b] <= ex[b] <= hi[b]:
            return ref_start(ilg, Fraction), scale
    tab = [[Fraction(v, det) for v in row] for row in tab]
    return (tab, exact, ex), scale


def ref_lex_max_min(lg, float_pivots=FLOAT_PIVOTS, float_tol=FLOAT_TOL):
    m = len(lg)
    n = 2 * m + 1
    lo = [-1] * m + [-math.inf] + [0] * m
    hi = [1] * m + [math.inf] * (m + 1)
    cost = [int(j == m) for j in range(n)]
    tab, basis, x = ref_start(lg, float)
    ref_simplex(tab, basis, x, lo, hi, cost, (), float_tol, float_pivots)
    (tab, basis, x), scale = ref_exact_state(lg, basis, x, lo, hi)
    fixed = set()
    for i in range(-1, m):
        if i >= 0:
            TIES["optimal"] += 1
            cost = [-int(j == i) for j in range(n)]
        d = ref_simplex(tab, basis, x, lo, hi, cost, fixed, 0, None)
        fixed |= {j for j in range(n) if d[j] and j not in basis}
        if len(fixed) == n - m:
            break
    return Fraction(x[m], scale), x[:m]


def exact_optimum(lg):
    """`_exact_optimum` as Fractions: (t, [lam_1, ..., lam_m]), one each."""
    nums, det, scale = lyapunov._exact_optimum(lg)
    return Fraction(nums[-1], det * scale), [Fraction(v, det)
                                             for v in nums[:-1]]


def ref_synthesize(a):
    """`synthesize` on the reference solver."""
    vertex_constraint_values(a, [0.0] * a.m)    # the entry check
    m = a.m
    lg = [[math.log1p(a.rows[i][j]) for j in range(m)] for i in range(m)]
    t, lam = ref_lex_max_min(lg)
    if t <= MARGIN_TOL:
        return None
    lam = tuple(float(v) for v in lam)
    values = vertex_constraint_values(a, lam)
    margin = min(-v for v in values)
    if margin <= 0.0:
        return None
    return LyapunovCandidate(exponents=lam, margin=margin,
                             vertex_gains=tuple(math.exp(v) for v in values))


# --- the matrices ------------------------------------------------------------


def skew(m, entries):
    rows = [[0.0] * m for _ in range(m)]
    for (i, j), v in zip(combinations(range(m), 2), entries):
        rows[i][j], rows[j][i] = v, -v
    return SkewMatrix(tuple(map(tuple, rows)))


def library_pool():
    """The matrices of perfbench's library-batch pool, seed 1."""
    spec = importlib.util.spec_from_file_location(
        "perfbench_workloads", PERFBENCH / "workloads.py")
    workloads = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(workloads)
    items = workloads.library_items(1)
    return [random_skew_matrix(items["m"], item["seed"])
            for item in items["items"]]


# few distinct values, so that constraint rows and ratios coincide
TIE_ENTRIES = [0.0, -0.0, 0.5, -0.5, 0.25, -0.25, 0.75, -0.75]


def families():
    rng = random.Random(2211)
    fams = {"random": [], "canonical": [], "ties": [], "tiny": []}
    for m in (2, 3, 4):
        n = m * (m - 1) // 2
        fams["random"] += [random_skew_matrix(m, s) for s in range(150)]
        fams["random"] += [skew(m, [rng.uniform(-0.999, 0.999)
                                    for _ in range(n)]) for _ in range(50)]
        fams["ties"] += [skew(m, [rng.choice(TIE_ENTRIES) for _ in range(n)])
                         for _ in range(150)]
        # entries far apart in scale: a large common denominator
        fams["tiny"] += [skew(m, [rng.choice([1e-300, -1e-300, 2.0 ** -60,
                                              -0.5, 0.5, 0.0, 0.9, -0.9])
                                  for _ in range(n)]) for _ in range(40)]
    fams["canonical"] = [random_canonical_matrix(s) for s in range(150)]
    fams["canonical"] += [random_canonical_matrix(s, 0.5, 0.5)
                          for s in range(3)]
    fams["library"] = library_pool()
    return fams


FAMILIES = families()


def log_gains(a):
    return [[math.log1p(v) for v in row] for row in a.rows]


# --- the tests ---------------------------------------------------------------


# the reference's paths to its exact phases: from its float basis, from the
# start, from an unfinished float basis, and from the start again after its
# float basis proved infeasible in exact arithmetic
REF_SETTINGS = pytest.mark.parametrize("setting", [
    {}, {"float_pivots": 0}, {"float_pivots": 1}, {"float_tol": 0.5}],
    ids=["default", "exact-from-start", "exact-repivots",
         "float-basis-dropped"])


@REF_SETTINGS
@pytest.mark.parametrize("family", sorted(FAMILIES))
def test_integer_lp_equals_fraction_lp(family, setting):
    # the one exact simplex reaches the optimum the reference reaches along
    # each of its paths
    for a in FAMILIES[family]:
        if any(abs(v) >= 1.0 for row in a.rows for v in row):
            continue
        lg = log_gains(a)
        assert exact_optimum(lg) == ref_lex_max_min(lg, **setting), a.rows


def outcome(fn, a):
    """repr of fn(a), or the type and message of what it raised."""
    try:
        return repr(fn(a))
    except SingularEntry as exc:
        return type(exc).__name__, str(exc)


@pytest.mark.parametrize("family", sorted(FAMILIES))
def test_synthesize_equals_reference(family):
    for a in FAMILIES[family]:
        assert outcome(synthesize, a) == outcome(ref_synthesize, a), a.rows


def test_synthesize_checks_entries():
    a = skew(3, [0.5, -1.0, 0.25])
    assert outcome(synthesize, a) == outcome(ref_synthesize, a) == (
        "SingularEntry", "|a[1][3]| = 1.0; log gain undefined")


def same_state(state, ref):
    """An integer state (tab, det, basis, x) equals a Fraction one (tab,
    basis, x): the same basis in the same rows, tab / det, and the same
    values (x[b] / det for a basic b)."""
    (tab, det, basis, x), (rtab, rbasis, rx) = state, ref
    assert det > 0 and basis == rbasis
    assert [[Fraction(v, det) for v in row] for row in tab] == rtab
    assert [Fraction(v, det) if j in basis else v
            for j, v in enumerate(x)] == rx


def installed(lg, order, ref):
    """The integer state of the reference's exact state `ref`: its basis
    brought into the start tableau by `_bareiss`, in the order of the float
    basis `order` and into the rows the reference chose, and its values;
    and the scale D of lg."""
    m = len(lg)
    flat, scale = lyapunov._over_power_of_two([v for row in lg for v in row])
    tab, basis, _ = lyapunov._start([flat[i:i + m] for i in range(0, m * m, m)])
    det = 1
    for j in order:
        if j in ref[1] and j not in basis:
            r = next(r for r, b in enumerate(basis)
                     if b not in ref[1] and tab[r][j])
            det = lyapunov._bareiss(tab, r, j, det)
            basis[r] = j
    x = [int(v * det if j in basis else v) for j, v in enumerate(ref[2])]
    return (tab, det, basis, x), scale


def exact_phases(lg, float_pivots):
    """Run the exact phases of both solvers side by side from the state the
    reference installs after `float_pivots` float pivots (0: the starting
    vertex, where `_exact_optimum` starts), comparing the states and the
    reduced costs after every phase."""
    m = len(lg)
    n = 2 * m + 1
    lo = [-1] * m + [-math.inf] + [0] * m
    hi = [1] * m + [math.inf] * (m + 1)
    cost = [int(j == m) for j in range(n)]
    tab, basis, x = ref_start(lg, float)
    ref_simplex(tab, basis, x, lo, hi, cost, (), FLOAT_TOL, float_pivots)
    ref, ref_scale = ref_exact_state(lg, basis, x, lo, hi)
    state, scale = installed(lg, basis, ref)
    assert scale == ref_scale
    same_state(state, ref)
    tab, det, basis, x = state
    fixed: set = set()
    for i in range(-1, m):
        if i >= 0:
            cost = [-int(j == i) for j in range(n)]
        d, det = lyapunov._exact_simplex(tab, det, basis, x, lo, hi, cost,
                                         fixed)
        rd = ref_simplex(*ref, lo, hi, cost, fixed, 0, None)
        same_state((tab, det, basis, x), ref)
        assert [Fraction(v, det) for v in d] == rd
        fixed |= {j for j in range(n) if d[j] and j not in basis}
        if len(fixed) == n - m:
            break


@pytest.mark.parametrize("float_pivots", [0, 1, FLOAT_PIVOTS])
@pytest.mark.parametrize("family", sorted(FAMILIES))
def test_exact_phases_pivot_as_fraction_phases(family, float_pivots):
    # the same pivots, ties in the ratio test included, not only the same
    # optimum: each phase ends in the same basis with the same tableau and
    # reduced costs, from the start and from the reference's other bases
    for a in FAMILIES[family][::3]:
        if all(abs(v) < 1.0 for row in a.rows for v in row):
            exact_phases(log_gains(a), float_pivots)


def test_families_reach_ties():
    # the exact phases meet ratio-test ties when they pivot from the start,
    # as `_exact_optimum` does, and run tie-rule phases
    TIES.update(ratio=0, optimal=0)
    results = [ref_lex_max_min(log_gains(a), float_pivots=0)
               for a in FAMILIES["ties"]
               if all(abs(v) < 1.0 for row in a.rows for v in row)]
    assert TIES["ratio"] >= 20 and TIES["optimal"] >= 20, TIES
    # and optima with nonzero margins, not only the zero matrix's
    assert sum(t > MARGIN_TOL for t, _ in results) >= 20
