"""Monomial Lyapunov functions by linear feasibility.

F(x) = prod x_i^lam_i satisfies F(Vx) = F(x) G(x) with
G(x) = prod (1 + (Ax)_i)^lam_i.  If G < 1 at every vertex then F -> 0 along
generic trajectories, so exponents are synthesized from the strict system

    sum_i lam_i log(1 + a[i][j]) < 0        for every vertex j.

This vertex-gain form is used directly (it is unambiguous about index
order); by skew-symmetry log(1 + a[i][j]) = -b[j][i] with
b[i][j] = -log(1 - a[i][j]), which ties it to the log-gain matrix B.
The system is homogeneous, so exponents are confined to the unit box and the
smallest constraint slack is maximized, exactly in rational arithmetic, with
the lexicographically smallest exponents among tied optima; the returned
margin and gains are always recomputed from the float exponents.
"""

from __future__ import annotations

import math
from enum import Enum

from .errors import SingularEntry, ValidationError
from .qso import SkewMatrix
from .simplex import (
    MIN_VERIFY_STEPS,
    VERIFY_STEPS,
    VERIFY_STRIDE,
    VERIFY_TRANSIENT,
    SimplexPoint,
    _over_power_of_two,
    _Record,
)

MARGIN_TOL = 1e-9     # solver optimum below this: report infeasible
FLOAT_TOL = 1e-12         # float simplex: reduced costs and pivots below are 0
FLOAT_PIVOTS = 50         # float simplex pivots before integers take over
# the rows of the m x m identity matrix
_UNIT = {m: [[int(k == j) for k in range(m)] for j in range(m)]
         for m in (2, 3, 4)}


class LogGainMatrix(_Record):
    """b[i][j] = -log(1 - a[i][j]); finite exactly when |a[i][j]| < 1."""

    b: tuple[tuple[float, ...], ...]

    @property
    def m(self) -> int:
        return len(self.b)


class LyapunovCandidate(_Record):
    """Exponent vector with its recomputed feasibility margin
    (min over vertices of -log G(e_j)) and the four vertex gains G(e_j)."""

    exponents: tuple[float, ...]
    margin: float
    vertex_gains: tuple[float, ...]


class DecayVerdict(Enum):
    DECAYING = "decaying"
    NOT_DECAYING = "not_decaying"


class DecayReport(_Record):
    verdict: DecayVerdict
    # (n0, n1, log F(V^n1 x) - log F(V^n0 x)) per decade window
    decade_drifts: tuple[tuple[int, int, float], ...]
    log_start: float
    log_end: float


def _check_entries(a: SkewMatrix) -> None:
    for i, row in enumerate(a.rows):
        for j, v in enumerate(row):
            if abs(v) >= 1.0 and i != j:
                raise SingularEntry(
                    f"|a[{i + 1}][{j + 1}]| = {abs(v)}; log gain undefined")


def build_b(a: SkewMatrix) -> LogGainMatrix:
    """Entrywise -log(1 - a[i][j]); zero diagonal."""
    _check_entries(a)
    return LogGainMatrix(tuple(
        tuple(-math.log1p(-v) for v in row) for row in a.rows))


def vertex_constraint_values(a: SkewMatrix, exponents) -> tuple[float, ...]:
    """sum_i lam_i log(1 + a[i][j]) for each vertex j; feasibility means all
    values strictly negative."""
    lam = [float(v) for v in exponents]
    if len(lam) != a.m:
        raise ValidationError(f"{len(lam)} exponents for m={a.m}")
    _check_entries(a)
    return _constraint_values(
        [[math.log1p(v) for v in row] for row in a.rows], lam)


def _constraint_values(lg, lam) -> tuple[float, ...]:
    """sum_i lam[i] lg[i][j] for each j, summed left to right from 0.0."""
    out = []
    for j in range(len(lg)):
        s = 0.0
        for i, row in enumerate(lg):
            s += lam[i] * row[j]
        out.append(s)
    return tuple(out)


def vertex_gains(a: SkewMatrix, exponents) -> tuple[float, ...]:
    """G(e_j) = prod_i (1 + a[i][j])^lam_i."""
    return tuple(math.exp(v)
                 for v in vertex_constraint_values(a, exponents))


def _pivot(tab: list, r: int, j: int) -> None:
    """Gauss-Jordan pivot of the tableau on row r, column j."""
    row = tab[r]
    p = row[j]
    row[:] = [v / p if v else v for v in row]
    for k, other in enumerate(tab):
        f = other[j]
        if k != r and f:
            other[:] = [o - f * v if v else o for o, v in zip(other, row)]


def _simplex(tab, basis, x, lo, hi, cost, tol, max_pivots) -> None:
    """Bounded-variable primal simplex maximizing cost . x in floats, with
    Bland's rule (Bland 1977): the entering variable is the first improving
    one, and ties in the ratio test leave by the smallest index, so it
    cannot cycle.  Reduced costs and rates within tol of 0 count as 0.

    `tab` holds B^-1 A, row r belonging to basic variable basis[r]; `x` holds
    every variable's value, a nonbasic one at a bound (a free one anywhere).
    Stops once no variable improves, or after `max_pivots` moves; tab, basis
    and x are updated in place."""
    n = len(x)
    pivots = 0
    while True:
        d = cost
        for row, b in zip(tab, basis):
            cb = cost[b]
            if cb:
                d = [c - cb * v if v else c for c, v in zip(d, row)]
        basic = set(basis)
        for j in range(n):
            if j in basic:
                continue
            if d[j] > tol and x[j] < hi[j]:
                sign = 1
                break
            if d[j] < -tol and x[j] > lo[j]:
                sign = -1
                break
        else:
            return
        if pivots == max_pivots:
            return
        pivots += 1
        # x_j moves by sign * theta, each basic x_b by -sign * theta * tab
        theta, leave = hi[j] - lo[j], None
        for r, b in enumerate(basis):
            rate = sign * tab[r][j]
            if rate > tol:
                room = (x[b] - lo[b]) / rate
            elif rate < -tol and hi[b] != math.inf:
                room = (x[b] - hi[b]) / rate
            else:
                continue
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
            _pivot(tab, leave, j)
            basis[leave] = j


def _start(lg):
    """Tableau, basis and values of the starting vertex: every lam_i at -1,
    t at the largest value that allows, the slacks basic.  The entries of
    lg are floats for the float phase and integers for the exact one; the
    other entries are the ints 0, 1 and -1, which both take exactly."""
    m = len(lg)
    cols = [[row[j] for row in lg] for j in range(m)]
    tab = [col + [1] + unit for col, unit in zip(cols, _UNIT[m])]
    sums = [sum(col) for col in cols]
    t = min(sums)
    x = [-1] * m + [t] + [s - t for s in sums]
    return tab, list(range(m + 1, 2 * m + 1)), x


def _bareiss(tab: list, r: int, j: int, det: int) -> int:
    """Fraction-free Gauss-Jordan pivot (Bareiss) of `tab`, det times
    B^-1 A, on row r, column j; returns the new det, the pivot's modulus.
    A negative pivot's row is negated first, so det stays positive, and
    every division is exact."""
    prow = tab[r]
    p = prow[j]
    if p < 0:
        prow[:] = [-v for v in prow]
        p = -p
    for k, row in enumerate(tab):
        if k != r:
            f = row[j]
            if f:
                row[:] = [(p * v - f * w) // det if v or w else 0
                          for v, w in zip(row, prow)]
            else:
                row[:] = [p * v // det if v else 0 for v in row]
    return p


def _basic_values(tab, basis, x) -> None:
    """Set x[b] to det times the value of each basic variable b, from the
    integer values of the nonbasic ones: the rows say A x = 0."""
    nonbasic = [j for j in range(len(x)) if j not in basis]
    for row, b in zip(tab, basis):
        x[b] = -sum([row[j] * x[j] for j in nonbasic])


def _exact_simplex(tab, det, basis, x, lo, hi, cost, fixed):
    """`_simplex` in exact arithmetic, with no tolerance and no pivot limit,
    on integers: `tab` is det > 0 times B^-1 A, x[j] holds the value of a
    nonbasic variable (an integer: a bound, or t's start value) and det
    times the value of a basic one.  Every reduced cost and every ratio
    test is then a sign test of integers.  Returns det times the reduced
    costs once no variable improves, and det; tab, basis and x are updated
    in place."""
    n = len(x)
    while True:
        d = [det * c for c in cost]
        for row, b in zip(tab, basis):
            cb = cost[b]
            if cb:
                for j, v in enumerate(row):
                    if v:
                        d[j] -= cb * v
        basic = set(basis)
        for j in range(n):
            if j in basic or j in fixed:
                continue
            if d[j] > 0 and x[j] < hi[j]:
                sign = 1
                break
            if d[j] < 0 and x[j] > lo[j]:
                sign = -1
                break
        else:
            return d, det
        # the step theta = num / den, 1 / 0 standing for no bound: x_j moves
        # by sign * theta, each basic x_b by -sign * theta * tab
        if hi[j] == math.inf or lo[j] == -math.inf:
            num, den = 1, 0
        else:
            num, den = hi[j] - lo[j], 1
        leave = None
        for r, b in enumerate(basis):
            rate = sign * tab[r][j]
            if rate > 0 and lo[b] != -math.inf:
                room = x[b] - lo[b] * det
            elif rate < 0 and hi[b] != math.inf:
                room, rate = hi[b] * det - x[b], -rate
            else:
                continue
            # room / rate against num / den
            below, above = room * den, num * rate
            if below < above or (below == above and leave is not None
                                 and b < basis[leave]):
                num, den, leave = room, rate, r
        if leave is None:       # x_j moves from one bound to the other
            step = sign * num
            x[j] += step
            for row, b in zip(tab, basis):
                if row[j]:
                    x[b] -= step * row[j]
        else:
            b = basis[leave]
            x[b] = lo[b] if sign * tab[leave][j] > 0 else hi[b]
            det = _bareiss(tab, leave, j, det)
            basis[leave] = j
            _basic_values(tab, basis, x)


def _exact_state(lg, basis, x, lo, hi):
    """Exact state (tab, det, basis, x) of the float simplex's final basis,
    as `_exact_simplex` takes it; the exact starting vertex when that basis
    is singular or infeasible in exact arithmetic.  Also returns D, the
    largest denominator of the entries of lg (a power of two).

    The rows are scaled by D, so every entry D * lg[i][j] is an integer; t
    and the slacks then stand for D t and D s_j.  The basis goes in by
    fraction-free Gauss-Jordan pivots (Bareiss), so `tab` stays an integer
    multiple det of B^-1 A, and no fraction is ever made."""
    m, n = len(lg), len(x)
    flat, scale = _over_power_of_two([v for row in lg for v in row])
    ilg = [flat[i:i + m] for i in range(0, m * m, m)]

    def start():
        tab, basis, x = _start(ilg)
        return tab, 1, basis, x

    tab, det, exact, ex = start()
    for j in basis:
        if j in exact:
            continue
        r = next((r for r, b in enumerate(exact)
                  if b not in basis and tab[r][j]), None)
        if r is None:
            return start(), scale
        det = _bareiss(tab, r, j, det)
        exact[r] = j
    for j in range(n):
        if j not in basis and j != m:   # t keeps its exact start value
            ex[j] = hi[j] if j < m and x[j] > 0 else lo[j]
    _basic_values(tab, exact, ex)
    for b in exact:
        if (lo[b] != -math.inf and ex[b] < lo[b] * det
                or hi[b] != math.inf and ex[b] > hi[b] * det):
            return start(), scale
    return (tab, det, exact, ex), scale


def _exact_optimum(lg) -> tuple[list[int], int, int]:
    """The exact optimum (t, lam) of: maximize t subject to
    sum_i lg[i][j] lam_i + t <= 0 for every j and -1 <= lam_i <= 1, with the
    float entries of lg taken as exact rationals.  Of all optimal lam, the
    lexicographically smallest.  Returned as integers: the numerators of
    lam_1..lam_m and of D t over one denominator det > 0, det, and D (see
    `_exact_state`).

    Variables are lam_1..lam_m, t, and one slack s_j >= 0 a row
    (sum_i lg[i][j] lam_i + t + s_j = 0), so a basis is m x m.  A float
    simplex finds a basis.  The same simplex then runs in exact integer
    arithmetic from that basis (`_exact_simplex`): its basic values were
    checked against their bounds when it was installed, and its first step
    checks the sign of every reduced cost, which certifies the basis
    optimal or pivots on exactly.  The tie rule is a second exact phase:
    each later objective (minimize lam_1, then lam_2, ...) may move only
    the nonbasic variables whose reduced costs were zero for every earlier
    one, so it stays on the optimal face."""
    m = len(lg)
    n = 2 * m + 1
    # bounds of lam (the unit box), t and the slacks; the finite ones are
    # ints, so the exact pass computes with no float
    lo = [-1] * m + [-math.inf] + [0] * m
    hi = [1] * m + [math.inf] * (m + 1)
    cost = [int(j == m) for j in range(n)]
    tab, basis, x = _start(lg)
    _simplex(tab, basis, x, lo, hi, cost, FLOAT_TOL, FLOAT_PIVOTS)

    (tab, det, basis, x), scale = _exact_state(lg, basis, x, lo, hi)
    fixed: set = set()
    for i in range(-1, m):
        if i >= 0:
            cost = [-int(j == i) for j in range(n)]
        d, det = _exact_simplex(tab, det, basis, x, lo, hi, cost, fixed)
        fixed |= {j for j in range(n) if d[j] and j not in basis}
        if len(fixed) == n - m:
            break
    basic = set(basis)
    return [v if j in basic else v * det
            for j, v in enumerate(x[:m + 1])], det, scale


def _lex_max_min(lg) -> tuple:
    """`_exact_optimum` as Fractions: (t, [lam_1, ..., lam_m]), one
    Fraction each, for comparison with other exact solvers."""
    from fractions import Fraction

    nums, det, scale = _exact_optimum(lg)
    return Fraction(nums[-1], det * scale), [Fraction(v, det)
                                             for v in nums[:-1]]


def synthesize(a: SkewMatrix) -> LyapunovCandidate | None:
    """Maximize the smallest slack t of the vertex-gain system over the unit
    box, exactly (see _exact_optimum); returns None when no strictly
    feasible exponents exist (optimum at most MARGIN_TOL, e.g. the zero
    matrix), a candidate with margin > 0 otherwise.  The exponents are the
    exact optimum correctly rounded, the lexicographically smallest when
    several are optimal."""
    _check_entries(a)
    lg = [[math.log1p(v) for v in row] for row in a.rows]
    nums, det, scale = _exact_optimum(lg)
    # t = nums[-1] / (det D) against MARGIN_TOL = u / q, exactly
    u, q = MARGIN_TOL.as_integer_ratio()
    if nums[-1] * q <= u * det * scale:
        return None
    lam = tuple([v / det for v in nums[:-1]])
    values = _constraint_values(lg, lam)
    margin = min(-v for v in values)
    if margin <= 0.0:
        return None
    return LyapunovCandidate(
        exponents=lam,
        margin=margin,
        vertex_gains=tuple(math.exp(v) for v in values),
    )


def verify_along_trajectory(candidate, a: SkewMatrix, start: SimplexPoint,
                            steps: int = VERIFY_STEPS,
                            transient: int = VERIFY_TRANSIENT) -> DecayReport:
    """Track log F along a trajectory and report the net drift per decade.

    Decaying means every decade window starting at or after `transient` shows
    a net decrease; G exceeds 1 away from the vertices, so per-step or
    pre-transient increases are expected and ignored.
    """
    from .ergodic import (MonomialObservable, TrajectoryConfig,
                          decade_windows, run_trajectory)

    exponents = candidate.exponents if isinstance(candidate, LyapunovCandidate) \
        else tuple(float(v) for v in candidate)
    if steps < MIN_VERIFY_STEPS:
        raise ValidationError(
            f"need steps >= {MIN_VERIFY_STEPS} for a decade comparison")
    cfg = TrajectoryConfig(matrix=a, start=start, steps=steps,
                           record_stride=VERIFY_STRIDE)
    result = run_trajectory(
        cfg, [MonomialObservable(exponents, name="F")])
    trace = dict(zip(result.trace_steps, result.monomial_traces["F"]))
    boundaries = [hi for _, hi in decade_windows(steps)]

    drifts = []
    for n0, n1 in zip(boundaries, boundaries[1:]):
        if n0 < transient:
            continue
        drifts.append((n0, n1, trace[n1] - trace[n0]))
    if drifts and all(d < 0.0 for _, _, d in drifts):
        verdict = DecayVerdict.DECAYING
    else:
        verdict = DecayVerdict.NOT_DECAYING
    return DecayReport(
        verdict=verdict,
        decade_drifts=tuple(drifts),
        log_start=trace[boundaries[0]],
        log_end=trace[boundaries[-1]],
    )
