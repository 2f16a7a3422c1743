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
FLOAT_PIVOTS = 50         # float simplex pivots before Fractions take over


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
    for i in range(a.m):
        for j in range(a.m):
            if abs(a.rows[i][j]) >= 1.0 and i != j:
                raise SingularEntry(
                    f"|a[{i + 1}][{j + 1}]| = {abs(a.rows[i][j])}; "
                    "log gain undefined")


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
    out = []
    for j in range(a.m):
        s = 0.0
        for i in range(a.m):
            s += lam[i] * math.log1p(a.rows[i][j])
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


def _simplex(tab, basis, x, lo, hi, cost, fixed, tol, max_pivots):
    """Bounded-variable primal simplex maximizing cost . x, with Bland's
    rule (Bland 1977): the entering variable is the first improving one, and
    ties in the ratio test leave by the smallest index, so it cannot cycle.

    `tab` holds B^-1 A, row r belonging to basic variable basis[r]; `x` holds
    every variable's value, a nonbasic one at a bound (a free one anywhere).
    Variables in `fixed` never enter.  Returns the reduced costs once no
    variable improves, None after `max_pivots` moves (no limit when None);
    tab, basis and x are updated in place."""
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


def _start(lg, num):
    """Tableau, basis and values of the starting vertex, in the number type
    `num`: every lam_i at -1, t at the largest value that allows, the slacks
    basic."""
    m = len(lg)
    cols = [[num(lg[i][j]) for i in range(m)] for j in range(m)]
    tab = [col + [num(1)] + [num(1 if k == j else 0) for k in range(m)]
           for j, col in enumerate(cols)]
    sums = [sum(col) for col in cols]
    t = min(sums)
    x = [num(-1)] * m + [t] + [s - t for s in sums]
    return tab, list(range(m + 1, 2 * m + 1)), x


def _exact_state(lg, basis, x, lo, hi):
    """Exact tableau, basis and values of the float simplex's final basis;
    the exact starting vertex when that basis is singular or infeasible in
    exact arithmetic.

    The rows are scaled by D, the largest denominator of the entries of lg
    (a power of two), so every entry D * lg[i][j] is an integer; t and the
    slacks then stand for D t and D s_j.  The basis goes in by fraction-free
    Gauss-Jordan pivots (Bareiss): `tab` stays an integer multiple `det` of
    B^-1 A, and Fractions are made once, at the end."""
    from fractions import Fraction

    m, n = len(lg), len(x)
    flat, scale = _over_power_of_two([v for row in lg for v in row])
    ilg = [flat[i:i + m] for i in range(0, m * m, m)]
    tab, exact, ex = _start(ilg, int)
    det = 1
    for j in basis:
        if j in exact:
            continue
        r = next((r for r, b in enumerate(exact)
                  if b not in basis and tab[r][j]), None)
        if r is None:
            return _start(ilg, Fraction), scale
        p, prow = tab[r][j], tab[r]
        for k, row in enumerate(tab):
            if k != r:
                f = row[j]
                row[:] = [(p * v - f * w) // det for v, w in zip(row, prow)]
        det = p
        exact[r] = j
    for j in range(n):
        if j not in basis and j != m:   # t keeps its exact start value
            ex[j] = hi[j] if j < m and x[j] > 0 else lo[j]
    for r, b in enumerate(exact):
        ex[b] = Fraction(-sum(tab[r][j] * ex[j] for j in range(n)
                              if j not in basis), det)
        if not lo[b] <= ex[b] <= hi[b]:
            return _start(ilg, Fraction), scale
    tab = [[Fraction(v, det) for v in row] for row in tab]
    return (tab, exact, ex), scale


def _lex_max_min(lg) -> tuple[Fraction, list]:
    """Exact optimum (t, lam) of: maximize t subject to
    sum_i lg[i][j] lam_i + t <= 0 for every j and -1 <= lam_i <= 1, with the
    float entries of lg taken as exact rationals.  Of all optimal lam, the
    lexicographically smallest.

    Variables are lam_1..lam_m, t, and one slack s_j >= 0 a row
    (sum_i lg[i][j] lam_i + t + s_j = 0), so a basis is m x m.  A float
    simplex finds a basis.  The same simplex then runs in exact arithmetic
    from that basis: its basic values were checked against their bounds
    when it was installed, and its first step checks the sign of every
    reduced cost, which certifies the basis optimal or pivots on exactly.
    The tie rule is a second exact phase: each later objective (minimize
    lam_1, then lam_2, ...) may move only the nonbasic variables whose
    reduced costs were zero for every earlier one, so it stays on the
    optimal face.  Entries lam_i are Fractions, or the ints -1 and 1."""
    from fractions import Fraction   # here: 5 ms that other commands skip

    m = len(lg)
    n = 2 * m + 1
    # bounds of lam (the unit box), t and the slacks; the finite ones are
    # ints, so the exact pass computes with no float
    lo = [-1] * m + [-math.inf] + [0] * m
    hi = [1] * m + [math.inf] * (m + 1)
    cost = [int(j == m) for j in range(n)]
    tab, basis, x = _start(lg, float)
    _simplex(tab, basis, x, lo, hi, cost, (), FLOAT_TOL, FLOAT_PIVOTS)

    (tab, basis, x), scale = _exact_state(lg, basis, x, lo, hi)
    fixed: set = set()
    for i in range(-1, m):
        if i >= 0:
            cost = [-int(j == i) for j in range(n)]
        d = _simplex(tab, basis, x, lo, hi, cost, fixed, 0, None)
        fixed |= {j for j in range(n) if d[j] and j not in basis}
        if len(fixed) == n - m:
            break
    return Fraction(x[m], scale), x[:m]


def synthesize(a: SkewMatrix) -> LyapunovCandidate | None:
    """Maximize the smallest slack t of the vertex-gain system over the unit
    box, exactly (see _lex_max_min); returns None when no strictly feasible
    exponents exist (optimum at most MARGIN_TOL, e.g. the zero matrix), a
    candidate with margin > 0 otherwise.  The exponents are the exact
    optimum correctly rounded, the lexicographically smallest when several
    are optimal."""
    _check_entries(a)
    m = a.m
    lg = [[math.log1p(a.rows[i][j]) for j in range(m)] for i in range(m)]
    t, lam = _lex_max_min(lg)
    if t <= MARGIN_TOL:
        return None
    lam = tuple(float(v) for v in lam)
    values = vertex_constraint_values(a, lam)
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
