"""Monomial Lyapunov functions by linear feasibility.

F(x) = prod x_i^lam_i satisfies F(Vx) = F(x) G(x) with
G(x) = prod (1 + (Ax)_i)^lam_i.  If G < 1 at every vertex then F -> 0 along
generic trajectories, so exponents are synthesized from the strict system

    sum_i lam_i log(1 + a[i][j]) < 0        for every vertex j.

This vertex-gain form is used directly (it is unambiguous about index
order); by skew-symmetry log(1 + a[i][j]) = -b[j][i] with
b[i][j] = -log(1 - a[i][j]), which ties it to the log-gain matrix B.
The system is homogeneous, so exponents are confined to the unit box and the
smallest constraint slack is maximized; the returned margin and gains are
always recomputed from the exponents, not trusted from the solver.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from enum import Enum

from .errors import InfeasibleNumerics, SingularEntry, ValidationError
from .ergodic import (
    MonomialObservable,
    TrajectoryConfig,
    decade_windows,
    run_trajectory,
)
from .qso import SkewMatrix
from .simplex import SimplexPoint

MARGIN_TOL = 1e-9     # solver optimum below this: report infeasible
LAMBDA_BOUND = 1.0
MIN_VERIFY_STEPS = 1000   # shortest run with a decade window to compare
VERIFY_STEPS = 100_000    # default length of the check along a trajectory
VERIFY_TRANSIENT = 100    # default steps before the first judged decade
VERIFY_STRIDE = 10        # the check traces log F every this many steps


@dataclass(frozen=True)
class LogGainMatrix:
    """b[i][j] = -log(1 - a[i][j]); finite exactly when |a[i][j]| < 1."""

    b: tuple[tuple[float, ...], ...]

    @property
    def m(self) -> int:
        return len(self.b)

    def as_array(self) -> np.ndarray:
        import numpy as np

        return np.array(self.b)


@dataclass(frozen=True)
class LyapunovCandidate:
    """Exponent vector with its recomputed feasibility margin
    (min over vertices of -log G(e_j)) and the four vertex gains G(e_j)."""

    exponents: tuple[float, ...]
    margin: float
    vertex_gains: tuple[float, ...]


class DecayVerdict(Enum):
    DECAYING = "decaying"
    NOT_DECAYING = "not_decaying"


@dataclass(frozen=True)
class DecayReport:
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


def synthesize(a: SkewMatrix) -> LyapunovCandidate | None:
    """Maximize the smallest slack t of the vertex-gain system over the unit
    box; returns None when no strictly feasible exponents exist (optimum 0,
    e.g. the zero matrix), a candidate with margin > 0 otherwise."""
    import numpy as np
    from scipy.optimize import linprog

    _check_entries(a)
    m = a.m
    # variables (lam_1..lam_m, t); constraint j: sum_i L[i][j] lam_i + t <= 0
    lg = [[math.log1p(a.rows[i][j]) for j in range(m)] for i in range(m)]
    a_ub = np.zeros((m, m + 1))
    for j in range(m):
        for i in range(m):
            a_ub[j, i] = lg[i][j]
        a_ub[j, m] = 1.0
    c = np.zeros(m + 1)
    c[m] = -1.0
    bounds = [(-LAMBDA_BOUND, LAMBDA_BOUND)] * m + [(None, None)]
    res = linprog(c, A_ub=a_ub, b_ub=np.zeros(m), bounds=bounds,
                  method="highs")
    if not res.success:
        raise InfeasibleNumerics(f"feasibility solve failed: {res.message}")
    if res.x[m] <= MARGIN_TOL:
        return None
    lam = tuple(float(v) for v in res.x[:m])
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
