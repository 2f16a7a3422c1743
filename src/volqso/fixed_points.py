"""Fixed points of a Volterra operator and their linearized type.

Vertices are always fixed.  A size-3 face carries an interior fixed point
exactly when the kernel direction (w, -v, u) of its restricted skew matrix
[[0,u,v],[-u,0,w],[-v,-w,0]] has one strict sign; an edge consists of fixed
points exactly when its skew entry vanishes (then the whole edge is fixed,
reported as a degenerate continuum with its midpoint as representative); for
m=4 an interior fixed point requires a singular matrix (Pfaffian ~ 0), again
a continuum.

The Jacobian of x_k -> x_k (1 + (Ax)_k) is J_kl = d_kl (1 + (Ap)_k) + p_k a_kl;
its column sums are all 1, so it preserves the tangent space {sum v = 0} and
the spectrum is taken there (the sum direction's eigenvalue 1 is excluded).
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from enum import Enum
from itertools import combinations

from .classify import pfaffian4
from .errors import (
    NotAFixedPoint,
    NotRepelling,
    ValidationError,
    WrongDimension,
)
from .qso import SkewMatrix, apply_volterra
from .simplex import FaceId, SimplexPoint, monomial, _renormalized

FIXED_TOL = 1e-10       # |V(p) - p|_inf for a point to count as fixed
NONHYP_TOL = 1e-9       # multiplier modulus within this of 1: nonhyperbolic
PFAFFIAN_TOL = 1e-12    # |Pf| below this: treat the 4x4 matrix as singular
_INTERIOR_MARGIN = 1e-9  # strict positivity margin for kernel points


class StabilityType(Enum):
    ATTRACTING = "attracting"
    REPELLING = "repelling"
    SADDLE = "saddle"
    NON_HYPERBOLIC = "non_hyperbolic"


@dataclass(frozen=True)
class FixedPointRecord:
    point: SimplexPoint
    support: FaceId
    # (coordinate label, 1 + (Ap)_k) for each label off the support
    transverse_multipliers: tuple[tuple[int, float], ...]
    # spectrum of the in-face Jacobian on the face's tangent space
    in_face_eigenvalues: tuple[complex, ...]
    stability: StabilityType
    degenerate: bool = False   # representative of a continuum of fixed points

    def multiplier_at(self, label: int) -> float:
        for lb, v in self.transverse_multipliers:
            if lb == label:
                return v
        raise KeyError(label)


@dataclass(frozen=True)
class FixedPointInventory:
    records: tuple[FixedPointRecord, ...]
    everywhere_fixed: bool = False
    degenerate_edges: tuple[FaceId, ...] = ()
    degenerate_faces: tuple[FaceId, ...] = ()
    degenerate_interior: bool = False


@dataclass(frozen=True)
class RepellerLyapunov:
    """Monomial exponents taken from a repelling fixed point; the monomial
    tends to 0 along generic trajectories."""

    exponents: tuple[float, ...]

    def value(self, p: SimplexPoint) -> float:
        return monomial(p, self.exponents)


def volterra_jacobian(a: SkewMatrix, p: SimplexPoint) -> np.ndarray:
    import numpy as np

    if a.m != p.m:
        raise WrongDimension(f"matrix m={a.m}, point m={p.m}")
    arr = a.as_array()
    x = np.array(p.coords)
    return np.diag(1.0 + arr @ x) + x[:, None] * arr


def tangent_restriction(j: np.ndarray) -> np.ndarray:
    """Restrict a column-sum-1 matrix to {sum v = 0} in the basis
    t_c = e_c - e_n: since J t_c stays in the tangent space, the coefficient
    on t_r is simply (J t_c)_r = J[r,c] - J[r,n]."""
    return j[:-1, :-1] - j[:-1, -1:]


def _sorted_eigs(mat: np.ndarray) -> tuple[complex, ...]:
    import numpy as np

    eigs = [complex(z) for z in np.linalg.eigvals(mat)]
    return tuple(sorted(eigs, key=lambda z: (z.real, z.imag)))


def _classify_moduli(moduli) -> StabilityType:
    if any(abs(v - 1.0) <= NONHYP_TOL for v in moduli):
        return StabilityType.NON_HYPERBOLIC
    if all(v > 1.0 for v in moduli):
        return StabilityType.REPELLING
    if all(v < 1.0 for v in moduli):
        return StabilityType.ATTRACTING
    return StabilityType.SADDLE


def _check_fixed(a: SkewMatrix, p: SimplexPoint) -> None:
    image = apply_volterra(a, p)
    residual = max(abs(u - v) for u, v in zip(image.coords, p.coords))
    if residual > FIXED_TOL:
        raise NotAFixedPoint(f"|V(p) - p|_inf = {residual:.3e}")


def jacobian_spectrum(a: SkewMatrix, p: SimplexPoint) -> tuple[complex, ...]:
    """Multipliers of the linearization at a fixed point, on the tangent
    space of the simplex (m-1 values, sorted by real then imaginary part)."""
    _check_fixed(a, p)
    return _sorted_eigs(tangent_restriction(volterra_jacobian(a, p)))


def _record_for(a: SkewMatrix, point: SimplexPoint, support: FaceId,
                degenerate: bool = False) -> FixedPointRecord:
    import numpy as np

    m = a.m
    _check_fixed(a, point)
    arr = a.as_array()
    x = np.array(point.coords)
    ap = arr @ x
    idx = support.indices()
    idx_set = set(idx)
    transverse = tuple(
        (k + 1, float(1.0 + ap[k])) for k in range(m) if k not in idx_set)
    if len(idx) >= 2:
        sub = arr[np.ix_(idx, idx)]
        q = x[list(idx)]
        jf = np.diag(1.0 + sub @ q) + q[:, None] * sub
        in_face = _sorted_eigs(tangent_restriction(jf))
    else:
        in_face = ()
    moduli = [abs(z) for z in in_face] + [abs(v) for _, v in transverse]
    return FixedPointRecord(
        point=point,
        support=support,
        transverse_multipliers=transverse,
        in_face_eigenvalues=in_face,
        stability=_classify_moduli(moduli),
        degenerate=degenerate,
    )


def face_fixed_point(a: SkewMatrix, face: FaceId) -> FixedPointRecord | None:
    """Interior fixed point of a size-3 face, if any.

    The restriction to the face is the skew matrix [[0,u,v],[-u,0,w],
    [-v,-w,0]]; its kernel direction is (w, -v, u), and the face holds an
    interior fixed point iff that vector has one strict sign.
    """
    if a.m not in (3, 4):
        raise WrongDimension(f"m={a.m} not supported")
    if face.size != 3:
        raise ValidationError(f"face {face.support} is not a 3-face")
    if face.support[-1] > a.m:
        raise WrongDimension(f"face {face.support} outside 1..{a.m}")
    i, j, k = face.indices()
    u = a.rows[i][j]
    v = a.rows[i][k]
    w = a.rows[j][k]
    kern = (w, -v, u)
    if all(t > 0.0 for t in kern):
        q = kern
    elif all(t < 0.0 for t in kern):
        q = tuple(-t for t in kern)
    else:
        return None
    s = math.fsum(q)
    coords = [0.0] * a.m
    for pos, t in zip((i, j, k), q):
        coords[pos] = t / s
    point = SimplexPoint(_renormalized(coords))
    return _record_for(a, point, face)


def _continuum_record(a: SkewMatrix, face: FaceId) -> FixedPointRecord:
    """A face made of fixed points, represented by its barycenter."""
    coords = [0.0] * a.m
    for pos in face.indices():
        coords[pos] = 1.0 / face.size
    return _record_for(a, SimplexPoint(_renormalized(coords)), face,
                       degenerate=True)


def _interior_kernel_record(a: SkewMatrix) -> FixedPointRecord | None:
    """Interior fixed point of a singular 4x4 matrix: the rows of the dual
    matrix D (A D = -Pf(A) I) span the kernel, whose sum-1 points form a line
    p + t d; the centre of the segment maximizing min_i x_i represents it."""
    (_, a12, a13, a14), (_, _, a23, a24), (_, _, _, a34) = a.rows[:3]
    dual = ((0.0, a34, -a24, a23), (-a34, 0.0, a14, -a13),
            (a24, -a14, 0.0, a12), (-a23, a13, -a12, 0.0))
    sums = [math.fsum(row) for row in dual]
    k = max(range(4), key=lambda j: abs(sums[j]))
    if sums[k] == 0.0:
        return None         # no kernel vector sums to 1
    p = [v / sums[k] for v in dual[k]]
    # sums[k] (row j - sums[j] p), undivided so that exact zeros stay 0.0
    d = max(([sums[k] * v - s * w for v, w in zip(dual[j], dual[k])]
             for j, s in enumerate(sums) if j != k),
            key=lambda w: math.fsum(v * v for v in w))
    pairs = [(i, j) for i in range(4) for j in range(4) if d[i] > 0.0 > d[j]]
    t, best = 0.0, min(p)   # no such pair: d = 0, the line is the point p
    if pairs:
        # the lowest crossing of a rising and a falling coordinate, or of a
        # constant one (t None): then the maximum is flat; take its centre
        best, t = min([(p[i], None) for i in range(4) if d[i] == 0.0] + [
            ((p[j] * d[i] - p[i] * d[j]) / (d[i] - d[j]),
             (p[j] - p[i]) / (d[i] - d[j])) for i, j in pairs],
            key=lambda peak: (peak[0], peak[1] is None))
        if t is None:
            t = 0.5 * (max((best - p[i]) / d[i] for i, _ in pairs)
                       + min((best - p[j]) / d[j] for _, j in pairs))
    if best <= _INTERIOR_MARGIN:
        return None
    point = SimplexPoint(_renormalized([q + t * w for q, w in zip(p, d)]))
    try:
        return _record_for(a, point, FaceId((1, 2, 3, 4)), degenerate=True)
    except NotAFixedPoint:
        return None


def all_fixed_points(a: SkewMatrix) -> FixedPointInventory:
    """Vertices, edge continua, face-interior points and interior kernel
    points, each with its linearized type."""
    m = a.m
    if m not in (3, 4):
        raise WrongDimension(f"m={m} not supported")
    records = [_record_for(a, SimplexPoint.vertex(m, label), FaceId((label,)))
               for label in range(1, m + 1)]
    if all(v == 0.0 for row in a.rows for v in row):
        return FixedPointInventory(records=tuple(records),
                                   everywhere_fixed=True)

    degenerate_edges = []
    for i, j in combinations(range(m), 2):
        if a.rows[i][j] == 0.0:
            degenerate_edges.append(FaceId((i + 1, j + 1)))
            records.append(_continuum_record(a, degenerate_edges[-1]))

    degenerate_faces = []
    for combo in combinations(range(m), 3):
        face = FaceId(tuple(i + 1 for i in combo))
        i, j, k = combo
        if (a.rows[i][j] == 0.0 and a.rows[i][k] == 0.0
                and a.rows[j][k] == 0.0):
            degenerate_faces.append(face)
            records.append(_continuum_record(a, face))
            continue
        rec = face_fixed_point(a, face)
        if rec is not None:
            records.append(rec)

    degenerate_interior = False
    if m == 4 and abs(pfaffian4(a)) <= PFAFFIAN_TOL:
        rec = _interior_kernel_record(a)
        if rec is not None:
            degenerate_interior = True
            records.append(rec)

    return FixedPointInventory(
        records=tuple(records),
        degenerate_edges=tuple(degenerate_edges),
        degenerate_faces=tuple(degenerate_faces),
        degenerate_interior=degenerate_interior,
    )


def lyapunov_from_repeller(rec: FixedPointRecord) -> RepellerLyapunov:
    """Monomial with exponents equal to the repelling point's coordinates;
    zero exponents off the support, exponents sum to 1."""
    if rec.stability != StabilityType.REPELLING:
        raise NotRepelling(f"fixed point is {rec.stability.value}")
    return RepellerLyapunov(exponents=rec.point.coords)
