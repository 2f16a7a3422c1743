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

A vertex record is closed-form.  At e_l the step factors are the column
f_k = 1 + a_kl, and f_l is exactly 1, because a_ll is +-0.0 in a SkewMatrix;
so the image is e_l itself, and checking that diagonal entry replaces the
residual check.  The vertex points and every support are built once, at
import, and shared: records are immutable.

Every other record is built in one pass from the step factors
f_k = 1 + (Ap)_k: they give the image p_k f_k for the check that p is fixed,
the transverse multipliers (f off the support), and, with the entries of A
and p, the in-face Jacobian restricted to the face's tangent space, entry by
entry, with the same operations as `tangent_restriction` of
`volterra_jacobian` on the face.

All of it is plain Python, so every value is the same on every machine: each
(Ap)_k is the `math.fsum` of its products, as in `raw_volterra_image`, and
each spectrum is computed from the exact integers behind the matrix entries
(`_spectrum`).  A 2x2 spectrum is within about an ulp per part of the exact
eigenvalues of its float matrix, a 3x3 spectrum within a few 1e-16.
"""

from __future__ import annotations

import math
import struct
from math import fsum
from operator import mul, sub
from enum import Enum
from itertools import combinations

from .classify import pfaffian4
from .errors import (
    DimensionMismatch,
    NotAFixedPoint,
    NotRepelling,
    ValidationError,
    WrongDimension,
)
from .qso import SkewMatrix, _clamped
from .simplex import (
    FaceId,
    SimplexPoint,
    _over_power_of_two,
    _Record,
    _renormalized,
    _trusted,
    monomial,
)

FIXED_TOL = 1e-10       # |V(p) - p|_inf for a point to count as fixed
NONHYP_TOL = 1e-9       # multiplier modulus within this of 1: nonhyperbolic
PFAFFIAN_TOL = 1e-12    # |Pf| below this: treat the 4x4 matrix as singular
_INTERIOR_MARGIN = 1e-9  # strict positivity margin for kernel points
_F64, _I64 = struct.Struct("<d"), struct.Struct("<q")
_SIGN = 1 << 63
_ratio = float.as_integer_ratio

Matrix = tuple[tuple[float, ...], ...]

# the support of every face of the 4-simplex, by its 0-based indices, which
# covers the 3-simplex too; by m, the edges and the 3-faces; and by m, for
# each vertex e_l, the point e_l, its support and the (index, label) of
# every other coordinate
_FACES = {idx: _trusted(FaceId, tuple([i + 1 for i in idx]))
          for size in range(1, 5) for idx in combinations(range(4), size)}
_EDGES = {m: tuple(combinations(range(m), 2)) for m in (3, 4)}
_TRIANGLES = {m: tuple(combinations(range(m), 3)) for m in (3, 4)}
_VERTICES = {m: tuple((_trusted(SimplexPoint, tuple([float(k == l)
                                                     for k in range(m)])),
                       _FACES[(l,)],
                       tuple([(k, k + 1) for k in range(m) if k != l]))
                      for l in range(m))
             for m in (3, 4)}


class StabilityType(Enum):
    ATTRACTING = "attracting"
    REPELLING = "repelling"
    SADDLE = "saddle"
    NON_HYPERBOLIC = "non_hyperbolic"


class FixedPointRecord(_Record):
    point: SimplexPoint
    support: FaceId
    # (coordinate label, 1 + (Ap)_k) for each label off the support
    transverse_multipliers: tuple[tuple[int, float], ...]
    # spectrum of the in-face Jacobian on the face's tangent space
    in_face_eigenvalues: tuple[complex, ...]
    stability: StabilityType
    degenerate: bool   # representative of a continuum of fixed points

    def __init__(self, point, support, transverse_multipliers,
                 in_face_eigenvalues, stability, degenerate=False):
        self.__dict__.update(point=point, support=support,
                             transverse_multipliers=transverse_multipliers,
                             in_face_eigenvalues=in_face_eigenvalues,
                             stability=stability, degenerate=degenerate)

    def multiplier_at(self, label: int) -> float:
        for lb, v in self.transverse_multipliers:
            if lb == label:
                return v
        raise KeyError(label)


class FixedPointInventory(_Record):
    records: tuple[FixedPointRecord, ...]
    everywhere_fixed: bool
    degenerate_edges: tuple[FaceId, ...]
    degenerate_faces: tuple[FaceId, ...]
    degenerate_interior: bool

    def __init__(self, records, everywhere_fixed=False, degenerate_edges=(),
                 degenerate_faces=(), degenerate_interior=False):
        self.__dict__.update(records=records,
                             everywhere_fixed=everywhere_fixed,
                             degenerate_edges=degenerate_edges,
                             degenerate_faces=degenerate_faces,
                             degenerate_interior=degenerate_interior)


class RepellerLyapunov(_Record):
    """Monomial exponents taken from a repelling fixed point; the monomial
    tends to 0 along generic trajectories."""

    exponents: tuple[float, ...]

    def value(self, p: SimplexPoint) -> float:
        return monomial(p, self.exponents)


def _step_factors(rows, x) -> list[float]:
    """The step factors 1 + (Ax)_k of the rows of A at x, each (Ax)_k the
    `math.fsum` of its products, as in `raw_volterra_image`."""
    out = []
    for row in rows:
        out.append(1.0 + fsum(map(mul, row, x)))
    return out


def _check_fixed(x, factors) -> None:
    """Raise NotAFixedPoint unless x is fixed, judged on the image x_k f_k
    of its step factors f as `apply_volterra` takes and renormalizes it."""
    image = []
    for xk, f in zip(x, factors):
        if f < 0.0:
            f = _clamped(f, len(image))
        image.append(xk * f)
    residual = max(map(abs, map(sub, _renormalized(image), x)))
    if residual > FIXED_TOL:
        raise NotAFixedPoint(f"|V(p) - p|_inf = {residual:.3e}")


def _jacobian(rows, x, factors) -> Matrix:
    """J_rc = d_rc f_r + x_r s_rc for the square matrix S = rows and its
    step factors f at x."""
    return tuple(tuple((f if c == r else 0.0) + x[r] * s
                       for c, s in enumerate(row))
                 for r, (row, f) in enumerate(zip(rows, factors)))


def volterra_jacobian(a: SkewMatrix, p: SimplexPoint) -> Matrix:
    """The Jacobian of the Volterra step at p, as a tuple of rows."""
    if a.m != p.m:
        raise DimensionMismatch(f"matrix m={a.m}, point m={p.m}")
    return _jacobian(a.rows, p.coords, _step_factors(a.rows, p.coords))


def tangent_restriction(j) -> Matrix:
    """Restrict a column-sum-1 matrix to {sum v = 0} in the basis
    t_c = e_c - e_n: since J t_c stays in the tangent space, the coefficient
    on t_r is simply (J t_c)_r = J[r,c] - J[r,n]."""
    return tuple(tuple(v - row[-1] for v in row[:-1]) for row in j[:-1])


def _quadratic(s: int, d: int, k: int) -> list[complex]:
    """Roots of z^2 - (s / 2**k) z + d / 4**k for integers s and d.  The
    mean, the imaginary part and the larger real root are correctly
    rounded; the smaller real root is the exact product of the roots,
    d / 4**k, over the larger, so nothing cancels."""
    den = 1 << (k + 1)
    disc = s * s - 4 * d
    if disc == 0:
        return [complex(s / den)] * 2
    # r = floor(sqrt|disc| 2**f), 56 bits or more, and its last bit set when
    # the root is inexact: a sum or quotient of r then rounds as the exact
    # value would
    f = max(56 - abs(disc).bit_length() // 2, 0)
    n = abs(disc) << 2 * f
    r = math.isqrt(n)
    inexact = r * r != n
    if disc < 0:
        mean, im = s / den, (r | inexact) / (den << f)
        return [complex(mean, -im), complex(mean, im)]
    big = (((abs(s) << f) + r) | inexact) / (den << f)
    if s < 0:
        big = -big
    num, big_den = big.as_integer_ratio()
    small = d * big_den / (num << 2 * k) if num else 0.0
    return [complex(small), complex(big)]


def _key(x: float) -> int:
    """An integer that orders doubles as their values do, 0.0 and -0.0 at
    0, adjacent doubles at adjacent integers."""
    i = _I64.unpack(_F64.pack(x))[0]
    return i if i >= 0 else -(i + _SIGN)


def _double(key: int) -> float:
    return _F64.unpack(_I64.pack(key if key >= 0 else -key - _SIGN))[0]


def _cubic(m: list[int], k: int) -> list[complex]:
    """Eigenvalues of the 3x3 matrix m / 2**k, m given as 9 integers by rows.

    The characteristic polynomial z^3 - e1 z^2 + e2 z - e3 is exact.  One
    real root is bisected, each sign test exact, first over the doubles and
    then 64 bits further, so that dividing it out leaves a quadratic whose
    coefficients are off by far less than a double's rounding, which keeps
    a close pair of roots of that quadratic accurate.  The quadratic is
    solved by `_quadratic`."""
    m0, m1, m2, m3, m4, m5, m6, m7, m8 = m
    e1 = m0 + m4 + m8
    e2 = m0 * m4 - m1 * m3 + m0 * m8 - m2 * m6 + m4 * m8 - m5 * m7
    e3 = (m0 * (m4 * m8 - m5 * m7) - m1 * (m3 * m8 - m5 * m6)
          + m2 * (m3 * m7 - m4 * m6))

    def value(u: int, j: int) -> int:
        # 8**k 8**j p(u / 2**j), whose sign is that of p(u / 2**j)
        u <<= k
        q = 1 << j
        return ((u - e1 * q) * u + e2 * q * q) * u - e3 * q * q * q

    def bisect(lo: int, hi: int, at) -> tuple[int, int]:
        # p(at(lo)) < 0 < p(at(hi)) with at increasing: adjacent lo, hi
        # keeping the signs, or lo = hi where p is 0
        while hi - lo > 1:
            mid = (lo + hi) // 2
            v = value(*at(mid))
            if v == 0:
                return mid, mid
            lo, hi = (mid, hi) if v < 0 else (lo, mid)
        return lo, hi

    def ratio(key: int) -> tuple[int, int]:
        u, q = _double(key).as_integer_ratio()
        return u, q.bit_length() - 1

    # Cauchy's bound on the roots, with room for rounding: p(-b) < 0 < p(b)
    bound = 2.0 + max(abs(e1) / (1 << k), abs(e2) / (1 << 2 * k),
                      abs(e3) / (1 << 3 * k))
    (u_lo, j_lo), (u_hi, j_hi) = map(ratio, bisect(_key(-bound), _key(bound),
                                                   ratio))
    j = max(j_lo, j_hi) + 64
    u, _ = bisect(u_lo << (j - j_lo), u_hi << (j - j_hi), lambda u: (u, j))

    # z^3 - e1 z^2 + e2 z - e3 = (z - r)(z^2 - s z + d) + rest, r = u / 2**j
    kk = max(k, j)
    s = (e1 << (kk - k)) - (u << (kk - j))
    d = (e2 << 2 * (kk - k)) - ((u * s) << (kk - j))
    return [complex(u / (1 << j)), *_quadratic(s, d, kk)]


def _by_parts(z: complex) -> tuple[float, float]:
    return z.real, z.imag


def _spectrum(t: Matrix) -> tuple[complex, ...]:
    """Eigenvalues of a real n x n matrix, n <= 3, sorted by real then
    imaginary part (see `_eigenvalues`)."""
    return _eigenvalues([v for row in t for v in row], len(t))


def _eigenvalues(flat: list[float], n: int) -> tuple[complex, ...]:
    """Eigenvalues of the real n x n matrix with the n*n entries `flat`, by
    rows, n <= 3, sorted by real then imaginary part.  The entries are put
    over one power-of-two denominator 2**k, which makes every step after
    that integer arithmetic until the last rounding: no result depends on
    summation order or BLAS."""
    if n == 1:
        return (complex(flat[0]),)
    if n == 2:
        # _over_power_of_two, unrolled for four entries
        (a, qa), (b, qb), (c, qc), (d, qd) = map(_ratio, flat)
        den = max(qa, qb, qc, qd)
        a *= den // qa
        b *= den // qb
        c *= den // qc
        d *= den // qd
        z, w = _quadratic(a + d, a * d - b * c, den.bit_length() - 1)
        if w.real < z.real or w.real == z.real and w.imag < z.imag:
            return w, z
        return z, w
    m, den = _over_power_of_two(flat)
    return tuple(sorted(_cubic(m, den.bit_length() - 1), key=_by_parts))


def _classify_moduli(moduli) -> StabilityType:
    for v in moduli:
        if abs(v - 1.0) <= NONHYP_TOL:
            return StabilityType.NON_HYPERBOLIC
    if min(moduli) > 1.0:
        return StabilityType.REPELLING
    if max(moduli) < 1.0:
        return StabilityType.ATTRACTING
    return StabilityType.SADDLE


def jacobian_spectrum(a: SkewMatrix, p: SimplexPoint) -> tuple[complex, ...]:
    """Multipliers of the linearization at a fixed point, on the tangent
    space of the simplex (m-1 values, sorted by real then imaginary part)."""
    if a.m != p.m:
        raise DimensionMismatch(f"matrix m={a.m}, point m={p.m}")
    x = p.coords
    factors = _step_factors(a.rows, x)
    _check_fixed(x, factors)
    return _spectrum(tangent_restriction(_jacobian(a.rows, x, factors)))


def _record(rows, x, idx, degenerate: bool = False) -> FixedPointRecord:
    """The record of the fixed point with coordinates x, a tuple from
    `_renormalized`, of the matrix `rows` on the face with the 0-based
    indices idx, a tuple of two or more, from the step factors f at x: the
    transverse multipliers are f off the face, and the in-face Jacobian on
    the face's tangent space is t_rc = J[r][c] - J[r][last] with
    J[r][c] = (f_r if c == r else 0.0) + x_r a_rc, r and c in the face.  x
    must pass the residual check."""
    factors = _step_factors(rows, x)
    _check_fixed(x, factors)
    *head, last = idx
    tangent = []
    for r in head:
        row, xr, fr = rows[r], x[r], factors[r]
        jl = 0.0 + xr * row[last]
        for c in head:
            tangent.append(((fr if c == r else 0.0) + xr * row[c]) - jl)
    in_face = _eigenvalues(tangent, len(head))
    transverse = []
    moduli = [abs(z) for z in in_face]
    for k, f in enumerate(factors):
        if k not in idx:
            transverse.append((k + 1, f))
            moduli.append(abs(f))
    return FixedPointRecord(_trusted(SimplexPoint, x), _FACES[idx],
                            tuple(transverse), in_face,
                            _classify_moduli(moduli), degenerate)


def _face_record(rows, m: int, idx, q) -> FixedPointRecord:
    """The record of the interior fixed point of the 3-face with 0-based
    indices idx, q its kernel direction with every entry > 0."""
    s = fsum(q)
    coords = [0.0] * m
    for pos, t in zip(idx, q):
        coords[pos] = t / s
    return _record(rows, _renormalized(coords), idx)


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
    rows = a.rows
    i, j, k = idx = face.indices()
    u, v, w = rows[i][j], rows[i][k], rows[j][k]
    if w > 0.0 and v < 0.0 and u > 0.0:
        return _face_record(rows, a.m, idx, (w, -v, u))
    if w < 0.0 and v > 0.0 and u < 0.0:
        return _face_record(rows, a.m, idx, (-w, v, -u))
    return None


def _continuum_record(rows, m: int, idx) -> FixedPointRecord:
    """A face made of fixed points, its 0-based indices idx, represented by
    its barycenter."""
    coords = [0.0] * m
    for pos in idx:
        coords[pos] = 1.0 / len(idx)
    return _record(rows, _renormalized(coords), idx, degenerate=True)


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
    x = _renormalized([q + t * w for q, w in zip(p, d)])
    try:
        return _record(a.rows, x, (0, 1, 2, 3), degenerate=True)
    except NotAFixedPoint:
        return None


def all_fixed_points(a: SkewMatrix) -> FixedPointInventory:
    """Vertices, edge continua, face-interior points and interior kernel
    points, each with its linearized type."""
    m, rows = a.m, a.rows
    if m not in (3, 4):
        raise WrongDimension(f"m={m} not supported")
    records = []
    for l, (point, support, others) in enumerate(_VERTICES[m]):
        # the step factor at l is 1.0 + a[l][l]: exactly 1, and the image
        # e_l itself, when a[l][l] is +-0.0
        if rows[l][l]:
            raise NotAFixedPoint(
                f"a[{l + 1}][{l + 1}] = {rows[l][l]!r}, not +-0.0: "
                f"vertex {l + 1} cannot be checked")
        transverse = []
        moduli = []     # each f >= 0, as every entry is >= -1
        for k, label in others:
            f = 1.0 + rows[k][l]
            transverse.append((label, f))
            moduli.append(f)
        records.append(FixedPointRecord(point, support, tuple(transverse),
                                        (), _classify_moduli(moduli)))
    if not any(map(any, rows)):     # every entry 0.0 or -0.0
        return FixedPointInventory(records=tuple(records),
                                   everywhere_fixed=True)

    degenerate_edges = []
    for i, j in _EDGES[m]:
        if rows[i][j] == 0.0:
            records.append(_continuum_record(rows, m, (i, j)))
            degenerate_edges.append(records[-1].support)

    degenerate_faces = []
    for idx in _TRIANGLES[m]:
        i, j, k = idx
        u, v, w = rows[i][j], rows[i][k], rows[j][k]
        if w > 0.0 and v < 0.0 and u > 0.0:
            records.append(_face_record(rows, m, idx, (w, -v, u)))
        elif w < 0.0 and v > 0.0 and u < 0.0:
            records.append(_face_record(rows, m, idx, (-w, v, -u)))
        elif u == 0.0 and v == 0.0 and w == 0.0:
            records.append(_continuum_record(rows, m, idx))
            degenerate_faces.append(records[-1].support)

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
