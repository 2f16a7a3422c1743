"""Quadratic stochastic operators and their Volterra form.

A general operator is given by a heredity tensor p[i][j][k] (probability that
parents of types i,j produce type k); the Volterra subclass (offspring always
repeats a parent) is equivalently a skew-symmetric matrix A with entries in
[-1, 1], acting as x_k -> x_k * (1 + (Ax)_k).

The tensor <-> matrix conversion here is pinned by the tautology
apply_qso(to_tensor(A), x) == apply_volterra(A, x); expanding the quadratic
form gives a[k][i] = p[i][k][k] + p[k][i][k] - 1, and that is what
to_skew_matrix implements.
"""

from __future__ import annotations

import math
from math import fsum
from operator import mul

from .errors import (
    DegenerateFactor,
    DimensionMismatch,
    NonFiniteInput,
    NotVolterra,
    ValidationError,
    WrongDimension,
)
from .simplex import (
    LogSimplexPoint,
    SimplexPoint,
    _normalized_logs,
    _Record,
    _renormalized,
    _trusted,
)

TENSOR_SUM_TOL = 1e-12   # |sum_k p[i][j][k] - 1|
VOLTERRA_TOL = 1e-15     # mass allowed outside parental types
FACTOR_CLAMP = 1e-12     # rounding dust allowed below 0 in a step factor


class SkewMatrix(_Record):
    """Skew-symmetric interaction matrix with entries in [-1, 1].

    Skew-symmetry is required exactly (a[i][j] == -a[j][i] as floats); use
    skewize() to project a nearly-skew array first.
    """

    rows: tuple[tuple[float, ...], ...]

    def __init__(self, rows):
        rows = tuple(tuple(float(v) for v in row) for row in rows)
        object.__setattr__(self, "rows", rows)
        m = len(rows)
        if not 2 <= m <= 4:
            raise WrongDimension(f"m={m} outside supported range 2..4")
        for row in rows:
            if len(row) != m:
                raise WrongDimension("matrix is not square")
        for i in range(m):
            for j in range(m):
                v = rows[i][j]
                if not math.isfinite(v):
                    raise NonFiniteInput(f"entry ({i + 1},{j + 1}) is {v}")
                if abs(v) > 1.0:
                    raise ValidationError(
                        f"entry ({i + 1},{j + 1}) = {v} outside [-1, 1]")
                if v != -rows[j][i]:
                    raise ValidationError(
                        f"entries ({i + 1},{j + 1}) and ({j + 1},{i + 1}) "
                        "are not exact negatives")

    @property
    def m(self) -> int:
        return len(self.rows)

    @classmethod
    def zero(cls, m: int) -> "SkewMatrix":
        return cls(tuple(tuple(0.0 for _ in range(m)) for _ in range(m)))


def skewize(arr) -> SkewMatrix:
    """Project a nearly-skew square array onto exact skew-symmetry,
    (a - a^T)/2, clamping rounding spill just outside [-1, 1]; NaN stays
    NaN, which SkewMatrix rejects."""
    try:
        a = [[float(v) for v in row] for row in arr]
    except TypeError as exc:
        raise WrongDimension("expected a square matrix") from exc
    m = len(a)
    if any(len(row) != m for row in a):
        raise WrongDimension("expected a square matrix")
    out = [[0.0] * m for _ in range(m)]
    for i in range(m):
        for j in range(i + 1, m):
            # v first: max and min return it when it is NaN
            v = min(max((a[i][j] - a[j][i]) / 2.0, -1.0), 1.0)
            out[i][j] = v
            out[j][i] = -v
    return SkewMatrix(out)


class HeredityTensor(_Record):
    """Coefficients p[i][j][k] of a quadratic stochastic operator:
    nonnegative, sum_k p[i][j][k] == 1 for every parent pair (i,j)."""

    p: tuple[tuple[tuple[float, ...], ...], ...]

    def __init__(self, p):
        try:
            p = tuple(tuple(tuple(map(float, row)) for row in plane)
                      for plane in p)
        except TypeError as exc:
            raise WrongDimension("tensor is not m x m x m") from exc
        m = len(p)
        rows = sum(p, ())
        if set(map(len, p)) | set(map(len, rows)) != {m}:
            raise WrongDimension("tensor is not m x m x m")
        if not 2 <= m <= 4:
            raise WrongDimension(f"m={m} outside supported range 2..4")
        values = sum(rows, ())
        if not all(map(math.isfinite, values)):
            raise NonFiniteInput("non-finite tensor entry")
        if min(values) < 0.0:
            raise ValidationError("negative tensor entry")
        if max(abs(math.fsum(row) - 1.0) for row in rows) > TENSOR_SUM_TOL:
            raise ValidationError("tensor rows are not stochastic in k")
        object.__setattr__(self, "p", p)

    @property
    def m(self) -> int:
        return len(self.p)


def apply_qso(t: HeredityTensor, x: SimplexPoint) -> SimplexPoint:
    """One generation: (Vx)_k = sum_ij p[i][j][k] x_i x_j, renormalized."""
    if t.m != x.m:
        raise DimensionMismatch(f"tensor m={t.m}, point m={x.m}")
    xs, m = x.coords, t.m
    return SimplexPoint(_renormalized([math.fsum(
        t.p[i][j][k] * xs[i] * xs[j] for i in range(m) for j in range(m))
        for k in range(m)]))


def is_volterra(t: HeredityTensor, tol: float = VOLTERRA_TOL) -> bool:
    """True iff offspring mass sits on the parental types: p[i][j][k] <= tol
    whenever k is neither i nor j."""
    return all(v <= tol for i, plane in enumerate(t.p)
               for j, row in enumerate(plane)
               for k, v in enumerate(row) if k != i and k != j)


def to_skew_matrix(t: HeredityTensor) -> SkewMatrix:
    """Skew matrix of a Volterra tensor: a[k][i] = p[i][k][k] + p[k][i][k] - 1.

    The exact-skewness projection absorbs up to tensor-tolerance rounding."""
    if not is_volterra(t):
        raise NotVolterra("tensor has offspring mass outside parental types")
    p, m = t.p, t.m
    return skewize([[p[i][k][k] + p[k][i][k] - 1.0 for i in range(m)]
                    for k in range(m)])


def to_tensor(a: SkewMatrix) -> HeredityTensor:
    """Volterra tensor of a skew matrix: p[i][i][i] = 1 and, for i != j,
    p[i][j][i] = (1 + a[i][j]) / 2, p[i][j][j] = (1 + a[j][i]) / 2."""
    m = a.m
    p = [[[0.0] * m for _ in range(m)] for _ in range(m)]
    for i in range(m):
        p[i][i][i] = 1.0
        for j in range(m):
            if i != j:
                p[i][j][i] = (1.0 + a.rows[i][j]) / 2.0
                p[i][j][j] = (1.0 + a.rows[j][i]) / 2.0
    return HeredityTensor(p)


def _clamped(f: float, k: int) -> float:
    """0.0 for rounding dust f < 0 in the step factor of 0-based slot k;
    more below 0 raises DegenerateFactor."""
    if f < -FACTOR_CLAMP:
        raise DegenerateFactor(
            f"step factor {f} at slot {k + 1}; input is corrupted")
    return 0.0


def _image_py(rows, xs) -> list[float]:
    """`raw_volterra_image` on the matrix rows and the point's coordinates:
    the Python backend's image, and the reference of the compiled one."""
    if len(rows) != len(xs):
        raise DimensionMismatch(f"matrix m={len(rows)}, point m={len(xs)}")
    out = []     # a loop: a list comprehension is a nested call before 3.12
    for row, xk in zip(rows, xs):
        f = 1.0 + fsum(map(mul, row, xs))
        if f < 0.0:
            f = _clamped(f, len(out))
        out.append(xk * f)
    return out


def _log_map_py(rows, logs) -> tuple[float, ...]:
    """The log coordinates of `apply_volterra_log` from the matrix rows and
    the point's log coordinates: the Python backend's log map, and the
    reference of the compiled one."""
    if len(rows) != len(logs):
        raise DimensionMismatch(f"matrix m={len(rows)}, point m={len(logs)}")
    from ._kernel_py import DRIFT_TOL, log_step, step_weights

    newlog, drift = log_step(step_weights(rows), [None] * len(logs), logs,
                             list(map(math.exp, logs)))
    # the checks and messages of a one-step kernel run
    if not abs(drift) <= DRIFT_TOL:
        raise DegenerateFactor("log step failed: " + (
            "degenerate" if drift != drift else "breakdown"))
    # every v - drift is a float, none NaN or +inf: the drift would be NaN
    return _normalized_logs([v - drift for v in newlog])


def _step_py(rows, xs) -> tuple[float, ...]:
    """The coordinates of `apply_volterra` from the matrix rows and the
    point's coordinates: the Python backend's step, and the reference of
    the compiled one."""
    return _renormalized(_image_py(rows, xs))


def _bind_backend() -> None:
    """Bind `_image`, `_log_map` and `_step` to the one-step maps of the
    selected kernel backend (see `kernel`), loading it.  A compiled map
    returns None where the Python one, `_image_py`, `_log_map_py` or
    `_step_py`, must run: on arguments that are not exact tuples of floats,
    and wherever the Python one raises or meets a non-finite value."""
    global _image, _log_map, _step
    from .kernel import _image, _log_map, _step


def _image(rows, xs):
    """The backend's image; the first call binds it (`_bind_backend`)."""
    _bind_backend()
    return _image(rows, xs)


def _log_map(rows, logs):
    """The backend's log map; the first call binds it (`_bind_backend`)."""
    _bind_backend()
    return _log_map(rows, logs)


def _step(rows, xs):
    """The backend's step; the first call binds it (`_bind_backend`)."""
    _bind_backend()
    return _step(rows, xs)


def raw_volterra_image(a: SkewMatrix, x: SimplexPoint) -> list[float]:
    """x_k f_k for the step factors f_k = 1 + (Ax)_k, each (Ax)_k the
    `math.fsum` of its products, dust below 0 in f_k clamped to 0.  The
    image's sum is 1 + x^T A x = 1 exactly in real arithmetic
    (skew-symmetry), so the float sum measures rounding.  The selected
    kernel backend computes it, with the same bits under either."""
    rows, xs = a.rows, x.coords
    image = _image(rows, xs)
    return _image_py(rows, xs) if image is None else image


def apply_volterra(a: SkewMatrix, x: SimplexPoint) -> SimplexPoint:
    """One step of x_k -> x_k (1 + (Ax)_k), renormalized: the image of
    `raw_volterra_image`, then `simplex._renormalized`, which the selected
    kernel backend computes in one call, with the same bits under either.
    Zero coordinates stay exactly zero (faces are invariant)."""
    rows, xs = a.rows, x.coords
    coords = _step(rows, xs)
    if coords is None:
        coords = _step_py(rows, xs)
    point = object.__new__(SimplexPoint)    # _trusted, without its call
    point.__dict__["coords"] = coords
    return point


def apply_volterra_log(a: SkewMatrix, x: LogSimplexPoint) -> LogSimplexPoint:
    """One Volterra step on log coordinates; agrees with apply_volterra to
    relative 1e-10 whenever all coordinates are above 1e-100, and keeps exact
    zeros (-inf) exactly.

    This is the trajectory kernel's log-space step, `log_step`, followed by
    the normalization a one-step run applies, then the shift that
    `LogSimplexPoint` stores; the selected kernel backend computes it, and
    both give the same bits, which are those of a one-step run of either.
    The step rewrites the factor 1 + (Ax)_k as sum_i (1 + a[k][i]) x_i: a
    sum of nonnegative terms (|a| <= 1), immune to the cancellation that
    makes 1 + dot(...) collapse to 0 when the true factor is tiny, taken in
    the log domain when even that sum underflows."""
    rows, logs = a.rows, x.log_coords
    out = _log_map(rows, logs)
    return _trusted(LogSimplexPoint,
                    _log_map_py(rows, logs) if out is None else out)


def skew3(a: float, b: float, c: float) -> SkewMatrix:
    """Three-species interaction matrix [[0, a, -b], [-a, 0, c], [b, -c, 0]],
    whose step is (x, y, z) -> (x(1+ay-bz), y(1-ax+cz), z(1+bx-cy))."""
    for v in (a, b, c):
        if not math.isfinite(v) or abs(v) > 1.0:
            raise ValidationError(f"parameter {v} outside [-1, 1]")
    return SkewMatrix(((0.0, a, -b), (-a, 0.0, c), (b, -c, 0.0)))
