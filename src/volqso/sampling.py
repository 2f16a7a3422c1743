"""Seeded generators for starting points and interaction matrices.

"Generic" starting points are random interior points with every coordinate
at least `min_coord`, which keeps them away from the boundary and (almost
surely) off the exceptional invariant curves.
"""

from __future__ import annotations

from .classify import CanonicalParams, matrix_from_canonical
from .errors import ValidationError, WrongDimension
from .qso import SkewMatrix
from .simplex import SimplexPoint, _trusted, validate


def _as_rng(seed_or_rng) -> np.random.Generator:
    import numpy as np

    if isinstance(seed_or_rng, np.random.Generator):
        return seed_or_rng
    return np.random.default_rng(seed_or_rng)


def interior_points(m: int, count: int, seed_or_rng,
                    min_coord: float = 0.01) -> list[SimplexPoint]:
    """Uniformly distributed points of the simplex shrunk so every
    coordinate is >= min_coord (exponential-spacings construction)."""
    import numpy as np

    if not 0.0 <= min_coord < 1.0 / m:
        raise ValidationError(f"min_coord {min_coord} outside [0, 1/m)")
    rng = _as_rng(seed_or_rng)
    out = []
    scale = 1.0 - m * min_coord
    for _ in range(count):
        e = -np.log1p(-rng.random(m))
        u = e / e.sum()
        out.append(validate(scale * u + min_coord))
    return out


def random_skew_matrix(m: int, seed_or_rng) -> SkewMatrix:
    """Skew matrix with i.i.d. uniform [-1, 1) upper-triangle entries, drawn
    row by row."""
    if not 2 <= m <= 4:
        raise WrongDimension(f"m={m} outside supported range 2..4")
    rng = _as_rng(seed_or_rng)
    upper = iter(rng.random(m * (m - 1) // 2).tolist())
    rows = [[0.0] * m for _ in range(m)]
    for i in range(m):
        for j in range(i + 1, m):
            v = 2.0 * next(upper) - 1.0
            rows[i][j] = v
            rows[j][i] = -v
    return _trusted(SkewMatrix, tuple(map(tuple, rows)))


def random_canonical_params(seed_or_rng, low: float = 0.1,
                            high: float = 0.9) -> CanonicalParams:
    """Six canonical parameters i.i.d. uniform in [low, high]."""
    rng = _as_rng(seed_or_rng)
    vals = [float(low + (high - low) * rng.random()) for _ in range(6)]
    return CanonicalParams(*vals)


def random_canonical_matrix(seed_or_rng, low: float = 0.1,
                            high: float = 0.9) -> SkewMatrix:
    return matrix_from_canonical(random_canonical_params(seed_or_rng,
                                                         low, high))
