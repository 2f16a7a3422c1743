"""Seeded generators for starting points and interaction matrices.

"Generic" starting points are random interior points with every coordinate
at least `min_coord`, which keeps them away from the boundary and (almost
surely) off the exceptional invariant curves.

A seed is a non-negative integer of any size.  It seeds NumPy's
SeedSequence (pool of four 32-bit words, entropy the seed's 32-bit
little-endian words) and PCG64 bit generator (128-bit LCG with XSL-RR
output; O'Neill, HMC-CS-2014-0905), whose uniform doubles equal
`numpy.random.default_rng(seed).random(n)` bit for bit.  The selected
kernel backend (see `kernel`, bound at the first draw, so `VOLQSO_KERNEL`
governs it) runs the generator: `_PCG64` here in Python, or its port in
`_kernel.c`, with the same doubles.  Logarithms are libm's `log1p`, so a
seed gives the same starts and matrices on every CPU, under either backend
and with or without NumPy.  An object with a `random(n)` method, such as a
`numpy.random.Generator`, is used as given.
"""

from __future__ import annotations

import math
from operator import index, itemgetter, neg

from .classify import CanonicalParams, matrix_from_canonical
from .errors import ValidationError, WrongDimension
from .qso import SkewMatrix
from .simplex import SimplexPoint, _trusted, validate

_M32 = 0xFFFFFFFF
_M64 = (1 << 64) - 1
_M128 = (1 << 128) - 1
_PCG_MULT = 0x2360ED051FC65DA44385DF649FCCF645


def _hash_constants(value: int, mult: int, count: int) -> list[tuple]:
    """SeedSequence's `count` hash steps: (xor, multiplier) pairs, each
    multiplier the next xor."""
    out = []
    for _ in range(count):
        out.append((value, value * mult & _M32))
        value = out[-1][1]
    return out


def _pool_schedule(n: int) -> tuple[list, list]:
    """SeedSequence's hash steps for n >= 4 entropy words: (xor, mult) for
    each of the four words that fill the pool, then (dst, src, xor, mult)
    for each mix of cell src (a pool word, or a word past the fourth) into
    pool word dst, in order."""
    hashes = _hash_constants(0x43B0D7E5, 0x931E8875, 4 * n)
    mixes = [(dst, src) for src in range(4) for dst in range(4) if src != dst]
    mixes += [(dst, src) for src in range(4, n) for dst in range(4)]
    return hashes[:4], [(dst, src, xor, mult) for (dst, src), (xor, mult)
                        in zip(mixes, hashes[4:])]


# the schedule of every seed of up to 4 words (others are made per seed),
# and the hash steps of PCG64's 8 state words: (pool word, xor, mult)
_POOL_SCHEDULES = {4: _pool_schedule(4)}
_STATE_HASHES = [(i % 4, xor, mult) for i, (xor, mult)
                 in enumerate(_hash_constants(0x8B51F9DD, 0x58F38DED, 8))]


def _skew_rows(m: int) -> tuple:
    """Getters of the rows of an m x m skew matrix from (0.0, v_1, ...,
    v_n, -v_1, ..., -v_n), v its n upper-triangle entries row by row."""
    upper = [(i, j) for i in range(m) for j in range(i + 1, m)]
    where = {}
    for k, (i, j) in enumerate(upper, 1):
        where[i, j] = k
        where[j, i] = len(upper) + k
    return tuple(itemgetter(*(where.get((i, j), 0) for j in range(m)))
                 for i in range(m))


_SKEW_ROWS = {m: _skew_rows(m) for m in (2, 3, 4)}


class _PCG64:
    """`numpy.random.default_rng(seed)`'s stream of uniform doubles, for a
    non-negative int `seed`."""

    def __init__(self, seed: int):
        m32 = _M32
        words = [seed >> s & m32
                 for s in range(0, max(seed.bit_length(), 1), 32)]
        words += [0] * (4 - len(words))
        fill, mixes = (_POOL_SCHEDULES.get(len(words))
                       or _pool_schedule(len(words)))
        # the pool, then the words past the fourth, each mixed in in turn
        cells = []
        for word, (xor, mult) in zip(words, fill):
            v = (word ^ xor) * mult & m32
            cells.append(v ^ v >> 16)
        cells += words[4:]
        for dst, src, xor, mult in mixes:
            v = (cells[src] ^ xor) * mult & m32
            v = (0xCA01F9DD * cells[dst] - 0x4973F715 * (v ^ v >> 16)) & m32
            cells[dst] = v ^ v >> 16
        w = []
        for i, xor, mult in _STATE_HASHES:
            v = (cells[i] ^ xor) * mult & m32
            w.append(v ^ v >> 16)
        w0, w1, w2, w3, w4, w5, w6, w7 = w
        inc = (w4 << 65 | w5 << 97 | w6 << 1 | w7 << 33 | 1) & _M128
        self._inc = inc
        self._state = ((inc + (w0 << 64 | w1 << 96 | w2 | w3 << 32))
                       * _PCG_MULT + inc) & _M128

    def random(self, n: int) -> list[float]:
        """The next `n` uniform doubles in [0, 1), 53 random bits each."""
        out = []
        state, inc = self._state, self._inc
        for _ in range(n):
            state = (state * _PCG_MULT + inc) & _M128
            x = (state >> 64 ^ state) & _M64
            rot = state >> 122
            x = (x >> rot | x << (64 - rot)) & _M64
            out.append((x >> 11) * 2.0 ** -53)
        self._state = state
        return out


def _stream_py(seed: int):
    """The `random(n)` of the generator seeded with the non-negative int
    `seed`: the Python backend's, and the reference of the compiled one."""
    return _PCG64(seed).random


def _bind_backend() -> None:
    """Bind `_stream` to the generator of the selected kernel backend (see
    `kernel`), loading it."""
    global _stream
    from .kernel import _stream


def _stream(seed):
    """The backend's generator; the first call binds it (`_bind_backend`)."""
    _bind_backend()
    return _stream(seed)


def _draws(seed_or_rng):
    """The `random(n)` of `seed_or_rng`, or of the backend's generator
    seeded with it."""
    if hasattr(seed_or_rng, "random"):
        return seed_or_rng.random
    seed = index(seed_or_rng)
    if seed < 0:
        raise ValidationError(f"seed must be non-negative, got {seed}")
    return _stream(seed)


def interior_points(m: int, count: int, seed_or_rng,
                    min_coord: float = 0.01) -> list[SimplexPoint]:
    """Uniformly distributed points of the simplex shrunk so every
    coordinate is >= min_coord (exponential-spacings construction)."""
    if not 0.0 <= min_coord < 1.0 / m:
        raise ValidationError(f"min_coord {min_coord} outside [0, 1/m)")
    random = _draws(seed_or_rng)
    out = []
    scale = 1.0 - m * min_coord
    for _ in range(count):
        e = [-math.log1p(-float(r)) for r in random(m)]
        s = 0.0
        for v in e:     # left to right, as numpy sums so few terms
            s += v
        out.append(validate([scale * (v / s) + min_coord for v in e]))
    return out


def random_skew_matrix(m: int, seed_or_rng) -> SkewMatrix:
    """Skew matrix with i.i.d. uniform [-1, 1) upper-triangle entries, drawn
    row by row."""
    if not 2 <= m <= 4:
        raise WrongDimension(f"m={m} outside supported range 2..4")
    n = m * (m - 1) // 2
    v = [2.0 * float(r) - 1.0 for r in _draws(seed_or_rng)(n)]
    if len(v) != n:
        raise ValueError(f"the generator drew {len(v)} values, not {n}")
    values = [0.0, *v, *map(neg, v)]
    return _trusted(SkewMatrix, tuple([row(values)
                                       for row in _SKEW_ROWS[m]]))


def random_canonical_params(seed_or_rng, low: float = 0.1,
                            high: float = 0.9) -> CanonicalParams:
    """Six canonical parameters i.i.d. uniform in [low, high]."""
    return CanonicalParams(*(low + (high - low) * float(r)
                             for r in _draws(seed_or_rng)(6)))


def random_canonical_matrix(seed_or_rng, low: float = 0.1,
                            high: float = 0.9) -> SkewMatrix:
    return matrix_from_canonical(random_canonical_params(seed_or_rng,
                                                         low, high))
