"""Three-way classification of 4x4 Volterra interaction matrices.

Class 1: some row is entrywise nonnegative (that species never loses share);
class 2: no such row, but some row is entrywise nonpositive; class 3: the
rest, which a relabeling of the four species brings to the cyclic sign
pattern

    (  0    a12   a13  -a14 )
    ( -a12   0    a23   a24 )
    ( -a13  -a23   0    a34 )
    (  a14  -a24  -a34   0  )

with all six parameters nonnegative.  The scalar
I = -a12*a34 + a13*a24 + a14*a23 (minus the Pfaffian of the canonical
matrix) decides which of the two face fixed points repels.

Zero entries match either sign; the zero row counts as class 1.  The search
over the 24 relabelings is exhaustive, and a miss raises NoCanonicalForm
rather than being ignored (no example is known).
"""

from __future__ import annotations

from enum import IntEnum
from itertools import permutations

from .errors import NoCanonicalForm, ValidationError, WrongDimension
from .qso import SkewMatrix
from .simplex import _Record

PARAM_NAMES = ("a12", "a13", "a14", "a23", "a24", "a34")


class VolterraClass(IntEnum):
    DOMINANT_ROW = 1     # a row with all entries >= 0
    DOMINATED_ROW = 2    # no such row; a row with all entries <= 0
    CYCLIC = 3           # reducible to the canonical sign pattern


class CanonicalParams(_Record):
    """The six nonnegative parameters of the canonical sign pattern."""

    a12: float
    a13: float
    a14: float
    a23: float
    a24: float
    a34: float

    def __init__(self, a12, a13, a14, a23, a24, a34):
        for name, v in zip(PARAM_NAMES, (a12, a13, a14, a23, a24, a34)):
            v = float(v) + 0.0   # normalizes -0.0
            if v < 0.0:
                raise ValidationError(f"{name} = {v} is negative")
            object.__setattr__(self, name, v)

    def as_tuple(self) -> tuple[float, ...]:
        return (self.a12, self.a13, self.a14, self.a23, self.a24, self.a34)


def matrix_from_canonical(params) -> SkewMatrix:
    """Assemble the canonical-sign-pattern matrix from six parameters."""
    p = params if isinstance(params, CanonicalParams) \
        else CanonicalParams(*params)
    return SkewMatrix((
        (0.0, p.a12, p.a13, -p.a14),
        (-p.a12, 0.0, p.a23, p.a24),
        (-p.a13, -p.a23, 0.0, p.a34),
        (p.a14, -p.a24, -p.a34, 0.0),
    ))


def invariant_i(params) -> float:
    """I = -a12*a34 + a13*a24 + a14*a23."""
    p = params if isinstance(params, CanonicalParams) \
        else CanonicalParams(*params)
    return -p.a12 * p.a34 + p.a13 * p.a24 + p.a14 * p.a23


def pfaffian4(a: SkewMatrix) -> float:
    """Pfaffian of a 4x4 skew matrix: a12*a34 - a13*a24 + a14*a23 (entries).
    Zero exactly when the matrix is singular (even rank drops to 2)."""
    if a.m != 4:
        raise WrongDimension(f"pfaffian4 needs m=4, got m={a.m}")
    r = a.rows
    return r[0][1] * r[2][3] - r[0][2] * r[1][3] + r[0][3] * r[1][2]


class ClassReport(_Record):
    volterra_class: VolterraClass
    witness_row: int | None                  # 1-based, classes 1/2
    permutation: tuple[int, ...] | None      # class 3; see classify()
    canonical_params: CanonicalParams | None
    invariant: float | None

    def __init__(self, volterra_class, witness_row=None, permutation=None,
                 canonical_params=None, invariant=None):
        self.__dict__.update(volterra_class=volterra_class,
                             witness_row=witness_row, permutation=permutation,
                             canonical_params=canonical_params,
                             invariant=invariant)


_SIGN_PATTERN = (
    # (row, col, +1 for >= 0, -1 for <= 0) over the upper triangle
    (0, 1, +1), (0, 2, +1), (0, 3, -1),
    (1, 2, +1), (1, 3, +1),
    (2, 3, +1),
)


def classify(a: SkewMatrix) -> ClassReport:
    """Classify a 4x4 skew matrix; deterministic tie-breaking (lowest witness
    row, lexicographically smallest relabeling).

    For class 3 the report carries `permutation`, 1-based original labels in
    canonical order: canonical[r][c] == a[perm[r]-1][perm[c]-1].
    """
    if a.m != 4:
        raise WrongDimension(f"classification needs m=4, got m={a.m}")
    rows = a.rows
    for i in range(4):
        if all(v >= 0.0 for v in rows[i]):
            return ClassReport(VolterraClass.DOMINANT_ROW, witness_row=i + 1)
    for i in range(4):
        if all(v <= 0.0 for v in rows[i]):
            return ClassReport(VolterraClass.DOMINATED_ROW, witness_row=i + 1)
    for perm in permutations(range(4)):
        ok = True
        for r, c, sign in _SIGN_PATTERN:
            v = rows[perm[r]][perm[c]]
            if sign > 0:
                if v < 0.0:
                    ok = False
                    break
            elif v > 0.0:
                ok = False
                break
        if ok:
            b = [[rows[p][q] for q in perm] for p in perm]
            params = CanonicalParams(
                b[0][1], b[0][2], -b[0][3], b[1][2], b[1][3], b[2][3])
            return ClassReport(
                VolterraClass.CYCLIC,
                permutation=tuple(p + 1 for p in perm),
                canonical_params=params,
                invariant=invariant_i(params),
            )
    raise NoCanonicalForm(
        "no relabeling matches the cyclic sign pattern")
