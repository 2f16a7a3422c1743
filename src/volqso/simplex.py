"""Points of the probability simplex in linear and log representation.

Coordinates decay like exp(-c*n) along long trajectories, far below the
smallest positive double, so every long-horizon computation in this package
works on log coordinates; exact zeros are kept as -inf and survive iteration
unchanged (boundary faces are invariant sets).

Index convention: arrays are 0-based internally, but coordinate/vertex/face
labels in reports and in `FaceId` are 1-based (x1..x4).
"""

from __future__ import annotations

import math

from .errors import (
    DimensionMismatch,
    IndeterminateForm,
    NegativeCoordinate,
    NonFiniteInput,
    SumNotOne,
    ValidationError,
    WrongDimension,
)

# Module-level tolerances; the CLI config may override the validate() ones.
SUM_TOL = 1e-12           # |sum - 1| after construction
VALIDATE_SUM_TOL = 1e-9   # |sum - 1| accepted on raw input
NEG_CLAMP_TOL = 1e-12     # raw negatives above -this are clamped to 0

# Defaults of ergodic_verdict and verify_along_trajectory, which the CLI
# config may override.  They live in this, the lowest module, because every
# command checks them while parsing its config, before it loads the code
# that runs them.
DELTA_CONV = 1e-3   # trailing oscillation below this: converged at scale
DELTA_OSC = 5e-2    # trailing oscillation above this: oscillating at scale
MIN_VERIFY_STEPS = 1000   # shortest run with a decade window to compare
VERIFY_STEPS = 100_000    # default length of the check along a trajectory
VERIFY_TRANSIENT = 100    # default steps before the first judged decade
VERIFY_STRIDE = 10        # the check traces log F every this many steps

_INF = float("inf")


_NO_DIVIDE_TOL = 4 * 2.220446049250313e-16  # residual reachable by adjustment


def _renormalized(coords) -> tuple[float, ...]:
    """Divide by the sum, then shave the residual off the largest coordinate
    so the float sum is exactly 1 whenever an ulp-level adjustment can do it.
    Idempotent bitwise: ulp-scale residuals never trigger a re-division."""
    s = math.fsum(coords)
    if s == 1.0:
        return tuple(coords)    # what the adjustment below would return
    if s <= 0.0:
        raise SumNotOne(f"coordinate sum {s} is not positive")
    if abs(s - 1.0) > _NO_DIVIDE_TOL:
        coords = [c / s for c in coords]
    else:
        coords = list(coords)
    for _ in range(2):
        r = math.fsum(coords) - 1.0
        if r == 0.0:
            break
        k = max(range(len(coords)), key=coords.__getitem__)
        adjusted = coords[k] - r
        if adjusted == coords[k]:
            break
        coords[k] = adjusted
    return tuple(coords)


def _over_power_of_two(values: list[float]) -> tuple[list[int], int]:
    """Integers n_i and the power of two D with n_i / D == values[i]
    exactly, D the largest denominator of the finite floats `values`."""
    nums, dens = zip(*map(float.as_integer_ratio, values))
    den = max(dens)
    return [u * (den // q) for u, q in zip(nums, dens)], den


def _trusted(cls, value):
    """`cls(value)` for a one-field record (SimplexPoint, SkewMatrix,
    LogSimplexPoint) without re-running its constructor's checks.  Only for
    values built to pass them: a tuple of floats from _renormalized of
    nonnegative finite coordinates, a matrix skew by construction, or log
    coordinates from _normalized_logs."""
    obj = object.__new__(cls)
    object.__setattr__(obj, cls._fields[0], value)
    return obj


class _Record:
    """Base of the package's immutable records.

    A record declares its fields as class annotations, in order; a subclass
    adds its own after its parent's.  This base's __init__ takes every
    field, positionally or by keyword.  A record with defaults, checks or
    conversions, or one built in hot loops, writes its own, which stores
    the fields in `__dict__`.  Equality, hash and repr are field-wise, with
    a frozen dataclass's text and hash; assigning or deleting an attribute
    raises AttributeError.  Nothing is generated when a record class is
    defined, so importing costs nothing beyond the class bodies."""

    _fields: tuple[str, ...] = ()

    def __init_subclass__(cls, **kwargs):
        super().__init_subclass__(**kwargs)
        cls._fields += tuple(cls.__dict__.get("__annotations__", ()))

    def __init__(self, *args, **kwargs):
        fields = self._fields
        values = dict(zip(fields, args), **kwargs)
        # too many, repeated, unknown or missing arguments
        if len(args) + len(kwargs) != len(fields) \
                or values.keys() != set(fields):
            raise TypeError(f"{type(self).__name__}() takes the fields "
                            f"{', '.join(fields)}")
        self.__dict__.update((field, values[field]) for field in fields)

    def _values(self) -> tuple:
        return tuple(map(self.__dict__.__getitem__, self._fields))

    def __eq__(self, other):
        if other.__class__ is self.__class__:
            return self._values() == other._values()
        return NotImplemented

    def __hash__(self):
        return hash(self._values())

    def __repr__(self):
        return f"{type(self).__qualname__}(" + ", ".join(
            f"{field}={value!r}" for field, value
            in zip(self._fields, self._values())) + ")"

    def __setattr__(self, name, value):
        raise AttributeError(f"cannot assign to field {name!r}")

    def __delattr__(self, name):
        raise AttributeError(f"cannot delete field {name!r}")


class SimplexPoint(_Record):
    """Probability vector on S^(m-1); immutable, coordinates sum to 1."""

    coords: tuple[float, ...]

    def __init__(self, coords):
        coords = tuple(float(c) for c in coords)
        object.__setattr__(self, "coords", coords)
        if not 2 <= len(coords) <= 4:
            raise WrongDimension(f"m={len(coords)} outside supported range 2..4")
        for c in coords:
            if not math.isfinite(c):
                raise NonFiniteInput(f"non-finite coordinate {c}")
            if c < 0.0:
                raise NegativeCoordinate(f"negative coordinate {c}")
        if abs(math.fsum(coords) - 1.0) > SUM_TOL:
            raise SumNotOne(f"coordinates sum to {math.fsum(coords)}")

    @property
    def m(self) -> int:
        return len(self.coords)

    @classmethod
    def barycenter(cls, m: int) -> "SimplexPoint":
        return cls(_renormalized([1.0 / m] * m))

    @classmethod
    def vertex(cls, m: int, label: int) -> "SimplexPoint":
        """Vertex e_label, label 1-based."""
        if not 1 <= label <= m:
            raise WrongDimension(f"vertex label {label} outside 1..{m}")
        return cls(tuple(1.0 if i == label - 1 else 0.0 for i in range(m)))

    def to_log(self) -> "LogSimplexPoint":
        return LogSimplexPoint(
            tuple(math.log(c) if c > 0.0 else -_INF for c in self.coords)
        )

    def __iter__(self):
        return iter(self.coords)


def validate(p, *, sum_tol: float = VALIDATE_SUM_TOL,
             neg_tol: float = NEG_CLAMP_TOL) -> SimplexPoint:
    """Check a raw vector, clamp floating-point dust in [-neg_tol, 0) to 0,
    renormalize, and wrap it.

    True negatives cannot arise from forward iteration (the operator is
    forward-invariant in exact arithmetic), so anything below -neg_tol is an
    input error, not noise.
    """
    coords = [float(c) for c in p]
    for c in coords:
        if not math.isfinite(c):
            raise NonFiniteInput(f"non-finite coordinate {c}")
    for i, c in enumerate(coords):
        if c < -neg_tol:
            raise NegativeCoordinate(f"coordinate {i + 1} is {c}")
        if c < 0.0:
            coords[i] = 0.0
    s = math.fsum(coords)
    if abs(s - 1.0) > sum_tol:
        raise SumNotOne(f"coordinates sum to {s}")
    coords = _renormalized(coords)
    if not 2 <= len(coords) <= 4:
        raise WrongDimension(f"m={len(coords)} outside supported range 2..4")
    return _trusted(SimplexPoint, coords)


class LogSimplexPoint(_Record):
    """Simplex point stored as natural logs of the coordinates; -inf encodes
    an exact zero.  Construction normalizes so logsumexp == 0."""

    log_coords: tuple[float, ...]

    def __init__(self, log_coords):
        logs = tuple(float(c) for c in log_coords)
        if not 2 <= len(logs) <= 4:
            raise WrongDimension(f"m={len(logs)} outside supported range 2..4")
        for c in logs:
            if math.isnan(c) or c == _INF:
                raise NonFiniteInput(f"log coordinate {c}")
        object.__setattr__(self, "log_coords", _normalized_logs(logs))

    @property
    def m(self) -> int:
        return len(self.log_coords)

    def to_linear(self) -> SimplexPoint:
        return SimplexPoint(
            _renormalized([math.exp(c) for c in self.log_coords])
        )

    def __iter__(self):
        return iter(self.log_coords)


def _normalized_logs(logs) -> tuple[float, ...]:
    """The float log coordinates `logs`, none NaN or +inf, shifted so that
    their logsumexp is 0, as LogSimplexPoint stores them."""
    lse = log_sum_exp(logs)
    if lse == 0.0:
        return tuple(logs)
    return tuple([c - lse for c in logs])


def log_sum_exp(logs) -> float:
    """logsumexp of a small sequence; -inf entries drop out."""
    mx = max(logs)
    if mx == -_INF:
        raise ValidationError("all log coordinates are -inf")
    s = 0.0
    for c in logs:
        s += math.exp(c - mx)
    return mx + math.log(s)


class FaceId(_Record):
    """Boundary face of the simplex, identified by its support set
    (1-based coordinate labels, e.g. {1,3,4})."""

    support: tuple[int, ...]

    def __init__(self, support):
        labels = tuple(sorted(int(i) for i in support))
        if not labels:
            raise ValidationError("empty face support")
        if len(set(labels)) != len(labels):
            raise ValidationError(f"repeated labels in {labels}")
        if labels[0] < 1:
            raise ValidationError(f"labels must be >= 1, got {labels}")
        object.__setattr__(self, "support", labels)

    @property
    def size(self) -> int:
        return len(self.support)

    def indices(self) -> tuple[int, ...]:
        """0-based coordinate indices."""
        return tuple(i - 1 for i in self.support)


def phi(p: SimplexPoint) -> float:
    """max(x1*x2*x4, x1*x3*x4): the shrinkage observable for 4-species
    dynamics; it vanishes exactly on the union of faces that attracts
    generic trajectories."""
    if p.m != 4:
        raise WrongDimension(f"phi needs m=4, got m={p.m}")
    x1, x2, x3, x4 = p.coords
    return max(x1 * x2 * x4, x1 * x3 * x4)


def log_phi(log_coords) -> float:
    """phi on log coordinates; returns log(phi), possibly -inf."""
    if len(log_coords) != 4:
        raise WrongDimension(f"phi needs m=4, got m={len(log_coords)}")
    l1, l2, l3, l4 = log_coords
    return max(l1 + l2 + l4, l1 + l3 + l4)


def monomial(p: SimplexPoint, exponents) -> float:
    """prod x_i^lam_i, evaluated in log space.

    Zero bases: lam == 0 contributes factor 1; lam > 0 gives 0; lam < 0 gives
    +inf.  A zero base under a positive exponent together with a zero base
    under a negative one is 0*inf and raises IndeterminateForm.
    """
    lams = [float(l) for l in exponents]
    if len(lams) != p.m:
        raise DimensionMismatch(f"{len(lams)} exponents for m={p.m}")
    for l in lams:
        if math.isnan(l):
            raise NonFiniteInput("NaN exponent")
    total = 0.0
    zero_pos = zero_neg = False
    for x, lam in zip(p.coords, lams):
        if lam == 0.0:
            continue
        if x == 0.0:
            if lam > 0.0:
                zero_pos = True
            else:
                zero_neg = True
        else:
            total += lam * math.log(x)
    if zero_pos and zero_neg:
        raise IndeterminateForm("zero coordinate under both signs of exponent")
    if zero_neg:
        return _INF
    if zero_pos:
        return 0.0
    return math.exp(total)
