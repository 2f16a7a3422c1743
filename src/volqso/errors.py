"""Exception hierarchy.

Two branches matter to callers: `ValidationError` (bad input: rejected before
any computation, CLI exit code 2) and `NumericalDiagnostic` (the computation
itself reported a problem, CLI exit code 3).
"""


class VolqsoError(Exception):
    """Base class for all package errors."""


class ValidationError(VolqsoError, ValueError):
    """Input rejected by a precondition check."""


class NegativeCoordinate(ValidationError):
    pass


class SumNotOne(ValidationError):
    pass


class NonFiniteInput(ValidationError):
    pass


class WrongDimension(ValidationError):
    pass


class DimensionMismatch(ValidationError):
    pass


class NotVolterra(ValidationError):
    """Heredity tensor has mass outside the parental types."""


class NotAFixedPoint(ValidationError):
    pass


class NotRepelling(ValidationError):
    pass


class KernelUnavailable(ValidationError, ImportError):
    """VOLQSO_KERNEL names no backend, or forces the compiled one where it
    cannot be built.  Raised while `volqso.kernel` loads, hence also an
    ImportError."""


class TooFewCheckpoints(ValidationError):
    pass


class TooFewSojourns(ValidationError):
    pass


class EpsilonTooLarge(ValidationError):
    """Vertex neighbourhood too wide for the escape-time bound to apply."""


class NumericalDiagnostic(VolqsoError, ArithmeticError):
    """The computation detected a numerical/structural problem."""


class IndeterminateForm(NumericalDiagnostic):
    """Monomial with a zero base under a negative exponent and a zero base
    under a positive exponent at the same time (0 * inf)."""


class DegenerateFactor(NumericalDiagnostic):
    """A Volterra step produced an invalid multiplier; signals corrupted
    input, impossible for a valid skew matrix with |a_ij| <= 1."""


class NumericalBreakdown(NumericalDiagnostic):
    """Log-space normalization drifted beyond tolerance during iteration."""


class SingularEntry(NumericalDiagnostic):
    """Skew-matrix entry of modulus 1 where a strict bound is required."""


class NoCanonicalForm(NumericalDiagnostic):
    """No vertex relabeling brings the matrix to the cyclic sign pattern.
    Surfaced rather than ignored; not expected to occur."""

