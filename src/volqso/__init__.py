"""Volterra quadratic stochastic operators on the 2- and 3-dimensional
simplex: operator evaluation, classification of 4x4 interaction matrices,
fixed-point inventories, monomial Lyapunov synthesis, and long-horizon
ergodicity diagnostics.

numpy is imported inside the functions that use it, so `import volqso`
does not load it: `classify`, `lyapunov` and `simulate` on explicit starts
run without it.  scipy is not used."""

from .classify import (
    CanonicalParams,
    ClassReport,
    VolterraClass,
    classify,
    invariant_i,
    matrix_from_canonical,
    pfaffian4,
)
from .ergodic import (
    CesaroSeries,
    CoordinateObservable,
    ErgodicVerdict,
    MonomialObservable,
    SojournEvent,
    SojournTable,
    TrajectoryConfig,
    TrajectoryResult,
    Verdict,
    c_abs,
    coordinate_observables,
    decade_windows,
    dyadic_checkpoints,
    ergodic_verdict,
    escape_bound,
    outside_fraction_trend,
    route_check,
    run_ensemble,
    run_trajectory,
    sojourn_growth,
)
from .fixed_points import (
    FixedPointInventory,
    FixedPointRecord,
    RepellerLyapunov,
    StabilityType,
    all_fixed_points,
    face_fixed_point,
    jacobian_spectrum,
    lyapunov_from_repeller,
    volterra_jacobian,
)
from .kernel import BACKEND, available_backends
from .lyapunov import (
    DecayReport,
    DecayVerdict,
    LogGainMatrix,
    LyapunovCandidate,
    build_b,
    synthesize,
    verify_along_trajectory,
    vertex_constraint_values,
    vertex_gains,
)
from .qso import (
    HeredityTensor,
    SkewMatrix,
    apply_qso,
    apply_volterra,
    apply_volterra_log,
    is_volterra,
    skew3,
    skewize,
    to_skew_matrix,
    to_tensor,
)
from .sampling import (
    interior_points,
    random_canonical_matrix,
    random_canonical_params,
    random_skew_matrix,
)
from .simplex import (
    FaceId,
    LogSimplexPoint,
    SimplexPoint,
    log_phi,
    monomial,
    phi,
    validate,
)

__version__ = "0.1.0"
