"""Volterra quadratic stochastic operators on the 2- and 3-dimensional
simplex: operator evaluation, classification of 4x4 interaction matrices,
fixed-point inventories, monomial Lyapunov synthesis, and long-horizon
ergodicity diagnostics.

The public names are re-exported lazily (PEP 562): `import volqso` loads
only `classify` and what it needs, and a name's submodule is imported at the
name's first use, which binds it here, so later lookups are plain attribute
reads.  The submodules resolve the same way (`volqso.kernel`, `volqso.cli`).
The kernel backend, and with it the build of `_kernel.c`, loads with the
first code that runs it: a trajectory, a one-step map or a seeded draw.
The package has no runtime dependency: seeded draws come from a copy of
NumPy's PCG64 stream in the backend (`sampling`), and neither numpy nor
scipy is used."""

from importlib import import_module as _import_module

# Eager: every command loads this submodule, and importing it binds the name
# `classify` here to the submodule, which this import then replaces.
from .classify import classify

__version__ = "0.1.0"

_HOMES = {name: module for module, names in {
    "classify": "CanonicalParams ClassReport VolterraClass invariant_i "
                "matrix_from_canonical pfaffian4",
    "ergodic": "CesaroSeries CoordinateObservable ErgodicVerdict "
               "MonomialObservable SojournEvent SojournTable TrajectoryConfig "
               "TrajectoryResult Verdict c_abs coordinate_observables "
               "decade_windows dyadic_checkpoints ergodic_verdict "
               "escape_bound outside_fraction_trend route_check run_ensemble "
               "run_trajectory sojourn_growth",
    "fixed_points": "FixedPointInventory FixedPointRecord RepellerLyapunov "
                    "StabilityType all_fixed_points face_fixed_point "
                    "jacobian_spectrum lyapunov_from_repeller "
                    "volterra_jacobian",
    "kernel": "BACKEND available_backends",
    "lyapunov": "DecayReport DecayVerdict LogGainMatrix LyapunovCandidate "
                "build_b synthesize verify_along_trajectory "
                "vertex_constraint_values vertex_gains",
    "qso": "HeredityTensor SkewMatrix apply_qso apply_volterra "
           "apply_volterra_log is_volterra skew3 skewize to_skew_matrix "
           "to_tensor",
    "sampling": "interior_points random_canonical_matrix "
                "random_canonical_params random_skew_matrix",
    "simplex": "FaceId LogSimplexPoint SimplexPoint log_phi monomial phi "
               "validate",
}.items() for name in names.split()}
_SUBMODULES = {"cli", "ergodic", "errors", "fixed_points", "kernel",
               "lyapunov", "qso", "sampling", "simplex"}
__all__ = sorted([*_HOMES, "classify"])


def __getattr__(name: str):
    if name in _SUBMODULES:
        return _import_module(f"{__name__}.{name}")
    if name not in _HOMES:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    value = getattr(_import_module(f"{__name__}.{_HOMES[name]}"), name)
    globals()[name] = value
    return value


def __dir__():
    return sorted({*globals(), *__all__})
