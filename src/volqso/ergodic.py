"""Long-horizon trajectory runs and ergodicity diagnostics.

A single pass over the orbit accumulates running (Cesaro) means of the
requested observables with compensated summation, watches entries/exits of
the vertex neighbourhoods U_v(eps) = {x_i <= eps for all i != v}, and traces
the shrinkage observable phi and any monomials.  Everything downstream
(verdicts, escape bounds, route and growth checks, outside-time fractions)
is computed from the returned records.

Dyadic checkpoints are the default: the oscillation of running means in the
non-ergodic regime lives on exponentially growing time scales, so powers of
two expose it at logarithmic storage cost.

The CSV writers and the output tree of `simulate` live here too: the tree is
built beside `--out` and swapped in whole (`_write_tree`).
"""

from __future__ import annotations

import math
import os
from array import array
from enum import Enum
from itertools import chain

# `kernel`, which builds or loads the compiled library, is imported by the
# functions that run it: the CLI checks configs with this module's classes.
from .classify import CanonicalParams
from .errors import (
    DegenerateFactor,
    DimensionMismatch,
    EpsilonTooLarge,
    NumericalBreakdown,
    TooFewCheckpoints,
    TooFewSojourns,
    ValidationError,
    WrongDimension,
)
from .qso import SkewMatrix
from .simplex import (
    DELTA_CONV,
    DELTA_OSC,
    LogSimplexPoint,
    SimplexPoint,
    _Record,
)

_INF = float("inf")


# ---------------------------------------------------------------------------
# observables


class CoordinateObservable(_Record):
    """Coordinate x_label (1-based) as a trajectory observable."""

    label: int

    @property
    def name(self) -> str:
        return f"x{self.label}"


class MonomialObservable(_Record):
    """prod x_i^lam_i as a trajectory observable; traced in log scale."""

    exponents: tuple[float, ...]
    name: str

    def __init__(self, exponents, name=""):
        self.__dict__.update(exponents=tuple(float(v) for v in exponents),
                             name=name)


def coordinate_observables(m: int) -> tuple[CoordinateObservable, ...]:
    return tuple(CoordinateObservable(i + 1) for i in range(m))


def split_observables(observables, m: int):
    """Check observables against dimension m and split them for the kernel:
    (0-based coordinate indices, monomial exponent lists, names).  The names
    list the coordinates first, then the monomials, unnamed ones as F1, F2,
    ...; a label outside 1..m, an exponent count other than m or a repeated
    name is rejected."""
    coord_obs = []
    mono_obs = []
    names = []
    mono_names = []
    for obs in observables:
        if isinstance(obs, CoordinateObservable):
            if not 1 <= obs.label <= m:
                raise WrongDimension(
                    f"observables: coordinate label {obs.label} for m={m}")
            coord_obs.append(obs.label - 1)
            names.append(obs.name)
        elif isinstance(obs, MonomialObservable):
            if len(obs.exponents) != m:
                raise WrongDimension(
                    f"observables: {len(obs.exponents)} exponents for m={m}")
            mono_obs.append(list(obs.exponents))
            mono_names.append(obs.name or f"F{len(mono_names) + 1}")
        else:
            raise ValidationError(f"observables: unknown observable {obs!r}")
    names += mono_names
    if len(set(names)) != len(names):
        raise ValidationError(f"observables: names collide: {names}")
    return coord_obs, mono_obs, tuple(names)


# ---------------------------------------------------------------------------
# configuration and results


def dyadic_checkpoints(steps: int) -> tuple[int, ...]:
    """Powers of two up to `steps`, plus `steps` itself."""
    out = []
    n = 1
    while n <= steps:
        out.append(n)
        n *= 2
    if not out or out[-1] != steps:
        out.append(steps)
    return tuple(out)


class TrajectoryConfig(_Record):
    matrix: SkewMatrix
    start: SimplexPoint
    steps: int
    epsilon: float
    checkpoints: tuple[int, ...] | None   # None -> dyadic
    record_stride: int

    def __init__(self, matrix, start, steps, epsilon=0.05, checkpoints=None,
                 record_stride=1000):
        if matrix.m != start.m:
            raise DimensionMismatch(
                f"matrix m={matrix.m}, start m={start.m}")
        if steps < 1:
            raise ValidationError("steps must be >= 1")
        if not 0.0 < epsilon < 0.25:
            # eps < 1/4 keeps the four vertex neighbourhoods disjoint
            raise ValidationError(f"epsilon {epsilon} outside (0, 1/4)")
        if record_stride < 1:
            raise ValidationError("record_stride must be >= 1")
        if checkpoints is not None:
            checkpoints = tuple(int(n) for n in checkpoints)
            if any(b <= a for a, b in zip(checkpoints, checkpoints[1:])) \
                    or not checkpoints:
                raise ValidationError("checkpoints must be ascending")
            if checkpoints[0] < 1 or checkpoints[-1] > steps:
                raise ValidationError("checkpoints outside [1, steps]")
        self.__dict__.update(matrix=matrix, start=start, steps=steps,
                             epsilon=epsilon, checkpoints=checkpoints,
                             record_stride=record_stride)

    @property
    def m(self) -> int:
        return self.matrix.m

    def effective_checkpoints(self) -> tuple[int, ...]:
        if self.checkpoints is not None:
            return self.checkpoints
        return dyadic_checkpoints(self.steps)


class CesaroSeries(_Record):
    """Running means c_n = (1/n) sum_{k<n} f(V^k x) at checkpoint n's."""

    function_id: str
    checkpoints: tuple[tuple[int, float], ...]

    @property
    def ns(self) -> tuple[int, ...]:
        return tuple(n for n, _ in self.checkpoints)

    @property
    def values(self) -> tuple[float, ...]:
        return tuple(v for _, v in self.checkpoints)


class SojournEvent(_Record):
    """Maximal run of consecutive iterates inside one vertex neighbourhood.

    entry_step is the first iterate inside, exit_step the first iterate
    outside again (None while still inside at the end of the run).  length
    counts from the last point outside before entry to the first point
    outside after: exit_step - entry_step + 1.  log_phi_entry is log(phi) at
    the pre-entry point (NaN for m=3 or when the run starts inside).
    """

    vertex: int                 # 1-based vertex label
    entry_step: int
    exit_step: int | None
    log_phi_entry: float
    started_inside: bool

    @property
    def censored(self) -> bool:
        return self.exit_step is None

    @property
    def length(self) -> int | None:
        if self.exit_step is None:
            return None
        return self.exit_step - self.entry_step + 1

    @property
    def phi_entry(self) -> float:
        if math.isnan(self.log_phi_entry):
            return float("nan")
        return math.exp(self.log_phi_entry)


class SojournTable(_Record):
    events: tuple[SojournEvent, ...]
    total_steps: int
    epsilon: float
    m: int

    def route(self) -> tuple[int, ...]:
        return tuple(e.vertex for e in self.events)

    def lengths_at(self, vertex: int) -> tuple[int, ...]:
        return tuple(e.length for e in self.events
                     if e.vertex == vertex and not e.censored)

    def events_at(self, vertex: int) -> tuple[SojournEvent, ...]:
        return tuple(e for e in self.events if e.vertex == vertex)

    def inside_count(self, window_start: int, window_end: int) -> int:
        """Number of iterate indices in [window_start, window_end) spent
        inside some vertex neighbourhood."""
        total = 0
        for e in self.events:
            hi = self.total_steps + 1 if e.exit_step is None else e.exit_step
            lo = max(e.entry_step, window_start)
            hi = min(hi, window_end)
            if hi > lo:
                total += hi - lo
        return total


class Verdict(Enum):
    CONVERGED_AT_SCALE = "converged_at_scale"
    OSCILLATING_AT_SCALE = "oscillating_at_scale"
    INCONCLUSIVE = "inconclusive"


class ErgodicVerdict(_Record):
    oscillation: tuple[tuple[str, float], ...]   # per observable, max-min
    verdict: Verdict

    @property
    def max_oscillation(self) -> float:
        return max(v for _, v in self.oscillation)


class TrajectoryResult(_Record):
    m: int
    steps: int
    epsilon: float
    observable_names: tuple[str, ...]
    cesaro: tuple[CesaroSeries, ...]
    sojourn: SojournTable
    # The per-step trace, flat as the kernel returns it: one row every
    # record_stride steps, plus the last step.
    trace_steps: array          # array('q'): the step of each row
    trace_log_coords: array     # array('d'), row-major: row r's m log
    #                             coordinates at [r * m, (r + 1) * m)
    trace_log_phi: array        # array('d'): log phi per row, NaN if m < 4
    monomial_traces: dict[str, array]   # name -> array('d'): log F per row
    min_log_phi: float
    final: LogSimplexPoint
    max_abs_drift: float


# ---------------------------------------------------------------------------
# the run


def run_trajectory(cfg: TrajectoryConfig, observables=None) -> TrajectoryResult:
    """Iterate the operator for cfg.steps steps (always in log space) and
    collect running means, sojourn events and traces in one pass."""
    from . import kernel

    m = cfg.m
    if observables is None:
        observables = coordinate_observables(m)
    coord_obs, mono_obs, names = split_observables(observables, m)
    raw = kernel.run(m, cfg.matrix.rows, cfg.start.to_log().log_coords,
                     cfg.steps, math.log(cfg.epsilon), coord_obs, mono_obs,
                     cfg.effective_checkpoints(), cfg.record_stride, m == 4)

    err = raw["error"]
    if err is not None:
        if err[0] == "breakdown":
            raise NumericalBreakdown(
                f"normalization drift {err[2]:.3e} at step {err[1]}")
        raise DegenerateFactor(f"invalid step factor at step {err[1]}")

    events = tuple(
        SojournEvent(v + 1, entry, None if exit_ < 0 else exit_, lphi,
                     bool(started))
        for v, entry, exit_, lphi, started in raw["events"])
    cesaro, n_obs = raw["cesaro"], len(names)
    mono, n_mono = raw["trace_mono"], len(mono_obs)
    return TrajectoryResult(
        m=m,
        steps=cfg.steps,
        epsilon=cfg.epsilon,
        observable_names=names,
        cesaro=tuple(CesaroSeries(name, tuple(zip(raw["checkpoints"],
                                                  cesaro[j::n_obs])))
                     for j, name in enumerate(names)),
        sojourn=SojournTable(events=events, total_steps=cfg.steps,
                             epsilon=cfg.epsilon, m=m),
        trace_steps=raw["trace_steps"],
        trace_log_coords=raw["trace_logx"],
        trace_log_phi=raw["trace_logphi"],
        monomial_traces={name: mono[k::n_mono] for k, name
                         in enumerate(names[len(coord_obs):])},
        min_log_phi=raw["min_logphi"],
        final=LogSimplexPoint(tuple(raw["final_logx"])),
        max_abs_drift=raw["max_abs_drift"],
    )


def run_ensemble(configs, observables=None, workers: int = 1):
    """Run independent trajectories, on up to `workers` threads (at most one
    per CPU), thread k running configs k, k + workers, ...; results come
    back in input order, and the first failure in input order is raised.
    Threads only pay off with the compiled kernel, which releases the GIL,
    so the pure-Python kernel always runs serially."""
    from . import kernel

    workers = min(workers, len(configs), os.cpu_count() or 1)
    if workers <= 1 or kernel.BACKEND == "python":
        return [run_trajectory(cfg, observables) for cfg in configs]
    # plain threads: concurrent.futures would import logging on every run
    import threading

    results = [None] * len(configs)

    def work(first: int) -> None:
        for i in range(first, len(configs), workers):
            try:
                results[i] = run_trajectory(configs[i], observables)
            except BaseException as exc:    # re-raised below, in order
                results[i] = exc

    threads = [threading.Thread(target=work, args=(k,))
               for k in range(workers)]
    for t in threads:
        t.start()
    for t in threads:
        t.join()
    for r in results:
        if isinstance(r, BaseException):
            raise r
    return results


# ---------------------------------------------------------------------------
# diagnostics


def ergodic_verdict(series_list, delta_conv: float = DELTA_CONV,
                    delta_osc: float = DELTA_OSC) -> ErgodicVerdict:
    """Three-way verdict from the oscillation (max - min) of each running
    mean over the trailing half of its checkpoints."""
    if delta_conv >= delta_osc:
        raise ValidationError("delta_conv must be below delta_osc")
    series_list = list(series_list)
    if not series_list:
        raise ValidationError("no series to judge")
    osc = []
    for s in series_list:
        vals = s.values
        if len(vals) < 8:
            raise TooFewCheckpoints(
                f"{s.function_id}: {len(vals)} checkpoints, need >= 8")
        tail = vals[len(vals) // 2:]
        osc.append((s.function_id, max(tail) - min(tail)))
    worst = max(v for _, v in osc)
    if worst > delta_osc:
        verdict = Verdict.OSCILLATING_AT_SCALE
    elif worst < delta_conv:
        verdict = Verdict.CONVERGED_AT_SCALE
    else:
        verdict = Verdict.INCONCLUSIVE
    return ErgodicVerdict(oscillation=tuple(osc), verdict=verdict)


def c_abs(params) -> float:
    """max of 1/(1-a12), 1/(1-max(a13,a23)), 1/(1-max(a24,a34)): the factor
    by which the small coordinates at a pre-entry point can exceed eps."""
    p = params if isinstance(params, CanonicalParams) \
        else CanonicalParams(*params)
    for v in p.as_tuple():
        if not 0.0 < v < 1.0:
            raise ValidationError(
                f"canonical parameter {v} outside (0, 1)")
    return max(
        1.0 / (1.0 - p.a12),
        1.0 / (1.0 - max(p.a13, p.a23)),
        1.0 / (1.0 - max(p.a24, p.a34)),
    )


def escape_bound(params, epsilon: float, phi_at_entry: float | None = None,
                 *, log_phi_at_entry: float | None = None) -> float:
    """Lower bound on the length of a sojourn at vertex 1:
    log2(eps^2 (1 - 3 C eps) / phi), clamped at 0.

    phi is the shrinkage observable at the pre-entry point; pass it as
    log_phi_at_entry when it underflows linear doubles.
    """
    cabs = c_abs(params)
    margin = 1.0 - 3.0 * cabs * epsilon
    if margin <= 0.0:
        raise EpsilonTooLarge(
            f"epsilon {epsilon} too large: 1 - 3*C*eps = {margin}")
    if log_phi_at_entry is None:
        if phi_at_entry is None:
            raise ValidationError("need phi_at_entry or log_phi_at_entry")
        if phi_at_entry <= 0.0:
            raise ValidationError(f"phi_at_entry {phi_at_entry} must be > 0")
        log_phi_at_entry = math.log(phi_at_entry)
    n = (2.0 * math.log(epsilon) + math.log(margin) - log_phi_at_entry) \
        / math.log(2.0)
    return max(0.0, n)


# Admissible neighbourhood-to-neighbourhood moves in canonical orientation:
# the three closed routes 1-4-3-2, 1-4-2 and 1-4-3.
ADMISSIBLE_TRANSITIONS = frozenset(
    {(1, 4), (4, 3), (4, 2), (3, 2), (3, 1), (2, 1)})


def route_check(table_or_route) -> bool:
    """True iff the visited-vertex sequence only uses admissible transitions
    and contains at least two returns to vertex 1 (two completed cycles)."""
    if isinstance(table_or_route, SojournTable):
        route = table_or_route.route()
    else:
        route = tuple(int(v) for v in table_or_route)
    if any(t not in ADMISSIBLE_TRANSITIONS for t in zip(route, route[1:])):
        return False
    cycles = sum(1 for v in route[1:] if v == 1)
    return cycles >= 2


def sojourn_growth(table_or_lengths, vertex: int = 1,
                   max_violation_rate: float = 0.1) -> bool:
    """True iff completed sojourn lengths at `vertex` are nondecreasing from
    the second sojourn on, allowing max_violation_rate violations per sojourn
    (a finite-run surrogate for lengths diverging)."""
    if isinstance(table_or_lengths, SojournTable):
        lengths = table_or_lengths.lengths_at(vertex)
    else:
        lengths = tuple(int(v) for v in table_or_lengths)
    if len(lengths) < 3:
        raise TooFewSojourns(f"{len(lengths)} sojourns, need >= 3")
    violations = sum(
        1 for a, b in zip(lengths[1:], lengths[2:]) if b < a)
    allowed = int(len(lengths) * max_violation_rate)
    return violations <= allowed


def decade_windows(total_steps: int) -> tuple[tuple[int, int], ...]:
    """[0,10), [10,100), ... covering the step indices 0..total_steps-1."""
    out = []
    lo = 0
    hi = 10
    while lo < total_steps:
        out.append((lo, min(hi, total_steps)))
        lo = hi
        hi *= 10
    return tuple(out)


def outside_fraction_trend(table: SojournTable):
    """Fraction of iterates outside every vertex neighbourhood, per decade
    window."""
    return [((ws, we), (we - ws - table.inside_count(ws, we)) / (we - ws))
            for ws, we in decade_windows(table.total_steps)]


# ---------------------------------------------------------------------------
# CSV emission (headers documented in docs/formats.md)

_CHUNK_VALUES = 1 << 14   # values per format_rows call: bounds its buffers


def _columns(values, width: int = 1, op: str = "") -> list:
    """The `width` columns of the row-major array `values`, in the form
    kernel.format_rows reads; `op` as there."""
    return [(values, j, width, op) for j in range(width)]


def _write_csv(path, header, n_rows, columns) -> None:
    """Write `header` as csv.writer quotes it, then `n_rows` rows of one
    value from each of `columns` (see _columns), all UTF-8.  The kernel
    backend formats the rows, a chunk at a time, straight from the arrays."""
    import csv
    import io

    from . import kernel

    head = io.StringIO()
    csv.writer(head).writerow(header)
    chunk = max(1, _CHUNK_VALUES // len(columns))
    with open(path, "wb") as fh:
        fh.write(head.getvalue().encode())
        for lo in range(0, n_rows, chunk):
            fh.write(kernel.format_rows(
                min(chunk, n_rows - lo),
                [(values, start + lo * stride, stride, op)
                 for values, start, stride, op in columns]))


def write_trajectory_csv(path, result: TrajectoryResult) -> None:
    """step,x1..xm: linear coordinates at the trace steps (exact zeros and
    underflowed values print as 0.0; the log scale lives in phi.csv)."""
    _write_csv(path, ["step"] + [f"x{i + 1}" for i in range(result.m)],
               len(result.trace_steps),
               _columns(result.trace_steps)
               + _columns(result.trace_log_coords, result.m, "exp"))


def write_cesaro_csv(path, result: TrajectoryResult) -> None:
    """n, then one running-mean column per observable."""
    series = result.cesaro
    ns = series[0].ns if series else ()
    means = array("d", chain.from_iterable(zip(*(s.values for s in series))))
    _write_csv(path, ["n", *result.observable_names], len(ns),
               _columns(array("q", ns)) + _columns(means, len(series)))


def write_sojourn_csv(path, result: TrajectoryResult) -> None:
    """One row per sojourn event; censored rows (still inside at the end of
    the run) carry exit_step = length = -1."""
    events = result.sojourn.events
    ints = array("q", chain.from_iterable(
        (e.vertex,
         e.entry_step,
         -1 if e.censored else e.exit_step,
         -1 if e.censored else e.length,
         int(e.censored),
         int(e.started_inside)) for e in events))
    floats = array("d", chain.from_iterable(
        (e.log_phi_entry, e.phi_entry) for e in events))
    _write_csv(path, ["vertex", "entry_step", "exit_step", "length",
                      "censored", "started_inside", "log_phi_entry",
                      "phi_entry"], len(events),
               _columns(ints, 6) + _columns(floats, 2))


def write_phi_csv(path, result: TrajectoryResult) -> None:
    """step, phi, log_phi, then one log column per monomial observable;
    phi = exp(log_phi) where log_phi <= 0, else nan."""
    log_phi = result.trace_log_phi
    _write_csv(path, ["step", "phi", "log_phi",
                      *(f"log_{n}" for n in result.monomial_traces)],
               len(result.trace_steps),
               _columns(result.trace_steps) + _columns(log_phi, op="phi")
               + _columns(log_phi)
               + [(trace, 0, 1, "") for trace
                  in result.monomial_traces.values()])


def write_outside_csv(path, result: TrajectoryResult) -> None:
    """window_start,window_end,outside_fraction per decade window."""
    trend = outside_fraction_trend(result.sojourn)
    _write_csv(path, ["window_start", "window_end", "outside_fraction"],
               len(trend),
               _columns(array("q", chain.from_iterable(w for w, _ in trend)),
                        2)
               + _columns(array("d", (frac for _, frac in trend))))


# ---------------------------------------------------------------------------
# the output tree of `simulate`


# the files of each start_NNN/ directory, and their writers
_RUN_FILES = {"trajectory.csv": write_trajectory_csv,
              "cesaro.csv": write_cesaro_csv, "sojourn.csv": write_sojourn_csv,
              "phi.csv": write_phi_csv, "outside.csv": write_outside_csv}
# what the other commands write in --out, which simulate keeps
_REPORTS = ("classification.json", "fixed_points.json", "lyapunov.json")


def _foreign(out_dir):
    """The first entry of the directory `out_dir` (a pathlib.Path) that
    volqso does not write: anything but the other commands' reports, an
    earlier simulate's summary.json, and start_NNN directories of
    _RUN_FILES."""
    for path in out_dir.iterdir():
        name = path.name
        if path.is_symlink():
            return path
        if path.is_dir() and name[:6] == "start_" and name[6:].isdigit() \
                and len(name) >= 9:
            for file in path.iterdir():
                if file.name not in _RUN_FILES or file.is_symlink() \
                        or not file.is_file():
                    return file
        elif name not in (*_REPORTS, "summary.json") or not path.is_file():
            return path
    return None


def _check_tree(out_dir) -> None:
    """Check, before any work, that simulate can swap a new tree in at an
    existing `out_dir`: its parent is writable, and it holds nothing volqso
    does not write (see _foreign).  A missing `out_dir` is made inside its
    nearest existing ancestor, which the CLI checks is writable."""
    try:
        if not out_dir.is_dir():
            return
        target = out_dir.resolve()
        if target == target.parent or not os.access(target.parent,
                                                    os.W_OK | os.X_OK):
            raise ValidationError(f"--out {out_dir}: cannot replace it, "
                                  f"{target.parent} is not writable")
        foreign = _foreign(out_dir)
    except OSError as exc:
        raise ValidationError(f"--out {out_dir}: {exc}") from exc
    if foreign is not None:
        raise ValidationError(f"cannot write output: {foreign} was not "
                              "written by volqso, so it is not replaced")


def _write_tree(out_dir, results, summary: str) -> None:
    """Write the start_NNN/ directories of `results` and the text `summary`
    as summary.json in a sibling of `out_dir`, then swap that tree in whole,
    so a failed write leaves the old tree as it was.  The other commands'
    reports in `out_dir` are kept; the rest of its old tree is removed."""
    target = out_dir.resolve()
    tmp = target.with_name(f".{target.name}.{os.getpid()}.tmp")
    old = tmp.with_suffix(".old")
    try:
        for i, result in enumerate(results):
            run_dir = tmp / f"start_{i:03d}"
            run_dir.mkdir(parents=True)
            for name, write in _RUN_FILES.items():
                write(run_dir / name, result)
        (tmp / "summary.json").write_text(summary, encoding="utf-8")
        if target.is_dir() and any(target.iterdir()):
            os.replace(target, old)
        os.replace(tmp, target)     # onto a missing or empty directory
    finally:
        if tmp.exists():
            import shutil

            shutil.rmtree(tmp, ignore_errors=True)
    if old.exists():
        for name in _REPORTS:
            if (old / name).exists():
                os.replace(old / name, target / name)
        import shutil

        shutil.rmtree(old)
