"""Pure-Python trajectory kernel.

This is the reference implementation: `vq_run` in `_kernel.c` matches it
statement for statement (same loops, same branches, same arithmetic in the
same order) so both backends produce bit-identical results.  Keep the two in
sync.  The log-space step is one function in each, `log_step`, which `run`
and `vq_run` call once per step; the one-step log map of each backend
(`qso._log_map_py`, `volterra_log_map` in `_kernel.c`) is its `log_step`
followed by the normalizations, so `qso.apply_volterra_log` gives the bits
of a one-step run under either backend.

`format_rows` is likewise the reference for `vq_format`, the CSV row
formatter in `_kernel.c`, and for its exp of the trace values.

All state lives in log coordinates.  The step factor 1 + (Ax)_k is evaluated
as sum_i (1 + a[k][i]) x_i, a sum of nonnegative terms; when that sum
underflows doubles the same sum is taken in the log domain.  Without this a
coordinate pinned near a vertex would be rounded to an exact zero and the
cycling dynamics would collapse onto a face.
"""

from __future__ import annotations

import csv
import io
import math
from array import array

UNDERFLOW_GUARD = 1e-280   # direct factor below this -> log-domain sum
DRIFT_TOL = 1e-6           # |logsumexp| allowed per normalization
EXP_OVERFLOW = 709.782712893384  # log of the largest double

_INF = float("inf")
_NAN = float("nan")


def step_weights(a):
    """The weights 1 + a[k][i] of `log_step` for the rows of the matrix a."""
    return [[1.0 + v for v in row] for row in a]


def log_step(weights, logw, logx, xs):
    """One step of the Volterra map in log coordinates: the new logs, before
    normalization, of the point with logs `logx` and coordinates xs =
    exp(logx), and their logsumexp, the drift; the drift is NaN when the
    step is degenerate (every new log -inf, or one NaN).

    Each step factor sum_i weights[k][i] xs[i] is a compensated sum; below
    UNDERFLOW_GUARD it is taken in the log domain instead, from the logs of
    the weights.  logw[k] holds those of row k, -inf for a weight of 0, or
    None until a step first needs them; then they are taken and kept.
    (`vq_run` takes every log before its first step: the same values.)"""
    exp = math.exp
    log = math.log
    newlog = []
    for kk, (wk, lk, lxk) in enumerate(zip(weights, logw, logx)):
        s = 0.0
        c = 0.0
        for w, x in zip(wk, xs):
            t = w * x
            tmp = s + t
            if abs(s) >= abs(t):
                c += (s - tmp) + t
            else:
                c += (t - tmp) + s
            s = tmp
        g = s + c
        if g < UNDERFLOW_GUARD:
            if lk is None:
                lk = logw[kk] = [log(w) if w > 0.0 else -_INF for w in wk]
            mx = -_INF
            for lw, lx in zip(lk, logx):
                t = lw + lx
                if t > mx:
                    mx = t
            if mx == -_INF:
                lg = -_INF
            else:
                acc = 0.0
                for lw, lx in zip(lk, logx):
                    t = lw + lx
                    if t > -_INF:
                        acc += exp(t - mx)
                lg = mx + log(acc)
        else:
            lg = log(g)
        newlog.append(lxk + lg)

    mx = newlog[0]
    for v in newlog:
        if v > mx:
            mx = v
    if mx == -_INF or mx != mx:
        return newlog, _NAN
    acc = 0.0
    for v in newlog:
        acc += 1.0 if v == mx else exp(v - mx)
    return newlog, mx + log(acc)


def run(m, a, logx0, steps, log_eps, coord_obs, mono_obs, checkpoints,
        stride, want_phi):
    """Iterate the Volterra map for `steps` steps from log point `logx0`.

    a: m x m skew matrix (list of lists); coord_obs: 0-based coordinate
    indices averaged along the run; mono_obs: exponent vectors (length m)
    whose monomials are averaged and traced; checkpoints: ascending iterate
    counts at which running means are recorded; stride: trace subsampling;
    want_phi: track the shrinkage observable (m == 4 only).

    Returns a dict read by ergodic.run_trajectory.  The per-step trace stays
    flat: trace_steps is an array('q') with one step per trace row;
    trace_logphi an array('d') with one value per row; trace_logx and
    trace_mono are row-major array('d') blocks of m and len(mono_obs) values
    per row; cesaro is a row-major array('d') of one row per checkpoint
    reached, one value per observable (coordinates first).  checkpoints,
    events and final_logx are lists.  The compiled backend returns the same
    types.
    """
    exp = math.exp
    isnan = math.isnan

    weights = step_weights(a)
    logw = [None] * m

    logx = [float(v) for v in logx0]
    n_coord = len(coord_obs)
    n_mono = len(mono_obs)
    n_obs = n_coord + n_mono
    sums = [0.0] * n_obs
    comps = [0.0] * n_obs

    cp = list(checkpoints)
    n_cp = len(cp)
    cp_ptr = 0
    cesaro = array("d")

    trace_steps = array("q")
    trace_logx = array("d")
    trace_logphi = array("d")
    trace_mono = array("d")

    events = []          # (vertex0, entry, exit(-1 while open), lphi_entry, started_inside)
    cur_vertex = -1
    open_entry = -1
    open_lphi = _NAN
    open_started = 0
    prev_lphi = _NAN

    min_logphi = _INF if want_phi else _NAN
    max_drift = 0.0
    error = None

    xs = [0.0] * m
    mono_vals = [0.0] * n_mono
    to_trace = 0    # steps left to the next multiple of stride

    for k in range(steps + 1):
        # --- observe the current point z_k ---
        for i in range(m):
            xs[i] = exp(logx[i])

        for j in range(n_mono):
            lam = mono_obs[j]
            lf = 0.0
            for i in range(m):
                li = lam[i]
                if li != 0.0:
                    lf += li * logx[i]
            mono_vals[j] = lf

        if want_phi:
            p124 = logx[0] + logx[1] + logx[3]
            p134 = logx[0] + logx[2] + logx[3]
            lphi = p124 if p124 >= p134 else p134
            if lphi < min_logphi:
                min_logphi = lphi
        else:
            lphi = _NAN

        if to_trace == 0 or k == steps:
            trace_steps.append(k)
            trace_logx.extend(logx)
            trace_logphi.append(lphi)
            trace_mono.extend(mono_vals)
        to_trace = to_trace - 1 if to_trace else stride - 1

        cnt = 0
        v = -1
        for i in range(m):
            if logx[i] > log_eps:
                cnt += 1
                v = i
        inside = cnt == 1
        if cur_vertex < 0:
            if inside:
                cur_vertex = v
                open_entry = k
                open_lphi = lphi if k == 0 else prev_lphi
                open_started = 1 if k == 0 else 0
        elif not inside or v != cur_vertex:
            events.append((cur_vertex, open_entry, k, open_lphi,
                           open_started))
            cur_vertex = v if inside else -1
            open_entry = k
            open_lphi = prev_lphi
            open_started = 0
        prev_lphi = lphi

        if k == steps:
            break

        # --- running means include z_k ---
        for j in range(n_obs):
            if j < n_coord:
                f = xs[coord_obs[j]]
            elif mono_vals[j - n_coord] > EXP_OVERFLOW:
                f = _INF
            else:
                f = exp(mono_vals[j - n_coord])
            t = sums[j] + f
            if abs(sums[j]) >= abs(f):
                comps[j] += (sums[j] - t) + f
            else:
                comps[j] += (f - t) + sums[j]
            sums[j] = t

        if cp_ptr < n_cp and cp[cp_ptr] == k + 1:
            cesaro.extend(
                [(sums[j] + comps[j]) / (k + 1) for j in range(n_obs)])
            cp_ptr += 1

        # --- one step ---
        newlog, drift = log_step(weights, logw, logx, xs)
        if isnan(drift):
            error = ("degenerate", k)
            break
        adrift = abs(drift)
        if adrift > max_drift:
            max_drift = adrift
        if adrift > DRIFT_TOL:
            error = ("breakdown", k, drift)
            break
        for i in range(m):
            logx[i] = newlog[i] - drift

    if cur_vertex >= 0:
        events.append((cur_vertex, open_entry, -1, open_lphi, open_started))

    return {
        "checkpoints": cp[:cp_ptr],
        "cesaro": cesaro,
        "events": events,
        "trace_steps": trace_steps,
        "trace_logx": trace_logx,
        "trace_logphi": trace_logphi,
        "trace_mono": trace_mono,
        "min_logphi": min_logphi,
        "final_logx": logx[:],
        "max_abs_drift": max_drift,
        "error": error,
    }


def _phi(lp):
    return math.exp(lp) if lp <= 0.0 else _NAN


_OPS = {"": None, "exp": math.exp, "phi": _phi}


def format_rows(n_rows, columns):
    """`n_rows` CSV rows as UTF-8 bytes, one value from each column a row.
    A column is (values, start, stride, op): row r holds values[start + r *
    stride], written as it is (op ""), as math.exp of it (op "exp") or as
    phi = math.exp of it if it is <= 0, else nan (op "phi").  The values
    are written as csv.writer writes them: str(int), repr(float), commas
    between and CRLF at the end."""
    cols = []
    for values, start, stride, op in columns:
        col = values[start:start + n_rows * stride:stride]
        cols.append(map(_OPS[op], col) if op else col)
    buf = io.StringIO()
    csv.writer(buf).writerows(zip(*cols))
    return buf.getvalue().encode()
