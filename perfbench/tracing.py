"""Span tracing from outside the program.

The tracer wraps the attributes that callers resolve at call time -- every
`volqso` module namespace that binds the traced function -- so calls made
through `from .x import f` bindings are seen too.  Spans (name, start, end,
parent) are kept in memory and written out when the run ends.  A layer's
self time is its spans' duration minus the part covered by child spans.
"""

from __future__ import annotations

import functools
import json
import os
import sys
import threading
import time

# (module, function, span name).  The span name's prefix is the layer.
TRACED = (
    ("volqso.cli", "main", "cli.main"),
    ("volqso.kernel", "run", "kernel.run"),
    ("volqso.ergodic", "run_ensemble", "ergodic.run_ensemble"),
    ("volqso.ergodic", "run_trajectory", "ergodic.run_trajectory"),
    ("volqso.ergodic", "write_trajectory_csv", "ergodic.csv"),
    ("volqso.ergodic", "write_cesaro_csv", "ergodic.csv"),
    ("volqso.ergodic", "write_sojourn_csv", "ergodic.csv"),
    ("volqso.ergodic", "write_phi_csv", "ergodic.csv"),
    ("volqso.ergodic", "write_outside_csv", "ergodic.csv"),
    ("volqso.ergodic", "ergodic_verdict", "ergodic.diagnostics"),
    ("volqso.ergodic", "route_check", "ergodic.diagnostics"),
    ("volqso.ergodic", "sojourn_growth", "ergodic.diagnostics"),
    ("volqso.ergodic", "outside_fraction_trend", "ergodic.diagnostics"),
    ("volqso.lyapunov", "synthesize", "lyapunov.synthesize"),
    ("volqso.lyapunov", "verify_along_trajectory", "lyapunov.verify"),
    ("volqso.fixed_points", "all_fixed_points", "fixed_points.all_fixed_points"),
    ("volqso.classify", "classify", "classify.classify"),
    ("volqso.qso", "apply_volterra", "qso.apply_volterra"),
    ("volqso.qso", "apply_volterra_log", "qso.apply_volterra_log"),
    ("volqso.simplex", "validate", "simplex.validate"),
    ("volqso.sampling", "random_skew_matrix", "sampling.random_skew_matrix"),
)

# Every layer a traced run must produce spans for, over all workloads.
LAYERS = ("cli", "kernel", "ergodic", "lyapunov", "fixed_points", "classify",
          "qso", "simplex", "sampling")


class Tracer:
    """Installs span-recording wrappers while entered (a context manager).

    Span tuples are (id, name, start, end, parent_id, work); `work` is a
    dict of the counts the wrapper can read (steps, rows, bytes) or None."""

    def __init__(self):
        self.spans = []
        self._local = threading.local()
        self._owner = threading.get_ident()
        self._owner_stack = []
        self._lock = threading.Lock()
        self._patches = []    # (module, attribute, original, wrapper)

    def _stack(self):
        if threading.get_ident() == self._owner:
            return self._owner_stack
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    def _wrap(self, fn, name):
        tracer = self

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            stack = tracer._stack()
            if stack:
                parent = stack[-1]
            elif tracer._owner_stack:
                # a worker thread's outermost span belongs to whatever the
                # owning thread has open (run_ensemble's pool)
                parent = tracer._owner_stack[-1]
            else:
                parent = None
            with tracer._lock:
                span_id = len(tracer.spans)
                tracer.spans.append(None)
            stack.append(span_id)
            start = time.perf_counter()
            result = done = None
            try:
                result = fn(*args, **kwargs)
                done = True
                return result
            finally:
                end = time.perf_counter()
                stack.pop()
                work = _work_count(name, args, result) if done else None
                tracer.spans[span_id] = (span_id, name, start, end, parent,
                                         work)

        return traced

    def __enter__(self):
        if not self._patches:
            mods = [m for k, m in sys.modules.items()
                    if k == "volqso" or k.startswith("volqso.")]
            for mod_name, attr, name in TRACED:
                orig = getattr(sys.modules.get(mod_name), attr, None)
                if orig is None:
                    continue
                wrapper = self._wrap(orig, name)
                self._patches += [(mod, attr, orig, wrapper) for mod in mods
                                  if mod.__dict__.get(attr) is orig]
        for mod, attr, _, wrapper in self._patches:
            setattr(mod, attr, wrapper)
        return self

    def __exit__(self, *exc):
        for mod, attr, orig, _ in self._patches:
            setattr(mod, attr, orig)
        return False

    def dump(self, path) -> None:
        with open(path, "w", encoding="utf-8") as fh:
            for span in self.spans:
                if span is not None:
                    fh.write(json.dumps(span) + "\n")


def _work_count(name, args, result):
    """Work a span did, read from its arguments or result."""
    if name == "ergodic.run_trajectory":
        return {"steps": args[0].steps,
                "trace_rows": len(result.trace_steps),
                "sojourn_events": len(result.sojourn.events)}
    if name == "ergodic.csv":
        return {"bytes": os.path.getsize(args[0])}
    return None


def self_times(spans):
    """Self time of every span: duration minus the union of its children's
    intervals clipped to it."""
    children = {}
    for s in spans:
        if s[4] is not None:
            children.setdefault(s[4], []).append(s)
    out = {}
    for s in spans:
        _, _, start, end, _, _ = s
        covered = 0.0
        cur_lo = cur_hi = None
        for c in sorted(children.get(s[0], ()), key=lambda c: c[2]):
            lo, hi = max(c[2], start), min(c[3], end)
            if hi <= lo:
                continue
            if cur_hi is None or lo > cur_hi:
                if cur_hi is not None:
                    covered += cur_hi - cur_lo
                cur_lo, cur_hi = lo, hi
            else:
                cur_hi = max(cur_hi, hi)
        if cur_hi is not None:
            covered += cur_hi - cur_lo
        out[s[0]] = (end - start) - covered
    return out


def layer_metrics(spans, ops: int) -> dict:
    """Per-layer metrics from the traced spans; totals are per operation
    (`ops` operations were traced), `*_us`/`*_ms` are per call."""
    spans = [s for s in spans if s is not None]
    selfs = self_times(spans)
    total = {}
    calls = {}
    counts = {}
    for s in spans:
        name = s[1]
        total[name] = total.get(name, 0.0) + selfs[s[0]]
        calls[name] = calls.get(name, 0) + 1
        for key, value in (s[5] or {}).items():
            counts[key] = counts.get(key, 0) + value
    ensembles = {s[0]: s[3] - s[2] for s in spans
                 if s[1] == "ergodic.run_ensemble"}
    in_ensemble = sum(s[3] - s[2] for s in spans
                      if s[1] == "ergodic.run_trajectory" and s[4] in ensembles)

    def per_op(v):
        return v / ops if ops else 0.0

    def per_call(name, scale):
        return total.get(name, 0.0) / calls[name] * scale \
            if calls.get(name) else 0.0

    def ratio(a, b):
        return a / b if b else 0.0

    kernel_s = total.get("kernel.run", 0.0)
    csv_s = total.get("ergodic.csv", 0.0)
    return {
        "cli.self_s": per_op(total.get("cli.main", 0.0)),
        "kernel.busy_s": per_op(kernel_s),
        "kernel.steps": per_op(counts.get("steps", 0)),
        "kernel.steps_per_s": ratio(counts.get("steps", 0), kernel_s),
        "ergodic.ensemble_parallelism": ratio(in_ensemble,
                                              sum(ensembles.values())),
        "ergodic.assemble_s": per_op(total.get("ergodic.run_trajectory", 0.0)),
        "ergodic.trace_rows": per_op(counts.get("trace_rows", 0)),
        "ergodic.sojourn_events": per_op(counts.get("sojourn_events", 0)),
        "ergodic.csv_s": per_op(csv_s),
        "ergodic.csv_bytes": per_op(counts.get("bytes", 0)),
        "ergodic.csv_mb_per_s": ratio(counts.get("bytes", 0) / 1e6, csv_s),
        "ergodic.diagnostics_s": per_op(total.get("ergodic.diagnostics", 0.0)),
        "lyapunov.synthesize_ms": per_call("lyapunov.synthesize", 1e3),
        "lyapunov.verify_s": per_op(total.get("lyapunov.verify", 0.0)),
        "fixed_points.all_fixed_points_us":
            per_call("fixed_points.all_fixed_points", 1e6),
        "classify.classify_us": per_call("classify.classify", 1e6),
        "qso.apply_volterra_us": per_call("qso.apply_volterra", 1e6),
        "qso.apply_volterra_log_us": per_call("qso.apply_volterra_log", 1e6),
        "simplex.validate_us": per_call("simplex.validate", 1e6),
        "sampling.random_skew_matrix_us":
            per_call("sampling.random_skew_matrix", 1e6),
    }


def layers_seen(spans) -> set:
    return {s[1].split(".")[0] for s in spans if s is not None}
