"""Trajectory-kernel and CSV-formatter backend selection.

Two backends produce bit-identical results: the pure-Python reference
(`volqso._kernel_py`) and a port of it to plain C (`_kernel.c`).  Each
provides the trajectory kernel `run` and `format_rows`, the formatter of CSV
body rows.  The C file is compiled on first use with `$CC` (default: the
compiler Python was built with) into the package's `__pycache__/`, under a
name keyed on the CRC-32 of the source and flags, and loaded with ctypes;
later imports load the cached library without starting a process, and a
build deletes the libraries built from older sources.  Without a working
compiler or a writable `__pycache__/` the pure-Python backend takes over.

BACKEND names the selected backend and BACKEND_REASON says why.  Set
VOLQSO_KERNEL=python|compiled to force a backend for both functions.  Any
other value, or forcing `compiled` where the library cannot be built, makes
loading this module raise `KernelUnavailable` (a `ValidationError` and an
`ImportError`) with the reason, so the CLI exits 2.
"""

from __future__ import annotations

import binascii
import ctypes
import functools
import itertools
import os
import struct
from array import array
from pathlib import Path

from .errors import KernelUnavailable

_SOURCE = Path(__file__).with_name("_kernel.c")
# -ffp-contract=off: the pure-Python kernel is the bit-for-bit reference;
# fused multiply-adds would break kernel parity.
_CFLAGS = ("-O3", "-ffp-contract=off", "-fPIC", "-shared")
_LIBS = ("-lm",)
_MAX_M = 4          # MAX_M in _kernel.c: the size of its per-step arrays
_EVENT = struct.Struct("qqqdq")   # vq_event in _kernel.c
# vq_format writes at most this many bytes per value, its separator included
_INT_BYTES, _FLOAT_BYTES = 21, 25
# vq_column.op in _kernel.c for the ops of _kernel_py.format_rows on a
# double column; an int64 column is op 0
_OPS = {"": 1, "exp": 2, "phi": 3}


class _Column(ctypes.Structure):
    _fields_ = [("data", ctypes.c_void_p),
                ("stride", ctypes.c_longlong),
                ("op", ctypes.c_longlong)]


class _Result(ctypes.Structure):
    _fields_ = [("n_checkpoints", ctypes.c_longlong),
                ("n_trace", ctypes.c_longlong),
                ("n_events", ctypes.c_longlong),
                ("events", ctypes.c_void_p),
                ("error_kind", ctypes.c_longlong),
                ("error_step", ctypes.c_longlong),
                ("error_drift", ctypes.c_double),
                ("min_logphi", ctypes.c_double),
                ("max_abs_drift", ctypes.c_double)]


def _build(lib: Path) -> str | None:
    """Compile `_kernel.c` into `lib` and delete the libraries built from
    other sources; returns why it failed, or None."""
    # imported here: a cache hit, every process after the first, needs none
    import shlex
    import shutil
    import subprocess
    import sysconfig

    cc = (shlex.split(os.environ.get("CC", ""))
          or shlex.split(sysconfig.get_config_var("CC") or "cc"))
    if shutil.which(cc[0]) is None:
        return f"compiler {cc[0]!r} not found"
    tmp = lib.with_name(f"{lib.name}.{os.getpid()}.tmp")
    try:
        lib.parent.mkdir(exist_ok=True)
        proc = subprocess.run(
            [*cc, *_CFLAGS, "-o", str(tmp), str(_SOURCE), *_LIBS],
            capture_output=True, text=True)
        if proc.returncode != 0:
            lines = proc.stderr.strip().splitlines()
            return "compile failed: " + (
                lines[0] if lines else f"exit {proc.returncode}")
        os.replace(tmp, lib)
    except OSError as exc:
        return f"cannot build {lib}: {exc}"
    finally:
        tmp.unlink(missing_ok=True)
    for stale in lib.parent.glob("_kernel-*.so"):   # built from older sources
        if stale != lib:
            try:
                stale.unlink()
            except OSError:
                pass
    return None


@functools.cache
def _compiled():
    """((run, format_rows) or None, reason); builds the library on first
    use."""
    # binascii, unlike hashlib, is loaded at interpreter start; an edit
    # keeps the CRC-32, and so a stale library, only by a 2**-32 chance
    try:
        key = binascii.crc32(_SOURCE.read_bytes()
                             + " ".join(_CFLAGS + _LIBS).encode())
    except OSError as exc:
        return None, f"cannot read {_SOURCE}: {exc}"
    lib = _SOURCE.parent / "__pycache__" / f"_kernel-{key:08x}.so"
    verb = "loaded"
    if not lib.exists():
        failure = _build(lib)
        if failure is not None:
            return None, failure
        verb = "built"
    try:
        return _bind(ctypes.CDLL(str(lib))), f"{verb} {lib}"
    except OSError as exc:
        return None, f"cannot load {lib}: {exc}"


@functools.cache
def _pow10_table() -> array:
    """The table `shortest` in _kernel.c reads: for k = -324..292, g(k) =
    floor(10^-k 2^-r) + 1 with 2^125 <= 10^-k 2^-r < 2^126, as the pair
    (g >> 63, g mod 2^63)."""
    table = array("Q")
    for k in range(-324, 293):
        p = 10 ** abs(k)
        if k <= 0:
            r = p.bit_length() - 126
            g = (p >> r if r >= 0 else p << -r) + 1
        else:
            g = (1 << 125 + p.bit_length()) // p + 1
        table.extend((g >> 63, g & (1 << 63) - 1))
    return table


def _bind(lib):
    """Wrap the C entry points in the calling conventions of
    `_kernel_py.run` and `_kernel_py.format_rows`."""
    ptr = ctypes.c_void_p
    c_run = lib.vq_run
    c_run.restype = ctypes.c_int
    c_run.argtypes = [
        ctypes.c_int, ptr, ptr, ctypes.c_longlong, ctypes.c_double,
        ctypes.c_int, ptr, ctypes.c_int, ptr, ctypes.c_longlong, ptr,
        ctypes.c_longlong, ctypes.c_int, ptr, ptr, ptr, ptr, ptr, ptr, ptr,
        ctypes.POINTER(_Result),
    ]
    c_free = lib.vq_free
    c_free.restype = None
    c_free.argtypes = [ptr]
    c_format = lib.vq_format
    c_format.restype = ctypes.c_longlong
    c_format.argtypes = [ctypes.c_longlong, ctypes.c_int,
                         ctypes.POINTER(_Column), ptr, ptr]

    def run(m, a, logx0, steps, log_eps, coord_obs, mono_obs, checkpoints,
            stride, want_phi):
        """Same contract as volqso._kernel_py.run."""
        rows = (*a, *mono_obs, logx0)
        if not 1 <= m <= _MAX_M or len(a) != m or any(
                len(row) != m for row in rows):
            raise ValueError(f"matrix, exponent and start rows need m={m} "
                             f"entries, with m in 1..{_MAX_M}")
        if any(not 0 <= i < m for i in coord_obs):
            raise ValueError(f"coordinate index outside 0..{m - 1}")
        if steps < 0 or stride < 1:
            raise ValueError(f"steps={steps}, stride={stride}")
        if want_phi and m != 4:
            raise ValueError("the shrinkage observable needs m == 4")
        cp = list(checkpoints)
        n_coord, n_mono, n_cp = len(coord_obs), len(mono_obs), len(cp)
        n_obs = n_coord + n_mono
        n_trace = (steps - 1) // stride + 2    # steps 0, stride, ..., steps
        # One array per dtype for the inputs and one for the double outputs;
        # the C function gets pointers to consecutive segments.  Plain
        # arrays keep the fixed cost of a call low.
        f_in = array("d", [v for row in rows for v in row])
        i_in = array("q", [*coord_obs, *cp])
        sizes = (n_cp * n_obs, n_trace * m, n_trace, n_trace * n_mono, m,
                 2 * n_obs + n_mono)
        lo = [0, *itertools.accumulate(sizes)]
        f_out = array("d", [0.0]) * lo[-1]
        tr_steps = array("q", [0]) * n_trace
        fi, ii, fo = (b.buffer_info()[0] for b in (f_in, i_in, f_out))
        res = _Result()
        if c_run(m, fi, fi + 8 * m * (m + n_mono), steps, log_eps, n_coord,
                 ii, n_mono, fi + 8 * m * m, n_cp, ii + 8 * n_coord, stride,
                 bool(want_phi), tr_steps.buffer_info()[0],
                 *(fo + 8 * b for b in lo[:-1]), ctypes.byref(res)):
            raise MemoryError("trajectory kernel allocation failed")
        events = []
        if res.n_events:
            try:
                events = list(_EVENT.iter_unpack(ctypes.string_at(
                    res.events, res.n_events * _EVENT.size)))
            finally:
                c_free(res.events)
        error = None
        if res.error_kind == 1:
            error = ("degenerate", res.error_step)
        elif res.error_kind == 2:
            error = ("breakdown", res.error_step, res.error_drift)
        n_done, tr = res.n_checkpoints, res.n_trace
        del tr_steps[tr:]
        return {
            "checkpoints": cp[:n_done],
            "cesaro": f_out[lo[0]:lo[0] + n_done * n_obs],
            "events": events,
            "trace_steps": tr_steps,
            "trace_logx": f_out[lo[1]:lo[1] + tr * m],
            "trace_logphi": f_out[lo[2]:lo[2] + tr],
            "trace_mono": f_out[lo[3]:lo[3] + tr * n_mono],
            "min_logphi": res.min_logphi,
            "final_logx": f_out[lo[4]:lo[4] + m].tolist(),
            "max_abs_drift": res.max_abs_drift,
            "error": error,
        }

    def format_rows(n_rows, columns):
        """Same contract as volqso._kernel_py.format_rows, with each
        column's values an array('q') (op "") or an array('d')."""
        if n_rows < 1 or not columns:
            raise ValueError(f"{n_rows} rows of {len(columns)} columns")
        cols = (_Column * len(columns))()
        size = n_rows
        for col, (values, start, stride, op) in zip(cols, columns):
            kind = getattr(values, "typecode", None)
            if kind not in ("q", "d") or op not in _OPS or (kind == "q"
                                                            and op):
                raise TypeError(f"format_rows cannot write {op!r} of "
                                f"{type(values).__name__} {kind!r}")
            if start < 0 or stride < 1 or \
                    start + (n_rows - 1) * stride >= len(values):
                raise ValueError(f"{len(values)} values do not fill {n_rows} "
                                 f"rows from {start} by {stride}")
            col.data = values.buffer_info()[0] + values.itemsize * start
            col.stride = stride
            col.op = _OPS[op] if kind == "d" else 0
            size += n_rows * (_FLOAT_BYTES if kind == "d" else _INT_BYTES)
        out = ctypes.create_string_buffer(size)
        size = c_format(n_rows, len(columns), cols,
                        _pow10_table().buffer_info()[0], out)
        return ctypes.string_at(out, size)

    return run, format_rows


def available_backends() -> tuple[str, ...]:
    if _compiled()[0] is not None:
        return ("compiled", "python")
    return ("python",)


def _functions(name: str):
    """(run, format_rows) of backend `name`."""
    if name == "python":
        from . import _kernel_py

        return _kernel_py.run, _kernel_py.format_rows
    if name == "compiled":
        functions, reason = _compiled()
        if functions is None:
            raise KernelUnavailable(
                f"compiled trajectory kernel unavailable: {reason}; install "
                "a C compiler (or set CC), or set VOLQSO_KERNEL=python")
        return functions
    raise KernelUnavailable(f"unknown kernel backend {name!r}")


def get_kernel(name: str):
    return _functions(name)[0]


def get_formatter(name: str):
    return _functions(name)[1]


def _select():
    choice = os.environ.get("VOLQSO_KERNEL", "auto").strip().lower()
    if choice == "python":
        return (_functions("python"), "python",
                "forced by VOLQSO_KERNEL=python")
    if choice == "compiled":
        return (_functions("compiled"), "compiled",
                f"forced by VOLQSO_KERNEL=compiled; {_compiled()[1]}")
    if choice not in ("", "auto"):
        raise KernelUnavailable(
            f"VOLQSO_KERNEL={choice!r}; expected auto, python or compiled")
    functions, reason = _compiled()
    if functions is None:
        return _functions("python"), "python", reason
    return functions, "compiled", reason


(run, format_rows), BACKEND, BACKEND_REASON = _select()
