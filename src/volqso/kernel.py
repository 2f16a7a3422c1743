"""Kernel backend selection: the trajectory kernel, the CSV row formatter
and the one-step Volterra maps.

Two backends produce bit-identical results: the pure-Python reference and
its port to C, `_kernel.c`.  Each provides the trajectory kernel `run` and
`format_rows`, the formatter of CSV body rows (in Python from
`volqso._kernel_py`), and the one-step maps that `qso.raw_volterra_image`,
`apply_volterra` and `apply_volterra_log` bind at their first call (in
Python from `qso`).  The C file is a CPython extension module, compiled on
first use with `$CC` (default: the compiler Python was built with) and
Python's include directory into the package's `__pycache__/`, under a name
keyed on the CRC-32 of the source, the flags, the include directory and
`EXT_SUFFIX`, and loaded through importlib; later imports load the cached
module without starting a process, and a build deletes the modules built
from other sources.  Without a working compiler, Python's header
`Python.h` or a writable `__pycache__/` the pure-Python backend takes over.

BACKEND names the selected backend and BACKEND_REASON says why.  Set
VOLQSO_KERNEL=python|compiled to force a backend for all four functions.
Any other value, or forcing `compiled` where the module cannot be built,
makes loading this module raise `KernelUnavailable` (a `ValidationError`
and an `ImportError`) with the reason, so the CLI exits 2.
"""

from __future__ import annotations

import binascii
import functools
import itertools
import os
import struct
from array import array
from pathlib import Path

from .errors import KernelUnavailable

_SOURCE = Path(__file__).with_name("_kernel.c")
# -ffp-contract=off: the pure-Python kernel is the bit-for-bit reference;
# fused multiply-adds would break kernel parity.  -DNDEBUG drops the asserts
# of Python's headers, as in the extensions Python's own build compiles.
_CFLAGS = ("-O3", "-ffp-contract=off", "-DNDEBUG", "-fPIC", "-shared")
_LIBS = ("-lm",)
_MAX_M = 4          # MAX_M in _kernel.c: the size of its per-step arrays
_EVENT = struct.Struct("qqqdq")   # vq_event in _kernel.c


def _build(lib: Path, include: str) -> str | None:
    """Compile `_kernel.c` into `lib` against the headers in `include` and
    delete the modules built from other sources; returns why it failed, or
    None."""
    # imported here: a cache hit, every process after the first, needs none
    import shlex
    import shutil
    import subprocess
    import sysconfig

    cc = (shlex.split(os.environ.get("CC", ""))
          or shlex.split(sysconfig.get_config_var("CC") or "cc"))
    if shutil.which(cc[0]) is None:
        return f"compiler {cc[0]!r} not found"
    header = Path(include, "Python.h")
    if not header.is_file():
        return f"Python header {header} not found"
    tmp = lib.with_name(f"{lib.name}.{os.getpid()}.tmp")
    try:
        lib.parent.mkdir(exist_ok=True)
        proc = subprocess.run(
            [*cc, *_CFLAGS, f"-I{include}", "-o", str(tmp), str(_SOURCE),
             *_LIBS], capture_output=True, text=True)
        if proc.returncode != 0:
            lines = proc.stderr.strip().splitlines()
            return "compile failed: " + (
                lines[0] if lines else f"exit {proc.returncode}")
        os.replace(tmp, lib)
    except OSError as exc:
        return f"cannot build {lib}: {exc}"
    finally:
        tmp.unlink(missing_ok=True)
    # built from other sources, flags, headers or for another EXT_SUFFIX;
    # a build in progress in another process is left alone
    for stale in lib.parent.glob("_kernel-*"):
        if stale != lib and not stale.name.endswith(".tmp"):
            try:
                stale.unlink()
            except OSError:
                pass
    return None


@functools.cache
def _compiled():
    """((run, format_rows, image, log_map) or None, reason); builds the
    extension module on first use."""
    import importlib.machinery
    import importlib.util
    import sysconfig

    include = sysconfig.get_paths()["include"]
    suffix = sysconfig.get_config_var("EXT_SUFFIX")
    # binascii, unlike hashlib, is loaded at interpreter start; an edit
    # keeps the CRC-32, and so a stale module, only by a 2**-32 chance
    try:
        key = binascii.crc32(_SOURCE.read_bytes() + "\0".join(
            (*_CFLAGS, *_LIBS, include, suffix)).encode())
    except OSError as exc:
        return None, f"cannot read {_SOURCE}: {exc}"
    lib = _SOURCE.parent / "__pycache__" / f"_kernel-{key:08x}{suffix}"
    verb = "loaded"
    if not lib.exists():
        failure = _build(lib, include)
        if failure is not None:
            return None, failure
        verb = "built"
    name = f"{__package__}._kernel"
    loader = importlib.machinery.ExtensionFileLoader(name, str(lib))
    try:
        module = importlib.util.module_from_spec(
            importlib.util.spec_from_loader(name, loader))
        loader.exec_module(module)
    except ImportError as exc:
        return None, f"cannot load {lib}: {exc}"
    return _bind(module), f"{verb} {lib}"


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


def _bind(ext):
    """The functions of the extension module `ext` in the calling
    conventions of `_kernel_py.run`, `_kernel_py.format_rows`,
    `qso._image_py` and `qso._log_map_py`; the one-step maps return None
    where the Python ones must run instead."""
    c_run, c_format = ext.run, ext.format_rows

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
        # One array per dtype for the inputs and one for the double
        # outputs, laid out as the module's run reads them.  Plain arrays
        # keep the fixed cost of a call low.
        f_in = array("d", [v for row in rows for v in row])
        i_in = array("q", [*coord_obs, *cp])
        sizes = (n_cp * n_obs, n_trace * m, n_trace, n_trace * n_mono, m,
                 2 * n_obs + n_mono)
        lo = [0, *itertools.accumulate(sizes)]
        f_out = array("d", [0.0]) * lo[-1]
        tr_steps = array("q", [0]) * n_trace
        n_done, tr, events, error_kind, error_step, error_drift, \
            min_logphi, max_abs_drift = c_run(
                m, f_in, i_in, f_out, tr_steps, steps, log_eps, n_coord,
                n_mono, n_cp, stride, bool(want_phi))
        error = None
        if error_kind == 1:
            error = ("degenerate", error_step)
        elif error_kind == 2:
            error = ("breakdown", error_step, error_drift)
        del tr_steps[tr:]
        return {
            "checkpoints": cp[:n_done],
            "cesaro": f_out[lo[0]:lo[0] + n_done * n_obs],
            "events": list(_EVENT.iter_unpack(events)),
            "trace_steps": tr_steps,
            "trace_logx": f_out[lo[1]:lo[1] + tr * m],
            "trace_logphi": f_out[lo[2]:lo[2] + tr],
            "trace_mono": f_out[lo[3]:lo[3] + tr * n_mono],
            "min_logphi": min_logphi,
            "final_logx": f_out[lo[4]:lo[4] + m].tolist(),
            "max_abs_drift": max_abs_drift,
            "error": error,
        }

    def format_rows(n_rows, columns):
        """Same contract as volqso._kernel_py.format_rows, with each
        column's values an array('q') (op "") or an array('d')."""
        return c_format(n_rows, columns, _pow10_table())

    return run, format_rows, ext.volterra_image, ext.volterra_log_map


def available_backends() -> tuple[str, ...]:
    if _compiled()[0] is not None:
        return ("compiled", "python")
    return ("python",)


def _functions(name: str):
    """(run, format_rows, image, log_map) of backend `name`."""
    if name == "python":
        from . import _kernel_py
        from .qso import _image_py, _log_map_py

        return (_kernel_py.run, _kernel_py.format_rows, _image_py,
                _log_map_py)
    if name == "compiled":
        functions, reason = _compiled()
        if functions is None:
            raise KernelUnavailable(
                f"compiled trajectory kernel unavailable: {reason}; install "
                "a C compiler (or set CC) and Python's headers, or set "
                "VOLQSO_KERNEL=python")
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


# _image and _log_map are the one-step maps that qso binds
(run, format_rows, _image, _log_map), BACKEND, BACKEND_REASON = _select()
