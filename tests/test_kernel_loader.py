"""First-import build, cache reuse and quiet fallback of the compiled kernel
(a CPython extension module).

Each test imports a copy of the package in a fresh interpreter, so builds go
to the copy's own __pycache__/ and never touch the package under test."""

import os
import re
import shlex
import shutil
import subprocess
import sys
import sysconfig
from pathlib import Path

import pytest

import volqso
from volqso import kernel

PROBE = "import volqso.kernel as k; print(k.BACKEND); print(k.BACKEND_REASON)"
DEFAULT_CC = shlex.split(sysconfig.get_config_var("CC") or "cc")[0]
INCLUDE = sysconfig.get_paths()["include"]
EXT_SUFFIX = sysconfig.get_config_var("EXT_SUFFIX")
# runs before PROBE: Python's include directory and EXT_SUFFIX as the
# loader reads them, set to `include` and `suffix`
SYSCONFIG_AS = """\
import sysconfig
paths = sysconfig.get_paths
sysconfig.get_paths = lambda *a, **k: dict(paths(*a, **k), include={include!r})
sysconfig.get_config_vars()["EXT_SUFFIX"] = {suffix!r}
"""


@pytest.fixture
def pkg_root(tmp_path):
    shutil.copytree(Path(volqso.__file__).parent, tmp_path / "volqso",
                    ignore=shutil.ignore_patterns("__pycache__"))
    return tmp_path


def probe(root, prelude="", **env):
    """Import the copy under `root` in a fresh interpreter, after running
    `prelude`; `env` entries set (str) or unset (None) environment
    variables."""
    full = dict(os.environ, PYTHONPATH=str(root))
    full.pop("VOLQSO_KERNEL", None)
    for key, value in env.items():
        if value is None:
            full.pop(key, None)
        else:
            full[key] = value
    return subprocess.run([sys.executable, "-c", prelude + PROBE], env=full,
                          capture_output=True, text=True, timeout=300)


def libraries(root):
    return sorted((root / "volqso" / "__pycache__").iterdir())


needs_cc = pytest.mark.skipif(
    shutil.which(shlex.split(os.environ.get("CC") or DEFAULT_CC)[0]) is None,
    reason="no C compiler")


@needs_cc
def test_first_import_builds_then_reuses(pkg_root):
    # a library built from older sources goes once the new one is built
    stale = pkg_root / "volqso" / "__pycache__" / "_kernel-0000000000000000.so"
    stale.parent.mkdir()
    stale.write_bytes(b"")
    first = probe(pkg_root)
    assert first.returncode == 0, first.stderr
    [lib] = [p for p in libraries(pkg_root) if p.suffix == ".so"]
    assert lib != stale
    assert first.stdout.splitlines() == ["compiled", f"built {lib}"]
    mtime = lib.stat().st_mtime_ns

    # a compiler that does not exist proves the cache hit never runs one
    second = probe(pkg_root, CC=str(pkg_root / "no-such-cc"))
    assert second.returncode == 0, second.stderr
    assert second.stdout.splitlines() == ["compiled", f"loaded {lib}"]
    assert lib.stat().st_mtime_ns == mtime
    assert [p for p in libraries(pkg_root) if p.suffix != ".pyc"] == [lib]


@needs_cc
def test_edited_source_rebuilds_and_drops_old_library(pkg_root):
    first = probe(pkg_root)
    assert first.returncode == 0, first.stderr
    [old] = [p for p in libraries(pkg_root) if p.suffix == ".so"]
    assert re.fullmatch(r"_kernel-[0-9a-f]{8}" + re.escape(EXT_SUFFIX),
                        old.name)

    source = pkg_root / "volqso" / "_kernel.c"
    source.write_text(source.read_text() + "/* edited */\n")
    second = probe(pkg_root)
    assert second.returncode == 0, second.stderr
    [new] = [p for p in libraries(pkg_root) if p.suffix == ".so"]
    assert new != old and not old.exists()
    assert second.stdout.splitlines() == ["compiled", f"built {new}"]


@needs_cc
def test_new_ext_suffix_or_include_dir_rebuilds(pkg_root, tmp_path):
    # either one names a different module: build it, drop the old one
    first = probe(pkg_root)
    assert first.returncode == 0, first.stderr
    [old] = [p for p in libraries(pkg_root) if p.suffix == ".so"]

    suffix = ".other" + EXT_SUFFIX
    second = probe(pkg_root, SYSCONFIG_AS.format(include=INCLUDE,
                                                 suffix=suffix))
    assert second.returncode == 0, second.stderr
    [new] = [p for p in libraries(pkg_root) if p.suffix == ".so"]
    assert new.name.endswith(suffix) and not old.exists()
    assert second.stdout.splitlines() == ["compiled", f"built {new}"]

    # the same headers under another path
    include = tmp_path / "include"
    include.symlink_to(INCLUDE, target_is_directory=True)
    third = probe(pkg_root, SYSCONFIG_AS.format(include=str(include),
                                                suffix=EXT_SUFFIX))
    assert third.returncode == 0, third.stderr
    [last] = [p for p in libraries(pkg_root) if p.suffix == ".so"]
    assert last.name.endswith(EXT_SUFFIX) and last != old
    assert not new.exists()
    assert third.stdout.splitlines() == ["compiled", f"built {last}"]


@needs_cc
def test_no_python_header_falls_back_quietly(pkg_root, tmp_path):
    headerless = SYSCONFIG_AS.format(include=str(tmp_path),
                                     suffix=EXT_SUFFIX)
    reason = f"Python header {tmp_path / 'Python.h'} not found"
    auto = probe(pkg_root, headerless)
    assert auto.returncode == 0, auto.stderr
    assert auto.stderr == ""
    assert auto.stdout.splitlines() == ["python", reason]
    assert not list(pkg_root.glob("volqso/__pycache__/_kernel-*"))

    forced = probe(pkg_root, headerless, VOLQSO_KERNEL="compiled")
    assert forced.returncode == 1
    assert ("KernelUnavailable: compiled trajectory kernel unavailable: "
            f"{reason}") in forced.stderr


@pytest.mark.skipif(os.path.isabs(DEFAULT_CC),
                    reason="default compiler is found without PATH")
def test_no_compiler_falls_back_quietly(pkg_root):
    reason = f"compiler {DEFAULT_CC!r} not found"
    auto = probe(pkg_root, PATH="", CC=None)
    assert auto.returncode == 0
    assert auto.stderr == ""
    assert auto.stdout.splitlines() == ["python", reason]

    forced = probe(pkg_root, PATH="", CC=None, VOLQSO_KERNEL="compiled")
    assert forced.returncode == 1
    assert ("KernelUnavailable: compiled trajectory kernel unavailable: "
            f"{reason}") in forced.stderr


def test_stale_backend_name_rejected(pkg_root):
    # the Cython backend is gone; only auto, python and compiled are accepted
    stale = probe(pkg_root, VOLQSO_KERNEL="cython")
    assert stale.returncode == 1
    assert "VOLQSO_KERNEL='cython'; expected auto, python or compiled" \
        in stale.stderr


@needs_cc
def test_kernel_compiles_without_warnings(tmp_path):
    cc = shlex.split(os.environ.get("CC") or DEFAULT_CC)
    proc = subprocess.run(
        [*cc, *kernel._CFLAGS, f"-I{INCLUDE}", "-Wall", "-Wextra",
         "-Werror", "-o", str(tmp_path / "_kernel.so"), str(kernel._SOURCE),
         *kernel._LIBS], capture_output=True, text=True, timeout=300)
    assert proc.returncode == 0, proc.stderr
