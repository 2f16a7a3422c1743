"""Start-up footprint: which volqso submodules, and which of numpy, scipy
and a few standard-library packages, each command loads.  No command loads
`dataclasses` or `inspect`: the records generate no code at import.

Each case runs in a fresh interpreter, so what other tests imported does not
count.  The package re-exports its names lazily and the CLI imports each
subsystem inside the command or parse reader that uses it.  No module of
the package imports numpy or scipy: every command, random starts included,
and every library function run with numpy blocked, and the commands write
the same bytes with numpy blocked as without."""

import ast
import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

import volqso
from volqso import kernel
from volqso.cli import main

PKG_PARENT = str(Path(volqso.__file__).resolve().parents[1])
PROBE = """\
import json, sys
{body}
print(json.dumps([sorted(set(sys.modules) & {names!r}),
                  sorted(name for name in sys.modules
                         if name.startswith("volqso."))]))
"""
ALL_HALF_ROWS = [[0, 0.5, 0.5, -0.5], [-0.5, 0, 0.5, 0.5],
                 [-0.5, -0.5, 0, 0.5], [0.5, -0.5, -0.5, 0]]
# explicit starts only; the all-1/2 cyclic matrix is non-singular (Pf -1/4)
CONFIG = {
    "matrix": ALL_HALF_ROWS,
    "starts": {"points": [[0.4, 0.3, 0.2, 0.1]]},
    "steps": 2000,
    "verify": {"steps": 2000},
}
M3 = [[0, 0.5, -0.3], [-0.5, 0, 0.7], [0.3, -0.7, 0]]
# u v^T - v u^T with u = (1, -1, 0, 0) / 2, v = (0, 0, 1, -1) / 2: Pf 0
SINGULAR = [[0, 0, 0.25, -0.25], [0, 0, -0.25, 0.25],
            [-0.25, 0.25, 0, 0], [0.25, -0.25, 0, 0]]
# a zero skew entry: the edge {1, 2} is a continuum of fixed points
DEGENERATE_EDGE = [[0, 0, 0.5, -0.5], [0, 0, 0.5, 0.5],
                   [-0.5, -0.5, 0, 0.5], [0.5, -0.5, -0.5, 0]]
LIBS = frozenset({"concurrent.futures", "ctypes", "dataclasses", "fractions",
                  "hashlib", "inspect", "logging", "numpy", "scipy"})
CORE = ["classify", "errors", "qso", "simplex"]     # what `import volqso` loads
# the selected backend: the compiled module, or the pure-Python kernel
BACKEND = ["kernel", "_kernel" if kernel.BACKEND == "compiled"
           else "_kernel_py"]
KERNEL = ["ergodic", *BACKEND]      # what runs a trajectory


def probe(body: str, names, **env):
    """Run `body` in a fresh interpreter that imports volqso from the
    package under test, with `env` added to the environment and
    VOLQSO_LOG unset unless given; the process, after it exits 0."""
    base = {k: v for k, v in os.environ.items() if k != "VOLQSO_LOG"}
    proc = subprocess.run(
        [sys.executable, "-c", PROBE.format(body=body, names=set(names))],
        env=dict(base, PYTHONPATH=PKG_PARENT, **env),
        capture_output=True, text=True, timeout=300)
    assert proc.returncode == 0, proc.stderr
    return proc


def footprint(body: str, names=frozenset({"numpy", "scipy"})):
    """(the modules of `names`, the volqso submodules without the package
    prefix) in sys.modules after `body` runs (see probe)."""
    libs, submodules = json.loads(
        probe(body, names).stdout.splitlines()[-1])
    return libs, [name.removeprefix("volqso.") for name in submodules]


def loaded(body: str) -> list:
    """numpy and scipy, where loaded, after `body` (see footprint)."""
    return footprint(body)[0]


def command_body(command: str, cfg: Path, out: Path) -> str:
    argv = [command, "--config", str(cfg), "--out", str(out)]
    return f"from volqso.cli import main\nassert main({argv!r}) == 0"


def run_command(command: str, cfg: Path, out: Path) -> list:
    return loaded(command_body(command, cfg, out))


@pytest.fixture
def cfg(tmp_path):
    path = tmp_path / "cfg.json"
    path.write_text(json.dumps(CONFIG))
    return path


def test_import_loads_neither():
    # nor the kernel, ergodic or any of LIBS
    assert footprint("import volqso", LIBS) == ([], CORE)
    assert footprint("import volqso, volqso.cli", LIBS) == (
        [], sorted(CORE + ["cli"]))


def test_one_step_maps_load_the_cached_backend():
    # the one-step maps run on the selected backend, which the suite's
    # process has built: loading it starts no compiler's subprocess
    body = ("import volqso\n"
            "a = volqso.skew3(0.5, -1.0, 0.25)\n"
            "x = volqso.SimplexPoint((0.5, 0.0, 0.5))\n"
            "volqso.apply_volterra(a, x)\n"
            "volqso.apply_volterra_log(a, x.to_log())")
    assert footprint(body, LIBS | {"subprocess"}) == (
        [], sorted(CORE + BACKEND))


def test_no_module_imports_ctypes():
    for path in Path(volqso.__file__).parent.glob("*.py"):
        for node in ast.walk(ast.parse(path.read_text())):
            if isinstance(node, ast.Import):
                names = [alias.name for alias in node.names]
            elif isinstance(node, ast.ImportFrom):
                names = [node.module or ""]
            else:
                continue
            assert not any(name.split(".")[0] == "ctypes"
                           for name in names), path.name


def test_synthesize_loads_no_fractions():
    # the exact LP runs on integers: no Fraction, and no Decimal; a tied
    # optimum, an infeasible one and an m=4 one
    body = ("import volqso\n"
            "from volqso import SkewMatrix, random_skew_matrix, synthesize\n"
            "synthesize(SkewMatrix([[0, 0, -0.75], [0, 0, -0.25],"
            " [0.75, 0.25, 0]]))\n"
            "assert synthesize(SkewMatrix.zero(3)) is None\n"
            "assert synthesize(random_skew_matrix(4, 7)) is not None")
    assert footprint(body, LIBS | {"decimal", "numbers"}) == (
        [], sorted(CORE + ["lyapunov", "sampling"]))


@pytest.mark.parametrize("command,expected", [
    ("classify", []),
    ("simulate", []),
    ("fixed-points", []),
])
def test_command_footprint(tmp_path, cfg, command, expected):
    out = tmp_path / "out"
    assert run_command(command, cfg, out) == expected
    assert any(out.iterdir())


def test_fixed_points_on_singular_matrix_loads_no_numpy(tmp_path):
    # Pf 0, so the interior kernel branch runs and its 3x3 in-face
    # spectrum is found in integer arithmetic
    path = tmp_path / "cfg.json"
    path.write_text(json.dumps({"matrix": SINGULAR}))
    out = tmp_path / "out"
    assert footprint(command_body("fixed-points", path, out), LIBS) == (
        [], sorted(CORE + ["cli", "fixed_points"]))
    assert json.loads((out / "fixed_points.json").read_text())[
        "degenerate_interior"]


@pytest.mark.parametrize("matrix", [
    ALL_HALF_ROWS, M3, SINGULAR, DEGENERATE_EDGE, [[0] * 4] * 4],
    ids=["all-half", "m3", "singular", "degenerate-edge", "zero"])
def test_fixed_points_bytes_with_numpy_blocked(tmp_path, matrix):
    # what `fixed-points` writes depends on no numpy or BLAS build
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps({"matrix": matrix}))
    blocked, ordinary = tmp_path / "blocked", tmp_path / "ordinary"
    body = 'sys.modules["numpy"] = None\n' + command_body(
        "fixed-points", cfg, blocked)
    footprint(body)     # exits 0: an import of numpy would have raised
    assert main(["fixed-points", "--config", str(cfg), "--out",
                 str(ordinary)]) == 0
    assert (blocked / "fixed_points.json").read_bytes() == (
        ordinary / "fixed_points.json").read_bytes()


# random starts: all of them for simulate, the first as lyapunov's fallback
RANDOM_STARTS = dict(CONFIG, starts={"count": 3, "seed": 1})


@pytest.mark.parametrize("command,config", [
    ("simulate", RANDOM_STARTS),
    ("lyapunov", dict(RANDOM_STARTS, verify={"steps": 2000})),
], ids=["simulate", "lyapunov"])
def test_random_starts_bytes_with_numpy_blocked(tmp_path, command, config):
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps(config))
    blocked, ordinary = tmp_path / "blocked", tmp_path / "ordinary"
    footprint('sys.modules["numpy"] = None\n'
              + command_body(command, cfg, blocked))
    assert main([command, "--config", str(cfg), "--out", str(ordinary)]) == 0
    files = sorted(p.relative_to(ordinary) for p in ordinary.rglob("*")
                   if p.is_file())
    assert files == sorted(p.relative_to(blocked) for p in blocked.rglob("*")
                           if p.is_file())
    for name in files:
        assert (blocked / name).read_bytes() == (ordinary / name).read_bytes()


LIBRARY_CHECK = """\
sys.modules["numpy"] = None
from volqso import (apply_qso, apply_volterra, interior_points, is_volterra,
                    random_canonical_matrix, random_skew_matrix, skewize,
                    to_skew_matrix, to_tensor)
from volqso.lyapunov import LogGainMatrix
a = random_skew_matrix(4, 2 ** 70)
x = interior_points(4, 1, 5)[0]
t = to_tensor(a)
assert is_volterra(t)
assert all(abs(u - v) < 1e-15 for u, v in zip(apply_qso(t, x).coords,
                                             apply_volterra(a, x).coords))
assert to_skew_matrix(t) == skewize([list(r) for r in a.rows]) == a
random_canonical_matrix(3)
assert not hasattr(a, "as_array") and not hasattr(LogGainMatrix, "as_array")
"""


def test_library_runs_with_numpy_blocked():
    footprint(LIBRARY_CHECK)


def test_no_runtime_dependency_on_numpy_or_scipy():
    tomllib = pytest.importorskip("tomllib")
    with open(Path(__file__).parents[1] / "pyproject.toml", "rb") as fh:
        project = tomllib.load(fh)["project"]
    named = " ".join(project["dependencies"]).lower()
    assert "numpy" not in named and "scipy" not in named
    assert any(dep.startswith("numpy")
               for dep in project["optional-dependencies"]["test"])


def test_classify_draws_no_random_starts(tmp_path):
    # classify reads no start, so the random ones a config asks for are
    # not drawn
    path = tmp_path / "cfg.json"
    path.write_text(json.dumps({"matrix": ALL_HALF_ROWS, "steps": 1,
                                "starts": {"count": 100_000, "seed": 1}}))
    assert run_command("classify", path, tmp_path / "out") == []


def test_lyapunov_loads_neither_and_writes_same_bytes(tmp_path, cfg):
    fresh, warm = tmp_path / "fresh", tmp_path / "warm"
    assert run_command("lyapunov", cfg, fresh) == []
    assert main(["lyapunov", "--config", str(cfg), "--out", str(warm)]) == 0
    payload = (fresh / "lyapunov.json").read_bytes()
    assert payload == (warm / "lyapunov.json").read_bytes()
    assert json.loads(payload)["verify"]["verdict"] == "decaying"



# cli-cold-style configs (the matrix alone, or with a Lyapunov check), and
# CONFIG
@pytest.mark.parametrize("command,config,libs,submodules", [
    ("classify", {"matrix": ALL_HALF_ROWS}, [], ["cli"]),
    # `steps` is checked by building a run's settings: ergodic, no kernel
    ("classify", CONFIG, [], ["cli", "ergodic"]),
    ("fixed-points", {"matrix": ALL_HALF_ROWS}, [], ["cli", "fixed_points"]),
    ("fixed-points", {"matrix": M3}, [], ["cli", "fixed_points"]),
    ("lyapunov", {"matrix": ALL_HALF_ROWS, "verify": {
        "start": [0.4, 0.3, 0.2, 0.1], "steps": 2000}}, [],
     ["cli", "lyapunov", *KERNEL]),
    ("lyapunov", {"matrix": M3, "verify": {"start": [0.5, 0.3, 0.2],
                                           "steps": 2000}},
     [], ["cli", "lyapunov", *KERNEL]),
    # simulate imports logging only when VOLQSO_LOG is set (below); one
    # start runs on the calling thread
    ("simulate", CONFIG, [], ["cli", *KERNEL]),
    ("simulate", dict(CONFIG, starts={"count": 3, "seed": 1}), [],
     ["cli", "sampling", *KERNEL]),
    ("lyapunov", {"matrix": ALL_HALF_ROWS, "verify": {"steps": 2000},
                  "starts": {"count": 3, "seed": 1}}, [],
     ["cli", "lyapunov", "sampling", *KERNEL]),
], ids=["classify", "classify-steps", "fixed-points", "fixed-points-m3",
        "lyapunov", "lyapunov-m3", "simulate", "simulate-random-starts",
        "lyapunov-random-start"])
def test_command_module_footprint(tmp_path, command, config, libs,
                                  submodules):
    path = tmp_path / "cfg.json"
    path.write_text(json.dumps(config))
    out = tmp_path / "out"
    assert footprint(command_body(command, path, out), LIBS) == (
        libs, sorted(CORE + submodules))
    assert any(out.iterdir())


def test_thread_pool_loaded_only_to_run_starts_in_parallel(tmp_path):
    # two starts on two workers: threads only where they can overlap, and
    # plain ones, since concurrent.futures imports logging
    path = tmp_path / "cfg.json"
    path.write_text(json.dumps(dict(CONFIG, workers=2, starts={"points": [
        [0.4, 0.3, 0.2, 0.1], [0.1, 0.2, 0.3, 0.4]]})))
    count_starts = (
        "import threading\nstarted = []\nstart = threading.Thread.start\n"
        "threading.Thread.start = lambda t: (started.append(t), start(t))\n")
    proc = probe(count_starts + command_body("simulate", path,
                                             tmp_path / "out")
                 + "\nprint(len(started))", LIBS)
    started, libs = proc.stdout.splitlines()[-2:]
    threads = kernel.BACKEND == "compiled" and (os.cpu_count() or 1) > 1
    assert int(started) == (2 if threads else 0)
    assert json.loads(libs)[0] == []


@pytest.mark.parametrize("level,logged", [("info", True), ("warning", False)])
def test_simulate_sets_up_logging_when_asked(tmp_path, cfg, level, logged):
    # VOLQSO_LOG set: simulate imports logging and, at info, logs its one
    # line to stderr; unset (every case above), logging is never imported
    out = tmp_path / "out"
    proc = probe(command_body("simulate", cfg, out), LIBS, VOLQSO_LOG=level)
    libs, _ = json.loads(proc.stdout.splitlines()[-1])
    assert libs == ["logging"]
    if logged:      # the reason names the library that process loaded
        assert proc.stderr.startswith(
            "INFO volqso: simulate: 1 starts, 2000 steps, "
            f"backend={kernel.BACKEND} (")
        assert proc.stderr.count("\n") == 1
    else:
        assert proc.stderr == ""
    assert any(out.iterdir())


# Every public name and the module that defines it, as `volqso/__init__`
# imported them eagerly before its names became lazy.
PUBLIC = {
    "classify": "CanonicalParams ClassReport VolterraClass classify "
                "invariant_i matrix_from_canonical pfaffian4",
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
}
PUBLIC_API_CHECK = f"""\
import importlib
import volqso

# submodules resolve on the package itself, as the benchmark reads them
assert volqso.kernel.BACKEND in ("compiled", "python")
assert callable(volqso.qso.raw_volterra_image)
assert callable(volqso.cli.main)
# `classify` is the function, not its submodule
report = volqso.classify(volqso.SkewMatrix({ALL_HALF_ROWS!r}))
assert isinstance(report, volqso.ClassReport), report
names = []
for module, listed in {PUBLIC!r}.items():
    home = importlib.import_module("volqso." + module)
    for name in listed.split():
        assert getattr(volqso, name) is getattr(home, name), name
        names.append(name)
assert len(names) == 68
assert sorted(volqso.__all__) == sorted(names), volqso.__all__
assert set(names) <= set(dir(volqso))
assert volqso.__version__ == "0.1.0"
for missing in ("no_such_name", "_kernel", "scipy"):
    try:
        getattr(volqso, missing)
    except AttributeError:
        pass
    else:
        raise AssertionError(missing)
"""


def test_public_api_after_bare_import():
    footprint(PUBLIC_API_CHECK)
