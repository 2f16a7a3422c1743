"""The benchmark in perfbench/ reaches into the package by name; a rename
there must fail here rather than silently zero a per-layer metric.  The
perfbench files are only read and imported, never changed."""

import importlib
import importlib.util
from pathlib import Path

import pytest

import volqso.cli
from volqso.ergodic import MonomialObservable, TrajectoryConfig, run_trajectory
from volqso.kernel import available_backends

PERFBENCH = Path(__file__).resolve().parents[1] / "perfbench"


def load_tracing():
    spec = importlib.util.spec_from_file_location(
        "perfbench_tracing", PERFBENCH / "tracing.py")
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def load_run(monkeypatch):
    # run.py imports its sibling modules tracing and workloads by name
    monkeypatch.syspath_prepend(str(PERFBENCH))
    spec = importlib.util.spec_from_file_location(
        "perfbench_run", PERFBENCH / "run.py")
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


@pytest.mark.skipif("compiled" not in available_backends(),
                    reason="compiled kernel not built")
def test_benchmark_kernel_parity_passes(monkeypatch):
    # the benchmark compares the two backends' result dicts with ==, so a
    # container type one backend alone changes (array against list) fails
    # it even when every value agrees
    status, _ = load_run(monkeypatch).kernel_parity(volqso,
                                                   with_speeds=False)
    assert status.startswith("passed"), status


def test_every_traced_function_resolves():
    # Tracer.__enter__ skips an entry that does not resolve
    for module, attr, _ in load_tracing().TRACED:
        assert callable(getattr(importlib.import_module(module), attr, None)), \
            f"{module}.{attr}"


def test_run_trajectory_work_count(all_half, generic_start4):
    tracing = load_tracing()
    cfg = TrajectoryConfig(all_half, generic_start4, 2000, record_stride=100)
    result = run_trajectory(cfg, [MonomialObservable((1 / 3, 0, 1 / 3, 1 / 3),
                                                     name="F")])
    work = tracing._work_count("ergodic.run_trajectory", (cfg,), result)
    assert work == {"steps": 2000, "trace_rows": len(result.trace_steps),
                    "sojourn_events": len(result.sojourn.events)}


def test_names_the_benchmark_calls_exist():
    # perfbench/library.py and perfbench/run.py
    for name in ("qso.raw_volterra_image", "kernel.get_kernel",
                 "kernel.available_backends", "dyadic_checkpoints",
                 "vertex_constraint_values", "random_skew_matrix", "validate",
                 "apply_volterra", "apply_volterra_log", "classify",
                 "all_fixed_points", "synthesize", "SkewMatrix", "cli.main"):
        obj = volqso
        for part in name.split("."):
            obj = getattr(obj, part, None)
        assert callable(obj), name
