#!/usr/bin/env python3
"""volqso benchmark: one command, four seeded workloads, checked outputs.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1
    python3 perfbench/run.py --smoke

Run from anywhere inside a checkout; the program is imported from `src/` of
the checkout this file sits in, with no install step.  Workloads (defined,
with the reason for each, in perfbench/workloads.py):

  simulate-long   kernel-bound `volqso simulate`
  simulate-dense  output-bound `volqso simulate` (underflow branch, CSV)
  cli-cold        fresh `volqso classify|fixed-points|lyapunov` processes
  library-batch   warm in-process library items

Every workload is a closed loop from one process: the next operation starts
when the previous one ends.  `--trace 0` measures the end-to-end metrics,
`--trace 1` the per-layer metrics from a traced in-process run plus the
tracing overhead against untraced cycles of the same run.  The last line of
standard output is one JSON object {correct, attempted, failed, metrics};
the lines before it name every metric with its unit and sample count, the
machine facts and the kernel backend.  A failed output check exits 1.

`--smoke` runs every workload at tiny sizes in both modes and checks that
every metric in BENCHMARK.json is emitted with its unit and that the traced
runs produce spans for every layer.
"""

from __future__ import annotations

import argparse
import contextlib
import hashlib
import importlib
import io
import json
import math
import os
import platform
import shutil
import statistics
import subprocess
import sys
import threading
import time
from pathlib import Path

import tracing
import workloads as wl
from workloads import WORKLOADS

ROOT = Path(__file__).resolve().parents[1]
SRC = ROOT / "src"
SCHEMAS = ROOT / "docs" / "schemas"
WORK = ROOT / ".perfbench_work"

# Gated end-to-end metrics.  latency_p50_ms and latency_tail_ms are printed
# with their sample counts but not gated: with ~10 processes per run their
# median jumps between the machine's fast and slow phases, while throughput
# (work / summed wall time) carries the same information more steadily.
END_TO_END = {"setup_s": "s", "throughput_per_s": "1/s", "peak_rss_mb": "MB"}
PER_LAYER = {
    "cli.import_s": "s", "cli.self_s": "s",
    "kernel.busy_s": "s", "kernel.steps": "count", "kernel.steps_per_s": "1/s",
    "ergodic.ensemble_parallelism": "ratio", "ergodic.assemble_s": "s",
    "ergodic.trace_rows": "count", "ergodic.sojourn_events": "count",
    "ergodic.csv_s": "s", "ergodic.csv_bytes": "count",
    "ergodic.csv_mb_per_s": "MB/s", "ergodic.diagnostics_s": "s",
    "lyapunov.synthesize_ms": "ms", "lyapunov.verify_s": "s",
    "fixed_points.all_fixed_points_us": "us", "classify.classify_us": "us",
    "qso.apply_volterra_us": "us", "qso.apply_volterra_log_us": "us",
    "simplex.validate_us": "us", "sampling.random_skew_matrix_us": "us",
    "trace.overhead_pct": "%",
}
THROUGHPUT_NAME = {"simulate": "steps_per_s", "cli": "calls_per_s",
                   "library": "items_per_s"}

# The console entry point, `volqso = volqso.cli:main`, as a fresh process.
CONSOLE = "import sys; from volqso.cli import main; sys.exit(main())"
# Set-up: interpreter start to `import volqso.cli` done and the workload's
# first input parsed (JSON, and its matrix validated when it has one).
SETUP_PROBE = """\
import json, sys, time
import volqso.cli
import volqso
with open(sys.argv[1], encoding="utf-8") as fh:
    cfg = json.load(fh)
if "matrix" in cfg:
    volqso.SkewMatrix(tuple(tuple(float(v) for v in r) for r in cfg["matrix"]))
print(time.monotonic())
"""
IMPORT_PROBE = "import time\nimport volqso.cli\nprint(time.monotonic())\n"
CHILD_TIMEOUT_S = 150
OUTPUT_FILE = {"classify": "classification.json",
               "fixed-points": "fixed_points.json",
               "lyapunov": "lyapunov.json"}
SCHEMA_FILE = {"classify": "classification.schema.json",
               "fixed-points": "fixed_points.schema.json",
               "lyapunov": "lyapunov.schema.json",
               "simulate": "summary.schema.json",
               "config": "config.schema.json"}


# ---------------------------------------------------------------------------
# processes


def child_env() -> dict:
    env = dict(os.environ)
    old = env.get("PYTHONPATH")
    env["PYTHONPATH"] = str(SRC) + (os.pathsep + old if old else "")
    return env


def run_child(argv, stdout_path: Path, stderr_path: Path):
    """Run one child to completion; returns (wall_s, exit_code, peak_rss_mb).
    The child is reaped with wait4 so its own peak RSS is read."""
    with open(stdout_path, "wb") as out, open(stderr_path, "wb") as err:
        t0 = time.perf_counter()
        proc = subprocess.Popen(argv, stdout=out, stderr=err, cwd=ROOT,
                                env=child_env())
        killer = threading.Timer(CHILD_TIMEOUT_S, proc.kill)
        killer.start()
        try:
            _, status, usage = os.wait4(proc.pid, 0)
        finally:
            killer.cancel()
            killer.join()
        wall = time.perf_counter() - t0
    proc.returncode = os.waitstatus_to_exitcode(status)
    return wall, proc.returncode, usage.ru_maxrss / 1024.0


def probe(code: str, args, scratch: Path, runs: int) -> list[float]:
    """Seconds from spawning a fresh interpreter to the moment `code`
    prints time.monotonic(); one untimed run first warms the bytecode and
    file caches."""
    out = []
    for k in range(runs + 1):
        t0 = time.monotonic()
        _, rc, _ = run_child([sys.executable, "-c", code, *map(str, args)],
                             scratch / "probe.out", scratch / "probe.err")
        if rc != 0:
            raise RuntimeError("probe failed: "
                               + (scratch / "probe.err").read_text()[-2000:])
        if k:
            out.append(float((scratch / "probe.out").read_text()) - t0)
    return out


# ---------------------------------------------------------------------------
# output checks


class Checks:
    """Counts attempted and failed operations and keeps output digests, so
    every repeat of the same input must produce the same bytes."""

    def __init__(self):
        import jsonschema

        self.attempted = 0
        self.failed = 0
        self.errors = []
        self.digests = {}
        self._validator = {
            cmd: jsonschema.Draft7Validator(
                json.loads((SCHEMAS / name).read_text(encoding="utf-8")))
            for cmd, name in SCHEMA_FILE.items()}

    def record(self, label: str, errors: list[str]) -> None:
        self.attempted += 1
        if errors:
            self.failed += 1
            self.errors += [f"{label}: {e}" for e in errors]

    def schema_errors(self, cmd: str, payload) -> list[str]:
        return [f"{cmd} schema: {e.message}"
                for e in self._validator[cmd].iter_errors(payload)][:5]

    def same_bytes(self, key: str, out_dir: Path) -> list[str]:
        h = hashlib.sha256()
        for path in sorted(p for p in out_dir.rglob("*") if p.is_file()):
            h.update(str(path.relative_to(out_dir)).encode() + b"\0")
            h.update(path.read_bytes())
        digest = h.hexdigest()
        first = self.digests.setdefault(key, digest)
        return [] if digest == first else [
            f"output digest {digest[:12]} differs from the first repeat's "
            f"{first[:12]}"]


def dyadic_count(steps: int) -> int:
    powers = steps.bit_length()          # 1, 2, 4, ... <= steps
    return powers + (steps & (steps - 1) != 0)


def decade_count(steps: int) -> int:
    n, hi = 1, 10
    while hi < steps:
        n, hi = n + 1, hi * 10
    return n


def check_output(checks: Checks, call: dict, out_dir: Path, backend: str,
                 counts: dict) -> list[str]:
    """Checks one call's output directory and that its bytes match every
    earlier repeat of the same call; adds simulate output counts."""
    cmd = call["command"]
    name = "summary.json" if cmd == "simulate" else OUTPUT_FILE[cmd]
    try:
        payload = json.loads((out_dir / name).read_text())
    except (OSError, ValueError) as exc:
        return [f"{name} unreadable: {exc}"]
    errors = checks.schema_errors(cmd, payload)
    if cmd == "simulate":
        errors += check_simulate(call["config"], payload, out_dir, backend,
                                 counts)
    if "expect_class" in call and payload.get("class") != call["expect_class"]:
        errors.append(f"classify gave class {payload.get('class')}, the "
                      f"generator built class {call['expect_class']}")
    return errors + checks.same_bytes(call["key"], out_dir)


def check_simulate(cfg: dict, summary: dict, out_dir: Path, backend: str,
                   counts: dict) -> list[str]:
    """CSV row counts against steps, stride and checkpoints."""
    errors = []
    if summary.get("backend") != backend:
        errors.append(f"summary backend {summary.get('backend')!r}, "
                      f"process selected {backend!r}")
    steps, stride = cfg["steps"], cfg["record_stride"]
    trace_rows = len(range(0, steps + 1, stride)) + (steps % stride != 0)
    starts = summary.get("starts", [])
    if len(starts) != len(cfg["starts"]["points"]):
        errors.append(f"{len(starts)} start summaries for "
                      f"{len(cfg['starts']['points'])} starts")
    for i, start in enumerate(starts):
        run_dir = out_dir / f"start_{i:03d}"
        events = start.get("sojourn_event_count", -1)
        expect = {"trajectory.csv": trace_rows, "phi.csv": trace_rows,
                  "cesaro.csv": dyadic_count(steps), "sojourn.csv": events,
                  "outside.csv": decade_count(steps)}
        for name, rows in expect.items():
            try:
                data = (run_dir / name).read_bytes()
            except OSError as exc:
                errors.append(f"{name}: {exc}")
                continue
            got = data.count(b"\n") - 1
            if got != rows:
                errors.append(f"{run_dir.name}/{name}: {got} rows, "
                              f"expected {rows}")
            _add(counts, "ergodic.csv_bytes", len(data))
        _add(counts, "kernel.steps", steps)
        _add(counts, "ergodic.trace_rows", trace_rows)
        _add(counts, "ergodic.sojourn_events", max(events, 0))
    return errors


def _add(counts: dict, key: str, value: int) -> None:
    counts[key] = counts.get(key, 0) + value


# ---------------------------------------------------------------------------
# machine facts and the kernel backend


def backend_facts(volqso) -> dict:
    kernel = volqso.kernel
    available = list(kernel.available_backends())
    forced = os.environ.get("VOLQSO_KERNEL")
    if "compiled" in available:
        why = "compiled extension imported"
    else:
        try:
            importlib.import_module("volqso._kernel")
            why = "compiled extension imported"
        except ImportError as exc:
            why = f"compiled extension not importable ({exc})"
    mode = f"VOLQSO_KERNEL={forced}" if forced else "VOLQSO_KERNEL unset (auto)"
    return {"backend": kernel.BACKEND, "available_backends": available,
            "VOLQSO_KERNEL": forced, "backend_reason": f"{mode}; {why}"}


def machine_facts(volqso, name: str) -> dict:
    import numpy
    import scipy

    spec = {k: v for k, v in WORKLOADS[name].items() if k != "why"}
    return {"nproc": os.cpu_count(), "python": platform.python_version(),
            "numpy": numpy.__version__, "scipy": scipy.__version__,
            "machine": platform.machine(), **backend_facts(volqso),
            "workload": name, "sizes": spec}


def kernel_parity(volqso, with_speeds: bool) -> tuple[str, dict]:
    """Bit-parity of the compiled and pure-Python kernels on a 50k-step
    cyclic run; optionally each available backend's steps/s."""
    kernel = volqso.kernel
    backends = kernel.available_backends()

    def args(steps):
        start = volqso.validate(wl.FIXED_START).to_log()
        return (4, wl.CYCLIC_HALF, list(start.log_coords), steps,
                math.log(0.05), [0, 1, 2, 3], [[1 / 3, 0.0, 1 / 3, 1 / 3]],
                list(volqso.dyadic_checkpoints(steps)), max(1, steps // 1000),
                True)

    speeds = {}
    if with_speeds:
        for name in backends:
            steps = 1_000_000 if name == "compiled" else 20_000
            t0 = time.perf_counter()
            kernel.get_kernel(name)(*args(steps))
            speeds[name] = steps / (time.perf_counter() - t0)
    if len(backends) < 2:
        return (f"skipped: only the {backends[0]} backend is available "
                f"({backend_facts(volqso)['backend_reason']})"), speeds
    a = kernel.get_kernel("compiled")(*args(50_000))
    b = kernel.get_kernel("python")(*args(50_000))
    same = a.keys() == b.keys() and all(
        a[k] == b[k] or (isinstance(a[k], float) and math.isnan(a[k])
                         and math.isnan(b[k])) for k in a)
    return ("passed: bit-identical" if same else "FAILED: outputs differ"), \
        speeds


# ---------------------------------------------------------------------------
# statistics


def tail(values):
    """Highest percentile with at least 10 samples beyond it: the sample at
    sorted index n - 11 (None below 11 samples)."""
    n = len(values)
    if n < 11:
        return None, None, n
    return sorted(values)[n - 11], 100.0 * (n - 10) / n, n


def latency_report(lat_s) -> dict:
    t, pct, n = tail(lat_s)
    return {"latency_p50_ms": statistics.median(lat_s) * 1e3,
            "latency_tail_ms": None if t is None else t * 1e3,
            "latency_tail_pct": pct, "samples": n}


# ---------------------------------------------------------------------------
# untraced workloads: end-to-end metrics


def run_call(call, checks, backend, work, counts) -> float:
    """One fresh `volqso <command>` process, checked; returns its wall time
    and adds its peak RSS and (simulate) output counts to `counts`."""
    out = work / call["key"]
    wall, rc, peak = run_child(
        [sys.executable, "-c", CONSOLE, call["command"], "--config",
         str(call["path"]), "--out", str(out)],
        work / "op.out", work / "op.err")
    if rc != 0:
        errors = [f"exit {rc}: " + (work / "op.err").read_text()[-500:]]
    else:
        errors = check_output(checks, call, out, backend, counts)
    checks.record(call["key"], errors)
    shutil.rmtree(out, ignore_errors=True)
    counts.setdefault("rss", []).append(peak)
    return wall


def measure_processes(inputs, seconds, checks, backend, work):
    """Closed loop over whole cycles of calls, so every run has the same mix
    of commands; a cycle that would end after the window is not started."""
    calls = inputs["calls"]
    walls, counts = [], {}
    done = 0
    t0 = time.perf_counter()
    cycle_s = 0.0
    while not walls or time.perf_counter() - t0 + cycle_s <= seconds:
        c0 = time.perf_counter()
        for call in calls:
            walls.append(run_call(call, checks, backend, work, counts))
            done += call["work"]
        cycle_s = time.perf_counter() - c0
    rss = counts.pop("rss")
    per_op = {k: v // len(walls) for k, v in counts.items()}
    return {"throughput_per_s": done / sum(walls),
            "peak_rss_mb": statistics.median(rss), "rss_samples": len(rss),
            **latency_report(walls)}, per_op


def measure_library(inputs, seconds, checks, work):
    wall, rc, _ = run_child(
        [sys.executable, str(Path(__file__).with_name("library.py")),
         str(inputs["items"]), str(seconds)],
        work / "op.out", work / "op.err")
    if rc != 0:
        checks.record("library worker",
                      [f"exit {rc}: " + (work / "op.err").read_text()[-500:]])
        raise RuntimeError("library worker failed")
    res = json.loads((work / "op.out").read_text().splitlines()[-1])
    lat = res["latencies"]
    checks.attempted += len(lat)
    checks.failed += res["failed"]
    checks.errors += res["errors"]
    return {"throughput_per_s": len(lat) / res["elapsed"],
            "peak_rss_mb": res["peak_rss_mb"], "rss_samples": 1,
            **latency_report(lat)}, {}


# ---------------------------------------------------------------------------
# traced run: per-layer metrics


def traced_run(name, inputs, seconds, checks, backend, work):
    """Alternate untraced and traced cycles in this process for `seconds`.
    Returns per-layer metrics, the tracer and the tracing overhead."""
    import volqso
    import volqso.cli
    from library import run_items

    if WORKLOADS[name]["kind"] == "library":
        spec = inputs["body"]
        ops_per_cycle = spec["synth_every"]

        def cycle(k):
            lat, failed, errors = run_items(volqso, spec, k * ops_per_cycle,
                                            ops_per_cycle)
            checks.attempted += len(lat)
            checks.failed += failed
            checks.errors += errors
        cycle(0)                                      # warm-up, untimed
    else:
        ops_per_cycle = len(inputs["calls"])

        def cycle(k):
            for call in inputs["calls"]:
                out = work / call["key"]
                argv = [call["command"], "--config", str(call["path"]),
                        "--out", str(out)]
                try:
                    with contextlib.redirect_stdout(io.StringIO()):
                        rc = volqso.cli.main(argv)
                except Exception as exc:  # a traceback is a failed call
                    rc = f"{type(exc).__name__}: {exc}"
                errors = [f"exit {rc}"] if rc else \
                    check_output(checks, call, out, backend, {})
                checks.record(call["key"], errors)
                shutil.rmtree(out, ignore_errors=True)

    tracer = tracing.Tracer()
    plain, traced = [], []
    t0 = time.perf_counter()
    k = 1
    pair_s = 0.0
    while not traced or time.perf_counter() - t0 + pair_s <= seconds:
        p0 = time.perf_counter()
        for timed, on in ((plain, False), (traced, True)):
            c0 = time.perf_counter()
            if on:
                with tracer:
                    cycle(k)
            else:
                cycle(k)
            timed.append(time.perf_counter() - c0)
            k += 1
        pair_s = time.perf_counter() - p0
    overhead = 100.0 * (statistics.median(traced) / statistics.median(plain)
                        - 1.0)
    metrics = tracing.layer_metrics(tracer.spans, len(traced) * ops_per_cycle)
    metrics["trace.overhead_pct"] = overhead
    return metrics, tracer, {"untraced_cycle_s": statistics.median(plain),
                             "traced_cycle_s": statistics.median(traced),
                             "cycles": len(traced),
                             "operations": len(traced) * ops_per_cycle}


# ---------------------------------------------------------------------------
# one run


def run_workload(name: str, seed: int, seconds: float, trace: bool,
                 setup_runs: int = 5) -> dict:
    import volqso

    kind = WORKLOADS[name]["kind"]
    work = WORK / name
    shutil.rmtree(work, ignore_errors=True)
    inputs = wl.write_inputs(name, seed, work / "inputs")
    ops = work / "ops"
    ops.mkdir(parents=True)
    checks = Checks()
    for call in inputs.get("calls", ()):
        bad = checks.schema_errors("config", call["config"])
        if bad:
            raise RuntimeError(f"generated input {call['path']} invalid: {bad}")
    facts = machine_facts(volqso, name)
    backend = facts["backend"]
    report = {"facts": facts, "workload": name, "seed": seed,
              "seconds": seconds, "trace": int(trace),
              "why": WORKLOADS[name]["why"]}

    if not trace:
        setup = probe(SETUP_PROBE, [inputs["first"]], ops, setup_runs)
        if kind == "library":
            e2e, counts = measure_library(inputs, seconds, checks, ops)
        else:
            e2e, counts = measure_processes(inputs, seconds, checks, backend,
                                            ops)
        e2e["setup_s"] = statistics.median(setup)
        e2e["setup_samples"] = len(setup)
        report["end_to_end"] = e2e
        report["counts"] = counts
        metrics = {k: e2e[k] for k in END_TO_END}
    else:
        imports = probe(IMPORT_PROBE, [], ops, setup_runs)
        layers, tracer, overhead = traced_run(name, inputs, seconds, checks,
                                              backend, ops)
        layers["cli.import_s"] = statistics.median(imports)
        overhead["import_samples"] = len(imports)
        tracer.dump(work / "spans.jsonl")
        report["per_layer"] = layers
        report["tracing"] = overhead
        report["layers_seen"] = sorted(
            tracing.layers_seen(tracer.spans))
        metrics = {k: layers[k] for k in PER_LAYER}

    if name == "simulate-long":
        status, speeds = kernel_parity(volqso, with_speeds=trace)
        report["kernel_parity"] = status
        report["kernel_steps_per_s_by_backend"] = speeds
        if status.startswith("FAILED"):
            checks.record("kernel parity", [status])
        elif status.startswith("passed"):
            checks.record("kernel parity", [])

    report["attempted"] = checks.attempted
    report["failed"] = checks.failed
    report["errors"] = checks.errors[:50]
    report["metrics"] = metrics
    (work / "result.json").write_text(json.dumps(report, indent=1) + "\n")
    shutil.rmtree(ops, ignore_errors=True)
    return report


def print_report(rep: dict) -> None:
    name = rep["workload"]
    kind = WORKLOADS[name]["kind"]
    print(f"workload {name}  seed {rep['seed']}  seconds {rep['seconds']}  "
          f"trace {rep['trace']}")
    print(f"  why: {rep['why']}")
    print("  facts: " + json.dumps(rep["facts"], sort_keys=True))
    if "kernel_parity" in rep:
        print(f"  check kernel parity (50k steps): {rep['kernel_parity']}")
        for b, v in rep["kernel_steps_per_s_by_backend"].items():
            print(f"  kernel.steps_per_s[{b}] = {v:.6g} 1/s")
    if "end_to_end" in rep:
        e = rep["end_to_end"]
        n = e["samples"]
        alias = THROUGHPUT_NAME[kind]
        print(f"  {alias} = {e['throughput_per_s']:.6g} 1/s "
              f"(reported as throughput_per_s; n={n})")
        print(f"  latency_p50_ms = {e['latency_p50_ms']:.6g} ms (n={n})")
        if e["latency_tail_ms"] is None:
            print(f"  latency_tail_ms = n/a ms (n={n}, needs >= 11 samples)")
        else:
            print(f"  latency_tail_ms = {e['latency_tail_ms']:.6g} ms "
                  f"(p{e['latency_tail_pct']:.1f}, n={n}, 10 beyond)")
        print(f"  peak_rss_mb = {e['peak_rss_mb']:.6g} MB "
              f"(median over n={e['rss_samples']} processes)")
        print(f"  setup_s = {e['setup_s']:.6g} s "
              f"(median, n={e['setup_samples']})")
        for key, value in rep["counts"].items():
            print(f"  count {key} = {value} (per operation)")
    else:
        t = rep["tracing"]
        for key, value in rep["per_layer"].items():
            print(f"  {key} = {value:.6g} {PER_LAYER[key]}")
        print(f"  basis: counts and *_s totals per operation over "
              f"{t['operations']} traced operations; *_us/*_ms per call; "
              f"cli.import_s median of {t['import_samples']} fresh imports")
        print(f"  tracing overhead: traced cycle {t['traced_cycle_s']:.6g} s "
              f"vs untraced {t['untraced_cycle_s']:.6g} s "
              f"(medians of {t['cycles']} each)")
        print(f"  layers with spans: {', '.join(rep['layers_seen'])}")
    att, fail = rep["attempted"], rep["failed"]
    print(f"  fail_ratio = {fail}/{att} = {fail / att if att else 0:.6g}")
    for err in rep["errors"]:
        print(f"  FAILED {err}")


def result_line(rep: dict) -> str:
    units = PER_LAYER if rep["trace"] else END_TO_END
    return json.dumps({
        "correct": rep["failed"] == 0 and rep["attempted"] > 0,
        "attempted": rep["attempted"],
        "failed": rep["failed"],
        "metrics": {k: {"value": v, "unit": units[k]}
                    for k, v in rep["metrics"].items()},
    })


# ---------------------------------------------------------------------------
# smoke mode


SMOKE_SIZES = {
    "simulate-long": {"steps": 4_000, "record_stride": 4},
    "simulate-dense": {"steps": 2_000},
    "cli-cold": {"verify_steps": 1_000},
    "library-batch": {"pool": 20},
}


def smoke() -> int:
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    want = {0: {m["name"]: m["unit"] for m in spec["end_to_end"]},
            1: {m["name"]: m["unit"] for m in spec["per_layer"]}}
    for name, sizes in SMOKE_SIZES.items():
        WORKLOADS[name].update(sizes)
    problems = []
    seen = set()
    for name in WORKLOADS:
        for trace in (0, 1):
            rep = run_workload(name, 1, 0.5, bool(trace), setup_runs=1)
            line = json.loads(result_line(rep))
            got = {k: v["unit"] for k, v in line["metrics"].items()}
            if got != want[trace]:
                problems.append(f"{name} trace {trace}: metrics {got}")
            if not line["correct"]:
                problems.append(f"{name} trace {trace}: {rep['errors'][:3]}")
            seen.update(rep.get("layers_seen", ()))
            print(f"smoke {name} trace {trace}: {line['attempted']} ops, "
                  f"{line['failed']} failed")
    missing = set(tracing.LAYERS) - seen
    if missing:
        problems.append(f"no spans for layers {sorted(missing)}")
    for p in problems:
        print(f"SMOKE FAILED {p}")
    print("smoke ok" if not problems else "smoke failed")
    return 1 if problems else 0


# ---------------------------------------------------------------------------


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=10.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--smoke", action="store_true")
    args = parser.parse_args(argv)
    if not (SRC / "volqso" / "cli.py").is_file() or not SCHEMAS.is_dir():
        print(f"error: no volqso source under {SRC} (run from a checkout)",
              file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    if args.smoke:
        return smoke()
    if args.workload is None:
        parser.error("--workload is required")
    rep = run_workload(args.workload, args.seed, args.seconds,
                       bool(args.trace))
    print_report(rep)
    line = result_line(rep)
    print(line)
    return 0 if json.loads(line)["correct"] else 1


if __name__ == "__main__":
    sys.exit(main())
