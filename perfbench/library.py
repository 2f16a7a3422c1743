"""library-batch: warm, in-process items over the linear-coordinate path.

Run as a script it is the workload's worker process:

    PYTHONPATH=src python3 perfbench/library.py ITEMS.json SECONDS

and prints one JSON line with item latencies, failures and peak RSS.
Functions are looked up on the `volqso` package at call time, so the traced
run sees every call through its wrappers.
"""

from __future__ import annotations

import json
import math
import resource
import sys
import time

from workloads import volterra_class

SUM_TOL = 1e-12


def run_item(volqso, spec: dict, index: int) -> list[str]:
    """Run item `index` of the pool; returns the failed checks (empty when
    the item is correct)."""
    items = spec["items"]
    item = items[index % len(items)]
    errors = []
    a = volqso.random_skew_matrix(spec["m"], item["seed"])
    x = volqso.validate(item["start"])
    for _ in range(spec["volterra_steps"]):
        x = volqso.apply_volterra(a, x)
        volqso.qso.raw_volterra_image(a, x)
        if abs(math.fsum(x.coords) - 1.0) > SUM_TOL:
            errors.append(f"apply_volterra image sums to {math.fsum(x.coords)!r}")
    volqso.apply_volterra_log(a, x.to_log())
    report = volqso.classify(a)
    if int(report.volterra_class) != volterra_class(a.rows):
        errors.append(f"classify gave {int(report.volterra_class)}, "
                      f"expected {volterra_class(a.rows)}")
    volqso.all_fixed_points(a)
    if index % spec["synth_every"] == 0:
        cand = volqso.synthesize(a)
        if cand is not None:
            values = volqso.vertex_constraint_values(a, cand.exponents)
            if not all(v < 0.0 for v in values):
                errors.append(f"synthesize candidate violates {values}")
    return errors


def run_items(volqso, spec: dict, first: int, count: int):
    """Run `count` items from `first`; returns (latencies_s, failed items,
    error messages)."""
    lat = []
    failed = 0
    errors = []
    for i in range(first, first + count):
        t0 = time.perf_counter()
        try:
            bad = run_item(volqso, spec, i)
        except Exception as exc:  # a raising item counts as failed
            bad = [f"{type(exc).__name__}: {exc}"]
        lat.append(time.perf_counter() - t0)
        failed += bool(bad)
        errors.extend(f"item {i}: {e}" for e in bad)
    return lat, failed, errors


def main(argv) -> int:
    import volqso

    with open(argv[1], encoding="utf-8") as fh:
        spec = json.load(fh)
    seconds = float(argv[2])
    batch = spec["synth_every"]
    run_items(volqso, spec, 0, 2 * batch)          # warm-up, not reported
    lat, errors, failed = [], [], 0
    t0 = time.perf_counter()
    while time.perf_counter() - t0 < seconds:
        b_lat, b_failed, b_err = run_items(volqso, spec, len(lat), batch)
        lat += b_lat
        failed += b_failed
        errors += b_err
    elapsed = time.perf_counter() - t0
    rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    print(json.dumps({"latencies": lat, "elapsed": elapsed, "failed": failed,
                      "errors": errors[:20], "peak_rss_mb": rss_mb}))
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv))
