"""Workload definitions and seeded input generation.

Each workload records why it exists next to its sizes.  Every input the
program sees is generated here from the workload seed, so a held-out seed
re-checks a claim on inputs nobody tuned for.
"""

from __future__ import annotations

import json
import os
import random
from pathlib import Path

# The paper's cyclic operator with every canonical parameter 1/2.
CYCLIC_HALF = [[0.0, 0.5, 0.5, -0.5], [-0.5, 0.0, 0.5, 0.5],
               [-0.5, -0.5, 0.0, 0.5], [0.5, -0.5, -0.5, 0.0]]
# Boundary cyclic operator: every canonical parameter 1, so entries are +-1
# and some step weights 1 + a[k][i] are exactly 0.
CYCLIC_ONE = [[0.0, 1.0, 1.0, -1.0], [-1.0, 0.0, 1.0, 1.0],
              [-1.0, -1.0, 0.0, 1.0], [1.0, -1.0, -1.0, 0.0]]
FIXED_START = [0.4, 0.3, 0.2, 0.1]

NPROC = os.cpu_count() or 1

WORKLOADS = {
    "simulate-long": {
        "why": "kernel-bound simulate: after import the kernel is ~99% of "
               "the child's time on the all-1/2 cyclic matrix; exercises "
               "kernel and ensemble threading, bypasses output changes",
        "kind": "simulate",
        "steps": 100_000,
        "record_stride": 100,     # steps / 1000
        "workers": min(2, NPROC),
        "monomials": 1,
    },
    "simulate-dense": {
        "why": "output-bound simulate on the +-1 boundary matrix: the "
               "log-domain underflow branch runs about twice per step and "
               "every step of both starts is written (~70 B per start-step), "
               "so assembly and CSV show",
        "kind": "simulate",
        "steps": 25_000,
        "record_stride": 1,
        "workers": 1,
        "monomials": 2,
    },
    "cli-cold": {
        "why": "fresh volqso processes for classify, fixed-points and "
               "lyapunov: import and parse dominate, the kernel is nearly "
               "bypassed",
        "kind": "cli",
        "verify_steps": 2_000,
    },
    "library-batch": {
        "why": "warm in-process linear-coordinate path (random_skew_matrix, "
               "validate, apply_volterra, classify, all_fixed_points, "
               "synthesize); touches no kernel, CLI or I/O",
        "kind": "library",
        "volterra_steps": 10,     # K apply_volterra calls per item
        "synth_every": 10,        # synthesize on every j-th item
        "pool": 512,              # distinct items, cycled
    },
}


def rng_for(workload: str, seed: int) -> random.Random:
    return random.Random(f"{workload}:{seed}")


def interior_point(rng: random.Random, m: int) -> list[float]:
    """Interior point with every coordinate >= 1/(8m); integer weights keep
    the float sum within an ulp of 1."""
    w = [rng.randint(100, 800) for _ in range(m)]
    total = sum(w)
    return [v / total for v in w]


def face_point(rng: random.Random, m: int) -> list[float]:
    """Point with one exact zero coordinate, interior to that face."""
    w = [rng.randint(100, 800) for _ in range(m)]
    w[rng.randrange(m)] = 0
    total = sum(w)
    return [v / total for v in w]


def exponents(rng: random.Random, m: int) -> list[float]:
    return [round(rng.uniform(0.05, 0.5), 3) for _ in range(m)]


def _skew(rng: random.Random, m: int, fixed=None) -> list[list[float]]:
    """Skew matrix with entries uniform in +-[0.05, 0.95]; `fixed` maps
    (i, j), i < j, to a required sign."""
    a = [[0.0] * m for _ in range(m)]
    for i in range(m):
        for j in range(i + 1, m):
            sign = (fixed or {}).get((i, j), rng.choice((-1.0, 1.0)))
            v = sign * round(rng.uniform(0.05, 0.95), 6)
            a[i][j] = v
            a[j][i] = -v
    return a


def volterra_class(a) -> int:
    """Class of a 4x4 skew matrix by the definition: 1 if some row is
    entrywise >= 0, else 2 if some row is entrywise <= 0, else 3."""
    if any(all(v >= 0.0 for v in row) for row in a):
        return 1
    if any(all(v <= 0.0 for v in row) for row in a):
        return 2
    return 3


def matrix_of_class(rng: random.Random, cls: int) -> list[list[float]]:
    """Seeded 4x4 matrix that the definition puts in class `cls`."""
    while True:
        fixed = {}
        if cls in (1, 2):
            r = rng.randrange(4)
            sign = 1.0 if cls == 1 else -1.0
            for j in range(4):
                if j != r:
                    key = (min(r, j), max(r, j))
                    fixed[key] = sign if r < j else -sign
        a = _skew(rng, 4, fixed)
        if volterra_class(a) == cls:
            return a


# ---------------------------------------------------------------------------
# per-workload inputs


def simulate_config(name: str, seed: int) -> dict:
    spec = WORKLOADS[name]
    rng = rng_for(name, seed)
    if name == "simulate-long":
        matrix = CYCLIC_HALF
        starts = [FIXED_START, interior_point(rng, 4)]
    else:
        matrix = CYCLIC_ONE
        starts = [interior_point(rng, 4), face_point(rng, 4)]
    monomials = [{"name": f"F{k + 1}", "exponents": exponents(rng, 4)}
                 for k in range(spec["monomials"])]
    return {
        "m": 4,
        "matrix": matrix,
        "starts": {"points": starts},
        "steps": spec["steps"],
        "epsilon": 0.05,
        "record_stride": spec["record_stride"],
        "checkpoints": "dyadic",
        "observables": {"coordinates": [1, 2, 3, 4], "monomials": monomials},
        "workers": spec["workers"],
    }


def cli_calls(seed: int) -> list[dict]:
    """One cycle of CLI calls: classify on one m=4 matrix per class,
    fixed-points and lyapunov on m=4 and m=3.  Each entry carries the
    command, its config and, for classify, the class the generator built."""
    spec = WORKLOADS["cli-cold"]
    rng = rng_for("cli-cold", seed)
    by_class = {c: matrix_of_class(rng, c) for c in (1, 2, 3)}
    m3 = _skew(rng, 3)

    def verify(m):
        return {"start": interior_point(rng, m),
                "steps": spec["verify_steps"]}

    calls = [{"command": "classify", "config": {"matrix": by_class[c]},
              "expect_class": c} for c in (1, 2, 3)]
    calls += [
        {"command": "fixed-points", "config": {"matrix": by_class[3]}},
        {"command": "fixed-points", "config": {"matrix": m3}},
        {"command": "lyapunov",
         "config": {"matrix": by_class[1], "verify": verify(4)}},
        {"command": "lyapunov", "config": {"matrix": m3, "verify": verify(3)}},
    ]
    for k, call in enumerate(calls):
        call["key"] = f"{k}-{call['command']}"
        call["work"] = 1
    return calls


def library_items(seed: int) -> dict:
    """Item pool for library-batch: a matrix seed and a start per item."""
    spec = WORKLOADS["library-batch"]
    rng = rng_for("library-batch", seed)
    return {
        "m": 4,
        "volterra_steps": spec["volterra_steps"],
        "synth_every": spec["synth_every"],
        "items": [{"seed": rng.randrange(2**32), "start": interior_point(rng, 4)}
                  for _ in range(spec["pool"])],
    }


def write_inputs(name: str, seed: int, in_dir: Path) -> dict:
    """Write the workload's inputs under in_dir.  Process workloads get a
    cycle of `calls` (command, config path, work done per call); every
    workload gets `first`, the input that set-up parses."""
    in_dir.mkdir(parents=True, exist_ok=True)
    kind = WORKLOADS[name]["kind"]
    if kind == "library":
        items = library_items(seed)
        path = in_dir / "items.json"
        _dump(items, path)
        return {"first": path, "items": path, "body": items}
    if kind == "simulate":
        cfg = simulate_config(name, seed)
        calls = [{"command": "simulate", "config": cfg, "key": "simulate",
                  "work": len(cfg["starts"]["points"]) * cfg["steps"]}]
    else:
        calls = cli_calls(seed)
    for call in calls:
        call["path"] = in_dir / f"{call['key']}.json"
        _dump(call["config"], call["path"])
    return {"first": calls[0]["path"], "calls": calls}


def _dump(obj, path: Path) -> None:
    path.write_text(json.dumps(obj, indent=1) + "\n", encoding="utf-8")
