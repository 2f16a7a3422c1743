"""Command-line front end.

    volqso classify     --config cfg.json --out DIR
    volqso simulate     --config cfg.json --out DIR
    volqso lyapunov     --config cfg.json --out DIR
    volqso fixed-points --config cfg.json --out DIR

One experiment = one JSON config file (documented in docs/formats.md, with
schemas in docs/schemas/).  Outputs are byte-deterministic for a given
config: floats are written shortest-round-trip, field order is fixed, and no
paths or timestamps are embedded.  Exit codes: 0 success, 2 validation
error, 3 numerical diagnostic.  Set VOLQSO_LOG=debug|info|... for logging.
"""

from __future__ import annotations

import argparse
import json
import logging
import math
import os
import sys
from pathlib import Path

from . import kernel
from .classify import CanonicalParams, classify, matrix_from_canonical
from .ergodic import (
    CoordinateObservable,
    MonomialObservable,
    TrajectoryConfig,
    coordinate_observables,
    ergodic_verdict,
    route_check,
    run_ensemble,
    sojourn_growth,
    write_cesaro_csv,
    write_outside_csv,
    write_phi_csv,
    write_sojourn_csv,
    write_trajectory_csv,
    DELTA_CONV,
    DELTA_OSC,
)
from .errors import (
    NumericalDiagnostic,
    TooFewCheckpoints,
    TooFewSojourns,
    ValidationError,
)
from .fixed_points import all_fixed_points
from .lyapunov import (
    synthesize,
    verify_along_trajectory,
    vertex_constraint_values,
)
from .qso import SkewMatrix
from .sampling import interior_points
from .simplex import SimplexPoint, validate

log = logging.getLogger("volqso")


# ---------------------------------------------------------------------------
# config parsing


def _load_config(path) -> dict:
    try:
        with open(path, "r", encoding="utf-8") as fh:
            cfg = json.load(fh)
    except OSError as exc:
        raise ValidationError(f"cannot read config: {exc}") from exc
    except json.JSONDecodeError as exc:
        raise ValidationError(f"config is not valid JSON: {exc}") from exc
    if not isinstance(cfg, dict):
        raise ValidationError("config root must be a JSON object")
    return cfg


def _matrix_from_config(cfg) -> SkewMatrix:
    matrix = None
    if "matrix" in cfg:
        rows = cfg["matrix"]
        try:
            matrix = SkewMatrix(tuple(tuple(float(v) for v in row)
                                      for row in rows))
        except (TypeError, ValueError) as exc:
            if isinstance(exc, ValidationError):
                raise
            raise ValidationError(f"bad matrix: {exc}") from exc
    elif "canonical_params" in cfg:
        node = cfg["canonical_params"]
        if isinstance(node, dict):
            try:
                params = CanonicalParams(**{k: float(node[k]) for k in
                                            ("a12", "a13", "a14",
                                             "a23", "a24", "a34")})
            except KeyError as exc:
                raise ValidationError(
                    f"canonical_params missing {exc}") from exc
        else:
            vals = [float(v) for v in node]
            if len(vals) != 6:
                raise ValidationError("canonical_params needs 6 values")
            params = CanonicalParams(*vals)
        matrix = matrix_from_canonical(params)
    if matrix is None:
        raise ValidationError("config needs 'matrix' or 'canonical_params'")
    if "m" in cfg and int(cfg["m"]) != matrix.m:
        raise ValidationError(
            f"declared m={cfg['m']} but the matrix has m={matrix.m}")
    return matrix


def _validate_tols(cfg) -> dict:
    node = cfg.get("tolerances", {})
    out = {}
    if "validate_sum" in node:
        out["sum_tol"] = float(node["validate_sum"])
    if "negative_clamp" in node:
        out["neg_tol"] = float(node["negative_clamp"])
    return out


def _starts_from_config(cfg, m: int) -> list[SimplexPoint]:
    node = cfg.get("starts")
    if node is None:
        raise ValidationError("config needs a 'starts' section")
    tols = _validate_tols(cfg)
    starts = [validate(p, **tols) for p in node.get("points", [])]
    count = int(node.get("count", 0))
    if count > 0:
        if "seed" not in node:
            raise ValidationError("random starts need a 'seed'")
        starts += interior_points(m, count, int(node["seed"]),
                                  float(cfg.get("min_coord", 0.01)))
    if not starts:
        raise ValidationError("no starting points configured")
    for s in starts:
        if s.m != m:
            raise ValidationError(f"start has m={s.m}, matrix has m={m}")
    return starts


def _observables_from_config(cfg, m: int):
    node = cfg.get("observables")
    if node is None:
        return list(coordinate_observables(m))
    obs = []
    for label in node.get("coordinates", []):
        obs.append(CoordinateObservable(int(label)))
    for k, entry in enumerate(node.get("monomials", [])):
        if isinstance(entry, dict):
            obs.append(MonomialObservable(
                tuple(float(v) for v in entry["exponents"]),
                name=str(entry.get("name", f"F{k + 1}"))))
        else:
            obs.append(MonomialObservable(
                tuple(float(v) for v in entry), name=f"F{k + 1}"))
    if not obs:
        return list(coordinate_observables(m))
    return obs


def _checkpoints_from_config(cfg):
    node = cfg.get("checkpoints", "dyadic")
    if node == "dyadic":
        return None
    return tuple(int(n) for n in node)


# ---------------------------------------------------------------------------
# JSON emission


def _jsonable(value):
    """JSON has no inf/nan; non-finite floats become strings."""
    if isinstance(value, float):
        if math.isfinite(value):
            return value
        return repr(value)
    if isinstance(value, dict):
        return {k: _jsonable(v) for k, v in value.items()}
    if isinstance(value, (list, tuple)):
        return [_jsonable(v) for v in value]
    return value


def _write_json(payload: dict, out_dir: Path, name: str,
                echo: bool = True) -> None:
    out_dir.mkdir(parents=True, exist_ok=True)
    text = json.dumps(_jsonable(payload), indent=2) + "\n"
    (out_dir / name).write_text(text, encoding="utf-8")
    if echo:
        sys.stdout.write(text)


def _matrix_rows(a: SkewMatrix) -> list[list[float]]:
    return [list(row) for row in a.rows]


# ---------------------------------------------------------------------------
# subcommands


def cmd_classify(cfg: dict, out_dir: Path) -> int:
    a = _matrix_from_config(cfg)
    report = classify(a)
    params = report.canonical_params
    payload = {
        "m": a.m,
        "matrix": _matrix_rows(a),
        "class": int(report.volterra_class),
        "class_name": report.volterra_class.name.lower(),
        "witness_row": report.witness_row,
        "permutation": list(report.permutation) if report.permutation else None,
        "canonical_params": (
            {k: getattr(params, k) for k in
             ("a12", "a13", "a14", "a23", "a24", "a34")}
            if params else None),
        "invariant_i": report.invariant,
    }
    _write_json(payload, out_dir, "classification.json")
    return 0


def cmd_fixed_points(cfg: dict, out_dir: Path) -> int:
    a = _matrix_from_config(cfg)
    inventory = all_fixed_points(a)
    payload = {
        "m": a.m,
        "matrix": _matrix_rows(a),
        "everywhere_fixed": inventory.everywhere_fixed,
        "degenerate_interior": inventory.degenerate_interior,
        "degenerate_edges": [list(f.support)
                             for f in inventory.degenerate_edges],
        "degenerate_faces": [list(f.support)
                             for f in inventory.degenerate_faces],
        "records": [
            {
                "point": list(rec.point.coords),
                "support": list(rec.support.support),
                "stability": rec.stability.value,
                "degenerate": rec.degenerate,
                "transverse_multipliers": [
                    [label, value]
                    for label, value in rec.transverse_multipliers],
                "in_face_eigenvalues": [
                    [z.real, z.imag] for z in rec.in_face_eigenvalues],
            }
            for rec in inventory.records
        ],
    }
    _write_json(payload, out_dir, "fixed_points.json")
    return 0


def cmd_lyapunov(cfg: dict, out_dir: Path) -> int:
    a = _matrix_from_config(cfg)
    candidate = synthesize(a)
    payload = {
        "m": a.m,
        "matrix": _matrix_rows(a),
        "feasible": candidate is not None,
        "exponents": None,
        "margin": None,
        "vertex_gains": None,
        "vertex_constraint_values": None,
        "verify": None,
    }
    verify_node = cfg.get("verify", {})
    if candidate is not None:
        payload["exponents"] = list(candidate.exponents)
        payload["margin"] = candidate.margin
        payload["vertex_gains"] = list(candidate.vertex_gains)
        payload["vertex_constraint_values"] = list(
            vertex_constraint_values(a, candidate.exponents))
        if verify_node is not False:
            if "start" in verify_node:
                start = validate(verify_node["start"], **_validate_tols(cfg))
            elif cfg.get("starts"):
                start = _starts_from_config(cfg, a.m)[0]
            else:
                start = SimplexPoint.barycenter(a.m)
            report = verify_along_trajectory(
                candidate, a, start,
                steps=int(verify_node.get("steps", 100_000)),
                transient=int(verify_node.get("transient", 100)),
            )
            payload["verify"] = {
                "verdict": report.verdict.value,
                "decade_drifts": [[n0, n1, d]
                                  for n0, n1, d in report.decade_drifts],
                "log_start": report.log_start,
                "log_end": report.log_end,
            }
    _write_json(payload, out_dir, "lyapunov.json")
    return 0


def _start_summary(index: int, start: SimplexPoint, result, coord_names,
                   delta_conv: float, delta_osc: float) -> dict:
    verdict_value = None
    oscillation = {}
    series = [s for s in result.cesaro if s.function_id in coord_names]
    if not series:
        series = list(result.cesaro)
    try:
        verdict = ergodic_verdict(series, delta_conv, delta_osc)
        verdict_value = verdict.verdict.value
        oscillation = {name: v for name, v in verdict.oscillation}
    except TooFewCheckpoints:
        pass
    table = result.sojourn
    route = list(table.route())
    route_ok = route_check(table) if result.m == 4 else None
    try:
        growth = sojourn_growth(table, vertex=1)
    except TooFewSojourns:
        growth = None
    return {
        "index": index,
        "start": list(start.coords),
        "verdict": verdict_value,
        "oscillation": oscillation,
        "sojourn_event_count": len(table.events),
        "route": route,
        "route_ok": route_ok,
        "growth_at_vertex_1": growth,
        "min_log_phi": result.min_log_phi,
        "final": [math.exp(v) for v in result.final.log_coords],
        "final_log": list(result.final.log_coords),
        "max_abs_drift": result.max_abs_drift,
    }


def cmd_simulate(cfg: dict, out_dir: Path) -> int:
    a = _matrix_from_config(cfg)
    m = a.m
    starts = _starts_from_config(cfg, m)
    if "steps" not in cfg:
        raise ValidationError("config needs 'steps'")
    steps = int(cfg["steps"])
    epsilon = float(cfg.get("epsilon", 0.05))
    stride = int(cfg.get("record_stride", max(1, steps // 1000)))
    observables = _observables_from_config(cfg, m)
    checkpoints = _checkpoints_from_config(cfg)
    workers = int(cfg.get("workers", 1))
    delta_conv = float(cfg.get("delta_conv", DELTA_CONV))
    delta_osc = float(cfg.get("delta_osc", DELTA_OSC))

    configs = [
        TrajectoryConfig(matrix=a, start=s, steps=steps, epsilon=epsilon,
                         checkpoints=checkpoints, record_stride=stride)
        for s in starts
    ]
    log.info("simulate: %d starts, %d steps, backend=%s (%s)",
             len(starts), steps, kernel.BACKEND, kernel.BACKEND_REASON)
    results = run_ensemble(configs, observables, workers=workers)

    coord_names = {o.name for o in observables
                   if isinstance(o, CoordinateObservable)}
    summaries = []
    for i, (start, result) in enumerate(zip(starts, results)):
        run_dir = out_dir / f"start_{i:03d}"
        run_dir.mkdir(parents=True, exist_ok=True)
        write_trajectory_csv(run_dir / "trajectory.csv", result)
        write_cesaro_csv(run_dir / "cesaro.csv", result)
        write_sojourn_csv(run_dir / "sojourn.csv", result)
        write_phi_csv(run_dir / "phi.csv", result)
        write_outside_csv(run_dir / "outside.csv", result)
        summaries.append(_start_summary(i, start, result, coord_names,
                                        delta_conv, delta_osc))

    payload = {
        "m": m,
        "matrix": _matrix_rows(a),
        "steps": steps,
        "epsilon": epsilon,
        "record_stride": stride,
        "checkpoints": "dyadic" if checkpoints is None else list(checkpoints),
        "observables": [o.name if isinstance(o, CoordinateObservable)
                        else (o.name or "F") for o in observables],
        "delta_conv": delta_conv,
        "delta_osc": delta_osc,
        "backend": kernel.BACKEND,
        "starts": summaries,
    }
    _write_json(payload, out_dir, "summary.json", echo=False)
    return 0


# ---------------------------------------------------------------------------
# entry point


_COMMANDS = {
    "classify": cmd_classify,
    "simulate": cmd_simulate,
    "lyapunov": cmd_lyapunov,
    "fixed-points": cmd_fixed_points,
}


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="volqso",
        description="Volterra quadratic stochastic operators: classify, "
                    "simulate, synthesize Lyapunov functions, list fixed "
                    "points.")
    sub = parser.add_subparsers(dest="command", required=True)
    for name in _COMMANDS:
        p = sub.add_parser(name)
        p.add_argument("--config", required=True, help="JSON config file")
        p.add_argument("--out", required=True, help="output directory")
    return parser


def main(argv=None) -> int:
    level = os.environ.get("VOLQSO_LOG", "warning").upper()
    logging.basicConfig(level=getattr(logging, level, logging.WARNING),
                        format="%(levelname)s %(name)s: %(message)s")
    args = _build_parser().parse_args(argv)
    try:
        cfg = _load_config(args.config)
        return _COMMANDS[args.command](cfg, Path(args.out))
    except ValidationError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except NumericalDiagnostic as exc:
        print(f"numerical diagnostic: {exc}", file=sys.stderr)
        return 3


if __name__ == "__main__":
    sys.exit(main())
