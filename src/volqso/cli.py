"""Command-line front end.

    volqso classify     --config cfg.json --out DIR
    volqso simulate     --config cfg.json --out DIR
    volqso lyapunov     --config cfg.json --out DIR
    volqso fixed-points --config cfg.json --out DIR

One experiment = one JSON config file (documented in docs/formats.md, with
schemas in docs/schemas/).  Outputs are byte-deterministic for a given
config: floats are written shortest-round-trip, field order is fixed, and no
paths or timestamps are embedded.  The whole config is checked against the
schema's types and bounds, and every object it describes built, before any
work, whatever the command; `delta_conv < delta_osc`, the observables,
`min_coord < 1/m` and the size of the runs (MAX_STORED_VALUES) are checked
there too.  Random starts are drawn only by the commands that read them.
Each subsystem is imported inside the command or parse reader that uses it,
so a process loads only what its command and config need.
`--out` must be a directory or a path that can be made into one; that is
checked before any work too, and nothing is created for a rejected config.
Exit codes: 0 success, 2 validation error (a malformed config value names
its key; an unusable `--out`, or a failure to write an output, is one too),
3 numerical diagnostic.  VOLQSO_LOG=debug|info|... sets the log level of
`simulate`, the only command that logs; logging is imported and set up only
when the variable is set.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import sys
from pathlib import Path

from .classify import PARAM_NAMES, matrix_from_canonical
from .errors import (
    NumericalDiagnostic,
    TooFewCheckpoints,
    TooFewSojourns,
    ValidationError,
)
from .qso import SkewMatrix
from .simplex import (
    DELTA_CONV,
    DELTA_OSC,
    MIN_VERIFY_STEPS,
    VERIFY_STEPS,
    VERIFY_STRIDE,
    VERIFY_TRANSIENT,
    SimplexPoint,
    _Record,
    validate,
)

# Most trace values a config may make one command store, over all its runs.
# The largest perfbench workload (simulate-dense) stores 350k.
MAX_STORED_VALUES = 5_000_000


# ---------------------------------------------------------------------------
# config parsing: the only code that reads the raw dict


def _reject_constant(name: str):
    # json.load reads NaN, Infinity and -Infinity, which JSON does not have
    raise ValueError(f"{name} is not a JSON value")


def _load_config(path) -> dict:
    try:
        with open(path, "r", encoding="utf-8") as fh:
            cfg = json.load(fh, parse_constant=_reject_constant)
    except OSError as exc:
        raise ValidationError(f"cannot read config: {exc}") from exc
    except (ValueError, RecursionError) as exc:
        # bad JSON or UTF-8, or nesting deeper than the parser recurses
        raise ValidationError(f"config is not valid JSON: {exc}") from exc
    if not isinstance(cfg, dict):
        raise ValidationError("config root must be a JSON object")
    return cfg


def _bounded(value, name: str, at_least=None, above=None, below=None):
    """`value` checked against the schema's minimum, exclusiveMinimum and
    exclusiveMaximum, where given."""
    if at_least is not None and not value >= at_least:
        rel, bound = ">=", at_least
    elif above is not None and not value > above:
        rel, bound = ">", above
    elif below is not None and not value < below:
        rel, bound = "<", below
    else:
        return value
    raise ValidationError(f"{name} must be {rel} {bound}, got {value!r}")


def _int(value, name: str, at_least: int | None = None) -> int:
    """A schema integer: 1e6 passes, booleans and fractions do not."""
    if isinstance(value, float) and value.is_integer():
        value = int(value)
    elif not isinstance(value, int) or isinstance(value, bool):
        raise ValidationError(f"{name} must be an integer, got {value!r}")
    return _bounded(value, name, at_least)


def _num(value, name: str, **bounds) -> float:
    if isinstance(value, (int, float)) and not isinstance(value, bool):
        return float(_bounded(value, name, **bounds))
    raise ValidationError(f"{name} must be a number, got {value!r}")


def _of(kind: type, value, name: str, alternative: str = ""):
    if not isinstance(value, kind):
        kind = {list: "an array", dict: "an object", str: "a string"}[kind]
        raise ValidationError(
            f"{name} must be {alternative}{kind}, got {value!r}")
    return value


def _nums(value, name: str) -> tuple[float, ...]:
    return tuple(_num(v, f"{name}[{i}]")
                 for i, v in enumerate(_of(list, value, name)))


def _point(value, name: str, m: int, tols: dict) -> SimplexPoint:
    p = validate(_nums(value, name), **tols)
    if p.m != m:
        raise ValidationError(f"{name} has m={p.m}, the matrix has m={m}")
    return p


def _read(cfg: dict, key: str, reader, default=None, *args, **kwargs):
    """reader(cfg[key], key, *args, **kwargs), or `default` if absent; any
    failure names the key."""
    if key not in cfg:
        return default
    try:
        return reader(cfg[key], key, *args, **kwargs)
    except ValidationError:
        raise
    except (TypeError, ValueError, KeyError, AttributeError,
            OverflowError) as exc:
        what = f"missing {exc}" if isinstance(exc, KeyError) else exc
        raise ValidationError(f"{key}: {what}") from exc


def _matrix(rows, name: str) -> SkewMatrix:
    return SkewMatrix(tuple(_nums(row, f"{name}[{i}]")
                            for i, row in enumerate(_of(list, rows, name))))


def _canonical(node, name: str) -> SkewMatrix:
    vals = (tuple(_num(node[k], f"{name}.{k}", at_least=0)
                  for k in PARAM_NAMES) if isinstance(node, dict) else
            tuple(_num(v, f"{name}[{i}]", at_least=0)
                  for i, v in enumerate(_of(list, node, name))))
    if len(vals) != 6:
        raise ValidationError(f"{name} needs 6 values")
    return matrix_from_canonical(vals)


def _tolerances(node, name: str) -> dict:
    node = _of(dict, node, name)
    return {arg: _num(node[key], f"{name}.{key}", above=0) for key, arg in
            (("validate_sum", "sum_tol"), ("negative_clamp", "neg_tol"))
            if key in node}


def _starts(node, name: str, m: int, tols: dict):
    """(explicit points, count, seed); the random starts are drawn later."""
    node = _of(dict, node, name)
    points = tuple(_point(p, f"{name}.points[{i}]", m, tols) for i, p in
                   enumerate(_of(list, node.get("points", []),
                                 f"{name}.points")))
    count = _int(node.get("count", 0), f"{name}.count", 0)
    seed = _int(node["seed"], f"{name}.seed", 0) if "seed" in node else None
    if count > 0 and seed is None:
        raise ValidationError("random starts need a 'seed'")
    return points, count, seed


def _checkpoints(node, name: str):
    if node == "dyadic":
        return None
    node = _of(list, node, name, '"dyadic" or ')
    if not node:
        raise ValidationError(f"{name} must list at least one step")
    return tuple(_int(n, f"{name}[{i}]", 1) for i, n in enumerate(node))


def _observables(node, name: str, m: int) -> tuple:
    from .ergodic import (CoordinateObservable, MonomialObservable,
                          split_observables)

    node = _of(dict, node, name)
    labels = _of(list, node.get("coordinates", []), f"{name}.coordinates")
    obs = [CoordinateObservable(_int(v, f"{name}.coordinates[{i}]"))
           for i, v in enumerate(labels)]
    monomials = _of(list, node.get("monomials", []), f"{name}.monomials")
    for k, entry in enumerate(monomials):
        where = f"{name}.monomials[{k}]"
        if not isinstance(entry, dict):     # a bare exponent array
            entry = {"exponents": entry}
        obs.append(MonomialObservable(
            _nums(entry["exponents"], f"{where}.exponents"),
            name=_of(str, entry.get("name", f"F{k + 1}"), f"{where}.name")))
    split_observables(obs, m)
    return tuple(obs)


def _check_size(stored: int, name: str, advice: str) -> None:
    if stored > MAX_STORED_VALUES:
        raise ValidationError(
            f"{name}: the runs would store {stored} values, more than "
            f"{MAX_STORED_VALUES}; {advice}")


def _verify(node, name: str, m: int, tols: dict,
            fallback: SimplexPoint | None):
    """(start, steps, transient) of the Lyapunov check; None when off."""
    if node is False:
        return None
    node = _of(dict, node, name, "false or ")
    start = (_point(node["start"], f"{name}.start", m, tols)
             if "start" in node else fallback)
    steps = _int(node.get("steps", VERIFY_STEPS), f"{name}.steps",
                 MIN_VERIFY_STEPS)
    # verify_along_trajectory traces one monomial: m + 2 values a row
    _check_size(((steps - 1) // VERIFY_STRIDE + 2) * (m + 2),
                f"{name}.steps", f"lower {name}.steps")
    return start, steps, _int(node.get("transient", VERIFY_TRANSIENT),
                              f"{name}.transient", 0)


class _Config(_Record):
    """Everything a config describes, type-checked and built by _parse."""

    matrix: SkewMatrix
    runs: tuple[TrajectoryConfig, ...]      # simulate: one per start
    observables: tuple                      # empty: the coordinates
    workers: int
    delta_conv: float
    delta_osc: float
    # a None start: the first random start, drawn when the check runs
    verify: tuple[SimplexPoint | None, int, int] | None
    seed: int | None                        # of the random starts
    min_coord: float


def _parse(cfg: dict, command: str) -> _Config:
    """Check every key against the schema's types and bounds, and build
    every object the config describes, whatever the command, so a config is
    accepted or rejected as a whole before any work.  Only simulate draws
    its random starts here, after every check; lyapunov draws the first,
    its check's start by default, only when the check runs."""
    if ("matrix" in cfg) == ("canonical_params" in cfg):
        raise ValidationError("config needs exactly one of 'matrix' and "
                              "'canonical_params'")
    matrix = _read(cfg, "matrix", _matrix,
                   _read(cfg, "canonical_params", _canonical))
    m = matrix.m
    if _read(cfg, "m", _int, m) != m:
        raise ValidationError(f"declared m={cfg['m']}, matrix has m={m}")
    tols = _read(cfg, "tolerances", _tolerances, {})
    min_coord = _read(cfg, "min_coord", _num, 0.01, at_least=0)
    points, count, seed = _read(cfg, "starts", _starts, ((), 0, None),
                                m, tols)
    if count > 0 and not min_coord < 1.0 / m:
        raise ValidationError(f"min_coord must be < 1/m for random starts, "
                              f"got {min_coord!r} with m={m}")
    steps = _read(cfg, "steps", _int, None, 1)
    settings = dict(
        epsilon=_read(cfg, "epsilon", _num, 0.05, above=0, below=0.25),
        record_stride=_read(cfg, "record_stride", _int,
                            max(1, (steps or 0) // 1000), 1),
        checkpoints=_read(cfg, "checkpoints", _checkpoints))
    delta_conv = _read(cfg, "delta_conv", _num, DELTA_CONV, above=0)
    delta_osc = _read(cfg, "delta_osc", _num, DELTA_OSC, above=0)
    if delta_conv >= delta_osc:
        raise ValidationError(f"delta_conv must be below delta_osc, got "
                              f"{delta_conv!r} >= {delta_osc!r}")
    observables = _read(cfg, "observables", _observables, (), m)
    if steps is not None:
        from .ergodic import MonomialObservable, TrajectoryConfig

        # trace rows per run times the values per row (see kernel.run)
        _check_size((len(points) + count)
                    * ((steps - 1) // settings["record_stride"] + 2)
                    * (m + 1 + sum(isinstance(o, MonomialObservable)
                                   for o in observables)),
                    "steps", "raise record_stride or run fewer starts")
        # the run settings, checked at a stand-in start whatever the command
        settings.update(matrix=matrix, steps=steps)
        TrajectoryConfig(start=SimplexPoint.barycenter(m), **settings)
    workers = _read(cfg, "workers", _int, 1, 1)
    # no `verify` key reads like an empty object: every default; without a
    # start of its own the check starts at the first start, None while
    # that is a random start not yet drawn
    verify = _read({"verify": {}, **cfg}, "verify", _verify, None, m, tols,
                   points[0] if points else None if count > 0
                   else SimplexPoint.barycenter(m))
    runs = ()
    if command == "simulate" and steps is not None:
        starts = points
        if count > 0:
            from .sampling import interior_points

            starts += tuple(interior_points(m, count, seed, min_coord))
            if verify is not None and verify[0] is None:
                verify = (starts[0], *verify[1:])
        runs = tuple(TrajectoryConfig(start=s, **settings) for s in starts)
    return _Config(
        matrix=matrix,
        runs=runs,
        observables=observables,
        workers=workers,
        delta_conv=delta_conv,
        delta_osc=delta_osc,
        verify=verify,
        seed=seed,
        min_coord=min_coord,
    )


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


def _check_out(out_dir: Path) -> None:
    """Check, creating nothing, that `out_dir` is a directory or can be made
    into one: its nearest existing ancestor must be a directory we may
    write in."""
    try:
        existing = next(p for p in (out_dir, *out_dir.parents) if p.exists())
        is_dir = existing.is_dir()
    except OSError as exc:
        raise ValidationError(f"--out {out_dir}: {exc}") from exc
    if not is_dir:
        raise ValidationError(f"--out {out_dir}: {existing} is not a "
                              "directory")
    if not os.access(existing, os.W_OK | os.X_OK):
        raise ValidationError(f"--out {out_dir}: {existing} is not writable")


def _write_json(payload: dict, out_dir: Path, name: str) -> None:
    """Write `payload` as `name` in `out_dir` and echo it to stdout."""
    text = json.dumps(_jsonable(payload), indent=2) + "\n"
    try:
        out_dir.mkdir(parents=True, exist_ok=True)
        (out_dir / name).write_text(text, encoding="utf-8")
    except OSError as exc:
        raise ValidationError(f"cannot write output: {exc}") from exc
    sys.stdout.write(text)


# ---------------------------------------------------------------------------
# subcommands


def cmd_classify(parsed: _Config, out_dir: Path) -> int:
    from .classify import classify

    a = parsed.matrix
    report = classify(a)
    params = report.canonical_params
    payload = {
        "m": a.m,
        "matrix": a.rows,
        "class": int(report.volterra_class),
        "class_name": report.volterra_class.name.lower(),
        "witness_row": report.witness_row,
        "permutation": report.permutation,
        "canonical_params": (
            {k: getattr(params, k) for k in PARAM_NAMES}
            if params else None),
        "invariant_i": report.invariant,
    }
    _write_json(payload, out_dir, "classification.json")
    return 0


def cmd_fixed_points(parsed: _Config, out_dir: Path) -> int:
    from .fixed_points import all_fixed_points

    a = parsed.matrix
    inventory = all_fixed_points(a)
    payload = {
        "m": a.m,
        "matrix": a.rows,
        "everywhere_fixed": inventory.everywhere_fixed,
        "degenerate_interior": inventory.degenerate_interior,
        "degenerate_edges": [f.support for f in inventory.degenerate_edges],
        "degenerate_faces": [f.support for f in inventory.degenerate_faces],
        "records": [
            {
                "point": rec.point.coords,
                "support": rec.support.support,
                "stability": rec.stability.value,
                "degenerate": rec.degenerate,
                "transverse_multipliers": rec.transverse_multipliers,
                "in_face_eigenvalues": [
                    [z.real, z.imag] for z in rec.in_face_eigenvalues],
            }
            for rec in inventory.records
        ],
    }
    _write_json(payload, out_dir, "fixed_points.json")
    return 0


def cmd_lyapunov(parsed: _Config, out_dir: Path) -> int:
    from .lyapunov import (synthesize, verify_along_trajectory,
                           vertex_constraint_values)

    a = parsed.matrix
    candidate = synthesize(a)
    payload = {
        "m": a.m,
        "matrix": a.rows,
        "feasible": candidate is not None,
        "exponents": None,
        "margin": None,
        "vertex_gains": None,
        "vertex_constraint_values": None,
        "verify": None,
    }
    if candidate is not None:
        payload["exponents"] = candidate.exponents
        payload["margin"] = candidate.margin
        payload["vertex_gains"] = candidate.vertex_gains
        payload["vertex_constraint_values"] = vertex_constraint_values(
            a, candidate.exponents)
        if parsed.verify is not None:
            start, steps, transient = parsed.verify
            if start is None:
                from .sampling import interior_points

                [start] = interior_points(a.m, 1, parsed.seed,
                                          parsed.min_coord)
            report = verify_along_trajectory(candidate, a, start, steps,
                                             transient)
            payload["verify"] = {
                "verdict": report.verdict.value,
                "decade_drifts": report.decade_drifts,
                "log_start": report.log_start,
                "log_end": report.log_end,
            }
    _write_json(payload, out_dir, "lyapunov.json")
    return 0


def _start_summary(index: int, start: SimplexPoint, result, coord_names,
                   delta_conv: float, delta_osc: float) -> dict:
    from .ergodic import ergodic_verdict, route_check, sojourn_growth

    verdict_value = None
    oscillation = {}
    series = ([s for s in result.cesaro if s.function_id in coord_names]
              or result.cesaro)
    try:
        verdict = ergodic_verdict(series, delta_conv, delta_osc)
        verdict_value = verdict.verdict.value
        oscillation = {name: v for name, v in verdict.oscillation}
    except TooFewCheckpoints:
        pass
    table = result.sojourn
    route_ok = route_check(table) if result.m == 4 else None
    try:
        growth = sojourn_growth(table, vertex=1)
    except TooFewSojourns:
        growth = None
    return {
        "index": index,
        "start": start.coords,
        "verdict": verdict_value,
        "oscillation": oscillation,
        "sojourn_event_count": len(table.events),
        "route": table.route(),
        "route_ok": route_ok,
        "growth_at_vertex_1": growth,
        "min_log_phi": result.min_log_phi,
        "final": [math.exp(v) for v in result.final.log_coords],
        "final_log": result.final.log_coords,
        "max_abs_drift": result.max_abs_drift,
    }


def cmd_simulate(parsed: _Config, out_dir: Path) -> int:
    a, runs = parsed.matrix, parsed.runs
    if not runs:
        raise ValidationError("simulate needs 'steps' and at least one start")
    from . import kernel
    from .ergodic import (CoordinateObservable, _check_tree, _write_tree,
                          coordinate_observables, run_ensemble)

    _check_tree(out_dir)
    observables = parsed.observables or coordinate_observables(a.m)
    level = os.environ.get("VOLQSO_LOG")
    if level:   # unset, the level is WARNING and nothing would be logged
        import logging

        logging.basicConfig(
            level=getattr(logging, level.upper(), logging.WARNING),
            format="%(levelname)s %(name)s: %(message)s")
        logging.getLogger("volqso").info(
            "simulate: %d starts, %d steps, backend=%s (%s)", len(runs),
            runs[0].steps, kernel.BACKEND, kernel.BACKEND_REASON)
    results = run_ensemble(runs, observables, workers=parsed.workers)

    coord_names = {o.name for o in observables
                   if isinstance(o, CoordinateObservable)}
    summaries = [_start_summary(i, run.start, result, coord_names,
                                parsed.delta_conv, parsed.delta_osc)
                 for i, (run, result) in enumerate(zip(runs, results))]
    payload = {
        "m": a.m,
        "matrix": a.rows,
        "steps": runs[0].steps,
        "epsilon": runs[0].epsilon,
        "record_stride": runs[0].record_stride,
        "checkpoints": runs[0].checkpoints or "dyadic",
        "observables": results[0].observable_names,
        "delta_conv": parsed.delta_conv,
        "delta_osc": parsed.delta_osc,
        "backend": kernel.BACKEND,
        "starts": summaries,
    }
    try:
        _write_tree(out_dir, results,
                    json.dumps(_jsonable(payload), indent=2) + "\n")
    except OSError as exc:
        raise ValidationError(f"cannot write output: {exc}") from exc
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
    args = _build_parser().parse_args(argv)
    out_dir = Path(args.out)
    try:
        _check_out(out_dir)
        parsed = _parse(_load_config(args.config), args.command)
        return _COMMANDS[args.command](parsed, out_dir)
    except ValidationError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except NumericalDiagnostic as exc:
        print(f"numerical diagnostic: {exc}", file=sys.stderr)
        return 3


if __name__ == "__main__":
    sys.exit(main())
