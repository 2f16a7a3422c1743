import contextlib
import copy
import importlib
import io
import json
import os
import shutil
import subprocess
import sys
from pathlib import Path

import jsonschema
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

import volqso
from volqso import cli
from volqso.cli import main
from volqso.ergodic import run_trajectory
from volqso.lyapunov import verify_along_trajectory
from volqso.sampling import interior_points

DOCS = Path(__file__).resolve().parents[1] / "docs" / "schemas"
EXAMPLE = DOCS.parent / "example-config.json"

ALL_HALF_ROWS = [[0, 0.5, 0.5, -0.5], [-0.5, 0, 0.5, 0.5],
                 [-0.5, -0.5, 0, 0.5], [0.5, -0.5, -0.5, 0]]


def schema(name):
    return json.loads((DOCS / name).read_text())


def write_config(tmp_path, payload, name="cfg.json") -> str:
    path = tmp_path / name
    path.write_text(json.dumps(payload))
    return str(path)


# The module that defines each function a command calls.  The CLI imports it
# from there when the command runs, so that is where a test replaces it.
# (The package attribute `volqso.classify` is the function, so the dotted
# path "volqso.classify.classify" cannot name the module.)
HOMES = {"interior_points": "volqso.sampling", "classify": "volqso.classify",
         "all_fixed_points": "volqso.fixed_points",
         "synthesize": "volqso.lyapunov", "run_ensemble": "volqso.ergodic"}


def replace_at_home(monkeypatch, name, value):
    monkeypatch.setattr(importlib.import_module(HOMES[name]), name, value)


def tree_bytes(root: Path, skip=()) -> dict:
    return {
        str(p.relative_to(root)): p.read_bytes()
        for p in sorted(root.rglob("*"))
        if p.is_file() and p.name not in skip
    }


class TestClassifyCommand:
    def test_cyclic_report(self, tmp_path, capsys):
        cfg = write_config(tmp_path, {"matrix": ALL_HALF_ROWS})
        assert main(["classify", "--config", cfg,
                     "--out", str(tmp_path / "out")]) == 0
        payload = json.loads((tmp_path / "out" / "classification.json")
                             .read_text())
        jsonschema.validate(payload, schema("classification.schema.json"))
        assert payload["class"] == 3
        assert payload["permutation"] == [1, 2, 3, 4]
        assert payload["invariant_i"] == 0.25
        assert json.loads(capsys.readouterr().out) == payload

    def test_dominant_row_report(self, tmp_path):
        rows = [[0, 0.5, 0.5, 0.5], [-0.5, 0, 0.3, -0.2],
                [-0.5, -0.3, 0, 0.4], [-0.5, 0.2, -0.4, 0]]
        cfg = write_config(tmp_path, {"matrix": rows})
        assert main(["classify", "--config", cfg,
                     "--out", str(tmp_path / "out")]) == 0
        payload = json.loads((tmp_path / "out" / "classification.json")
                             .read_text())
        jsonschema.validate(payload, schema("classification.schema.json"))
        assert payload["class"] == 1
        assert payload["witness_row"] == 1
        assert payload["canonical_params"] is None

    def test_canonical_params_input(self, tmp_path):
        cfg = write_config(tmp_path, {"canonical_params": {
            "a12": 0.5, "a13": 0.5, "a14": 0.5,
            "a23": 0.5, "a24": 0.5, "a34": 0.5}})
        assert main(["classify", "--config", cfg,
                     "--out", str(tmp_path / "out")]) == 0
        payload = json.loads((tmp_path / "out" / "classification.json")
                             .read_text())
        assert payload["matrix"] == [[float(v) for v in r]
                                     for r in ALL_HALF_ROWS]

    def test_non_skew_matrix_exits_2(self, tmp_path, capsys):
        cfg = write_config(tmp_path, {"matrix": [[0, 0.5], [0.5, 0]]})
        assert main(["classify", "--config", cfg,
                     "--out", str(tmp_path / "out")]) == 2
        assert "error" in capsys.readouterr().err

    def test_missing_config_exits_2(self, tmp_path):
        assert main(["classify", "--config", str(tmp_path / "nope.json"),
                     "--out", str(tmp_path / "out")]) == 2

    def test_invalid_json_exits_2(self, tmp_path):
        path = tmp_path / "bad.json"
        path.write_text("{not json")
        assert main(["classify", "--config", str(path),
                     "--out", str(tmp_path / "out")]) == 2

    def test_non_utf8_config_exits_2(self, tmp_path):
        path = tmp_path / "latin1.json"
        path.write_bytes(b'{"matrix": "\xff"}')
        assert main(["classify", "--config", str(path),
                     "--out", str(tmp_path / "out")]) == 2

    def test_deeply_nested_config_exits_2(self, tmp_path, capsys):
        # nested deeper than the JSON parser recurses: once a traceback
        path = tmp_path / "deep.json"
        path.write_text("[" * 100_000)
        out = tmp_path / "out"
        assert main(["classify", "--config", str(path),
                     "--out", str(out)]) == 2
        [line] = capsys.readouterr().err.splitlines()
        assert line.startswith("error: config is not valid JSON: ")
        assert not out.exists()


COMMANDS = ["classify", "fixed-points", "lyapunov", "simulate"]


@pytest.mark.parametrize("constant", ["NaN", "Infinity", "-Infinity"])
@pytest.mark.parametrize("command", COMMANDS)
def test_non_json_constants_exit_2(tmp_path, capsys, command, constant):
    # Python's json reads these; as unbounded tolerances they once let
    # the start [-5, 0.5, 0.5, 9] run from [0, 0.05, 0.05, 0.9]
    path = tmp_path / "cfg.json"
    path.write_text(
        '{"matrix": %s, "steps": 100, "starts": {"points": '
        '[[-5, 0.5, 0.5, 9]]}, "tolerances": {"validate_sum": %s, '
        '"negative_clamp": %s}}'
        % (json.dumps(ALL_HALF_ROWS), constant, constant))
    out = tmp_path / "out"
    assert main([command, "--config", str(path), "--out", str(out)]) == 2
    [line] = capsys.readouterr().err.splitlines()
    assert line == (f"error: config is not valid JSON: {constant} is not "
                    "a JSON value")
    assert not out.exists()


class TestFixedPointsCommand:
    def test_inventory_shape(self, tmp_path):
        cfg = write_config(tmp_path, {"matrix": ALL_HALF_ROWS})
        assert main(["fixed-points", "--config", cfg,
                     "--out", str(tmp_path / "out")]) == 0
        payload = json.loads((tmp_path / "out" / "fixed_points.json")
                             .read_text())
        jsonschema.validate(payload, schema("fixed_points.schema.json"))
        assert len(payload["records"]) == 6
        stabilities = {tuple(r["support"]): r["stability"]
                       for r in payload["records"]}
        assert stabilities[(1, 3, 4)] == "repelling"
        assert stabilities[(1, 2, 4)] == "saddle"

    def test_zero_matrix_flag(self, tmp_path):
        cfg = write_config(tmp_path, {"matrix": [[0.0] * 4] * 4})
        assert main(["fixed-points", "--config", cfg,
                     "--out", str(tmp_path / "out")]) == 0
        payload = json.loads((tmp_path / "out" / "fixed_points.json")
                             .read_text())
        jsonschema.validate(payload, schema("fixed_points.schema.json"))
        assert payload["everywhere_fixed"]
        assert len(payload["records"]) == 4


class TestLyapunovCommand:
    def test_feasible_with_verification(self, tmp_path):
        cfg = write_config(tmp_path, {
            "matrix": ALL_HALF_ROWS,
            "verify": {"start": [0.4, 0.3, 0.2, 0.1], "steps": 20000},
        })
        assert main(["lyapunov", "--config", cfg,
                     "--out", str(tmp_path / "out")]) == 0
        payload = json.loads((tmp_path / "out" / "lyapunov.json").read_text())
        jsonschema.validate(payload, schema("lyapunov.schema.json"))
        assert payload["feasible"]
        assert payload["margin"] > 0
        assert all(g < 1 for g in payload["vertex_gains"])
        assert payload["verify"]["verdict"] == "decaying"

    def test_zero_matrix_infeasible(self, tmp_path):
        cfg = write_config(tmp_path, {"matrix": [[0.0] * 4] * 4})
        assert main(["lyapunov", "--config", cfg,
                     "--out", str(tmp_path / "out")]) == 0
        payload = json.loads((tmp_path / "out" / "lyapunov.json").read_text())
        jsonschema.validate(payload, schema("lyapunov.schema.json"))
        assert not payload["feasible"]
        assert payload["exponents"] is None
        assert payload["verify"] is None

    def test_unit_entries_numerical_diagnostic_exit_3(self, tmp_path):
        rows = [[0, 1, -1], [-1, 0, 1], [1, -1, 0]]
        cfg = write_config(tmp_path, {"matrix": rows})
        assert main(["lyapunov", "--config", cfg,
                     "--out", str(tmp_path / "out")]) == 3


class TestSimulateCommand:
    def test_identity_run_constant_trajectory(self, tmp_path):
        cfg = write_config(tmp_path, {
            "matrix": [[0.0] * 4] * 4,
            "starts": {"points": [[0.4, 0.3, 0.2, 0.1]]},
            "steps": 100,
            "record_stride": 10,
        })
        out = tmp_path / "out"
        assert main(["simulate", "--config", cfg, "--out", str(out)]) == 0
        lines = (out / "start_000" / "trajectory.csv").read_text().splitlines()
        assert lines[0] == "step,x1,x2,x3,x4"
        rows = {line.split(",", 1)[1] for line in lines[1:]}
        assert len(rows) == 1       # identical coordinates at every step
        payload = json.loads((out / "summary.json").read_text())
        jsonschema.validate(payload, schema("summary.schema.json"))

    def test_headers_documented(self, tmp_path):
        cfg = write_config(tmp_path, {
            "matrix": ALL_HALF_ROWS,
            "starts": {"points": [[0.4, 0.3, 0.2, 0.1]]},
            "steps": 5000,
            "record_stride": 500,
            "observables": {"coordinates": [1, 2, 3, 4],
                            "monomials": [{"name": "F1",
                                           "exponents": [0.4, 0, 0.3, 0.3]}]},
        })
        out = tmp_path / "out"
        assert main(["simulate", "--config", cfg, "--out", str(out)]) == 0
        d = out / "start_000"
        assert (d / "trajectory.csv").read_text().splitlines()[0] == \
            "step,x1,x2,x3,x4"
        assert (d / "cesaro.csv").read_text().splitlines()[0] == \
            "n,x1,x2,x3,x4,F1"
        assert (d / "sojourn.csv").read_text().splitlines()[0] == \
            ("vertex,entry_step,exit_step,length,censored,started_inside,"
             "log_phi_entry,phi_entry")
        assert (d / "phi.csv").read_text().splitlines()[0] == \
            "step,phi,log_phi,log_F1"
        assert (d / "outside.csv").read_text().splitlines()[0] == \
            "window_start,window_end,outside_fraction"

    def test_summary_schema_and_route(self, tmp_path):
        cfg = write_config(tmp_path, {
            "matrix": ALL_HALF_ROWS,
            "starts": {"points": [[0.4, 0.3, 0.2, 0.1]], "count": 1,
                       "seed": 3},
            "steps": 50000,
            "record_stride": 5000,
        })
        out = tmp_path / "out"
        assert main(["simulate", "--config", cfg, "--out", str(out)]) == 0
        payload = json.loads((out / "summary.json").read_text())
        jsonschema.validate(payload, schema("summary.schema.json"))
        assert len(payload["starts"]) == 2
        first = payload["starts"][0]
        assert first["route"][:2] == [1, 4]
        assert first["route_ok"] is True

    def test_missing_steps_exits_2(self, tmp_path):
        cfg = write_config(tmp_path, {
            "matrix": ALL_HALF_ROWS,
            "starts": {"points": [[0.25, 0.25, 0.25, 0.25]]},
        })
        assert main(["simulate", "--config", cfg,
                     "--out", str(tmp_path / "out")]) == 2

    def test_random_starts_need_seed(self, tmp_path):
        cfg = write_config(tmp_path, {
            "matrix": ALL_HALF_ROWS,
            "starts": {"count": 2},
            "steps": 100,
        })
        assert main(["simulate", "--config", cfg,
                     "--out", str(tmp_path / "out")]) == 2

    def test_byte_determinism_same_config(self, tmp_path):
        cfg = write_config(tmp_path, {
            "matrix": ALL_HALF_ROWS,
            "starts": {"points": [[0.4, 0.3, 0.2, 0.1]], "count": 2,
                       "seed": 11},
            "steps": 20000,
            "record_stride": 500,
        })
        out1, out2 = tmp_path / "o1", tmp_path / "o2"
        assert main(["simulate", "--config", cfg, "--out", str(out1)]) == 0
        assert main(["simulate", "--config", cfg, "--out", str(out2)]) == 0
        assert tree_bytes(out1) == tree_bytes(out2)

    def test_byte_determinism_across_workers(self, tmp_path):
        base = {
            "matrix": ALL_HALF_ROWS,
            "starts": {"points": [[0.4, 0.3, 0.2, 0.1]], "count": 3,
                       "seed": 11},
            "steps": 20000,
            "record_stride": 500,
        }
        cfg1 = write_config(tmp_path, dict(base, workers=1), "w1.json")
        cfg8 = write_config(tmp_path, dict(base, workers=8), "w8.json")
        out1, out8 = tmp_path / "w1", tmp_path / "w8"
        assert main(["simulate", "--config", cfg1, "--out", str(out1)]) == 0
        assert main(["simulate", "--config", cfg8, "--out", str(out8)]) == 0
        assert tree_bytes(out1) == tree_bytes(out8)

    def test_non_ascii_name_in_ascii_locale(self, tmp_path):
        # the CSVs are UTF-8 whatever the locale's encoding, like the JSON
        cfg = write_config(tmp_path, {
            "matrix": ALL_HALF_ROWS,
            "starts": {"points": [[0.4, 0.3, 0.2, 0.1]]},
            "steps": 100,
            "record_stride": 10,
            "observables": {"coordinates": [1], "monomials": [
                {"name": "\u03c61", "exponents": [0.25] * 4}]},
        })
        out = tmp_path / "out"
        env = dict(os.environ, LC_ALL="C", PYTHONUTF8="0",
                   PYTHONCOERCECLOCALE="0",
                   PYTHONPATH=str(Path(volqso.__file__).parents[1]))
        proc = subprocess.run(
            [sys.executable, "-c",
             "import sys; from volqso.cli import main; sys.exit(main())",
             "simulate", "--config", cfg, "--out", str(out)],
            env=env, capture_output=True, text=True, timeout=300)
        assert proc.returncode == 0, proc.stderr
        d = out / "start_000"
        assert (d / "cesaro.csv").read_bytes().startswith(
            "n,x1,\u03c61\r\n".encode("utf-8"))
        assert (d / "phi.csv").read_bytes().startswith(
            "step,phi,log_phi,log_\u03c61\r\n".encode("utf-8"))

    @pytest.mark.parametrize("command", ["simulate", "classify"])
    def test_log_line_only_from_simulate(self, tmp_path, command):
        # VOLQSO_LOG=info: simulate logs its one line (starts, steps,
        # backend and reason) to stderr; no other command logs
        cfg = write_config(tmp_path, SIMULATE_BASE)
        env = dict(os.environ, VOLQSO_LOG="info",
                   PYTHONPATH=str(Path(volqso.__file__).parents[1]))
        proc = subprocess.run(
            [sys.executable, "-c",
             "import sys; from volqso.cli import main; code = main(); "
             "import volqso.kernel as k; print(k.BACKEND, k.BACKEND_REASON, "
             "sep='\\n'); sys.exit(code)",
             command, "--config", cfg, "--out", str(tmp_path / "out")],
            env=env, capture_output=True, text=True, timeout=300)
        assert proc.returncode == 0, proc.stderr
        backend, reason = proc.stdout.splitlines()[-2:]
        assert proc.stderr == ("" if command == "classify" else
                               f"INFO volqso: simulate: 1 starts, 100 steps, "
                               f"backend={backend} ({reason})\n")

    def test_m3_simulation(self, tmp_path):
        cfg = write_config(tmp_path, {
            "matrix": [[0, 1, -1], [-1, 0, 1], [1, -1, 0]],
            "starts": {"points": [[0.5, 0.3, 0.2]]},
            "steps": 4096,
            "record_stride": 512,
        })
        out = tmp_path / "out"
        assert main(["simulate", "--config", cfg, "--out", str(out)]) == 0
        payload = json.loads((out / "summary.json").read_text())
        jsonschema.validate(payload, schema("summary.schema.json"))
        assert payload["starts"][0]["route_ok"] is None
        header = (out / "start_000" / "trajectory.csv").read_text() \
            .splitlines()[0]
        assert header == "step,x1,x2,x3"


class TestKernelChoice:
    """A VOLQSO_KERNEL that names no backend, or forces the compiled one
    where no compiler exists, is a validation error of the commands that
    run the kernel: one `error:` line, exit 2, no output.  The commands
    that never load the kernel ignore the variable."""

    CONFIG = {"matrix": ALL_HALF_ROWS,
              "starts": {"points": [[0.4, 0.3, 0.2, 0.1]]}, "steps": 2000,
              "verify": {"start": [0.4, 0.3, 0.2, 0.1], "steps": 2000}}

    @pytest.mark.parametrize("command,choice", [
        ("simulate", "bogus"), ("simulate", "compiled"),
        ("lyapunov", "bogus"), ("lyapunov", "compiled"),
        ("classify", "bogus"), ("fixed-points", "bogus")])
    def test_unusable_kernel_choice(self, tmp_path, command, choice):
        # a copy of the package without a built library, and no compiler
        shutil.copytree(Path(volqso.__file__).parent,
                        tmp_path / "pkg" / "volqso",
                        ignore=shutil.ignore_patterns("__pycache__"))
        env = dict(os.environ, VOLQSO_KERNEL=choice,
                   CC=str(tmp_path / "no-such-cc"),
                   PYTHONPATH=str(tmp_path / "pkg"))
        out = tmp_path / "out"
        proc = subprocess.run(
            [sys.executable, "-m", "volqso.cli", command, "--config",
             write_config(tmp_path, self.CONFIG), "--out", str(out)],
            env=env, capture_output=True, text=True, timeout=300)
        if command in ("classify", "fixed-points"):
            assert proc.returncode == 0, proc.stderr
            assert any(out.iterdir())
            return
        reason = ("VOLQSO_KERNEL='bogus'; expected auto, python or compiled"
                  if choice == "bogus" else
                  "compiled trajectory kernel unavailable: compiler "
                  f"{str(tmp_path / 'no-such-cc')!r} not found")
        assert proc.returncode == 2
        assert proc.stderr.startswith(f"error: {reason}")
        assert proc.stderr.count("\n") == 1
        assert proc.stdout == ""
        assert not out.exists()

    def test_lyapunov_without_a_check_draws_nothing(self, tmp_path):
        # an infeasible LP runs no check, so the random start the check
        # would start from is never drawn and no backend is loaded
        env = dict(os.environ, VOLQSO_KERNEL="bogus",
                   PYTHONPATH=str(Path(volqso.__file__).parents[1]))
        out = tmp_path / "out"
        proc = subprocess.run(
            [sys.executable, "-m", "volqso.cli", "lyapunov", "--config",
             write_config(tmp_path, {"matrix": [[0.0] * 3] * 3,
                                     "starts": {"count": 2, "seed": 1}}),
             "--out", str(out)],
            env=env, capture_output=True, text=True, timeout=300)
        assert (proc.returncode, proc.stderr) == (0, "")
        report = json.loads((out / "lyapunov.json").read_text())
        assert report["feasible"] is False and report["verify"] is None


class TestDeclaredDimension:
    def test_consistent_m_accepted(self, tmp_path):
        cfg = write_config(tmp_path, {"m": 4, "matrix": ALL_HALF_ROWS})
        assert main(["classify", "--config", cfg,
                     "--out", str(tmp_path / "out")]) == 0

    def test_mismatched_m_rejected(self, tmp_path):
        cfg = write_config(tmp_path, {"m": 3, "matrix": ALL_HALF_ROWS})
        assert main(["classify", "--config", cfg,
                     "--out", str(tmp_path / "out")]) == 2


class TestExampleConfig:
    def test_validates_against_schema(self):
        jsonschema.validate(json.loads(EXAMPLE.read_text()),
                            schema("config.schema.json"))

    @pytest.mark.parametrize("command", ["classify", "fixed-points"])
    def test_small_commands_succeed(self, tmp_path, command):
        assert main([command, "--config", str(EXAMPLE),
                     "--out", str(tmp_path / "out")]) == 0


SIMULATE_BASE = {
    "matrix": ALL_HALF_ROWS,
    "starts": {"points": [[0.4, 0.3, 0.2, 0.1]]},
    "steps": 100,
    "record_stride": 10,
}
HALF_PARAMS = {k: 0.5 for k in ("a12", "a13", "a14", "a23", "a24", "a34")}
ALL_COMMANDS = ["classify", "fixed-points", "lyapunov", "simulate"]


class TestOutputDirectory:
    """`--out` must be a directory or a path that can be made into one.
    Anything else is rejected before any work, with one `error:` line and
    exit 2, and so is a failure to write an output; both once ended in a
    traceback, `simulate` only after running its whole ensemble."""

    CONFIG = dict(SIMULATE_BASE, verify={"steps": 1000})
    REPORTS = {"classify": "classification.json",
               "fixed-points": "fixed_points.json",
               "lyapunov": "lyapunov.json", "simulate": "start_000"}

    @pytest.mark.parametrize("command", ALL_COMMANDS)
    @pytest.mark.parametrize("below", ["", "a/b"], ids=["file", "below-file"])
    def test_file_in_the_way_exits_2_before_any_work(
            self, tmp_path, capsys, monkeypatch, command, below):
        def forbidden(*args, **kwargs):
            raise AssertionError("work started before --out was checked")

        for name in ("classify", "all_fixed_points", "synthesize",
                     "run_ensemble"):
            replace_at_home(monkeypatch, name, forbidden)
        blocker = tmp_path / "F"
        blocker.write_text("kept")
        out = blocker / below if below else blocker
        assert main([command, "--config", write_config(tmp_path, self.CONFIG),
                     "--out", str(out)]) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err == (
            f"error: --out {out}: {blocker} is not a directory\n")
        assert blocker.read_text() == "kept"

    @pytest.mark.parametrize("command", ALL_COMMANDS)
    def test_write_failure_exits_2(self, tmp_path, capsys, command):
        out = tmp_path / "out"
        out.mkdir()
        report = out / self.REPORTS[command]
        # a file where simulate makes a directory, and the reverse
        if command == "simulate":
            report.write_text("kept")
        else:
            report.mkdir()
        assert main([command, "--config", write_config(tmp_path, self.CONFIG),
                     "--out", str(out)]) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        [line] = captured.err.splitlines()
        assert line.startswith("error: cannot write output: ")
        assert str(report) in line

    @pytest.mark.parametrize("command", ALL_COMMANDS)
    def test_missing_parents_are_made(self, tmp_path, command):
        out = tmp_path / "a" / "b"
        assert main([command, "--config", write_config(tmp_path, self.CONFIG),
                     "--out", str(out)]) == 0
        assert any(out.iterdir())

    def test_rejected_config_makes_no_directory(self, tmp_path):
        out = tmp_path / "a" / "b"
        cfg = write_config(tmp_path, dict(self.CONFIG, steps=0))
        assert main(["simulate", "--config", cfg, "--out", str(out)]) == 2
        assert not (tmp_path / "a").exists()

    def simulate(self, tmp_path, out, starts: int) -> int:
        points = [[0.4, 0.3, 0.2, 0.1], [0.1, 0.2, 0.3, 0.4],
                  [0.25, 0.25, 0.25, 0.25]][:starts]
        cfg = write_config(tmp_path, dict(self.CONFIG, starts={
            "points": points}), f"{starts}.json")
        return main(["simulate", "--config", cfg, "--out", str(out)])

    @pytest.mark.parametrize("first,second", [(3, 1), (1, 3), (2, 2)])
    def test_simulate_replaces_its_tree(self, tmp_path, first, second):
        # a used --out ends as a fresh run's tree; the other commands'
        # reports stay, and no temporary directory is left beside it
        fresh, used = tmp_path / "fresh", tmp_path / "used"
        assert self.simulate(tmp_path, fresh, second) == 0
        cfg = write_config(tmp_path, self.CONFIG)
        assert main(["classify", "--config", cfg, "--out", str(used)]) == 0
        report = (used / "classification.json").read_bytes()
        assert self.simulate(tmp_path, used, first) == 0
        assert self.simulate(tmp_path, used, second) == 0
        assert tree_bytes(used) == dict(tree_bytes(fresh), **{
            "classification.json": report})
        assert sorted(p.name for p in tmp_path.iterdir()
                      if p.is_dir()) == ["fresh", "used"]

    @pytest.mark.parametrize("where", ["notes.txt", "start_000/notes.txt",
                                       "start_7/trajectory.csv"])
    def test_simulate_keeps_a_foreign_file(self, tmp_path, capsys,
                                           monkeypatch, where):
        out = tmp_path / "out"
        assert self.simulate(tmp_path, out, 1) == 0
        before = tree_bytes(out)
        foreign = out / where
        foreign.parent.mkdir(exist_ok=True)
        foreign.write_text("kept")

        def forbidden(*args, **kwargs):
            raise AssertionError("work started before --out was checked")

        replace_at_home(monkeypatch, "run_ensemble", forbidden)
        capsys.readouterr()
        assert self.simulate(tmp_path, out, 2) == 2
        [line] = capsys.readouterr().err.splitlines()
        named = out / ("start_7" if where.startswith("start_7") else where)
        assert line == (f"error: cannot write output: {named} was not "
                        "written by volqso, so it is not replaced")
        assert tree_bytes(out) == dict(before, **{where: b"kept"})

    def test_unwritable_parent_exits_2_before_any_work(self, tmp_path, capsys,
                                                       monkeypatch):
        # the new tree is built beside --out, so its parent must be
        # writable; running as root, access() is made to deny it
        out = tmp_path / "out"
        assert self.simulate(tmp_path, out, 1) == 0
        before = tree_bytes(out)
        parent, access = tmp_path.resolve(), os.access
        monkeypatch.setattr(os, "access", lambda path, mode: (
            Path(path) != parent and access(path, mode)))

        def forbidden(*args, **kwargs):
            raise AssertionError("work started before --out was checked")

        replace_at_home(monkeypatch, "run_ensemble", forbidden)
        capsys.readouterr()
        assert self.simulate(tmp_path, out, 2) == 2
        assert capsys.readouterr().err == (
            f"error: --out {out}: cannot replace it, {parent} is not "
            "writable\n")
        assert tree_bytes(out) == before

    def test_failed_write_keeps_the_old_tree(self, tmp_path, capsys,
                                             monkeypatch):
        out = tmp_path / "out"
        assert self.simulate(tmp_path, out, 1) == 0
        before = tree_bytes(out)

        def failing(path, result):
            raise OSError(f"no room for {path.name}")

        monkeypatch.setitem(importlib.import_module("volqso.ergodic")
                            ._RUN_FILES, "phi.csv", failing)
        capsys.readouterr()
        assert self.simulate(tmp_path, out, 3) == 2
        assert capsys.readouterr().err == (
            "error: cannot write output: no room for phi.csv\n")
        assert tree_bytes(out) == before
        assert sorted(p.name for p in tmp_path.iterdir()
                      if p.is_dir()) == ["out"]


# (command, config, key the error must name); each config once ended in a
# traceback or ran although the schema rejects it.
MALFORMED = [
    ("simulate", dict(SIMULATE_BASE, starts={"points": ["ab"]}),
     "starts.points[0]"),
    ("simulate", dict(SIMULATE_BASE, steps="x"), "steps"),
    ("simulate", dict(SIMULATE_BASE, epsilon=None), "epsilon"),
    ("simulate", dict(SIMULATE_BASE, starts=[]), "starts"),
    ("lyapunov", {"matrix": ALL_HALF_ROWS, "verify": True}, "verify"),
    ("simulate", dict(SIMULATE_BASE, tolerances=5), "tolerances"),
    ("simulate", dict(SIMULATE_BASE, checkpoints="foo"), "checkpoints"),
    *[(command, dict(SIMULATE_BASE, m="x"), "m") for command in ALL_COMMANDS],
    ("simulate", dict(SIMULATE_BASE, observables={"monomials": [
        {"name": "F"}]}), "observables"),
    ("simulate", dict(SIMULATE_BASE, observables=[1]), "observables"),
    ("classify", {"canonical_params": dict(HALF_PARAMS, a12="x")},
     "canonical_params.a12"),
    ("simulate", dict(SIMULATE_BASE, delta_conv="a"), "delta_conv"),
    ("simulate", dict(SIMULATE_BASE, min_coord="x",
                      starts={"count": 2, "seed": 1}), "min_coord"),
    ("simulate", dict(SIMULATE_BASE, starts={"count": 2, "seed": "s"}),
     "starts.seed"),
    ("simulate", dict(SIMULATE_BASE, steps=True), "steps"),
    ("simulate", dict(SIMULATE_BASE, steps=2.7), "steps"),
    ("simulate", dict(SIMULATE_BASE, workers="2"), "workers"),
    ("classify", dict(SIMULATE_BASE, steps=True), "steps"),
    ("classify", dict(SIMULATE_BASE, observables={"coordinates": [5]}),
     "observables"),
    ("fixed-points", dict(SIMULATE_BASE, observables={
        "monomials": [[1, 0, 0]]}), "observables"),
    ("lyapunov", dict(SIMULATE_BASE, observables={
        "coordinates": [1],
        "monomials": [{"name": "x1", "exponents": [1, 0, 0, 0]}]}),
     "observables"),
]

# (config, key the error must name): values outside the bounds the schema
# states, checked for every command whether or not there are runs to build
OUT_OF_BOUNDS = [
    ({"matrix": ALL_HALF_ROWS, "steps": 1e15, "record_stride": 1,
      "starts": {"points": [[0.4, 0.3, 0.2, 0.1]], "count": -1, "seed": 1}},
     "starts.count"),
    (dict(SIMULATE_BASE, starts={"count": -3, "seed": 1}), "starts.count"),
    (dict(SIMULATE_BASE, starts={"count": 1, "seed": -1}), "starts.seed"),
    (dict(SIMULATE_BASE, workers=0), "workers"),
    (dict(SIMULATE_BASE, delta_conv=-1), "delta_conv"),
    (dict(SIMULATE_BASE, delta_osc=0), "delta_osc"),
    (dict(SIMULATE_BASE, verify={"transient": -5}), "verify.transient"),
    (dict(SIMULATE_BASE, tolerances={"validate_sum": 0}),
     "tolerances.validate_sum"),
    ({"matrix": ALL_HALF_ROWS, "epsilon": 0.3}, "epsilon"),
    ({"matrix": ALL_HALF_ROWS, "steps": 0}, "steps"),
    ({"matrix": ALL_HALF_ROWS, "record_stride": 0}, "record_stride"),
    ({"matrix": ALL_HALF_ROWS, "checkpoints": [0]}, "checkpoints[0]"),
    ({"matrix": ALL_HALF_ROWS, "min_coord": -0.1}, "min_coord"),
    ({"canonical_params": dict(HALF_PARAMS, a14=-0.5)},
     "canonical_params.a14"),
    ({"canonical_params": [0.5, 0.5, -0.5, 0.5, 0.5, 0.5]},
     "canonical_params[2]"),
    ({"matrix": ALL_HALF_ROWS, "checkpoints": []}, "checkpoints"),
]


class TestConfigParse:
    @pytest.mark.parametrize("command,config,key", MALFORMED,
                             ids=[f"{c}-{k}" for c, _, k in MALFORMED])
    def test_malformed_value_exits_2_naming_key(self, tmp_path, capsys,
                                                command, config, key):
        cfg = write_config(tmp_path, config)
        assert main([command, "--config", cfg,
                     "--out", str(tmp_path / "out")]) == 2
        [line] = capsys.readouterr().err.splitlines()
        assert line.split()[:2] in (["error:", key], ["error:", f"{key}:"])
        assert not (tmp_path / "out").exists()

    @pytest.mark.parametrize("command", ALL_COMMANDS)
    @pytest.mark.parametrize("config,key", OUT_OF_BOUNDS,
                             ids=[k for _, k in OUT_OF_BOUNDS])
    def test_out_of_bounds_exits_2_before_any_work(self, tmp_path, capsys,
                                                   monkeypatch, command,
                                                   config, key):
        def forbidden(*args, **kwargs):
            raise AssertionError("work started before the bound check")

        for name in ("interior_points", "classify", "all_fixed_points",
                     "synthesize", "run_ensemble"):
            replace_at_home(monkeypatch, name, forbidden)
        self.test_malformed_value_exits_2_naming_key(tmp_path, capsys,
                                                     command, config, key)

    @pytest.mark.parametrize("command", ALL_COMMANDS)
    def test_random_start_floor_below_1_over_m(self, tmp_path, capsys,
                                               monkeypatch, command):
        # checked before any work even by the commands that draw no start
        self.test_out_of_bounds_exits_2_before_any_work(
            tmp_path, capsys, monkeypatch, command,
            dict(SIMULATE_BASE, min_coord=0.25,
                 starts={"count": 2, "seed": 1}), "min_coord")

    @pytest.mark.parametrize("command,drawn", [
        ("classify", []), ("fixed-points", []), ("lyapunov", [1]),
        ("simulate", [3])])
    def test_draws_only_the_starts_the_command_reads(self, tmp_path,
                                                      monkeypatch, command,
                                                      drawn):
        counts = []

        def recording(m, count, *args):
            counts.append(count)
            return interior_points(m, count, *args)

        replace_at_home(monkeypatch, "interior_points", recording)
        cfg = write_config(tmp_path, dict(
            SIMULATE_BASE, starts={"count": 3, "seed": 1},
            verify={"steps": 1000}))
        assert main([command, "--config", cfg,
                     "--out", str(tmp_path / "out")]) == 0
        assert counts == drawn

    @pytest.mark.parametrize("command", ALL_COMMANDS)
    def test_matrix_and_canonical_params_together_exit_2(self, tmp_path,
                                                         capsys, command):
        # the all-1/2 matrix and other parameters: neither wins silently
        config = dict(SIMULATE_BASE, canonical_params=[
            0.1, 0.2, 0.3, 0.4, 0.5, 0.6])
        assert not jsonschema.Draft7Validator(
            schema("config.schema.json")).is_valid(config)
        cfg = write_config(tmp_path, config)
        assert main([command, "--config", cfg,
                     "--out", str(tmp_path / "out")]) == 2
        assert capsys.readouterr().err.splitlines() == [
            "error: config needs exactly one of 'matrix' and "
            "'canonical_params'"]
        assert not (tmp_path / "out").exists()

    def test_integral_float_steps_same_bytes(self, tmp_path):
        outs = []
        for steps in (2000, 2000.0):
            cfg = write_config(tmp_path, dict(SIMULATE_BASE, steps=steps),
                               f"{steps!r}.json")
            outs.append(tmp_path / repr(steps))
            assert main(["simulate", "--config", cfg,
                         "--out", str(outs[-1])]) == 0
        assert tree_bytes(outs[0]) == tree_bytes(outs[1])

    def test_config_parsed_before_any_work(self, tmp_path, monkeypatch):
        def forbidden(*args, **kwargs):
            raise AssertionError("work started before the config was parsed")

        replace_at_home(monkeypatch, "synthesize", forbidden)
        replace_at_home(monkeypatch, "run_ensemble", forbidden)
        lyapunov = write_config(tmp_path, {
            "matrix": ALL_HALF_ROWS,
            "verify": {"start": [0.4, "x", 0.2, 0.1]}}, "lyapunov.json")
        simulate = write_config(tmp_path, dict(
            SIMULATE_BASE, observables={"monomials": [{"name": "F"}]}),
            "simulate.json")
        assert main(["lyapunov", "--config", lyapunov,
                     "--out", str(tmp_path / "l")]) == 2
        assert main(["simulate", "--config", simulate,
                     "--out", str(tmp_path / "s")]) == 2

    @pytest.mark.parametrize("command", ALL_COMMANDS)
    @pytest.mark.parametrize("config,key", [
        (dict(SIMULATE_BASE, delta_conv=0.1, delta_osc=0.05), "delta_conv"),
        (dict(SIMULATE_BASE, verify={"steps": 500}), "verify.steps"),
    ], ids=["delta_conv", "verify.steps"])
    def test_range_checked_before_any_work(self, tmp_path, capsys,
                                           monkeypatch, command, config, key):
        def forbidden(*args, **kwargs):
            raise AssertionError("work started before the range check")

        for name in ("classify", "all_fixed_points", "synthesize",
                     "run_ensemble"):
            replace_at_home(monkeypatch, name, forbidden)
        cfg = write_config(tmp_path, config)
        out = tmp_path / "out"
        assert main([command, "--config", cfg, "--out", str(out)]) == 2
        [line] = capsys.readouterr().err.splitlines()
        assert line.split()[:2] == ["error:", key]
        assert not out.exists()     # no start_* directory, no summary


class TestStorageLimit:
    def forbid_work(self, monkeypatch):
        def forbidden(*args, **kwargs):
            raise AssertionError("work started before the size check")

        for name in ("interior_points", "classify", "all_fixed_points",
                     "synthesize", "run_ensemble"):
            replace_at_home(monkeypatch, name, forbidden)

    def run(self, tmp_path, capsys, command, config):
        out = tmp_path / "out"
        code = main([command, "--config", write_config(tmp_path, config),
                     "--out", str(out)])
        return code, capsys.readouterr().err.splitlines(), out

    @pytest.mark.parametrize("command", ALL_COMMANDS)
    def test_oversize_run_rejected_by_arithmetic(self, tmp_path, capsys,
                                                 monkeypatch, command):
        # 5e15 values: refused before anything is allocated
        self.forbid_work(monkeypatch)
        code, err, out = self.run(tmp_path, capsys, command, dict(
            SIMULATE_BASE, steps=1e15, record_stride=1))
        assert code == 2
        assert err[0].split()[:2] == ["error:", "steps:"]
        assert not out.exists()

    def test_stored_values_against_limit(self, tmp_path, capsys,
                                         monkeypatch):
        # SIMULATE_BASE stores 1 start x 11 rows (steps 0, 10, ..., 100) x
        # 5 values; verify off, as the default Lyapunov check is held to
        # the limit too
        config = dict(SIMULATE_BASE, verify=False)
        monkeypatch.setattr("volqso.cli.MAX_STORED_VALUES", 55)
        assert self.run(tmp_path, capsys, "simulate", config)[0] == 0
        monkeypatch.setattr("volqso.cli.MAX_STORED_VALUES", 54)
        self.forbid_work(monkeypatch)
        code, err, _ = self.run(tmp_path, capsys, "simulate", config)
        assert code == 2
        assert err == ["error: steps: the runs would store 55 values, more "
                       "than 54; raise record_stride or run fewer starts"]

    def test_default_verify_checked_like_empty_object(self, tmp_path, capsys,
                                                      monkeypatch):
        # no verify key: the defaults, 100000 steps traced every 10th step
        # (10001 rows of 6 values)
        self.forbid_work(monkeypatch)
        monkeypatch.setattr("volqso.cli.MAX_STORED_VALUES", 60005)
        for config in ({"matrix": ALL_HALF_ROWS},
                       {"matrix": ALL_HALF_ROWS, "verify": {}}):
            code, err, _ = self.run(tmp_path, capsys, "classify", config)
            assert code == 2
            assert err == ["error: verify.steps: the runs would store 60006 "
                           "values, more than 60005; lower verify.steps"]

    def test_oversize_verify_rejected_by_arithmetic(self, tmp_path, capsys,
                                                    monkeypatch):
        # the Lyapunov check records (1e11 + 1) rows x 6 values
        self.forbid_work(monkeypatch)
        code, err, out = self.run(tmp_path, capsys, "lyapunov", dict(
            SIMULATE_BASE, verify={"steps": 1e12}))
        assert code == 2
        assert err == ["error: verify.steps: the runs would store "
                       "600000000006 values, more than 5000000; "
                       "lower verify.steps"]
        assert not out.exists()

    @pytest.mark.parametrize("config", [
        dict(SIMULATE_BASE, verify={"steps": 1000}),
        dict(SIMULATE_BASE, steps=105, starts={
            "points": [[0.4, 0.3, 0.2, 0.1]], "count": 2, "seed": 5},
            observables={"coordinates": [2], "monomials": [
                [0.25] * 4, [1, 0, 0, 0]]}, verify={"steps": 1234}),
        dict(SIMULATE_BASE, steps=7, starts={"count": 2, "seed": 1},
             observables={"monomials": [[0.5, 0, 0.5, 0]]},
             verify={"steps": 1001}),
        {"matrix": [[0, 0.5, -0.5], [-0.5, 0, 0.5], [0.5, -0.5, 0]],
         "steps": 50, "record_stride": 7,
         "starts": {"points": [[0.5, 0.3, 0.2], [0.2, 0.2, 0.6]]},
         "observables": {"monomials": [[0.2, 0.3, 0.5]]},
         "verify": {"steps": 1005}},
        {"matrix": [[0, 0.5, -0.5], [-0.5, 0, 0.5], [0.5, -0.5, 0]],
         "steps": 20, "record_stride": 1,
         "starts": {"points": [[0.5, 0.3, 0.2]]}, "verify": {"steps": 1010}},
    ], ids=["stride-divides", "remainder-3-starts-2-monomials",
            "stride-above-steps", "m3-remainder", "m3-stride-1"])
    def test_counted_values_are_what_the_runs_store(self, monkeypatch,
                                                    config):
        # both counts are (steps - 1) // stride + 2 rows a run, as the
        # compiled kernel reserves: exactly the rows a run keeps
        counted = {}
        check = cli._check_size

        def recording(stored, name, advice):
            counted[name] = stored
            check(stored, name, advice)

        runs = []

        def keeping(cfg, observables):
            runs.append(run_trajectory(cfg, observables))
            return runs[-1]

        monkeypatch.setattr("volqso.cli._check_size", recording)
        monkeypatch.setattr("volqso.ergodic.run_trajectory", keeping)
        parsed = cli._parse(config, "simulate")
        m = parsed.matrix.m
        verify_along_trajectory((1.0 / m,) * m, parsed.matrix,
                                *parsed.verify)
        for run in parsed.runs:
            keeping(run, parsed.observables)

        def kept(result):
            width = m + 1 + len(result.monomial_traces)
            values = (len(result.trace_log_coords) + len(result.trace_log_phi)
                      + sum(map(len, result.monomial_traces.values())))
            assert values == len(result.trace_steps) * width
            return values

        assert len(runs) == 1 + len(parsed.runs)
        assert counted == {"verify.steps": kept(runs[0]),
                           "steps": sum(map(kept, runs[1:]))}

    def test_no_steps_draws_only_the_first_start(self, tmp_path, capsys,
                                                 monkeypatch):
        # without steps only starts[0] is read (the verify fallback), so a
        # huge count costs one draw, and that draw is the same point
        drawn = []

        def counting(m, count, *args):
            drawn.append(count)
            return interior_points(m, count, *args)

        replace_at_home(monkeypatch, "interior_points", counting)
        config = {"matrix": ALL_HALF_ROWS, "verify": {"steps": 1000},
                  "starts": {"count": 10 ** 9, "seed": 3}}
        assert self.run(tmp_path, capsys, "lyapunov", config)[0] == 0
        assert drawn == [1]
        assert interior_points(4, 1, 3)[0] == interior_points(4, 5, 3)[0]

FUZZ_BASE = dict(json.loads(EXAMPLE.read_text()), steps=2000,
                 record_stride=100, workers=1)
FUZZ_BASE["starts"] = dict(FUZZ_BASE["starts"], count=1)
FUZZ_BASE["verify"] = dict(FUZZ_BASE["verify"], steps=1000)
DELETE = object()


@st.composite
def mutated_configs(draw):
    """The fuzz base with one or two present keys (top-level or one level
    into an object) replaced by a mistyped or out-of-range value, or
    deleted."""
    cfg = copy.deepcopy(FUZZ_BASE)
    for _ in range(draw(st.integers(1, 2))):
        paths = [(k,) for k in cfg] + [
            (k, sub) for k, v in cfg.items() if isinstance(v, dict)
            for sub in v]
        path = draw(st.sampled_from(sorted(paths)))
        value = draw(st.sampled_from([None, True, "x", [], {}, -1, 0, 0.3,
                                      DELETE]))
        node = cfg[path[0]] if len(path) == 2 else cfg
        if value is DELETE:
            del node[path[-1]]
        else:
            node[path[-1]] = copy.deepcopy(value)
    return cfg


@settings(max_examples=200, deadline=None)
@given(cfg=mutated_configs())
def test_fuzzed_config_exits_cleanly(tmp_path_factory, cfg):
    # the parse loads what a config's keys need, so a rejection must not
    # depend on the command: same exit code, same message, for every one
    valid = jsonschema.Draft7Validator(
        schema("config.schema.json")).is_valid(cfg)
    root = tmp_path_factory.mktemp("fuzz")
    path = write_config(root, cfg)
    errors = set()
    for command in ALL_COMMANDS:
        err = io.StringIO()
        with contextlib.redirect_stderr(err):
            code = main([command, "--config", path,
                         "--out", str(root / command)])
        assert code in (0, 2, 3)
        if not valid:
            assert code == 2, command
            errors.add(err.getvalue())
    assert len(errors) <= 1, errors


# Configs that meet the schema and the parser's semantic rules: a skew
# matrix in [-1, 1] or canonical parameters, points on the simplex,
# delta_conv < delta_osc, min_coord < 1/m for random starts, checkpoints
# in [1, steps], distinct observable names, and runs within
# MAX_STORED_VALUES.  Integer keys are drawn as ints or integral floats.
def integers(low, high):
    return st.integers(low, high).flatmap(
        lambda n: st.sampled_from([n, float(n)]))


def unit_floats(**kwargs):
    return st.floats(allow_nan=False, allow_infinity=False, **kwargs)


@st.composite
def simplex_points(draw, m):
    # dyadic: the sum is exactly 1 under any validate_sum tolerance
    cuts = sorted(draw(st.lists(st.integers(0, 64), min_size=m - 1,
                                max_size=m - 1)))
    return [(b - a) / 64 for a, b in zip([0, *cuts], [*cuts, 64])]


@st.composite
def valid_configs(draw):
    cfg = {}
    if draw(st.booleans()):
        m = 4
        values = draw(st.lists(unit_floats(min_value=0, max_value=1)
                               | st.sampled_from([0, 1]),
                               min_size=6, max_size=6))
        cfg["canonical_params"] = (dict(zip(cli.PARAM_NAMES, values))
                                   if draw(st.booleans()) else values)
    else:
        m = draw(st.integers(2, 4))
        rows = [[0] * m for _ in range(m)]
        for i in range(m):
            for j in range(i + 1, m):
                v = draw(unit_floats(min_value=-1, max_value=1)
                         | st.sampled_from([-1, 0, 1]))
                rows[i][j], rows[j][i] = v, -v
        cfg["matrix"] = rows
    optional = {}
    optional["m"] = st.sampled_from([m, float(m)])
    count = draw(st.integers(0, 3))
    starts = {}
    if draw(st.booleans()):
        starts["points"] = draw(st.lists(simplex_points(m), max_size=3))
    if count or draw(st.booleans()):
        starts["count"] = count
    if count or draw(st.booleans()):
        starts["seed"] = draw(integers(0, 2 ** 70) | st.just(2 ** 130 + 1))
    optional["starts"] = st.just(starts)
    steps = draw(st.integers(1, 10 ** 6))
    has_steps = draw(st.booleans())
    if has_steps:
        cfg["steps"] = draw(st.sampled_from([steps, float(steps)]))
    optional["epsilon"] = unit_floats(min_value=0, max_value=0.25,
                                      exclude_min=True, exclude_max=True)
    optional["record_stride"] = integers(-(-steps // 50_000), steps)
    ascending = st.lists(st.integers(1, steps if has_steps else 10 ** 9),
                         min_size=1, unique=True).map(sorted)
    optional["checkpoints"] = st.just("dyadic") | ascending
    labels = st.lists(st.integers(1, m), unique=True)
    exponents = st.lists(unit_floats(min_value=-10, max_value=10),
                         min_size=m, max_size=m)
    monomials = st.lists(st.tuples(exponents, st.sampled_from(
        ["bare", "unnamed", "named"])), max_size=3).map(lambda ms: [
            e if how == "bare" else {"exponents": e} if how == "unnamed"
            else {"name": f"M{k}", "exponents": e}
            for k, (e, how) in enumerate(ms)])
    optional["observables"] = st.fixed_dictionaries(
        {}, optional={"coordinates": labels, "monomials": monomials})
    optional["workers"] = integers(1, 64)
    low, high = sorted(draw(st.lists(
        unit_floats(min_value=0, max_value=10, exclude_min=True),
        min_size=2, max_size=2, unique=True)))
    # both, neither, or one against the other's default
    cfg.update(draw(st.sampled_from([
        {"delta_conv": low, "delta_osc": high}, {},
        {"delta_conv": min(low, 0.04)}, {"delta_osc": high + 2e-3}])))
    optional["min_coord"] = (unit_floats(min_value=0, max_value=1 / m,
                                         exclude_max=True) if count else
                             unit_floats(min_value=0, max_value=10))
    optional["verify"] = st.just(False) | st.fixed_dictionaries({}, optional={
        "start": simplex_points(m), "steps": integers(1000, 10 ** 6),
        "transient": integers(0, 10 ** 6)})
    optional["tolerances"] = st.fixed_dictionaries({}, optional={
        key: unit_floats(min_value=0, max_value=1e3, exclude_min=True)
        for key in ("validate_sum", "negative_clamp")})
    for key, values in optional.items():
        if draw(st.booleans()):
            cfg[key] = draw(values)
    return cfg


# every top-level key: with a matrix, then with canonical parameters
FULL_CONFIGS = [
    dict(json.loads(EXAMPLE.read_text()), min_coord=0.05, delta_conv=1e-4,
         delta_osc=0.1, tolerances={"validate_sum": 1e-6,
                                    "negative_clamp": 1e-12}),
    {"m": 4, "canonical_params": [0.5, 0, 1, 0.25, 0.75, 0.5],
     "starts": {"count": 2, "seed": 2 ** 64 + 5}, "steps": 3000.0,
     "record_stride": 7, "checkpoints": [1, 10, 3000], "workers": 2,
     "verify": False},
]


def test_full_configs_use_every_schema_key():
    keys = set(schema("config.schema.json")["properties"])
    assert set().union(*FULL_CONFIGS) == keys


@settings(max_examples=150, deadline=None)
@example(cfg=FULL_CONFIGS[0])
@example(cfg=FULL_CONFIGS[1])
@given(cfg=valid_configs())
def test_valid_config_parses_for_every_command(cfg):
    cfg = json.loads(json.dumps(cfg))       # as the config file reads
    jsonschema.Draft7Validator(schema("config.schema.json")).validate(cfg)
    for command in ALL_COMMANDS:
        cli._parse(cfg, command)
