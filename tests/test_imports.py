"""Start-up footprint: which of numpy and scipy each command loads.

Each case runs in a fresh interpreter, so what other tests imported does not
count.  numpy is imported inside the functions that use it, and scipy by
none; these cases pin which commands reach such a function."""

import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

import volqso
from volqso.cli import main

PKG_PARENT = str(Path(volqso.__file__).resolve().parents[1])
PROBE = """\
import json, sys
{body}
print(json.dumps(sorted({{name.split(".")[0] for name in sys.modules}}
                        & {{"numpy", "scipy"}})))
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


def loaded(body: str) -> list:
    """The heavy libraries in sys.modules after `body` runs in a fresh
    interpreter that imports volqso from the package under test."""
    proc = subprocess.run(
        [sys.executable, "-c", PROBE.format(body=body)],
        env=dict(os.environ, PYTHONPATH=PKG_PARENT),
        capture_output=True, text=True, timeout=300)
    assert proc.returncode == 0, proc.stderr
    return json.loads(proc.stdout.splitlines()[-1])


def run_command(command: str, cfg: Path, out: Path) -> list:
    argv = [command, "--config", str(cfg), "--out", str(out)]
    return loaded(f"from volqso.cli import main\nassert main({argv!r}) == 0")


@pytest.fixture
def cfg(tmp_path):
    path = tmp_path / "cfg.json"
    path.write_text(json.dumps(CONFIG))
    return path


def test_import_loads_neither():
    assert loaded("import volqso, volqso.cli") == []


@pytest.mark.parametrize("command,expected", [
    ("classify", []),
    ("simulate", []),
    ("fixed-points", ["numpy"]),
])
def test_command_footprint(tmp_path, cfg, command, expected):
    out = tmp_path / "out"
    assert run_command(command, cfg, out) == expected
    assert any(out.iterdir())


def test_fixed_points_on_singular_matrix_loads_numpy_only(tmp_path):
    # u v^T - v u^T with u = (1, -1, 0, 0) / 2, v = (0, 0, 1, -1) / 2:
    # Pf 0, so the interior kernel branch runs, without an LP solver
    path = tmp_path / "cfg.json"
    path.write_text(json.dumps({"matrix": [
        [0, 0, 0.25, -0.25], [0, 0, -0.25, 0.25],
        [-0.25, 0.25, 0, 0], [0.25, -0.25, 0, 0]]}))
    out = tmp_path / "out"
    assert run_command("fixed-points", path, out) == ["numpy"]
    assert json.loads((out / "fixed_points.json").read_text())[
        "degenerate_interior"]


def test_classify_draws_no_random_starts(tmp_path):
    # classify reads no start, so the random ones a config asks for are
    # neither drawn nor is numpy loaded to draw them
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
