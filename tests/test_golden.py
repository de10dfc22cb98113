"""Outputs pinned byte for byte to files under tests/golden/.

Demo 05's stdout and the `threshold_sweep` CSV of (v, beta', d, K, beta) =
(2, 2, 3, 6, 2) over N = 44..54 were written by the code before the rank
verdict stopped building the dense system. The `garbage_attack` and
`discrepancy_attack` JSON lines (2 seeds x 2 epochs each) were written by the
Gauss-Jordan elimination before the echelon kernel replaced it; every one of
their epochs decodes through `solve_linear`. The CSV and the JSON lines are
the output of `python -m shardlab --config CONFIG` with the configs below.
"""

import os
import subprocess
import sys
from pathlib import Path

import pytest

import shardlab
from shardlab.cli import run

ROOT = Path(__file__).resolve().parents[1]
GOLDEN = ROOT / "tests" / "golden"


def test_demo_05_stdout(tmp_path):
    src = str(Path(shardlab.__file__).resolve().parents[1])
    env = {**os.environ, "PYTHONPATH": os.pathsep.join(
        filter(None, [src, os.environ.get("PYTHONPATH")]))}
    proc = subprocess.run([sys.executable, str(ROOT / "demos" / "05_recovery_threshold.py")],
                          capture_output=True, text=True, env=env, cwd=tmp_path, timeout=120)
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout == (GOLDEN / "demo05_stdout.txt").read_text()


def test_threshold_sweep_csv(tmp_path, capsys):
    config = {
        "scenario": "threshold_sweep",
        "params": {"v": 2, "beta_prime": 2, "d": 3, "K": 6, "beta": 2, "N_range": [44, 54]},
    }
    assert run(config, out_dir=str(tmp_path)) == 0
    golden = GOLDEN / "threshold_sweep_v2_bp2_d3_K6_beta2.csv"
    assert (tmp_path / "threshold_sweep.csv").read_bytes() == golden.read_bytes()


@pytest.mark.parametrize(
    "config, golden",
    [
        pytest.param({"scenario": "garbage_attack", "params": {"N": 20, "K": 5, "d": 2, "beta": 5},
                      "seeds": [3, 4], "epochs": 2},
                     "garbage_attack_N20_K5_d2_beta5.jsonl", id="garbage_attack"),
        pytest.param({"scenario": "discrepancy_attack",
                      "params": {"N": 16, "K": 4, "d": 2, "beta": 2, "beta_prime": 1, "v": 2},
                      "seeds": [5, 6], "epochs": 2},
                     "discrepancy_attack_N16_K4_d2_beta2_bp1_v2.jsonl", id="discrepancy_attack"),
    ],
)
def test_epoch_jsonl(tmp_path, capsys, config, golden):
    assert run(config, out_dir=str(tmp_path)) == 0
    out = tmp_path / f"{config['scenario']}.jsonl"
    assert out.read_bytes() == (GOLDEN / golden).read_bytes()
