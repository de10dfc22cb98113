"""Outputs pinned byte for byte to files under tests/golden/.

Every demo's stdout is pinned as `demoNN_stdout.txt`. Demo 05's and the
`threshold_sweep` CSV of (v, beta', d, K, beta) = (2, 2, 3, 6, 2) over
N = 44..54 were written by the code before the rank verdict stopped building
the dense system; demos 01-04's were written before `Matrix`, `vandermonde`,
`matrix_rank`, `nullspace_basis`, `poly_eval` and `lagrange_basis` left the
library, so they pin demos 01 and 02 across their rewrite onto
`echelon`/`nullspace_vector`, `poly(x)` and `build_coded_poly`. The
`garbage_attack` and `discrepancy_attack` JSON lines (2 seeds x 2 epochs each)
were written by the Gauss-Jordan elimination before the echelon kernel
replaced it, in the version-1 report layout (a status per node, accept bits per
honest node); each CLI line must expand to its line there (`expand_report`), and
the `.v2.jsonl` files pin the version-2 bytes the CLI writes now. The CSV and
the JSON lines are the output of `python -m shardlab --config CONFIG` with the
configs below. `discrepancy_attack_N20_K5_d2_beta3_bp1_v1.v2.jsonl` is the
output of

    {"scenario": "discrepancy_attack", "params": {"N": 20, "K": 5, "d": 2, "beta": 3,
     "beta_prime": 1, "v": 1}, "seeds": [1, 2], "epochs": 4}

where, with v = 1, the one forged block is just an invalid proposal: all 8 epochs
recover, correcting the same three broadcasters. It was written while `rs_decode`
still divided a repeated error set by its remembered locator (6 of the 8 decodes),
and pins those outcomes on Gao's decoder alone.
`rs_decode_outcomes.jsonl` holds the Berlekamp-Welch decoder's
outcome (status, coefficients, error positions, diagnostics) on 200 seeded
broadcast sets, written before Gao's decoder replaced it; every epoch now
decodes through Gao's algorithm, so these files pin the two decoders' agreement
independently of the test oracle `rs_oracle.berlekamp_welch`.
"""

import json
import os
import random
import subprocess
import sys
from pathlib import Path

import pytest

import shardlab
from shardlab import BroadcastEntry, BroadcastSet, InsufficientEvaluations, PrimeField, rs_decode
from shardlab.cli import run
from epoch_oracle import expand_report

ROOT = Path(__file__).resolve().parents[1]
GOLDEN = ROOT / "tests" / "golden"
DEMOS = sorted((ROOT / "demos").glob("*.py"))


@pytest.mark.parametrize("demo", DEMOS, ids=[d.stem for d in DEMOS])
def test_demo_stdout(tmp_path, demo):
    src = str(Path(shardlab.__file__).resolve().parents[1])
    env = {**os.environ, "PYTHONPATH": os.pathsep.join(
        filter(None, [src, os.environ.get("PYTHONPATH")]))}
    proc = subprocess.run([sys.executable, str(demo)],
                          capture_output=True, text=True, env=env, cwd=tmp_path, timeout=120)
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout == (GOLDEN / f"demo{demo.stem[:2]}_stdout.txt").read_text()


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
                     "garbage_attack_N20_K5_d2_beta5", id="garbage_attack"),
        pytest.param({"scenario": "discrepancy_attack",
                      "params": {"N": 16, "K": 4, "d": 2, "beta": 2, "beta_prime": 1, "v": 2},
                      "seeds": [5, 6], "epochs": 2},
                     "discrepancy_attack_N16_K4_d2_beta2_bp1_v2", id="discrepancy_attack"),
    ],
)
def test_epoch_jsonl(tmp_path, capsys, config, golden):
    assert run(config, out_dir=str(tmp_path)) == 0
    out = tmp_path / f"{config['scenario']}.jsonl"
    assert out.read_bytes() == (GOLDEN / f"{golden}.v2.jsonl").read_bytes()
    header, *lines = map(json.loads, out.read_text().splitlines())
    assert header.pop("report_schema") == 2
    expanded = [header] + [expand_report(line) for line in lines]
    text = "".join(json.dumps(line, sort_keys=True) + "\n" for line in expanded)
    assert text == (GOLDEN / f"{golden}.jsonl").read_text()


def test_repeated_error_set_jsonl(tmp_path, capsys):
    config = {"scenario": "discrepancy_attack",
              "params": {"N": 20, "K": 5, "d": 2, "beta": 3, "beta_prime": 1, "v": 1},
              "seeds": [1, 2], "epochs": 4}
    assert run(config, out_dir=str(tmp_path)) == 0
    golden = GOLDEN / "discrepancy_attack_N20_K5_d2_beta3_bp1_v1.v2.jsonl"
    assert (tmp_path / "discrepancy_attack.jsonl").read_bytes() == golden.read_bytes()


DECODE_FIELDS = (7, 13, 97, 2**31 - 1)
DECODE_KINDS = ("clean", "corrupt", "mixed", "random", "short")


def decode_corpus(cases=200, seed=2026):
    """Seeded `rs_decode` inputs: clean, corrupted, two-polynomial, random and
    too-short broadcasts, some entries silent, budgets below and at the maximum."""
    rng = random.Random(seed)
    for i in range(cases):
        p = DECODE_FIELDS[i % len(DECODE_FIELDS)]
        kind = DECODE_KINDS[i // len(DECODE_FIELDS) % len(DECODE_KINDS)]
        field = PrimeField(p)
        while True:
            degree, budget = rng.randrange(0, 4), rng.randrange(0, 4)
            m = degree + 1 + 2 * budget + rng.randrange(0, 4) - 2 * (kind == "short")
            silent = rng.randrange(0, 3)
            if 0 < m and m + silent < p:
                break
        xs = rng.sample(range(1, p), m + silent)
        f = [rng.randrange(p) for _ in range(degree + 1)]
        g = [rng.randrange(p) for _ in range(degree + 1)]
        cut = rng.randrange(0, m + 1)
        values = []
        for j, x in enumerate(xs[:m]):
            poly = g if kind == "mixed" and j >= cut else f
            y = sum(c * x**t for t, c in enumerate(poly)) % p
            values.append(rng.randrange(p) if kind == "random" else y)
        if kind == "corrupt":
            for j in rng.sample(range(m), min(m, rng.randrange(0, budget + 3))):
                values[j] = (values[j] + rng.randrange(1, p)) % p
        entries = [(x, y) for x, y in zip(xs, values)] + [(x, None) for x in xs[m:]]
        rng.shuffle(entries)
        yield {"case": i, "kind": kind, "p": p, "degree_bound": degree,
               "max_errors": budget, "entries": entries}


def decode_record(case) -> str:
    """One corpus case and its `rs_decode` outcome as a JSON line."""
    field = PrimeField(case["p"])
    b = BroadcastSet([BroadcastEntry(n, field(x), None if y is None else field(y))
                      for n, (x, y) in enumerate(case["entries"], 1)])
    try:
        out = rs_decode(b, case["degree_bound"], case["max_errors"])
        outcome = {"status": out.status,
                   "coeffs": None if out.poly is None else list(out.poly.coeffs),
                   "error_positions": sorted(out.error_positions),
                   "diagnostics": out.diagnostics}
    except InsufficientEvaluations as exc:
        outcome = {"status": "insufficient", "diagnostics": str(exc)}
    return json.dumps({**case, "outcome": outcome}) + "\n"


def test_decode_outcomes():
    text = "".join(decode_record(case) for case in decode_corpus())
    assert text == (GOLDEN / "rs_decode_outcomes.jsonl").read_text()
