"""Toy-size smoke runs of the benchmark: every metric is printed with its unit,
the correctness gates flag wrong outcomes, and a directory without the
library's sources gives an error instead of a result."""

import dataclasses
import json
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

import bench

assert bench.use_repo_sources()
import workloads  # noqa: E402  (needs the sources on sys.path)

SPEC = json.loads((bench.ROOT / "BENCHMARK.json").read_text())

TOYS = {
    # the correction boundary floor((N - d(K-1) - 1) / 2) = 2 at K=4, N=12
    "epoch_n120_garbage": dict(K=4, N=12, beta=2, epochs_per_seed=2),
    "attack_n60_seeds": dict(K=3, N=12, beta=2, seeds_per_pass=2),
    "sweep_rank": dict(configs=((2, 1, 2, 3, 0),), below=2, above=1),
    "long_chain": dict(K=3, N=8, beta=1, epochs_per_seed=30),
}


@pytest.fixture
def toy(monkeypatch, tmp_path):
    """Run bench.main on a toy-size version of a workload; returns (detail, result)."""
    monkeypatch.setattr(bench, "RESULTS", tmp_path)
    monkeypatch.setattr(bench, "SETUP_PROBES", 1)

    def run(name, trace, capsys, **changes):
        real = workloads.WORKLOADS[name]
        monkeypatch.setitem(
            workloads.WORKLOADS, name, dataclasses.replace(real, **{**TOYS[name], **changes})
        )
        argv = ["--workload", name, "--seed", "7", "--seconds", "0.01", "--trace", str(trace)]
        assert bench.main(argv) == 0
        lines = capsys.readouterr().out.strip().splitlines()
        return json.loads(lines[-2]), json.loads(lines[-1])

    return run


def test_spec_matches_harness():
    assert [w["name"] for w in SPEC["workloads"]] == list(workloads.WORKLOADS)
    assert {m["name"]: (m["unit"], m["better"]) for m in SPEC["per_layer"]} == workloads.PER_LAYER
    assert any(m["name"] == "setup_s" for m in SPEC["end_to_end"])


@pytest.mark.parametrize("name", list(TOYS))
@pytest.mark.parametrize("trace", [0, 1])
def test_toy_run_prints_every_metric(toy, capsys, name, trace):
    detail, result = toy(name, trace, capsys)
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] is True and result["failed"] == 0 and result["attempted"] >= 1
    spec = SPEC["per_layer"] if trace else SPEC["end_to_end"]
    assert {m: v["unit"] for m, v in result["metrics"].items()} == {
        m["name"]: m["unit"] for m in spec
    }
    assert all(isinstance(v["value"], (int, float)) for v in result["metrics"].values())
    assert detail["provenance"]["src_lines"] > 0
    if trace:
        assert detail["counts_repeat_exactly"] is True
        assert detail["ops_failed_frac"] == {"value": 0.0, "unit": "ratio"}
        assert all(
            v["value"] >= 0 for m, v in result["metrics"].items() if m.endswith("ms")
        )
    else:
        op = workloads.WORKLOADS[name].op
        named = detail["metrics"]
        for key, unit in [(f"{op}_ms_p50", "ms"), (f"{op}_ms_tail", "ms"),
                          (f"{op}s_per_s", "1/s"), ("peak_rss_mb", "MB"),
                          ("setup_s", "s"), ("ops_failed_frac", "ratio")]:
            assert named[key]["unit"] == unit
        assert 0 < named[f"{op}_ms_tail"]["percentile"] <= 100


def test_traced_name_missing_from_library_reports_zero_calls(toy, capsys, monkeypatch):
    monkeypatch.delattr(workloads.ta, "build_system")
    detail, result = toy("long_chain", 1, capsys)
    assert result["correct"] is True
    assert result["metrics"]["threshold_analysis.build_system.ms"]["value"] == 0
    assert result["metrics"]["lcc.encode_at_node.calls"]["value"] > 0


@pytest.mark.parametrize("name, wrong", [
    ("epoch_n120_garbage", "stalled"),
    ("attack_n60_seeds", "recovered"),
])
def test_gate_flags_wrong_expected_outcome(toy, capsys, name, wrong):
    _detail, result = toy(name, 0, capsys, expect=wrong)
    assert result["correct"] is False
    assert result["failed"] == result["attempted"]


def test_verdict_gate_flags_wrong_threshold():
    field = workloads.field_poly.PrimeField(workloads.field_poly.DEFAULT_MODULUS)
    rows = workloads.ta.empirical_threshold(2, 1, 2, 3, 0, range(7, 8), field)
    assert workloads.check_verdict(rows, 7, threshold=8) is None
    assert workloads.check_verdict(rows, 7, threshold=7) is not None


def test_tail_percentile_keeps_ten_samples_beyond():
    for n in (11, 22, 57, 1000):
        samples = list(range(n))
        q, value = workloads.percentile_tail(samples)
        assert sum(s > value for s in samples) >= 10
        assert 0 < q < 100
    assert workloads.percentile_tail([3.0, 1.0]) == (100, 3.0)


def test_missing_sources_give_no_result(tmp_path):
    shutil.copy(bench.ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(bench.HERE, tmp_path / bench.HERE.name,
                    ignore=shutil.ignore_patterns("results", "__pycache__"))
    proc = subprocess.run(
        [sys.executable, str(Path(bench.HERE.name) / "bench.py"), "--workload", "long_chain",
         "--seed", "1", "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=60,
    )
    assert proc.returncode != 0
    assert proc.stdout.strip() == ""
