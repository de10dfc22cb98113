import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

import shardlab

from shardlab import (
    DegreeOverflow,
    empirical_threshold,
    known_behavior_upper_bound,
    recovery_threshold,
)
from shardlab.cli import ConfigError, main, run, shard_capture, validate_config
from shardlab.field_poly import DEFAULT_MODULUS, PrimeField


def write_config(tmp_path, name="config.json", **overrides):
    config = {
        "scenario": "honest_epoch",
        "params": {"N": 12, "K": 3, "d": 2},
        "seeds": [1, 2],
        "epochs": 2,
    }
    config.update(overrides)
    path = tmp_path / name
    path.write_text(json.dumps(config))
    return path, config


class TestShardCapture:
    def test_quarter_adversaries(self):
        # floor(beta*K/(gamma*N)) with beta=N/4, gamma=1/2, K=8, N=32
        assert shard_capture(8, 0.5, 32, 8) == 4

    def test_below_one_shard(self):
        assert shard_capture(2, 1, 32, 8) == 0  # beta < N/K captures nothing

    def test_capped_at_shard_count(self):
        assert shard_capture(32, 0.5, 32, 8) == 8

    def test_gamma_range(self):
        with pytest.raises(ValueError):
            shard_capture(1, 0, 8, 2)


class TestConfigValidation:
    def test_unknown_keys_rejected(self):
        with pytest.raises(ConfigError):
            validate_config({"scenario": "honest_epoch", "surprise": 1})
        with pytest.raises(ConfigError):
            validate_config({"scenario": "honest_epoch", "params": {"Q": 3}})

    def test_unknown_scenario_rejected(self):
        with pytest.raises(ConfigError):
            validate_config({"scenario": "coin_flip"})

    def test_missing_file_is_config_error(self, tmp_path):
        assert run(tmp_path / "nope.json") == 2

    def test_bad_json_is_config_error(self, tmp_path):
        path = tmp_path / "broken.json"
        path.write_text("{not json")
        assert run(path) == 2

    def test_composite_modulus_is_config_error(self, tmp_path):
        path, _ = write_config(tmp_path, params={"N": 12, "K": 3, "d": 2, "p": 91})
        assert run(path) == 2

    @pytest.mark.parametrize(
        "scenario, params",
        [
            pytest.param("honest_epoch", {"N": 12, "K": 3, "d": 2, "p": 318665857834031151167461},
                         id="strong-pseudoprime-p"),
            pytest.param("honest_epoch", {"N": 12, "K": 3, "d": 2, "p": 3317044064679887385961981},
                         id="p-at-primality-bound"),
            pytest.param("honest_epoch", {"N": 4, "K": 3, "d": 2}, id="N-below-d(K-1)+1"),
            pytest.param("garbage_attack", {"N": 12, "K": 3, "d": 2, "beta": 13},
                         id="beta-above-N"),
            pytest.param("discrepancy_attack",
                         {"N": 12, "K": 3, "d": 2, "beta": 5, "beta_prime": 4, "v": 2},
                         id="beta_prime-above-K"),
            pytest.param("discrepancy_attack",
                         {"N": 12, "K": 3, "d": 2, "beta": 13, "beta_prime": 1, "v": 2},
                         id="attack-beta-above-N"),
            pytest.param("discrepancy_attack",
                         {"N": 10, "K": 3, "d": 2, "beta": 2, "beta_prime": 1, "v": 40, "p": 31},
                         id="v-above-p"),
            pytest.param("threshold_sweep",
                         {"K": 3, "d": 2, "beta": 1, "beta_prime": 1, "v": 2,
                          "N_range": [12, 5]},
                         id="reversed-N_range"),
            pytest.param("threshold_sweep",
                         {"K": 3, "d": 0, "beta": 1, "beta_prime": 1, "v": 2,
                          "N_range": [5, 8]},
                         id="sweep-d-zero"),
            pytest.param("threshold_sweep",
                         {"K": 3, "d": 2, "beta": 3, "beta_prime": 1, "v": 2,
                          "N_range": [5, 8]},
                         id="N_range-below-2beta"),
            pytest.param("threshold_sweep",
                         {"K": 3, "d": 2, "beta": 1, "beta_prime": 1, "v": 2,
                          "N_range": [8, 10], "p": 7},
                         id="field-too-small-for-sweep"),
            pytest.param("threshold_sweep",
                         {"v": 2, "beta_prime": 3, "d": 2, "K": 3, "beta": 1,
                          "N_range": [4, 8]},
                         id="sweep-beta_prime-equals-K"),
            pytest.param("bound_table", {"v": [0], "K": [0], "d": [0]},
                         id="bound-table-zero-v-K-d"),
            pytest.param("bound_table",
                         {"v": [1, 2], "beta_prime": [5], "d": [-1], "K": [3], "beta": [-4]},
                         id="bound-table-negative-d-beta"),
            pytest.param("bound_table", {"beta_prime": [2, 4], "K": [3]},
                         id="bound-table-beta_prime-above-K"),
            pytest.param("bound_table", {"v": 10, "beta_prime": 5000, "K": 5000, "d": 2},
                         id="bound-table-bound-over-4300-digits"),
        ],
    )
    def test_bad_params_are_config_errors(self, tmp_path, scenario, params):
        path, _ = write_config(tmp_path, scenario=scenario, params=params)
        assert run(path, out_dir=tmp_path) == 2
        written = {p.name for p in tmp_path.iterdir()} - {path.name}
        assert not written

    def test_bound_too_wide_to_print_names_its_point(self, tmp_path, capsys):
        # every point is checked before the CSV is opened, so the rows of the points
        # before it are not left behind
        path, _ = write_config(tmp_path, scenario="bound_table",
                               params={"v": [2, 10], "beta_prime": 5000, "K": 5000, "d": 2})
        assert run(path, out_dir=tmp_path) == 2
        assert {p.name for p in tmp_path.iterdir()} == {path.name}
        assert "(10, 5000, 2, 5000, 0)" in capsys.readouterr().err

    def test_more_version_tuples_than_nodes(self, tmp_path, capsys, bounded_memory):
        # 2^30 version tuples, one cell each, for at most 3 nodes: refused before the
        # layout allocates any cell
        path, _ = write_config(tmp_path, scenario="threshold_sweep",
                               params={"K": 40, "d": 2, "beta": 1, "beta_prime": 30, "v": 2,
                                       "N_range": [2, 3]})
        assert run(path, out_dir=tmp_path) == 2
        assert {p.name for p in tmp_path.iterdir()} == {path.name}
        assert "v^beta_prime <= 3" in capsys.readouterr().err

    @pytest.mark.parametrize(
        "overrides",
        [
            pytest.param({"params": {"N": 20.0, "K": 3, "d": 2}}, id="N"),
            pytest.param({"scenario": "threshold_sweep",
                          "params": {"K": 3, "d": 2, "beta": 1, "beta_prime": 1, "v": 2,
                                     "N_range": [20, 24.0]}},
                         id="N_range"),
            pytest.param({"epochs": 2.0}, id="epochs"),
            pytest.param({"seeds": [1.0]}, id="seeds"),
            pytest.param({"params": {"N": 12, "K": 3, "d": 2, "p": 31.0}}, id="p"),
            pytest.param({"scenario": "bound_table", "params": {"K": [3.0]}}, id="K-list"),
        ],
    )
    def test_integral_floats_are_config_errors(self, tmp_path, overrides):
        # JSON Schema's "integer" admits 20.0; the scenarios need JSON integers
        path, _ = write_config(tmp_path, **overrides)
        assert run(path, out_dir=tmp_path) == 2
        assert {p.name for p in tmp_path.iterdir()} == {path.name}

    def test_program_fault_is_not_a_config_error(self, tmp_path, monkeypatch):
        def faulty_epoch(*args, **kwargs):
            raise DegreeOverflow("composition exceeded its declared degree")

        monkeypatch.setattr("shardlab.cli.run_epoch", faulty_epoch)
        path, _ = write_config(tmp_path)
        with pytest.raises(DegreeOverflow):
            run(path, out_dir=tmp_path)


class TestSimulationScenarios:
    def test_honest_epoch_all_recovered(self, tmp_path):
        path, config = write_config(tmp_path, params={"N": 20, "K": 5, "d": 2})
        assert run(path, out_dir=tmp_path) == 0
        lines = (tmp_path / "honest_epoch.jsonl").read_text().splitlines()
        header = json.loads(lines[0])
        assert header["config"]["scenario"] == "honest_epoch"
        assert header["report_schema"] == 2
        reports = [json.loads(line) for line in lines[1:]]
        assert len(reports) == 4  # two seeds, two epochs
        for report in reports:
            # every node is honest and recovered
            assert report["nodes"] == 20 and report["adversarial"] == []
            assert report["status"] == "recovered"
            assert report["chain_divergence"] == 1

    def test_discrepancy_attack_all_fail(self, tmp_path):
        path, _ = write_config(
            tmp_path,
            scenario="discrepancy_attack",
            params={"N": 20, "K": 5, "d": 2, "beta": 2, "beta_prime": 1, "v": 2},
            seeds=[7],
            epochs=1,
        )
        assert run(path, out_dir=tmp_path) == 0
        lines = (tmp_path / "discrepancy_attack.jsonl").read_text().splitlines()
        report = json.loads(lines[1])
        assert report["nodes"] == 20 and report["adversarial"] == [19, 20]
        assert report["status"] == "failure"  # the 18 honest nodes' shared status

    def test_thirty_captured_shards(self, tmp_path, bounded_memory):
        # gamma derives beta' = floor(60 * 50 / (0.5 * 200)) = 30, so 2^30 version tuples:
        # an epoch must touch only the tuples its nodes hold
        path, _ = write_config(
            tmp_path,
            scenario="discrepancy_attack",
            params={"N": 200, "K": 50, "d": 2, "beta": 60, "gamma": 0.5, "v": 2},
            seeds=[1],
            epochs=1,
        )
        assert shard_capture(60, 0.5, 200, 50) == 30
        assert run(path, out_dir=tmp_path) == 0
        report = json.loads((tmp_path / "discrepancy_attack.jsonl").read_text().splitlines()[1])
        assert report["nodes"] - len(report["adversarial"]) == 140
        assert report["status"] == "failure"

    def test_garbage_attack_within_tolerance(self, tmp_path):
        path, _ = write_config(
            tmp_path,
            scenario="garbage_attack",
            params={"N": 20, "K": 5, "d": 2, "beta": 4},
            seeds=[3],
            epochs=1,
        )
        assert run(path, out_dir=tmp_path) == 0
        report = json.loads(
            (tmp_path / "garbage_attack.jsonl").read_text().splitlines()[1]
        )
        assert report["nodes"] == 20 and report["adversarial"] == [17, 18, 19, 20]
        assert report["status"] == "recovered"  # the 16 honest nodes' shared status

    def test_gamma_derives_captured_shards(self, tmp_path):
        # beta=10 of N=20 nodes at gamma=1/2 captures half the K=4 shards... and
        # the run proceeds on that derived beta_prime
        path, _ = write_config(
            tmp_path,
            scenario="discrepancy_attack",
            params={"N": 20, "K": 4, "d": 2, "beta": 10, "gamma": 0.5, "v": 2},
            seeds=[1],
            epochs=1,
        )
        assert shard_capture(10, 0.5, 20, 4) == 4
        assert run(path, out_dir=tmp_path) == 0

    def test_epoch_lines_stay_small_at_n1000(self, tmp_path):
        # a line holds one status, the beta adversarial ids and one list of K accept
        # bits; the version-1 line repeated them per node, 359 KB at these sizes
        path, _ = write_config(
            tmp_path,
            scenario="garbage_attack",
            params={"N": 1000, "K": 166, "d": 2, "beta": 334},
            seeds=[1],
            epochs=2,
        )
        assert run(path, out_dir=tmp_path) == 0
        lines = (tmp_path / "garbage_attack.jsonl").read_bytes().splitlines()[1:]
        assert len(lines) == 2
        for line in lines:
            assert len(line) < 4096
            report = json.loads(line)
            assert report["status"] == "recovered" and report["accepted"] == [1] * 166
            assert report["adversarial"] == list(range(667, 1001))

    def test_byte_identical_reruns(self, tmp_path):
        path, _ = write_config(
            tmp_path,
            scenario="discrepancy_attack",
            params={"N": 16, "K": 4, "d": 2, "beta": 2, "beta_prime": 1, "v": 2},
            seeds=[5, 6],
            epochs=3,
        )
        out_a, out_b = tmp_path / "a", tmp_path / "b"
        assert run(path, out_dir=out_a) == 0
        assert run(path, out_dir=out_b) == 0
        name = "discrepancy_attack.jsonl"
        assert (out_a / name).read_bytes() == (out_b / name).read_bytes()


class TestAnalysisScenarios:
    def test_threshold_sweep_matches_library(self, tmp_path):
        path, _ = write_config(
            tmp_path,
            scenario="threshold_sweep",
            params={
                "K": 3, "d": 2, "beta": 1, "beta_prime": 1, "v": 2,
                "N_range": [8, 10],
            },
        )
        assert run(path, out_dir=tmp_path) == 0
        text = (tmp_path / "threshold_sweep.csv").read_text().splitlines()
        assert text[0].startswith("# config:")
        assert text[1] == "N,partition_sizes,rank_D,rank_D_reduced,unique_Z"
        rows = empirical_threshold(
            2, 1, 2, 3, 1, range(8, 11), PrimeField(DEFAULT_MODULUS)
        )
        for line, row in zip(text[2:], rows):
            assert line.split(",")[0] == str(row.N)
            assert line.endswith("true" if row.unique_Z else "false")

    def test_strict_sweep_exits_three_on_infeasible(self, tmp_path):
        path, _ = write_config(
            tmp_path,
            scenario="threshold_sweep",
            strict=True,
            params={
                "K": 3, "d": 2, "beta": 1, "beta_prime": 1, "v": 2,
                "N_range": [10, 12],
            },
        )
        assert run(path, out_dir=tmp_path) == 3

    def test_bound_table(self, tmp_path):
        path, _ = write_config(
            tmp_path,
            scenario="bound_table",
            params={"v": [1, 2], "beta_prime": [1, 2], "d": [2], "K": [3], "beta": [0, 1]},
        )
        assert run(path, out_dir=tmp_path) == 0
        lines = (tmp_path / "bound_table.csv").read_text().splitlines()
        assert lines[1].split(",") == [
            "v", "beta_prime", "d", "K", "beta",
            "recovery_threshold", "known_behavior_upper_bound",
        ]
        for line in lines[2:]:
            v, bp, d, K, beta, bound, upper = map(int, line.split(","))
            assert bound == recovery_threshold(v, bp, d, K, beta)
            assert upper == known_behavior_upper_bound(v, bp, d, K, beta)


class TestMain:
    def test_cli_overrides(self, tmp_path, capsys):
        path, _ = write_config(tmp_path, seeds=[1, 2, 3])
        code = main(
            [
                "--config", str(path),
                "--seed", "9",
                "--out", str(tmp_path / "outdir"),
            ]
        )
        assert code == 0
        lines = (tmp_path / "outdir" / "honest_epoch.jsonl").read_text().splitlines()
        header = json.loads(lines[0])
        assert header["config"]["seeds"] == [9]
        seeds = {json.loads(line)["seed"] for line in lines[1:]}
        assert seeds == {9}

    def test_scenario_override(self, tmp_path):
        path, _ = write_config(
            tmp_path,
            params={"N": 14, "K": 3, "d": 2, "beta": 2, "beta_prime": 1, "v": 2},
        )
        code = main(
            [
                "--config", str(path),
                "--scenario", "discrepancy_attack",
                "--out", str(tmp_path),
            ]
        )
        assert code == 0
        assert (tmp_path / "discrepancy_attack.jsonl").exists()

    def test_bad_config_exit_code(self, tmp_path):
        assert main(["--config", str(tmp_path / "missing.json")]) == 2


def test_python_m_shardlab_exits_two_without_warnings(tmp_path):
    bad = tmp_path / "bad.json"
    bad.write_text('{"scenario": "nope"}')
    src = str(Path(shardlab.__file__).resolve().parents[1])
    env = {**os.environ, "PYTHONPATH": os.pathsep.join(
        filter(None, [src, os.environ.get("PYTHONPATH")]))}
    proc = subprocess.run(
        [sys.executable, "-W", "error", "-m", "shardlab", "--config", str(bad)],
        capture_output=True, text=True, env=env, cwd=tmp_path,
    )
    assert proc.returncode == 2
    assert proc.stderr.startswith("config error:")
    assert "Warning" not in proc.stderr


def test_package_import_leaves_jsonschema_unloaded(tmp_path):
    # only the command line validates configs; `import shardlab` must stay light
    src = str(Path(shardlab.__file__).resolve().parents[1])
    env = {**os.environ, "PYTHONPATH": os.pathsep.join(
        filter(None, [src, os.environ.get("PYTHONPATH")]))}
    proc = subprocess.run(
        [sys.executable, "-c", "import sys, shardlab; print('jsonschema' in sys.modules)"],
        capture_output=True, text=True, env=env, cwd=tmp_path,
    )
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.strip() == "False"
