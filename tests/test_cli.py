import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

import roamlab
from roamlab.cli import EXIT_CONFIG_READ, EXIT_CONFIG_SCHEMA, EXIT_IO, EXIT_OK, main

from conftest import TINY_OVERRIDES

MINI = {
    **TINY_OVERRIDES,
    "experiment.replicates": 1,
    "sim.horizon_steps": 40,
    "sim.total_agents": 100,
    "sim.group_quotas": [25, 25, 25, 25],
    "pool.size": 30,
}


@pytest.fixture
def mini_config(tmp_path):
    path = tmp_path / "mini.json"
    path.write_text(json.dumps(MINI))
    return path


class TestValidateConfig:
    def test_prints_resolved_defaults(self, capsys, tmp_path):
        path = tmp_path / "empty.json"
        path.write_text("{}")
        assert main(["validate-config", "--config", str(path)]) == EXIT_OK
        resolved = json.loads(capsys.readouterr().out)
        assert resolved["sim.store_count"] == 18
        assert resolved["experiment.replicates"] == 30
        assert resolved["sim.group_quotas"] == [500, 500, 500, 500]

    def test_missing_file_exits_2(self, capsys, tmp_path):
        assert main(["validate-config", "--config", str(tmp_path / "x.json")]) == EXIT_CONFIG_READ
        assert "cannot read" in capsys.readouterr().err

    def test_unparseable_file_exits_2(self, capsys, tmp_path):
        path = tmp_path / "bad.json"
        path.write_text("{oops")
        assert main(["validate-config", "--config", str(path)]) == EXIT_CONFIG_READ

    def test_unknown_key_exits_3_naming_key(self, capsys, tmp_path):
        path = tmp_path / "k.json"
        path.write_text(json.dumps({"sim.stores": 9}))
        assert main(["validate-config", "--config", str(path)]) == EXIT_CONFIG_SCHEMA
        assert "sim.stores" in capsys.readouterr().err

    def test_invariant_violation_exits_3(self, capsys, tmp_path):
        path = tmp_path / "q.json"
        path.write_text(json.dumps({"sim.group_quotas": [1, 1, 1, 1]}))
        assert main(["validate-config", "--config", str(path)]) == EXIT_CONFIG_SCHEMA
        assert "group_quotas" in capsys.readouterr().err


class TestPipeline:
    def test_minimal_experiment_tree(self, mini_config, tmp_path, capsys):
        out = tmp_path / "out"
        rc = main(
            ["experiment", "--config", str(mini_config), "--case", "1",
             "--out", str(out), "--jobs", "1"]
        )
        assert rc == EXIT_OK
        assert (out / "truth" / "000" / "obs_counts.csv").exists()
        assert (out / "truth" / "000" / "obs_counts_attr.csv").exists()
        assert (out / "truth" / "000" / "sequence_pool.csv").exists()
        assert (out / "truth" / "000" / "truth_od.csv").exists()
        assert (out / "truth" / "000" / "truth_paths.csv").exists()
        assert (out / "baseline" / "000" / "baseline_od.csv").exists()
        assert (out / "case1" / "000" / "assim_od.csv").exists()
        assert not (out / "case2").exists()
        assert not (out / "case3").exists()
        assert (out / "aggregate" / "od_truth_mean.csv").exists()
        assert (out / "aggregate" / "od_baseline_mean.csv").exists()
        assert (out / "aggregate" / "case1" / "od_assim_mean.csv").exists()
        assert (out / "aggregate" / "case1" / "ngram_top20.csv").exists()
        assert (out / "aggregate" / "metrics.json").exists()
        assert (out / "run_manifest.json").exists()
        assert "case1" in capsys.readouterr().out

    def test_staged_pipeline_matches_subcommands(self, mini_config, tmp_path):
        out = tmp_path / "staged"
        base = ["--config", str(mini_config), "--out", str(out)]
        assert main(["generate-obs", *base]) == EXIT_OK
        assert main(["baseline", *base]) == EXIT_OK
        assert main(["assimilate", *base, "--case", "3"]) == EXIT_OK
        assert main(["evaluate", *base]) == EXIT_OK
        assert (out / "case3" / "000" / "assigned_sequences.csv").exists()
        assert (out / "case3_random" / "000" / "assim_paths.csv").exists()
        metrics = json.loads((out / "aggregate" / "metrics.json").read_text())
        assert "case3" in metrics["discrepancy"]
        assert "case3_assignment_bias" in metrics

    def test_assimilate_without_truth_products_exits_4(self, mini_config, tmp_path, capsys):
        rc = main(
            ["assimilate", "--config", str(mini_config), "--case", "1",
             "--out", str(tmp_path / "void")]
        )
        assert rc == EXIT_IO
        assert "generate-obs" in capsys.readouterr().err

    def test_unusable_output_dir_exits_4(self, mini_config, tmp_path, capsys):
        blocker = tmp_path / "file"
        blocker.write_text("x")
        rc = main(
            ["baseline", "--config", str(mini_config), "--out", str(blocker / "sub")]
        )
        assert rc == EXIT_IO
        assert "not writable" in capsys.readouterr().err

    def test_random_baseline_flag_skips_weighted_case3(self, mini_config, tmp_path):
        out = tmp_path / "rb"
        rc = main(
            ["experiment", "--config", str(mini_config), "--case", "3", "--out", str(out),
             "--jobs", "1", "--random-baseline"]
        )
        assert rc == EXIT_OK
        assert (out / "case3_random").exists()
        assert not (out / "case3").exists()

    @pytest.mark.parametrize(
        "command", [["generate-obs"], ["experiment", "--jobs", "1"], ["experiment", "--jobs", "2"]]
    )
    def test_horizon_too_short_for_pool_exits_3(self, tmp_path, capsys, command):
        # Within 5 steps no agent finishes its 3 transitions (dwell >= 2), so
        # the truth archive has no path for the groups pool.ratios asks for.
        path = tmp_path / "short.json"
        path.write_text(json.dumps({"sim.horizon_steps": 5, "experiment.replicates": 2}))
        rc = main([*command, "--config", str(path), "--out", str(tmp_path / "out")])
        assert rc == EXIT_CONFIG_SCHEMA
        err = capsys.readouterr().err
        assert err.startswith("error: pool.ratios: ")
        assert len(err.splitlines()) == 1

    def test_console_entry_point(self, tmp_path):
        path = tmp_path / "empty.json"
        path.write_text("{}")
        # The child imports the same roamlab as this process, installed or not.
        src = str(Path(roamlab.__file__).resolve().parents[1])
        env = dict(os.environ, PYTHONPATH=os.pathsep.join(
            [src, *filter(None, [os.environ.get("PYTHONPATH")])]))
        proc = subprocess.run(
            [sys.executable, "-m", "roamlab.cli", "validate-config", "--config", str(path)],
            capture_output=True,
            text=True,
            env=env,
        )
        assert proc.returncode == EXIT_OK
        assert json.loads(proc.stdout)["sim.store_count"] == 18
