import json
import os
import shutil
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

import roamlab
from roamlab import io
from roamlab.cli import EXIT_CONFIG_READ, EXIT_CONFIG_SCHEMA, EXIT_IO, EXIT_OK, main
from roamlab.config import resolve_config
from roamlab.experiment import case_labels, replicate_dir

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
        # The stages pass observations through their CSV files, experiment
        # passes them in memory; both must write the same bytes.
        out = tmp_path / "staged"
        base = ["--config", str(mini_config), "--out", str(out)]
        assert main(["generate-obs", *base]) == EXIT_OK
        assert main(["baseline", *base]) == EXIT_OK
        assert main(["assimilate", *base, "--case", "all"]) == EXIT_OK
        assert main(["evaluate", *base]) == EXIT_OK
        assert (out / "case3" / "000" / "assigned_sequences.csv").exists()
        assert (out / "case3_random" / "000" / "assim_paths.csv").exists()
        metrics = json.loads((out / "aggregate" / "metrics.json").read_text())
        assert "case3" in metrics["discrepancy"]
        assert "case3_assignment_bias" in metrics

        whole = tmp_path / "whole"
        assert main(["experiment", "--config", str(mini_config), "--out", str(whole),
                     "--jobs", "1"]) == EXIT_OK

        def tree(root):
            return {p.relative_to(root).as_posix(): p.read_bytes()
                    for p in root.rglob("*") if p.is_file() and p.name != "run_manifest.json"}

        staged, expected = tree(out), tree(whole)
        assert sorted(staged) == sorted(expected)
        assert [name for name in expected if staged[name] != expected[name]] == []

    def test_assimilate_without_truth_products_exits_4(self, mini_config, tmp_path, capsys):
        rc = main(
            ["assimilate", "--config", str(mini_config), "--case", "1",
             "--out", str(tmp_path / "void")]
        )
        assert rc == EXIT_IO
        assert "generate-obs" in capsys.readouterr().err

    @staticmethod
    def cut_mid_row(path):
        """Truncate a CSV inside its last data row, as a killed writer leaves it."""
        text = path.read_text()
        last = text.rstrip("\n").rsplit("\n", 1)[1]
        path.write_text(text[: len(text) - len(last) // 2 - 1])

    def test_evaluate_on_truncated_paths_exits_4(self, mini_config, tmp_path, capsys):
        out = tmp_path / "out"
        base = ["--config", str(mini_config), "--out", str(out)]
        assert main(["experiment", *base, "--case", "1", "--jobs", "1"]) == EXIT_OK
        target = out / "case1" / "000" / "assim_paths.csv"
        self.cut_mid_row(target)
        capsys.readouterr()
        assert main(["evaluate", *base]) == EXIT_IO
        err = capsys.readouterr().err
        assert err.startswith("error: ") and str(target) in err
        assert len(err.splitlines()) == 1

    def test_assimilate_on_truncated_attr_counts_exits_4(self, mini_config, tmp_path, capsys):
        out = tmp_path / "out"
        base = ["--config", str(mini_config), "--out", str(out)]
        assert main(["generate-obs", *base]) == EXIT_OK
        target = out / "truth" / "000" / "obs_counts_attr.csv"
        self.cut_mid_row(target)
        capsys.readouterr()
        assert main(["assimilate", *base, "--case", "1"]) == EXIT_IO
        err = capsys.readouterr().err
        assert err.startswith("error: ") and str(target) in err
        assert len(err.splitlines()) == 1
        assert not (out / "case1").exists()

    @pytest.mark.parametrize(
        "case, override",
        [
            ("3", {"sim.store_count": 24}),
            ("1", {"sim.horizon_steps": 30}),
            ("1", {"sim.store_count": 12}),
            ("3", {"sim.max_transitions": 2}),
        ],
        ids=["stores-24", "horizon-30", "stores-12", "transitions-2"],
    )
    def test_assimilate_on_products_of_another_config_exits_4(
        self, mini_config, tmp_path, capsys, case, override
    ):
        out = tmp_path / "out"
        assert main(["generate-obs", "--config", str(mini_config), "--out", str(out)]) == EXIT_OK
        other = tmp_path / "other.json"
        other.write_text(json.dumps({**MINI, **override}))
        capsys.readouterr()
        rc = main(["assimilate", "--config", str(other), "--out", str(out), "--case", case])
        assert rc == EXIT_IO
        err = capsys.readouterr().err
        assert err.startswith("error: ") and str(out / "truth" / "000") in err
        assert len(err.splitlines()) == 1
        assert sorted(p.name for p in out.iterdir()) == ["truth"]

    def test_evaluate_on_header_only_assignments_exits_4(self, mini_config, tmp_path, capsys):
        # With no rows the assignment composition would be 0/0, a NaN that
        # metrics.json cannot carry as valid JSON.
        out = tmp_path / "out"
        base = ["--config", str(mini_config), "--out", str(out)]
        assert main(["experiment", *base, "--case", "3", "--jobs", "1"]) == EXIT_OK
        target = out / "case3" / "000" / "assigned_sequences.csv"
        target.write_text(target.read_text().splitlines(keepends=True)[0])
        capsys.readouterr()
        assert main(["evaluate", *base]) == EXIT_IO
        err = capsys.readouterr().err
        assert err.startswith("error: ") and str(target) in err
        assert len(err.splitlines()) == 1

    def test_evaluate_on_missing_assignments_exits_4(self, mini_config, tmp_path, capsys):
        # Without the file, the case-3 assignment bias would drop out of
        # metrics.json without a word. With case3/001 gone too, case3 is
        # incomplete and not scored, so case3_random's missing file is the one
        # evaluate must stop on.
        out = tmp_path / "out"
        base = ["--config", str(mini_config), "--out", str(out), "--runs", "2"]
        assert main(["experiment", *base, "--case", "3", "--jobs", "1"]) == EXIT_OK
        shutil.rmtree(out / "case3" / "001")
        target = out / "case3_random" / "000" / "assigned_sequences.csv"
        target.unlink()
        capsys.readouterr()
        assert main(["evaluate", *base]) == EXIT_IO
        err = capsys.readouterr().err
        assert err.startswith("error: ") and str(target) in err
        assert len(err.splitlines()) == 1

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


PATHS_FILE = {"truth": "truth_paths.csv", "baseline": "baseline_paths.csv"}
OD_FILE = {"truth": "truth_od.csv", "baseline": "baseline_od.csv"}


@pytest.mark.parametrize(
    "flag",
    [
        {"flags.weight_accumulation": True},
        {"flags.random_baseline": True},
        {"flags.allow_self_transition": True},
        {"flags.count_spawn_as_inflow": False},
        {"flags.filter_moves": False},
        {"flags.weighted_placement": False},
    ],
    ids=lambda flag: "-".join(f"{k}={v}" for k, v in flag.items()),
)
def test_experiment_under_each_ablation_flag(tmp_path, flag):
    path = tmp_path / "cfg.json"
    path.write_text(json.dumps({**TINY_OVERRIDES, **flag}))
    out = tmp_path / "out"
    assert main(["experiment", "--config", str(path), "--out", str(out), "--jobs", "1"]) == EXIT_OK
    cfg = resolve_config(json.loads(path.read_text()))
    sim = cfg.assim
    for role in ["truth", "baseline", *case_labels(cfg)]:
        for r in range(cfg.replicate_count):
            d = replicate_dir(out, role, r)
            rows = io.read_paths(d / PATHS_FILE.get(role, "assim_paths.csv"))
            starts = rows[rows[:, 2] == 0]  # one row per agent: its first store
            assert len(starts) == sim.total_agents, role
            groups = np.bincount(starts[:, 1], minlength=sim.group_count)
            assert groups.tolist() == list(sim.group_quotas), role
            assert rows[:, 2].max() <= sim.max_transitions, role
            od = io.read_od(d / OD_FILE.get(role, "assim_od.csv"))
            assert od.sum() == np.count_nonzero(rows[:, 2] > 0), role
