import json
import os
import resource
import shutil
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

import roamlab
from roamlab import io
from roamlab.cli import EXIT_CONFIG_READ, EXIT_CONFIG_SCHEMA, EXIT_IO, EXIT_OK, main
from roamlab.config import SCHEMA, resolve_config
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


# Tamperings of case-3 assignment rows (step, agent_id, entry_id, attr), in
# place, that the replicate's sequence pool and path rows refute.
def _entry_outside_pool(table, pool):
    table[0, 2] = pool.size


def _step_past_horizon(table, pool):
    table[-1, 0] = MINI["sim.horizon_steps"] + 1


def _attr_not_its_entrys(table, pool):
    table[0, 3] = (table[0, 3] + 1) % len(MINI["sim.group_quotas"])


def _entry_not_starting_the_path(table, pool):
    """Give one agent another entry of its attr, one that starts at another store."""
    for row in table:
        other = np.flatnonzero((pool.attrs == row[3]) & (pool.paths[:, 0] != pool.paths[row[2], 0]))
        if len(other):
            row[2] = other[0]
            return
    raise AssertionError("no agent has an entry of its attr starting elsewhere")


def child_env():
    """The environment of a child that imports the same roamlab as this
    process, installed or not."""
    src = str(Path(roamlab.__file__).resolve().parents[1])
    return dict(os.environ, PYTHONPATH=os.pathsep.join(
        [src, *filter(None, [os.environ.get("PYTHONPATH")])]))


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

    @pytest.mark.parametrize(
        "content",
        [b'{"sim.k": "\xe9"}', b'{"sim.k": ' + b"9" * 5000 + b"}",
         b'{"sim.k": ' + b"[" * 100_000 + b"]" * 100_000 + b"}"],
        ids=["not-utf8", "integer-past-the-digit-limit", "nested-past-the-stack"],
    )
    def test_undecodable_file_exits_2(self, capsys, tmp_path, content):
        path = tmp_path / "c.json"
        path.write_bytes(content)
        assert main(["validate-config", "--config", str(path)]) == EXIT_CONFIG_READ
        err = capsys.readouterr().err
        assert err.startswith(f"error: config {path} is not valid JSON")
        assert len(err.splitlines()) == 1

    @pytest.mark.parametrize(
        "raw",
        [{"sim.omega": 10**400}, {"sim.k": [1, 1, -(10**400), 1]}, {"sim.lambda": 10**400},
         {"sim.distance": [[0] * 18] * 17 + [[10**400] * 17 + [0]]},
         {"truth.attractiveness": [[5] * 17 + [10**400]] * 4},
         {"assim.attractiveness": [[5] * 17 + [10**400]] * 4},
         {"pool.ratios": [10**400, 0, 0, 0]}, {"sim.total_agents": 10**400},
         {"experiment.base_seed": 2**63}],
        ids=["omega", "k", "lambda", "distance", "truth-attractiveness",
             "assim-attractiveness", "ratios", "total-agents", "base-seed"],
    )
    def test_number_too_large_exits_3_naming_key(self, capsys, tmp_path, raw):
        path = tmp_path / "huge.json"
        path.write_text(json.dumps(raw))
        assert main(["validate-config", "--config", str(path)]) == EXIT_CONFIG_SCHEMA
        err = capsys.readouterr().err
        assert err.startswith(f"error: {next(iter(raw))}: expected ")
        assert len(err.splitlines()) == 1

    def test_lifecycle_that_cannot_spend_its_budget_exits_3(self, capsys, tmp_path):
        # one agent can never make the two stationary agents the first
        # replenishment waits for, so three of the four agents never spawn
        path, out = tmp_path / "l.json", tmp_path / "out"
        path.write_text(json.dumps({"sim.total_agents": 4, "sim.initial_agents": 1,
                                    "sim.replenish_threshold": 2, "sim.replenish_count": 1}))
        assert main(["experiment", "--config", str(path), "--out", str(out),
                     "--case", "1", "--runs", "1", "--jobs", "1"]) == EXIT_CONFIG_SCHEMA
        err = capsys.readouterr().err
        assert err.startswith("error: sim.replenish_threshold: replenishment stops after 1 of")
        assert len(err.splitlines()) == 1
        assert not out.exists()

    @pytest.mark.parametrize(
        "text, error",
        [('{"sim.stores": 9}', "sim.stores: unknown config key"),
         # case 3 always runs beside case3_random, so the flag could only drop case3
         ('{"flags.random_baseline": true}', "flags.random_baseline: unknown config key"),
         # json keeps the last value, 1; the first alone is refused
         ('{"sim.k": 1e308, "sim.k": 1}', "sim.k: named twice in the config")],
        ids=["unknown", "removed-flag", "repeated"],
    )
    def test_unknown_or_repeated_key_exits_3_naming_key(self, capsys, tmp_path, text, error):
        path = tmp_path / "k.json"
        path.write_text(text)
        assert main(["validate-config", "--config", str(path)]) == EXIT_CONFIG_SCHEMA
        err = capsys.readouterr().err
        assert err == f"error: {error}\n"

    @pytest.mark.parametrize("command", ["assimilate", "experiment"])
    def test_removed_random_baseline_option_exits_2(self, capsys, tmp_path, command):
        with pytest.raises(SystemExit) as info:
            main([command, "--random-baseline", "--out", str(tmp_path / "out")])
        assert info.value.code == 2
        assert "unrecognized arguments: --random-baseline" in capsys.readouterr().err

    def test_invariant_violation_exits_3(self, capsys, tmp_path):
        path = tmp_path / "q.json"
        path.write_text(json.dumps({"sim.group_quotas": [1, 1, 1, 1]}))
        assert main(["validate-config", "--config", str(path)]) == EXIT_CONFIG_SCHEMA
        assert "group_quotas" in capsys.readouterr().err

    @pytest.mark.parametrize("command", ["validate-config", "experiment"])
    @pytest.mark.parametrize("raw", [{"sim.group_count": 0}, {"sim.initial_agents": -5},
                                     {"sim.total_agents": 0, "sim.initial_agents": 0},
                                     {"sim.replenish_count": 0}])
    def test_counts_below_one_exit_3_naming_key(self, capsys, tmp_path, command, raw):
        path, out = tmp_path / "c.json", tmp_path / "out"
        path.write_text(json.dumps(raw))
        extra = [] if command == "validate-config" else ["--out", str(out)]
        assert main([command, "--config", str(path), *extra]) == EXIT_CONFIG_SCHEMA
        assert capsys.readouterr().err.startswith(f"error: {next(iter(raw))}: must be >= 1")
        assert not out.exists()

    @pytest.mark.parametrize("command", ["validate-config", "experiment"])
    @pytest.mark.parametrize("raw", [{"sim.k": 1e308}, {"sim.k": -1e308}, {"sim.omega": 1e308}])
    def test_non_finite_utilities_exit_3_naming_key(self, capsys, tmp_path, command, raw):
        path, out = tmp_path / "u.json", tmp_path / "out"
        path.write_text(json.dumps({**MINI, **raw}))
        extra = [] if command == "validate-config" else ["--out", str(out)]
        assert main([command, "--config", str(path), *extra]) == EXIT_CONFIG_SCHEMA
        err = capsys.readouterr().err
        assert err.startswith(f"error: {next(iter(raw))}: store utilities are not finite")
        assert len(err.splitlines()) == 1
        assert not out.exists()

    @pytest.mark.parametrize("command", ["validate-config", "experiment"])
    @pytest.mark.parametrize(
        "raw, flags",
        [
            ({"experiment.base_seed": -1}, []),
            ({}, ["--seed", "-1"]),
            ({"sim.store_count": -1}, []),
            # truncated, these quotas would sum to MINI's 100 agents
            ({"sim.group_quotas": [0.5, 0.5, 49, 51]}, []),
            ({"sim.lambda": -1}, []),
            ({"sim.k": float("nan")}, []),
            # each compares equal to case 1, but is no case number
            ({"experiment.cases": [True]}, []),
            ({"experiment.cases": [1.0]}, []),
            ({"experiment.cases": []}, []),
            # default tables no allocator builds: 8 EB of quotas, and numpy
            # refuses the (4, 2**62) attractiveness and (2**40, 2**40) distance
            ({"sim.group_count": 10**18, "sim.total_agents": 10**18, "sim.group_quotas": None}, []),
            ({"sim.store_count": 2**62}, []),
            ({"sim.store_count": 2**40, "truth.attractiveness": [[1.0, 1.0]] * 4}, []),
        ],
        ids=["negative-seed", "negative-seed-flag", "negative-stores", "fractional-quotas",
             "negative-lambda", "nan-k", "bool-case", "float-case", "empty-cases",
             "oversized-groups", "oversized-stores", "oversized-distance"],
    )
    def test_bad_value_exits_3_naming_its_key(self, capsys, tmp_path, command, raw, flags):
        path, out = tmp_path / "b.json", tmp_path / "out"
        path.write_text(json.dumps({**MINI, **raw}))
        extra = [] if command == "validate-config" else ["--out", str(out), "--jobs", "1"]
        assert main([command, "--config", str(path), *flags, *extra]) == EXIT_CONFIG_SCHEMA
        err = capsys.readouterr().err
        key = next(iter(raw), "experiment.base_seed")
        assert err.startswith(f"error: {key}: ")
        assert len(err.splitlines()) == 1
        assert not out.exists()

    @pytest.mark.parametrize("case", ["abc", "4", "1.5"])
    def test_bad_case_exits_3_naming_key(self, capsys, tmp_path, case):
        out = tmp_path / "out"
        assert main(["experiment", "--case", case, "--out", str(out)]) == EXIT_CONFIG_SCHEMA
        assert capsys.readouterr().err.startswith("error: experiment.cases: ")
        assert not out.exists()


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
        assert not (out / "truth" / "000" / "sequence_pool.csv").exists()  # case 3 only
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

    @pytest.mark.parametrize(
        "commands, cases",
        [
            ([["experiment", "--jobs", "1"]], ["case1"]),
            ([["generate-obs"], ["baseline"], ["assimilate"], ["evaluate"]], ["case1"]),
            ([["experiment", "--jobs", "1", "--case", "2"]], ["case2"]),
        ],
        ids=["experiment", "staged", "flag-overrides"],
    )
    def test_config_cases_run_unless_the_case_flag_is_given(self, tmp_path, commands, cases):
        path, out = tmp_path / "c.json", tmp_path / "out"
        path.write_text(json.dumps({**MINI, "experiment.cases": [1]}))
        for command in commands:
            assert main([*command, "--config", str(path), "--out", str(out)]) == EXIT_OK
        roles = sorted(p.name for p in out.iterdir() if p.is_dir())
        assert roles == sorted(["aggregate", "baseline", "truth", *cases])
        metrics = json.loads((out / "aggregate" / "metrics.json").read_text())
        assert sorted(metrics["discrepancy"]) == sorted(["baseline", *cases])

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

    @pytest.mark.parametrize(
        "case, name, keep, command",
        [
            ("1", "case1/000/assim_paths.csv", lambda rows: rows // 2, "evaluate"),
            ("3", "case3/000/assigned_sequences.csv", lambda rows: rows - 10, "evaluate"),
            ("3", "truth/000/sequence_pool.csv", lambda rows: rows - 10, "assimilate"),
        ],
        ids=["paths-half", "assignments-short", "pool-short"],
    )
    def test_file_cut_at_a_row_boundary_exits_4(
        self, mini_config, tmp_path, capsys, case, name, keep, command
    ):
        # Every row left is whole, so only the files beside it can tell the cut.
        out = tmp_path / "out"
        base = ["--config", str(mini_config), "--out", str(out)]
        assert main(["experiment", *base, "--case", case, "--jobs", "1"]) == EXIT_OK
        target = out / name
        header, *rows = target.read_text().splitlines(keepends=True)
        target.write_text("".join([header, *rows[: keep(len(rows))]]))
        capsys.readouterr()
        args = [command, *base] + (["--case", case] if command == "assimilate" else [])
        assert main(args) == EXIT_IO
        err = capsys.readouterr().err
        assert err.startswith("error: ") and str(target) in err
        assert len(err.splitlines()) == 1

    @pytest.mark.parametrize("store", [99, -1])
    def test_evaluate_on_paths_with_store_out_of_range_exits_4(
        self, mini_config, tmp_path, capsys, store
    ):
        out = tmp_path / "out"
        base = ["--config", str(mini_config), "--out", str(out)]
        assert main(["experiment", *base, "--case", "1", "--jobs", "1"]) == EXIT_OK
        target = out / "case1" / "000" / "assim_paths.csv"
        rows = target.read_text().splitlines(keepends=True)
        rows[-1] = rows[-1].rsplit(",", 1)[0] + f",{store}\n"  # the last row's store
        target.write_text("".join(rows))
        capsys.readouterr()
        assert main(["evaluate", *base]) == EXIT_IO
        err = capsys.readouterr().err
        assert err.startswith("error: ") and str(target) in err
        assert len(err.splitlines()) == 1

    @pytest.mark.parametrize("column, agent, value", [(1, 0, 9), (0, 1, -1)],
                             ids=["group-9", "agent-id-negative"])
    def test_evaluate_on_paths_with_group_or_agent_id_out_of_range_exits_4(
        self, mini_config, tmp_path, capsys, column, agent, value
    ):
        # every row of the agent is rewritten, so its path stays whole and its
        # moves still give the OD matrix beside it
        out = tmp_path / "out"
        base = ["--config", str(mini_config), "--out", str(out)]
        assert main(["experiment", *base, "--case", "1", "--jobs", "1"]) == EXIT_OK
        target = out / "baseline" / "000" / "baseline_paths.csv"
        header, *rows = target.read_text().splitlines(keepends=True)
        for i, row in enumerate(rows):
            cells = row.split(",")
            if int(cells[0]) == agent:
                cells[column] = str(value)
                rows[i] = ",".join(cells)
        target.write_text("".join([header, *rows]))
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

    def test_assimilate_on_negative_count_exits_4(self, mini_config, tmp_path, capsys):
        out = tmp_path / "out"
        base = ["--config", str(mini_config), "--out", str(out)]
        assert main(["generate-obs", *base]) == EXIT_OK
        rep = out / "truth" / "000"
        target = rep / "obs_counts_attr.csv"
        obs = np.loadtxt(target, dtype=np.int64, delimiter=",", skiprows=1)[:, 3]
        obs = obs.reshape(-1, 4, 18)  # the file's cells in C order
        obs[5, 0, 0] = -7
        io.write_obs_counts_attr(target, obs)
        io.write_obs_counts(rep / "obs_counts.csv", obs)  # totals still its per-store sums
        capsys.readouterr()
        assert main(["assimilate", *base]) == EXIT_IO
        err = capsys.readouterr().err
        assert err.startswith("error: ") and str(target) in err and "negative" in err
        assert len(err.splitlines()) == 1
        assert sorted(p.name for p in out.iterdir()) == ["truth"]

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

    def test_evaluate_on_duplicated_assignment_rows_exits_4(self, mini_config, tmp_path, capsys):
        # Scoring a repeated block of rows would shift the composition.
        out = tmp_path / "out"
        base = ["--config", str(mini_config), "--out", str(out)]
        assert main(["experiment", *base, "--case", "3", "--jobs", "1"]) == EXIT_OK
        target = out / "case3" / "000" / "assigned_sequences.csv"
        lines = target.read_text().splitlines(keepends=True)
        target.write_text("".join(lines + lines[1:11]))
        capsys.readouterr()
        assert main(["evaluate", *base]) == EXIT_IO
        err = capsys.readouterr().err
        assert err.startswith("error: ") and str(target) in err and "agent_id" in err
        assert len(err.splitlines()) == 1

    @pytest.mark.parametrize(
        "tamper, word",
        [
            (_entry_outside_pool, "entry_id"),
            (_step_past_horizon, "step"),
            (_attr_not_its_entrys, "attr"),
            (_entry_not_starting_the_path, "prefix"),
        ],
        ids=["entry-outside-pool", "step-past-horizon", "attr-not-its-entrys", "path-not-prefix"],
    )
    def test_evaluate_on_assignments_the_pool_does_not_bear_out_exits_4(
        self, mini_config, tmp_path, capsys, tamper, word
    ):
        # Each row names an entry of the replicate's pool: the entry must
        # exist, carry the row's attr and start the agent's path, and the
        # agent must have spawned within the horizon.
        out = tmp_path / "out"
        base = ["--config", str(mini_config), "--out", str(out)]
        assert main(["experiment", *base, "--case", "3", "--jobs", "1"]) == EXIT_OK
        target = out / "case3" / "000" / "assigned_sequences.csv"
        cfg = resolve_config(MINI)
        pool = io.read_sequence_pool(out / "truth" / "000" / "sequence_pool.csv",
                                     cfg.assim.max_transitions + 1, cfg.assim.store_count,
                                     cfg.assim.group_count)
        table = io.read_assignments(target, cfg.assim.group_count)
        tamper(table, pool)
        header = target.read_text().splitlines()[0]
        target.write_text("\n".join([header, *(",".join(map(str, r)) for r in table.tolist())]))
        capsys.readouterr()
        assert main(["evaluate", *base]) == EXIT_IO
        err = capsys.readouterr().err
        assert err.startswith("error: ") and str(target) in err and word in err
        assert len(err.splitlines()) == 1

    def test_evaluate_on_missing_assignments_exits_4(self, mini_config, tmp_path, capsys):
        # Without the file, the case-3 assignment bias would drop out of
        # metrics.json without a word. With case3 gone too, case3 is not
        # scored, so case3_random's missing file is the one evaluate must stop
        # on.
        out = tmp_path / "out"
        base = ["--config", str(mini_config), "--out", str(out), "--runs", "2"]
        assert main(["experiment", *base, "--case", "3", "--jobs", "1"]) == EXIT_OK
        shutil.rmtree(out / "case3")
        target = out / "case3_random" / "000" / "assigned_sequences.csv"
        target.unlink()
        capsys.readouterr()
        assert main(["evaluate", *base]) == EXIT_IO
        err = capsys.readouterr().err
        assert err.startswith("error: ") and str(target) in err
        assert len(err.splitlines()) == 1

    def test_evaluate_on_partly_run_role_exits_4(self, mini_config, tmp_path, capsys):
        # Scoring case1 on one replicate of two, or dropping it from
        # metrics.json beside its stale aggregate files, would both mislead.
        out = tmp_path / "out"
        base = ["--config", str(mini_config), "--out", str(out), "--runs", "2"]
        assert main(["experiment", *base, "--case", "1", "--jobs", "1"]) == EXIT_OK
        shutil.rmtree(out / "case1" / "001")
        metrics = (out / "aggregate" / "metrics.json").read_text()
        capsys.readouterr()
        assert main(["evaluate", *base]) == EXIT_IO
        err = capsys.readouterr().err
        assert err.startswith("error: ") and str(out / "case1" / "001" / "assim_od.csv") in err
        assert len(err.splitlines()) == 1
        assert (out / "aggregate" / "metrics.json").read_text() == metrics

    @pytest.mark.parametrize("scope", ["tree", "one-file"])
    def test_evaluate_on_od_of_another_store_count_exits_4(
        self, mini_config, tmp_path, capsys, scope
    ):
        out = tmp_path / "out"
        base = ["--config", str(mini_config), "--out", str(out)]
        if scope == "tree":
            other = tmp_path / "other.json"
            other.write_text(json.dumps({**MINI, "sim.store_count": 24}))
            assert main(["experiment", "--config", str(other), "--out", str(out),
                         "--case", "1", "--jobs", "1"]) == EXIT_OK
            target = out / "truth" / "000" / "truth_od.csv"
        else:
            assert main(["experiment", *base, "--case", "1", "--jobs", "1"]) == EXIT_OK
            target = out / "baseline" / "000" / "baseline_od.csv"
            io.write_od(target, np.zeros((24, 24), dtype=np.int64))
        capsys.readouterr()
        assert main(["evaluate", *base]) == EXIT_IO
        err = capsys.readouterr().err
        assert err.startswith("error: ") and str(target) in err
        assert len(err.splitlines()) == 1

    def test_unusable_output_dir_exits_4(self, mini_config, tmp_path, capsys):
        blocker = tmp_path / "file"
        blocker.write_text("x")
        for command in ("baseline", "generate-obs"):
            rc = main([command, "--config", str(mini_config), "--out", str(blocker / "sub")])
            assert rc == EXIT_IO
            err = capsys.readouterr().err
            assert err.startswith("error: ") and str(blocker / "sub") in err
            assert len(err.splitlines()) == 1

    def test_evaluate_of_missing_dir_exits_4_creating_nothing(self, mini_config, tmp_path, capsys):
        out = tmp_path / "missing"
        assert main(["evaluate", "--config", str(mini_config), "--out", str(out)]) == EXIT_IO
        err = capsys.readouterr().err
        assert err.startswith("error: ") and str(out) in err
        assert len(err.splitlines()) == 1
        assert not out.exists()

    @pytest.mark.parametrize(
        "before, command, blocked",
        [
            ([], ["experiment", "--runs", "2", "--jobs", "1"], "baseline/001"),
            ([], ["experiment", "--runs", "2", "--jobs", "2"], "baseline/001"),
            (["generate-obs"], ["assimilate", "--case", "1"], "case1/000"),
        ],
        ids=["experiment-jobs1", "experiment-jobs2", "assimilate"],
    )
    def test_file_blocking_a_replicate_dir_exits_4(
        self, mini_config, tmp_path, capsys, before, command, blocked
    ):
        out = tmp_path / "out"
        base = ["--config", str(mini_config), "--out", str(out)]
        if before:
            assert main([*before, *base]) == EXIT_OK
        blocker = out / blocked
        blocker.parent.mkdir(parents=True, exist_ok=True)
        blocker.write_text("x")
        capsys.readouterr()
        assert main([*command, *base]) == EXIT_IO
        err = capsys.readouterr().err
        assert err.startswith("error: ") and str(blocker) in err
        assert len(err.splitlines()) == 1

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

    def test_store_count_too_large_to_validate_exits_3_naming_key(self, tmp_path):
        # validate's (S, S) symmetry check and (G, S, S) decay need some GB at
        # 8000 stores; the child's address space is capped below that
        path = tmp_path / "stores.json"
        path.write_text(json.dumps({"sim.store_count": 8000}))
        limit = 2**30
        proc = subprocess.run(
            [sys.executable, "-m", "roamlab.cli", "validate-config", "--config", str(path)],
            capture_output=True, text=True, env=child_env(),
            preexec_fn=lambda: resource.setrlimit(resource.RLIMIT_AS, (limit, limit)),
        )
        assert proc.returncode == EXIT_CONFIG_SCHEMA
        assert proc.stderr.startswith("error: sim.store_count: ")
        assert len(proc.stderr.splitlines()) == 1

    @pytest.mark.parametrize("jobs", [1, 2])
    @pytest.mark.parametrize(
        "raw",
        [{"pool.size": 2**62}, {"pool.size": 4 * 10**17}, {"sim.total_agents": 4 * 10**17},
         {"sim.total_agents": 2**62}, {"sim.max_transitions": 4 * 10**17}],
        # numpy refuses an array of 2**62 int64 entries outright; 4e17 entries
        # fit its size check but no address space, so the allocation fails
        ids=["pool-size-too-big", "pool-size-no-memory", "agents-no-memory", "agents-too-big",
             "transitions-too-big"],
    )
    def test_count_too_large_for_its_arrays_exits_3_naming_key(self, capsys, tmp_path, raw, jobs):
        # validate-config accepts these counts; the run's arrays cannot be built
        path = tmp_path / "big.json"
        path.write_text(json.dumps(raw))
        assert main(["validate-config", "--config", str(path)]) == EXIT_OK
        capsys.readouterr()
        rc = main(["experiment", "--config", str(path), "--out", str(tmp_path / "out"),
                   "--runs", str(jobs), "--jobs", str(jobs)])
        assert rc == EXIT_CONFIG_SCHEMA
        err = capsys.readouterr().err
        assert err.startswith(f"error: {next(iter(raw))}: ")
        assert "too many to allocate" in err
        assert len(err.splitlines()) == 1

    @pytest.mark.parametrize("command", [["generate-obs"], ["experiment", "--jobs", "1"]])
    @pytest.mark.parametrize("runs", ["4000000000000000000", "100000000000"],
                             ids=["replicates-too-big", "replicates-no-memory"])
    def test_replicates_too_many_to_allocate_exits_3(self, capsys, tmp_path, command, runs):
        # validate-config accepts both counts; numpy refuses an array of 4e18
        # replicate numbers outright, and 1e11 of them fit its size check but
        # not the child's capped address space, so the allocation fails
        assert main(["validate-config", "--runs", runs]) == EXIT_OK
        capsys.readouterr()
        out, limit = tmp_path / "out", 2**30
        proc = subprocess.run(
            [sys.executable, "-m", "roamlab.cli", *command, "--runs", runs, "--out", str(out)],
            capture_output=True, text=True, env=child_env(),
            preexec_fn=lambda: resource.setrlimit(resource.RLIMIT_AS, (limit, limit)),
        )
        assert proc.returncode == EXIT_CONFIG_SCHEMA
        assert proc.stderr.startswith("error: experiment.replicates: ")
        assert "too many to allocate" in proc.stderr
        assert len(proc.stderr.splitlines()) == 1
        assert not out.exists()

    @pytest.mark.parametrize(
        "command",
        [["experiment", "--case", "1"], ["experiment", "--case", "2"], ["generate-obs"]],
    )
    def test_horizon_too_short_for_pool_is_no_error_without_case_3(self, tmp_path, command):
        # the sequence pool is drawn only for case 3, so no run without it
        # needs a completed path
        path, out = tmp_path / "short.json", tmp_path / "out"
        path.write_text(json.dumps({"sim.horizon_steps": 5, "experiment.replicates": 1,
                                    "experiment.cases": [1, 2]}))
        assert main([*command, "--config", str(path), "--out", str(out)]) == EXIT_OK
        assert (out / "truth" / "000" / "obs_counts.csv").exists()
        assert not (out / "truth" / "000" / "sequence_pool.csv").exists()

    def test_truth_rerun_without_case_3_removes_an_earlier_pool(self, mini_config, tmp_path):
        out = tmp_path / "out"
        base = ["--config", str(mini_config), "--out", str(out), "--jobs", "1"]
        assert main(["experiment", *base, "--case", "3"]) == EXIT_OK
        assert (out / "truth" / "000" / "sequence_pool.csv").exists()
        assert main(["experiment", *base, "--case", "1"]) == EXIT_OK
        assert not (out / "truth" / "000" / "sequence_pool.csv").exists()

    def test_console_entry_point(self, tmp_path):
        path = tmp_path / "empty.json"
        path.write_text("{}")
        proc = subprocess.run(
            [sys.executable, "-m", "roamlab.cli", "validate-config", "--config", str(path)],
            capture_output=True,
            text=True,
            env=child_env(),
        )
        assert proc.returncode == EXIT_OK
        assert json.loads(proc.stdout)["sim.store_count"] == 18


PATHS_FILE = {"truth": "truth_paths.csv", "baseline": "baseline_paths.csv"}
OD_FILE = {"truth": "truth_od.csv", "baseline": "baseline_od.csv"}
FLAG_CHECKSUMS = Path(__file__).parent / "golden" / "tiny_flag_checksums.json"


def flag_id(flag):
    return "-".join(f"{k}={v}" for k, v in flag.items())


def _contract_cases():
    """Every int key at its least value and one either side, and at its MINI
    value (else its default) and one either side; then bad list entries."""
    cases = []
    for key, (default, kind, least) in SCHEMA.items():
        if kind == "int":
            base = MINI.get(key, default)
            near = [least - 1, least, least + 1] + ([] if base is None else [base - 1, base + 1])
            cases += [{key: v} for v in dict.fromkeys(near)]
    return cases + [
        {"sim.group_quotas": [0.5, 0.5, 1000, 1000]},
        {"sim.group_quotas": [0.5, 0.5, 49, 51]},
        {"sim.group_quotas": [-1, 51, 25, 25]},
        {"sim.lambda": -1},
        {"sim.lambda": [6, 6, -1, 6]},
        {"sim.k": float("nan")},
        {"sim.omega": float("inf")},
        {"pool.ratios": [1.5, -0.5, 0, 0]},
    ]


@pytest.mark.parametrize(
    "raw", _contract_cases(), ids=lambda raw: ",".join(f"{k}={v}" for k, v in raw.items())
)
def test_accepted_config_never_ends_experiment_in_a_traceback(tmp_path, capsys, raw):
    # A config that validate-config accepts either runs or is refused by a
    # one-line error with a documented exit code; an escaping exception fails.
    path = tmp_path / "c.json"
    path.write_text(json.dumps({**MINI, **raw}))
    if main(["validate-config", "--config", str(path)]) != EXIT_OK:
        assert len(capsys.readouterr().err.splitlines()) == 1
        return
    capsys.readouterr()
    rc = main(["experiment", "--config", str(path), "--out", str(tmp_path / "out"),
               "--jobs", "1"])
    assert rc in (EXIT_OK, EXIT_CONFIG_SCHEMA, EXIT_IO)
    assert rc == EXIT_OK or len(capsys.readouterr().err.splitlines()) == 1


@pytest.mark.parametrize("raw", [{"sim.k": 1e4}, {"sim.omega": 1e4}, {"sim.k": 1e8}],
                         ids=lambda raw: ",".join(f"{k}={v}" for k, v in raw.items()))
def test_large_utility_scales_run(tmp_path, raw):
    # choice and filter rows normalise however far the utilities sit from zero
    path = tmp_path / "c.json"
    path.write_text(json.dumps({**TINY_OVERRIDES, **raw}))
    rc = main(["experiment", "--config", str(path), "--out", str(tmp_path / "out"),
               "--runs", "1", "--jobs", "1"])
    assert rc == EXIT_OK


@pytest.mark.parametrize(
    "flag",
    [
        {"flags.weight_accumulation": True},
        {"flags.allow_self_transition": True},
        {"flags.count_spawn_as_inflow": False},
        {"flags.filter_moves": False},
        {"flags.weighted_placement": False},
    ],
    ids=flag_id,
)
def test_experiment_under_each_ablation_flag(tmp_path, flag):
    """Each flag's tiny tree is sound and byte-identical to its golden tree.

    golden/tiny_flag_checksums.json maps each test id to the `checksums`
    entry of the run_manifest.json this run writes; like
    golden/tiny_checksums.json, it changes only with the RNG consumption.
    """
    path = tmp_path / "cfg.json"
    path.write_text(json.dumps({**TINY_OVERRIDES, **flag}))
    out = tmp_path / "out"
    assert main(["experiment", "--config", str(path), "--out", str(out), "--jobs", "1"]) == EXIT_OK
    cfg = resolve_config(json.loads(path.read_text()))
    sim = cfg.assim
    for role in ["truth", "baseline", *case_labels(cfg)]:
        for r in range(cfg.replicate_count):
            d = replicate_dir(out, role, r)
            rows = io.read_paths(d / PATHS_FILE.get(role, "assim_paths.csv"),
                                sim.store_count, sim.group_count)
            starts = rows[rows[:, 2] == 0]  # one row per agent: its first store
            assert len(starts) == sim.total_agents, role
            groups = np.bincount(starts[:, 1], minlength=sim.group_count)
            assert groups.tolist() == list(sim.group_quotas), role
            assert rows[:, 2].max() <= sim.max_transitions, role
            od = io.read_od(d / OD_FILE.get(role, "assim_od.csv"), sim.store_count)
            assert od.sum() == np.count_nonzero(rows[:, 2] > 0), role
    checksums = json.loads((out / "run_manifest.json").read_text())["checksums"]
    assert checksums == json.loads(FLAG_CHECKSUMS.read_text())[flag_id(flag)]


def _env_with_src():
    """os.environ with this roamlab's source tree first on PYTHONPATH."""
    src = str(Path(roamlab.__file__).resolve().parents[1])
    return dict(os.environ, PYTHONPATH=os.pathsep.join(
        [src, *filter(None, [os.environ.get("PYTHONPATH")])]))


@pytest.mark.parametrize("jobs", [1, 2])
def test_traced_experiment_runs_every_hooked_entry_point(tmp_path, jobs):
    """The benchmark's span tracer runs a tiny experiment to completion.

    perfbench/tracecli.py wraps roamlab's entry points from outside and reads
    their arguments and results after each call; a renamed entry point or a
    changed signature fails here instead of in a benchmark run. With two jobs
    the pool workers write span files too, which they do only after the
    tracer's pool initializer has run in them.
    """
    root = Path(__file__).resolve().parents[1]
    path = tmp_path / "cfg.json"
    path.write_text(json.dumps({**TINY_OVERRIDES, "experiment.replicates": jobs}))
    span_dir = tmp_path / "spans"
    proc = subprocess.run(
        [sys.executable, str(root / "perfbench" / "tracecli.py"), str(span_dir), "experiment",
         "--config", str(path), "--out", str(tmp_path / "out"), "--jobs", str(jobs)],
        capture_output=True, text=True, env=_env_with_src(),
    )
    assert proc.returncode == EXIT_OK, proc.stderr
    payloads = [json.loads(f.read_text()) for f in sorted(span_dir.glob("spans-*.json"))]
    assert payloads
    names = {span[2] for payload in payloads for span in payload["spans"]}
    assert {
        "model.ChoiceModel.log_probs", "model.step_world",
        "twin.run_truth", "assimilation.run_baseline", "assimilation.run_assimilation",
        "assimilation.weight_sequences",
    } <= names
    if jobs > 1:
        assert len({payload["pid"] for payload in payloads}) > 1


# Modules each command must not load: the process pool only opens for two or
# more jobs, no RNG is drawn in validate-config or evaluate, and validate-config
# runs no pipeline stage and scores nothing.
@pytest.mark.parametrize(
    "command, unused",
    [
        (["validate-config"], {"concurrent.futures.process", "numpy.random", "roamlab.experiment",
                               "roamlab.metrics"}),
        (["evaluate"], {"concurrent.futures.process", "numpy.random"}),
        (["experiment", "--jobs", "1"], {"concurrent.futures.process"}),
    ],
    ids=["validate-config", "evaluate", "experiment-jobs1"],
)
def test_commands_load_only_the_modules_they_use(mini_config, tmp_path, command, unused):
    out = tmp_path / "out"
    if command[0] == "evaluate":
        assert main(["experiment", "--config", str(mini_config), "--out", str(out),
                     "--jobs", "1"]) == EXIT_OK
    if command[0] != "validate-config":
        command = [*command, "--out", str(out)]
    script = (
        "import json, sys\n"
        "from roamlab.cli import main\n"
        "rc = main(sys.argv[1:])\n"
        "print(json.dumps([rc, sorted(sys.modules)]))\n"
    )
    proc = subprocess.run(
        [sys.executable, "-c", script, *command, "--config", str(mini_config)],
        capture_output=True, text=True, env=_env_with_src(),
    )
    assert proc.returncode == 0, proc.stderr
    rc, loaded = json.loads(proc.stdout.splitlines()[-1])
    assert rc == EXIT_OK, proc.stderr
    assert unused.isdisjoint(loaded)


def test_bare_import_loads_no_submodule_and_no_numpy():
    script = "import json, sys, roamlab\nprint(json.dumps(sorted(sys.modules)))\n"
    proc = subprocess.run([sys.executable, "-c", script],
                          capture_output=True, text=True, env=_env_with_src())
    assert proc.returncode == 0, proc.stderr
    loaded = json.loads(proc.stdout)
    assert [m for m in loaded if m.split(".")[0] in ("roamlab", "numpy")] == ["roamlab"]
