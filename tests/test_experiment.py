import json
import os
import shutil
from pathlib import Path

import numpy as np
import pytest

from roamlab import experiment, io
from roamlab.cli import main
from roamlab.config import resolve_config
from roamlab.experiment import (
    MissingInputError,
    case_labels,
    evaluate,
    load_truth_products,
    replicate_dir,
    run_baseline_stage,
    run_case_stage,
    run_experiment,
    run_truth_stage,
)
from roamlab.seeds import ROLE_CODES, derive_rng, derive_seed

from conftest import TINY_OVERRIDES

GOLDEN_CHECKSUMS = Path(__file__).parent / "golden" / "tiny_checksums.json"
DEFAULT_CHECKSUMS = Path(__file__).parent / "golden" / "default_checksums.json"


def tree(out):
    """relative path -> bytes of every file under out but run_manifest.json,
    which holds a wall-clock time."""
    return {p.relative_to(out).as_posix(): p.read_bytes() for p in sorted(Path(out).rglob("*"))
            if p.is_file() and p.name != "run_manifest.json"}


class TestSeeds:
    def test_same_inputs_same_stream(self):
        a = derive_rng(5, 3, "case1").integers(0, 1_000_000, size=8)
        b = derive_rng(5, 3, "case1").integers(0, 1_000_000, size=8)
        np.testing.assert_array_equal(a, b)

    def test_streams_differ_across_roles_and_replicates(self):
        draws = {
            (rep, role): tuple(derive_rng(5, rep, role).integers(0, 1 << 30, size=4))
            for rep in (0, 1)
            for role in ROLE_CODES
        }
        assert len(set(draws.values())) == len(draws)

    def test_unknown_role_rejected(self):
        with pytest.raises(ValueError, match="unknown rng role"):
            derive_seed(1, 0, "oracle")


class TestCaseLabels:
    def test_default_includes_random_control(self):
        cfg = resolve_config({})
        assert case_labels(cfg) == ["case1", "case2", "case3", "case3_random"]

    def test_case_subset(self):
        cfg = resolve_config({}, {"experiment.cases": [2]})
        assert case_labels(cfg) == ["case2"]


class TestChunks:
    @staticmethod
    def chunk_size(overrides):
        raw = {**TINY_OVERRIDES, "experiment.replicates": 100, **overrides}
        return len(experiment.chunks(resolve_config({}, raw))[0])

    @pytest.mark.parametrize("key, values", [
        ("sim.store_count", [18, 36, 72, 144]),
        ("sim.horizon_steps", [60, 240, 960]),
        ("pool.size", [50, 5000, 20000]),
    ])
    def test_chunks_shrink_as_a_world_grows(self, key, values):
        sizes = [self.chunk_size({key: v}) for v in values]
        assert sizes == sorted(set(sizes), reverse=True), sizes

    def test_worlds_too_large_to_pair_step_one_at_a_time(self):
        # 2000 stores over 1000 steps: one world's (T+1, G, S) store weights
        # are 8M cells, so no two worlds share a stack.
        cfg = resolve_config({}, {
            "sim.store_count": 2000, "sim.total_agents": 40, "sim.group_quotas": [10] * 4,
            "sim.initial_agents": 40, "sim.max_transitions": 1, "sim.horizon_steps": 1000,
            "experiment.replicates": 30,
        })
        assert not experiment.paired(cfg)
        assert experiment.chunks(cfg) == [[r] for r in range(30)]
        assert experiment.families(cfg) == [[label] for label in case_labels(cfg)]


class TestStages:
    @pytest.fixture
    def cfg(self):
        return resolve_config({}, {**TINY_OVERRIDES, "experiment.replicates": 1})

    def test_case_stage_reads_products_from_disk(self, cfg, tmp_path):
        run_truth_stage(cfg, tmp_path, [0])
        observations, pool = load_truth_products(cfg, tmp_path, 0)
        run_case_stage(cfg, tmp_path, [0], ["case3"], [observations], [pool])
        d = replicate_dir(tmp_path, "case3", 0)
        assert (d / "assim_od.csv").exists()
        sim = cfg.assim
        assignments = io.read_assignments(d / "assigned_sequences.csv", sim.group_count)
        pool = io.read_sequence_pool(replicate_dir(tmp_path, "truth", 0) / "sequence_pool.csv",
                                     sim.max_transitions + 1, sim.store_count, sim.group_count)
        rows = io.read_paths(d / "assim_paths.csv", sim.store_count, sim.group_count)
        entry_of = dict(zip(assignments[:, 1], assignments[:, 2]))
        followed = np.array([entry_of[aid] for aid in rows[:, 0]])
        np.testing.assert_array_equal(rows[:, 3], pool.paths[followed, rows[:, 2]])

    def test_case_stage_without_truth_products_raises(self, cfg, tmp_path):
        with pytest.raises(MissingInputError, match="generate-obs"):
            load_truth_products(cfg, tmp_path, 0)

    def test_evaluate_requires_truth(self, cfg, tmp_path):
        run_baseline_stage(cfg, tmp_path, [0])
        with pytest.raises(MissingInputError, match="truth"):
            evaluate(cfg, tmp_path)

    def test_evaluate_handles_partial_roles(self, cfg, tmp_path):
        [(observations, _, _)] = run_truth_stage(cfg, tmp_path, [0])
        run_case_stage(cfg, tmp_path, [0], ["case1"], [observations], [None])
        summary = evaluate(cfg, tmp_path)
        assert set(summary["discrepancy"]) == {"case1"}
        assert (tmp_path / "aggregate" / "case1" / "od_assim_mean.csv").exists()
        assert not (tmp_path / "aggregate" / "od_baseline_mean.csv").exists()


class TestManifest:
    def test_checksums_cover_every_data_file(self, tmp_path):
        cfg = resolve_config(
            {}, {**TINY_OVERRIDES, "experiment.replicates": 1, "experiment.jobs": 1}
        )
        run_experiment(cfg, tmp_path)
        manifest = json.loads((tmp_path / "run_manifest.json").read_text())
        on_disk = {
            p.relative_to(tmp_path).as_posix()
            for p in tmp_path.rglob("*")
            if p.is_file() and p.name != "run_manifest.json"
        }
        assert set(manifest["checksums"]) == on_disk
        assert manifest["config_hash"]
        assert manifest["config"]["sim.total_agents"] == 200
        assert manifest["seed_derivation"]["role_codes"]["truth"] == 0
        assert manifest["wall_time_s"] > 0

    def test_checksums_skip_files_an_earlier_run_left(self, tmp_path):
        # case 1 with one replicate, run into the tree of an all-cases run with
        # two replicates, lists what it lists in an empty tree; the older
        # files stay on disk
        run_experiment(resolve_config({}, {**TINY_OVERRIDES, "experiment.jobs": 1}), tmp_path / "a")
        cfg = resolve_config({}, {**TINY_OVERRIDES, "experiment.replicates": 1,
                                  "experiment.jobs": 1, "experiment.cases": [1]})
        for out in (tmp_path / "a", tmp_path / "b"):
            run_experiment(cfg, out)
        stale, fresh = (json.loads((tmp_path / d / "run_manifest.json").read_text())["checksums"]
                        for d in ("a", "b"))
        assert stale == fresh
        assert (tmp_path / "a" / "case2").is_dir() and (tmp_path / "a" / "truth" / "001").is_dir()

    def test_default_jobs_count_only_the_cpus_this_process_may_use(self, tmp_path, monkeypatch):
        class PoolOpened(Exception):
            pass

        def recording_pool(max_workers):
            opened.append(max_workers)
            raise PoolOpened

        opened = []
        monkeypatch.setattr(os, "sched_getaffinity", lambda pid: {0, 2, 5}, raising=False)
        monkeypatch.setattr(os, "cpu_count", lambda: 64)
        monkeypatch.setattr(experiment, "ProcessPoolExecutor", recording_pool)
        cfg = resolve_config({}, {**TINY_OVERRIDES, "experiment.replicates": 8})
        with pytest.raises(PoolOpened):
            run_experiment(cfg, tmp_path)
        assert opened == [3]

    def test_evaluate_rescores_what_experiment_scored_in_its_workers(self, tmp_path):
        # experiment scores the summaries its workers hand back; the evaluate
        # command reads the same replicates back from their files. Both hold
        # the same arrays: OD matrix, whole 3-gram table and, for case 3, the
        # group counts of the assigned sequences.
        cfg = resolve_config({}, {**TINY_OVERRIDES, "experiment.jobs": 2})
        assert cfg.replicate_count == 2 and cfg.cases == (1, 2, 3)
        run_experiment(cfg, tmp_path)
        agg = tmp_path / "aggregate"

        def files():
            return {p.relative_to(agg).as_posix(): p.read_bytes()
                    for p in agg.rglob("*") if p.is_file()}

        scored = files()
        assert len(scored) == 1 + 2 + 4 * 2  # metrics.json, truth and baseline, 2 per case role
        shutil.rmtree(agg)
        evaluate(cfg, tmp_path)
        assert files() == scored

        roles = ["truth", "baseline", *case_labels(cfg)]
        for r in range(cfg.replicate_count):
            [handed] = experiment.run_replicate(cfg, tmp_path / "again", [r])
            read = experiment._read_summary(cfg, tmp_path, r, roles)
            assert list(handed) == roles
            for role in roles:
                (od, ngrams, groups), (od_read, ngrams_read, groups_read) = handed[role], read[role]
                np.testing.assert_array_equal(od, od_read)
                np.testing.assert_array_equal(ngrams, ngrams_read)
                if role in experiment.CASE3_ROLES:
                    np.testing.assert_array_equal(groups, groups_read)
                else:
                    assert groups is None and groups_read is None

    def test_parallel_and_serial_runs_agree(self, tmp_path):
        serial = resolve_config({}, {**TINY_OVERRIDES, "experiment.jobs": 1})
        parallel = resolve_config({}, {**TINY_OVERRIDES, "experiment.jobs": 2})
        run_experiment(serial, tmp_path / "serial")
        run_experiment(parallel, tmp_path / "parallel")
        a = json.loads((tmp_path / "serial" / "run_manifest.json").read_text())["checksums"]
        b = json.loads((tmp_path / "parallel" / "run_manifest.json").read_text())["checksums"]
        assert a == b

    def test_uneven_worker_shares_write_the_serial_tree(self, tmp_path):
        # Five replicates over three workers: chunks of 2, 2 and 1, each
        # stepping its replicates' worlds in lockstep.
        raw = {**TINY_OVERRIDES, "experiment.replicates": 5}
        assert experiment.chunks(resolve_config(raw), 3) == [[0, 1], [2, 3], [4]]
        for jobs in (1, 3):
            run_experiment(resolve_config(raw, {"experiment.jobs": jobs}), tmp_path / str(jobs))
        assert tree(tmp_path / "3") == tree(tmp_path / "1")

    def test_roles_stepped_one_at_a_time_write_the_golden_tree(self, tmp_path, monkeypatch):
        # A stack too small for two worlds steps every role on its own, one
        # replicate per chunk; the tree is the one the paired stacks write.
        monkeypatch.setattr(experiment, "LOCKSTEP_CELLS", 1)
        cfg = resolve_config({}, {**TINY_OVERRIDES, "experiment.jobs": 1})
        assert not experiment.paired(cfg)
        assert experiment.families(cfg) == [[label] for label in case_labels(cfg)]
        assert experiment.chunks(cfg) == [[0], [1]]
        run_experiment(cfg, tmp_path)
        checksums = json.loads((tmp_path / "run_manifest.json").read_text())["checksums"]
        assert checksums == json.loads(GOLDEN_CHECKSUMS.read_text())

    def test_stage_replicates_do_not_depend_on_the_worlds_beside_them(self, tmp_path):
        # generate-obs, baseline and assimilate step every replicate of a
        # role, or of a policy family, in lockstep: replicates 0-2 of a run
        # of 3 hold the bytes they hold in a run of 8.
        config = tmp_path / "config.json"
        config.write_text(json.dumps(TINY_OVERRIDES))
        for runs in (3, 8):
            for command in (["generate-obs"], ["baseline"], ["assimilate", "--case", "all"]):
                assert main([*command, "--config", str(config), "--runs", str(runs),
                             "--out", str(tmp_path / str(runs))]) == 0
        three = tree(tmp_path / "3")
        assert len(three) == 3 * (5 + 2 + 2 * 2 + 2 * 3)  # truth, baseline, cases 1-2, case-3 roles
        assert {f: tree(tmp_path / "8")[f] for f in three} == three

    def test_tiny_tree_matches_golden_checksums(self, tmp_path):
        """The tiny-config output tree is byte-identical to the golden tree.

        golden/tiny_checksums.json is the `checksums` entry of the
        run_manifest.json that `roamlab experiment --jobs 1` writes under
        TINY_OVERRIDES. A refactor that leaves every RNG stream as it was must
        reproduce it exactly. Regenerate the file only in a change that
        deliberately alters RNG consumption, and report that change's
        acceptance criteria 1, 2 and 9 values alongside it.
        """
        cfg = resolve_config({}, {**TINY_OVERRIDES, "experiment.jobs": 1})
        run_experiment(cfg, tmp_path)
        checksums = json.loads((tmp_path / "run_manifest.json").read_text())["checksums"]
        assert checksums == json.loads(GOLDEN_CHECKSUMS.read_text())

    @pytest.mark.parametrize("cases", [[3], [1]])
    def test_role_files_do_not_depend_on_the_other_cases(self, tmp_path, cases):
        """A run of some cases writes each of its roles' replicate files with
        the bytes the all-cases golden tree holds, since each role draws from
        its own RNG stream. Of truth's files, sequence_pool.csv is written
        only when case 3 runs."""
        cfg = resolve_config({}, {**TINY_OVERRIDES, "experiment.jobs": 1,
                                  "experiment.cases": cases})
        run_experiment(cfg, tmp_path)
        checksums = json.loads((tmp_path / "run_manifest.json").read_text())["checksums"]
        roles = ["truth", "baseline", *case_labels(cfg)]
        golden = {f: digest for f, digest in json.loads(GOLDEN_CHECKSUMS.read_text()).items()
                  if f.split("/")[0] in roles
                  and (3 in cases or not f.endswith("/sequence_pool.csv"))}
        assert {f: digest for f, digest in checksums.items()
                if f.split("/")[0] in roles} == golden

    def test_default_tree_matches_golden_checksums(self, tmp_path):
        """The default-scale tree of one replicate is byte-identical to the
        golden tree.

        golden/default_checksums.json is the `checksums` entry of the
        run_manifest.json that `roamlab experiment --runs 1 --seed 7 --jobs 1`
        writes under the default config (18 stores, 2000 agents, 200 steps,
        all cases). It changes only with the RNG consumption, like
        golden/tiny_checksums.json.
        """
        cfg = resolve_config(
            {}, {"experiment.replicates": 1, "experiment.base_seed": 7, "experiment.jobs": 1}
        )
        run_experiment(cfg, tmp_path)
        checksums = json.loads((tmp_path / "run_manifest.json").read_text())["checksums"]
        assert checksums == json.loads(DEFAULT_CHECKSUMS.read_text())
