"""Tests of the benchmark's own logic, at the test suite's tiny scale.

    python3 -m pytest -q perfbench/selftest.py

The file name keeps these tests out of the repository's default pytest run.
"""

import json
import os
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

import checker
import compare
import spans
from run import TINY, WORKLOADS

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
ENV = dict(os.environ, PYTHONPATH=str(ROOT / "src"))


def _cli(args, cwd, traced_dir=None):
    prog = [sys.executable, "-m", "roamlab.cli"] if traced_dir is None else [
        sys.executable, str(HERE / "tracecli.py"), str(traced_dir)]
    return subprocess.run(prog + args, cwd=cwd, env=ENV, capture_output=True, text=True,
                          timeout=300)


@pytest.fixture(scope="module")
def tiny(tmp_path_factory):
    """A finished tiny experiment tree with its resolved config."""
    base = tmp_path_factory.mktemp("tiny")
    (base / "config.json").write_text(json.dumps({**TINY, "experiment.jobs": 1}))
    common = ["--config", str(base / "config.json"), "--runs", "2", "--seed", "7"]
    done = _cli(["experiment", "--case", "all", "--jobs", "1", "--out", str(base / "tree")]
                + common, base)
    assert done.returncode == 0, done.stderr
    resolved = _cli(["validate-config"] + common, base)
    return base / "tree", json.loads(resolved.stdout)


@pytest.fixture
def tree(tiny, tmp_path):
    src, cfg = tiny
    dst = tmp_path / "tree"
    shutil.copytree(src, dst)
    return dst, cfg


def test_clean_tree_passes(tree):
    path, cfg = tree
    digest, problems, info = checker.check_tree(path, cfg, manifest=True, science_checks=False)
    assert problems == []
    assert digest and info["config_hash"]


def test_truncated_paths_file_rejected(tree):
    path, cfg = tree
    target = path / "case1" / "000" / "assim_paths.csv"
    data = target.read_bytes()
    target.write_bytes(data[: len(data) // 2])
    _, problems, _ = checker.check_tree(path, cfg, manifest=True, science_checks=False)
    assert any("case1/000" in p for p in problems)


def test_missing_replicate_rejected(tree):
    path, cfg = tree
    shutil.rmtree(path / "case2" / "001")
    digest, problems, _ = checker.check_tree(path, cfg, manifest=True, science_checks=False)
    assert digest is None
    assert any(p.startswith("case2/001/") for p in problems)


def test_changed_checksum_rejected(tree):
    path, cfg = tree
    clean, _, _ = checker.check_tree(path, cfg, manifest=True, science_checks=False)
    target = path / "truth" / "000" / "obs_counts.csv"
    lines = target.read_text().splitlines()
    step, store, count = lines[1].split(",")
    lines[1] = f"{step},{store},{int(count) + 1}"
    target.write_text("\n".join(lines) + "\n")
    digest, problems, _ = checker.check_tree(path, cfg, manifest=True, science_checks=False)
    assert digest != clean
    assert any("checksums" in p for p in problems)


def test_science_orderings():
    metrics = {"discrepancy": {"case1": {"discrepancy_mean": 10.0},
                               "case2": {"discrepancy_mean": 12.0},
                               "case3": {"discrepancy_mean": 8.0},
                               "case3_random": {"discrepancy_mean": 9.0}},
               "case3_assignment_bias": {"weighted_l1_mean": 0.1, "random_l1_mean": 0.3}}
    roles = checker.case_roles([1, 2, 3])
    ratios, problems = checker.science(metrics, roles, replicates=4)
    assert problems == ["case2 discrepancy 12.0 is not below case1 10.0"]
    assert ratios["case3_over_case3_random"] == pytest.approx(8 / 9)
    _, gated = checker.science(metrics, roles, replicates=30)
    assert any("0.85" in p for p in gated)
    del metrics["case3_assignment_bias"]
    _, missing = checker.science(metrics, ["case3", "case3_random"], replicates=4)
    assert missing == ["metrics.json lacks the case3 assignment L1 values"]


def _span(proc, sid, parent, t0, t1, name="x"):
    return {"key": (proc, sid), "parent": (proc, parent), "name": name, "t0": t0, "t1": t1,
            "note": None}


def test_self_time_of_nested_spans():
    s = [
        _span("p", 0, -1, 0.0, 10.0),
        _span("p", 1, 0, 1.0, 4.0),
        _span("p", 2, 1, 2.0, 3.0),
        _span("p", 3, 0, 5.0, 7.0),
        _span("p", 4, 3, 6.5, 8.0),   # outlives its parent: clipped to 6.5..7
        _span("q", 1, -1, 0.0, 2.0),  # same id in another process is another span
    ]
    self_s = spans.self_times(s)
    assert self_s[("p", 0)] == pytest.approx(10 - 3 - 2)
    assert self_s[("p", 1)] == pytest.approx(3 - 1)
    assert self_s[("p", 2)] == pytest.approx(1)
    assert self_s[("p", 3)] == pytest.approx(2 - 0.5)
    assert self_s[("q", 1)] == pytest.approx(2)


def test_compare_needs_nine_of_ten_pairs():
    base = [10.0, 10.1, 9.9, 10.0, 10.2, 9.8, 10.0, 10.1, 9.9, 10.0]
    nine = [9.0] * 9 + [10.5]
    eight = [9.0] * 8 + [10.5, 10.5]
    v9 = compare.verdict(base, nine, "lower", 0.1)
    v8 = compare.verdict(base, eight, "lower", 0.1)
    assert (v9["wins"], v9["verdict"]) == (9, "gain")
    assert (v8["wins"], v8["verdict"]) == (8, "unchanged")
    assert compare.verdict(base, [12.0] * 10, "lower", 0.1)["verdict"] == "regression"
    assert compare.verdict(base, [12.0] * 10, "higher", None)["verdict"] == "gain"
    assert compare.verdict(base[:1], [12.0], "higher", None)["verdict"] == "-"
    wide = [5.0, 15.0, 5.0, 15.0, 5.0, 15.0, 5.0, 15.0, 5.0, 15.0]
    assert compare.verdict(wide, wide, "lower", 0.1)["verdict"] == "unresolved"


def _result_file(values, failed_share, seconds=30):
    bench = {"end_to_end": [{"name": "wall_s", "unit": "s", "better": "lower", "bound": 0.1}],
             "per_layer": []}
    workload = {"seconds": seconds, "replicates": 4, "failed_share": failed_share,
                "runs": [{"metrics": {"wall_s": v}} for v in values]}
    return {"benchmark": bench, "machine": {}, "workloads": {"w": workload}}


def test_compare_refuses_a_gain_with_more_failures(tmp_path):
    base = _result_file([10.0] * 10, 0.0)
    faster = _result_file([9.0] * 10, 0.0)
    failing = _result_file([9.0] * 10, 0.1)
    assert [v["verdict"] for *_, v in compare.compare(base, faster)] == ["gain"]
    assert [v["verdict"] for *_, v in compare.compare(base, failing)] == ["refused"]
    paths = {}
    for name, data in (("base", base), ("faster", faster), ("failing", failing),
                       ("longer", _result_file([9.0] * 10, 0.0, seconds=60))):
        paths[name] = tmp_path / f"{name}.json"
        paths[name].write_text(json.dumps(data))
    assert compare.main([str(paths["base"]), str(paths["faster"])]) == 0
    assert compare.main([str(paths["base"]), str(paths["failing"])]) == 1
    assert compare.main([str(paths["base"]), str(paths["longer"])]) == 2


def test_skipped_entry_point_makes_its_counts_absent():
    s = [_span("p", 0, -1, 0.0, 1.0, "model.ChoiceModel.sample"),
         _span("p", 1, -1, 1.0, 2.0, "io.read_observations")]
    layers, absent = spans.layer_metrics(s, 1, 1)
    assert layers["model.moves"][0] == 1
    assert "model.moves" not in absent
    assert layers["assimilation.filtered_moves"][0] == 0   # present, never called
    _, absent = spans.layer_metrics(s, 1, 1, {"model.ChoiceModel.sample",
                                               "assimilation.weight_particles",
                                               "io.write_paths"})
    assert {"model.moves", "assimilation.filtered_moves", "io.write_s",
            "io.bytes_written"} <= set(absent)
    assert "io.obs_reads_per_replicate" not in absent


def test_workload_commands_follow_the_config():
    assert WORKLOADS["protocol_all"].stages() == (
        ("experiment", "--case", "all", "--jobs", "2"),)
    assert WORKLOADS["protocol_case3"].stages() == (
        ("experiment", "--case", "3", "--jobs", "1"),)
    assert WORKLOADS["staged_small"].stages()[2] == ("assimilate", "--case", "all")


def test_traced_experiment_reports_layers(tmp_path):
    """Tracing through the process pool collects spans from every replicate."""
    (tmp_path / "config.json").write_text(json.dumps({**TINY, "experiment.jobs": 2}))
    args = ["experiment", "--case", "all", "--jobs", "2", "--runs", "2", "--seed", "7",
            "--config", str(tmp_path / "config.json"), "--out", str(tmp_path / "tree")]
    done = _cli(args, tmp_path, traced_dir=tmp_path / "spans")
    assert done.returncode == 0, done.stderr
    found, skipped = spans.load_spans(tmp_path / "spans")
    assert skipped == set()
    layers, absent = spans.layer_metrics(found, 2, 2, skipped)
    assert absent == ["io.read_observations_ms"]
    assert layers["model.moves"][0] == 2 * 200 * 3   # truth + baseline, 3 moves per agent
    assert layers["assimilation.weight_sequences_calls"][0] == 2 * 200
    assert 0 < layers["assimilation.ess_frac"][0] <= 1
    assert 0 < layers["experiment.parallel_efficiency"][0] <= 1
