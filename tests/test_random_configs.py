"""Random small configs through the whole pipeline.

Hypothesis draws configs of other shapes than the default and tiny ones:
2-6 stores, 1-3 groups, random quotas, lifecycle counts and dwell ranges, a
horizon of 20-80 steps, 1-2 replicates, random flags and a random subset of
cases. Each config either raises ConfigSchemaError naming its key, or runs
and writes a tree that holds every invariant of check_tree.
"""

import json
import shutil
import tempfile
from pathlib import Path

import numpy as np
from hypothesis import HealthCheck, assume, event, given, settings
from hypothesis import strategies as st

from roamlab.cli import main
from roamlab.config import SCHEMA, ConfigSchemaError, resolve_config
from roamlab.experiment import CASE3_ROLES, case_labels, evaluate, replicate_dir, run_experiment

FLAGS = [key for key in SCHEMA if key.startswith("flags.")]


@st.composite
def raw_configs(draw):
    """A flat config; most draws pass the lifecycle check and run."""
    stores, groups = draw(st.integers(2, 6)), draw(st.integers(1, 3))
    quotas = draw(st.lists(st.integers(4, 25), min_size=groups, max_size=groups))
    total = sum(quotas)
    count = draw(st.integers(1, 20))
    if draw(st.integers(0, 4)):
        # a batch no smaller than its threshold, after an initial spawn that
        # reaches the threshold, always spends the budget
        threshold = draw(st.integers(1, min(count, total)))
        initial = draw(st.integers(threshold, total))
    else:  # anything, the lifecycle refusal included
        threshold, initial = draw(st.integers(1, 30)), draw(st.integers(1, total))
    dwell_min = draw(st.integers(1, 3))
    weights = draw(st.lists(st.integers(1, 5), min_size=groups, max_size=groups))
    return {
        "experiment.replicates": draw(st.integers(1, 2)),
        "experiment.base_seed": draw(st.integers(0, 2**32)),
        "experiment.cases": draw(st.lists(st.sampled_from([1, 2, 3]), min_size=1, max_size=3,
                                          unique=True)),
        "sim.store_count": stores,
        "sim.group_count": groups,
        "sim.group_quotas": quotas,
        "sim.total_agents": total,
        "sim.initial_agents": initial,
        "sim.replenish_threshold": threshold,
        "sim.replenish_count": count,
        "sim.max_transitions": draw(st.integers(1, 4)),
        "sim.dwell_min": dwell_min,
        "sim.dwell_max": draw(st.integers(dwell_min, dwell_min + 2)),
        "sim.horizon_steps": draw(st.integers(20, 80)),
        "sim.k": draw(st.lists(st.floats(0.2, 2), min_size=groups, max_size=groups)),
        "truth.attractiveness": draw(st.lists(
            st.lists(st.integers(1, 10), min_size=stores, max_size=stores),
            min_size=groups, max_size=groups)),
        "pool.size": draw(st.integers(1, 40)),
        "pool.ratios": [w / sum(weights) for w in weights],
        "particles.cases12": draw(st.integers(1, 20)),
        **{key: draw(st.booleans()) for key in FLAGS},
    }


def run_or_refuse(raw, out):
    """The resolved config after run_experiment wrote out, or None if the
    config was refused with an error naming one of its keys."""
    try:
        cfg = resolve_config(raw, {"experiment.jobs": 1})
        run_experiment(cfg, out)
    except ConfigSchemaError as e:
        key = str(e).partition(":")[0]
        assert key in SCHEMA, e
        event(f"refused on {key}")
        return None
    event("ran")
    return cfg


def read(path):
    """Rows of an integer CSV written by roamlab, header skipped."""
    return np.loadtxt(path, dtype=np.int64, delimiter=",", skiprows=1, ndmin=2)


def tree(out):
    """relative path -> bytes of every file under out but run_manifest.json,
    which holds a wall-clock time."""
    return {p.relative_to(out).as_posix(): p.read_bytes() for p in sorted(out.rglob("*"))
            if p.is_file() and p.name != "run_manifest.json"}


def check_tree(cfg, out):
    sim = cfg.assim
    s = sim.store_count
    for r in range(cfg.replicate_count):
        for role in ["truth", "baseline", *case_labels(cfg)]:
            d = replicate_dir(out, role, r)
            stem = role if role in ("truth", "baseline") else "assim"
            rows = read(d / f"{stem}_paths.csv")
            agent, group, position, store = rows.T
            # every spawned agent, numbered 0..n-1, has positions 0, 1, 2, ...
            assert np.array_equal(np.unique(agent), np.arange(agent[-1] + 1))
            assert np.all(np.diff(agent) >= 0)
            assert np.array_equal(position, np.arange(len(rows)) - np.searchsorted(agent, agent))
            assert position.max() <= sim.max_transitions
            # the OD matrix counts exactly the moves
            move = agent[1:] == agent[:-1]
            origin, dest = store[:-1][move], store[1:][move]
            od = np.zeros((s, s), dtype=np.int64)
            np.add.at(od, (origin, dest), 1)
            cells = read(d / f"{stem}_od.csv")
            assert np.array_equal(cells[:, 2].reshape(s, s), od)
            if not sim.allow_self_transition:
                assert not np.any(origin == dest)
            if role == "truth":
                # the observations count each entry once, by its group and store
                entered = position >= (0 if cfg.count_spawn_as_inflow else 1)
                expected = np.zeros((sim.group_count, s), dtype=np.int64)
                np.add.at(expected, (group[entered], store[entered]), 1)
                obs = read(d / "obs_counts_attr.csv")
                found = np.zeros_like(expected)
                np.add.at(found, (obs[:, 1], obs[:, 2]), obs[:, 3])
                assert np.array_equal(found, expected)
            if role in CASE3_ROLES:
                assignments = read(d / "assigned_sequences.csv")
                assert np.array_equal(np.sort(assignments[:, 1]), np.arange(agent[-1] + 1))
                assert np.all((assignments[:, 2] >= 0) & (assignments[:, 2] < cfg.pool_size))
    # evaluate from the files writes the aggregate/ files the run wrote
    written = tree(out / "aggregate")
    shutil.rmtree(out / "aggregate")
    evaluate(cfg, out)
    assert tree(out / "aggregate") == written


@settings(max_examples=150, deadline=None, suppress_health_check=[HealthCheck.too_slow])
@given(raw_configs())
def test_random_config_runs_or_names_its_key(raw):
    with tempfile.TemporaryDirectory() as tmp:
        cfg = run_or_refuse(raw, Path(tmp))
        if cfg is not None:
            check_tree(cfg, Path(tmp))


@settings(max_examples=10, deadline=None, suppress_health_check=[HealthCheck.too_slow])
@given(raw_configs())
def test_random_config_tree_independent_of_jobs_and_stages(raw):
    raw = {**raw, "experiment.replicates": 2}
    with tempfile.TemporaryDirectory() as tmp:
        tmp = Path(tmp)
        assume(run_or_refuse(raw, tmp / "one") is not None)
        config = tmp / "config.json"
        config.write_text(json.dumps(raw))
        common = ["--config", str(config), "--out"]
        assert main(["experiment", *common, str(tmp / "two"), "--jobs", "2"]) == 0
        for command in ("generate-obs", "baseline", "assimilate", "evaluate"):
            assert main([command, *common, str(tmp / "staged")]) == 0
        one = tree(tmp / "one")
        assert tree(tmp / "two") == one
        assert tree(tmp / "staged") == one
