"""Acceptance criteria for the whole artifact, one test per criterion.

Criteria 1, 2, 6, and 9 run against a single full-scale experiment (default
config: 18 stores, 2000 agents, 200 steps, 30 replicates, all cases) executed
once per session. Each test prints its own pass/fail line.
"""

import json

import numpy as np
import pytest
from scipy import stats

from roamlab import io
from roamlab.assimilation import filtered_moves, store_weights
from roamlab.cli import EXIT_OK, main
from roamlab.config import resolve_config
from roamlab.experiment import replicate_dir, run_experiment
from roamlab.metrics import build_od, decode_ngram, discrepancy, ngram_table
from roamlab.model import ChoiceModel, store_utilities
from roamlab.numerics import log_normalize_rows

from conftest import (
    TINY_OVERRIDES, FixedCounts, choice_row, make_agent, make_graph, make_world, path_rows,
)


def check(criterion: int, ok: bool, description: str):
    print(f"ACCEPTANCE {criterion} {'PASS' if ok else 'FAIL'}: {description}")
    assert ok, f"criterion {criterion} failed: {description}"


@pytest.fixture(scope="session")
def default_experiment(tmp_path_factory):
    out = tmp_path_factory.mktemp("acceptance_full")
    cfg = resolve_config({}, {})
    summary = run_experiment(cfg, out)
    return cfg, out, summary


def test_criterion_1_case3_ordering(default_experiment):
    _, _, summary = default_experiment
    d = summary["discrepancy"]
    assimilated = d["case3"]["discrepancy_mean"]
    control = d["case3_random"]["discrepancy_mean"]
    ratio = assimilated / control
    check(
        1,
        assimilated < control and ratio <= 0.85,
        f"case3 mean discrepancy {assimilated:.1f} < random-assignment "
        f"{control:.1f}, ratio {ratio:.3f} <= 0.85",
    )


def test_criterion_2_attribute_information_helps(default_experiment):
    _, _, summary = default_experiment
    d = summary["discrepancy"]
    c1 = d["case1"]["discrepancy_mean"]
    c2 = d["case2"]["discrepancy_mean"]
    check(2, c2 < c1, f"case2 mean discrepancy {c2:.1f} < case1 {c1:.1f}")


def test_criterion_3_resampling_oracle():
    # Three candidates, one at each store: the pick follows the weights.
    w = np.array([0.5, 0.3, 0.2])
    rng = FixedCounts([1, 1, 1], seed=31)
    n = 100_000
    picks = filtered_moves(rng, np.full((n, 3), 1 / 3), np.log(w), 3)
    counts = np.bincount(picks, minlength=3)
    sigma = np.sqrt(n * w * (1 - w))
    within = np.all(np.abs(counts - n * w) <= 3 * sigma)
    p = stats.chisquare(counts, f_exp=n * w).pvalue
    check(
        3,
        bool(within) and p > 0.001,
        f"10^5 draws from [0.5,0.3,0.2]: counts {counts.tolist()} within 3 sigma, "
        f"chi-square p={p:.3f} > 0.001",
    )


def test_criterion_4_softmax_properties():
    rng = np.random.default_rng(41)
    worst_sum = 0.0
    worst_shift = 0.0
    for _ in range(1000):
        s = int(rng.integers(2, 24))
        a = rng.uniform(0.1, 20.0, size=(1, s))
        d = rng.uniform(0.0, 5.0, size=(s, s))
        d = (d + d.T) / 2
        np.fill_diagonal(d, 0.0)
        params = dict(
            omega=float(rng.uniform(-1, 1)),
            k=float(rng.uniform(-2, 2)),
            lam=float(rng.uniform(0, 8)),
        )
        congestion = rng.integers(0, 50, size=s)
        graph = make_graph(a, d, **params)

        p = choice_row(ChoiceModel(graph), 0, int(rng.integers(s)), congestion)
        worst_sum = max(worst_sum, abs(p.sum() - 1.0))

        u = store_utilities(graph, congestion.astype(float))[0]
        c = float(rng.uniform(-50, 50))
        worst_shift = max(
            worst_shift, float(np.max(np.abs(log_normalize_rows(u + c) - log_normalize_rows(u))))
        )

    sym_graph = make_graph([[5.0] * 18])
    p = choice_row(ChoiceModel(sym_graph), 0, 4, np.full(18, 7))
    candidates = p[np.arange(18) != 4]
    exact_uniform = bool(np.all(candidates == candidates[0]))

    check(
        4,
        worst_sum <= 1e-9 and worst_shift <= 1e-12 and exact_uniform,
        f"1000 random configs: max |sum-1|={worst_sum:.2e} <= 1e-9, "
        f"max log-domain shift error={worst_shift:.2e} <= 1e-12, "
        f"symmetric case exactly uniform={exact_uniform}",
    )


def test_criterion_5_uniform_likelihood_is_noop():
    graph = make_graph([[5.0, 5.0, 5.0]])
    choice = ChoiceModel(graph)
    world = make_world([make_agent(store=0)], store_count=3)
    world.congestion[0] = [4, 2, 1]
    expected = choice_row(choice, 0, 0, world.congestion[0])

    log_w = store_weights(np.array([[[0, 0, 0]], [[3, 3, 3]]]))[1]

    rng = np.random.default_rng(51)
    n, chunk = 100_000, 10_000  # one batched move of `chunk` copies of the agent at a time
    probs = np.tile(expected, (chunk, 1))
    draws = np.concatenate([filtered_moves(rng, probs, log_w[0], 100) for _ in range(n // chunk)])
    counts = np.bincount(draws, minlength=3)
    cand = expected > 0
    p = stats.chisquare(counts[cand], f_exp=n * expected[cand]).pvalue
    check(
        5,
        counts[0] == 0 and p > 0.001,
        f"case-1 machinery under flat inflows matches the plain kernel: "
        f"counts {counts.tolist()}, chi-square p={p:.3f} > 0.001",
    )


def test_criterion_6_lifecycle_accounting(default_experiment):
    cfg, out, _ = default_experiment
    roles = ["truth", "baseline", "case1", "case2", "case3", "case3_random"]
    paths_file = {
        "truth": "truth_paths.csv",
        "baseline": "baseline_paths.csv",
    }
    spawn_ok = group_ok = length_ok = marginal_ok = True
    for r in range(cfg.replicate_count):
        for role in roles:
            fname = paths_file.get(role, "assim_paths.csv")
            rows = io.read_paths(replicate_dir(out, role, r) / fname,
                                 cfg.assim.store_count, cfg.assim.group_count)
            starts = rows[rows[:, 2] == 0]  # one row per agent: its first store
            if len(starts) != 2000:
                spawn_ok = False
            groups = np.bincount(starts[:, 1], minlength=4)
            if not np.all(groups == 500):
                group_ok = False
            if rows[:, 2].max() > 3:  # positions 0..3: at most 4 stores
                length_ok = False
        # the totals file against the per-store sums of the attribute file,
        # both read as plain tables
        d = replicate_dir(out, "truth", r)
        totals, by_attr = (
            np.loadtxt(d / name, dtype=np.int64, delimiter=",", skiprows=1, ndmin=2)
            for name in ("obs_counts.csv", "obs_counts_attr.csv")
        )
        summed = np.zeros((cfg.truth.horizon_steps + 1, cfg.truth.store_count), dtype=np.int64)
        np.add.at(summed, (by_attr[:, 0], by_attr[:, 2]), by_attr[:, 3])
        placed = np.zeros_like(summed)
        placed[totals[:, 0], totals[:, 1]] = totals[:, 2]
        if len(totals) != summed.size or not np.array_equal(placed, summed):
            marginal_ok = False
    check(
        6,
        spawn_ok and group_ok and length_ok and marginal_ok,
        f"all runs spawn exactly 2000 agents ({spawn_ok}), 500 per group ({group_ok}), "
        f"paths <= 4 stores ({length_ok}), inflow marginalization at every step "
        f"of every replicate ({marginal_ok})",
    )


def test_criterion_7_metric_unit_oracles():
    six = discrepancy([[1, 2], [3, 4]], [[0, 2], [5, 1]])
    a = np.array([[3, 1], [0, 9]])
    zero = discrepancy(a, a)
    table = ngram_table(path_rows([(0, 0, (0, 1, 2, 3))]), 4, 3)
    grams = {decode_ngram(c, 4, 3): int(table[c]) for c in np.flatnonzero(table)}
    od = build_od(path_rows([(0, 0, (0, 1, 2, 3))]), 4)
    check(
        7,
        six == 6.0 and zero == 0.0
        and grams == {(0, 1, 2): 1, (1, 2, 3): 1}
        and od.sum() == 3,
        f"discrepancy oracle={six}, self-discrepancy={zero}, "
        f"3-grams of [0,1,2,3]={grams}",
    )


def test_criterion_8_byte_identical_reruns(tmp_path):
    cfg_file = tmp_path / "cfg.json"
    cfg_file.write_text(json.dumps(TINY_OVERRIDES))
    outs = [tmp_path / "run_a", tmp_path / "run_b"]
    for out in outs:
        rc = main(
            ["experiment", "--config", str(cfg_file), "--out", str(out), "--jobs", "2"]
        )
        assert rc == EXIT_OK

    files_a = {p.relative_to(outs[0]).as_posix() for p in outs[0].rglob("*") if p.is_file()}
    files_b = {p.relative_to(outs[1]).as_posix() for p in outs[1].rglob("*") if p.is_file()}
    same_tree = files_a == files_b
    diverging = [
        rel
        for rel in sorted(files_a & files_b)
        if rel != "run_manifest.json"
        and (outs[0] / rel).read_bytes() != (outs[1] / rel).read_bytes()
    ]
    manifests = [json.loads((out / "run_manifest.json").read_text()) for out in outs]
    for m in manifests:
        m.pop("wall_time_s")
    check(
        8,
        same_tree and not diverging and manifests[0] == manifests[1],
        f"two experiment invocations: identical tree={same_tree}, "
        f"diverging files={diverging}, manifests equal besides wall time",
    )


def test_criterion_9_bias_correction(default_experiment):
    _, _, summary = default_experiment
    bias = summary["case3_assignment_bias"]
    weighted = bias["weighted_l1_mean"]
    random = bias["random_l1_mean"]
    check(
        9,
        weighted < random,
        f"assigned-sequence composition L1 to [0.25 x4]: likelihood {weighted:.4f} "
        f"< random {random:.4f} (mean over 30 replicates)",
    )
