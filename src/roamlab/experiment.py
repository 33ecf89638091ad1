"""Experiment orchestration: truth -> observe -> assimilate -> evaluate.

Each replicate owns independent RNG streams derived from (base_seed,
replicate, role), so replicates can run in parallel and stages can be rerun
separately with identical results. The output tree is

    out/<role>/<replicate>/...   role in truth, baseline, case1..case3_random
    out/aggregate/...            cross-replicate means and metrics.json
    out/run_manifest.json
"""

import dataclasses
import hashlib
import os
import time
from concurrent.futures import ProcessPoolExecutor
from pathlib import Path

import numpy as np

from . import io
from .assimilation import run_assimilation, run_baseline
from .config import ConfigSchemaError, ExperimentConfig, config_hash
from .metrics import (
    aggregate_runs,
    build_od,
    decode_ngram,
    mean_ngram_table,
    ngram_table,
    top_k,
)
from .model import path_rows
from .seeds import ROLE_CODES, derive_rng
from .twin import run_truth, sample_biased_pool

NGRAM_N = 3


class MissingInputError(Exception):
    """A pipeline stage needs files an earlier stage has not produced."""


def replicate_dir(out, role: str, replicate: int) -> Path:
    return Path(out) / role / f"{replicate:03d}"


def case_labels(cfg: ExperimentConfig):
    """Assimilation runs to perform; case 3 always carries its random control."""
    labels = [f"case{c}" for c in cfg.cases if c != 3]
    if 3 in cfg.cases:
        if not cfg.assim_options.random_baseline:
            labels.append("case3")
        labels.append("case3_random")
    return labels


def run_truth_stage(cfg: ExperimentConfig, out, replicate: int):
    """Run one truth replicate and write its observation products."""
    truth = run_truth(
        cfg.truth,
        derive_rng(cfg.base_seed, replicate, "truth"),
        count_spawn_as_inflow=cfg.count_spawn_as_inflow,
    )
    try:
        pool = sample_biased_pool(
            truth.archive,
            cfg.pool_ratios,
            cfg.pool_size,
            derive_rng(cfg.base_seed, replicate, "pool"),
        )
    except ValueError as e:
        raise ConfigSchemaError(
            f"pool.ratios: {e} in replicate {replicate}; no agent of that group finished"
            f" its transitions within sim.horizon_steps={cfg.truth.horizon_steps}"
        ) from e
    d = replicate_dir(out, "truth", replicate)
    io.write_obs_counts(d / "obs_counts.csv", truth.observations)
    io.write_obs_counts_attr(d / "obs_counts_attr.csv", truth.observations)
    io.write_sequence_pool(d / "sequence_pool.csv", pool)
    io.write_od(d / "truth_od.csv", truth.od)
    io.write_paths(d / "truth_paths.csv", path_rows(truth.world))
    return truth, pool


def run_baseline_stage(cfg: ExperimentConfig, out, replicate: int):
    """Plain model run in the assimilation environment (no observations)."""
    world = run_baseline(cfg.assim, derive_rng(cfg.base_seed, replicate, "baseline"))
    d = replicate_dir(out, "baseline", replicate)
    rows = path_rows(world)
    io.write_od(d / "baseline_od.csv", build_od(rows, cfg.assim.store_count))
    io.write_paths(d / "baseline_paths.csv", rows)
    return world


def load_truth_products(cfg: ExperimentConfig, out, replicate: int, need_pool: bool):
    """Read one replicate's observations, and its sequence pool if asked, from disk.

    Products that do not fit cfg (another horizon, store, group or transition
    count than the run that wrote them) raise MalformedTableError.
    """
    sim = cfg.assim
    d = replicate_dir(out, "truth", replicate)
    counts, attr = d / "obs_counts.csv", d / "obs_counts_attr.csv"
    if not counts.exists() or not attr.exists():
        raise MissingInputError(
            f"missing observation products under {d}; run generate-obs first"
        )
    observations = io.read_observations(counts, attr)
    shape = (sim.horizon_steps + 1, sim.group_count, sim.store_count)
    if observations.shape != shape:
        raise io.MalformedTableError(
            f"{attr}: holds (steps, attrs, stores) {observations.shape},"
            f" the config needs {shape}"
        )
    pool = None
    if need_pool:
        pool_path = d / "sequence_pool.csv"
        if not pool_path.exists():
            raise MissingInputError(f"missing {pool_path}; run generate-obs first")
        pool = io.read_sequence_pool(pool_path)
        if pool.size == 0 or pool.paths.shape[1] != sim.max_transitions + 1:
            raise io.MalformedTableError(
                f"{pool_path}: holds {pool.size} paths of {pool.paths.shape[1]} stores,"
                f" the config needs paths of {sim.max_transitions + 1}"
            )
        if not (np.all((pool.paths >= 0) & (pool.paths < sim.store_count))
                and np.all((pool.attrs >= 0) & (pool.attrs < sim.group_count))):
            raise io.MalformedTableError(
                f"{pool_path}: a store outside 0..{sim.store_count - 1}"
                f" or an attr outside 0..{sim.group_count - 1}"
            )
    return observations, pool


def run_case_stage(cfg: ExperimentConfig, out, replicate: int, label: str, observations, pool):
    """Run one assimilation variant on the given truth products (pool: case 3 only)."""
    case = 3 if label.startswith("case3") else int(label[-1])
    run = run_assimilation(
        cfg.assim,
        observations,
        case,
        pool=pool,
        rng=derive_rng(cfg.base_seed, replicate, label),
        options=dataclasses.replace(cfg.assim_options, random_baseline=label == "case3_random"),
    )
    d = replicate_dir(out, label, replicate)
    rows = path_rows(run.world)
    io.write_od(d / "assim_od.csv", build_od(rows, cfg.assim.store_count))
    io.write_paths(d / "assim_paths.csv", rows)
    if case == 3:
        io.write_assignments(d / "assigned_sequences.csv", run.assignments)
    return run


def run_replicate(cfg: ExperimentConfig, out, replicate: int):
    """Full pipeline for one replicate, chaining stages in memory."""
    truth, pool = run_truth_stage(cfg, out, replicate)
    run_baseline_stage(cfg, out, replicate)
    for label in case_labels(cfg):
        run_case_stage(cfg, out, replicate, label, truth.observations, pool)
    return replicate


def _run_replicate_job(args):
    cfg, out, replicate = args
    return run_replicate(cfg, out, replicate)


def _od_file(role: str) -> str:
    return {"truth": "truth_od.csv", "baseline": "baseline_od.csv"}.get(role, "assim_od.csv")


def _paths_file(role: str) -> str:
    return {"truth": "truth_paths.csv", "baseline": "baseline_paths.csv"}.get(
        role, "assim_paths.csv"
    )


def _present_roles(cfg: ExperimentConfig, out):
    roles = []
    for role in ["truth", "baseline"] + case_labels(cfg):
        if all(
            (replicate_dir(out, role, r) / _od_file(role)).exists()
            for r in range(cfg.replicate_count)
        ):
            roles.append(role)
    return roles


def evaluate(cfg: ExperimentConfig, out) -> dict:
    """Aggregate whatever roles have complete outputs; write aggregate/ files."""
    out = Path(out)
    roles = _present_roles(cfg, out)
    if "truth" not in roles:
        raise MissingInputError(f"no complete truth outputs under {out}")
    replicates = range(cfg.replicate_count)

    od_runs = {
        role: [io.read_od(replicate_dir(out, role, r) / _od_file(role)) for r in replicates]
        for role in roles
    }
    agg = aggregate_runs(od_runs)

    agg_dir = out / "aggregate"
    io.write_mean_od(agg_dir / "od_truth_mean.csv", agg["mean_od"]["truth"])
    if "baseline" in roles:
        io.write_mean_od(agg_dir / "od_baseline_mean.csv", agg["mean_od"]["baseline"])
    for role in roles:
        if role.startswith("case"):
            io.write_mean_od(agg_dir / role / "od_assim_mean.csv", agg["mean_od"][role])

    stores = cfg.assim.store_count
    ngram_means = {
        role: mean_ngram_table(
            ngram_table(io.read_paths(replicate_dir(out, role, r) / _paths_file(role)),
                        stores, NGRAM_N)
            for r in replicates
        )
        for role in roles
    }
    leaders = top_k(ngram_means["truth"], 20)
    baseline = ngram_means.get("baseline")
    for role in roles:
        if not role.startswith("case"):
            continue
        rows = [
            (rank, decode_ngram(code, stores, NGRAM_N), ft, ngram_means[role][code],
             0.0 if baseline is None else baseline[code])
            for rank, (code, ft) in enumerate(leaders, start=1)
        ]
        io.write_ngram_top(agg_dir / role / "ngram_top20.csv", rows, NGRAM_N)

    payload = {
        "replicates": cfg.replicate_count,
        "config_hash": config_hash(cfg),
        "discrepancy": {
            role: stats for role, stats in sorted(agg["labels"].items())
        },
    }

    bias = _assignment_bias(cfg, out, roles)
    if bias:
        payload["case3_assignment_bias"] = bias
    io.write_json(agg_dir / "metrics.json", payload)
    return payload


def _assignment_bias(cfg: ExperimentConfig, out, roles):
    """L1 distance of assigned-sequence attribute shares from the quota shares."""
    target = np.array(cfg.truth.group_quotas, dtype=float)
    target /= target.sum()
    result = {"target_composition": target.tolist()}
    for role, key in (("case3", "weighted"), ("case3_random", "random")):
        if role not in roles:
            continue
        per_run = []
        for r in range(cfg.replicate_count):
            path = replicate_dir(out, role, r) / "assigned_sequences.csv"
            if not path.exists():
                raise MissingInputError(f"missing {path}; run assimilate first")
            attrs = io.read_assignments(path)[:, 3]
            if len(attrs) == 0:
                raise io.MalformedTableError(f"{path}: no assignment rows")
            if attrs.min() < 0 or attrs.max() >= len(target):
                raise io.MalformedTableError(f"{path}: attr outside 0..{len(target) - 1}")
            counts = np.bincount(attrs, minlength=len(target))
            share = counts / counts.sum()
            per_run.append(float(np.abs(share - target).sum()))
        result[f"{key}_l1_per_run"] = per_run
        result[f"{key}_l1_mean"] = float(np.mean(per_run))
    return result if len(result) > 1 else None


def _checksums(out: Path) -> dict:
    sums = {}
    for p in sorted(out.rglob("*")):
        if p.is_file() and p.name != "run_manifest.json":
            sums[p.relative_to(out).as_posix()] = hashlib.sha256(p.read_bytes()).hexdigest()
    return sums


def write_manifest(cfg: ExperimentConfig, out, wall_time_s: float):
    out = Path(out)
    payload = {
        "config": cfg.resolved,
        "config_hash": config_hash(cfg),
        "seed_derivation": {"base_seed": cfg.base_seed, "role_codes": ROLE_CODES},
        "checksums": _checksums(out),
        "wall_time_s": wall_time_s,
    }
    io.write_json(out / "run_manifest.json", payload)
    return payload


def run_experiment(cfg: ExperimentConfig, out) -> dict:
    """The full pipeline over all replicates, then aggregation and manifest."""
    t0 = time.perf_counter()
    out = Path(out)
    out.mkdir(parents=True, exist_ok=True)
    jobs = cfg.jobs or os.cpu_count() or 1
    jobs = min(jobs, cfg.replicate_count)
    work = [(cfg, out, r) for r in range(cfg.replicate_count)]
    if jobs > 1:
        with ProcessPoolExecutor(max_workers=jobs) as pool:
            list(pool.map(_run_replicate_job, work))
    else:
        for item in work:
            _run_replicate_job(item)
    summary = evaluate(cfg, out)
    write_manifest(cfg, out, wall_time_s=time.perf_counter() - t0)
    return summary
