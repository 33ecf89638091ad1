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
from itertools import repeat
from pathlib import Path

import numpy as np

from . import io
from .assimilation import run_assimilation, run_baseline
from .config import ConfigSchemaError, ExperimentConfig, config_hash
from .metrics import aggregate_runs, build_od, decode_ngram, ngram_table, top_k
from .model import completed_paths, path_rows
from .seeds import ROLE_CODES, derive_rng
from .twin import run_truth, sample_biased_pool

NGRAM_N = 3
CASE3_ROLES = ("case3", "case3_random")  # the roles that write assigned_sequences.csv


class MissingInputError(FileNotFoundError):
    """A pipeline stage needs files an earlier stage has not produced."""


def replicate_dir(out, role: str, replicate: int) -> Path:
    return Path(out) / role / f"{replicate:03d}"


def case_labels(cfg: ExperimentConfig):
    """Assimilation runs to perform; case 3 always carries its random control."""
    labels = [f"case{c}" for c in cfg.cases if c != 3]
    return labels + list(CASE3_ROLES) if 3 in cfg.cases else labels


def _stem(role: str) -> str:
    """File name stem of a role's OD and paths files: truth, baseline or assim."""
    return role if role in ("truth", "baseline") else "assim"


def _summary(cfg: ExperimentConfig, rows, od, assignments=None):
    """What evaluate scores of one role's replicate, from its path rows, OD
    matrix and, for case 3, assignment rows: (OD matrix, 3-gram table, group
    counts of the assigned sequences or None)."""
    groups = (None if assignments is None
              else np.bincount(assignments[:, 3], minlength=cfg.assim.group_count))
    return od, ngram_table(rows, cfg.assim.store_count, NGRAM_N), groups


def _write_world(cfg: ExperimentConfig, out, role: str, replicate: int, world, assignments=None):
    """Write a world's <stem>_od.csv and <stem>_paths.csv, and with case-3
    assignments its assigned_sequences.csv; return the _summary of the arrays
    written, the one _read_summary reads back from those files."""
    d = replicate_dir(out, role, replicate)
    rows = path_rows(world)
    od = build_od(rows, cfg.assim.store_count)
    io.write_od(d / f"{_stem(role)}_od.csv", od)
    io.write_paths(d / f"{_stem(role)}_paths.csv", rows)
    if assignments is not None:
        io.write_assignments(d / "assigned_sequences.csv", assignments)
    return _summary(cfg, rows, od, assignments)


def run_truth_stage(cfg: ExperimentConfig, out, replicate: int):
    """Run one truth replicate and write its observation products, the
    sequence pool only when case 3 runs; return (observations, pool or None,
    the truth world's _summary)."""
    world, observations = run_truth(
        cfg.truth,
        derive_rng(cfg.base_seed, replicate, "truth"),
        count_spawn_as_inflow=cfg.count_spawn_as_inflow,
    )
    pool = None
    if 3 in cfg.cases:
        try:
            pool = sample_biased_pool(
                completed_paths(world),
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
    io.write_obs_counts(d / "obs_counts.csv", observations)
    io.write_obs_counts_attr(d / "obs_counts_attr.csv", observations)
    if pool is None:  # no pool of an earlier truth run may pass for this one's
        (d / "sequence_pool.csv").unlink(missing_ok=True)
    else:
        io.write_sequence_pool(d / "sequence_pool.csv", pool)
    return observations, pool, _write_world(cfg, out, "truth", replicate, world)


def run_baseline_stage(cfg: ExperimentConfig, out, replicate: int):
    """Plain model run in the assimilation environment (no observations);
    return its _summary."""
    world = run_baseline(cfg.assim, derive_rng(cfg.base_seed, replicate, "baseline"))
    return _write_world(cfg, out, "baseline", replicate, world)


def load_truth_products(cfg: ExperimentConfig, out, replicate: int):
    """Read one replicate's observations, and its sequence pool if case 3 runs, from disk.

    The readers take their shapes from cfg, so products that do not fit it
    (another horizon, store, group or transition count than the run that
    wrote them) raise MalformedTableError, as does a pool of another size.
    """
    sim = cfg.assim
    d = replicate_dir(out, "truth", replicate)
    counts, attr = d / "obs_counts.csv", d / "obs_counts_attr.csv"
    if not counts.exists() or not attr.exists():
        raise MissingInputError(
            f"missing observation products under {d}; run generate-obs first"
        )
    observations = io.read_observations(
        counts, attr, (sim.horizon_steps + 1, sim.group_count, sim.store_count)
    )
    pool = None
    if 3 in cfg.cases:
        pool_path = d / "sequence_pool.csv"
        if not pool_path.exists():
            raise MissingInputError(
                f"missing {pool_path}; run generate-obs with 3 in experiment.cases first"
            )
        pool = io.read_sequence_pool(
            pool_path, sim.max_transitions + 1, sim.store_count, sim.group_count
        )
        if pool.size != cfg.pool_size:
            raise io.MalformedTableError(f"{pool_path}: {pool.size} entries, not {cfg.pool_size}")
    return observations, pool


def run_case_stage(cfg: ExperimentConfig, out, replicate: int, label: str, observations, pool):
    """Run one assimilation variant on the given truth products (pool: case 3
    only); return its _summary."""
    case = 3 if label.startswith("case3") else int(label[-1])
    world, assignments = run_assimilation(
        cfg.assim,
        observations,
        case,
        pool=pool,
        rng=derive_rng(cfg.base_seed, replicate, label),
        options=dataclasses.replace(cfg.assim_options, random_baseline=label == "case3_random"),
    )
    return _write_world(cfg, out, label, replicate, world, assignments)


class Summaries:
    """Replicate summaries, each a dict role -> _summary, folded in replicate
    order: per role, every OD matrix, the running sum of the 3-gram tables and
    every group count."""

    def __init__(self):
        self.od, self.ngrams, self.groups = {}, {}, {}

    def fold(self, summaries):
        for summary in summaries:
            for role, (od, ngrams, groups) in summary.items():
                self.od.setdefault(role, []).append(od)
                self.ngrams[role] = self.ngrams.get(role, 0) + ngrams
                if groups is not None:
                    self.groups.setdefault(role, []).append(groups)
        return self


def run_replicate(cfg: ExperimentConfig, out, replicate: int) -> dict:
    """Full pipeline for one replicate, chaining stages in memory; return its
    summary, role -> the _summary of what each stage wrote."""
    observations, pool, truth = run_truth_stage(cfg, out, replicate)
    summaries = {"truth": truth, "baseline": run_baseline_stage(cfg, out, replicate)}
    for label in case_labels(cfg):
        summaries[label] = run_case_stage(cfg, out, replicate, label, observations, pool)
    return summaries


def _present_roles(cfg: ExperimentConfig, out):
    """The roles whose OD files exist for every replicate; a role with none is
    skipped, and a role with only some raises MissingInputError."""
    roles = []
    for role in ["truth", "baseline"] + case_labels(cfg):
        paths = [replicate_dir(out, role, r) / f"{_stem(role)}_od.csv"
                 for r in range(cfg.replicate_count)]
        missing = [p for p in paths if not p.exists()]
        if missing and len(missing) < len(paths):
            raise MissingInputError(f"missing {missing[0]}; {role} is only partly run")
        if not missing:
            roles.append(role)
    return roles


def _read_summary(cfg: ExperimentConfig, out, replicate: int, roles) -> dict:
    """One replicate's summary of the given roles, read back from its files,
    which must agree with each other as _write_world writes them."""
    sim, summary = cfg.assim, {}
    for role in roles:
        d = replicate_dir(out, role, replicate)
        od_path, paths_path = d / f"{_stem(role)}_od.csv", d / f"{_stem(role)}_paths.csv"
        od = io.read_od(od_path, sim.store_count)
        rows = io.read_paths(paths_path, sim.store_count, sim.group_count)
        if not np.array_equal(build_od(rows, sim.store_count), od):
            raise io.MalformedTableError(f"{paths_path}: its moves do not give {od_path}")
        assignments = None
        if role in CASE3_ROLES:
            path = d / "assigned_sequences.csv"
            if not path.exists():
                raise MissingInputError(f"missing {path}; run assimilate first")
            assignments = io.read_assignments(path, sim.group_count)
            if len(assignments) != np.count_nonzero(rows[:, 2] == 0):
                raise io.MalformedTableError(f"{path}: not one row per agent of {paths_path}")
        summary[role] = _summary(cfg, rows, od, assignments)
    return summary


def _read_summaries(cfg: ExperimentConfig, out) -> Summaries:
    """The Summaries of the roles that have run for every replicate under out.

    A role present for only some replicates, a run without truth, or a file
    that does not fit the config's shapes raises instead of being scored.
    """
    roles = _present_roles(cfg, out)
    if "truth" not in roles:
        raise MissingInputError(f"no complete truth outputs under {out}")
    return Summaries().fold(
        _read_summary(cfg, out, r, roles) for r in range(cfg.replicate_count)
    )


def evaluate(cfg: ExperimentConfig, out, summaries: Summaries | None = None) -> dict:
    """Score the replicate summaries and write the aggregate/ files.

    Without summaries, the roles that have run for every replicate are read
    back from the files under out (see _read_summaries). Truth and baseline
    get their mean OD; each case its mean OD and 3-gram table, and a case-3
    role the L1 distance of its assigned sequences' group shares from the
    quota shares.
    """
    out = Path(out)
    if summaries is None:
        summaries = _read_summaries(cfg, out)
    stores = cfg.assim.store_count
    agg = aggregate_runs(summaries.od)
    ngram_means = {role: summaries.ngrams[role] / len(runs) for role, runs in summaries.od.items()}
    leaders = top_k(ngram_means["truth"], 20)
    baseline = ngram_means.get("baseline")
    target = np.array(cfg.truth.group_quotas, dtype=float)
    target /= target.sum()
    bias = {"target_composition": target.tolist()}

    agg_dir = out / "aggregate"
    for role, mean_od in agg["mean_od"].items():
        if not role.startswith("case"):
            io.write_mean_od(agg_dir / f"od_{role}_mean.csv", mean_od)
            continue
        io.write_mean_od(agg_dir / role / "od_assim_mean.csv", mean_od)
        rows = [
            (rank, decode_ngram(code, stores, NGRAM_N), ft, ngram_means[role][code],
             0.0 if baseline is None else baseline[code])
            for rank, (code, ft) in enumerate(leaders, start=1)
        ]
        io.write_ngram_top(agg_dir / role / "ngram_top20.csv", rows, NGRAM_N)
        if role in summaries.groups:
            key = "random" if role == "case3_random" else "weighted"
            per_run = [float(np.abs(c / c.sum() - target).sum()) for c in summaries.groups[role]]
            bias[f"{key}_l1_per_run"] = per_run
            bias[f"{key}_l1_mean"] = float(np.mean(per_run))

    payload = {
        "replicates": cfg.replicate_count,
        "config_hash": config_hash(cfg),
        "discrepancy": agg["labels"],
    }
    if len(bias) > 1:
        payload["case3_assignment_bias"] = bias
    io.write_json(agg_dir / "metrics.json", payload)
    return payload


def _checksums(cfg: ExperimentConfig, out: Path) -> dict:
    """sha256 of each file this config's run writes; files an earlier run left
    under out (other cases, more replicates) are not listed."""
    labels = case_labels(cfg)
    dirs = [replicate_dir(out, role, r) for role in ["truth", "baseline", *labels]
            for r in range(cfg.replicate_count)] + [out / "aggregate" / label for label in labels]
    files = [p for d in dirs for p in d.rglob("*")] + list((out / "aggregate").glob("*"))
    sums = {}
    for p in sorted(files):
        if p.is_file():
            sums[p.relative_to(out).as_posix()] = hashlib.sha256(p.read_bytes()).hexdigest()
    return sums


def write_manifest(cfg: ExperimentConfig, out, wall_time_s: float):
    out = Path(out)
    payload = {
        "config": cfg.resolved,
        "config_hash": config_hash(cfg),
        "seed_derivation": {"base_seed": cfg.base_seed, "role_codes": ROLE_CODES},
        "checksums": _checksums(cfg, out),
        "wall_time_s": wall_time_s,
    }
    io.write_json(out / "run_manifest.json", payload)
    return payload


def ProcessPoolExecutor(*args, **kwargs):
    """concurrent.futures.ProcessPoolExecutor, imported on its first use: the
    import, multiprocessing with it, would cost every command that runs no pool."""
    from concurrent.futures import ProcessPoolExecutor as executor

    return executor(*args, **kwargs)


def run_experiment(cfg: ExperimentConfig, out) -> dict:
    """The full pipeline over all replicates, then aggregation and manifest.

    Each replicate's summary is folded in as it finishes, so evaluate scores
    the run without reading back what the replicates wrote.
    """
    t0 = time.perf_counter()
    out = Path(out)
    out.mkdir(parents=True, exist_ok=True)
    # the CPUs this process may run on, where the platform can tell
    cpus = len(os.sched_getaffinity(0)) if hasattr(os, "sched_getaffinity") else os.cpu_count()
    jobs = min(cfg.jobs or cpus or 1, cfg.replicate_count)
    args = repeat(cfg), repeat(out), range(cfg.replicate_count)
    summaries = Summaries()
    if jobs > 1:
        with ProcessPoolExecutor(max_workers=jobs) as pool:
            summaries.fold(pool.map(run_replicate, *args))
    else:
        summaries.fold(map(run_replicate, *args))
    summary = evaluate(cfg, out, summaries)
    write_manifest(cfg, out, wall_time_s=time.perf_counter() - t0)
    return summary
