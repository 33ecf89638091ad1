"""Experiment orchestration: truth -> observe -> assimilate -> evaluate.

Each replicate owns independent RNG streams derived from (base_seed,
replicate, role), so replicates can run in parallel and stages can be rerun
separately with identical results. The output tree is

    out/<role>/<replicate>/...   role in truth, baseline, case1..case3_random
    out/aggregate/...            cross-replicate means and metrics.json
    out/run_manifest.json
"""

import hashlib
import os
import time
from itertools import repeat
from pathlib import Path

import numpy as np

from . import io
from .assimilation import FAMILIES, run_assimilation, run_baseline
from .config import ConfigSchemaError, ExperimentConfig, config_hash
from .metrics import aggregate_runs, build_od, decode_ngram, ngram_table, top_k
from .model import completed_paths, path_rows
from .seeds import ROLE_CODES, derive_rng
from .twin import run_truth, sample_biased_pool

NGRAM_N = 3
CASE3_ROLES = FAMILIES[1]  # the roles that write assigned_sequences.csv
# The most 8-byte array cells (world_cells) that the worlds of one lockstep
# stack hold between them: 2^20 cells, 8 MiB, 12 default worlds or 73 of the
# test suite's tiny ones. See README.md for the measurement behind it.
LOCKSTEP_CELLS = 1 << 20


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


def world_cells(cfg: ExperimentConfig) -> int:
    """The 8-byte array cells one world holds while it steps: its agents'
    paths and entry steps, a choice row per agent, its replicate's (T+1, G,
    S) observations and its own store weights, and with case 3 its pool's
    paths."""
    sim = cfg.assim
    pool = cfg.pool_size * (sim.max_transitions + 1) if 3 in cfg.cases else 0
    return (sim.total_agents * (2 * (sim.max_transitions + 1) + sim.store_count)
            + 2 * (sim.horizon_steps + 1) * sim.group_count * sim.store_count + pool)


def paired(cfg: ExperimentConfig) -> bool:
    """Whether the two roles of a policy family step in one stack: only if
    two worlds fit LOCKSTEP_CELLS, so that a config whose one world fits
    steps one world at a time."""
    return 2 * world_cells(cfg) <= LOCKSTEP_CELLS


def chunks(cfg: ExperimentConfig, jobs: int = 1):
    """The replicates in consecutive chunks, each one pool task or stage call:
    at least `jobs` chunks, and few enough replicates in each that the two
    roles of a policy family fit one stack (LOCKSTEP_CELLS); one replicate
    each if they do not. Raises ConfigSchemaError if the replicate numbers
    are too many to allocate."""
    size = max(1, LOCKSTEP_CELLS // (2 * world_cells(cfg)))
    count = max(jobs, -(-cfg.replicate_count // size))
    try:  # numpy refuses an array past the address space with ValueError
        replicates = np.arange(cfg.replicate_count)
    except (MemoryError, ValueError) as e:
        raise ConfigSchemaError(f"experiment.replicates: {cfg.replicate_count} replicates"
                                f" are too many to allocate: {e}") from e
    return [c.tolist() for c in np.array_split(replicates, count) if len(c)]


def families(cfg: ExperimentConfig):
    """The case labels grouped by policy family, each group stepped in one
    stack; each label on its own unless the family's roles are paired."""
    labels = case_labels(cfg)
    groups = [[label for label in family if label in labels] for family in FAMILIES]
    if not paired(cfg):
        groups = [[label] for group in groups for label in group]
    return [group for group in groups if group]


def _rngs(cfg: ExperimentConfig, role: str, replicates):
    return [derive_rng(cfg.base_seed, r, role) for r in replicates]


def run_truth_stage(cfg: ExperimentConfig, out, replicates, baseline: bool = False):
    """Run the truth worlds of the replicates in lockstep and write their
    observation products, the sequence pool only when case 3 runs; return
    each replicate's (observations, pool or None, the truth world's
    _summary).

    With baseline, each replicate's baseline world steps beside its truth
    world (assimilation.run_baseline with truth) and is written too; its
    _summary ends the replicate's tuple.
    """
    truth = (cfg.truth, _rngs(cfg, "truth", replicates), cfg.count_spawn_as_inflow)
    if baseline:
        worlds, observations = run_baseline(cfg.assim, _rngs(cfg, "baseline", replicates), truth)
    else:
        worlds, observations = run_truth(*truth)
    products = []
    for k, r in enumerate(replicates):
        world = worlds[k]
        pool = None
        if 3 in cfg.cases:
            try:
                pool = sample_biased_pool(
                    completed_paths(world),
                    cfg.pool_ratios,
                    cfg.pool_size,
                    derive_rng(cfg.base_seed, r, "pool"),
                )
            except ValueError as e:
                raise ConfigSchemaError(
                    f"pool.ratios: {e} in replicate {r}; no agent of that group finished"
                    f" its transitions within sim.horizon_steps={cfg.truth.horizon_steps}"
                ) from e
        d = replicate_dir(out, "truth", r)
        io.write_obs_counts(d / "obs_counts.csv", observations[k])
        io.write_obs_counts_attr(d / "obs_counts_attr.csv", observations[k])
        if pool is None:  # no pool of an earlier truth run may pass for this one's
            (d / "sequence_pool.csv").unlink(missing_ok=True)
        else:
            io.write_sequence_pool(d / "sequence_pool.csv", pool)
        product = (observations[k], pool, _write_world(cfg, out, "truth", r, world))
        if baseline:
            product += (_write_world(cfg, out, "baseline", r, worlds[len(replicates) + k]),)
        products.append(product)
    return products


def run_baseline_stage(cfg: ExperimentConfig, out, replicates):
    """Plain model runs in the assimilation environment (no observations),
    the replicates' worlds in lockstep; return the _summary of each."""
    worlds = run_baseline(cfg.assim, _rngs(cfg, "baseline", replicates))
    return [_write_world(cfg, out, "baseline", r, w) for r, w in zip(replicates, worlds)]


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
    return observations, _read_pool(cfg, out, replicate) if 3 in cfg.cases else None


def _read_pool(cfg: ExperimentConfig, out, replicate: int):
    """One replicate's sequence pool, which must hold pool.size entries."""
    sim, path = cfg.assim, replicate_dir(out, "truth", replicate) / "sequence_pool.csv"
    if not path.exists():
        raise MissingInputError(
            f"missing {path}; run generate-obs with 3 in experiment.cases first"
        )
    pool = io.read_sequence_pool(path, sim.max_transitions + 1, sim.store_count, sim.group_count)
    if pool.size != cfg.pool_size:
        raise io.MalformedTableError(f"{path}: {pool.size} entries, not {cfg.pool_size}")
    return pool


def _check_assignments(cfg: ExperimentConfig, path, assignments, rows, pool):
    """Refuse case-3 assignment rows that the replicate's pool and the
    role's path rows do not bear out: each entry_id must be a pool entry,
    each step one of 0..horizon, each attr its entry's, and each agent's path
    a prefix of its entry's path."""
    step, _, entry, attr = assignments.T
    if entry.min() < 0 or entry.max() >= pool.size:
        raise io.MalformedTableError(f"{path}: an entry_id is outside 0..{pool.size - 1}")
    horizon = cfg.assim.horizon_steps
    if step.min() < 0 or step.max() > horizon:
        raise io.MalformedTableError(f"{path}: a step is outside 0..{horizon}")
    if not np.array_equal(attr, pool.attrs[entry]):
        raise io.MalformedTableError(f"{path}: an attr is not its entry's")
    agent, position, store = rows[:, 0], rows[:, 2], rows[:, 3]
    if agent.max() >= len(entry) or position.max() >= pool.paths.shape[1] or not np.array_equal(
            pool.paths[entry[agent], position], store):
        raise io.MalformedTableError(f"{path}: an agent's path is not a prefix of its entry's")


def run_case_stage(cfg: ExperimentConfig, out, replicates, labels, observations, pools):
    """Run assimilation roles of one policy family on the replicates' truth
    products, each replicate's observations and pool (case 3 only), every
    (label, replicate) world in lockstep; return each replicate's dict
    label -> _summary."""
    worlds = [(lab, k) for lab in labels for k in range(len(replicates))]
    runs, assignments = run_assimilation(
        cfg.assim,
        [observations[k] for _, k in worlds],
        [lab for lab, _ in worlds],
        pool=[pools[k] for _, k in worlds],
        rng=[derive_rng(cfg.base_seed, replicates[k], lab) for lab, k in worlds],
        options=cfg.assim_options,
    )
    summaries = [{} for _ in replicates]
    for (lab, k), world, rows in zip(worlds, runs, assignments):
        summaries[k][lab] = _write_world(cfg, out, lab, replicates[k], world, rows)
    return summaries


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


def run_replicate(cfg: ExperimentConfig, out, replicates) -> list:
    """Full pipeline for a chunk of replicates, chaining stages in memory;
    return each replicate's summary, role -> the _summary of what each stage
    wrote.

    The worlds of each policy family step in one stack over the chunk: truth
    with baseline, case 1 with case 2, and case 3 with its random control;
    or each role on its own, if the roles are not paired.
    """
    pair = paired(cfg)
    products = run_truth_stage(cfg, out, replicates, baseline=pair)
    baselines = [p[3] for p in products] if pair else run_baseline_stage(cfg, out, replicates)
    summaries = [{"truth": p[2], "baseline": b} for p, b in zip(products, baselines)]
    observations, pools = [p[0] for p in products], [p[1] for p in products]
    for family in families(cfg):
        for summary, cases in zip(summaries, run_case_stage(cfg, out, replicates, family,
                                                              observations, pools)):
            summary.update(cases)
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
    sim, summary, pool = cfg.assim, {}, None
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
            pool = pool or _read_pool(cfg, out, replicate)
            _check_assignments(cfg, path, assignments, rows, pool)
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
    # the CPUs this process may run on, where the platform can tell
    cpus = len(os.sched_getaffinity(0)) if hasattr(os, "sched_getaffinity") else os.cpu_count()
    jobs = min(cfg.jobs or cpus or 1, cfg.replicate_count)
    args = repeat(cfg), repeat(out), chunks(cfg, jobs)
    out.mkdir(parents=True, exist_ok=True)
    summaries = Summaries()
    if jobs > 1:
        with ProcessPoolExecutor(max_workers=jobs) as pool:
            summaries.fold(s for chunk in pool.map(run_replicate, *args) for s in chunk)
    else:
        summaries.fold(s for chunk in map(run_replicate, *args) for s in chunk)
    summary = evaluate(cfg, out, summaries)
    write_manifest(cfg, out, wall_time_s=time.perf_counter() - t0)
    return summary
