"""Truth runs and the pseudo-observation products they emit.

A truth world (group-specific attractiveness) is stepped to the horizon with
the plain choice model. Every store entry (a move arrival, and by default a
spawn placement) is logged; per-step inflow counts, attribute-tagged inflow
counts, and a biased sample of completed transition sequences are derived
from that log.
"""

from dataclasses import dataclass

import numpy as np

from .metrics import build_od
from .model import (
    ChoiceModel,
    SimConfig,
    WorldState,
    completed_paths,
    init_world,
    model_mover,
    path_rows,
    step_world,
    uniform_placer,
)
from .numerics import categorical


@dataclass
class ObservationRecord:
    """Per-step store inflow counts, total and split by agent attribute."""

    step: int
    inflow: np.ndarray          # (S,) ints
    inflow_by_attr: np.ndarray  # (G, S) ints

    def validate(self):
        if not np.array_equal(self.inflow, self.inflow_by_attr.sum(axis=0)):
            raise ValueError(f"inflow marginalization broken at step {self.step}")
        return self


@dataclass
class SequencePool:
    """A biased sample of completed paths, the particle set for sequence runs."""

    paths: np.ndarray           # (P, L) store indices
    attrs: np.ndarray           # (P,) group of each sampled path

    @property
    def size(self) -> int:
        return len(self.attrs)


MOVE, SPAWN = 0, 1  # entry kinds in TruthRun.events


@dataclass
class TruthRun:
    world: WorldState
    observations: list          # ObservationRecord per step 0..horizon
    events: np.ndarray          # (E, 5) rows (step, agent_id, group, store, kind)
    archive: tuple              # (groups, paths) of agents that finished roaming
    od: np.ndarray              # origin x destination transition counts, all agents


def _record_step(world, store_count, group_count, count_spawn_as_inflow):
    """The step's observation record and its entry events, moves first."""
    report = world.last_report
    events = np.concatenate([
        np.column_stack([np.full(len(ids), report.step), ids, groups, stores,
                         np.full(len(ids), kind)])
        for kind, (ids, groups, stores) in ((MOVE, report.moves), (SPAWN, report.spawns))
    ])
    counted = events if count_spawn_as_inflow else events[events[:, 4] == MOVE]
    inflow_attr = np.bincount(
        counted[:, 2] * store_count + counted[:, 3], minlength=group_count * store_count
    ).reshape(group_count, store_count)
    record = ObservationRecord(
        step=report.step, inflow=inflow_attr.sum(axis=0), inflow_by_attr=inflow_attr
    )
    return record, events


def run_truth(
    cfg: SimConfig,
    rng: np.random.Generator,
    count_spawn_as_inflow: bool = True,
) -> TruthRun:
    """Step the truth world to the horizon and log every store entry.

    Observation records are indexed by step (step 0 holds the initial spawn
    entries). Completed agents' paths are available from the returned world.
    """
    choice = ChoiceModel(cfg.graph(), cfg.behavior, cfg.allow_self_transition)
    mover = model_mover(choice)
    world = init_world(cfg, uniform_placer, rng)
    records = [_record_step(world, cfg.store_count, cfg.group_count, count_spawn_as_inflow)]
    for _ in range(cfg.horizon_steps):
        step_world(world, cfg, mover, uniform_placer, rng)
        records.append(
            _record_step(world, cfg.store_count, cfg.group_count, count_spawn_as_inflow)
        )
    observations, events = zip(*records)
    return TruthRun(
        world=world,
        observations=list(observations),
        events=np.concatenate(events),
        archive=completed_paths(world),
        od=build_od(path_rows(world), cfg.store_count),
    )


def sample_biased_pool(
    archive,
    ratios,
    pool_size: int,
    rng: np.random.Generator,
) -> SequencePool:
    """Draw a pool of completed paths with a biased group composition.

    archive: (groups, paths) arrays of completed agents. Each pool entry draws
    its group from `ratios`, then a uniform path of that group; draws are
    without replacement within a group until it is exhausted, then with
    replacement.
    """
    ratios = np.asarray(ratios, dtype=float)
    if abs(ratios.sum() - 1.0) > 1e-9 or np.any(ratios < 0):
        raise ValueError("sampling ratios must be non-negative and sum to 1")
    archive_groups, archive_paths = (np.asarray(a) for a in archive)
    members = [np.flatnonzero(archive_groups == g) for g in range(len(ratios))]
    for g, r in enumerate(ratios):
        if r > 0 and len(members[g]) == 0:
            raise ValueError(f"group {g} has ratio {r} but no archived paths")

    groups = categorical(rng, ratios, size=pool_size)
    entries = np.empty(pool_size, dtype=np.int64)
    for g, of_group in enumerate(members):
        slots = np.flatnonzero(groups == g)
        if len(slots) == 0:
            continue
        # a uniform ordered sample without replacement, then uniform with it
        fresh = min(len(slots), len(of_group))
        entries[slots[:fresh]] = rng.permutation(of_group)[:fresh]
        entries[slots[fresh:]] = of_group[rng.integers(len(of_group), size=len(slots) - fresh)]
    return SequencePool(
        paths=archive_paths[entries].astype(np.int64),
        attrs=groups.astype(np.int64),
    )


def rebuild_observations(events, horizon_steps, store_count, group_count,
                         count_spawn_as_inflow: bool = True):
    """Reconstruct the observation trajectory from the raw entry-event log.

    A plain loop over the events: the reference that the per-step counts of
    run_truth are checked against.
    """
    attr = np.zeros((horizon_steps + 1, group_count, store_count), dtype=np.int64)
    for step, _agent_id, group, store, kind in np.asarray(events).tolist():
        if kind == SPAWN and not count_spawn_as_inflow:
            continue
        attr[step, group, store] += 1
    return [
        ObservationRecord(step=t, inflow=attr[t].sum(axis=0), inflow_by_attr=attr[t])
        for t in range(horizon_steps + 1)
    ]
