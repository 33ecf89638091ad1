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


@dataclass
class TruthRun:
    world: WorldState
    observations: list          # ObservationRecord per step 0..horizon
    events: list                # (step, agent_id, group, store, kind)
    archive: list               # (group, path) of agents that finished roaming
    od: np.ndarray              # origin x destination transition counts, all agents


def _record_step(world, store_count, group_count, events, count_spawn_as_inflow):
    report = world.last_report
    inflow_attr = np.zeros((group_count, store_count), dtype=np.int64)
    for agent_id, group, store in report.move_entries:
        inflow_attr[group, store] += 1
        events.append((report.step, agent_id, group, store, "move"))
    for agent_id, group, store in report.spawn_entries:
        events.append((report.step, agent_id, group, store, "spawn"))
        if count_spawn_as_inflow:
            inflow_attr[group, store] += 1
    return ObservationRecord(
        step=report.step,
        inflow=inflow_attr.sum(axis=0),
        inflow_by_attr=inflow_attr,
    )


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
    events: list = []
    world = init_world(cfg, uniform_placer, rng)
    observations = [
        _record_step(world, cfg.store_count, cfg.group_count, events, count_spawn_as_inflow)
    ]
    for _ in range(cfg.horizon_steps):
        step_world(world, cfg, mover, uniform_placer, rng)
        observations.append(
            _record_step(world, cfg.store_count, cfg.group_count, events, count_spawn_as_inflow)
        )
    return TruthRun(
        world=world,
        observations=observations,
        events=events,
        archive=completed_paths(world, cfg),
        od=build_od([a.path for a in world.agents], cfg.store_count),
    )


def sample_biased_pool(
    archive,
    ratios,
    pool_size: int,
    rng: np.random.Generator,
) -> SequencePool:
    """Draw a pool of completed paths with a biased group composition.

    archive: (group, path) pairs of completed agents. Each pool entry draws
    its group from `ratios`, then a uniform path of that group; draws are
    without replacement within a group until it is exhausted, then with
    replacement.
    """
    ratios = np.asarray(ratios, dtype=float)
    if abs(ratios.sum() - 1.0) > 1e-9 or np.any(ratios < 0):
        raise ValueError("sampling ratios must be non-negative and sum to 1")
    by_group: dict[int, list] = {g: [] for g in range(len(ratios))}
    for group, path in archive:
        by_group.setdefault(group, []).append(tuple(path))
    for g, r in enumerate(ratios):
        if r > 0 and not by_group[g]:
            raise ValueError(f"group {g} has ratio {r} but no archived paths")

    remaining = {g: list(paths) for g, paths in by_group.items()}
    groups = categorical(rng, ratios, size=pool_size)
    paths, attrs = [], []
    for g in groups:
        g = int(g)
        if remaining[g]:
            i = int(rng.integers(len(remaining[g])))
            paths.append(remaining[g].pop(i))
        else:
            i = int(rng.integers(len(by_group[g])))
            paths.append(by_group[g][i])
        attrs.append(g)
    return SequencePool(
        paths=np.array(paths, dtype=np.int64),
        attrs=np.array(attrs, dtype=np.int64),
    )


def rebuild_observations(events, horizon_steps, store_count, group_count,
                         count_spawn_as_inflow: bool = True):
    """Reconstruct the observation trajectory from the raw entry-event log."""
    attr = np.zeros((horizon_steps + 1, group_count, store_count), dtype=np.int64)
    for step, _agent_id, group, store, kind in events:
        if kind == "spawn" and not count_spawn_as_inflow:
            continue
        attr[step, group, store] += 1
    return [
        ObservationRecord(step=t, inflow=attr[t].sum(axis=0), inflow_by_attr=attr[t])
        for t in range(horizon_steps + 1)
    ]
