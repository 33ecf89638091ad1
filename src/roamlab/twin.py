"""Truth runs and the pseudo-observation products they emit.

A truth world (group-specific attractiveness) is stepped to the horizon with
the plain choice model. The world keeps every agent's visited stores and the
step it entered each; the observations, one (T+1, G, S) array of inflow
counts by step, group and store, are counted off those arrays. Every move
arrival, and by default every spawn placement, is one entry. A biased sample
of completed transition sequences is drawn from the same paths. The total
inflow of a step is the per-store sum over groups, observations.sum(axis=1).
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .model import ChoiceModel, SimConfig, model_mover, run_worlds, uniform_placer
from .numerics import categorical


@dataclass
class SequencePool:
    """A biased sample of completed paths, the particle set for sequence runs."""

    paths: np.ndarray           # (P, L) store indices
    attrs: np.ndarray           # (P,) group of each sampled path

    @property
    def size(self) -> int:
        return len(self.attrs)


def run_truth(cfg: SimConfig, rngs, count_spawn_as_inflow: bool = True, beside=None):
    """Step truth worlds, one per generator, to the horizon in one lockstep
    stack (model.run_worlds) and count their store entries.

    Returns the lists (worlds, observations), observations being the (T+1,
    G, S) array of inflow counts by step, group and store of each world. They
    are indexed by entry step (step 0 holds the initial spawn entries);
    position 0 of a path, the spawn placement, is counted only with
    count_spawn_as_inflow. The OD matrix and the completed agents' paths are
    read off the world.

    beside, a (SimConfig, generators) pair of another environment of cfg's
    lifecycle, adds one plain model world per generator to the stack: both
    move by the choice model, each by its own config's rows, and place
    uniformly. Their worlds follow the truth worlds in the list returned;
    they are not counted.
    """
    rngs, others = list(rngs), [] if beside is None else list(beside[1])
    if beside is None:
        mover = model_mover(ChoiceModel(cfg))
    else:  # each world moves by its own config's rows
        tables = np.repeat([0, 1], [len(rngs), len(others)])
        mover = model_mover(ChoiceModel(cfg, beside[0]), tables)
    worlds = run_worlds(cfg, mover, uniform_placer, rngs + others)
    shape = (cfg.horizon_steps + 1, cfg.group_count, cfg.store_count)
    first = 0 if count_spawn_as_inflow else 1
    observations = []
    for world in worlds[: len(rngs)]:
        entered = world.entered[: world.agents_spawned, first:]
        agent, position = np.nonzero(entered >= 0)
        cells = np.ravel_multi_index(
            (entered[agent, position], world.group[agent], world.path[agent, position + first]),
            shape,
        )
        observations.append(np.bincount(cells, minlength=np.prod(shape)).reshape(shape))
    return worlds, observations


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

    Raises ValueError if a group with a positive ratio has no archived path,
    and ConfigSchemaError naming pool.size, the config key that sets
    pool_size, if no allocator can build a pool of that size.
    """
    ratios = np.asarray(ratios, dtype=float)
    if abs(ratios.sum() - 1.0) > 1e-9 or np.any(ratios < 0):
        raise ValueError("sampling ratios must be non-negative and sum to 1")
    archive_groups, archive_paths = (np.asarray(a) for a in archive)
    members = [np.flatnonzero(archive_groups == g) for g in range(len(ratios))]
    for g, r in enumerate(ratios):
        if r > 0 and len(members[g]) == 0:
            raise ValueError(f"group {g} has ratio {r} but no archived paths")

    try:  # numpy refuses an array past the address space with ValueError
        groups = categorical(rng, ratios, size=pool_size)
        entries = np.empty(pool_size, dtype=np.int64)
    except (MemoryError, ValueError) as e:
        from .config import ConfigSchemaError  # imported here: config imports twin
        raise ConfigSchemaError(
            f"pool.size: {pool_size} entries are too many to allocate: {e}") from e
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
