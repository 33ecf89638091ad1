import os

import numpy as np
import pytest
from hypothesis import settings

from roamlab.config import resolve_config
from roamlab.model import BehaviorParams, SimConfig, StoreGraph, new_world, unit_distance

# CI runs with HYPOTHESIS_PROFILE=ci: the same examples on every run.
settings.register_profile("ci", derandomize=True)
settings.load_profile(os.environ.get("HYPOTHESIS_PROFILE", "default"))

# Overrides for a fast full pipeline: same structure, ~10x smaller.
TINY_OVERRIDES = {
    "experiment.replicates": 2,
    "sim.total_agents": 200,
    "sim.group_quotas": [50, 50, 50, 50],
    "sim.initial_agents": 40,
    "sim.replenish_threshold": 10,
    "sim.replenish_count": 10,
    "sim.horizon_steps": 60,
    "pool.size": 50,
}


@pytest.fixture
def tiny_cfg():
    return resolve_config({}, dict(TINY_OVERRIDES))



class FixedCounts(np.random.Generator):
    """A generator whose multinomial draws are the given candidate counts, one
    copy per row of pvals; every other draw is a real PCG64 draw.

    It holds the candidate counts of `assimilation.filtered_moves` fixed, so
    a test can check the weighted pick on its own.
    """

    def __init__(self, counts, seed):
        super().__init__(np.random.PCG64(seed))
        self.counts = np.asarray(counts)

    def multinomial(self, n, pvals, size=None):
        assert np.all(self.counts.sum(axis=-1) == n)
        return np.broadcast_to(self.counts, np.shape(pvals)).copy()


def make_graph(attractiveness, distance=None):
    a = np.asarray(attractiveness, dtype=float)
    d = unit_distance(a.shape[1]) if distance is None else np.asarray(distance, dtype=float)
    return StoreGraph(distance=d, attractiveness=a)


def make_agent(group=0, store=0, dwell=2, path=None, active=True):
    """One agent for make_world: its visited stores end at its current store."""
    return {"group": group, "path": [store] if path is None else list(path),
            "dwell": dwell, "active": active}


def make_world(agents, store_count, quotas=(10, 10, 10, 10), spawned=None, capacity=None):
    """WorldState holding the given agents as ids 0, 1, ...

    Ids from len(agents) up to `spawned` are spawned agents that have left
    (no path, inactive); `capacity` is the total-agent budget.
    """
    spawned = len(agents) if spawned is None else spawned
    capacity = max(spawned, 1) if capacity is None else capacity
    world = new_world(SimConfig(
        store_count=store_count, total_agents=capacity,
        group_count=len(quotas), group_quotas=quotas,
    ))
    for i, a in enumerate(agents):
        path = a["path"]
        world.group[i] = a["group"]
        world.store[i] = path[-1]
        world.dwell[i] = a["dwell"]
        world.transitions[i] = len(path) - 1
        world.active[i] = a["active"]
        world.path[i, : len(path)] = path
        if a["active"]:
            world.occupancy[path[-1]] += 1
    world.congestion = world.occupancy.copy()
    world.agents_spawned = spawned
    return world


def agent_path(world, agent_id):
    """The stores one agent has visited, as a list."""
    row = world.path[agent_id]
    return row[row >= 0].tolist()


def path_rows(triples):
    """(agent_id, group, position, store) rows of (agent_id, group, path) triples,
    the layout io.read_paths returns and metrics.ngram_table reads."""
    return np.array(
        [(aid, g, pos, s) for aid, g, stores in triples for pos, s in enumerate(stores)],
        dtype=np.int64,
    ).reshape(-1, 4)


def small_sim_config(**kw):
    """3-store, 2-group config small enough for hand reasoning."""
    defaults = dict(
        store_count=3,
        total_agents=8,
        initial_agents=4,
        replenish_threshold=2,
        replenish_count=2,
        max_transitions=3,
        dwell_min=2,
        dwell_max=3,
        horizon_steps=30,
        group_count=2,
        group_quotas=(4, 4),
        behavior=(BehaviorParams(), BehaviorParams()),
    )
    defaults.update(kw)
    defaults.setdefault(
        "attractiveness",
        np.full((defaults["group_count"], defaults["store_count"]), 5.0),
    )
    return SimConfig(**defaults).validate()
