import os

import numpy as np
import pytest
from hypothesis import settings

from roamlab.config import resolve_config
from roamlab.model import SimConfig, Worlds

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


class FixedUniforms(np.random.Generator):
    """A generator whose uniform draws are the given values, shaped as asked;
    every other draw is a real PCG64 draw.

    It puts the uniforms of `numerics.categorical` where a test wants them,
    such as exactly on a CDF entry.
    """

    def __init__(self, uniforms, seed=0):
        super().__init__(np.random.PCG64(seed))
        self.uniforms = np.asarray(uniforms, dtype=float)

    def random(self, size=None, dtype=np.float64, out=None):
        assert self.uniforms.size == np.prod(size)
        return self.uniforms.reshape(size).copy()


def make_graph(attractiveness, distance=None, allow_self_transition=False, **coefficients):
    """A validated SimConfig holding one store graph: one agent per group,
    the default omega, k and lam unless given, unit distances unless given."""
    g, s = np.shape(attractiveness)
    return SimConfig(
        store_count=s, total_agents=g, initial_agents=g, group_count=g, group_quotas=(1,) * g,
        attractiveness=attractiveness, distance=distance,
        allow_self_transition=allow_self_transition, **coefficients,
    ).validate()


def choice_row(choice, group, store, congestion):
    """The (S,) choice probabilities of one agent of the group at the store."""
    return np.exp(choice.log_probs([group], [store], congestion))[0]


def make_agent(group=0, store=0, dwell=2, path=None):
    """One agent for make_world: its visited stores end at its current store,
    and it roams unless it has made every transition."""
    return {"group": group, "path": [store] if path is None else list(path), "dwell": dwell}


def make_world(agents, store_count, quotas=(10, 10, 10, 10), spawned=None, capacity=None):
    """A stack of one world (Worlds) at step 0 holding the given agents as
    ids 0, 1, ...; its per-world counters are row 0 of their arrays.

    Every store of an agent's path counts as entered at step 0. Ids from
    len(agents) up to `spawned` are spawned agents that have left: no path,
    and every transition made, so they do not roam. `capacity` is the
    total-agent budget.
    """
    spawned = len(agents) if spawned is None else spawned
    capacity = max(spawned, 1) if capacity is None else capacity
    world = Worlds(SimConfig(
        store_count=store_count, total_agents=capacity,
        group_count=len(quotas), group_quotas=quotas,
    ), 1)
    for i, a in enumerate(agents):
        path = a["path"]
        world.group[i] = a["group"]
        world.dwell[i] = a["dwell"]
        world.transitions[i] = len(path) - 1
        world.path[i, : len(path)] = path
        world.entered[i, : len(path)] = 0
    most = world.path.shape[1] - 1  # the transition cap
    world.transitions[len(agents) : spawned] = most
    roaming = np.flatnonzero(world.transitions[:spawned] < most)
    world.roaming[roaming] = True
    world.congestion[0] = np.bincount(world.stores(roaming), minlength=store_count)
    world.agents_spawned[0] = spawned
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
    )
    defaults.update(kw)
    defaults.setdefault(
        "attractiveness",
        np.full((defaults["group_count"], defaults["store_count"]), 5.0),
    )
    return SimConfig(**defaults).validate()
