import numpy as np
import pytest

from roamlab.config import resolve_config
from roamlab.model import (
    ACTIVE,
    AgentState,
    BehaviorParams,
    SimConfig,
    StoreGraph,
    WorldState,
    unit_distance,
)

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


def make_graph(attractiveness, distance=None):
    a = np.asarray(attractiveness, dtype=float)
    d = unit_distance(a.shape[1]) if distance is None else np.asarray(distance, dtype=float)
    return StoreGraph(distance=d, attractiveness=a)


def make_world(agents, store_count, quotas=(10, 10, 10, 10), spawned=None, step=0):
    """WorldState consistent with the given agents."""
    occupancy = np.zeros(store_count, dtype=np.int64)
    for a in agents:
        if a.status == ACTIVE:
            occupancy[a.current_store] += 1
    return WorldState(
        step=step,
        agents=list(agents),
        occupancy=occupancy,
        congestion=occupancy.copy(),
        agents_spawned=len(agents) if spawned is None else spawned,
        group_quota_remaining=np.array(quotas, dtype=np.int64),
    )


def make_agent(agent_id=0, group=0, store=0, dwell=2, path=None, transitions=None, status=ACTIVE):
    path = [store] if path is None else list(path)
    return AgentState(
        agent_id=agent_id,
        group=group,
        current_store=path[-1],
        dwell_remaining=dwell,
        transitions_made=len(path) - 1 if transitions is None else transitions,
        path=path,
        status=status,
    )


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
