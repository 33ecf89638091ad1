"""Store graph, agent lifecycle, and the probabilistic store-choice model.

The world is a complete graph of stores. Agents dwell in a store for a few
steps, hop to a new store drawn from a multinomial logit over per-store utilities
(attractiveness + distance-decayed spillover from neighbors + congestion),
and stop roaming after a fixed number of transitions. Stationary agents are
periodically replaced by fresh ones until a total-agent budget is spent.

The world is a struct of arrays indexed by agent id, ids being handed out in
spawn order, and it is the run's only record: each agent's visited stores and
the step it entered each of them stay in its row, so observations, ODs and
assignments are all read off the arrays after the run, as are an agent's
current store, path[transitions], and status: it roams while transitions <
max_transitions. Choices read the congestion snapshot taken at the start of
each step, so its moves are conditionally independent, drawn as one batch.

Movement and initial placement are pluggable policies, so one loop,
run_world, drives the truth, baseline and assimilated runs. A mover maps
(world, ids, rng) to the next store of each listed agent; a placer maps
(world, ids, groups, rng) to the first store of each freshly spawned agent.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .numerics import categorical, log_normalize_rows


def unit_distance(store_count: int) -> np.ndarray:
    """Complete graph with unit edges: d=1 everywhere off the diagonal."""
    d = np.ones((store_count, store_count))
    np.fill_diagonal(d, 0.0)
    return d


@dataclass
class WorldState:
    """Mutable simulation state advanced by step_world.

    Per-agent arrays have one entry per agent of the total budget; the first
    agents_spawned entries are live. path holds each agent's visited stores,
    padded with -1 after the last one, and entered the step at which each of
    them was entered (its spawn step first), padded the same way.
    """

    step: int
    group: np.ndarray           # (N,) behavioral group
    dwell: np.ndarray           # (N,) steps left in the current store
    transitions: np.ndarray     # (N,) moves made so far
    path: np.ndarray            # (N, max_transitions + 1) visited stores, -1 padded
    entered: np.ndarray         # (N, max_transitions + 1) entry step of each, -1 padded
    congestion: np.ndarray      # roaming agents per store at the start of the step
    agents_spawned: int
    group_quota_remaining: np.ndarray
    stationary_unretired: int = 0

    def stores(self, ids):
        """The current store of each listed agent: the last of its path."""
        return self.path[ids, self.transitions[ids]]


# least value of each integer SimConfig field; the sim.* config key named
# after a field is checked against the same value
COUNT_LEAST = {"store_count": 2} | dict.fromkeys((
    "total_agents", "initial_agents", "replenish_threshold", "replenish_count",
    "max_transitions", "dwell_min", "dwell_max", "horizon_steps", "group_count"), 1)


@dataclass
class SimConfig:
    """One simulation environment: lifecycle constants plus the store graph.

    validate() holds every invariant and must pass before the config is used:
    attractiveness is (G, S) and positive; distance is (S, S), non-negative
    and symmetric, with a zero diagonal; omega, k and lam are each a number
    or one finite value per group, lam >= 0, and every utility is finite.
    Defaults: 18 stores, 2000 agents in four groups of 500, 100 initial
    agents, replenishment in batches of 40, dwell of 2-3 steps, 3
    transitions per agent, 200 steps, omega 0.005, k 1 and lam 6.
    """

    store_count: int = 18
    total_agents: int = 2000
    initial_agents: int = 100
    replenish_threshold: int = 40
    replenish_count: int = 40
    max_transitions: int = 3
    dwell_min: int = 2
    dwell_max: int = 3
    horizon_steps: int = 200
    group_count: int = 4
    group_quotas: tuple = (500, 500, 500, 500)
    omega: float | np.ndarray = 0.005  # congestion sensitivity; (G,) once validated
    k: float | np.ndarray = 1.0        # utility scale; (G,) once validated
    lam: float | np.ndarray = 6.0      # distance decay exponent; (G,) once validated
    attractiveness: np.ndarray | None = None  # (G, S); required
    distance: np.ndarray | None = None        # (S, S); unit complete graph if omitted
    allow_self_transition: bool = False

    def validate(self):
        """Cast the matrices and choice coefficients to float arrays and raise
        ValueError naming the offending field on any invariant breach."""
        s, g = self.store_count, self.group_count
        for field, least in COUNT_LEAST.items():
            if getattr(self, field) < least:
                raise ValueError(f"{field}: must be >= {least}, got {getattr(self, field)}")
        if self.initial_agents > self.total_agents:
            raise ValueError(
                f"initial_agents: {self.initial_agents} exceeds total_agents {self.total_agents}"
            )
        t, c, n = self.replenish_threshold, self.replenish_count, self.initial_agents
        # replenishment k fires only once k * t agents have gone stationary, of
        # the n + (k - 1) * c spawned before it; that margin is linear in k, so
        # the first k it falls short at is 1, none, or the first past (n - c) / (t - c)
        k = 1 if n < t else (n - c) // (t - c) + 1 if t > c else None
        if k is not None and n + (k - 1) * c < self.total_agents:
            raise ValueError(
                f"replenish_threshold: replenishment stops after {n + (k - 1) * c} of"
                f" total_agents {self.total_agents} agents spawn: replenishment {k}"
                f" needs {k * t} stationary agents"
            )
        if self.dwell_min > self.dwell_max:
            raise ValueError(f"dwell_min: {self.dwell_min} exceeds dwell_max {self.dwell_max}")
        if len(self.group_quotas) != g:
            raise ValueError(f"group_quotas: expected {g} entries, got {len(self.group_quotas)}")
        if not all(isinstance(q, (int, np.integer)) and not isinstance(q, bool)
                   for q in self.group_quotas):
            raise ValueError(f"group_quotas: entries must be integers, got {self.group_quotas}")
        if sum(self.group_quotas) != self.total_agents:
            raise ValueError(
                f"group_quotas: sum {sum(self.group_quotas)} != total_agents {self.total_agents}"
            )
        if any(q < 0 for q in self.group_quotas):
            raise ValueError("group_quotas: entries must be >= 0")
        if self.attractiveness is None:
            raise ValueError("attractiveness: required")
        if self.distance is None:
            self.distance = unit_distance(s)
        a = self.attractiveness = np.asarray(self.attractiveness, dtype=float)
        d = self.distance = np.asarray(self.distance, dtype=float)
        if a.shape != (g, s):
            raise ValueError(f"attractiveness: expected shape ({g}, {s}), got {a.shape}")
        if not np.all((a > 0) & np.isfinite(a)):
            raise ValueError("attractiveness: entries must be finite and positive")
        if d.shape != (s, s):
            raise ValueError(f"distance: expected shape ({s}, {s}), got {d.shape}")
        if not np.all(d >= 0):
            raise ValueError("distance: entries must be non-negative")
        if np.any(np.diag(d) != 0):
            raise ValueError("distance: diagonal must be zero")
        if not np.allclose(d, d.T):
            raise ValueError("distance: matrix must be symmetric")
        for field in ("omega", "k", "lam"):
            v = np.asarray(getattr(self, field), dtype=float)
            v = np.full(g, v) if v.ndim == 0 else v
            if v.shape != (g,):
                raise ValueError(f"{field}: expected {g} entries, got {v.size}")
            if not np.isfinite(v).all():
                raise ValueError(f"{field}: entries must be finite, got {v}")
            setattr(self, field, v)
        if np.any(self.lam < 0):
            raise ValueError(f"lam: entries must be >= 0, got {self.lam}")
        # utilities are linear in congestion, which runs from 0 to total_agents
        for field, c in (("k", 0), ("omega", self.total_agents)):
            with np.errstate(over="ignore", invalid="ignore"):
                u = store_utilities(self, np.full(s, c))
            if not np.isfinite(u).all():
                raise ValueError(f"{field}: store utilities are not finite at congestion {c}")
        return self


def store_utilities(cfg: SimConfig, congestion: np.ndarray) -> np.ndarray:
    """(G, S) per-store utility of every group: k*(A_j + spillover_j) + omega*congestion_j.

    spillover_j sums every other store's attractiveness decayed by
    (1 + d)^-lambda; the candidate restriction is applied later, so the sum
    always runs over all j' != j.
    """
    s = cfg.store_count
    decay = np.where(np.eye(s, dtype=bool), 0.0, (1.0 + cfg.distance) ** -cfg.lam[:, None, None])
    spill = (decay @ cfg.attractiveness[..., None])[..., 0]
    return cfg.k[:, None] * (cfg.attractiveness + spill) + cfg.omega[:, None] * congestion


class ChoiceModel:
    """Next-store distribution with the static utility part precomputed.

    One instance per validated environment; per-call work is a row gather, a
    vector add and a log-normalisation over the candidate stores.
    """

    def __init__(self, cfg: SimConfig):
        self.allow_self_transition = cfg.allow_self_transition
        self._static = store_utilities(cfg, np.zeros(cfg.store_count))
        self._omega = cfg.omega

    def log_probs(self, group, current_store, congestion: np.ndarray) -> np.ndarray:
        """Log choice probabilities over all stores; excluded stores get -inf.

        group and current_store are scalars, giving one (S,) vector, or
        equal-length arrays, giving one (m, S) row per agent.
        """
        group = np.asarray(group)
        u = self._static[group] + self._omega[group][..., None] * congestion
        if not np.isfinite(u).all():
            raise ValueError("non-finite store utilities; check sim.omega and sim.k")
        if not self.allow_self_transition:
            rows = u.reshape(-1, u.shape[-1])  # a view: u is a fresh C-ordered array
            rows[np.arange(len(rows)), np.ravel(current_store)] = -np.inf
        return log_normalize_rows(u)

    def probs(self, group, current_store, congestion: np.ndarray) -> np.ndarray:
        # exp(-inf) leaves exact zeros on excluded stores
        return np.exp(self.log_probs(group, current_store, congestion))

    def sample(self, group, current_store, congestion, rng):
        """One next store per agent (a scalar for scalar inputs)."""
        return categorical(rng, self.probs(group, current_store, congestion))


def _draw_dwells(cfg: SimConfig, count: int, rng: np.random.Generator) -> np.ndarray:
    return rng.integers(cfg.dwell_min, cfg.dwell_max + 1, size=count)


def _spawn_agents(world, cfg, count, placer, rng):
    """Spawn up to count agents as one batch, entering their stores this step.

    Each group is drawn uniformly among the groups with quota left after the
    draws before it. No quota can run out before the last draw of a run of
    min(left, smallest eligible quota) draws, so each such run is one
    rng.integers call, which with PCG64 yields the same values, and leaves the
    same generator state, as the draws made one at a time. Placement and dwell
    are then drawn for the whole batch, one call each.
    """
    quota = world.group_quota_remaining
    eligible = np.flatnonzero(quota > 0)
    runs, left = [], count
    while left > 0 and len(eligible):
        run = min(left, int(quota[eligible].min()))
        drawn = eligible[rng.integers(len(eligible), size=run)]
        quota -= np.bincount(drawn, minlength=len(quota))
        eligible = np.flatnonzero(quota > 0)
        runs.append(drawn)
        left -= run
    if not runs:
        return
    groups = np.concatenate(runs)
    ids = np.arange(world.agents_spawned, world.agents_spawned + len(groups))
    stores = np.asarray(placer(world, ids, groups, rng), dtype=np.int64)
    world.group[ids] = groups
    world.dwell[ids] = _draw_dwells(cfg, len(ids), rng)
    world.path[ids, 0] = stores
    world.entered[ids, 0] = world.step
    world.agents_spawned += len(ids)


def uniform_placer(world, ids, groups, rng) -> np.ndarray:
    return rng.integers(len(world.congestion), size=len(ids))


def new_world(cfg: SimConfig) -> WorldState:
    """An empty world at step 0 with room for the whole agent budget."""
    n = cfg.total_agents
    return WorldState(
        step=0,
        group=np.zeros(n, dtype=np.int64),
        dwell=np.zeros(n, dtype=np.int64),
        transitions=np.zeros(n, dtype=np.int64),
        path=np.full((n, cfg.max_transitions + 1), -1, dtype=np.int64),
        entered=np.full((n, cfg.max_transitions + 1), -1, dtype=np.int64),
        congestion=np.zeros(cfg.store_count, dtype=np.int64),
        agents_spawned=0,
        group_quota_remaining=np.array(cfg.group_quotas, dtype=np.int64),
    )


def init_world(cfg: SimConfig, placer, rng: np.random.Generator) -> WorldState:
    """Spawn the initial population at step 0."""
    world = new_world(cfg)
    _spawn_agents(world, cfg, cfg.initial_agents, placer, rng)
    return world


def replenish(world: WorldState, cfg: SimConfig, placer, rng: np.random.Generator) -> WorldState:
    """Retire full batches of stationary agents and spawn replacements.

    Each time the unretired stationary count reaches the threshold and budget
    remains, the batch is retired (so the threshold re-arms) and up to
    replenish_count new agents are spawned, capped by the total-agent budget.
    Spawned groups are drawn uniformly among groups with remaining quota.
    """
    while (
        world.stationary_unretired >= cfg.replenish_threshold
        and world.agents_spawned < cfg.total_agents
    ):
        world.stationary_unretired -= cfg.replenish_threshold
        n_new = min(cfg.replenish_count, cfg.total_agents - world.agents_spawned)
        _spawn_agents(world, cfg, n_new, placer, rng)
    return world


def step_world(
    world: WorldState, cfg: SimConfig, mover, placer, rng: np.random.Generator
) -> WorldState:
    """Advance the world by one step, in place.

    The congestion snapshot counts the roaming agents per store. Roaming
    agents then count down their dwell. The agents hitting zero (ascending
    id) get their next stores from one `mover` call against the snapshot;
    they move there, and either go stationary at the transition cap or all
    redraw a dwell in one call. Replenishment then runs.
    """
    if world.step >= cfg.horizon_steps:
        raise ValueError(f"world already at horizon step {cfg.horizon_steps}")
    world.step += 1
    ids = np.flatnonzero(world.transitions[: world.agents_spawned] < cfg.max_transitions)
    world.congestion = np.bincount(world.stores(ids), minlength=cfg.store_count)
    world.dwell[ids] -= 1
    movers = ids[world.dwell[ids] <= 0]
    if len(movers):
        stores = np.asarray(mover(world, movers, rng), dtype=np.int64)
        moves = world.transitions[movers] + 1
        world.transitions[movers] = moves
        world.path[movers, moves] = stores
        world.entered[movers, moves] = world.step
        going = movers[moves < cfg.max_transitions]
        world.stationary_unretired += len(movers) - len(going)
        world.dwell[going] = _draw_dwells(cfg, len(going), rng)

    replenish(world, cfg, placer, rng)
    return world


def run_world(cfg: SimConfig, mover, placer, rng: np.random.Generator) -> WorldState:
    """Spawn the initial population, then step the world to the horizon."""
    world = init_world(cfg, placer, rng)
    for _ in range(cfg.horizon_steps):
        step_world(world, cfg, mover, placer, rng)
    return world


def model_mover(choice: ChoiceModel):
    """Movement policy that samples directly from the choice model."""

    def mover(world, ids, rng):
        return choice.sample(world.group[ids], world.stores(ids), world.congestion, rng)

    return mover


def path_rows(world: WorldState) -> np.ndarray:
    """(agent_id, group, position, store) rows of every spawned agent's path,
    partial paths included, ordered by agent, then position: the layout
    io.read_paths returns."""
    agent, position = np.nonzero(world.path[: world.agents_spawned] >= 0)
    return np.column_stack([agent, world.group[agent], position, world.path[agent, position]])


def completed_paths(world: WorldState):
    """(groups, paths) arrays of the agents that finished all transitions."""
    n = world.agents_spawned
    done = world.path[:n, -1] >= 0
    return world.group[:n][done], world.path[:n][done]
