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
run_worlds, drives the truth, baseline and assimilated runs. A mover maps
(worlds, ids, rng) to the next store of each listed agent; a placer maps
(worlds, ids, groups, rng) to the first store of each freshly spawned agent.

Worlds of one lifecycle step in lockstep (Worlds), the only thing the step
loop takes: the per-step numpy calls serve every world at once, and each
world draws from its own generator in its own order, so a world's arrays do
not depend on the worlds beside it. A lone world is new_worlds(cfg, 1). A
finished run hands back one read-only WorldState per world.
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
    """One world's record: what a run leaves, read off its Worlds stack.

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

    One instance per validated environment, or per list of environments of
    one lifecycle: row k * G + g of its tables is group g under the k-th
    config. Per-call work is a row gather, a vector add and a
    log-normalisation over the candidate stores.
    """

    def __init__(self, *cfgs: SimConfig):
        self.allow_self_transition = cfgs[0].allow_self_transition
        self.group_count = cfgs[0].group_count
        self._static = np.concatenate([store_utilities(c, np.zeros(c.store_count)) for c in cfgs])
        self._omega = np.concatenate([c.omega for c in cfgs])

    def log_probs(self, group, current_store, congestion: np.ndarray) -> np.ndarray:
        """(m, S) log choice probabilities, a row per agent of the equal-length
        arrays group and current_store, against one congestion row for all or
        one per agent; excluded stores get -inf (exp 0)."""
        u = self._static[group] + self._omega[group][:, None] * congestion
        if not np.isfinite(u).all():
            raise ValueError("non-finite store utilities; check sim.omega and sim.k")
        if not self.allow_self_transition:
            u[np.arange(len(u)), current_store] = -np.inf
        return log_normalize_rows(u)


class Streams:
    """The generators of the worlds owning a run of agent rows, the rows
    grouped by world in world order, with the draws a mover or placer makes.

    Each draw concatenates every owning world's draw for its own rows, in
    world order, so each world draws from its own generator exactly what it
    would draw alone. parts lists (generator, first row, end row) per world.
    """

    def __init__(self, parts):
        self.parts = parts

    def random(self, size):
        return np.concatenate([r.random((z - a, *size[1:])) for r, a, z in self.parts])

    def integers(self, low, high=None, size=None):
        return np.concatenate([r.integers(low, high, size=z - a) for r, a, z in self.parts])

    def multinomial(self, n, pvals):
        return np.concatenate([r.multinomial(n, pvals[a:z]) for r, a, z in self.parts])


class Worlds:
    """W worlds of one lifecycle, stepped together by step_world.

    Agent i of the w-th world is row w * N + i of the per-agent arrays, N
    being the total-agent budget, so a world's rows are contiguous and in
    its spawn order; the per-world arrays have a leading axis of W. roaming
    marks the spawned agents that have transitions left. Movers and placers
    find each world's own inputs by its index in the stack (world_of).

    A plain class, not a dataclass: the code a dataclass generates would
    cost every command its time at import.
    """

    def __init__(self, step, group, dwell, transitions, path, entered, roaming,
                 congestion, agents_spawned, group_quota_remaining, stationary_unretired):
        self.step = step
        self.group = group                  # (W * N,)
        self.dwell = dwell                  # (W * N,)
        self.transitions = transitions      # (W * N,)
        self.path = path                    # (W * N, max_transitions + 1)
        self.entered = entered              # (W * N, max_transitions + 1)
        self.roaming = roaming              # (W * N,) bool
        self.congestion = congestion        # (W, S) roaming agents per store at the step's start
        self.agents_spawned = agents_spawned                # (W,)
        self.group_quota_remaining = group_quota_remaining  # (W, G)
        self.stationary_unretired = stationary_unretired    # (W,)
        self.size = len(agents_spawned)                     # W
        self.capacity = len(group) // self.size             # N

    def stores(self, ids):
        """The current store of each listed agent: the last of its path."""
        return self.path[ids, self.transitions[ids]]

    def world_of(self, ids):
        """The stack index of each listed agent's world."""
        return ids // self.capacity

    def load(self, ids):
        """The congestion row each listed agent chooses against."""
        return self.congestion[ids // self.capacity]

    def tally(self, ids):
        """(W,) how many of the listed agents each world holds."""
        return np.bincount(ids // self.capacity, minlength=self.size)

    def count_stores(self, ids, stores, store_count):
        """(W, S) how many of the listed agents each world holds at each store."""
        stores = stores + store_count * (ids // self.capacity)
        return np.bincount(stores, minlength=self.size * store_count).reshape(-1, store_count)

    def streams(self, rngs, ids):
        """What draws for the listed rows (ascending): the generator of their
        world if one world owns them all, else a Streams over the owners."""
        ends = np.searchsorted(ids, np.arange(1, self.size + 1) * self.capacity).tolist()
        parts = [(r, a, z) for r, a, z in zip(rngs, [0, *ends], ends) if z > a]
        return parts[0][0] if len(parts) == 1 else Streams(parts)

    def records(self) -> list:
        """Each world's WorldState, its arrays views of these."""
        n = self.capacity
        return [WorldState(
            step=self.step,
            group=self.group[w * n : (w + 1) * n],
            dwell=self.dwell[w * n : (w + 1) * n],
            transitions=self.transitions[w * n : (w + 1) * n],
            path=self.path[w * n : (w + 1) * n],
            entered=self.entered[w * n : (w + 1) * n],
            congestion=self.congestion[w],
            agents_spawned=int(self.agents_spawned[w]),
            group_quota_remaining=self.group_quota_remaining[w],
            stationary_unretired=int(self.stationary_unretired[w]),
        ) for w in range(self.size)]


def new_worlds(cfg: SimConfig, count: int) -> Worlds:
    """count empty worlds at step 0, each with room for the whole agent budget.

    Raises ConfigSchemaError naming the config key that sized an array no
    allocator can build: sim.total_agents for the per-agent arrays, and
    sim.max_transitions for the per-agent paths.
    """
    n, width = cfg.total_agents, cfg.max_transitions + 1
    key = "sim.total_agents"
    try:  # numpy refuses an array past the address space with ValueError
        group, dwell, transitions = (np.zeros(count * n, dtype=np.int64) for _ in range(3))
        roaming = np.zeros(count * n, dtype=bool)
        key = "sim.max_transitions"
        path, entered = (np.full((count * n, width), -1, dtype=np.int64) for _ in range(2))
    except (MemoryError, ValueError) as e:
        from .config import ConfigSchemaError  # imported here: config imports this module
        raise ConfigSchemaError(f"{key}: {n} agents with {width} path entries each"
                                f" are too many to allocate: {e}") from e
    return Worlds(
        step=0,
        group=group,
        dwell=dwell,
        transitions=transitions,
        path=path,
        entered=entered,
        roaming=roaming,
        congestion=np.zeros((count, cfg.store_count), dtype=np.int64),
        agents_spawned=np.zeros(count, dtype=np.int64),
        group_quota_remaining=np.tile(np.array(cfg.group_quotas, dtype=np.int64), (count, 1)),
        stationary_unretired=np.zeros(count, dtype=np.int64),
    )


def _draw_dwells(cfg: SimConfig, count: int, rng) -> np.ndarray:
    return rng.integers(cfg.dwell_min, cfg.dwell_max + 1, size=count)


def _draw_groups(quota, count, rng):
    """The groups of a spawn batch of up to count agents, quota spent in place.

    Each group is drawn uniformly among the groups with quota left after the
    draws before it. No quota can run out before the last draw of a run of
    min(left, smallest eligible quota) draws, so each such run is one
    rng.integers call, which with PCG64 yields the same values, and leaves the
    same generator state, as the draws made one at a time.
    """
    eligible = (quota > 0).nonzero()[0]
    runs, left = [], count
    while left > 0 and len(eligible):
        run = min(left, int(quota[eligible].min()))
        drawn = eligible[rng.integers(len(eligible), size=run)]
        quota -= np.bincount(drawn, minlength=len(quota))
        runs.append(drawn)
        left -= run
        if left:
            eligible = (quota > 0).nonzero()[0]
    return np.concatenate([quota[:0], *runs])


def _spawn_agents(world: Worlds, cfg, due, counts, placer, rngs):
    """Spawn up to counts[k] agents in world due[k], one batch per world,
    entering their stores this step.

    Each world draws its batch's groups (_draw_groups); then one placer call
    and one dwell draw serve every batch.
    """
    batches = [_draw_groups(world.group_quota_remaining[w], count, rngs[w])
               for w, count in zip(due.tolist(), counts.tolist())]
    sizes = [len(b) for b in batches]
    if not sum(sizes):
        return
    starts = due * world.capacity + world.agents_spawned[due]
    if len(due) == 1:
        groups, ids = batches[0], np.arange(starts[0], starts[0] + sizes[0])
    else:
        groups = np.concatenate(batches)
        ids = np.repeat(starts - np.cumsum([0, *sizes[:-1]]), sizes) + np.arange(len(groups))
    rng = world.streams(rngs, ids)
    stores = np.asarray(placer(world, ids, groups, rng), dtype=np.int64)
    world.group[ids] = groups
    world.dwell[ids] = _draw_dwells(cfg, len(ids), rng)
    world.path[ids, 0] = stores
    world.entered[ids, 0] = world.step
    world.roaming[ids] = True
    world.agents_spawned[due] += sizes


def uniform_placer(world, ids, groups, rng) -> np.ndarray:
    return rng.integers(world.congestion.shape[-1], size=len(ids))


def replenish(world: Worlds, cfg: SimConfig, placer, rng: list):
    """Retire full batches of stationary agents and spawn replacements.

    Each time a world's unretired stationary count reaches the threshold and
    budget remains, the batch is retired (so the threshold re-arms) and up to
    replenish_count new agents are spawned, capped by the total-agent budget.
    Spawned groups are drawn uniformly among groups with remaining quota.
    rng holds one generator per world of the stack, as step_world takes it.
    """
    while True:
        due = (world.stationary_unretired >= cfg.replenish_threshold).nonzero()[0]
        if len(due):
            due = due[world.agents_spawned[due] < cfg.total_agents]
        if not len(due):
            return world
        world.stationary_unretired[due] -= cfg.replenish_threshold
        counts = np.minimum(cfg.replenish_count, cfg.total_agents - world.agents_spawned[due])
        _spawn_agents(world, cfg, due, counts, placer, rng)


def step_world(world: Worlds, cfg: SimConfig, mover, placer, rng: list):
    """Advance the worlds by one step, in place.

    world is a Worlds stack and rng holds one generator per world. In each
    world the congestion snapshot counts the roaming agents per store.
    Roaming agents then count down their dwell. The agents hitting zero
    (ascending id) get their next stores from the `mover` against the
    snapshot; they move there, and either go stationary at the transition
    cap or redraw a dwell. Replenishment then runs. One mover call, and one
    dwell draw, serve every world, each world drawing from its own generator
    (Worlds.streams): its mover draws, then its dwells, then its spawns.
    """
    if world.step >= cfg.horizon_steps:
        raise ValueError(f"world already at horizon step {cfg.horizon_steps}")
    world.step += 1
    ids = world.roaming.nonzero()[0]
    world.congestion = world.count_stores(ids, world.stores(ids), cfg.store_count)
    dwell = world.dwell[ids] - 1
    world.dwell[ids] = dwell
    movers = ids[dwell <= 0]
    if len(movers):
        stores = np.asarray(mover(world, movers, world.streams(rng, movers)), dtype=np.int64)
        moves = world.transitions[movers] + 1
        world.transitions[movers] = moves
        world.path[movers, moves] = stores
        world.entered[movers, moves] = world.step
        roams = moves < cfg.max_transitions
        world.roaming[movers] = roams
        going = movers[roams]
        world.stationary_unretired += world.tally(movers) - world.tally(going)
        if len(going):
            world.dwell[going] = _draw_dwells(cfg, len(going), world.streams(rng, going))

    replenish(world, cfg, placer, rng)
    return world


def run_worlds(cfg: SimConfig, mover, placer, rngs) -> list:
    """Run one world per generator to the horizon, all in one lockstep stack;
    return their WorldStates in generator order. The caller sizes the stack:
    a command's stacks are experiment.chunks' chunks."""
    world = new_worlds(cfg, len(rngs))
    _spawn_agents(world, cfg, np.arange(len(rngs)), np.full(len(rngs), cfg.initial_agents),
                  placer, rngs)
    for _ in range(cfg.horizon_steps):
        step_world(world, cfg, mover, placer, rngs)
    return world.records()


def model_mover(choice: ChoiceModel, tables=None):
    """Movement policy that samples directly from the choice model; tables,
    if given, holds for each world of the run the index of the config whose
    choice rows it moves by."""

    def mover(world, ids, rng):
        groups = world.group[ids]
        if tables is not None:
            groups = groups + choice.group_count * tables[world.world_of(ids)]
        probs = np.exp(choice.log_probs(groups, world.stores(ids), world.load(ids)))
        return categorical(rng, probs)

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
