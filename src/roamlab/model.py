"""Store graph, agent lifecycle, and the probabilistic store-choice model.

The world is a complete graph of stores. Agents dwell in a store for a few
steps, hop to a new store drawn from a multinomial logit over per-store utilities
(attractiveness + distance-decayed spillover from neighbors + congestion),
and stop roaming after a fixed number of transitions. Stationary agents are
periodically replaced by fresh ones until a total-agent budget is spent.

Movement and initial placement are pluggable policies so the same stepper
drives plain model runs and assimilated runs.
"""

from dataclasses import dataclass, field

import numpy as np

from .numerics import categorical, log_normalize

ACTIVE = "active"
STATIONARY = "stationary"


@dataclass
class StoreGraph:
    """Stores, pairwise distances, and per-group attractiveness.

    distance: (S, S) symmetric, zero diagonal. attractiveness: (G, S), all
    entries positive.
    """

    distance: np.ndarray
    attractiveness: np.ndarray

    def __post_init__(self):
        self.distance = np.asarray(self.distance, dtype=float)
        self.attractiveness = np.asarray(self.attractiveness, dtype=float)
        s = self.store_count
        if s < 2:
            raise ValueError("store_count must be >= 2")
        if self.distance.shape != (s, s):
            raise ValueError(f"distance must be ({s}, {s}), got {self.distance.shape}")
        if np.any(self.distance < 0):
            raise ValueError("distances must be non-negative")
        if np.any(np.diag(self.distance) != 0):
            raise ValueError("distance diagonal must be zero")
        if not np.allclose(self.distance, self.distance.T):
            raise ValueError("distance matrix must be symmetric")
        if self.attractiveness.ndim != 2 or self.attractiveness.shape[1] != s:
            raise ValueError("attractiveness must be (group_count, store_count)")
        if np.any(self.attractiveness <= 0):
            raise ValueError("attractiveness entries must be positive")

    @property
    def store_count(self) -> int:
        return self.attractiveness.shape[1]

    @property
    def group_count(self) -> int:
        return self.attractiveness.shape[0]


@dataclass(frozen=True)
class BehaviorParams:
    """Choice-model coefficients for one behavioral group."""

    omega: float = 0.005  # congestion sensitivity
    k: float = 1.0        # utility scale
    lam: float = 6.0      # distance decay exponent

    def __post_init__(self):
        if not np.isfinite(self.omega) or not np.isfinite(self.k):
            raise ValueError("omega and k must be finite")
        if not np.isfinite(self.lam) or self.lam < 0:
            raise ValueError("lambda must be finite and >= 0")


def unit_distance(store_count: int) -> np.ndarray:
    """Complete graph with unit edges: d=1 everywhere off the diagonal."""
    d = np.ones((store_count, store_count))
    np.fill_diagonal(d, 0.0)
    return d


@dataclass(slots=True)
class AgentState:
    """One roaming agent."""

    agent_id: int
    group: int
    current_store: int
    dwell_remaining: int
    transitions_made: int = 0
    path: list = field(default_factory=list)
    status: str = ACTIVE


@dataclass
class StepReport:
    """What happened during one world step, for observation building."""

    step: int
    move_entries: list  # (agent_id, group, store)
    spawn_entries: list  # (agent_id, group, store)
    retired: int = 0


@dataclass
class WorldState:
    """Mutable simulation state advanced by step_world."""

    step: int
    agents: list
    occupancy: np.ndarray       # active agents per store, maintained incrementally
    congestion: np.ndarray      # occupancy snapshot taken at the start of the step
    agents_spawned: int
    group_quota_remaining: np.ndarray
    stationary_unretired: int = 0
    last_report: StepReport | None = None


@dataclass
class SimConfig:
    """One simulation environment: lifecycle constants plus the store graph.

    Defaults: 18 stores, 2000 agents in four groups of 500, 100 initial
    agents, replenishment in batches of 40, dwell of 2-3 steps, 3 transitions
    per agent, 200 steps.
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
    behavior: tuple = ()            # one BehaviorParams per group
    attractiveness: np.ndarray | None = None  # (G, S); required
    distance: np.ndarray | None = None        # (S, S); unit complete graph if omitted
    allow_self_transition: bool = False

    def __post_init__(self):
        if self.distance is None:
            self.distance = unit_distance(self.store_count)
        if not self.behavior:
            self.behavior = tuple(BehaviorParams() for _ in range(self.group_count))
        self.group_quotas = tuple(int(q) for q in self.group_quotas)

    def validate(self):
        """Raise ValueError naming the offending field on any invariant breach."""
        if self.store_count < 2:
            raise ValueError("store_count: must be >= 2")
        if self.horizon_steps < 1:
            raise ValueError("horizon_steps: must be >= 1")
        if self.initial_agents > self.total_agents:
            raise ValueError(
                f"initial_agents: {self.initial_agents} exceeds total_agents {self.total_agents}"
            )
        if self.dwell_min > self.dwell_max:
            raise ValueError(f"dwell_min: {self.dwell_min} exceeds dwell_max {self.dwell_max}")
        if self.dwell_min < 1:
            raise ValueError("dwell_min: must be >= 1")
        if self.max_transitions < 1:
            raise ValueError("max_transitions: must be >= 1")
        if self.replenish_threshold < 1 or self.replenish_count < 1:
            raise ValueError("replenish_threshold/replenish_count: must be >= 1")
        if len(self.group_quotas) != self.group_count:
            raise ValueError(
                f"group_quotas: expected {self.group_count} entries, got {len(self.group_quotas)}"
            )
        if sum(self.group_quotas) != self.total_agents:
            raise ValueError(
                f"group_quotas: sum {sum(self.group_quotas)} != total_agents {self.total_agents}"
            )
        if any(q < 0 for q in self.group_quotas):
            raise ValueError("group_quotas: entries must be >= 0")
        if len(self.behavior) != self.group_count:
            raise ValueError(
                f"behavior: expected {self.group_count} parameter sets, got {len(self.behavior)}"
            )
        if self.attractiveness is None:
            raise ValueError("attractiveness: required")
        self.graph()  # shape/positivity checks live in StoreGraph
        return self

    def graph(self) -> StoreGraph:
        a = np.asarray(self.attractiveness, dtype=float)
        if a.shape != (self.group_count, self.store_count):
            raise ValueError(
                f"attractiveness: expected shape ({self.group_count}, {self.store_count}),"
                f" got {a.shape}"
            )
        return StoreGraph(distance=self.distance, attractiveness=a)


def store_utilities(
    graph: StoreGraph, params: BehaviorParams, group: int, congestion: np.ndarray
) -> np.ndarray:
    """Per-store utility: k*(A_j + spillover_j) + omega*congestion_j.

    spillover_j sums every other store's attractiveness decayed by
    (1 + d)^-lambda; the candidate restriction is applied later, so the sum
    always runs over all j' != j.
    """
    a = graph.attractiveness[group]
    decay = (1.0 + graph.distance) ** (-params.lam)
    np.fill_diagonal(decay, 0.0)
    spill = decay @ a
    return params.k * (a + spill) + params.omega * congestion


class ChoiceModel:
    """Next-store distribution with the static utility part precomputed.

    One instance per (graph, behavior) pair; per-call work is a vector add
    and a log-normalisation over the candidate stores.
    """

    def __init__(self, graph: StoreGraph, behavior, allow_self_transition: bool = False):
        self.graph = graph
        self.behavior = tuple(behavior)
        self.allow_self_transition = allow_self_transition
        if len(self.behavior) != graph.group_count:
            raise ValueError("behavior: one BehaviorParams per group required")
        self._static = np.stack(
            [
                store_utilities(graph, p, g, np.zeros(graph.store_count))
                for g, p in enumerate(self.behavior)
            ]
        )
        self._omega = np.array([p.omega for p in self.behavior])

    def log_probs(self, group: int, current_store: int, congestion: np.ndarray) -> np.ndarray:
        """Log choice probabilities over all stores; excluded stores get -inf."""
        u = self._static[group] + self._omega[group] * congestion
        if not np.all(np.isfinite(u)):
            raise ValueError("non-finite store utilities; check behavior params")
        if not self.allow_self_transition:
            if len(u) < 2:
                raise ValueError("empty candidate set: no store other than the current one")
            u[current_store] = -np.inf
        return log_normalize(u)

    def probs(self, group: int, current_store: int, congestion: np.ndarray) -> np.ndarray:
        p = np.exp(self.log_probs(group, current_store, congestion))
        # exp(-inf) leaves exact zeros on excluded stores
        return p

    def sample(self, group, current_store, congestion, rng):
        return categorical(rng, self.probs(group, current_store, congestion))


def _draw_dwell(cfg: SimConfig, rng: np.random.Generator) -> int:
    return int(rng.integers(cfg.dwell_min, cfg.dwell_max + 1))


def _spawn_agents(world, cfg, count, placer, rng, entries):
    for _ in range(count):
        eligible = np.flatnonzero(world.group_quota_remaining > 0)
        if len(eligible) == 0:
            break
        group = int(eligible[rng.integers(len(eligible))])
        world.group_quota_remaining[group] -= 1
        agent_id = world.agents_spawned
        store = int(placer(world, agent_id, group, rng))
        agent = AgentState(
            agent_id=agent_id,
            group=group,
            current_store=store,
            dwell_remaining=_draw_dwell(cfg, rng),
            path=[store],
        )
        world.agents.append(agent)
        world.agents_spawned += 1
        world.occupancy[store] += 1
        entries.append((agent_id, group, store))


def uniform_placer(world, agent_id, group, rng) -> int:
    return int(rng.integers(len(world.occupancy)))


def init_world(cfg: SimConfig, placer, rng: np.random.Generator) -> WorldState:
    """Spawn the initial population at step 0."""
    s = cfg.store_count
    world = WorldState(
        step=0,
        agents=[],
        occupancy=np.zeros(s, dtype=np.int64),
        congestion=np.zeros(s, dtype=np.int64),
        agents_spawned=0,
        group_quota_remaining=np.array(cfg.group_quotas, dtype=np.int64),
    )
    entries = []
    n = min(cfg.initial_agents, cfg.total_agents)
    _spawn_agents(world, cfg, n, placer, rng, entries)
    world.congestion = world.occupancy.copy()
    world.last_report = StepReport(step=0, move_entries=[], spawn_entries=entries)
    return world


def replenish(world: WorldState, cfg: SimConfig, placer, rng: np.random.Generator) -> WorldState:
    """Retire full batches of stationary agents and spawn replacements.

    Each time the unretired stationary count reaches the threshold and budget
    remains, the batch is retired (so the threshold re-arms) and up to
    replenish_count new agents are spawned, capped by the total-agent budget.
    Spawned groups are drawn uniformly among groups with remaining quota.
    """
    report = world.last_report
    while (
        world.stationary_unretired >= cfg.replenish_threshold
        and world.agents_spawned < cfg.total_agents
    ):
        world.stationary_unretired -= cfg.replenish_threshold
        report.retired += cfg.replenish_threshold
        n_new = min(cfg.replenish_count, cfg.total_agents - world.agents_spawned)
        _spawn_agents(world, cfg, n_new, placer, rng, report.spawn_entries)
    return world


def step_world(
    world: WorldState, cfg: SimConfig, mover, placer, rng: np.random.Generator
) -> WorldState:
    """Advance the world by one step, in place.

    Active agents (ascending id) count down their dwell; an agent hitting zero
    asks `mover` for its next store, moves there, and either redraws a dwell
    or goes stationary at the transition cap. Replenishment then runs, and the
    congestion snapshot is refreshed. The step's entries land in
    world.last_report.
    """
    if world.step >= cfg.horizon_steps:
        raise ValueError(f"world already at horizon step {cfg.horizon_steps}")
    world.step += 1
    world.congestion = world.occupancy.copy()
    report = StepReport(step=world.step, move_entries=[], spawn_entries=[])
    world.last_report = report

    for agent in world.agents:
        if agent.status != ACTIVE:
            continue
        agent.dwell_remaining -= 1
        if agent.dwell_remaining > 0:
            continue
        nxt = int(mover(world, agent, rng))
        world.occupancy[agent.current_store] -= 1
        agent.current_store = nxt
        agent.path.append(nxt)
        agent.transitions_made += 1
        report.move_entries.append((agent.agent_id, agent.group, nxt))
        if agent.transitions_made >= cfg.max_transitions:
            agent.status = STATIONARY
            agent.dwell_remaining = 0
            world.stationary_unretired += 1
        else:
            agent.dwell_remaining = _draw_dwell(cfg, rng)
            world.occupancy[nxt] += 1

    replenish(world, cfg, placer, rng)
    return world


def model_mover(choice: ChoiceModel):
    """Movement policy that samples directly from the choice model."""

    def mover(world, agent, rng):
        return choice.sample(agent.group, agent.current_store, world.congestion, rng)

    return mover


def agent_paths(world: WorldState):
    """(agent_id, group, path) for every spawned agent, partial paths included."""
    return [(a.agent_id, a.group, tuple(a.path)) for a in world.agents]


def completed_paths(world: WorldState, cfg: SimConfig):
    """(group, path) for agents that finished all transitions."""
    full = cfg.max_transitions + 1
    return [(a.group, tuple(a.path)) for a in world.agents if len(a.path) == full]
