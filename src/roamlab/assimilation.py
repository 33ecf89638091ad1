"""Particle-filter assimilation of store-inflow observations.

Three regimes share one machinery. With per-store counts (case 1) an agent's
candidate moves are proposed from the choice model, weighted by exp(inflow)
store likelihoods, and one survivor is selected. With attribute-tagged counts
(case 2) the same runs per behavioral group. With a biased sample of whole
transition sequences (case 3) the measured sequences themselves are the
particles: new agents draw a sequence weighted by the summed store weights
along it and then follow that sequence verbatim.

All weights are kept in log space and normalized by log-sum-exp.
"""

from dataclasses import dataclass, field

import numpy as np

from .model import (
    AgentState,
    ChoiceModel,
    SimConfig,
    WorldState,
    init_world,
    model_mover,
    step_world,
    uniform_placer,
)
from .numerics import categorical, log_normalize, logsumexp
from .twin import SequencePool

NEXT_STORE = "next-store"
SEQUENCE = "sequence"


@dataclass
class StoreWeightVector:
    """Normalized per-store log weights for one step, total and per attribute.

    step is None for the uniform initial vector (no observation consumed yet).
    """

    step: int | None
    log_w: np.ndarray                 # (S,)
    log_w_attr: np.ndarray | None = None  # (G, S), rows normalized

    @classmethod
    def uniform(cls, store_count: int, group_count: int | None = None):
        log_w = np.full(store_count, -np.log(store_count))
        attr = None
        if group_count is not None:
            attr = np.tile(log_w, (group_count, 1))
        return cls(step=None, log_w=log_w, log_w_attr=attr)

    def row(self, group: int | None = None) -> np.ndarray:
        if group is None:
            return self.log_w
        if self.log_w_attr is None:
            raise ValueError("no per-attribute weights available")
        return self.log_w_attr[group]

    def weights(self, group: int | None = None) -> np.ndarray:
        return np.exp(self.row(group))


def update_store_weights(
    prev: StoreWeightVector, obs, accumulate: bool = False
) -> StoreWeightVector:
    """Fold one step's inflow counts into the store weights.

    Fresh mode rebuilds the weights from this step alone: log w_j = inflow_j,
    normalized. Accumulation mode keeps multiplying the running weights by
    exp(inflow_j), matching the literal multiplicative update. Attribute rows
    get the same rule with their own counts.
    """
    if prev.step is not None and obs.step != prev.step + 1:
        raise ValueError(f"observation step {obs.step} does not follow {prev.step}")
    inflow = np.asarray(obs.inflow, dtype=float)
    base = prev.log_w if accumulate else 0.0
    log_w = log_normalize(base + inflow)
    attr = None
    if obs.inflow_by_attr is not None:
        rows = np.asarray(obs.inflow_by_attr, dtype=float)
        base_attr = prev.log_w_attr if accumulate and prev.log_w_attr is not None else 0.0
        raw = base_attr + rows
        attr = np.vstack([log_normalize(r) for r in raw])
    return StoreWeightVector(step=obs.step, log_w=log_w, log_w_attr=attr)


@dataclass
class ParticleSet:
    """Weighted candidate ensemble: next stores, or sequence-pool entry ids.

    The log weights are normalized on construction, so exp(log_weights) sums
    to 1 for every set, however it was built.
    """

    kind: str
    candidates: np.ndarray
    log_weights: np.ndarray

    def __post_init__(self):
        if len(self.candidates) != len(self.log_weights):
            raise ValueError("candidates and log_weights must have equal length")
        if len(self.candidates) == 0:
            raise ValueError("empty particle set")
        z = logsumexp(self.log_weights)
        if not np.isfinite(z):
            raise ValueError("particle weights are all zero or non-finite")
        self.log_weights = self.log_weights - z

    @property
    def particle_count(self) -> int:
        return len(self.candidates)

    @property
    def weights(self) -> np.ndarray:
        return np.exp(self.log_weights)


def propose_particles(
    agent: AgentState,
    world: WorldState,
    choice: ChoiceModel,
    n: int,
    rng: np.random.Generator,
) -> np.ndarray:
    """Draw n candidate next stores from the choice model, unweighted."""
    probs = choice.probs(agent.group, agent.current_store, world.congestion)
    return categorical(rng, probs, size=n)


def weight_particles(
    candidates: np.ndarray, sw: StoreWeightVector, group: int | None = None
) -> ParticleSet:
    """Weight each candidate next store by its store log weight (its likelihood)."""
    return ParticleSet(NEXT_STORE, candidates, sw.row(group)[candidates])


def resample_and_select(
    ps: ParticleSet, rng: np.random.Generator, explicit_resample: bool = False
):
    """Pick one particle by weight and return its candidate.

    The default collapses resample-then-select-one into a single categorical
    draw, which has the same marginal law. explicit_resample materializes the
    full multinomially resampled set first and selects uniformly from it.
    """
    w = ps.weights
    if explicit_resample:
        resampled = ps.candidates[categorical(rng, w, size=ps.particle_count)]
        return resampled[int(rng.integers(ps.particle_count))]
    return ps.candidates[categorical(rng, w)]


def place_new_agent(
    sw: StoreWeightVector, rng: np.random.Generator, group: int | None = None
) -> int:
    """Initial store for a freshly spawned agent, drawn from the store weights."""
    return int(categorical(rng, sw.weights(group)))


def weight_sequences(pool: SequencePool, sw: StoreWeightVector) -> ParticleSet:
    """Weight every pool entry by the sum of store weights along its path.

    The sum (not product) runs in the linear domain over the normalized store
    weights; repeated stores count once per visit.
    """
    w_store = sw.weights()
    raw = w_store[pool.paths].sum(axis=1)
    with np.errstate(divide="ignore"):
        lw = np.log(raw)
    return ParticleSet(SEQUENCE, np.arange(pool.size), lw)


def assign_sequence(
    ps: ParticleSet, rng: np.random.Generator, random_baseline: bool = False
) -> int:
    """Draw a pool entry id by sequence weight (or uniformly, as the control)."""
    if ps.kind != SEQUENCE:
        raise ValueError("assign_sequence applies to sequence particles")
    if random_baseline:
        return int(ps.candidates[int(rng.integers(ps.particle_count))])
    return int(ps.candidates[categorical(rng, ps.weights)])


@dataclass
class AssimOptions:
    """Switches for the assimilation loop; defaults follow the main setup."""

    particle_count: int = 100          # candidates per filtered move (cases 1-2)
    weight_accumulation: bool = False
    explicit_resample: bool = False
    random_baseline: bool = False
    filter_moves: bool = True          # per-move particle filtering (cases 1-2)
    weighted_placement: bool = True    # weight-driven spawn placement (cases 1-2)


@dataclass
class AssimRun:
    world: WorldState
    assignments: list = field(default_factory=list)  # (step, agent_id, entry_id, attr)


def run_baseline(cfg: SimConfig, rng: np.random.Generator) -> WorldState:
    """Plain model run without any observation input."""
    choice = ChoiceModel(cfg.graph(), cfg.behavior, cfg.allow_self_transition)
    mover = model_mover(choice)
    world = init_world(cfg, uniform_placer, rng)
    for _ in range(cfg.horizon_steps):
        step_world(world, cfg, mover, uniform_placer, rng)
    return world


def run_assimilation(
    cfg: SimConfig,
    observations,
    case: int,
    pool: SequencePool | None = None,
    *,
    rng: np.random.Generator,
    options: AssimOptions | None = None,
) -> AssimRun:
    """Advance the assimilation world to the horizon under one regime.

    observations must cover steps 0..horizon; the weights applied during step
    t come from the inflows observed at step t. Case 3 requires a sequence
    pool whose paths span the full transition count; its sequence weights are
    recomputed once per step, when the store weights change.
    """
    if case not in (1, 2, 3):
        raise ValueError(f"case must be 1, 2, or 3, got {case}")
    if case == 3 and pool is None:
        raise ValueError("case 3 requires a sequence pool")
    options = options or AssimOptions()
    if len(observations) < cfg.horizon_steps + 1:
        raise ValueError(
            f"observation stream covers {len(observations)} steps,"
            f" horizon needs {cfg.horizon_steps + 1}"
        )

    sw = StoreWeightVector.uniform(cfg.store_count, cfg.group_count)
    run = AssimRun(world=None)

    if case == 3:
        if pool.paths.shape[1] != cfg.max_transitions + 1:
            raise ValueError(
                f"pool paths have length {pool.paths.shape[1]},"
                f" expected {cfg.max_transitions + 1}"
            )
        followed = {}
        seq = weight_sequences(pool, sw)

        def placer(world, agent_id, group, rng):
            entry = assign_sequence(seq, rng, random_baseline=options.random_baseline)
            followed[agent_id] = entry
            run.assignments.append((world.step, agent_id, entry, int(pool.attrs[entry])))
            return int(pool.paths[entry][0])

        def mover(world, agent, rng):
            return int(pool.paths[followed[agent.agent_id]][agent.transitions_made + 1])

    else:
        choice = ChoiceModel(cfg.graph(), cfg.behavior, cfg.allow_self_transition)
        n = options.particle_count
        attr_of = (lambda group: group) if case == 2 else (lambda group: None)

        if options.filter_moves:

            def mover(world, agent, rng):
                candidates = propose_particles(agent, world, choice, n, rng)
                ps = weight_particles(candidates, sw, group=attr_of(agent.group))
                return resample_and_select(ps, rng, options.explicit_resample)

        else:
            mover = model_mover(choice)

        if options.weighted_placement:

            def placer(world, agent_id, group, rng):
                return place_new_agent(sw, rng, group=attr_of(group))

        else:
            placer = uniform_placer

    # Initial population: no observation has been consumed yet, so cases 1-2
    # place uniformly (sw is uniform) and case 3 draws uniformly from the pool.
    run.world = init_world(cfg, placer, rng)
    for t in range(1, cfg.horizon_steps + 1):
        if observations[t].step != t:
            raise ValueError(
                f"observation stream misaligned: expected step {t}, got {observations[t].step}"
            )
        sw = update_store_weights(sw, observations[t], accumulate=options.weight_accumulation)
        if case == 3:
            seq = weight_sequences(pool, sw)
        step_world(run.world, cfg, mover, placer, rng)
    return run
