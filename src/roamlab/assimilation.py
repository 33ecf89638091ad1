"""Particle-filter assimilation of store-inflow observations.

Three regimes share one machinery. With per-store counts (case 1) each moving
agent proposes n candidate moves from the choice model, weights them by
exp(inflow) store likelihoods and keeps one. Only the number of candidates at
each store matters, so one multinomial count row per agent is drawn and one
store is picked with probability proportional to count times weight; all
movers of a step are filtered at once, one row per agent. With
attribute-tagged counts (case 2) the same runs per behavioral group. With a
biased sample of whole transition sequences (case 3) the measured sequences
themselves are the particles: new agents draw a sequence weighted by the
summed store weights along it and then follow that sequence verbatim.

All weights are kept in log space and normalized by log-sum-exp.
"""

from dataclasses import dataclass

import numpy as np

from .model import (
    ChoiceModel,
    SimConfig,
    WorldState,
    init_world,
    model_mover,
    step_world,
    uniform_placer,
)
from .numerics import categorical, log_normalize_rows
from .twin import SequencePool

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

    def row(self, group=None) -> np.ndarray:
        """The total row, or the row of each given group (a scalar or an array)."""
        if group is None:
            return self.log_w
        if self.log_w_attr is None:
            raise ValueError("no per-attribute weights available")
        return self.log_w_attr[group]

    def weights(self, group=None) -> np.ndarray:
        return np.exp(self.row(group))


def update_store_weights(
    prev: StoreWeightVector, counts, accumulate: bool = False
) -> StoreWeightVector:
    """Fold one step's inflow counts, a (G, S) row by group and store, into
    the store weights.

    Fresh mode rebuilds the weights from this step alone: log w_j = inflow_j,
    normalized, where inflow_j is the per-store total over groups.
    Accumulation mode keeps multiplying the running weights by exp(inflow_j),
    matching the literal multiplicative update. Attribute rows get the same
    rule with their own counts. The result is numbered one step past prev.
    """
    counts = np.asarray(counts)
    base = prev.log_w if accumulate else 0.0
    log_w = log_normalize_rows(base + counts.sum(axis=0).astype(float))
    base_attr = prev.log_w_attr if accumulate and prev.log_w_attr is not None else 0.0
    attr = log_normalize_rows(base_attr + counts.astype(float))
    step = 1 if prev.step is None else prev.step + 1
    return StoreWeightVector(step=step, log_w=log_w, log_w_attr=attr)


def filtered_moves(
    rng: np.random.Generator, probs: np.ndarray, log_w: np.ndarray, n: int
) -> np.ndarray:
    """Filter one step's moves: each mover's next store, by candidate counts.

    probs is (m, S), the choice row of each mover. log_w holds the store log
    weights: the (S,) total row for every mover (case 1), or one (m, S) group
    row per mover (case 2). Each mover proposes n candidates from its row,
    weights each by its store's likelihood and keeps one. The candidates are
    exchangeable, so the pick depends on them only through c_j, the number of
    candidates at store j: c is one multinomial row per mover, and store j is
    kept with probability c_j w_j / sum_j' c_j' w_j'. Resampling n candidates
    by weight and keeping one uniformly has the same law. The sum is taken in
    log space, so far-negative log weights do not underflow, and the cost
    does not grow with n.

    Raises ValueError if a row's candidate weights are all zero or non-finite.
    """
    counts = rng.multinomial(n, probs)
    log_cw = np.log(counts, where=counts > 0, out=np.full(counts.shape, -np.inf)) + log_w
    if not np.all(np.isfinite(log_cw.max(axis=-1))):
        raise ValueError("candidate weights are all zero or non-finite")
    return categorical(rng, np.exp(log_normalize_rows(log_cw)))


def place_new_agents(
    sw: StoreWeightVector, rng: np.random.Generator, count: int, groups=None
) -> np.ndarray:
    """Initial stores for count freshly spawned agents, drawn from the store
    weights; with groups, agent i draws from the row of groups[i]."""
    if groups is None:
        return categorical(rng, sw.weights(), size=count)
    return categorical(rng, sw.weights(groups))


def weight_sequences(pool: SequencePool, sw: StoreWeightVector) -> np.ndarray:
    """Selection probability of every pool entry, (P,): proportional to the
    sum of the store weights along its path.

    The sum (not product) runs over the normalized store weights; repeated
    stores count once per visit. It is taken in log space, as a log-sum-exp of
    each path's store log weights shifted by that path's largest one: every
    shifted sum is at least 1, so however far negative the log weights drift,
    no path weight underflows to zero.

    Raises ValueError if every entry's weight is zero or non-finite.
    """
    log_w = sw.log_w[pool.paths]
    top = log_w.max(axis=1)
    log_sums = top + np.log(np.exp(log_w - top[:, None]).sum(axis=1))
    if not np.isfinite(log_sums.max()):
        raise ValueError("sequence weights are all zero or non-finite")
    return np.exp(log_normalize_rows(log_sums))


@dataclass
class AssimOptions:
    """Switches for the assimilation loop; defaults follow the main setup."""

    particle_count: int = 100          # candidates per filtered move (cases 1-2)
    weight_accumulation: bool = False
    random_baseline: bool = False
    filter_moves: bool = True          # per-move particle filtering (cases 1-2)
    weighted_placement: bool = True    # weight-driven spawn placement (cases 1-2)


@dataclass
class AssimRun:
    world: WorldState
    assignments: np.ndarray  # (R, 4) rows (step, agent_id, entry_id, attr); case 3 only


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

    observations is the (T+1, G, S) array of inflow counts by step, group and
    store, covering steps 0..horizon; the weights applied during step t come
    from the inflows observed at step t. Case 3 requires a sequence
    pool whose paths span the full transition count; its sequence weights are
    recomputed once per step, when the store weights change. The case-3 random
    control draws pool entries uniformly and never weights the pool.
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
    assignments = []  # one (k, 4) block per spawn batch
    weighted = case == 3 and not options.random_baseline  # sequence weights in use

    if case == 3:
        if pool.paths.shape[1] != cfg.max_transitions + 1:
            raise ValueError(
                f"pool paths have length {pool.paths.shape[1]},"
                f" expected {cfg.max_transitions + 1}"
            )
        followed = np.zeros(cfg.total_agents, dtype=np.int64)  # pool entry of each agent
        seq = weight_sequences(pool, sw) if weighted else None

        def placer(world, ids, groups, rng):
            if weighted:
                entries = categorical(rng, seq, size=len(ids))
            else:
                entries = rng.integers(pool.size, size=len(ids))
            followed[ids] = entries
            step = np.full(len(ids), world.step)
            assignments.append(np.column_stack([step, ids, entries, pool.attrs[entries]]))
            return pool.paths[entries, 0]

        def mover(world, ids, rng):
            return pool.paths[followed[ids], world.transitions[ids] + 1]

    else:
        choice = ChoiceModel(cfg.graph(), cfg.behavior, cfg.allow_self_transition)
        n = options.particle_count
        by_group = case == 2

        if options.filter_moves:

            def mover(world, ids, rng):
                groups = world.group[ids]
                probs = choice.probs(groups, world.store[ids], world.congestion)
                return filtered_moves(rng, probs, sw.row(groups if by_group else None), n)

        else:
            mover = model_mover(choice)

        if options.weighted_placement:

            def placer(world, ids, groups, rng):
                return place_new_agents(sw, rng, len(ids), groups if by_group else None)

        else:
            placer = uniform_placer

    # Initial population: no observation has been consumed yet, so cases 1-2
    # place uniformly (sw is uniform) and case 3 draws uniformly from the pool.
    world = init_world(cfg, placer, rng)
    for t in range(1, cfg.horizon_steps + 1):
        sw = update_store_weights(sw, observations[t], accumulate=options.weight_accumulation)
        if weighted:
            seq = weight_sequences(pool, sw)
        step_world(world, cfg, mover, placer, rng)
    rows = np.concatenate(assignments) if assignments else np.empty((0, 4), dtype=np.int64)
    return AssimRun(world=world, assignments=rows)
