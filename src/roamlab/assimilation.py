"""Particle-filter assimilation of store-inflow observations.

Three regimes share one machinery and one (G, S) table of store log weights,
a row per behavioral group built from that group's inflow counts. With
attribute-tagged counts (case 2) each moving agent proposes n candidate moves
from the choice model, weights them by exp(inflow) store likelihoods of its
group's row and keeps one. Only the number of candidates at each store
matters, so one multinomial count row per agent is drawn and one store is
picked with probability proportional to count times weight; all movers of a
step are filtered at once, one row per agent. With per-store counts (case 1)
the same runs with every group seeing the per-store totals. With a biased
sample of whole transition sequences (case 3) the measured sequences
themselves are the particles: new agents draw a sequence weighted by the
summed store weights along it, every group again seeing the totals, and then
follow that sequence verbatim.

All weights are kept in log space and normalized by log-sum-exp.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .model import ChoiceModel, SimConfig, WorldState, model_mover, run_world, uniform_placer
from .numerics import categorical, log_normalize_rows
from .twin import SequencePool

@dataclass
class StoreWeightVector:
    """One step's normalized store log weights, a row per group."""

    step: int
    log_w: np.ndarray  # (G, S), rows normalized


def store_weights(observations, accumulate: bool = False) -> np.ndarray:
    """Every step's store log weights, (T+1, G, S), from the inflow counts by
    step, group and store: row t normalizes the counts of step t, or with
    accumulate their sum over steps 1..t, which is the literal update
    w *= exp(inflow) of every step up to t, normalizing being shift-invariant.
    Row 0 normalizes zero counts, so it is uniform."""
    counts = np.array(observations)  # a copy: row 0 is zeroed in it
    counts[0] = 0
    if accumulate:
        counts = counts.cumsum(axis=0)
    return log_normalize_rows(counts.astype(float))


def filtered_moves(
    rng: np.random.Generator, probs: np.ndarray, log_w: np.ndarray, n: int
) -> np.ndarray:
    """Filter one step's moves: each mover's next store, by candidate counts.

    probs is (m, S), the choice row of each mover. log_w holds the store log
    weights: one (m, S) row per mover, its group's, or one (S,) row for all.
    Each mover proposes n candidates from its row, weights each by its
    store's likelihood and keeps one. The candidates are exchangeable, so the
    pick depends on them only through c_j, the number of candidates at store
    j: c is one multinomial row per mover, and store j is kept with
    probability c_j w_j / sum_j' c_j' w_j'. Resampling n candidates by weight
    and keeping one uniformly has the same law. The sum is taken in log space,
    so far-negative log weights do not underflow, and the cost does not grow
    with n.

    Raises ValueError if a row's candidate weights are all zero or non-finite.
    """
    counts = rng.multinomial(n, probs)
    log_cw = np.log(counts, where=counts > 0, out=np.full(counts.shape, -np.inf)) + log_w
    if not np.all(np.isfinite(log_cw.max(axis=-1))):
        raise ValueError("candidate weights are all zero or non-finite")
    return categorical(rng, np.exp(log_normalize_rows(log_cw)))


def place_new_agents(log_w: np.ndarray, rng: np.random.Generator, groups) -> np.ndarray:
    """Initial stores for freshly spawned agents: agent i draws from its
    group's row of the step's (G, S) store log weights, log_w[groups[i]]."""
    return categorical(rng, np.exp(log_w[groups]))


def weight_sequences(pool: SequencePool, sw: StoreWeightVector) -> np.ndarray:
    """Selection probability of every pool entry, (P,): proportional to the
    sum of the store weights of the entry's group along its path.

    The sum (not product) runs over the normalized store weights; repeated
    stores count once per visit. It is taken in log space, as a log-sum-exp of
    each path's store log weights shifted by that path's largest one: every
    shifted sum is at least 1, so however far negative the log weights drift,
    no path weight underflows to zero.

    Raises ValueError if every entry's weight is zero or non-finite.
    """
    log_w = sw.log_w[pool.attrs[:, None], pool.paths]
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
    random_baseline: bool = False      # uniform case-3 assignment: the case3_random role
    filter_moves: bool = True          # per-move particle filtering (cases 1-2)
    weighted_placement: bool = True    # weight-driven spawn placement (cases 1-2)


def run_baseline(cfg: SimConfig, rng: np.random.Generator) -> WorldState:
    """Plain model run without any observation input."""
    return run_world(cfg, model_mover(ChoiceModel(cfg)), uniform_placer, rng)


def run_assimilation(
    cfg: SimConfig,
    observations,
    case: int,
    pool: SequencePool | None = None,
    *,
    rng: np.random.Generator,
    options: AssimOptions | None = None,
) -> tuple[WorldState, np.ndarray | None]:
    """Run the assimilation world to the horizon under one regime; return
    (world, assignments).

    observations is the (T+1, G, S) array of inflow counts by step, group and
    store, covering steps 0..horizon. The store weights of every step are
    built from them in one store_weights call before the run: log_w[0] is
    uniform, since no observation has been consumed when the initial
    population is placed, and log_w[t], applied during step t, takes in the
    inflows observed at step t. Case 2 weights each group by its own counts;
    cases 1 and 3 weight every group by the per-store totals. Case 3 requires
    a sequence pool whose paths span the full transition count; each spawn
    batch weights it once, by the store weights of its step. The case-3
    random control draws pool entries uniformly and never weights the pool.

    assignments is None in cases 1 and 2; in case 3 it holds one (spawn
    step, agent_id, entry_id, attr) row per spawned agent, in id order.
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
    if case != 2:  # every group sees the per-store totals
        observations = observations.sum(axis=1, keepdims=True).repeat(cfg.group_count, axis=1)
    log_w = store_weights(observations, options.weight_accumulation)

    if case == 3:
        if pool.paths.shape[1] != cfg.max_transitions + 1:
            raise ValueError(
                f"pool paths have length {pool.paths.shape[1]},"
                f" expected {cfg.max_transitions + 1}"
            )
        followed = np.zeros(cfg.total_agents, dtype=np.int64)  # pool entry of each agent

        def placer(world, ids, groups, rng):
            if options.random_baseline:
                entries = rng.integers(pool.size, size=len(ids))
            else:
                # a record only for the benchmark tracer, whose note reads its step
                seq = weight_sequences(pool, StoreWeightVector(world.step, log_w[world.step]))
                entries = categorical(rng, seq, size=len(ids))
            followed[ids] = entries
            return pool.paths[entries, 0]

        def mover(world, ids, rng):
            return pool.paths[followed[ids], world.transitions[ids] + 1]

    else:
        choice = ChoiceModel(cfg)
        n = options.particle_count

        if options.filter_moves:

            def mover(world, ids, rng):
                groups = world.group[ids]
                probs = np.exp(choice.log_probs(groups, world.stores(ids), world.congestion))
                return filtered_moves(rng, probs, log_w[world.step][groups], n)

        else:
            mover = model_mover(choice)

        if options.weighted_placement:

            def placer(world, ids, groups, rng):
                return place_new_agents(log_w[world.step], rng, groups)

        else:
            placer = uniform_placer

    world = run_world(cfg, mover, placer, rng)
    assignments = None
    if case == 3:
        n = world.agents_spawned
        assignments = np.column_stack(
            [world.entered[:n, 0], np.arange(n), followed[:n], pool.attrs[followed[:n]]]
        )
    return world, assignments
