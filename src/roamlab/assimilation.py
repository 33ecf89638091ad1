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

from .model import ChoiceModel, SimConfig, Streams, model_mover, run_worlds, uniform_placer
from .numerics import categorical, log_normalize_rows
from .twin import SequencePool, run_truth

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
    """Initial stores for freshly spawned agents: agent i draws from row
    groups[i] of the store log weights log_w, its group's row of the step."""
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


# the assimilation roles by policy family; the worlds of one run_assimilation
# call are of one family, which shares its movers and placers
FAMILIES = (("case1", "case2"), ("case3", "case3_random"))


@dataclass
class AssimOptions:
    """Switches for the assimilation loop; defaults follow the main setup."""

    particle_count: int = 100          # candidates per filtered move (cases 1-2)
    weight_accumulation: bool = False
    filter_moves: bool = True          # per-move particle filtering (cases 1-2)
    weighted_placement: bool = True    # weight-driven spawn placement (cases 1-2)


def run_baseline(cfg: SimConfig, rngs, truth=None):
    """Plain model runs without any observation input, one world per
    generator, stepped in one lockstep stack; returns the list of worlds.

    truth, a (truth config, generators, count_spawn_as_inflow) triple, adds
    those truth worlds to the stack, the two sharing the plain model's
    policies: the call is twin.run_truth's with beside, whose (worlds,
    observations) lists it returns, the baseline worlds following the truth
    worlds.
    """
    if truth is not None:
        truth_cfg, truth_rngs, count_spawn_as_inflow = truth
        return run_truth(truth_cfg, truth_rngs, count_spawn_as_inflow, beside=(cfg, rngs))
    return run_worlds(cfg, model_mover(ChoiceModel(cfg)), uniform_placer, list(rngs))


def run_assimilation(
    cfg: SimConfig,
    observations,
    roles,
    pool=None,
    *,
    rng,
    options=None,
):
    """Run assimilation worlds, one per generator of rng, to the horizon in
    one lockstep stack (model.run_worlds); return the lists (worlds,
    assignments).

    observations, roles and pool hold one entry per world; pool may be
    omitted. roles are the worlds' role labels, all of one family of
    FAMILIES: case1 and case2, or case3 and its random control case3_random.
    options, one AssimOptions (the defaults if omitted), serves every world.
    Each world's observations are the (T+1, G, S) array of inflow counts by
    step, group and store, covering steps 0..horizon. The store weights of
    every step are built from them in one store_weights call before the run:
    log_w[0] is uniform, since no observation has been consumed when the
    initial population is placed, and log_w[t], applied during step t, takes
    in the inflows observed at step t. Case 2 weights each group by its own
    counts; cases 1 and 3 weight every group by the per-store totals. Case 3
    requires a sequence pool whose paths span the full transition count;
    each spawn batch weights it once, by the store weights of its step. The
    case3_random control draws pool entries uniformly and never weights the
    pool.

    A world's assignments are None in cases 1 and 2; in case 3 they hold one
    (spawn step, agent_id, entry_id, attr) row per spawned agent, in id order.
    """
    rngs, roles = list(rng), list(roles)
    pools = list(pool or [None] * len(rngs))
    options = options or AssimOptions()
    if not any(set(roles) <= set(family) for family in FAMILIES):
        raise ValueError(f"roles {roles} are not all of one family of {FAMILIES}")
    sequences = set(roles) <= set(FAMILIES[1])  # case 3 and its random control
    for p, obs in zip(pools, observations):
        if sequences and p is None:
            raise ValueError("case 3 requires a sequence pool")
        if len(obs) < cfg.horizon_steps + 1:
            raise ValueError(
                f"observation stream covers {len(obs)} steps, horizon needs {cfg.horizon_steps + 1}"
            )
        if sequences and p.paths.shape[1] != cfg.max_transitions + 1:
            raise ValueError(
                f"pool paths have length {p.paths.shape[1]}, expected {cfg.max_transitions + 1}"
            )
    # every step's store weights of every world, (W, T+1, G, S), filled a
    # world at a time; every group sees the per-store totals but in case 2
    log_w = np.empty((len(rngs), cfg.horizon_steps + 1, cfg.group_count, cfg.store_count))
    for w, (role, obs) in enumerate(zip(roles, observations)):
        if role != "case2":
            obs = obs.sum(axis=1, keepdims=True).repeat(cfg.group_count, axis=1)
        log_w[w] = store_weights(obs[: cfg.horizon_steps + 1], options.weight_accumulation)

    if sequences:
        n = cfg.total_agents
        # the pools end to end: entry e of world w is row offsets[w] + e
        offsets = np.cumsum([0, *(p.size for p in pools[:-1])])
        paths = np.concatenate([p.paths for p in pools])
        followed = np.zeros(len(rngs) * n, dtype=np.int64)  # pool row of each agent of the run

        def placer(world, ids, groups, rng):
            parts = rng.parts if isinstance(rng, Streams) else [(rng, 0, len(ids))]
            rows = np.empty(len(ids), dtype=np.int64)
            for r, a, z in parts:
                w = ids[a] // n
                if roles[w] == "case3_random":
                    entries = r.integers(pools[w].size, size=z - a)
                else:
                    # a record only for the benchmark tracer, whose note reads its step
                    sw = StoreWeightVector(world.step, log_w[w, world.step])
                    entries = categorical(r, weight_sequences(pools[w], sw), size=z - a)
                rows[a:z] = offsets[w] + entries
            followed[ids] = rows
            return paths[rows, 0]

        def mover(world, ids, rng):
            return paths[followed[ids], world.transitions[ids] + 1]

    else:
        choice, n = ChoiceModel(cfg), options.particle_count

        if options.filter_moves:

            def mover(world, ids, rng):
                groups = world.group[ids]
                probs = np.exp(choice.log_probs(groups, world.stores(ids), world.load(ids)))
                return filtered_moves(rng, probs, log_w[world.world_of(ids), world.step, groups], n)

        else:
            mover = model_mover(choice)

        if options.weighted_placement:

            def placer(world, ids, groups, rng):
                return place_new_agents(log_w[:, world.step].reshape(-1, cfg.store_count), rng,
                                        world.world_of(ids) * cfg.group_count + groups)

        else:
            placer = uniform_placer

    worlds = run_worlds(cfg, mover, placer, rngs)
    assignments = [None] * len(worlds)
    if sequences:
        for w, world in enumerate(worlds):
            k = world.agents_spawned
            entries = followed[w * cfg.total_agents :][:k] - offsets[w]
            assignments[w] = np.column_stack(
                [world.entered[:k, 0], np.arange(k), entries, pools[w].attrs[entries]]
            )
    return worlds, assignments
