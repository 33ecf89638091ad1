"""Per-agent reference kernels: one agent and one draw at a time, in plain Python.

roamlab draws all movers of a step, and all agents of a spawn batch, in one
batched call. These kernels state the laws those batches must follow; the law
tests in test_law.py draw from both and compare the counts. The observation
oracle counts a finished world's store entries one at a time, the reference
for the batched count of twin.run_truth. The spawn oracle draws a batch's
groups one agent at a time, the reference for the quota-safe runs of
model._spawn_agents, and the CSV oracle writes rows through csv.writer, the
reference for the bytes of every io.write_*. The inverse-CDF oracle picks the
index numerics.categorical must draw for a given uniform, with no numpy search.
The store-weight fold builds the weights one step at a time, the reference for
the one-call assimilation.store_weights.
"""

import csv
import math

import numpy as np

from roamlab.numerics import log_normalize_rows


def choice_probs(graph, group, current, congestion, allow_self_transition=False):
    """Next-store probabilities of one agent, with math.exp over the utilities
    u_j = k*(A_gj + sum_{j'!=j} A_gj' * (1 + d_jj')^-lam) + omega*c_j, with the
    group's coefficients read off the validated graph."""
    a, d = graph.attractiveness[group], graph.distance
    omega, k, lam = (float(getattr(graph, f)[group]) for f in ("omega", "k", "lam"))
    stores = range(len(a))
    u = {
        j: k * (a[j] + sum(a[jp] * (1.0 + d[j, jp]) ** -lam for jp in stores if jp != j))
        + omega * float(congestion[j])
        for j in stores
        if allow_self_transition or j != current
    }
    top = max(u.values())
    z = sum(math.exp(v - top) for v in u.values())
    return [math.exp(u[j] - top) / z if j in u else 0.0 for j in stores]


def inverse_cdf(probs, u):
    """The index numerics.categorical draws from a list of probabilities for
    the uniform u: u is scaled by the running total, and the index is the
    count of running sums <= u * total."""
    sums, total = [], 0.0
    for p in probs:
        total += p
        sums.append(total)
    return sum(1 for s in sums if s <= u * total)


def draw(rng, probs):
    """One inverse-CDF draw from a list of probabilities."""
    return inverse_cdf(probs, rng.random())


def filtered_move(rng, probs, log_w, n):
    """Propose n candidate stores from probs, weight each by exp(log_w[store]),
    and select one by weight."""
    candidates = [draw(rng, probs) for _ in range(n)]
    w = [math.exp(log_w[c]) for c in candidates]
    z = sum(w)
    return candidates[draw(rng, [x / z for x in w])]


def sequence_probs(paths, rows):
    """Selection probability of each pool path: the sum of exp(row[s]) over
    its visits, with row the path's own store log weights (rows[i] for
    paths[i]), normalized over the pool."""
    raw = [sum(math.exp(row[s]) for s in path) for path, row in zip(paths, rows)]
    z = sum(raw)
    return [r / z for r in raw]


def fold_store_weights(observations, accumulate=False):
    """The (T+1, G, S) store log weights of (T+1, G, S) inflow counts, folded
    in one step at a time: step 0 is uniform, and each later step normalizes
    its own counts, or with accumulate the previous step's log weights plus
    its counts, which multiplies the running weights by exp(inflow)."""
    steps, groups, stores = np.shape(observations)
    weights = [np.full((groups, stores), -np.log(stores))]
    for counts in observations[1:]:
        base = weights[-1] if accumulate else 0.0
        weights.append(log_normalize_rows(base + np.asarray(counts).astype(float)))
    return np.stack(weights)


def rebuild_observations(world, horizon_steps, store_count, group_count,
                         count_spawn_as_inflow=True):
    """The (T+1, G, S) inflow counts of a finished world, by a plain walk over
    every spawned agent's path and entry steps: each visited store is one
    entry at the step it was entered. Position 0, the spawn placement, counts
    only with count_spawn_as_inflow."""
    counts = np.zeros((horizon_steps + 1, group_count, store_count), dtype=np.int64)
    for agent in range(world.agents_spawned):
        group = int(world.group[agent])
        stores, steps = world.path[agent].tolist(), world.entered[agent].tolist()
        for position, (store, step) in enumerate(zip(stores, steps)):
            if store < 0:
                break
            if position > 0 or count_spawn_as_inflow:
                counts[step, group, store] += 1
    return counts


def spawn_groups(quota, count, rng):
    """The groups of a spawn batch of up to count agents, drawn one at a time,
    each uniformly among the groups with quota left; quota is spent in place."""
    eligible = np.flatnonzero(quota > 0)
    groups = []
    for _ in range(count):
        if len(eligible) == 0:
            break
        group = int(eligible[rng.integers(len(eligible))])
        quota[group] -= 1
        if quota[group] == 0:
            eligible = np.flatnonzero(quota > 0)
        groups.append(group)
    return groups


def cell_rows(array):
    """(index..., value) rows of every cell of a dense array, in C order."""
    array = np.asarray(array)
    return [(*index, value) for index, value in zip(np.ndindex(array.shape), array.ravel().tolist())]


def csv_bytes(path, header, rows):
    """The bytes csv.writer writes for the header row, then every row."""
    with open(path, "w", newline="", encoding="utf-8") as f:
        w = csv.writer(f)
        w.writerow(header)
        w.writerows(rows)
    with open(path, "rb") as f:
        return f.read()
