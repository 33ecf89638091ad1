"""The batched kernels follow the per-agent laws of tests/reference.py.

Each law test makes 10^5 draws per row from one batched call, with a fixed
seed, and requires a chi-square p-value above 0.001: against the reference
probabilities where they are exact, and against 10^5 draws of the per-agent
chain (a two-sample test) for the filtered moves. The hypothesis tests check
the properties that hold draw by draw, and that one store_weights call builds
the weights the per-step fold does.
"""

import numpy as np
import reference
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st
from scipy import stats

from roamlab.assimilation import (
    StoreWeightVector,
    filtered_moves,
    store_weights,
    weight_sequences,
)
from roamlab.model import (
    ChoiceModel,
    SimConfig,
    _spawn_agents,
    model_mover,
    new_worlds,
)
from roamlab.numerics import categorical
from roamlab.twin import SequencePool

from conftest import make_agent, make_graph, make_world

N = 100_000


def two_group_scene(allow_self_transition=False):
    """A 5-store, 2-group choice model with a non-unit distance matrix and
    non-zero congestion, and a world holding three agents at different
    (group, store) rows."""
    rng = np.random.default_rng(3)
    a = rng.uniform(1, 3, size=(2, 5))
    d = rng.uniform(0, 2, size=(5, 5))
    d = (d + d.T) / 2
    np.fill_diagonal(d, 0.0)
    graph = make_graph(a, d, allow_self_transition, omega=[0.05, -0.1], k=[1.0, 0.8],
                       lam=[6.0, 2.0])
    choice = ChoiceModel(graph)
    agents = [make_agent(group=0, store=0), make_agent(group=1, store=2),
              make_agent(group=0, store=4)]
    world = make_world(agents, store_count=5, quotas=(10, 10))
    world.congestion[0] = [6, 0, 3, 9, 1]
    return graph, choice, world


def chi_square_p(counts, probs):
    probs = np.asarray(probs)
    support = probs > 0
    assert counts[~support].sum() == 0
    return stats.chisquare(counts[support], f_exp=counts.sum() * probs[support]).pvalue


def two_sample_p(a, b, k):
    table = np.array([np.bincount(a, minlength=k), np.bincount(b, minlength=k)])
    return stats.chi2_contingency(table[:, table.sum(axis=0) > 0]).pvalue


def case_weights(case):
    """Store weights after one observed step: each group's own counts (case
    2), or the per-store totals for every group (cases 1 and 3)."""
    by_attr = np.array([[3, 0, 1, 2, 0], [0, 2, 0, 0, 3]])
    if case != 2:
        by_attr = np.broadcast_to(by_attr.sum(axis=0), by_attr.shape)
    log_w = store_weights(np.stack([np.zeros_like(by_attr), by_attr]))[1]
    return StoreWeightVector(step=1, log_w=log_w)


def test_plain_moves_match_per_agent_law():
    graph, choice, world = two_group_scene()
    ids = np.repeat([0, 1, 2], N)
    stores = model_mover(choice)(world, ids, np.random.default_rng(61))
    for agent in range(3):
        probs = reference.choice_probs(graph, world.group[agent], world.stores(agent),
                                       world.congestion[0])
        counts = np.bincount(stores[ids == agent], minlength=5)
        assert chi_square_p(counts, probs) > 0.001


def filtered_chain_p(case):
    """p of batched case-`case` moves against the per-agent chain, per agent."""
    graph, choice, world = two_group_scene()
    sw = case_weights(case)
    n = 5
    ids = np.repeat([0, 1], N)
    probs = np.exp(choice.log_probs(world.group[ids], world.stores(ids), world.congestion[0]))
    log_w = sw.log_w[world.group[ids]]
    batched = filtered_moves(np.random.default_rng(62), probs, log_w, n)
    rng = np.random.default_rng(64)
    ps = []
    for agent in (0, 1):
        probs = reference.choice_probs(graph, world.group[agent], world.stores(agent),
                                       world.congestion[0])
        log_w = sw.log_w[world.group[agent]]
        chain = [reference.filtered_move(rng, probs, log_w, n) for _ in range(N)]
        ps.append(two_sample_p(batched[ids == agent], chain, 5))
    return ps


def test_case1_filtered_moves_match_per_agent_chain():
    assert min(filtered_chain_p(1)) > 0.001


def test_case2_filtered_moves_use_each_groups_row():
    assert min(filtered_chain_p(2)) > 0.001


def test_case3_weighted_placement_matches_sequence_law():
    pool = SequencePool(
        paths=np.array([[0, 1, 2, 3], [4, 4, 1, 0], [2, 3, 4, 1], [1, 1, 1, 1], [3, 0, 3, 0]]),
        attrs=np.zeros(5, dtype=np.int64),
    )
    sw = case_weights(3)
    entries = categorical(np.random.default_rng(65), weight_sequences(pool, sw), size=N)
    probs = reference.sequence_probs(pool.paths.tolist(), sw.log_w[pool.attrs])
    assert chi_square_p(np.bincount(entries, minlength=5), probs) > 0.001


def test_sequence_weights_use_each_entrys_group_row():
    # Case-2 rows differ by group, so the same path scores differently under
    # each group's row; entries 0 and 1 share a path, as do entries 2 and 3.
    pool = SequencePool(
        paths=np.array([[0, 1, 2, 3], [0, 1, 2, 3], [4, 4, 1, 0], [4, 4, 1, 0], [2, 3, 4, 1]]),
        attrs=np.array([0, 1, 0, 1, 1]),
    )
    sw = case_weights(2)
    assert not np.allclose(sw.log_w[0], sw.log_w[1])
    entries = categorical(np.random.default_rng(66), weight_sequences(pool, sw), size=N)
    probs = reference.sequence_probs(pool.paths.tolist(), sw.log_w[pool.attrs])
    assert chi_square_p(np.bincount(entries, minlength=5), probs) > 0.001
    np.testing.assert_allclose(weight_sequences(pool, sw), probs, rtol=0, atol=1e-12)


def random_movers(rng, allow_self_transition):
    """A random choice model and world with m movers, the last one at the last
    store, so that some rows exclude their last column. Returns the movers'
    choice rows and their current stores."""
    s, g, m = int(rng.integers(2, 8)), int(rng.integers(1, 4)), int(rng.integers(1, 12))
    choice = ChoiceModel(make_graph(
        rng.uniform(0.5, 10, size=(g, s)),
        omega=rng.uniform(-1, 1, size=g),
        allow_self_transition=allow_self_transition,
    ))
    stores = np.append(rng.integers(s, size=m - 1), s - 1)
    agents = [make_agent(group=int(rng.integers(g)), store=int(c)) for c in stores]
    world = make_world(agents, store_count=s, quotas=(10,) * g)
    world.congestion[0] = rng.integers(0, 20, size=s)
    current = world.stores(np.arange(m))
    return np.exp(choice.log_probs(world.group, current, world.congestion[0])), current


@settings(max_examples=50, deadline=None)
@given(st.integers(0, 10_000), st.booleans(), st.integers(1, 40))
def test_current_store_never_proposed_unless_allowed(seed, allow_self_transition, n):
    """The kernel picks only stores with a non-zero candidate count, however
    far negative the store log weights run; without self-transitions the
    current store gets no candidate and is never picked."""
    rng = np.random.default_rng(seed)
    probs, current = random_movers(rng, allow_self_transition)
    m, s = probs.shape
    log_w = rng.uniform(-900, 0, size=(m, s))
    counts = np.random.default_rng(seed + 1).multinomial(n, probs)
    picked = filtered_moves(np.random.default_rng(seed + 1), probs, log_w, n)
    assert np.all(counts[np.arange(m), picked] > 0)
    own = probs[np.arange(m), current]
    if allow_self_transition:
        assert np.all(own > 0)
    else:
        assert np.all(own == 0.0)
        assert np.all(counts[np.arange(m), current] == 0)
        assert not np.any(picked == current)


@settings(max_examples=50, deadline=None)
@given(st.integers(0, 10_000), st.integers(1, 20))
def test_one_hot_weight_always_selects_its_store(seed, n):
    """A store that is the only one with a non-zero count times weight is
    always picked, whatever weight the stores without candidates carry."""
    rng = np.random.default_rng(seed)
    probs, _ = random_movers(rng, bool(seed % 2))
    m, s = probs.shape
    counts = np.random.default_rng(seed + 1).multinomial(n, probs)
    hot = np.array([rng.choice(np.flatnonzero(row)) for row in counts])
    log_w = np.where(counts > 0, -np.inf, rng.normal(size=(m, s)))
    log_w[np.arange(m), hot] = rng.uniform(-800, 0, size=m)
    picked = filtered_moves(np.random.default_rng(seed + 1), probs, log_w, n)
    np.testing.assert_array_equal(picked, hot)
    one_hot = np.zeros((m, s))
    one_hot[np.arange(m), hot] = 1.0
    np.testing.assert_array_equal(categorical(rng, one_hot), hot)


@settings(max_examples=50, deadline=None)
@given(st.integers(0, 10_000), st.integers(1, 8), st.integers(1, 40), st.integers(1, 30))
def test_stacked_draws_equal_row_by_row_inverse_cdf(seed, m, k, size):
    # each of m rows, stacked `size` times, gets one draw
    rng = np.random.default_rng(seed)
    nonzero = rng.random((m, k)) < 0.6
    nonzero[np.arange(m), rng.integers(k, size=m)] = True
    p = rng.random((m, k)) * nonzero
    p = np.repeat(p / p.sum(axis=1, keepdims=True), size, axis=0)
    u = np.random.default_rng(seed + 1).random(len(p)).tolist()
    expected = [reference.inverse_cdf(row, x) for row, x in zip(p.tolist(), u)]
    got = categorical(np.random.default_rng(seed + 1), p)
    np.testing.assert_array_equal(got, expected)
    assert np.all(p[np.arange(len(p)), got] > 0)


@settings(max_examples=50, deadline=None)
@given(st.integers(0, 10_000), st.integers(1, 50))
def test_one_dimensional_input_equals_a_single_row(seed, size):
    # `size` draws from a vector are one draw from each of `size` copies of it:
    # both take the same uniforms
    rng = np.random.default_rng(seed)
    p = rng.dirichlet(np.ones(int(rng.integers(2, 10))))
    np.testing.assert_array_equal(categorical(np.random.default_rng(seed), p, size=size),
                                  categorical(np.random.default_rng(seed), np.tile(p, (size, 1))))

    # A case-1 (S,) weight row filters like the same row given to every mover.
    probs, _ = random_movers(rng, bool(seed % 2))
    row = rng.normal(size=probs.shape[1])
    np.testing.assert_array_equal(
        filtered_moves(np.random.default_rng(seed), probs, row, size),
        filtered_moves(np.random.default_rng(seed), probs, np.tile(row, (len(probs), 1)), size),
    )


@pytest.mark.parametrize("k", [1, 2, 3, 4, 7, 1000, 2**31 + 5])
def test_one_integers_call_equals_scalar_draws(k):
    # The law _spawn_agents relies on: with PCG64, d draws below k in one call
    # are the d scalar draws, and leave the generator where they leave it,
    # also between scalar draws of other bounds.
    batched, scalar = np.random.default_rng(k), np.random.default_rng(k)
    for d in (1, 5, 64):
        np.testing.assert_array_equal(batched.integers(k, size=d),
                                      [scalar.integers(k) for _ in range(d)])
        assert batched.integers(3 + d) == scalar.integers(3 + d)
    assert batched.random() == scalar.random()


@settings(max_examples=200, deadline=None)
@given(st.integers(0, 10_000), st.lists(st.integers(0, 12), min_size=1, max_size=6),
       st.integers(0, 50))
@example(seed=1, quotas=[0, 9, 0], count=5)       # one eligible group
@example(seed=2, quotas=[2, 9, 4], count=12)      # quotas run out mid-batch
@example(seed=3, quotas=[1, 0, 2], count=10)      # budget smaller than count
@example(seed=4, quotas=[0, 0], count=3)          # nothing left to spawn
def test_spawn_runs_match_one_at_a_time_draws(seed, quotas, count):
    cfg = SimConfig(store_count=2, total_agents=sum(quotas), group_count=len(quotas),
                    group_quotas=quotas)
    world = new_worlds(cfg, 1)
    after_groups = []

    def placer(world, ids, groups, rng):
        after_groups.append(rng.random())
        return np.zeros(len(ids), dtype=np.int64)

    rng = np.random.default_rng(seed)
    _spawn_agents(world, cfg, np.array([0]), np.array([count]), placer, [rng])
    oracle_rng, quota = np.random.default_rng(seed), np.array(quotas)
    expected = reference.spawn_groups(quota, count, oracle_rng)
    assert world.group[: world.agents_spawned[0]].tolist() == expected
    np.testing.assert_array_equal(world.group_quota_remaining[0], quota)
    assert (after_groups or [rng.random()])[0] == oracle_rng.random()


@settings(max_examples=50, deadline=None)
@given(st.integers(0, 10_000), st.integers(1, 50), st.integers(1, 4), st.integers(2, 20),
       st.integers(1, 100))
@example(seed=0, t=200, g=4, s=18, high=30)  # the default protocol's shape
def test_store_weights_equal_the_per_step_fold(seed, t, g, s, high):
    """One store_weights call gives the per-step fold's weights: bit for bit
    in fresh mode, and within 1e-12 under accumulation, where the fold
    renormalizes at every step; each accumulated row t is the normalized sum
    of the counts of steps 1..t."""
    counts = np.random.default_rng(seed).integers(0, high, size=(t + 1, g, s))
    np.testing.assert_array_equal(store_weights(counts), reference.fold_store_weights(counts))
    accumulated = store_weights(counts, accumulate=True)
    np.testing.assert_allclose(accumulated, reference.fold_store_weights(counts, accumulate=True),
                               rtol=0, atol=1e-12)
    summed = np.cumsum(counts[1:], axis=0)
    linear = np.exp(summed - summed.max(axis=-1, keepdims=True))
    np.testing.assert_allclose(np.exp(accumulated[1:]), linear / linear.sum(axis=-1, keepdims=True),
                               rtol=0, atol=1e-12)
