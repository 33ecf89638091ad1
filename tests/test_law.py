"""The batched kernels follow the per-agent laws of tests/reference.py.

Each law test makes 10^5 draws per row from one batched call, with a fixed
seed, and requires a chi-square p-value above 0.001: against the reference
probabilities where they are exact, and against 10^5 draws of the per-agent
chain (a two-sample test) for the filtered moves. The hypothesis tests check
the properties that hold draw by draw.
"""

import numpy as np
import reference
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy import stats

from roamlab.assimilation import (
    StoreWeightVector,
    filtered_moves,
    update_store_weights,
    weight_sequences,
)
from roamlab.model import BehaviorParams, ChoiceModel, model_mover
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
    behavior = (BehaviorParams(omega=0.05), BehaviorParams(omega=-0.1, k=0.8, lam=2.0))
    graph = make_graph(a, d)
    choice = ChoiceModel(graph, behavior, allow_self_transition)
    agents = [make_agent(group=0, store=0), make_agent(group=1, store=2),
              make_agent(group=0, store=4)]
    world = make_world(agents, store_count=5, quotas=(10, 10))
    world.congestion = np.array([6, 0, 3, 9, 1])
    return graph, behavior, choice, world


def chi_square_p(counts, probs):
    probs = np.asarray(probs)
    support = probs > 0
    assert counts[~support].sum() == 0
    return stats.chisquare(counts[support], f_exp=counts.sum() * probs[support]).pvalue


def two_sample_p(a, b, k):
    table = np.array([np.bincount(a, minlength=k), np.bincount(b, minlength=k)])
    return stats.chi2_contingency(table[:, table.sum(axis=0) > 0]).pvalue


def case_weights():
    """Store weights after one observed step, total and per group."""
    by_attr = np.array([[3, 0, 1, 2, 0], [0, 2, 0, 0, 3]])
    return update_store_weights(StoreWeightVector.uniform(5, 2), by_attr)


def test_plain_moves_match_per_agent_law():
    graph, behavior, choice, world = two_group_scene()
    ids = np.repeat([0, 1, 2], N)
    stores = model_mover(choice)(world, ids, np.random.default_rng(61))
    for agent in range(3):
        probs = reference.choice_probs(graph, behavior, world.group[agent], world.store[agent],
                                       world.congestion)
        counts = np.bincount(stores[ids == agent], minlength=5)
        assert chi_square_p(counts, probs) > 0.001


def filtered_chain_p(case):
    """p of batched case-`case` moves against the per-agent chain, per agent."""
    graph, behavior, choice, world = two_group_scene()
    sw = case_weights()
    n = 5
    ids = np.repeat([0, 1], N)
    probs = choice.probs(world.group[ids], world.store[ids], world.congestion)
    log_w = sw.row(world.group[ids] if case == 2 else None)
    batched = filtered_moves(np.random.default_rng(62), probs, log_w, n)
    rng = np.random.default_rng(64)
    ps = []
    for agent in (0, 1):
        probs = reference.choice_probs(graph, behavior, world.group[agent], world.store[agent],
                                       world.congestion)
        log_w = sw.row(world.group[agent] if case == 2 else None)
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
    sw = case_weights()
    entries = categorical(np.random.default_rng(65), weight_sequences(pool, sw), size=N)
    probs = reference.sequence_probs(pool.paths.tolist(), sw.log_w)
    assert chi_square_p(np.bincount(entries, minlength=5), probs) > 0.001


def random_movers(rng, allow_self_transition):
    """A random choice model and world with m movers, the last one at the last
    store, so that some rows exclude their last column. Returns the movers'
    choice rows and their current stores."""
    s, g, m = int(rng.integers(2, 8)), int(rng.integers(1, 4)), int(rng.integers(1, 12))
    choice = ChoiceModel(make_graph(rng.uniform(0.5, 10, size=(g, s))),
                         [BehaviorParams(omega=float(rng.uniform(-1, 1))) for _ in range(g)],
                         allow_self_transition)
    stores = np.append(rng.integers(s, size=m - 1), s - 1)
    agents = [make_agent(group=int(rng.integers(g)), store=int(c)) for c in stores]
    world = make_world(agents, store_count=s, quotas=(10,) * g)
    world.congestion = rng.integers(0, 20, size=s)
    return choice.probs(world.group, world.store, world.congestion), world.store


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
    rng = np.random.default_rng(seed)
    nonzero = rng.random((m, k)) < 0.6
    nonzero[np.arange(m), rng.integers(k, size=m)] = True
    p = rng.random((m, k)) * nonzero
    p /= p.sum(axis=1, keepdims=True)
    u = np.random.default_rng(seed + 1).random((m, size))
    expected = []
    for row, us in zip(p, u):
        cdf = np.cumsum(row)
        expected.append([int(np.searchsorted(cdf, x * cdf[-1], side="right")) for x in us])
    got = categorical(np.random.default_rng(seed + 1), p, size=size)
    np.testing.assert_array_equal(got, expected)
    assert np.all(p[np.arange(m)[:, None], got] > 0)


@settings(max_examples=50, deadline=None)
@given(st.integers(0, 10_000), st.integers(1, 50))
def test_one_dimensional_input_equals_a_single_row(seed, size):
    rng = np.random.default_rng(seed)
    p = rng.dirichlet(np.ones(int(rng.integers(2, 10))))
    assert categorical(np.random.default_rng(seed), p) == (
        categorical(np.random.default_rng(seed), p[None])[0])
    np.testing.assert_array_equal(categorical(np.random.default_rng(seed), p, size=size),
                                  categorical(np.random.default_rng(seed), p[None], size=size)[0])

    # A case-1 (S,) weight row filters like the same row given to every mover.
    probs, _ = random_movers(rng, bool(seed % 2))
    row = rng.normal(size=probs.shape[1])
    np.testing.assert_array_equal(
        filtered_moves(np.random.default_rng(seed), probs, row, size),
        filtered_moves(np.random.default_rng(seed), probs, np.tile(row, (len(probs), 1)), size),
    )

    _, _, choice, world = two_group_scene(allow_self_transition=bool(seed % 2))
    for agent in range(3):
        g, c = world.group[agent], world.store[agent]
        np.testing.assert_array_equal(choice.log_probs(g, c, world.congestion),
                                      choice.log_probs([g], [c], world.congestion)[0])
