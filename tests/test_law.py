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
    NEXT_STORE,
    ParticleSet,
    StoreWeightVector,
    assign_sequences,
    propose_particles,
    resample_and_select,
    update_store_weights,
    weight_particles,
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
    candidates = propose_particles(world, ids, choice, n, np.random.default_rng(62))
    groups = world.group[ids] if case == 2 else None
    batched = resample_and_select(weight_particles(candidates, sw, groups),
                                  np.random.default_rng(63))
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
    entries = assign_sequences(weight_sequences(pool, sw), np.random.default_rng(65), N)
    probs = reference.sequence_probs(pool.paths.tolist(), sw.log_w)
    assert chi_square_p(np.bincount(entries, minlength=5), probs) > 0.001


@settings(max_examples=50, deadline=None)
@given(st.integers(0, 10_000), st.booleans())
def test_current_store_never_proposed_unless_allowed(seed, allow_self_transition):
    rng = np.random.default_rng(seed)
    s, g, m = int(rng.integers(2, 8)), int(rng.integers(1, 4)), int(rng.integers(1, 12))
    choice = ChoiceModel(make_graph(rng.uniform(0.5, 10, size=(g, s))),
                         [BehaviorParams(omega=float(rng.uniform(-1, 1))) for _ in range(g)],
                         allow_self_transition)
    agents = [make_agent(group=int(rng.integers(g)), store=int(rng.integers(s)))
              for _ in range(m)]
    world = make_world(agents, store_count=s, quotas=(10,) * g)
    world.congestion = rng.integers(0, 20, size=s)
    ids = np.arange(m)
    candidates = propose_particles(world, ids, choice, 30, rng)
    own = candidates == world.store[ids, None]
    probs = choice.probs(world.group[ids], world.store[ids], world.congestion)
    if allow_self_transition:
        assert np.all(probs[ids, world.store[ids]] > 0)
    else:
        assert not own.any()
        assert np.all(probs[ids, world.store[ids]] == 0.0)


@settings(max_examples=50, deadline=None)
@given(st.integers(0, 10_000), st.booleans())
def test_one_hot_weight_always_selects_its_store(seed, explicit_resample):
    rng = np.random.default_rng(seed)
    m, n, s = int(rng.integers(1, 10)), int(rng.integers(1, 20)), int(rng.integers(2, 9))
    candidates = rng.integers(s, size=(m, n))
    hot = rng.integers(n, size=m)
    log_w = np.full((m, n), -np.inf)
    log_w[np.arange(m), hot] = 0.0
    picked = resample_and_select(ParticleSet(NEXT_STORE, candidates, log_w), rng,
                                 explicit_resample)
    np.testing.assert_array_equal(picked, candidates[np.arange(m), hot])
    one_hot = np.zeros((m, s))
    one_hot[np.arange(m), candidates[np.arange(m), hot]] = 1.0
    np.testing.assert_array_equal(categorical(rng, one_hot), candidates[np.arange(m), hot])


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
@given(st.integers(0, 10_000), st.integers(1, 50), st.booleans())
def test_one_dimensional_input_equals_a_single_row(seed, size, explicit_resample):
    rng = np.random.default_rng(seed)
    p = rng.dirichlet(np.ones(int(rng.integers(2, 10))))
    assert categorical(np.random.default_rng(seed), p) == (
        categorical(np.random.default_rng(seed), p[None])[0])
    np.testing.assert_array_equal(categorical(np.random.default_rng(seed), p, size=size),
                                  categorical(np.random.default_rng(seed), p[None], size=size)[0])

    candidates, log_w = rng.integers(5, size=size), rng.normal(size=size)
    single = resample_and_select(ParticleSet(NEXT_STORE, candidates, log_w),
                                 np.random.default_rng(seed), explicit_resample)
    stacked = resample_and_select(ParticleSet(NEXT_STORE, candidates[None], log_w[None]),
                                  np.random.default_rng(seed), explicit_resample)
    assert single == stacked[0]

    _, _, choice, world = two_group_scene(allow_self_transition=bool(seed % 2))
    for agent in range(3):
        g, c = world.group[agent], world.store[agent]
        np.testing.assert_array_equal(choice.log_probs(g, c, world.congestion),
                                      choice.log_probs([g], [c], world.congestion)[0])
