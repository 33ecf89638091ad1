import math
import re

import numpy as np
import pytest

from roamlab import assimilation
from roamlab.assimilation import (
    AssimOptions,
    StoreWeightVector,
    filtered_moves,
    place_new_agents,
    run_assimilation,
    run_baseline,
    store_weights,
    weight_sequences,
)
from roamlab.model import ChoiceModel, completed_paths, path_rows
from roamlab.numerics import categorical, log_normalize_rows
from roamlab.twin import SequencePool, run_truth, sample_biased_pool

from conftest import (
    FixedCounts, agent_path, choice_row, make_agent, make_graph, make_world, small_sim_config,
)


def obs(inflow, groups=1):
    """One step's (G, S) counts: all of inflow in group 0."""
    inflow = np.asarray(inflow, dtype=np.int64)
    by_attr = np.zeros((groups, len(inflow)), dtype=np.int64)
    by_attr[0] = inflow
    return by_attr


def steps(*counts):
    """A (T+1, G, S) count array: a zero step 0, then one step per (G, S) count."""
    return np.stack([np.zeros_like(counts[0]), *counts])


def assert_frequencies(draws, probs):
    """Every category's draw count lies within 3 sigma of its expectation."""
    probs = np.asarray(probs)
    n = len(draws)
    counts = np.bincount(draws, minlength=len(probs))
    sigma = np.sqrt(n * probs * (1 - probs))
    assert np.all(np.abs(counts - n * probs) <= 3 * np.maximum(sigma, 1e-9))


def softmax_oracle(values):
    # independent scalar computation, no shared code path
    exps = [math.exp(v) for v in values]
    z = sum(exps)
    return [e / z for e in exps]


class TestStoreWeights:
    def test_zero_inflow_gives_uniform(self):
        log_w = store_weights(steps(obs([0] * 18)))[1]
        np.testing.assert_allclose(np.exp(log_w[0]), np.full(18, 1 / 18), atol=1e-12)

    def test_fresh_mode_matches_softmax_oracle(self):
        log_w = store_weights(steps(obs([2, 1, 0])))[1]
        np.testing.assert_allclose(np.exp(log_w[0]), softmax_oracle([2, 1, 0]), atol=1e-4)
        np.testing.assert_allclose(np.exp(log_w[0]), [0.6652, 0.2447, 0.0900], atol=1e-4)

    def test_accumulation_is_multiplicative(self):
        # w *= exp(inflow) each step: two accumulated steps equal one fresh
        # update with the summed inflows.
        log_w = store_weights(steps(obs([3, 0, 1, 2]), obs([0, 4, 1, 0])), accumulate=True)[2]
        fresh = store_weights(steps(obs([3, 4, 2, 2])))[1]
        np.testing.assert_allclose(np.exp(log_w), np.exp(fresh), atol=1e-12)

    def test_fresh_mode_forgets_previous_steps(self):
        log_w = store_weights(steps(obs([9, 0, 0]), obs([0, 0, 0])))[2]
        np.testing.assert_allclose(np.exp(log_w[0]), np.full(3, 1 / 3), atol=1e-12)

    def test_attribute_rows_normalized_independently(self):
        inflow_by_attr = np.array([[2, 0, 0], [0, 0, 5]], dtype=np.int64)
        log_w = store_weights(steps(inflow_by_attr))[1]
        np.testing.assert_allclose(np.exp(log_w[0]), softmax_oracle([2, 0, 0]), atol=1e-9)
        np.testing.assert_allclose(np.exp(log_w[1]), softmax_oracle([0, 0, 5]), atol=1e-9)
        assert abs(np.exp(log_w[0]).sum() - 1.0) < 1e-9

    def test_large_inflows_stay_finite(self):
        big = [10_000] + [0] * 17
        log_w = store_weights(steps(obs(big)))[1]
        w = np.exp(log_w[0])
        assert np.all(np.isfinite(w))
        assert abs(w.sum() - 1.0) < 1e-9
        assert w[0] == pytest.approx(1.0)


class TestParticleOps:
    N = 100_000

    def frozen_scene(self, attractiveness=(5.0, 5.0, 5.0)):
        choice = ChoiceModel(make_graph([list(attractiveness)]))
        world = make_world([make_agent(store=0)], store_count=len(attractiveness))
        return world, choice

    def pick(self, counts, log_w, seed):
        """N filtered moves whose candidate counts are all `counts`."""
        counts = np.asarray(counts)
        probs = np.full((self.N, len(counts)), 1 / len(counts))
        return filtered_moves(FixedCounts(counts, seed), probs, log_w, int(counts.sum()))

    def test_degenerate_proposal_is_constant(self):
        world, choice = self.frozen_scene((5.0, 5.0))
        probs = np.tile(choice_row(choice, 0, 0, world.congestion[0]), (50, 1))
        log_w = np.log([0.9, 0.1])
        stores = filtered_moves(np.random.default_rng(0), probs, log_w, 50)
        assert np.all(stores == 1)  # only candidate besides the current store

    def test_proposal_frequencies_match_choice_model(self):
        # One candidate per move is kept whatever its weight, so the moves
        # follow the choice model.
        world, choice = self.frozen_scene((5.0, 7.0, 6.0, 5.5))
        probs = choice_row(choice, 0, 0, world.congestion[0])
        log_w = np.log([0.1, 0.6, 0.1, 0.2])
        stores = filtered_moves(np.random.default_rng(1), np.tile(probs, (self.N, 1)), log_w, 1)
        assert_frequencies(stores, probs)

    def test_uniform_store_weights_leave_particles_unweighted(self):
        log_w = store_weights(np.zeros((1, 1, 3)))[0]
        assert_frequencies(self.pick([1, 2, 1], log_w[0], seed=0), [0.25, 0.5, 0.25])

    def test_weighting_by_store_weights_hand_case(self):
        # count times weight: [2, 1, 1] * [0.5, 0.3, 0.2] = [1.0, 0.3, 0.2]
        picks = self.pick([2, 1, 1], np.log([0.5, 0.3, 0.2]), seed=1)
        assert_frequencies(picks, [1.0 / 1.5, 0.3 / 1.5, 0.2 / 1.5])

    def test_same_store_particles_get_equal_weight(self):
        # Candidates at one store share its weight, so they count together; a
        # store without candidates is never picked, whatever its weight.
        picks = self.pick([2, 0, 1], np.log([0.3, 0.6, 0.1]), seed=2)
        assert_frequencies(picks, [0.6 / 0.7, 0.0, 0.1 / 0.7])

    def test_attribute_variant_uses_group_row(self):
        log_attr = np.log(np.array([[0.9, 0.1], [0.2, 0.8]]))
        groups = np.arange(self.N) % 2
        picks = self.pick([1, 1], log_attr[groups], seed=3)
        assert_frequencies(picks[groups == 0], [0.9, 0.1])
        assert_frequencies(picks[groups == 1], [0.2, 0.8])

    def test_single_particle_always_selected(self):
        rng = np.random.default_rng(4)
        probs = rng.dirichlet(np.ones(8), size=20)
        log_w = rng.normal(size=8)
        only = np.random.default_rng(5).multinomial(1, probs).argmax(axis=1)
        np.testing.assert_array_equal(
            filtered_moves(np.random.default_rng(5), probs, log_w, 1), only
        )

    def test_selection_frequencies_match_weights(self):
        w = np.array([0.5, 0.3, 0.2])
        assert_frequencies(self.pick([1, 1, 1], np.log(w), seed=6), w)

    def test_all_zero_weights_rejected(self):
        probs = np.array([[0.5, 0.5, 0.0], [0.0, 0.5, 0.5]])
        rng = np.random.default_rng(7)
        with pytest.raises(ValueError, match="zero or non-finite"):
            filtered_moves(rng, probs, np.array([-np.inf, -np.inf, 0.0]), 10)
        with pytest.raises(ValueError, match="zero or non-finite"):
            filtered_moves(rng, probs, np.array([0.0, np.nan, 0.0]), 10)

    def test_placement_follows_store_weights(self):
        log_w = np.log([softmax_oracle([2, 1, 0])])
        rng = np.random.default_rng(4)
        n = 100_000
        w = np.array(softmax_oracle([2, 1, 0]))
        counts = np.bincount(place_new_agents(log_w, rng, np.zeros(n, dtype=int)), minlength=3)
        sigma = np.sqrt(n * w * (1 - w))
        assert np.all(np.abs(counts - n * w) <= 3 * sigma)

    def test_placement_degenerate_weight(self):
        log_w = np.full((1, 6), -np.inf)
        log_w[0, 5] = 0.0
        rng = np.random.default_rng(5)
        assert np.all(place_new_agents(log_w, rng, np.zeros(20, dtype=int)) == 5)

    def test_placement_uniform_weights(self):
        log_w = store_weights(np.zeros((1, 1, 4)))[0]
        rng = np.random.default_rng(6)
        n = 40_000
        counts = np.bincount(place_new_agents(log_w, rng, np.zeros(n, dtype=int)), minlength=4)
        sigma = math.sqrt(n * 0.25 * 0.75)
        assert np.all(np.abs(counts - n * 0.25) <= 3 * sigma)


class TestSequenceWeights:
    def pool(self, paths, attrs=None):
        paths = np.asarray(paths, dtype=np.int64)
        attrs = np.zeros(len(paths), dtype=np.int64) if attrs is None else np.asarray(attrs)
        return SequencePool(paths=paths, attrs=attrs)

    def test_uniform_store_weights_give_uniform_sequences(self):
        pool = self.pool([[0, 1, 2, 3], [4, 5, 6, 7], [8, 9, 10, 11]])
        sw = StoreWeightVector(step=0, log_w=store_weights(np.zeros((1, 1, 18)))[0])
        np.testing.assert_allclose(weight_sequences(pool, sw), np.full(3, 1 / 3), atol=1e-12)

    def test_hand_summed_weights(self):
        # store weights [0.5, 0.3, 0.2]; paths (0,1) and (1,2) sum to 0.8 and
        # 0.5, normalizing to [0.6154, 0.3846]
        pool = self.pool([[0, 1], [1, 2]])
        sw = StoreWeightVector(step=1, log_w=np.log([[0.5, 0.3, 0.2]]))
        probs = weight_sequences(pool, sw)
        np.testing.assert_allclose(probs, [0.8 / 1.3, 0.5 / 1.3], atol=1e-12)
        np.testing.assert_allclose(probs, [0.6154, 0.3846], atol=1e-4)

    def test_duplicate_stores_count_per_visit(self):
        # sum semantics: (0,0) scores 2*w0, strictly more than (0,1) when w0>w1
        pool = self.pool([[0, 0], [0, 1]])
        sw = StoreWeightVector(step=1, log_w=np.log([[0.7, 0.3]]))
        probs = weight_sequences(pool, sw)
        np.testing.assert_allclose(probs, [1.4 / 2.4, 1.0 / 2.4], atol=1e-12)

    @pytest.mark.parametrize("log_w", [
        [-800.0, -801.5, -799.0, -802.25],
        # store 4 carries the top weight but lies on no pool path
        [-800.0, -801.5, -799.0, -802.25, 0.0],
    ])
    def test_far_negative_store_weights_stay_finite(self, log_w):
        # exp(-800) underflows to 0, so a sum of linear weights is 0 for every
        # path and the pool cannot be weighted; the log-sum-exp keeps them.
        pool = self.pool([[0, 1, 2, 3], [3, 3, 2, 0], [1, 2, 1, 2]])
        log_w = np.array(log_w)
        probs = weight_sequences(pool, StoreWeightVector(step=1, log_w=log_w[None]))
        raw = []
        for path in pool.paths.tolist():
            top = max(log_w[s] for s in path)
            raw.append(top + math.log(sum(math.exp(log_w[s] - top) for s in path)))
        top = max(raw)
        z = top + math.log(sum(math.exp(r - top) for r in raw))
        assert np.all(probs > 0)
        np.testing.assert_allclose(probs, [math.exp(r - z) for r in raw], rtol=1e-12, atol=0)

    def test_log_space_matches_linear_sum(self):
        for seed in range(50):
            rng = np.random.default_rng(seed)
            pool = self.pool(rng.integers(6, size=(int(rng.integers(1, 30)), 4)))
            sw = StoreWeightVector(
                step=1, log_w=log_normalize_rows(rng.normal(scale=3.0, size=(1, 6)))
            )
            raw = np.exp(sw.log_w[0])[pool.paths].sum(axis=1)
            probs = weight_sequences(pool, sw)
            np.testing.assert_allclose(probs, raw / raw.sum(), rtol=0, atol=1e-12)

    def test_single_entry_always_assigned(self):
        pool = self.pool([[0, 1, 2, 3]])
        sw = StoreWeightVector(step=0, log_w=store_weights(np.zeros((1, 1, 4)))[0])
        probs = weight_sequences(pool, sw)
        assert np.all(categorical(np.random.default_rng(0), probs, size=10) == 0)

    def test_non_finite_store_weights_rejected(self):
        pool = self.pool([[0, 1], [1, 2]])
        sw = StoreWeightVector(step=1, log_w=np.array([[np.nan, 0.0, np.nan]]))
        with pytest.raises(ValueError, match="zero or non-finite"):
            weight_sequences(pool, sw)

    def test_random_baseline_is_uniform(self):
        # One seed agent moves at step 1 and goes stationary, which spawns n
        # agents after the step-1 store weights (exp(2) on store 0) took hold.
        # Weighted assignment would favour entries 0 and 3, which visit store 0.
        n = 100_000
        cfg = small_sim_config(
            store_count=4, max_transitions=1, dwell_min=1, dwell_max=1, horizon_steps=1,
            total_agents=n + 1, initial_agents=1, replenish_threshold=1, replenish_count=n,
            group_count=1, group_quotas=(n + 1,),
        )
        pool = self.pool([[0, 1], [1, 2], [2, 3], [3, 0]])
        observations = np.array([obs([0, 0, 0, 0]), obs([2, 0, 0, 0])])
        _, [assignments] = run_assimilation(
            cfg, [observations], ["case3_random"], pool=[pool], rng=[np.random.default_rng(7)],
        )
        spawned = assignments[assignments[:, 0] == 1, 2]
        assert len(spawned) == n
        counts = np.bincount(spawned, minlength=4)
        sigma = math.sqrt(n * 0.25 * 0.75)
        assert np.all(np.abs(counts - n * 0.25) <= 3 * sigma)

    def test_weighted_assignment_frequencies(self):
        pool = self.pool([[0, 1], [1, 2], [2, 0]])
        sw = StoreWeightVector(step=1, log_w=np.log([[0.5, 0.3, 0.2]]))
        w = weight_sequences(pool, sw)
        assert_frequencies(categorical(np.random.default_rng(8), w, size=100_000), w)


class TestRunAssimilation:
    def setup_inputs(self, seed=13):
        truth_cfg = small_sim_config(
            store_count=5,
            total_agents=60,
            group_quotas=(30, 30),
            initial_agents=10,
            replenish_threshold=5,
            replenish_count=5,
            horizon_steps=50,
            attractiveness=np.array(
                [[5.0, 8.0, 5.0, 5.0, 5.0], [5.0, 5.0, 5.0, 8.0, 5.0]]
            ),
        )
        assim_cfg = small_sim_config(
            store_count=5,
            total_agents=60,
            group_quotas=(30, 30),
            initial_agents=10,
            replenish_threshold=5,
            replenish_count=5,
            horizon_steps=50,
            attractiveness=np.full((2, 5), 5.0),
        )
        [world], [observations] = run_truth(truth_cfg, [np.random.default_rng(seed)])
        pool = sample_biased_pool(
            completed_paths(world), [0.6, 0.4], 30,
            np.random.default_rng(seed + 1),
        )
        return truth_cfg, assim_cfg, observations, pool

    @pytest.mark.parametrize("accumulate", [False, True])
    def test_case1_is_case2_on_totals_seen_by_every_group(self, accumulate):
        # Case 1 weights every group by the per-store totals: at one seed it
        # writes the same world as case 2 given those totals as each group's
        # counts.
        _, assim_cfg, observations, _ = self.setup_inputs()
        totals = observations.sum(axis=1, keepdims=True)
        options = AssimOptions(particle_count=7, weight_accumulation=accumulate)
        ([case1], _), ([case2], _) = (
            run_assimilation(assim_cfg, [fed], [role], rng=[np.random.default_rng(8)],
                             options=options)
            for role, fed in [
                ("case1", observations),
                ("case2", np.broadcast_to(totals, observations.shape)),
            ]
        )
        assert case1.agents_spawned == case2.agents_spawned
        np.testing.assert_array_equal(path_rows(case1), path_rows(case2))
        np.testing.assert_array_equal(case1.entered, case2.entered)

    def test_case3_requires_pool(self):
        _, assim_cfg, observations, _ = self.setup_inputs()
        with pytest.raises(ValueError, match="pool"):
            run_assimilation(
                assim_cfg, [observations], ["case3"], pool=None, rng=[np.random.default_rng(0)]
            )

    def test_invalid_case_rejected(self):
        _, assim_cfg, observations, _ = self.setup_inputs()
        with pytest.raises(ValueError, match="case"):
            run_assimilation(assim_cfg, [observations], ["case4"], rng=[np.random.default_rng(0)])

    @pytest.mark.parametrize("roles", [["case1", "case3"], ["case2", "case4"]],
                             ids=["mixed", "unknown"])
    def test_roles_not_of_one_family_rejected(self, roles):
        # a stack mixing the families, or holding a role of neither, names both
        _, assim_cfg, observations, pool = self.setup_inputs()
        families = "(('case1', 'case2'), ('case3', 'case3_random'))"
        with pytest.raises(ValueError, match=re.escape(families)):
            run_assimilation(assim_cfg, [observations] * 2, roles, pool=[pool] * 2,
                             rng=[np.random.default_rng(0), np.random.default_rng(1)])

    def test_short_observation_stream_rejected(self):
        _, assim_cfg, observations, _ = self.setup_inputs()
        with pytest.raises(ValueError, match="observation stream"):
            run_assimilation(
                assim_cfg, [observations[:10]], ["case1"], rng=[np.random.default_rng(0)]
            )

    def test_runs_are_seed_deterministic(self):
        _, assim_cfg, observations, pool = self.setup_inputs()
        ([world_a], [assignments_a]), ([world_b], [assignments_b]) = (
            run_assimilation(
                assim_cfg, [observations], ["case3"], pool=[pool], rng=[np.random.default_rng(5)]
            )
            for _ in range(2)
        )
        np.testing.assert_array_equal(path_rows(world_a), path_rows(world_b))
        np.testing.assert_array_equal(assignments_a, assignments_b)

    @pytest.mark.parametrize("role", ["case3", "case3_random"])
    def test_case3_assigns_one_row_per_agent_at_its_spawn_step(self, role):
        _, assim_cfg, observations, pool = self.setup_inputs()
        [world], [assignments] = run_assimilation(
            assim_cfg, [observations], [role], pool=[pool], rng=[np.random.default_rng(6)],
        )
        n = world.agents_spawned
        step, agent, entry, attr = assignments.T
        assert assignments.shape == (n, 4)
        np.testing.assert_array_equal(agent, np.arange(n))
        np.testing.assert_array_equal(step, world.entered[:n, 0])
        assert np.all(step[: assim_cfg.initial_agents] == 0) and np.all(np.diff(step) >= 0)
        np.testing.assert_array_equal(attr, pool.attrs[entry])
        np.testing.assert_array_equal(pool.paths[entry, 0], world.path[:n, 0])

    def test_case3_realized_paths_come_from_pool(self):
        _, assim_cfg, observations, pool = self.setup_inputs()
        [world], [assignments] = run_assimilation(
            assim_cfg, [observations], ["case3"], pool=[pool], rng=[np.random.default_rng(6)]
        )
        entry_of = {aid: e for _, aid, e, _ in assignments.tolist()}
        assert len(entry_of) == world.agents_spawned
        for agent_id in range(world.agents_spawned):
            path = agent_path(world, agent_id)
            assigned = pool.paths[entry_of[agent_id]]
            assert tuple(path) == tuple(assigned[: len(path)])

    def test_case3_weights_pool_once_per_spawn_batch(self, monkeypatch):
        # Each spawn batch weights the pool once, by the store weights of the
        # step it spawns at: the uniform table (step 0) for the initial
        # population, the table of step t for a batch spawned at step t. The
        # batches after the initial one each hold replenish_count agents.
        _, assim_cfg, observations, pool = self.setup_inputs()
        calls = []

        def counting(pool, sw):
            calls.append(sw.step)
            return weight_sequences(pool, sw)

        monkeypatch.setattr(assimilation, "weight_sequences", counting)
        [world], _ = run_assimilation(
            assim_cfg, [observations], ["case3"], pool=[pool], rng=[np.random.default_rng(6)]
        )
        n = world.agents_spawned
        firsts = list(range(assim_cfg.initial_agents, n, assim_cfg.replenish_count))
        assert len(firsts) > 1 and n > len(firsts) + 1
        assert calls == [0, *world.entered[firsts, 0].tolist()]

    def test_random_control_never_weights_the_pool(self, monkeypatch):
        _, assim_cfg, observations, pool = self.setup_inputs()

        def refuse(pool, sw):
            raise AssertionError("the random control weighted the sequence pool")

        monkeypatch.setattr(assimilation, "weight_sequences", refuse)
        [world], _ = run_assimilation(
            assim_cfg, [observations], ["case3_random"], pool=[pool],
            rng=[np.random.default_rng(6)],
        )
        assert world.agents_spawned > assim_cfg.horizon_steps + 1

    def test_case3_pool_length_mismatch_rejected(self):
        _, assim_cfg, observations, _ = self.setup_inputs()
        bad = SequencePool(paths=np.zeros((4, 2), dtype=np.int64), attrs=np.zeros(4, dtype=int))
        with pytest.raises(ValueError, match="pool paths"):
            run_assimilation(
                assim_cfg, [observations], ["case3"], pool=[bad], rng=[np.random.default_rng(0)]
            )

    def test_case2_places_each_group_by_its_own_row(self):
        # Craft observations where group 0 only ever enters store 0 and group 1
        # only store 4; weighted placement must mirror the split.
        assim_cfg = small_sim_config(
            store_count=5,
            total_agents=400,
            group_quotas=(200, 200),
            initial_agents=10,
            replenish_threshold=5,
            replenish_count=5,
            horizon_steps=120,
            attractiveness=np.full((2, 5), 5.0),
        )
        observations = np.zeros((121, 2, 5), dtype=np.int64)
        observations[:, 0, 0] = 30
        observations[:, 1, 4] = 30
        [world], _ = run_assimilation(
            assim_cfg, [observations], ["case2"], rng=[np.random.default_rng(9)],
            options=AssimOptions(filter_moves=False),
        )
        placed = {0: [], 1: []}
        for agent_id in range(10, world.agents_spawned):  # skip the initial population
            placed[int(world.group[agent_id])].append(int(world.path[agent_id, 0]))
        # exp(30) likelihood concentrates essentially all mass on one store
        assert set(placed[0]) == {0}
        assert set(placed[1]) == {4}

    def test_uniform_observations_keep_model_kernel(self):
        # Flat inflows make the likelihood constant, so the filtered moves
        # must sample the plain choice distribution.
        choice = ChoiceModel(make_graph([[5.0, 6.5, 5.8]]))
        world = make_world([make_agent(store=0)], store_count=3)
        expected = choice_row(choice, 0, 0, world.congestion[0])
        log_w = store_weights(steps(obs([4, 4, 4])))[1]
        probs = np.tile(expected, (20_000, 1))
        assert_frequencies(filtered_moves(np.random.default_rng(10), probs, log_w[0], 100),
                           expected)

    def test_baseline_ignores_observations(self):
        cfg = small_sim_config()
        [w1] = run_baseline(cfg, [np.random.default_rng(3)])
        [w2] = run_baseline(cfg, [np.random.default_rng(3)])
        np.testing.assert_array_equal(path_rows(w1), path_rows(w2))
