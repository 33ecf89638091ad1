import math

import numpy as np
import pytest

from roamlab import assimilation
from roamlab.assimilation import (
    NEXT_STORE,
    SEQUENCE,
    AssimOptions,
    ParticleSet,
    StoreWeightVector,
    assign_sequence,
    place_new_agent,
    propose_particles,
    resample_and_select,
    run_assimilation,
    run_baseline,
    update_store_weights,
    weight_particles,
    weight_sequences,
)
from roamlab.model import BehaviorParams, ChoiceModel
from roamlab.twin import ObservationRecord, SequencePool, run_truth

from conftest import make_agent, make_graph, make_world, small_sim_config


def obs(step, inflow, groups=1):
    inflow = np.asarray(inflow, dtype=np.int64)
    by_attr = np.zeros((groups, len(inflow)), dtype=np.int64)
    by_attr[0] = inflow
    return ObservationRecord(step=step, inflow=inflow, inflow_by_attr=by_attr)


def softmax_oracle(values):
    # independent scalar computation, no shared code path
    exps = [math.exp(v) for v in values]
    z = sum(exps)
    return [e / z for e in exps]


class TestStoreWeights:
    def test_zero_inflow_gives_uniform(self):
        sw = StoreWeightVector.uniform(18)
        sw = update_store_weights(sw, obs(1, [0] * 18))
        np.testing.assert_allclose(sw.weights(), np.full(18, 1 / 18), atol=1e-12)

    def test_fresh_mode_matches_softmax_oracle(self):
        sw = StoreWeightVector.uniform(3)
        sw = update_store_weights(sw, obs(1, [2, 1, 0]))
        np.testing.assert_allclose(sw.weights(), softmax_oracle([2, 1, 0]), atol=1e-4)
        np.testing.assert_allclose(sw.weights(), [0.6652, 0.2447, 0.0900], atol=1e-4)

    def test_accumulation_is_multiplicative(self):
        # w *= exp(inflow) each step: two accumulated steps equal one fresh
        # update with the summed inflows.
        sw = StoreWeightVector.uniform(4)
        sw = update_store_weights(sw, obs(1, [3, 0, 1, 2]), accumulate=True)
        sw = update_store_weights(sw, obs(2, [0, 4, 1, 0]), accumulate=True)
        fresh = update_store_weights(StoreWeightVector.uniform(4), obs(1, [3, 4, 2, 2]))
        np.testing.assert_allclose(sw.weights(), fresh.weights(), atol=1e-12)

    def test_fresh_mode_forgets_previous_steps(self):
        sw = StoreWeightVector.uniform(3)
        sw = update_store_weights(sw, obs(1, [9, 0, 0]))
        sw = update_store_weights(sw, obs(2, [0, 0, 0]))
        np.testing.assert_allclose(sw.weights(), np.full(3, 1 / 3), atol=1e-12)

    def test_attribute_rows_normalized_independently(self):
        inflow_by_attr = np.array([[2, 0, 0], [0, 0, 5]], dtype=np.int64)
        record = ObservationRecord(
            step=1, inflow=inflow_by_attr.sum(axis=0), inflow_by_attr=inflow_by_attr
        )
        sw = update_store_weights(StoreWeightVector.uniform(3, 2), record)
        np.testing.assert_allclose(sw.weights(0), softmax_oracle([2, 0, 0]), atol=1e-9)
        np.testing.assert_allclose(sw.weights(1), softmax_oracle([0, 0, 5]), atol=1e-9)
        assert abs(sw.weights(0).sum() - 1.0) < 1e-9

    def test_large_inflows_stay_finite(self):
        sw = StoreWeightVector.uniform(18)
        big = [10_000] + [0] * 17
        sw = update_store_weights(sw, obs(1, big))
        w = sw.weights()
        assert np.all(np.isfinite(w))
        assert abs(w.sum() - 1.0) < 1e-9
        assert w[0] == pytest.approx(1.0)

    def test_out_of_order_observation_rejected(self):
        sw = StoreWeightVector.uniform(3)
        sw = update_store_weights(sw, obs(1, [1, 0, 0]))
        with pytest.raises(ValueError, match="does not follow"):
            update_store_weights(sw, obs(3, [0, 0, 0]))


class TestParticleOps:
    def frozen_scene(self, attractiveness=(5.0, 5.0, 5.0)):
        choice = ChoiceModel(make_graph([list(attractiveness)]), (BehaviorParams(),))
        agent = make_agent(store=0)
        world = make_world([agent], store_count=len(attractiveness))
        return world, choice, agent

    def test_degenerate_proposal_is_constant(self):
        world, choice, agent = self.frozen_scene((5.0, 5.0))
        candidates = propose_particles(agent, world, choice, 50, np.random.default_rng(0))
        assert len(candidates) == 50
        assert np.all(candidates == 1)  # only candidate besides the current store

    def test_proposal_frequencies_match_choice_model(self):
        world, choice, agent = self.frozen_scene((5.0, 7.0, 6.0, 5.5))
        probs = choice.probs(agent.group, agent.current_store, world.congestion)
        n = 100_000
        candidates = propose_particles(agent, world, choice, n, np.random.default_rng(1))
        counts = np.bincount(candidates, minlength=4)
        sigma = np.sqrt(n * probs * (1 - probs))
        assert np.all(np.abs(counts - n * probs) <= 3 * np.maximum(sigma, 1e-9))

    def test_uniform_store_weights_leave_particles_unweighted(self):
        sw = StoreWeightVector.uniform(3)
        out = weight_particles(np.array([0, 1, 2, 1]), sw)
        assert out.kind == NEXT_STORE
        np.testing.assert_allclose(out.weights, np.full(4, 0.25), atol=1e-12)

    def test_weighting_by_store_weights_hand_case(self):
        sw = StoreWeightVector(step=1, log_w=np.log([0.5, 0.3, 0.2]))
        out = weight_particles(np.array([0, 1, 2]), sw)
        np.testing.assert_allclose(out.weights, [0.5, 0.3, 0.2], atol=1e-12)

    def test_same_store_particles_get_equal_weight(self):
        sw = StoreWeightVector(step=1, log_w=np.log([0.6, 0.4]))
        out = weight_particles(np.array([0, 1, 0]), sw)
        assert out.weights[0] == out.weights[2]

    def test_attribute_variant_uses_group_row(self):
        log_attr = np.log(np.array([[0.9, 0.1], [0.2, 0.8]]))
        sw = StoreWeightVector(step=1, log_w=np.log([0.5, 0.5]), log_w_attr=log_attr)
        candidates = np.array([0, 1])
        np.testing.assert_allclose(weight_particles(candidates, sw, group=0).weights, [0.9, 0.1])
        np.testing.assert_allclose(weight_particles(candidates, sw, group=1).weights, [0.2, 0.8])

    def test_single_particle_always_selected(self):
        ps = ParticleSet(NEXT_STORE, np.array([7]), np.zeros(1))
        rng = np.random.default_rng(0)
        assert all(resample_and_select(ps, rng) == 7 for _ in range(20))

    def test_selection_frequencies_match_weights(self):
        ps = ParticleSet(NEXT_STORE, np.array([0, 1, 2]), np.log([0.5, 0.3, 0.2]))
        rng = np.random.default_rng(2)
        n = 100_000
        w = np.array([0.5, 0.3, 0.2])
        counts = np.bincount([resample_and_select(ps, rng) for _ in range(n)], minlength=3)
        sigma = np.sqrt(n * w * (1 - w))
        assert np.all(np.abs(counts - n * w) <= 3 * sigma)

    def test_explicit_resample_matches_marginal_law(self):
        ps = ParticleSet(NEXT_STORE, np.array([0, 1, 2]), np.log([0.5, 0.3, 0.2]))
        rng = np.random.default_rng(3)
        n = 20_000
        w = np.array([0.5, 0.3, 0.2])
        counts = np.bincount(
            [resample_and_select(ps, rng, explicit_resample=True) for _ in range(n)],
            minlength=3,
        )
        sigma = np.sqrt(n * w * (1 - w))
        assert np.all(np.abs(counts - n * w) <= 3 * sigma)

    def test_all_zero_weights_rejected(self):
        with pytest.raises(ValueError, match="zero or non-finite"):
            ParticleSet(NEXT_STORE, np.array([0, 1]), np.array([-np.inf, -np.inf]))

    def test_placement_follows_store_weights(self):
        sw = StoreWeightVector(step=1, log_w=np.log(softmax_oracle([2, 1, 0])))
        rng = np.random.default_rng(4)
        n = 100_000
        w = np.array(softmax_oracle([2, 1, 0]))
        counts = np.bincount([place_new_agent(sw, rng) for _ in range(n)], minlength=3)
        sigma = np.sqrt(n * w * (1 - w))
        assert np.all(np.abs(counts - n * w) <= 3 * sigma)

    def test_placement_degenerate_weight(self):
        log_w = np.full(6, -np.inf)
        log_w[5] = 0.0
        sw = StoreWeightVector(step=1, log_w=log_w)
        rng = np.random.default_rng(5)
        assert all(place_new_agent(sw, rng) == 5 for _ in range(20))

    def test_placement_uniform_weights(self):
        sw = StoreWeightVector.uniform(4)
        rng = np.random.default_rng(6)
        n = 40_000
        counts = np.bincount([place_new_agent(sw, rng) for _ in range(n)], minlength=4)
        sigma = math.sqrt(n * 0.25 * 0.75)
        assert np.all(np.abs(counts - n * 0.25) <= 3 * sigma)


class TestSequenceWeights:
    def pool(self, paths, attrs=None):
        paths = np.asarray(paths, dtype=np.int64)
        attrs = np.zeros(len(paths), dtype=np.int64) if attrs is None else np.asarray(attrs)
        return SequencePool(paths=paths, attrs=attrs)

    def test_uniform_store_weights_give_uniform_sequences(self):
        pool = self.pool([[0, 1, 2, 3], [4, 5, 6, 7], [8, 9, 10, 11]])
        sw = StoreWeightVector.uniform(18)
        ps = weight_sequences(pool, sw)
        assert ps.kind == SEQUENCE
        np.testing.assert_allclose(ps.weights, np.full(3, 1 / 3), atol=1e-12)

    def test_hand_summed_weights(self):
        # store weights [0.5, 0.3, 0.2]; paths (0,1) and (1,2) sum to 0.8 and
        # 0.5, normalizing to [0.6154, 0.3846]
        pool = self.pool([[0, 1], [1, 2]])
        sw = StoreWeightVector(step=1, log_w=np.log([0.5, 0.3, 0.2]))
        ps = weight_sequences(pool, sw)
        np.testing.assert_allclose(ps.weights, [0.8 / 1.3, 0.5 / 1.3], atol=1e-12)
        np.testing.assert_allclose(ps.weights, [0.6154, 0.3846], atol=1e-4)

    def test_duplicate_stores_count_per_visit(self):
        # sum semantics: (0,0) scores 2*w0, strictly more than (0,1) when w0>w1
        pool = self.pool([[0, 0], [0, 1]])
        sw = StoreWeightVector(step=1, log_w=np.log([0.7, 0.3]))
        ps = weight_sequences(pool, sw)
        np.testing.assert_allclose(ps.weights, [1.4 / 2.4, 1.0 / 2.4], atol=1e-12)

    def test_single_entry_always_assigned(self):
        pool = self.pool([[0, 1, 2, 3]])
        ps = weight_sequences(pool, StoreWeightVector.uniform(4))
        rng = np.random.default_rng(0)
        assert all(assign_sequence(ps, rng) == 0 for _ in range(10))

    def test_random_baseline_is_uniform(self):
        pool = self.pool([[0, 1], [1, 2], [2, 3], [3, 0]])
        sw = StoreWeightVector(step=1, log_w=np.log([0.7, 0.1, 0.1, 0.1]))
        ps = weight_sequences(pool, sw)
        rng = np.random.default_rng(7)
        n = 100_000
        counts = np.bincount(
            [assign_sequence(ps, rng, random_baseline=True) for _ in range(n)], minlength=4
        )
        sigma = math.sqrt(n * 0.25 * 0.75)
        assert np.all(np.abs(counts - n * 0.25) <= 3 * sigma)

    def test_weighted_assignment_frequencies(self):
        pool = self.pool([[0, 1], [1, 2], [2, 0]])
        sw = StoreWeightVector(step=1, log_w=np.log([0.5, 0.3, 0.2]))
        ps = weight_sequences(pool, sw)
        w = ps.weights
        rng = np.random.default_rng(8)
        n = 100_000
        counts = np.bincount([assign_sequence(ps, rng) for _ in range(n)], minlength=3)
        sigma = np.sqrt(n * w * (1 - w))
        assert np.all(np.abs(counts - n * w) <= 3 * sigma)


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
        truth = run_truth(truth_cfg, np.random.default_rng(seed))
        from roamlab.model import completed_paths
        from roamlab.twin import sample_biased_pool

        pool = sample_biased_pool(
            completed_paths(truth.world, truth_cfg), [0.6, 0.4], 30,
            np.random.default_rng(seed + 1),
        )
        return truth_cfg, assim_cfg, truth, pool

    def test_case3_requires_pool(self):
        _, assim_cfg, truth, _ = self.setup_inputs()
        with pytest.raises(ValueError, match="pool"):
            run_assimilation(
                assim_cfg, truth.observations, 3, pool=None, rng=np.random.default_rng(0)
            )

    def test_invalid_case_rejected(self):
        _, assim_cfg, truth, _ = self.setup_inputs()
        with pytest.raises(ValueError, match="case"):
            run_assimilation(assim_cfg, truth.observations, 4, rng=np.random.default_rng(0))

    def test_short_observation_stream_rejected(self):
        _, assim_cfg, truth, _ = self.setup_inputs()
        with pytest.raises(ValueError, match="observation stream"):
            run_assimilation(
                assim_cfg, truth.observations[:10], 1, rng=np.random.default_rng(0)
            )

    def test_runs_are_seed_deterministic(self):
        _, assim_cfg, truth, pool = self.setup_inputs()
        runs = [
            run_assimilation(
                assim_cfg, truth.observations, 3, pool=pool, rng=np.random.default_rng(5)
            )
            for _ in range(2)
        ]
        assert [a.path for a in runs[0].world.agents] == [a.path for a in runs[1].world.agents]
        assert runs[0].assignments == runs[1].assignments

    def test_case3_realized_paths_come_from_pool(self):
        _, assim_cfg, truth, pool = self.setup_inputs()
        run = run_assimilation(
            assim_cfg, truth.observations, 3, pool=pool, rng=np.random.default_rng(6)
        )
        entry_of = {aid: e for _, aid, e, _ in run.assignments}
        assert len(entry_of) == run.world.agents_spawned
        for agent in run.world.agents:
            assigned = pool.paths[entry_of[agent.agent_id]]
            assert tuple(agent.path) == tuple(assigned[: len(agent.path)])

    def test_case3_weights_pool_once_per_step(self, monkeypatch):
        # The store weights change once per step, so the pool is reweighted
        # once for the uniform start vector and once after each update, not
        # once per spawned agent.
        _, assim_cfg, truth, pool = self.setup_inputs()
        calls = []

        def counting(pool, sw):
            calls.append(sw.step)
            return weight_sequences(pool, sw)

        monkeypatch.setattr(assimilation, "weight_sequences", counting)
        run = run_assimilation(
            assim_cfg, truth.observations, 3, pool=pool, rng=np.random.default_rng(6)
        )
        assert run.world.agents_spawned > assim_cfg.horizon_steps + 1
        assert calls == [None, *range(1, assim_cfg.horizon_steps + 1)]

    def test_case3_pool_length_mismatch_rejected(self):
        _, assim_cfg, truth, _ = self.setup_inputs()
        bad = SequencePool(paths=np.zeros((4, 2), dtype=np.int64), attrs=np.zeros(4, dtype=int))
        with pytest.raises(ValueError, match="pool paths"):
            run_assimilation(
                assim_cfg, truth.observations, 3, pool=bad, rng=np.random.default_rng(0)
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
        observations = []
        for t in range(121):
            by_attr = np.zeros((2, 5), dtype=np.int64)
            by_attr[0, 0] = 30
            by_attr[1, 4] = 30
            observations.append(
                ObservationRecord(step=t, inflow=by_attr.sum(axis=0), inflow_by_attr=by_attr)
            )
        run = run_assimilation(
            assim_cfg, observations, 2, rng=np.random.default_rng(9),
            options=AssimOptions(filter_moves=False),
        )
        placed = {0: [], 1: []}
        for agent in run.world.agents:
            if agent.agent_id >= 10:  # skip the uniform initial population
                placed[agent.group].append(agent.path[0])
        # exp(30) likelihood concentrates essentially all mass on one store
        assert set(placed[0]) == {0}
        assert set(placed[1]) == {4}

    def test_uniform_observations_keep_model_kernel(self):
        # Flat inflows make the likelihood constant, so propose-weight-select
        # must sample the plain choice distribution.
        choice = ChoiceModel(make_graph([[5.0, 6.5, 5.8]]), (BehaviorParams(),))
        agent = make_agent(store=0)
        world = make_world([agent], store_count=3)
        expected = choice.probs(agent.group, agent.current_store, world.congestion)
        sw = update_store_weights(StoreWeightVector.uniform(3), obs(1, [4, 4, 4]))
        rng = np.random.default_rng(10)
        n = 20_000
        draws = []
        for _ in range(n):
            candidates = propose_particles(agent, world, choice, 100, rng)
            draws.append(resample_and_select(weight_particles(candidates, sw), rng))
        counts = np.bincount(draws, minlength=3)
        sigma = np.sqrt(n * expected * (1 - expected))
        assert np.all(np.abs(counts - n * expected) <= 3 * np.maximum(sigma, 1e-9))

    def test_baseline_ignores_observations(self):
        cfg = small_sim_config()
        w1 = run_baseline(cfg, np.random.default_rng(3))
        w2 = run_baseline(cfg, np.random.default_rng(3))
        assert [a.path for a in w1.agents] == [a.path for a in w2.agents]
