import math

import numpy as np
import pytest
import reference
from hypothesis import given, settings
from hypothesis import strategies as st

import roamlab.model
from roamlab.experiment import case_labels, run_replicate
from roamlab.model import (
    ChoiceModel,
    SimConfig,
    Worlds,
    _spawn_agents,
    model_mover,
    path_rows,
    replenish,
    run_worlds,
    step_world,
    store_utilities,
    uniform_placer,
)

from conftest import (
    agent_path, choice_row, make_agent, make_graph, make_world, small_sim_config,
)


def params(omega=0.0, k=1.0, lam=6.0):
    return {"omega": omega, "k": k, "lam": lam}


def kernel_probs(attractiveness, pm, store, congestion=None, allow_self_transition=False):
    """One agent's choice row on a one-group graph; zero congestion by default."""
    cfg = make_graph(attractiveness, allow_self_transition=allow_self_transition, **pm)
    if congestion is None:
        congestion = np.zeros(cfg.store_count, dtype=np.int64)
    return choice_row(ChoiceModel(cfg), 0, store, congestion)


class TestChoiceProbabilities:
    def test_symmetric_stores_are_uniform(self):
        p = kernel_probs([[5.0, 5.0, 5.0]], params(), store=0)
        assert p[0] == 0.0
        # identical utilities give bit-identical probabilities
        assert p[1] == p[2]
        assert abs(p.sum() - 1.0) < 1e-9

    def test_hand_computed_utilities(self):
        # Independent scalar evaluation: u_j = A_j + sum_{j'!=j} A_j'/(1+d)^lam,
        # agent at store 2, so the normalization runs over stores {0, 1}.
        a = [[5.0, 10.0, 5.0]]
        u0 = 5.0 + (10.0 + 5.0) / 2.0**6
        u1 = 10.0 + (5.0 + 5.0) / 2.0**6
        e0, e1 = math.exp(u0), math.exp(u1)
        expected = np.array([e0 / (e0 + e1), e1 / (e0 + e1), 0.0])
        p = kernel_probs(a, params(), store=2)
        np.testing.assert_allclose(p, expected, atol=1e-12)

    def test_shift_invariance_via_occupancy(self):
        # Raising every store's occupancy by the same amount shifts all
        # utilities by a constant, which the normalization must ignore.
        rng = np.random.default_rng(7)
        a = rng.uniform(1, 10, size=(1, 6))
        pm = params(omega=0.5)
        congestion_a = rng.integers(0, 30, size=6)
        pa = kernel_probs(a, pm, store=3, congestion=congestion_a)
        pb = kernel_probs(a, pm, store=3, congestion=congestion_a + 17)
        np.testing.assert_allclose(np.log(pa[pa > 0]), np.log(pb[pb > 0]), atol=1e-12)

    def test_omega_zero_ignores_occupancy(self):
        a = [[2.0, 7.0, 4.0, 6.0]]
        p0 = kernel_probs(a, params(omega=0.0), store=1)
        p1 = kernel_probs(a, params(omega=0.0), store=1, congestion=np.array([90, 0, 50, 3]))
        np.testing.assert_array_equal(p0, p1)

    def test_allow_self_transition_includes_current_store(self):
        a = [[5.0, 5.0, 5.0]]
        p = kernel_probs(a, params(), store=0, allow_self_transition=True)
        assert p[0] > 0
        assert abs(p.sum() - 1.0) < 1e-9

    def test_rejects_non_finite_utilities(self):
        # validate refuses a k whose utilities overflow at congestion 0 ...
        with pytest.raises(ValueError, match="^k: store utilities are not finite"):
            make_graph([[5.0, 5.0, 1e308]], **params(k=1e308))
        # ... and log_probs a congestion beyond the agent budget that overflows them
        cfg = make_graph([[5.0, 5.0, 5.0]], **params(omega=1e300))
        with np.errstate(over="ignore"), pytest.raises(ValueError, match="non-finite"):
            choice_row(ChoiceModel(cfg), 0, 0, np.array([0.0, 1e10, 0.0]))

    @settings(max_examples=60, deadline=None)
    @given(st.integers(0, 10_000))
    def test_probabilities_sum_to_one(self, seed):
        rng = np.random.default_rng(seed)
        s = int(rng.integers(2, 20))
        a = rng.uniform(0.1, 20.0, size=(1, s))
        store = int(rng.integers(s))
        congestion = rng.integers(0, 40, size=s)
        pm = params(omega=float(rng.uniform(-1, 1)), k=float(rng.uniform(-2, 2)),
                    lam=float(rng.uniform(0, 8)))
        p = kernel_probs(a, pm, store=store, congestion=congestion)
        assert abs(p.sum() - 1.0) < 1e-9
        assert p[store] == 0.0

    @settings(max_examples=60, deadline=None)
    @given(st.integers(0, 10_000), st.floats(0.1, 5.0))
    def test_own_attractiveness_monotonicity(self, seed, bump):
        # For k >= 0, raising A_j cannot lower store j's probability.
        rng = np.random.default_rng(seed)
        s = int(rng.integers(3, 12))
        a = rng.uniform(0.5, 10.0, size=(1, s))
        pm = params(omega=0.0, k=float(rng.uniform(0, 3)), lam=float(rng.uniform(0, 8)))
        j = int(rng.integers(1, s))
        p_before = kernel_probs(a, pm, store=0)
        a2 = a.copy()
        a2[0, j] += bump
        p_after = kernel_probs(a2, pm, store=0)
        assert p_after[j] >= p_before[j] - 1e-12


class TestChoiceModel:
    def test_matches_direct_computation(self):
        # Scalar oracle sharing no code with the kernel (reference.choice_probs):
        # u_j = k*(A_gj + sum_{j'!=j} A_gj' * (1 + d_jj')^-lam) + omega*c_j,
        # normalized with math.exp over every store but the current one. The
        # batched call over every (group, current store) row must agree too.
        rng = np.random.default_rng(3)
        a = rng.uniform(1, 10, size=(2, 7))
        d = rng.uniform(0, 4, size=(7, 7))
        d = (d + d.T) / 2
        np.fill_diagonal(d, 0.0)
        graph = make_graph(a, d, omega=[0.01, 0.3], k=[1.0, 0.7], lam=[6.0, 2.0])
        model = ChoiceModel(graph)
        congestion = rng.integers(0, 25, size=7)
        groups, currents = np.repeat([0, 1], 7), np.tile(np.arange(7), 2)
        batched = np.exp(model.log_probs(groups, currents, congestion))
        for row, (group, current) in enumerate(zip(groups, currents)):
            expected = reference.choice_probs(graph, group, current, congestion)
            np.testing.assert_allclose(
                choice_row(model, group, current, congestion), expected, rtol=1e-12, atol=1e-15
            )
            np.testing.assert_allclose(batched[row], expected, rtol=1e-12, atol=1e-15)

    def test_static_part_excludes_self_spillover(self):
        graph = make_graph([[3.0, 4.0]], lam=1.0)
        u = store_utilities(graph, np.zeros(2))
        np.testing.assert_allclose(u, [[3.0 + 4.0 / 2.0, 4.0 + 3.0 / 2.0]])


def always(store):
    """Mover sending every listed agent to one store."""
    return lambda world, ids, rng: np.full(len(ids), store)


class TestStepWorld:
    def test_dwell_countdown_without_move(self):
        cfg = small_sim_config()
        world = make_world([make_agent(dwell=2)], store_count=3, quotas=(4, 4), spawned=4,
                           capacity=cfg.total_agents)
        mover_calls = []

        def mover(world, ids, rng):
            mover_calls.append(ids.tolist())
            return np.ones(len(ids), dtype=np.int64)

        step_world(world, cfg, mover, uniform_placer, [np.random.default_rng(0)])
        assert world.dwell[0] == 1
        assert mover_calls == []
        assert agent_path(world, 0) == [0]

    def test_move_on_dwell_zero(self):
        cfg = small_sim_config()
        world = make_world([make_agent(dwell=1)], store_count=3, quotas=(4, 4), spawned=4,
                           capacity=cfg.total_agents)
        step_world(world, cfg, always(2), uniform_placer, [np.random.default_rng(0)])
        assert agent_path(world, 0) == [0, 2]
        assert world.transitions[0] == 1
        assert cfg.dwell_min <= world.dwell[0] <= cfg.dwell_max
        assert world.entered[0].tolist() == [0, 1, -1, -1]

    def test_stationary_agent_never_moves(self):
        cfg = small_sim_config()
        agent = make_agent(path=[0, 1, 2, 0], dwell=0)
        world = make_world([agent], store_count=3, quotas=(4, 4), spawned=4,
                           capacity=cfg.total_agents)
        world.stationary_unretired[0] = 1
        for _ in range(5):
            step_world(world, cfg, always(1), uniform_placer, [np.random.default_rng(0)])
        assert agent_path(world, 0) == [0, 1, 2, 0]
        assert world.transitions[0] == cfg.max_transitions

    def test_final_transition_marks_stationary(self):
        cfg = small_sim_config()
        world = make_world([make_agent(path=[0, 1, 2], dwell=1)], store_count=3, quotas=(4, 4),
                           spawned=4, capacity=cfg.total_agents)
        step_world(world, cfg, always(0), uniform_placer, [np.random.default_rng(0)])
        assert world.transitions[0] == 3 == cfg.max_transitions
        # one stationary agent; below threshold 2, so nothing spawned
        assert world.stationary_unretired[0] == 1
        assert world.entered[0].tolist() == [0, 0, 0, 1]
        step_world(world, cfg, always(0), uniform_placer, [np.random.default_rng(0)])
        assert world.congestion.sum() == 0

    def test_batch_of_newly_stationary_triggers_spawn(self):
        # 40 agents complete their last transition this step; threshold 40.
        cfg = SimConfig(
            store_count=3,
            total_agents=200,
            initial_agents=40,
            replenish_threshold=40,
            replenish_count=40,
            group_count=4,
            group_quotas=(50, 50, 50, 50),
            attractiveness=np.full((4, 3), 5.0),
        ).validate()
        agents = [make_agent(path=[0, 1, 2], dwell=1) for _ in range(40)]
        world = make_world(agents, store_count=3, quotas=(50, 50, 50, 50), spawned=40,
                           capacity=cfg.total_agents)
        step_world(world, cfg, always(0), uniform_placer, [np.random.default_rng(1)])
        assert world.agents_spawned[0] == 80
        newcomers = np.arange(40, 80)
        assert np.all(world.entered[newcomers, 0] == 1)
        assert np.all(world.entered[newcomers, 1:] == -1)
        assert np.all(world.transitions[newcomers] == 0)
        assert world.stationary_unretired[0] == 0  # batch retired

    def test_occupancy_tracks_active_agents(self):
        # Each step's congestion counts the agents active when the step began,
        # by the last store of their paths.
        cfg = small_sim_config()
        rng = np.random.default_rng(5)
        mover = model_mover(ChoiceModel(cfg))
        world = Worlds(cfg, 1)
        _spawn_agents(world, cfg, np.zeros(1, dtype=np.int64), np.array([cfg.initial_agents]),
                      uniform_placer, [rng])
        for _ in range(cfg.horizon_steps):
            expected = np.zeros(cfg.store_count, dtype=np.int64)
            for i in range(world.agents_spawned[0]):
                if world.transitions[i] < cfg.max_transitions:
                    expected[agent_path(world, i)[-1]] += 1
            step_world(world, cfg, mover, uniform_placer, [rng])
            np.testing.assert_array_equal(world.congestion[0], expected)

    def test_world_record_holds_after_every_step_of_every_role(self, tiny_cfg, tmp_path,
                                                               monkeypatch):
        # Truth, baseline and every case step through run_worlds, which looks
        # step_world up at each call; the wrapper checks the record of every
        # world of the stack around it.
        calls = []

        def checked(world, cfg, mover, placer, rng):
            roaming = [np.count_nonzero(w.transitions[: w.agents_spawned] < cfg.max_transitions)
                       for w in world.records()]
            step_world(world, cfg, mover, placer, rng)
            for w, before in zip(world.records(), roaming):
                n = w.agents_spawned
                np.testing.assert_array_equal(w.transitions[:n],
                                              np.count_nonzero(w.path[:n] >= 0, axis=1) - 1)
                entered = w.entered[:n]
                assert np.all(np.diff(entered, axis=1)[entered[:, 1:] >= 0] >= 0)
                assert w.congestion.sum() == before
                calls.append(w.step)

        monkeypatch.setattr(roamlab.model, "step_world", checked)
        summaries = run_replicate(tiny_cfg, tmp_path, [0])
        assert [len(ods) for ods in summaries.od.values()] == [1] * len(summaries.od)
        assert sorted(summaries.od) == sorted(["truth", "baseline", *case_labels(tiny_cfg)])
        # a stack of two worlds per policy family: truth with baseline, case 1
        # with case 2, case 3 with its random control, one family after another
        steps = range(1, tiny_cfg.assim.horizon_steps + 1)
        assert calls == [s for s in steps for _ in range(2)] * (len(summaries.od) // 2)

    def test_rejects_step_past_horizon(self):
        cfg = small_sim_config(horizon_steps=1)
        world = make_world([make_agent()], store_count=3, quotas=(4, 4), spawned=4,
                           capacity=cfg.total_agents)
        step_world(world, cfg, always(1), uniform_placer, [np.random.default_rng(0)])
        with pytest.raises(ValueError, match="horizon"):
            step_world(world, cfg, always(1), uniform_placer, [np.random.default_rng(0)])


class TestReplenish:
    def test_below_threshold_no_spawn(self):
        cfg = SimConfig(
            store_count=3,
            total_agents=2000,
            initial_agents=100,
            replenish_threshold=40,
            group_quotas=(500, 500, 500, 500),
            attractiveness=np.full((4, 3), 5.0),
        ).validate()
        world = make_world([], store_count=3, quotas=(500, 500, 500, 500), spawned=100,
                           capacity=cfg.total_agents)
        world.stationary_unretired[0] = 39
        replenish(world, cfg, uniform_placer, [np.random.default_rng(0)])
        assert world.agents_spawned[0] == 100
        assert world.stationary_unretired[0] == 39

    def test_budget_exhausted_no_spawn(self):
        cfg = SimConfig(
            store_count=3,
            total_agents=2000,
            group_quotas=(500, 500, 500, 500),
            attractiveness=np.full((4, 3), 5.0),
        ).validate()
        world = make_world([], store_count=3, quotas=(0, 0, 0, 0), spawned=2000,
                           capacity=cfg.total_agents)
        world.stationary_unretired[0] = 77
        replenish(world, cfg, uniform_placer, [np.random.default_rng(0)])
        assert world.agents_spawned[0] == 2000
        assert world.stationary_unretired[0] == 77

    def test_quota_exhaustion_caps_batch(self):
        cfg = SimConfig(
            store_count=3,
            total_agents=2000,
            replenish_threshold=40,
            replenish_count=40,
            group_quotas=(500, 500, 500, 500),
            attractiveness=np.full((4, 3), 5.0),
        ).validate()
        world = make_world([], store_count=3, quotas=(0, 3, 0, 0), spawned=1997,
                           capacity=cfg.total_agents)
        world.stationary_unretired[0] = 40
        replenish(world, cfg, uniform_placer, [np.random.default_rng(0)])
        assert world.agents_spawned[0] == 2000
        assert world.group[1997:].tolist() == [1, 1, 1]

    def test_multiple_batches_fire_in_one_call(self):
        cfg = small_sim_config(
            total_agents=100, group_quotas=(50, 50), replenish_threshold=2, replenish_count=2
        )
        world = make_world([], store_count=3, quotas=(40, 40), spawned=20,
                           capacity=cfg.total_agents)
        world.stationary_unretired[0] = 5
        replenish(world, cfg, uniform_placer, [np.random.default_rng(0)])
        assert world.agents_spawned[0] == 24  # two batches of 2
        assert world.stationary_unretired[0] == 1


class TestLifecycleRun:
    def run_to_horizon(self, cfg, seed=11):
        mover = model_mover(ChoiceModel(cfg))
        return run_worlds(cfg, mover, uniform_placer, [np.random.default_rng(seed)])[0]

    def test_accounting_and_path_bounds(self):
        cfg = small_sim_config(horizon_steps=80, total_agents=20, group_quotas=(10, 10))
        world = self.run_to_horizon(cfg)
        n = world.agents_spawned
        assert n <= cfg.total_agents
        assert np.all(world.path[n:] == -1) and not np.any(world.transitions[n:])
        spawned_by_group = np.bincount(world.group[:n], minlength=cfg.group_count)
        for g, q in enumerate(cfg.group_quotas):
            assert spawned_by_group[g] <= q
        for i in range(n):
            path = agent_path(world, i)
            assert len(path) <= cfg.max_transitions + 1
            assert path[-1] == world.stores(i)
            assert world.transitions[i] == len(path) - 1

    def test_entry_steps_fill_the_path_cells(self):
        cfg = small_sim_config(horizon_steps=80, total_agents=20, group_quotas=(10, 10))
        world = self.run_to_horizon(cfg)
        np.testing.assert_array_equal(world.entered >= 0, world.path >= 0)
        assert world.entered.max() <= cfg.horizon_steps

    def test_entry_gaps_are_dwell_times(self):
        # An agent leaves a store after one full dwell, drawn in
        # [dwell_min, dwell_max], whether it spawned or moved there.
        cfg = small_sim_config(horizon_steps=80, total_agents=20, group_quotas=(10, 10),
                               dwell_min=2, dwell_max=4)
        world = self.run_to_horizon(cfg)
        gaps = set()
        for i in range(world.agents_spawned):
            steps = [t for t in world.entered[i].tolist() if t >= 0]
            gaps.update(b - a for a, b in zip(steps, steps[1:]))
        assert gaps == {2, 3, 4}

    def test_trajectories_are_seed_deterministic(self):
        cfg = small_sim_config(horizon_steps=40)
        w1 = self.run_to_horizon(cfg, seed=21)
        w2 = self.run_to_horizon(cfg, seed=21)
        np.testing.assert_array_equal(path_rows(w1), path_rows(w2))
        w3 = self.run_to_horizon(cfg, seed=22)
        assert not np.array_equal(path_rows(w1), path_rows(w3))


class TestValidation:
    def test_graph_invariants(self):
        # SimConfig.validate holds every graph invariant, alongside the lifecycle ones.
        with pytest.raises(ValueError, match="symmetric"):
            small_sim_config(store_count=2, distance=[[0.0, 1.0], [2.0, 0.0]])
        with pytest.raises(ValueError, match="diagonal"):
            small_sim_config(store_count=2, distance=[[1.0, 1.0], [1.0, 0.0]])
        with pytest.raises(ValueError, match="positive"):
            small_sim_config(store_count=2, attractiveness=[[5.0, 0.0], [5.0, 5.0]])
        with pytest.raises(ValueError, match="store_count"):
            small_sim_config(store_count=1)
        with pytest.raises(ValueError, match="^store_count: must be >= 2"):
            SimConfig(store_count=-1).validate()

    def test_behavior_params_invariants(self):
        with pytest.raises(ValueError, match="^lam: entries must be >= 0"):
            small_sim_config(lam=-1.0)
        with pytest.raises(ValueError, match="^k: entries must be finite"):
            small_sim_config(k=float("nan"))

    def test_sim_config_invariants(self):
        with pytest.raises(ValueError, match="dwell_min"):
            small_sim_config(dwell_min=4, dwell_max=3)
        with pytest.raises(ValueError, match="group_quotas"):
            small_sim_config(group_quotas=(3, 3))
        with pytest.raises(ValueError, match="^group_quotas: entries must be integers"):
            small_sim_config(group_quotas=(4.5, 4.5))  # (4, 4) if truncated: 8 agents
        with pytest.raises(ValueError, match="initial_agents"):
            small_sim_config(initial_agents=100, total_agents=8)
        with pytest.raises(ValueError, match="^replenish_threshold: replenishment stops after 4 of"):
            small_sim_config(replenish_threshold=5)
