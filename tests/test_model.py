import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from roamlab.model import (
    ACTIVE,
    STATIONARY,
    BehaviorParams,
    ChoiceModel,
    SimConfig,
    StoreGraph,
    init_world,
    model_mover,
    replenish,
    step_world,
    store_utilities,
    uniform_placer,
    unit_distance,
)

from conftest import make_agent, make_graph, make_world, small_sim_config


def params(omega=0.0, k=1.0, lam=6.0):
    return BehaviorParams(omega=omega, k=k, lam=lam)


def kernel_probs(graph, pm, store, congestion=None, allow_self_transition=False):
    """ChoiceModel.probs for a one-group graph; zero congestion by default."""
    model = ChoiceModel(graph, (pm,), allow_self_transition)
    if congestion is None:
        congestion = np.zeros(graph.store_count, dtype=np.int64)
    return model.probs(0, store, congestion)


class TestChoiceProbabilities:
    def test_symmetric_stores_are_uniform(self):
        p = kernel_probs(make_graph([[5.0, 5.0, 5.0]]), params(), store=0)
        assert p[0] == 0.0
        # identical utilities give bit-identical probabilities
        assert p[1] == p[2]
        assert abs(p.sum() - 1.0) < 1e-9

    def test_hand_computed_utilities(self):
        # Independent scalar evaluation: u_j = A_j + sum_{j'!=j} A_j'/(1+d)^lam,
        # agent at store 2, so the normalization runs over stores {0, 1}.
        graph = make_graph([[5.0, 10.0, 5.0]])
        u0 = 5.0 + (10.0 + 5.0) / 2.0**6
        u1 = 10.0 + (5.0 + 5.0) / 2.0**6
        e0, e1 = math.exp(u0), math.exp(u1)
        expected = np.array([e0 / (e0 + e1), e1 / (e0 + e1), 0.0])
        p = kernel_probs(graph, params(), store=2)
        np.testing.assert_allclose(p, expected, atol=1e-12)

    def test_shift_invariance_via_occupancy(self):
        # Raising every store's occupancy by the same amount shifts all
        # utilities by a constant, which the normalization must ignore.
        rng = np.random.default_rng(7)
        graph = make_graph(rng.uniform(1, 10, size=(1, 6)))
        pm = params(omega=0.5)
        congestion_a = rng.integers(0, 30, size=6)
        pa = kernel_probs(graph, pm, store=3, congestion=congestion_a)
        pb = kernel_probs(graph, pm, store=3, congestion=congestion_a + 17)
        np.testing.assert_allclose(np.log(pa[pa > 0]), np.log(pb[pb > 0]), atol=1e-12)

    def test_omega_zero_ignores_occupancy(self):
        graph = make_graph([[2.0, 7.0, 4.0, 6.0]])
        p0 = kernel_probs(graph, params(omega=0.0), store=1)
        p1 = kernel_probs(graph, params(omega=0.0), store=1, congestion=np.array([90, 0, 50, 3]))
        np.testing.assert_array_equal(p0, p1)

    def test_allow_self_transition_includes_current_store(self):
        graph = make_graph([[5.0, 5.0, 5.0]])
        p = kernel_probs(graph, params(), store=0, allow_self_transition=True)
        assert p[0] > 0
        assert abs(p.sum() - 1.0) < 1e-9

    def test_rejects_non_finite_utilities(self):
        graph = make_graph([[5.0, 5.0, 1e308]])
        with np.errstate(over="ignore"), pytest.raises(ValueError, match="non-finite"):
            kernel_probs(graph, params(k=1e308), store=0)

    @settings(max_examples=60, deadline=None)
    @given(st.integers(0, 10_000))
    def test_probabilities_sum_to_one(self, seed):
        rng = np.random.default_rng(seed)
        s = int(rng.integers(2, 20))
        graph = make_graph(rng.uniform(0.1, 20.0, size=(1, s)))
        store = int(rng.integers(s))
        congestion = rng.integers(0, 40, size=s)
        pm = params(omega=float(rng.uniform(-1, 1)), k=float(rng.uniform(-2, 2)),
                    lam=float(rng.uniform(0, 8)))
        p = kernel_probs(graph, pm, store=store, congestion=congestion)
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
        p_before = kernel_probs(make_graph(a), pm, store=0)
        a2 = a.copy()
        a2[0, j] += bump
        p_after = kernel_probs(make_graph(a2), pm, store=0)
        assert p_after[j] >= p_before[j] - 1e-12


class TestChoiceModel:
    def test_matches_direct_computation(self):
        # Scalar oracle sharing no code with the kernel:
        # u_j = k*(A_gj + sum_{j'!=j} A_gj' * (1 + d_jj')^-lam) + omega*c_j,
        # normalized with math.exp over every store but the current one.
        rng = np.random.default_rng(3)
        a = rng.uniform(1, 10, size=(2, 7))
        d = rng.uniform(0, 4, size=(7, 7))
        d = (d + d.T) / 2
        np.fill_diagonal(d, 0.0)
        behavior = (params(omega=0.01), params(omega=0.3, k=0.7, lam=2.0))
        model = ChoiceModel(make_graph(a, d), behavior)
        congestion = rng.integers(0, 25, size=7)
        for group, pm in enumerate(behavior):
            for current in range(7):
                u = {}
                for j in range(7):
                    if j == current:
                        continue
                    spill = sum(
                        a[group, jp] * (1.0 + d[j, jp]) ** -pm.lam for jp in range(7) if jp != j
                    )
                    u[j] = pm.k * (a[group, j] + spill) + pm.omega * int(congestion[j])
                z = sum(math.exp(v) for v in u.values())
                expected = [math.exp(u[j]) / z if j in u else 0.0 for j in range(7)]
                np.testing.assert_allclose(
                    model.probs(group, current, congestion), expected, rtol=1e-12, atol=1e-15
                )

    def test_static_part_excludes_self_spillover(self):
        graph = make_graph([[3.0, 4.0]])
        u = store_utilities(graph, params(lam=1.0), 0, np.zeros(2))
        np.testing.assert_allclose(u, [3.0 + 4.0 / 2.0, 4.0 + 3.0 / 2.0])


class TestStepWorld:
    def test_dwell_countdown_without_move(self):
        cfg = small_sim_config()
        agent = make_agent(dwell=2)
        world = make_world([agent], store_count=3, quotas=(4, 4), spawned=4)
        mover_calls = []

        def mover(world, agent, rng):
            mover_calls.append(agent.agent_id)
            return 1

        step_world(world, cfg, mover, uniform_placer, np.random.default_rng(0))
        assert agent.dwell_remaining == 1
        assert mover_calls == []
        assert agent.path == [0]

    def test_move_on_dwell_zero(self):
        cfg = small_sim_config()
        agent = make_agent(dwell=1)
        world = make_world([agent], store_count=3, quotas=(4, 4), spawned=4)
        step_world(world, cfg, lambda w, a, r: 2, uniform_placer, np.random.default_rng(0))
        assert agent.path == [0, 2]
        assert agent.transitions_made == 1
        assert cfg.dwell_min <= agent.dwell_remaining <= cfg.dwell_max
        assert world.last_report.move_entries == [(0, 0, 2)]

    def test_stationary_agent_never_moves(self):
        cfg = small_sim_config()
        agent = make_agent(path=[0, 1, 2, 0], dwell=0, status=STATIONARY)
        world = make_world([agent], store_count=3, quotas=(4, 4), spawned=4)
        world.stationary_unretired = 1
        for _ in range(5):
            step_world(world, cfg, lambda w, a, r: 1, uniform_placer, np.random.default_rng(0))
        assert agent.path == [0, 1, 2, 0]
        assert agent.status == STATIONARY

    def test_final_transition_marks_stationary(self):
        cfg = small_sim_config()
        agent = make_agent(path=[0, 1, 2], dwell=1)
        world = make_world([agent], store_count=3, quotas=(4, 4), spawned=4)
        step_world(world, cfg, lambda w, a, r: 0, uniform_placer, np.random.default_rng(0))
        assert agent.status == STATIONARY
        assert agent.transitions_made == 3
        # one stationary agent; below threshold 2, so nothing spawned
        assert world.stationary_unretired == 1
        assert world.occupancy.sum() == 0

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
        agents = [make_agent(agent_id=i, path=[0, 1, 2], dwell=1) for i in range(40)]
        world = make_world(agents, store_count=3, quotas=(50, 50, 50, 50), spawned=40)
        step_world(world, cfg, lambda w, a, r: 0, uniform_placer, np.random.default_rng(1))
        assert world.agents_spawned == 80
        newcomers = world.agents[40:]
        assert len(newcomers) == 40
        assert all(a.status == ACTIVE for a in newcomers)
        assert world.stationary_unretired == 0  # batch retired

    def test_occupancy_tracks_active_agents(self):
        cfg = small_sim_config()
        rng = np.random.default_rng(5)
        graph = cfg.graph()
        mover = model_mover(ChoiceModel(graph, cfg.behavior))
        world = init_world(cfg, uniform_placer, rng)
        for _ in range(cfg.horizon_steps):
            step_world(world, cfg, mover, uniform_placer, rng)
            expected = np.zeros(cfg.store_count, dtype=np.int64)
            for a in world.agents:
                if a.status == ACTIVE:
                    expected[a.current_store] += 1
            np.testing.assert_array_equal(world.occupancy, expected)

    def test_rejects_step_past_horizon(self):
        cfg = small_sim_config(horizon_steps=1)
        world = make_world([make_agent()], store_count=3, quotas=(4, 4), spawned=4)
        step_world(world, cfg, lambda w, a, r: 1, uniform_placer, np.random.default_rng(0))
        with pytest.raises(ValueError, match="horizon"):
            step_world(world, cfg, lambda w, a, r: 1, uniform_placer, np.random.default_rng(0))


class TestReplenish:
    def test_below_threshold_no_spawn(self):
        from roamlab.model import StepReport

        cfg = SimConfig(
            store_count=3,
            total_agents=2000,
            initial_agents=100,
            replenish_threshold=40,
            group_quotas=(500, 500, 500, 500),
            attractiveness=np.full((4, 3), 5.0),
        ).validate()
        world = make_world([], store_count=3, quotas=(500, 500, 500, 500), spawned=100)
        world.stationary_unretired = 39
        world.last_report = StepReport(step=1, move_entries=[], spawn_entries=[])
        replenish(world, cfg, uniform_placer, np.random.default_rng(0))
        assert world.agents_spawned == 100
        assert world.stationary_unretired == 39

    def test_budget_exhausted_no_spawn(self):
        from roamlab.model import StepReport

        cfg = SimConfig(
            store_count=3,
            total_agents=2000,
            group_quotas=(500, 500, 500, 500),
            attractiveness=np.full((4, 3), 5.0),
        ).validate()
        world = make_world([], store_count=3, quotas=(0, 0, 0, 0), spawned=2000)
        world.stationary_unretired = 77
        world.last_report = StepReport(step=1, move_entries=[], spawn_entries=[])
        replenish(world, cfg, uniform_placer, np.random.default_rng(0))
        assert world.agents_spawned == 2000
        assert world.stationary_unretired == 77

    def test_quota_exhaustion_caps_batch(self):
        from roamlab.model import StepReport

        cfg = SimConfig(
            store_count=3,
            total_agents=2000,
            replenish_threshold=40,
            replenish_count=40,
            group_quotas=(500, 500, 500, 500),
            attractiveness=np.full((4, 3), 5.0),
        ).validate()
        world = make_world([], store_count=3, quotas=(0, 3, 0, 0), spawned=1997)
        world.stationary_unretired = 40
        world.last_report = StepReport(step=1, move_entries=[], spawn_entries=[])
        replenish(world, cfg, uniform_placer, np.random.default_rng(0))
        assert world.agents_spawned == 2000
        assert [a.group for a in world.agents] == [1, 1, 1]

    def test_multiple_batches_fire_in_one_call(self):
        from roamlab.model import StepReport

        cfg = small_sim_config(
            total_agents=100, group_quotas=(50, 50), replenish_threshold=2, replenish_count=2
        )
        world = make_world([], store_count=3, quotas=(40, 40), spawned=20)
        world.stationary_unretired = 5
        world.last_report = StepReport(step=1, move_entries=[], spawn_entries=[])
        replenish(world, cfg, uniform_placer, np.random.default_rng(0))
        assert world.agents_spawned == 24  # two batches of 2
        assert world.stationary_unretired == 1


class TestLifecycleRun:
    def run_to_horizon(self, cfg, seed=11):
        rng = np.random.default_rng(seed)
        mover = model_mover(ChoiceModel(cfg.graph(), cfg.behavior))
        world = init_world(cfg, uniform_placer, rng)
        for _ in range(cfg.horizon_steps):
            step_world(world, cfg, mover, uniform_placer, rng)
        return world

    def test_accounting_and_path_bounds(self):
        cfg = small_sim_config(horizon_steps=80, total_agents=20, group_quotas=(10, 10))
        world = self.run_to_horizon(cfg)
        assert len(world.agents) == world.agents_spawned <= cfg.total_agents
        spawned_by_group = np.bincount(
            [a.group for a in world.agents], minlength=cfg.group_count
        )
        for g, q in enumerate(cfg.group_quotas):
            assert spawned_by_group[g] <= q
        for a in world.agents:
            assert len(a.path) <= cfg.max_transitions + 1
            assert a.path[-1] == a.current_store
            assert a.transitions_made == len(a.path) - 1
            assert (a.status == STATIONARY) == (a.transitions_made == cfg.max_transitions)

    def test_trajectories_are_seed_deterministic(self):
        cfg = small_sim_config(horizon_steps=40)
        w1 = self.run_to_horizon(cfg, seed=21)
        w2 = self.run_to_horizon(cfg, seed=21)
        assert [a.path for a in w1.agents] == [a.path for a in w2.agents]
        w3 = self.run_to_horizon(cfg, seed=22)
        assert [a.path for a in w1.agents] != [a.path for a in w3.agents]


class TestValidation:
    def test_graph_invariants(self):
        with pytest.raises(ValueError, match="symmetric"):
            StoreGraph(
                distance=np.array([[0.0, 1.0], [2.0, 0.0]]),
                attractiveness=np.full((1, 2), 5.0),
            )
        with pytest.raises(ValueError, match="diagonal"):
            StoreGraph(
                distance=np.array([[1.0, 1.0], [1.0, 0.0]]),
                attractiveness=np.full((1, 2), 5.0),
            )
        with pytest.raises(ValueError, match="positive"):
            StoreGraph(distance=unit_distance(2), attractiveness=np.array([[5.0, 0.0]]))
        with pytest.raises(ValueError, match="store_count"):
            StoreGraph(distance=np.zeros((1, 1)), attractiveness=np.array([[5.0]]))

    def test_behavior_params_invariants(self):
        with pytest.raises(ValueError):
            BehaviorParams(lam=-1.0)
        with pytest.raises(ValueError):
            BehaviorParams(k=float("nan"))

    def test_sim_config_invariants(self):
        with pytest.raises(ValueError, match="dwell_min"):
            small_sim_config(dwell_min=4, dwell_max=3)
        with pytest.raises(ValueError, match="group_quotas"):
            small_sim_config(group_quotas=(3, 3))
        with pytest.raises(ValueError, match="initial_agents"):
            small_sim_config(initial_agents=100, total_agents=8)
