import numpy as np
import pytest
from reference import rebuild_observations

from roamlab.metrics import build_od
from roamlab.model import completed_paths, path_rows
from roamlab.twin import run_truth, sample_biased_pool

from conftest import agent_path, small_sim_config


@pytest.fixture(scope="module")
def truth_run():
    cfg = small_sim_config(
        store_count=5,
        total_agents=120,
        group_quotas=(60, 60),
        initial_agents=20,
        replenish_threshold=5,
        replenish_count=5,
        horizon_steps=80,
        attractiveness=np.array([[5.0, 7.0, 5.0, 5.0, 5.0], [5.0, 5.0, 5.0, 8.0, 5.0]]),
    )
    return (cfg, *run_truth(cfg, np.random.default_rng(42)))


class TestObservations:
    def test_quiet_first_step_has_zero_inflow(self):
        # dwell is at least 2, so nobody moves (and nobody spawns) at step 1
        cfg = small_sim_config(horizon_steps=2)
        _, observations = run_truth(cfg, np.random.default_rng(0))
        assert observations[1].sum() == 0

    def test_step_zero_counts_initial_spawns(self, truth_run):
        cfg, _, observations = truth_run
        assert observations[0].sum() == cfg.initial_agents

    def test_total_inflow_counts_every_entry(self, truth_run):
        # Counting oracle over the paths: each transition and each spawn is
        # exactly one entry.
        cfg, world, observations = truth_run
        spawns = world.agents_spawned
        transitions = sum(len(agent_path(world, i)) - 1 for i in range(spawns))
        assert int(observations.sum()) == transitions + spawns

    def test_spawns_excluded_when_flag_off(self):
        cfg = small_sim_config(horizon_steps=40)
        _, with_spawns = run_truth(cfg, np.random.default_rng(1), count_spawn_as_inflow=True)
        world, without = run_truth(cfg, np.random.default_rng(1), count_spawn_as_inflow=False)
        total_with = int(with_spawns.sum())
        total_without = int(without.sum())
        assert total_with - total_without == world.agents_spawned

    def test_inflow_bounded_by_agents_active_during_step(self, truth_run):
        # Every entry belongs to an agent active at some point within the step:
        # replay the entry steps to track the active population independently.
        from collections import Counter

        cfg, world, observations = truth_run
        entered = world.entered[: world.agents_spawned].tolist()
        spawned_at = Counter(steps[0] for steps in entered)
        completed_at = Counter(steps[-1] for steps in entered if steps[-1] >= 0)
        active = 0
        for step, counts in enumerate(observations):
            during = active + spawned_at[step]
            assert int(counts.sum()) <= during
            active = during - completed_at[step]

    @pytest.mark.parametrize("count_spawn_as_inflow", [True, False])
    def test_path_replay_reproduces_observations(self, truth_run, count_spawn_as_inflow):
        cfg, _, _ = truth_run
        world, observations = run_truth(cfg, np.random.default_rng(42), count_spawn_as_inflow)
        rebuilt = rebuild_observations(
            world, cfg.horizon_steps, cfg.store_count, cfg.group_count,
            count_spawn_as_inflow,
        )
        assert rebuilt.shape == (cfg.horizon_steps + 1, cfg.group_count, cfg.store_count)
        np.testing.assert_array_equal(rebuilt, observations)

    def test_archive_bounded_by_total_agents(self, truth_run):
        cfg, world, _ = truth_run
        groups, paths = completed_paths(world)
        assert len(groups) == len(paths) <= cfg.total_agents
        assert paths.shape[1] == cfg.max_transitions + 1 and np.all(paths >= 0)

    def test_od_margins_match_independent_path_counts(self, truth_run):
        cfg, world, _ = truth_run
        paths = [agent_path(world, i) for i in range(world.agents_spawned)]
        od = build_od(path_rows(world), cfg.store_count)
        departures = np.zeros(cfg.store_count, dtype=int)
        arrivals = np.zeros(cfg.store_count, dtype=int)
        for p in paths:
            for s in p[:-1]:
                departures[s] += 1
            for s in p[1:]:
                arrivals[s] += 1
        np.testing.assert_array_equal(od.sum(axis=1), departures)
        np.testing.assert_array_equal(od.sum(axis=0), arrivals)


def as_archive(pairs):
    """(groups, paths) arrays of (group, path) pairs."""
    return np.array([g for g, _ in pairs]), np.array([p for _, p in pairs])


class TestBiasedPool:
    def archive(self, rng, per_group=(30, 30, 30, 30), length=4, stores=6):
        out = []
        for g, n in enumerate(per_group):
            for _ in range(n):
                out.append((g, tuple(int(x) for x in rng.integers(0, stores, size=length))))
        return as_archive(out)

    def test_degenerate_ratio_selects_one_group(self):
        rng = np.random.default_rng(0)
        pool = sample_biased_pool(self.archive(rng), [1.0, 0.0, 0.0, 0.0], 40, rng)
        assert set(pool.attrs.tolist()) == {0}

    def test_group_counts_within_three_sigma_of_multinomial(self):
        rng = np.random.default_rng(1)
        ratios = np.array([0.4, 0.25, 0.2, 0.15])
        n = 400
        pool = sample_biased_pool(
            self.archive(rng, per_group=(400, 400, 400, 400)), ratios, n, rng
        )
        counts = np.bincount(pool.attrs, minlength=4)
        sigma = np.sqrt(n * ratios * (1 - ratios))
        assert np.all(np.abs(counts - n * ratios) <= 3 * sigma)

    def test_uniform_ratios_recover_uniform_composition(self):
        rng = np.random.default_rng(2)
        ratios = np.full(4, 0.25)
        n = 2000
        pool = sample_biased_pool(
            self.archive(rng, per_group=(900, 900, 900, 900)), ratios, n, rng
        )
        counts = np.bincount(pool.attrs, minlength=4)
        sigma = np.sqrt(n * ratios * (1 - ratios))
        assert np.all(np.abs(counts - n * ratios) <= 3 * sigma)

    def test_without_replacement_until_group_exhausted(self):
        rng = np.random.default_rng(3)
        distinct = [(0, (0, 1, 2, 3)), (0, (1, 2, 3, 4)), (0, (2, 3, 4, 5))]
        pool = sample_biased_pool(as_archive(distinct), [1.0], 7, rng)
        drawn = [tuple(p) for p in pool.paths]
        assert sorted(drawn[:3]) == sorted(p for _, p in distinct)
        assert all(d in {p for _, p in distinct} for d in drawn)

    def test_missing_group_with_positive_ratio_raises(self):
        rng = np.random.default_rng(4)
        archive = as_archive([(0, (0, 1, 2, 3))])
        with pytest.raises(ValueError, match="group 1"):
            sample_biased_pool(archive, [0.5, 0.5], 10, rng)

    def test_bad_ratios_raise(self):
        rng = np.random.default_rng(5)
        with pytest.raises(ValueError, match="sum to 1"):
            sample_biased_pool(as_archive([(0, (0, 1))]), [0.7, 0.7], 4, rng)
