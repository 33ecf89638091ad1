"""Worlds stepped in lockstep equal the same worlds run one at a time.

No statistics: W worlds run together, by model.run_worlds or by
run_truth, run_baseline and run_assimilation given W generators, hold the
arrays that W separate runs hold, array for array, and leave every
generator in the state the separate runs leave it in. Each world keeps its
own generator and its own draw order, so the worlds beside it, and how many
step at once, change nothing.
"""

import numpy as np
import pytest
from hypothesis import HealthCheck, assume, given, settings

import roamlab.model
from roamlab.assimilation import run_assimilation, run_baseline
from roamlab.config import ConfigSchemaError, resolve_config
from roamlab.model import ChoiceModel, model_mover, run_worlds, uniform_placer
from roamlab.twin import run_truth, sample_biased_pool

from conftest import TINY_OVERRIDES, small_sim_config
from test_random_configs import raw_configs

FIELDS = ("path", "entered", "group", "transitions", "dwell")


def generators(count, seed=0):
    return [np.random.default_rng([seed, i]) for i in range(count)]


def assert_same(together, alone, rngs_together=(), rngs_alone=()):
    """Equal worlds, array for array, and generators left in equal states."""
    assert len(together) == len(alone)
    for a, b in zip(together, alone):
        for field in FIELDS:
            np.testing.assert_array_equal(getattr(a, field), getattr(b, field), err_msg=field)
        assert a.agents_spawned == b.agents_spawned
    assert len(rngs_together) == len(rngs_alone)
    for r, s in zip(rngs_together, rngs_alone):
        assert r.bit_generator.state == s.bit_generator.state


@pytest.mark.parametrize("count", [1, 2, 5])
def test_plain_worlds_equal_worlds_run_alone(count):
    cfg = resolve_config({}, TINY_OVERRIDES).truth
    mover = model_mover(ChoiceModel(cfg))
    movers = []  # the movers of each world at each mover call

    def counting(world, ids, rng):
        movers.append(np.bincount(ids // world.capacity, minlength=world.size))
        return mover(world, ids, rng)

    a, b = generators(count), generators(count)
    together = run_worlds(cfg, counting, uniform_placer, a)
    assert_same(together, [run_worlds(cfg, mover, uniform_placer, [r])[0] for r in b], a, b)
    if count > 1:  # the worlds moved unequal numbers of agents at some step
        assert any(len(set(m.tolist())) > 1 for m in movers)


def test_a_world_spawning_nobody_after_step_0_steps_beside_others():
    # Three initial agents, replenished once all three have gone stationary:
    # with one transition each and dwells of 1-3 steps, within two steps that
    # happens in some worlds and not in others.
    cfg = small_sim_config(total_agents=12, group_quotas=(6, 6), initial_agents=3,
                           replenish_threshold=3, replenish_count=3, max_transitions=1,
                           dwell_min=1, dwell_max=3, horizon_steps=2)
    mover = model_mover(ChoiceModel(cfg))
    a, b = generators(8, seed=3), generators(8, seed=3)
    together = run_worlds(cfg, mover, uniform_placer, a)
    spawned = {w.agents_spawned for w in together}
    assert cfg.initial_agents in spawned and len(spawned) > 1
    assert_same(together, [run_worlds(cfg, mover, uniform_placer, [r])[0] for r in b], a, b)


def family_runs(cfg, count):
    """For every policy family of cfg's run, the worlds of `count` replicates
    run in lockstep and run alone, with the generators each side used."""
    sim, options = cfg.assim, cfg.assim_options
    truth_a, base_a = generators(count, 1), generators(count, 2)
    truth_b, base_b = generators(count, 1), generators(count, 2)
    worlds, observations = run_baseline(sim, base_a, truth=(cfg.truth, truth_a,
                                                            cfg.count_spawn_as_inflow))
    truths = [run_truth(cfg.truth, [r], cfg.count_spawn_as_inflow) for r in truth_b]
    alone = [w for [w], _ in truths] + [w for r in base_b for w in run_baseline(sim, [r])]
    for obs, (_, [expected]) in zip(observations, truths):
        np.testing.assert_array_equal(obs, expected)
    yield worlds, alone, truth_a + base_a, truth_b + base_b

    pools = []
    for k, ([world], _) in enumerate(truths):
        try:
            pools.append(sample_biased_pool(roamlab.model.completed_paths(world),
                                            cfg.pool_ratios, cfg.pool_size,
                                            np.random.default_rng(k)))
        except ValueError:  # a group with a pool share finished no path
            pools = None
            break
    roles = ["case1", "case2"] + (["case3", "case3_random"] if pools else [])
    for family in (roles[:2], roles[2:]):
        if not family:
            continue
        worlds_of = [(role, k) for role in family for k in range(count)]
        pool = [pools[k] if role.startswith("case3") else None for role, k in worlds_of]
        a, b = generators(len(worlds_of), 4), generators(len(worlds_of), 4)
        worlds, assignments = run_assimilation(
            sim, [observations[k] for _, k in worlds_of], [role for role, _ in worlds_of],
            pool=pool, rng=a, options=options)
        alone = [run_assimilation(sim, [observations[k]], [role], pool=[p], rng=[r],
                                  options=options)
                 for (role, k), p, r in zip(worlds_of, pool, b)]
        for rows, (_, [expected]) in zip(assignments, alone):
            if expected is None:
                assert rows is None
            else:
                np.testing.assert_array_equal(rows, expected)
        yield worlds, [w for [w], _ in alone], a, b


def test_roles_of_one_family_equal_roles_run_alone():
    """Truth with baseline, case 1 with case 2 and case 3 with its random
    control, three replicates each."""
    cfg = resolve_config({}, TINY_OVERRIDES)
    runs = list(family_runs(cfg, 3))
    assert len(runs) == 3
    for together, alone, rngs_together, rngs_alone in runs:
        assert_same(together, alone, rngs_together, rngs_alone)


@settings(max_examples=40, deadline=None, suppress_health_check=[HealthCheck.too_slow])
@given(raw_configs())
def test_lockstep_equals_alone_on_random_configs(raw):
    try:
        cfg = resolve_config(raw)
    except ConfigSchemaError:
        assume(False)
    for together, alone, rngs_together, rngs_alone in family_runs(cfg, 2):
        assert_same(together, alone, rngs_together, rngs_alone)
