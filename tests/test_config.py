import json

import numpy as np
import pytest

from roamlab.config import (
    ConfigReadError,
    ConfigSchemaError,
    config_hash,
    resolve_config,
    truth_attractiveness,
    uniform_attractiveness,
    validate_config,
)


class TestDefaults:
    def test_empty_config_reproduces_reference_protocol(self):
        cfg = resolve_config({})
        assert cfg.truth.store_count == 18
        assert cfg.truth.total_agents == 2000
        assert cfg.truth.horizon_steps == 200
        assert cfg.truth.group_quotas == (500, 500, 500, 500)
        assert cfg.truth.initial_agents == 100
        assert cfg.truth.replenish_threshold == 40
        assert cfg.truth.replenish_count == 40
        assert cfg.truth.max_transitions == 3
        assert (cfg.truth.dwell_min, cfg.truth.dwell_max) == (2, 3)
        assert cfg.replicate_count == 30
        assert cfg.cases == (1, 2, 3)
        assert cfg.pool_size == 400
        assert cfg.pool_ratios == (0.4, 0.25, 0.2, 0.15)
        assert cfg.assim_options.particle_count == 100
        for p in cfg.truth.behavior:
            assert (p.omega, p.k, p.lam) == (0.005, 1.0, 6.0)

    def test_truth_attractiveness_table(self):
        a = truth_attractiveness()
        assert a.shape == (4, 18)
        np.testing.assert_array_equal(a[0, 0:3], [7.5] * 3)
        np.testing.assert_array_equal(a[1, 3:6], [8.0] * 3)
        np.testing.assert_array_equal(a[2, 6:9], [8.5] * 3)
        np.testing.assert_array_equal(a[3, 9:12], [10.0] * 3)
        mask = np.full((4, 18), False)
        for g in range(4):
            mask[g, 3 * g : 3 * g + 3] = True
        assert np.all(a[~mask] == 5.0)

    def test_assim_environment_is_uniform_five(self):
        cfg = resolve_config({})
        assert np.all(cfg.assim.attractiveness == 5.0)
        np.testing.assert_array_equal(uniform_attractiveness(), np.full((4, 18), 5.0))

    def test_environments_share_structural_fields(self):
        cfg = resolve_config({})
        for f in ("store_count", "total_agents", "initial_agents", "horizon_steps",
                  "group_quotas", "dwell_min", "dwell_max", "max_transitions"):
            assert getattr(cfg.truth, f) == getattr(cfg.assim, f)
        np.testing.assert_array_equal(cfg.truth.distance, cfg.assim.distance)
        assert not np.array_equal(cfg.truth.attractiveness, cfg.assim.attractiveness)

    def test_distance_defaults_to_unit_complete_graph(self):
        cfg = resolve_config({})
        d = cfg.truth.distance
        assert np.all(np.diag(d) == 0)
        off = d[~np.eye(18, dtype=bool)]
        assert np.all(off == 1.0)


class TestSchemaErrors:
    def test_unknown_key_named(self):
        with pytest.raises(ConfigSchemaError, match="sim.store_cout"):
            resolve_config({"sim.store_cout": 12})

    def test_explicit_resample_is_an_unknown_key(self):
        # Resampling then picking uniformly has the law of the one weighted
        # pick, so the switch between them was removed.
        with pytest.raises(ConfigSchemaError, match="flags.explicit_resample: unknown"):
            resolve_config({"flags.explicit_resample": True})

    def test_type_violation_named(self):
        with pytest.raises(ConfigSchemaError, match="sim.total_agents"):
            resolve_config({"sim.total_agents": "lots"})

    def test_quota_sum_mismatch_names_both_values(self):
        with pytest.raises(ConfigSchemaError, match="190.*200|group_quotas"):
            resolve_config(
                {"sim.total_agents": 200, "sim.group_quotas": [40, 50, 50, 50]}
            )

    def test_dwell_inversion(self):
        with pytest.raises(ConfigSchemaError, match="dwell_min"):
            resolve_config({"sim.dwell_min": 5, "sim.dwell_max": 3})

    def test_ratio_length_must_match_groups(self):
        with pytest.raises(ConfigSchemaError, match="pool.ratios"):
            resolve_config({"pool.ratios": [0.5, 0.5]})

    def test_replicates_lower_bound(self):
        with pytest.raises(ConfigSchemaError, match="experiment.replicates"):
            resolve_config({"experiment.replicates": 0})

    def test_cases_vocabulary(self):
        with pytest.raises(ConfigSchemaError, match="experiment.cases"):
            resolve_config({"experiment.cases": [1, 9]})

    def test_uneven_default_quota_split_requires_explicit_quotas(self):
        with pytest.raises(ConfigSchemaError, match="sim.group_quotas"):
            resolve_config({"sim.total_agents": 2001})


class TestFilesAndHash:
    def test_file_roundtrip_with_overrides(self, tmp_path):
        path = tmp_path / "cfg.json"
        path.write_text(json.dumps({"sim.horizon_steps": 50}))
        cfg = validate_config(path, {"experiment.replicates": 3})
        assert cfg.truth.horizon_steps == 50
        assert cfg.replicate_count == 3
        assert cfg.resolved["sim.horizon_steps"] == 50

    def test_missing_file_is_read_error(self, tmp_path):
        with pytest.raises(ConfigReadError, match="cannot read"):
            validate_config(tmp_path / "nope.json")

    def test_invalid_json_is_read_error(self, tmp_path):
        path = tmp_path / "bad.json"
        path.write_text("{not json")
        with pytest.raises(ConfigReadError, match="not valid JSON"):
            validate_config(path)

    def test_hash_tracks_semantic_changes_only(self):
        base = config_hash(resolve_config({}))
        assert config_hash(resolve_config({"experiment.jobs": 7})) == base
        assert config_hash(resolve_config({"sim.total_agents": 1000,
                                           "sim.group_quotas": [250] * 4})) != base
        assert config_hash(resolve_config({"flags.weight_accumulation": True})) != base
        assert config_hash(resolve_config({"experiment.base_seed": 1})) != base

    def test_resolved_echo_is_json_serializable(self):
        cfg = resolve_config({})
        blob = json.dumps(cfg.resolved, sort_keys=True)
        assert "sim.store_count" in blob
