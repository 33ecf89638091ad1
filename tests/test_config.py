import json
import re
from pathlib import Path

import numpy as np
import pytest

from roamlab.config import (
    SCHEMA,
    ConfigReadError,
    ConfigSchemaError,
    config_hash,
    resolve_config,
    truth_attractiveness,
    uniform_attractiveness,
    validate_config,
)
from roamlab.model import SimConfig


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
        for field, value in (("omega", 0.005), ("k", 1.0), ("lam", 6.0)):
            np.testing.assert_array_equal(getattr(cfg.truth, field), [value] * 4)

    def test_truth_attractiveness_table(self):
        a = truth_attractiveness(SimConfig.group_count, SimConfig.store_count)
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
        np.testing.assert_array_equal(
            uniform_attractiveness(SimConfig.group_count, SimConfig.store_count),
            np.full((4, 18), 5.0))

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

    def test_readme_table_names_exactly_the_schema_keys(self):
        # a row may name several keys, as `sim.omega`, `sim.k` does; sorted
        # lists also catch a key named in two rows
        readme = (Path(__file__).parents[1] / "README.md").read_text(encoding="utf-8")
        section = readme.split("\n## Configuration\n", 1)[1].split("\n## ", 1)[0]
        named = [key for line in section.splitlines() if line.startswith("| `")
                 for key in re.findall(r"`([^`]+)`", line.split("|")[1])]
        assert sorted(named) == sorted(SCHEMA)


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

    @pytest.mark.parametrize(
        "key, matrix",
        [
            ("sim.distance", [[0, 1], [1]]),
            ("sim.distance", [[0, 1], [1, "far"]]),
            ("truth.attractiveness", [[5.0] * 18] * 3 + [[5.0] * 17]),
            ("assim.attractiveness", [[5.0] * 18] * 3 + [[5.0] * 19]),
        ],
        ids=["ragged-distance", "string-distance", "ragged-truth", "ragged-assim"],
    )
    def test_malformed_matrix_named(self, key, matrix):
        with pytest.raises(ConfigSchemaError, match=rf"^{key}: expected matrix"):
            resolve_config({key: matrix})

    @pytest.mark.parametrize(
        "raw, message",
        [
            ({"sim.distance": [[0, 1], [2, 0]]}, "sim.distance: matrix must be symmetric"),
            ({"sim.distance": [[1, 1], [1, 0]]}, "sim.distance: diagonal must be zero"),
            ({"sim.distance": [[0, -1], [-1, 0]]}, "sim.distance: entries must be non-negative"),
            ({"sim.distance": [[0, 1, 1]] * 3}, r"sim.distance: expected shape \(2, 2\)"),
            ({"truth.attractiveness": [[5, 5]] * 3 + [[5, 0]]},
             "truth.attractiveness: entries must be finite and positive"),
            ({"assim.attractiveness": [[5, 5]] * 3}, r"assim.attractiveness: expected shape \(4, 2\)"),
            ({"sim.k": 1e308}, "sim.k: store utilities are not finite at congestion 0"),
            ({"sim.k": -1e308}, "sim.k: store utilities are not finite at congestion 0"),
            ({"sim.omega": 1e308}, "sim.omega: store utilities are not finite at congestion 2000"),
        ],
        ids=["asymmetric", "diagonal", "negative", "shape", "zero-attractiveness", "short-table",
             "huge-k", "huge-negative-k", "huge-omega"],
    )
    def test_invalid_environment_names_its_key(self, raw, message):
        two_stores = {
            "sim.store_count": 2,
            "sim.distance": [[0, 1], [1, 0]],
            "truth.attractiveness": [[5, 5]] * 4,
            "assim.attractiveness": [[5, 5]] * 4,
        }
        with pytest.raises(ConfigSchemaError, match=f"^{message}"):
            resolve_config({**two_stores, **raw})

    @pytest.mark.parametrize(
        "raw, key",
        [
            ({"sim.group_count": 0}, "sim.group_count"),
            ({"sim.group_count": -3, "sim.group_quotas": []}, "sim.group_count"),
            ({"sim.initial_agents": -5}, "sim.initial_agents"),
            ({"sim.initial_agents": 0}, "sim.initial_agents"),
            ({"sim.total_agents": 0}, "sim.total_agents"),
            ({"sim.total_agents": 0, "sim.initial_agents": 0}, "sim.total_agents"),
            ({"sim.total_agents": -4}, "sim.total_agents"),
            ({"sim.replenish_count": 0}, "sim.replenish_count"),
        ],
        ids=["no-groups", "negative-groups", "negative-initial", "no-initial", "no-agents",
             "no-agents-no-initial", "negative-agents", "no-replenish-count"],
    )
    def test_counts_below_one_named(self, raw, key):
        with pytest.raises(ConfigSchemaError, match=rf"^{key}: must be >= 1"):
            resolve_config(raw)

    @pytest.mark.parametrize(
        "raw, message",
        [
            ({"experiment.base_seed": -1}, "experiment.base_seed: must be >= 0, got -1"),
            ({"sim.store_count": -1}, "sim.store_count: must be >= 2, got -1"),
            ({"sim.group_quotas": [0.5, 0.5, 1000, 1000]},
             "sim.group_quotas: expected list of integers or null"),
            ({"sim.lambda": -1}, "sim.lambda: must be >= 0, got -1"),
            ({"sim.k": float("nan")}, "sim.k: expected finite number"),
            ({"sim.omega": [0.0, 0.0, float("inf"), 0.0]}, "sim.omega: expected finite number"),
            ({"pool.ratios": [1.5, -0.5, 0, 0]}, "pool.ratios: must be >= 0"),
            ({"sim.distance": [[0, float("inf")], [float("inf"), 0]]},
             r"sim.distance: expected matrix \(rows of finite numbers"),
            ({"experiment.cases": []}, "experiment.cases: expected non-empty list"),
            # default tables no allocator builds: 8 EB of quotas, and numpy
            # refuses the (4, 2**62) attractiveness and (2**40, 2**40) distance
            ({"sim.total_agents": 10**18, "sim.group_count": 10**18},
             "sim.group_count: 1000000000000000000 groups are too many"),
            ({"sim.store_count": 2**62}, "sim.store_count: 4611686018427387904 stores are too many"),
            ({"sim.store_count": 2**40, "truth.attractiveness": [[1.0, 1.0]] * 4},
             "sim.store_count: 1099511627776 stores are too many"),
        ],
        ids=["negative-seed", "negative-stores", "fractional-quotas", "negative-lambda", "nan-k",
             "infinite-omega", "negative-ratio", "infinite-distance", "empty-cases",
             "oversized-groups", "oversized-stores", "oversized-distance"],
    )
    def test_bad_value_named_by_its_own_key(self, raw, message):
        with pytest.raises(ConfigSchemaError, match=f"^{message}"):
            resolve_config(raw)

    @pytest.mark.parametrize("key, field", [("sim.omega", "omega"), ("sim.k", "k"),
                                            ("sim.lambda", "lam")])
    def test_coefficient_list_needs_one_entry_per_group(self, key, field):
        with pytest.raises(ConfigSchemaError, match=f"^{key}: expected 4 entries, got 2"):
            resolve_config({key: [0.1, 0.2]})
        cfg = resolve_config({key: [0.5, 1, 2, 3]})
        for sim in (cfg.truth, cfg.assim):
            np.testing.assert_array_equal(getattr(sim, field), [0.5, 1.0, 2.0, 3.0])

    def test_ints_must_fit_int64(self):
        assert resolve_config({"experiment.base_seed": 2**63 - 1}).base_seed == 2**63 - 1
        with pytest.raises(ConfigSchemaError, match="^experiment.base_seed: expected integer"):
            resolve_config({"experiment.base_seed": 2**63})
        with pytest.raises(ConfigSchemaError, match="^sim.group_quotas: expected list of integers"):
            resolve_config({"sim.group_quotas": [2**64, 0, 0, 0]})

    def test_numbers_must_be_finite_as_floats(self):
        largest = int(np.finfo(float).max)
        assert resolve_config({"sim.lambda": largest}).truth.lam[0] == largest
        with pytest.raises(ConfigSchemaError, match="^sim.lambda: expected finite number"):
            resolve_config({"sim.lambda": largest + 2**971})

    @pytest.mark.parametrize(
        "initial, threshold, count, total, stops_after",
        [(1, 2, 1, 4, 1), (10, 5, 4, 35, 34), (40, 50, 10, 200, 40)],
    )
    def test_lifecycle_that_cannot_spend_its_budget_named(
        self, initial, threshold, count, total, stops_after
    ):
        raw = {"sim.initial_agents": initial, "sim.replenish_threshold": threshold,
               "sim.replenish_count": count, "sim.total_agents": total,
               "sim.group_quotas": [total, 0, 0, 0]}
        with pytest.raises(
            ConfigSchemaError,
            match=f"^sim.replenish_threshold: replenishment stops after {stops_after} of",
        ):
            resolve_config(raw)
        # a budget of the agents it does spawn is spent
        resolve_config({**raw, "sim.total_agents": stops_after,
                        "sim.group_quotas": [stops_after, 0, 0, 0]})

    def test_null_accepted_only_where_it_is_the_default(self):
        assert resolve_config({"experiment.jobs": None}).jobs is None
        with pytest.raises(ConfigSchemaError, match="^pool.size: expected integer, got None"):
            resolve_config({"pool.size": None})

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
