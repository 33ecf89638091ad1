"""Experiment configuration: flat dotted-key JSON schema with full defaults.

An empty config file reproduces the default scenario end to end: 18 stores,
2000 agents in four groups of 500, 200 steps, 30 replicates, all three
observation regimes. The truth and assimilation environments share every
structural field and differ only in the attractiveness table (group-specific
versus uniform 5) and in seed derivation.
"""

import hashlib
import json
from dataclasses import dataclass

import numpy as np

from .assimilation import AssimOptions
from .model import BehaviorParams, SimConfig, unit_distance


class ConfigError(Exception):
    """Base for configuration failures."""


class ConfigReadError(ConfigError):
    """Config file missing or not parseable."""


class ConfigSchemaError(ConfigError):
    """Config contents violate the key schema or an invariant."""


TRUTH_HOTSPOT_LEVELS = (7.5, 8.0, 8.5, 10.0)
UNIFORM_ATTRACTIVENESS = 5.0


def truth_attractiveness(group_count: int = 4, store_count: int = 18) -> np.ndarray:
    """Group-specific table: group g favors stores 3g..3g+2, all else 5."""
    if group_count != len(TRUTH_HOTSPOT_LEVELS):
        raise ConfigSchemaError(
            "truth.attractiveness: explicit table required when sim.group_count != 4"
        )
    a = np.full((group_count, store_count), UNIFORM_ATTRACTIVENESS)
    for g, level in enumerate(TRUTH_HOTSPOT_LEVELS):
        a[g, 3 * g : min(3 * g + 3, store_count)] = level
    return a


def uniform_attractiveness(group_count: int = 4, store_count: int = 18) -> np.ndarray:
    return np.full((group_count, store_count), UNIFORM_ATTRACTIVENESS)


# key -> (default, value kind). "number" accepts int or float; "matrix"/"vector"
# accept nested lists; None defaults are resolved contextually.
SCHEMA = {
    "experiment.replicates": (30, "int"),
    "experiment.base_seed": (12345, "int"),
    "experiment.cases": ([1, 2, 3], "cases"),
    "experiment.jobs": (None, "int_or_null"),
    "sim.store_count": (18, "int"),
    "sim.total_agents": (2000, "int"),
    "sim.initial_agents": (100, "int"),
    "sim.replenish_threshold": (40, "int"),
    "sim.replenish_count": (40, "int"),
    "sim.max_transitions": (3, "int"),
    "sim.dwell_min": (2, "int"),
    "sim.dwell_max": (3, "int"),
    "sim.horizon_steps": (200, "int"),
    "sim.group_count": (4, "int"),
    "sim.group_quotas": (None, "vector_or_null"),
    "sim.omega": (0.005, "number_or_list"),
    "sim.k": (1.0, "number_or_list"),
    "sim.lambda": (6.0, "number_or_list"),
    "sim.distance": (None, "matrix_or_null"),
    "truth.attractiveness": (None, "matrix_or_null"),
    "assim.attractiveness": (None, "matrix_or_null"),
    "pool.size": (400, "int"),  # case-3 particle count: the pool entries are the particles
    "pool.ratios": ([0.4, 0.25, 0.2, 0.15], "vector"),
    "particles.cases12": (100, "int"),
    "flags.weight_accumulation": (False, "bool"),
    "flags.random_baseline": (False, "bool"),
    "flags.allow_self_transition": (False, "bool"),
    "flags.count_spawn_as_inflow": (True, "bool"),
    "flags.filter_moves": (True, "bool"),
    "flags.weighted_placement": (True, "bool"),
}

# Fields that change run content; everything else (parallelism) is excluded
# from the config hash.
NON_SEMANTIC_KEYS = {"experiment.jobs"}


@dataclass
class ExperimentConfig:
    """Fully resolved experiment: paired environments plus orchestration knobs."""

    truth: SimConfig
    assim: SimConfig
    cases: tuple
    replicate_count: int
    base_seed: int
    jobs: int | None
    pool_size: int
    pool_ratios: tuple
    count_spawn_as_inflow: bool
    assim_options: AssimOptions
    resolved: dict  # flat key -> value echo


def _type_error(key, expected, value):
    return ConfigSchemaError(f"{key}: expected {expected}, got {value!r}")


def _check_type(key, value, kind):
    if kind == "int":
        if not isinstance(value, int) or isinstance(value, bool):
            raise _type_error(key, "integer", value)
    elif kind == "int_or_null":
        if value is not None and (not isinstance(value, int) or isinstance(value, bool)):
            raise _type_error(key, "integer or null", value)
    elif kind == "bool":
        if not isinstance(value, bool):
            raise _type_error(key, "boolean", value)
    elif kind == "number_or_list":
        ok = isinstance(value, (int, float)) and not isinstance(value, bool)
        if not ok and isinstance(value, list):
            ok = all(isinstance(v, (int, float)) and not isinstance(v, bool) for v in value)
        if not ok:
            raise _type_error(key, "number or list of numbers", value)
    elif kind == "vector":
        if not isinstance(value, list) or not all(
            isinstance(v, (int, float)) and not isinstance(v, bool) for v in value
        ):
            raise _type_error(key, "list of numbers", value)
    elif kind == "vector_or_null":
        if value is not None:
            _check_type(key, value, "vector")
    elif kind == "matrix_or_null":
        if value is not None:
            if not isinstance(value, list) or not all(isinstance(r, list) for r in value):
                raise _type_error(key, "nested list (matrix) or null", value)
    elif kind == "cases":
        if value == "all":
            return
        if not isinstance(value, list) or not all(v in (1, 2, 3) for v in value):
            raise _type_error(key, 'list drawn from [1, 2, 3] or "all"', value)


def load_raw(path) -> dict:
    """Read the flat key/value JSON object from disk."""
    try:
        with open(path, encoding="utf-8") as f:
            raw = json.load(f)
    except OSError as e:
        raise ConfigReadError(f"cannot read config {path}: {e}") from e
    except json.JSONDecodeError as e:
        raise ConfigReadError(f"config {path} is not valid JSON: {e}") from e
    if not isinstance(raw, dict):
        raise ConfigSchemaError("config root must be a JSON object of dotted keys")
    return raw


def resolve_config(raw: dict | None = None, overrides: dict | None = None) -> ExperimentConfig:
    """Apply defaults, type-check every key, and build the paired SimConfigs.

    Raises ConfigSchemaError naming the offending key on any violation.
    """
    merged = {k: default for k, (default, _) in SCHEMA.items()}
    for source in (raw or {}), (overrides or {}):
        for key, value in source.items():
            if key not in SCHEMA:
                raise ConfigSchemaError(f"{key}: unknown config key")
            merged[key] = value
    for key, value in merged.items():
        _check_type(key, value, SCHEMA[key][1])

    g = merged["sim.group_count"]
    s = merged["sim.store_count"]

    quotas = merged["sim.group_quotas"]
    if quotas is None:
        total = merged["sim.total_agents"]
        if total % g != 0:
            raise ConfigSchemaError(
                f"sim.group_quotas: required because sim.total_agents {total}"
                f" does not split evenly over {g} groups"
            )
        quotas = [total // g] * g
    quotas = [int(q) for q in quotas]

    def per_group(key):
        v = merged[key]
        if isinstance(v, list):
            if len(v) != g:
                raise ConfigSchemaError(f"{key}: expected {g} entries, got {len(v)}")
            return [float(x) for x in v]
        return [float(v)] * g

    omegas, ks, lams = per_group("sim.omega"), per_group("sim.k"), per_group("sim.lambda")
    try:
        behavior = tuple(
            BehaviorParams(omega=o, k=k, lam=l) for o, k, l in zip(omegas, ks, lams)
        )
    except ValueError as e:
        raise ConfigSchemaError(f"sim.omega/sim.k/sim.lambda: {e}") from e

    distance = merged["sim.distance"]
    distance = unit_distance(s) if distance is None else np.asarray(distance, dtype=float)

    truth_a = merged["truth.attractiveness"]
    truth_a = truth_attractiveness(g, s) if truth_a is None else np.asarray(truth_a, dtype=float)
    assim_a = merged["assim.attractiveness"]
    assim_a = uniform_attractiveness(g, s) if assim_a is None else np.asarray(assim_a, dtype=float)

    # the integer sim.* keys are named after the SimConfig fields they set
    counts = {
        key.removeprefix("sim."): value
        for key, value in merged.items()
        if key.startswith("sim.") and SCHEMA[key][1] == "int"
    }

    def build_sim(attractiveness, label):
        sim = SimConfig(
            **counts,
            group_quotas=tuple(quotas),
            behavior=behavior,
            attractiveness=attractiveness,
            distance=distance,
            allow_self_transition=merged["flags.allow_self_transition"],
        )
        try:
            sim.validate()
        except ValueError as e:
            raise ConfigSchemaError(f"{label}: {e}") from e
        return sim

    truth_cfg = build_sim(truth_a, "sim (truth environment)")
    assim_cfg = build_sim(assim_a, "sim (assimilation environment)")

    replicates = merged["experiment.replicates"]
    if replicates < 1:
        raise ConfigSchemaError(f"experiment.replicates: must be >= 1, got {replicates}")
    jobs = merged["experiment.jobs"]
    if jobs is not None and jobs < 1:
        raise ConfigSchemaError(f"experiment.jobs: must be >= 1, got {jobs}")
    cases = merged["experiment.cases"]
    cases = (1, 2, 3) if cases == "all" else tuple(sorted(set(cases)))

    ratios = [float(r) for r in merged["pool.ratios"]]
    if len(ratios) != g:
        raise ConfigSchemaError(f"pool.ratios: expected {g} entries, got {len(ratios)}")
    if abs(sum(ratios) - 1.0) > 1e-9 or any(r < 0 for r in ratios):
        raise ConfigSchemaError(f"pool.ratios: must be non-negative and sum to 1, got {ratios}")
    if merged["pool.size"] < 1:
        raise ConfigSchemaError(f"pool.size: must be >= 1, got {merged['pool.size']}")
    if merged["particles.cases12"] < 1:
        raise ConfigSchemaError(
            f"particles.cases12: must be >= 1, got {merged['particles.cases12']}"
        )

    resolved = dict(merged)
    resolved["sim.group_quotas"] = quotas
    resolved["sim.distance"] = distance.tolist()
    resolved["truth.attractiveness"] = truth_a.tolist()
    resolved["assim.attractiveness"] = assim_a.tolist()
    resolved["experiment.cases"] = list(cases)
    resolved["pool.ratios"] = ratios

    return ExperimentConfig(
        truth=truth_cfg,
        assim=assim_cfg,
        cases=cases,
        replicate_count=replicates,
        base_seed=merged["experiment.base_seed"],
        jobs=jobs,
        pool_size=merged["pool.size"],
        pool_ratios=tuple(ratios),
        count_spawn_as_inflow=merged["flags.count_spawn_as_inflow"],
        assim_options=AssimOptions(
            particle_count=merged["particles.cases12"],
            weight_accumulation=merged["flags.weight_accumulation"],
            random_baseline=merged["flags.random_baseline"],
            filter_moves=merged["flags.filter_moves"],
            weighted_placement=merged["flags.weighted_placement"],
        ),
        resolved=resolved,
    )


def validate_config(path, overrides: dict | None = None) -> ExperimentConfig:
    """Load, default-fill, and validate a config file."""
    return resolve_config(load_raw(path), overrides)


def config_hash(cfg: ExperimentConfig) -> str:
    """Hash of the semantically meaningful resolved config."""
    semantic = {k: v for k, v in cfg.resolved.items() if k not in NON_SEMANTIC_KEYS}
    blob = json.dumps(semantic, sort_keys=True, separators=(",", ":"))
    return hashlib.sha256(blob.encode("utf-8")).hexdigest()
