"""Experiment configuration: flat dotted-key JSON schema with full defaults.

An empty config file reproduces the default scenario end to end: 18 stores,
2000 agents in four groups of 500, 200 steps, 30 replicates, all three
observation regimes. The truth and assimilation environments share every
structural field and differ only in the attractiveness table (group-specific
versus uniform 5) and in seed derivation.
"""

import hashlib
import json
import sys
from dataclasses import dataclass, fields

import numpy as np

from .assimilation import AssimOptions
from .model import COUNT_LEAST, SimConfig, unit_distance


class ConfigError(Exception):
    """Base for configuration failures."""


class ConfigReadError(ConfigError):
    """Config file missing or not parseable."""


class ConfigSchemaError(ConfigError):
    """Config contents violate the key schema or an invariant."""


TRUTH_HOTSPOT_LEVELS = (7.5, 8.0, 8.5, 10.0)
UNIFORM_ATTRACTIVENESS = 5.0


def truth_attractiveness(group_count: int, store_count: int) -> np.ndarray:
    """Group-specific table: group g favors stores 3g..3g+2, all else 5."""
    if group_count != len(TRUTH_HOTSPOT_LEVELS):
        raise ConfigSchemaError(
            "truth.attractiveness: explicit table required when sim.group_count != 4"
        )
    a = np.full((group_count, store_count), UNIFORM_ATTRACTIVENESS)
    for g, level in enumerate(TRUTH_HOTSPOT_LEVELS):
        a[g, 3 * g : min(3 * g + 3, store_count)] = level
    return a


def uniform_attractiveness(group_count: int, store_count: int) -> np.ndarray:
    return np.full((group_count, store_count), UNIFORM_ATTRACTIVENESS)


# the AssimOptions switches, each set by a config key flags.<field>
ASSIM_FLAGS = [f.name for f in fields(AssimOptions) if f.name != "particle_count"]

# key -> (default, kind, least). Null is accepted exactly where the default is
# null. Ints must fit int64 and numbers must be finite as floats, and least
# (None: no bound) bounds an int, a number or every entry of a list or matrix.
SCHEMA = {
    "experiment.replicates": (30, "int", 1),
    "experiment.base_seed": (12345, "int", 0),
    "experiment.cases": ([1, 2, 3], "cases", None),
    "experiment.jobs": (None, "int", 1),
    # each sim.* key but sim.lambda (field lam) is named after the SimConfig field it sets
    **{f"sim.{f}": (getattr(SimConfig, f), "int", least) for f, least in COUNT_LEAST.items()},
    "sim.group_quotas": (None, "ints", 0),
    "sim.omega": (SimConfig.omega, "number_or_list", None),
    "sim.k": (SimConfig.k, "number_or_list", None),
    "sim.lambda": (SimConfig.lam, "number_or_list", 0),
    "sim.distance": (None, "matrix", None),
    "truth.attractiveness": (None, "matrix", None),
    "assim.attractiveness": (None, "matrix", None),
    "pool.size": (400, "int", 1),  # case-3 particle count: the pool entries are the particles
    "pool.ratios": ([0.4, 0.25, 0.2, 0.15], "numbers", 0),
    "particles.cases12": (AssimOptions.particle_count, "int", 1),
    **{f"flags.{f}": (getattr(AssimOptions, f), "bool", None) for f in ASSIM_FLAGS},
    "flags.allow_self_transition": (SimConfig.allow_self_transition, "bool", None),
    "flags.count_spawn_as_inflow": (True, "bool", None),
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


def _is_int(v) -> bool:
    """True for an int that fits int64 (bools excluded)."""
    return isinstance(v, int) and not isinstance(v, bool) and -(2**63) <= v < 2**63


def _is_number(v) -> bool:
    """True for an int or float no larger in magnitude than the largest finite
    float (bools, inf and nan excluded)."""
    return isinstance(v, (int, float)) and not isinstance(v, bool) and abs(v) <= sys.float_info.max


# kind -> (description, test of one entry)
KINDS = {
    "int": ("integer", _is_int),
    "bool": ("boolean", lambda v: isinstance(v, bool)),
    "number_or_list": ("finite number or list of finite numbers", _is_number),
    "ints": ("list of integers", _is_int),
    "numbers": ("list of finite numbers", _is_number),
    "matrix": ("matrix (rows of finite numbers, all one length)", _is_number),
}


def _entries(kind, value):
    """The entries of a value of the kind, or None if its shape is wrong."""
    if kind == "matrix":
        rows = isinstance(value, list) and value and all(
            isinstance(r, list) and len(r) == len(value[0]) for r in value
        )
        return [v for r in value for v in r] if rows else None
    if isinstance(value, list):
        return value if kind in ("ints", "numbers", "number_or_list") else None
    return None if kind in ("ints", "numbers") else [value]


def _check(key, value):
    """Raise ConfigSchemaError naming key unless value fits its SCHEMA row."""
    default, kind, least = SCHEMA[key]
    if value is None and default is None:
        return
    if kind == "cases":
        if value != "all" and not (
            isinstance(value, list) and value and all(_is_int(v) and v in (1, 2, 3) for v in value)
        ):
            raise _type_error(key, 'non-empty list drawn from [1, 2, 3] or "all"', value)
        return
    expected, is_entry = KINDS[kind]
    entries = _entries(kind, value)
    if entries is None or not all(is_entry(v) for v in entries):
        raise _type_error(key, expected + (" or null" if default is None else ""), value)
    if least is not None and any(v < least for v in entries):
        raise ConfigSchemaError(f"{key}: must be >= {least}, got {value!r}")


def _unique_keys(pairs) -> dict:
    """json object_pairs_hook: the object's pairs as a dict, refusing a key
    named twice, which json would otherwise resolve to its last value."""
    seen = set()
    for key, _ in pairs:
        if key in seen:
            raise ConfigSchemaError(f"{key}: named twice in the config")
        seen.add(key)
    return dict(pairs)


def load_raw(path) -> dict:
    """Read the flat key/value JSON object from disk."""
    try:
        with open(path, encoding="utf-8") as f:
            raw = json.load(f, object_pairs_hook=_unique_keys)
    except OSError as e:
        raise ConfigReadError(f"cannot read config {path}: {e}") from e
    # bad JSON or UTF-8, an int over Python's digit limit, or nesting past its stack
    except (ValueError, RecursionError) as e:
        raise ConfigReadError(f"config {path} is not valid JSON: {e}") from e
    if not isinstance(raw, dict):
        raise ConfigSchemaError("config root must be a JSON object of dotted keys")
    return raw


def resolve_config(raw: dict | None = None, overrides: dict | None = None) -> ExperimentConfig:
    """Apply defaults, type-check every key, and build the paired SimConfigs.

    Raises ConfigSchemaError naming the offending key on any violation.
    """
    merged = {k: row[0] for k, row in SCHEMA.items()}
    for source in (raw or {}), (overrides or {}):
        for key, value in source.items():
            if key not in SCHEMA:
                raise ConfigSchemaError(f"{key}: unknown config key")
            merged[key] = value
    for key, value in merged.items():
        _check(key, value)

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
        try:
            quotas = [total // g] * g
        except MemoryError as e:
            raise ConfigSchemaError(f"sim.group_count: {g} groups are too many to allocate") from e

    counts = {field: merged[f"sim.{field}"] for field in COUNT_LEAST}

    def build_sim(role, default_attractiveness):
        attractiveness, distance = merged[f"{role}.attractiveness"], merged["sim.distance"]
        try:  # numpy refuses a table past the address space with ValueError
            if attractiveness is None:
                attractiveness = default_attractiveness(g, s)
            if distance is None:
                distance = unit_distance(s)
        except (MemoryError, ValueError) as e:
            raise ConfigSchemaError(
                f"sim.store_count: {s} stores are too many for the default tables: {e}") from e
        sim = SimConfig(
            **counts,
            group_quotas=tuple(quotas),
            omega=merged["sim.omega"],
            k=merged["sim.k"],
            lam=merged["sim.lambda"],
            attractiveness=attractiveness,
            distance=distance,
            allow_self_transition=merged["flags.allow_self_transition"],
        )
        try:
            sim.validate()
        except MemoryError as e:  # validate's own (S, S) and (G, S, S) temporaries
            raise ConfigSchemaError(
                f"sim.store_count: {s} stores are too many to validate: {e}") from e
        except ValueError as e:
            # validate names the SimConfig field first; name its config key
            field = str(e).partition(":")[0]
            key = {"attractiveness": f"{role}.attractiveness", "lam": "sim.lambda"}.get(
                field, f"sim.{field}")
            raise ConfigSchemaError(f"{key}{str(e)[len(field):]}") from e
        return sim

    truth_cfg = build_sim("truth", truth_attractiveness)
    assim_cfg = build_sim("assim", uniform_attractiveness)

    cases = merged["experiment.cases"]
    cases = (1, 2, 3) if cases == "all" else tuple(sorted(set(cases)))

    ratios = [float(r) for r in merged["pool.ratios"]]
    if len(ratios) != g:
        raise ConfigSchemaError(f"pool.ratios: expected {g} entries, got {len(ratios)}")
    if abs(sum(ratios) - 1.0) > 1e-9:
        raise ConfigSchemaError(f"pool.ratios: must sum to 1, got {ratios}")

    resolved = dict(merged)
    resolved["sim.group_quotas"] = quotas
    resolved["sim.distance"] = truth_cfg.distance.tolist()
    resolved["truth.attractiveness"] = truth_cfg.attractiveness.tolist()
    resolved["assim.attractiveness"] = assim_cfg.attractiveness.tolist()
    resolved["experiment.cases"] = list(cases)
    resolved["pool.ratios"] = ratios

    return ExperimentConfig(
        truth=truth_cfg,
        assim=assim_cfg,
        cases=cases,
        replicate_count=merged["experiment.replicates"],
        base_seed=merged["experiment.base_seed"],
        jobs=merged["experiment.jobs"],
        pool_size=merged["pool.size"],
        pool_ratios=tuple(ratios),
        count_spawn_as_inflow=merged["flags.count_spawn_as_inflow"],
        assim_options=AssimOptions(
            merged["particles.cases12"], **{f: merged[f"flags.{f}"] for f in ASSIM_FLAGS}),
        resolved=resolved,
    )


def validate_config(path=None, overrides: dict | None = None) -> ExperimentConfig:
    """Load, default-fill, and validate a config file; the defaults without one."""
    return resolve_config(load_raw(path) if path is not None else {}, overrides)


def config_hash(cfg: ExperimentConfig) -> str:
    """Hash of the semantically meaningful resolved config."""
    semantic = {k: v for k, v in cfg.resolved.items() if k not in NON_SEMANTIC_KEYS}
    # the removed flags.random_baseline, hashed as before so that metrics.json keeps its bytes
    semantic["flags.random_baseline"] = False
    blob = json.dumps(semantic, sort_keys=True, separators=(",", ":"))
    return hashlib.sha256(blob.encode("utf-8")).hexdigest()
