"""Agent roaming simulator with particle-filter data assimilation.

Twin-experiment laboratory: a truth world generates pseudo-observations
(store inflow counts, attribute-tagged counts, biased sequence samples),
an assimilation world recovers transition tendencies from them, and a
metrics suite scores the recovery.
"""

from .assimilation import (
    AssimOptions,
    StoreWeightVector,
    filtered_moves,
    place_new_agents,
    run_assimilation,
    run_baseline,
    update_store_weights,
    weight_sequences,
)
from .config import ExperimentConfig, resolve_config, validate_config
from .metrics import aggregate_runs, build_od, decode_ngram, discrepancy, ngram_table, top_k
from .model import BehaviorParams, ChoiceModel, SimConfig, step_world
from .twin import SequencePool, run_truth, sample_biased_pool

__all__ = [
    "AssimOptions",
    "BehaviorParams",
    "ChoiceModel",
    "ExperimentConfig",
    "SequencePool",
    "SimConfig",
    "StoreWeightVector",
    "aggregate_runs",
    "build_od",
    "decode_ngram",
    "discrepancy",
    "filtered_moves",
    "ngram_table",
    "place_new_agents",
    "resolve_config",
    "run_assimilation",
    "run_baseline",
    "run_truth",
    "sample_biased_pool",
    "step_world",
    "top_k",
    "update_store_weights",
    "validate_config",
    "weight_sequences",
]

__version__ = "0.1.0"
