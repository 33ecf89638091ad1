"""Agent roaming simulator with particle-filter data assimilation.

Twin-experiment laboratory: a truth world generates pseudo-observations
(store inflow counts, attribute-tagged counts, biased sequence samples),
an assimilation world recovers transition tendencies from them, and a
metrics suite scores the recovery.
"""

from .assimilation import (
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
from .config import ExperimentConfig, resolve_config, validate_config
from .metrics import aggregate_runs, build_od, discrepancy, ngram_table, top_k
from .model import BehaviorParams, ChoiceModel, SimConfig, StoreGraph, step_world
from .twin import ObservationRecord, SequencePool, run_truth, sample_biased_pool

__all__ = [
    "AssimOptions",
    "BehaviorParams",
    "ChoiceModel",
    "ExperimentConfig",
    "ObservationRecord",
    "ParticleSet",
    "SequencePool",
    "SimConfig",
    "StoreGraph",
    "StoreWeightVector",
    "aggregate_runs",
    "assign_sequence",
    "build_od",
    "discrepancy",
    "ngram_table",
    "place_new_agent",
    "propose_particles",
    "resample_and_select",
    "resolve_config",
    "run_assimilation",
    "run_baseline",
    "run_truth",
    "sample_biased_pool",
    "step_world",
    "top_k",
    "update_store_weights",
    "validate_config",
    "weight_particles",
    "weight_sequences",
]

__version__ = "0.1.0"
