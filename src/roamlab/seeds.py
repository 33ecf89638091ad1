"""Deterministic RNG derivation: one independent stream per (replicate, role)."""

from __future__ import annotations

import numpy as np

ROLES = ("truth", "pool", "baseline", "case1", "case2", "case3", "case3_random")
ROLE_CODES = {role: i for i, role in enumerate(ROLES)}


def derive_seed(base_seed: int, replicate: int, role: str) -> np.random.SeedSequence:
    """Pure function of (base_seed, replicate, role); no global state."""
    if role not in ROLE_CODES:
        raise ValueError(f"unknown rng role {role!r}; expected one of {ROLES}")
    return np.random.SeedSequence([int(base_seed), int(replicate), ROLE_CODES[role]])


def derive_rng(base_seed: int, replicate: int, role: str) -> np.random.Generator:
    return np.random.default_rng(derive_seed(base_seed, replicate, role))
