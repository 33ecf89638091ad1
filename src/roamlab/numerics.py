"""Numerically stable weight arithmetic and categorical sampling helpers.

All weight vectors in this package live in log space until the moment a
probability is actually needed; normalization is a log-sum-exp shift.
"""

from __future__ import annotations

import numpy as np


def log_normalize_rows(v: np.ndarray) -> np.ndarray:
    """Shift each row (last axis) of v so that exp(row) sums to 1; a 1-D v is
    one row.

    Every row's largest entry must be finite; -inf entries stay -inf. The
    shift by the row maximum is taken before the log of the sum is subtracted,
    so the result does not carry the rounding of a large maximum, and rows
    normalise at any finite scale.
    """
    shifted = v - v.max(axis=-1, keepdims=True)
    return shifted - np.log(np.exp(shifted).sum(axis=-1, keepdims=True))


def categorical(rng: np.random.Generator, probs: np.ndarray, size: int | None = None):
    """Inverse-CDF draws: `size` indices from one probability vector, or,
    without size, one index per row of an (m, K) stack.

    One uniform per draw, scaled by its row's CDF total; the index drawn is
    the count of CDF entries <= u, so the last category with non-zero
    probability is reached without clamping, and a zero-probability category
    is never drawn. The vector, which can be a whole sequence pool, is
    searched with np.searchsorted; each row of the stack, a few stores per
    agent, is compared with its uniform entry by entry.

    Raises ValueError on a NaN or negative entry, or a row that sums more than
    1e-9 away from 1.
    """
    p = np.asarray(probs, dtype=float)
    if not (p >= 0).all():  # also false for NaN
        raise ValueError("probabilities must be non-negative numbers")
    cdf = p.cumsum(axis=-1)
    total = cdf[..., -1:]
    if (np.abs(total - 1.0) > 1e-9).any():
        raise ValueError("probabilities must sum to 1 (within 1e-9)")
    if size is not None:
        return np.searchsorted(cdf, rng.random(size) * total, side="right")
    return (cdf <= rng.random((len(p), 1)) * total).sum(axis=-1)
