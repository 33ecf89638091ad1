"""Numerically stable weight arithmetic and categorical sampling helpers.

All weight vectors in this package live in log space until the moment a
probability is actually needed; normalization is a log-sum-exp shift.
"""

from __future__ import annotations

import numpy as np


def log_normalize_rows(v: np.ndarray) -> np.ndarray:
    """Shift each row (last axis) of v so that exp(row) sums to 1; a 1-D v is
    one row.

    Every row's largest entry must be finite; -inf entries stay -inf.
    """
    m = v.max(axis=-1, keepdims=True)
    return v - (m + np.log(np.exp(v - m).sum(axis=-1, keepdims=True)))


def categorical(rng: np.random.Generator, probs: np.ndarray, size: int | None = None):
    """Inverse-CDF draws from one probability vector, or from each row of a stack.

    probs is (K,) or (m, K). Without size this returns one index (an int) for
    a vector and one index per row for a stack; with size it returns `size`
    indices (per row). One uniform per draw, scaled by its row's CDF total;
    the index drawn is the count of CDF entries <= u, so the last category
    with non-zero probability is reached without clamping, and a
    zero-probability category is never drawn. A vector, which can be a whole
    sequence pool, is searched with np.searchsorted; each row of a stack, a
    few stores per agent, is compared with its uniforms entry by entry.

    Raises ValueError on a NaN or negative entry, or a row that sums more than
    1e-9 away from 1.
    """
    p = np.asarray(probs, dtype=float)
    if not np.all(p >= 0):  # also false for NaN
        raise ValueError("probabilities must be non-negative numbers")
    cdf = np.cumsum(p, axis=-1)
    total = cdf[..., -1:]
    if np.any(np.abs(total - 1.0) > 1e-9):
        raise ValueError("probabilities must sum to 1 (within 1e-9)")
    if p.ndim == 1:
        idx = np.searchsorted(cdf, rng.random(1 if size is None else size) * total, side="right")
        return int(idx[0]) if size is None else idx
    u = rng.random((len(p), 1 if size is None else size)) * total
    idx = np.count_nonzero(cdf[:, None, :] <= u[:, :, None], axis=-1)
    return idx[:, 0] if size is None else idx
