"""Numerically stable weight arithmetic and categorical sampling helpers.

All weight vectors in this package live in log space until the moment a
probability is actually needed; normalization is a log-sum-exp shift.
"""

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

    probs is (K,) or (m, K). Without size this returns one index for a vector
    and one index per row for a stack; with size it returns `size` indices
    (per row). One uniform per draw, so the stream consumption is independent
    of the category count. Each uniform is scaled by its row's CDF total, so
    the last category with non-zero probability is reached without clamping,
    and a zero-probability category is never drawn.

    Every draw is one branchless binary search, run for all draws of all rows
    at once: each row's CDF is padded with +inf to a power-of-two width, and
    the count of its entries <= u, the index drawn, is built up bit by bit
    (u < total, so that count is at most K - 1 and never reaches the padding).
    That is O(log K) time and O(1) memory per draw.

    Raises ValueError on a NaN or negative entry, or a row that sums more than
    1e-9 away from 1.
    """
    p = np.asarray(probs, dtype=float)
    if not np.all(p >= 0):  # also false for NaN
        raise ValueError("probabilities must be non-negative numbers")
    rows = p.reshape(-1, p.shape[-1])
    m, k = rows.shape
    width = 1 << (k - 1).bit_length()
    cdf = np.full((m, width), np.inf)
    np.cumsum(rows, axis=-1, out=cdf[:, :k])
    total = cdf[:, k - 1 : k]
    if np.any(np.abs(total - 1.0) > 1e-9):
        raise ValueError("probabilities must sum to 1 (within 1e-9)")
    u = rng.random((m, 1 if size is None else size)) * total
    flat = cdf.ravel()
    start = np.arange(0, m * width, width)[:, None]
    pos, step = np.broadcast_to(start, u.shape), width >> 1
    while step:
        pos = pos + step * (flat.take(pos + (step - 1)) <= u)
        step >>= 1
    idx = (pos - start).reshape(p.shape[:-1] + u.shape[-1:])
    if size is not None:
        return idx
    return int(idx[0]) if p.ndim == 1 else idx[..., 0]
