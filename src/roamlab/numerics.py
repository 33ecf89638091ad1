"""Numerically stable weight arithmetic and categorical sampling helpers.

All weight vectors in this package live in log space until the moment a
probability is actually needed; normalization is a log-sum-exp shift.
"""

import numpy as np


def logsumexp(v: np.ndarray) -> float:
    """log(sum(exp(v))) with max-shift to avoid overflow."""
    m = float(np.max(v))
    if not np.isfinite(m):
        return m
    return m + float(np.log(np.sum(np.exp(v - m))))


def log_normalize(v: np.ndarray) -> np.ndarray:
    """Shift v so that exp(v) sums to 1."""
    return v - logsumexp(v)


def categorical(rng: np.random.Generator, probs: np.ndarray, size: int | None = None):
    """Draw index/indices from a normalized probability vector.

    Inverse-CDF sampling; one uniform per draw, so the stream consumption is
    independent of the category count.
    """
    cdf = np.cumsum(probs)
    last = len(probs) - 1
    if size is None:
        return min(int(np.searchsorted(cdf, rng.random(), side="right")), last)
    idx = np.searchsorted(cdf, rng.random(size), side="right")
    return np.minimum(idx, last)
