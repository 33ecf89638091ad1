"""OD matrices, n-gram frequency tables, and cross-run aggregation.

OD matrices are plain (S, S) integer arrays, origin on rows, destination on
columns. The discrepancy between two runs is the total absolute difference
between their OD matrices.

An n-gram table is a flat array of length S**n indexed by n-gram code: the
window (s0, ..., s_{n-1}) has code s0*S**(n-1) + ... + s_{n-1}, so ascending
code order is ascending tuple order.
"""

import numpy as np


def build_od(rows, store_count: int) -> np.ndarray:
    """Count every consecutive store pair within each agent's path.

    rows: (R, 4) path rows (agent_id, group, position, store) ordered by
    agent, then position, as io.read_paths and model.path_rows give them.
    """
    return ngram_table(rows, store_count, 2).reshape(store_count, store_count)


def discrepancy(a: np.ndarray, b: np.ndarray) -> float:
    """Total sum of absolute element-wise differences."""
    a = np.asarray(a)
    b = np.asarray(b)
    if a.shape != b.shape:
        raise ValueError(f"shape mismatch: {a.shape} vs {b.shape}")
    return float(np.abs(a.astype(float) - b.astype(float)).sum())


def ngram_table(rows, store_count: int, n: int = 3) -> np.ndarray:
    """Count every contiguous n-store window of every agent's path, by code.

    rows: (R, 4) path rows (agent_id, group, position, store) ordered by
    agent, then position, every store in 0..store_count-1, as io.read_paths
    and model.path_rows give them.
    """
    if n < 1:
        raise ValueError("n must be >= 1")
    agent, store = rows[:, 0], rows[:, 3]
    windows = max(len(store) - n + 1, 0)
    codes = np.zeros(windows, dtype=np.int64)
    for j in range(n):
        codes = codes * store_count + store[j : j + windows]
    within = agent[:windows] == agent[n - 1 : n - 1 + windows]
    return np.bincount(codes[within], minlength=store_count**n)


def decode_ngram(code: int, store_count: int, n: int) -> tuple:
    """The store tuple behind an n-gram code."""
    return tuple(int(s) for s in np.unravel_index(code, (store_count,) * n))


def top_k(table: np.ndarray, k: int):
    """(code, frequency) of the k most frequent n-grams, zero counts excluded;
    ties broken by ascending code, which is ascending tuple order."""
    codes = np.flatnonzero(table)
    ranked = codes[np.argsort(-table[codes], kind="stable")][:k]
    return [(int(c), table[c]) for c in ranked]


def aggregate_runs(od_runs: dict) -> dict:
    """Average per-run OD matrices and summarize discrepancies against truth.

    od_runs maps each label, "truth" among them, to one OD matrix per
    replicate; every label must supply the same replicate count. Two
    averaging orders are reported for each non-truth label: mean of per-run
    discrepancies (with sample std), and the discrepancy of the element-wise
    mean matrices.
    """
    if "truth" not in od_runs:
        raise ValueError("od_runs must contain the 'truth' label")
    counts = {label: len(runs) for label, runs in od_runs.items()}
    if len(set(counts.values())) != 1:
        raise ValueError(f"unequal replicate counts: {counts}")

    mean_od = {
        label: np.mean([np.asarray(od, dtype=float) for od in runs], axis=0)
        for label, runs in od_runs.items()
    }
    truth_runs = od_runs["truth"]
    result = {"mean_od": mean_od, "labels": {}}
    for label, runs in od_runs.items():
        if label == "truth":
            continue
        per_run = [discrepancy(od, t_od) for od, t_od in zip(runs, truth_runs)]
        result["labels"][label] = {
            "discrepancy_per_run": per_run,
            "discrepancy_mean": float(np.mean(per_run)),
            "discrepancy_std": float(np.std(per_run, ddof=1)) if len(per_run) > 1 else 0.0,
            "discrepancy_of_mean_od": discrepancy(mean_od[label], mean_od["truth"]),
        }
    return result
