"""CSV/JSON serialization of runs, observation products, and aggregates.

All CSV files are UTF-8 with a header row; integers in plain decimal,
averaged values with six decimal places. Every CSV file is written through
_write_table. Dense count arrays are written as one row of indices and value
per cell, in C order, with zero counts written explicitly, so files
round-trip without shape metadata.

Stage products are read back strictly, each in one numpy pass: the header
must match exactly and every row must hold one integer per column, and a
dense count file must hold every cell of its array exactly once. A file that
breaks this raises MalformedTableError naming the file.
"""

import csv
import json
import math
from pathlib import Path

import numpy as np

from .twin import SequencePool


class MalformedTableError(ValueError):
    """A stage CSV does not have the layout its reader expects."""


def _read_table(path, header):
    """Rows of an integer stage CSV as an (R, len(header)) int64 array.

    header is the exact list of column names, or a function from the column
    count found in the file to that list.
    """
    with open(path, encoding="utf-8") as f:
        found = f.readline().rstrip("\n").split(",")
        expected = list(header(len(found)) if callable(header) else header)
        if found != expected:
            raise MalformedTableError(f"{path}: header {found} is not {expected}")
        start = f.tell()
        if not f.readline().strip() and not f.read().strip():
            return np.empty((0, len(expected)), dtype=np.int64)
        f.seek(start)
        try:
            table = np.loadtxt(f, dtype=np.int64, delimiter=",", comments=None, ndmin=2)
        except ValueError as e:
            reason = str(e).split("; use `usecols`")[0]  # numpy's hint names its own argument
            raise MalformedTableError(f"{path}: {reason}") from e
    if table.shape[1] != len(expected):
        raise MalformedTableError(
            f"{path}: rows hold {table.shape[1]} cells, header names {len(expected)}"
        )
    return table


def _extent(path, table, columns):
    """1 + the largest value in the given index columns, which must be non-negative."""
    if len(table) == 0:
        raise MalformedTableError(f"{path}: no data rows")
    index = table[:, columns]
    if index.min() < 0:
        raise MalformedTableError(f"{path}: negative index")
    return index.max(axis=0) + 1


def _write_table(path, header, rows):
    """Write a CSV with the given header row, then every row of the iterable rows."""
    Path(path).parent.mkdir(parents=True, exist_ok=True)
    with open(path, "w", newline="", encoding="utf-8") as f:
        w = csv.writer(f)
        w.writerow(header)
        w.writerows(rows)


def _rows(table):
    """The rows of a 2-D array as lists, converted 4096 rows at a time."""
    table = np.asarray(table)
    for start in range(0, len(table), 4096):
        yield from table[start : start + 4096].tolist()


def _cells(array):
    """(index..., value) rows of every cell of a dense array, in C order."""
    array = np.asarray(array)
    tail = list(np.ndindex(array.shape[1:]))
    for i, block in enumerate(array.reshape(len(array), -1)):
        yield from ((i, *index, value) for index, value in zip(tail, block.tolist()))


def _place(path, table, shape):
    """The dense int64 array of the given shape that (index..., value) rows
    describe, in any order. Every cell must have exactly one row."""
    index = table[:, :-1]
    if np.any(index < 0) or np.any(index >= np.array(shape)):
        raise MalformedTableError(f"{path}: an index is negative or beyond the {shape} array")
    cells = np.ravel_multi_index(tuple(index.T), shape)
    rows = np.bincount(cells, minlength=math.prod(shape))
    if np.any(rows != 1):
        bad = int(np.argmax(rows != 1))
        cell = tuple(int(i) for i in np.unravel_index(bad, shape))
        raise MalformedTableError(f"{path}: cell {cell} has {rows[bad]} rows, not 1")
    array = np.empty(math.prod(shape), dtype=np.int64)
    array[cells] = table[:, -1]
    return array.reshape(shape)


def write_obs_counts(path, observations):
    """observations: (T, G, S) counts; writes each step's per-store totals."""
    _write_table(path, ["step", "store", "count"], _cells(np.sum(observations, axis=1)))


def write_obs_counts_attr(path, observations):
    """observations: (T, G, S) counts by step, attribute (group) and store."""
    _write_table(path, ["step", "attr", "store", "count"], _cells(observations))


def read_observations(counts_path, attr_path) -> np.ndarray:
    """The (T, G, S) observation array from the two count files.

    The totals file sets T and S. Cells are placed by their (step, store) and
    (step, attr, store) indices, so row order does not matter, but each file
    must hold every cell of its array once. The totals file must hold the
    per-store sums of the attribute file.
    """
    totals = _read_table(counts_path, ["step", "store", "count"])
    by_attr = _read_table(attr_path, ["step", "attr", "store", "count"])
    steps, stores = _extent(counts_path, totals, [0, 1])
    (attrs,) = _extent(attr_path, by_attr, [1])
    observations = _place(attr_path, by_attr, (steps, attrs, stores))
    if not np.array_equal(_place(counts_path, totals, (steps, stores)),
                          observations.sum(axis=1)):
        raise MalformedTableError(
            f"{counts_path}: counts are not the per-store sums of {attr_path}"
        )
    return observations


def write_sequence_pool(path, pool: SequencePool):
    table = np.column_stack([np.arange(pool.size), pool.attrs, pool.paths])
    header = ["entry_id", "attr"] + [f"s{i}" for i in range(pool.paths.shape[1])]
    _write_table(path, header, _rows(table))


def read_sequence_pool(path) -> SequencePool:
    """Pool entries placed by entry_id, which must number the rows 0..P-1."""
    table = _read_table(
        path, lambda width: ["entry_id", "attr"] + [f"s{i}" for i in range(width - 2)]
    )
    order = np.argsort(table[:, 0], kind="stable")
    if not np.array_equal(table[order, 0], np.arange(len(table))):
        raise MalformedTableError(f"{path}: entry_id is not a numbering 0..{len(table) - 1}")
    table = table[order]
    return SequencePool(paths=table[:, 2:], attrs=table[:, 1])


def write_od(path, od: np.ndarray):
    _write_table(path, ["origin", "dest", "count"], _cells(od))


def read_od(path, store_count: int) -> np.ndarray:
    """The (store_count, store_count) OD matrix; the file must hold every cell once."""
    return _place(path, _read_table(path, ["origin", "dest", "count"]), (store_count,) * 2)


def write_mean_od(path, od: np.ndarray):
    _write_table(
        path, ["origin", "dest", "mean_count"],
        ((o, d, f"{mean:.6f}") for o, d, mean in _cells(od)),
    )


def write_paths(path, rows):
    """rows: (R, 4) path rows (agent_id, group, position, store), one per
    visited store, as model.path_rows gives them."""
    _write_table(path, ["agent_id", "group", "position", "store"], _rows(rows))


def read_paths(path) -> np.ndarray:
    """Path rows (agent_id, group, position, store), ordered by agent, then position.

    Every agent's positions must run 0, 1, 2, ... and its group must not change.
    """
    rows = _read_table(path, ["agent_id", "group", "position", "store"])
    rows = rows[np.lexsort((rows[:, 2], rows[:, 0]))]
    agent, group, position = rows[:, 0], rows[:, 1], rows[:, 2]
    starts = np.flatnonzero(np.r_[True, agent[1:] != agent[:-1]])
    first = np.repeat(starts, np.diff(np.r_[starts, len(rows)]))
    if not np.array_equal(position, np.arange(len(rows)) - first):
        raise MalformedTableError(f"{path}: an agent's positions do not run 0, 1, 2, ...")
    if not np.array_equal(group, group[first]):
        raise MalformedTableError(f"{path}: an agent changes group along its path")
    return rows


def write_assignments(path, assignments):
    """assignments: (R, 4) rows (step, agent_id, entry_id, attr)."""
    _write_table(path, ["step", "agent_id", "entry_id", "attr"], _rows(assignments))


def read_assignments(path) -> np.ndarray:
    """Assignment rows (step, agent_id, entry_id, attr) in file order."""
    return _read_table(path, ["step", "agent_id", "entry_id", "attr"])


def write_ngram_top(path, rows, n: int):
    """rows: (rank, gram, freq_truth, freq_assim, freq_baseline)."""
    _write_table(
        path,
        ["rank"] + [f"s{i}" for i in range(n)] + ["freq_truth", "freq_assim", "freq_baseline"],
        ([rank, *gram, f"{ft:.6f}", f"{fa:.6f}", f"{fb:.6f}"] for rank, gram, ft, fa, fb in rows),
    )


def write_json(path, payload):
    Path(path).parent.mkdir(parents=True, exist_ok=True)
    with open(path, "w", encoding="utf-8") as f:
        json.dump(payload, f, indent=2, sort_keys=True)
        f.write("\n")


def read_json(path):
    with open(path, encoding="utf-8") as f:
        return json.load(f)
