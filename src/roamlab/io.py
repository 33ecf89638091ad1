"""CSV/JSON serialization of runs, observation products, and aggregates.

All CSV files are UTF-8 with a header row and \r\n line ends; integers in
plain decimal, averaged values with six decimal places. Every CSV file is
written through one %-template writer, _write_table, which formats a whole
2-D array 4096 rows at a time, byte for byte as csv.writer would write the
same rows. Dense count arrays are written as one row of indices and value
per cell, in C order, with zero counts written explicitly.

Stage products are read back strictly, each in one numpy pass, against the
shapes the config gives the reader: the header must match exactly, every
row must hold one integer per column, a dense count file must hold every
cell of its array exactly once, an id column must number its rows 0..R-1,
every store, group and attr must be in range and no agent_id or observed
count may be negative. A file that breaks this raises MalformedTableError
naming the file.
"""

import json
import math
from pathlib import Path

import numpy as np

from .twin import SequencePool


class MalformedTableError(ValueError):
    """A stage CSV does not have the layout its reader expects."""


def _read_table(path, header):
    """Rows of an integer stage CSV as an (R, len(header)) int64 array;
    header is the exact list of column names."""
    with open(path, encoding="utf-8") as f:
        found = f.readline().rstrip("\n").split(",")
        if found != header:
            raise MalformedTableError(f"{path}: header {found} is not {header}")
        start = f.tell()
        if not f.readline().strip() and not f.read().strip():
            return np.empty((0, len(header)), dtype=np.int64)
        f.seek(start)
        try:
            table = np.loadtxt(f, dtype=np.int64, delimiter=",", comments=None, ndmin=2)
        except ValueError as e:
            reason = str(e).split("; use `usecols`")[0]  # numpy's hint names its own argument
            raise MalformedTableError(f"{path}: {reason}") from e
    if table.shape[1] != len(header):
        raise MalformedTableError(
            f"{path}: rows hold {table.shape[1]} cells, header names {len(header)}"
        )
    return table


def _numbered(path, table, column, name):
    """The rows of table ordered by their id, column `column` named `name`,
    which must number them 0..R-1; a table with no rows is refused."""
    if len(table) == 0:
        raise MalformedTableError(f"{path}: no data rows")
    table = table[np.argsort(table[:, column], kind="stable")]
    if not np.array_equal(table[:, column], np.arange(len(table))):
        raise MalformedTableError(f"{path}: {name} is not a numbering 0..{len(table) - 1}")
    return table


def _check_range(path, what, values, bound):
    """Refuse the file unless every one of values lies in 0..bound-1."""
    if values.size and (values.min() < 0 or values.max() >= bound):
        raise MalformedTableError(f"{path}: {what} outside 0..{bound - 1}")


def _write_table(path, header, table, line=None):
    """Write a CSV with the given header row, then one line per row of the
    2-D array table, formatted by the %-template line: comma-separated
    conversions, one per column ("%d" in every column by default)."""
    table = np.asarray(table).reshape(-1, len(header))
    line = (",".join(["%d"] * len(header)) if line is None else line) + "\r\n"
    Path(path).parent.mkdir(parents=True, exist_ok=True)
    with open(path, "w", newline="", encoding="utf-8") as f:
        f.write(",".join(header) + "\r\n")
        for start in range(0, len(table), 4096):
            block = table[start : start + 4096]
            f.write((line * len(block)) % tuple(block.ravel().tolist()))


def _cells(array):
    """(index..., value) rows of every cell of a dense array, in C order."""
    array = np.asarray(array)
    return np.column_stack([*np.indices(array.shape).reshape(array.ndim, -1), array.ravel()])


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


def read_observations(counts_path, attr_path, shape) -> np.ndarray:
    """The observation array of the given (T, G, S) shape from the two count files.

    Cells are placed by their (step, store) and (step, attr, store) indices,
    so row order does not matter, but each file must hold every cell of its
    array once. No count may be negative, and the totals file must hold the
    per-store sums of the attribute file.
    """
    totals = _read_table(counts_path, ["step", "store", "count"])
    by_attr = _read_table(attr_path, ["step", "attr", "store", "count"])
    observations = _place(attr_path, by_attr, shape)
    if np.any(observations < 0):
        raise MalformedTableError(f"{attr_path}: a count is negative")
    if not np.array_equal(_place(counts_path, totals, (shape[0], shape[2])),
                          observations.sum(axis=1)):
        raise MalformedTableError(
            f"{counts_path}: counts are not the per-store sums of {attr_path}"
        )
    return observations


def write_sequence_pool(path, pool: SequencePool):
    table = np.column_stack([np.arange(pool.size), pool.attrs, pool.paths])
    header = ["entry_id", "attr"] + [f"s{i}" for i in range(pool.paths.shape[1])]
    _write_table(path, header, table)


def read_sequence_pool(path, length: int, store_count: int, group_count: int) -> SequencePool:
    """Pool entries of paths of `length` stores, placed by entry_id, which
    must number the rows 0..P-1; every store and attr must be in range."""
    table = _read_table(path, ["entry_id", "attr"] + [f"s{i}" for i in range(length)])
    table = _numbered(path, table, 0, "entry_id")
    _check_range(path, "attr", table[:, 1], group_count)
    _check_range(path, "a store", table[:, 2:], store_count)
    return SequencePool(paths=table[:, 2:], attrs=table[:, 1])


def write_od(path, od: np.ndarray):
    _write_table(path, ["origin", "dest", "count"], _cells(od))


def read_od(path, store_count: int) -> np.ndarray:
    """The (store_count, store_count) OD matrix; the file must hold every cell once."""
    return _place(path, _read_table(path, ["origin", "dest", "count"]), (store_count,) * 2)


def write_mean_od(path, od: np.ndarray):
    _write_table(path, ["origin", "dest", "mean_count"], _cells(od), "%d,%d,%.6f")


def write_paths(path, rows):
    """rows: (R, 4) path rows (agent_id, group, position, store), one per
    visited store, as model.path_rows gives them."""
    _write_table(path, ["agent_id", "group", "position", "store"], rows)


def read_paths(path, store_count: int, group_count: int) -> np.ndarray:
    """Path rows (agent_id, group, position, store), ordered by agent, then position.

    No agent_id may be negative, every agent's positions must run 0, 1, 2,
    ..., its group must be in 0..group_count-1 and must not change, and every
    store must be in 0..store_count-1.
    """
    rows = _read_table(path, ["agent_id", "group", "position", "store"])
    if rows.size and rows[:, 0].min() < 0:
        raise MalformedTableError(f"{path}: an agent_id is negative")
    _check_range(path, "group", rows[:, 1], group_count)
    _check_range(path, "store", rows[:, 3], store_count)
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
    _write_table(path, ["step", "agent_id", "entry_id", "attr"], assignments)


def read_assignments(path, group_count: int) -> np.ndarray:
    """Assignment rows (step, agent_id, entry_id, attr) ordered by agent_id,
    which must number the rows 0..R-1; every attr must be in range."""
    table = _read_table(path, ["step", "agent_id", "entry_id", "attr"])
    table = _numbered(path, table, 1, "agent_id")
    _check_range(path, "attr", table[:, 3], group_count)
    return table


def write_ngram_top(path, rows, n: int):
    """rows: (rank, gram, freq_truth, freq_assim, freq_baseline)."""
    _write_table(
        path,
        ["rank"] + [f"s{i}" for i in range(n)] + ["freq_truth", "freq_assim", "freq_baseline"],
        np.array([[rank, *gram, *freqs] for rank, gram, *freqs in rows], dtype=float),
        ",".join(["%d"] * (n + 1) + ["%.6f"] * 3),
    )


def write_json(path, payload):
    Path(path).parent.mkdir(parents=True, exist_ok=True)
    with open(path, "w", encoding="utf-8") as f:
        json.dump(payload, f, indent=2, sort_keys=True)
        f.write("\n")
