"""CSV/JSON serialization of runs, observation products, and aggregates.

All CSV files are UTF-8 with a header row; integers in plain decimal,
averaged values with six decimal places. Zero counts are written explicitly
so files round-trip without shape metadata.

Stage products are read back strictly, each in one numpy pass: the header
must match exactly and every row must hold one integer per column. A file
that breaks this raises MalformedTableError naming the file.
"""

import csv
import json
from pathlib import Path

import numpy as np

from .twin import ObservationRecord, SequencePool


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


def _open_w(path):
    Path(path).parent.mkdir(parents=True, exist_ok=True)
    return open(path, "w", newline="", encoding="utf-8")


def write_obs_counts(path, observations):
    with _open_w(path) as f:
        w = csv.writer(f)
        w.writerow(["step", "store", "count"])
        for obs in observations:
            for store, count in enumerate(obs.inflow):
                w.writerow([obs.step, store, int(count)])


def write_obs_counts_attr(path, observations):
    with _open_w(path) as f:
        w = csv.writer(f)
        w.writerow(["step", "attr", "store", "count"])
        for obs in observations:
            for attr in range(obs.inflow_by_attr.shape[0]):
                for store, count in enumerate(obs.inflow_by_attr[attr]):
                    w.writerow([obs.step, attr, store, int(count)])


def read_observations(counts_path, attr_path):
    """Rebuild the observation trajectory from the two count files.

    Cells are placed by their (step, store) and (step, attr, store) indices,
    so row order does not matter; a cell missing from a file counts 0.
    """
    totals = _read_table(counts_path, ["step", "store", "count"])
    by_attr = _read_table(attr_path, ["step", "attr", "store", "count"])
    steps, stores = _extent(counts_path, totals, [0, 1])
    attr_steps, attrs, attr_stores = _extent(attr_path, by_attr, [0, 1, 2])
    if attr_steps > steps or attr_stores > stores:
        raise MalformedTableError(
            f"{attr_path}: indexes step {attr_steps - 1}, store {attr_stores - 1}"
            f" beyond {counts_path} ({steps} steps, {stores} stores)"
        )
    inflow = np.zeros((steps, stores), dtype=np.int64)
    inflow[totals[:, 0], totals[:, 1]] = totals[:, 2]
    inflow_attr = np.zeros((steps, attrs, stores), dtype=np.int64)
    inflow_attr[by_attr[:, 0], by_attr[:, 1], by_attr[:, 2]] = by_attr[:, 3]
    return [
        ObservationRecord(step=t, inflow=inflow[t], inflow_by_attr=inflow_attr[t])
        for t in range(steps)
    ]


def write_sequence_pool(path, pool: SequencePool):
    length = pool.paths.shape[1]
    with _open_w(path) as f:
        w = csv.writer(f)
        w.writerow(["entry_id", "attr"] + [f"s{i}" for i in range(length)])
        for i in range(pool.size):
            w.writerow([i, int(pool.attrs[i])] + [int(s) for s in pool.paths[i]])


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
    with _open_w(path) as f:
        w = csv.writer(f)
        w.writerow(["origin", "dest", "count"])
        for o in range(od.shape[0]):
            for d in range(od.shape[1]):
                w.writerow([o, d, int(od[o, d])])


def read_od(path) -> np.ndarray:
    table = _read_table(path, ["origin", "dest", "count"])
    size = _extent(path, table, [0, 1]).max()
    od = np.zeros((size, size), dtype=np.int64)
    od[table[:, 0], table[:, 1]] = table[:, 2]
    return od


def write_mean_od(path, od: np.ndarray):
    with _open_w(path) as f:
        w = csv.writer(f)
        w.writerow(["origin", "dest", "mean_count"])
        for o in range(od.shape[0]):
            for d in range(od.shape[1]):
                w.writerow([o, d, f"{od[o, d]:.6f}"])


def write_paths(path, rows):
    """rows: (R, 4) path rows (agent_id, group, position, store), one per
    visited store, as model.path_rows gives them."""
    with _open_w(path) as f:
        w = csv.writer(f)
        w.writerow(["agent_id", "group", "position", "store"])
        w.writerows(np.asarray(rows).tolist())


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
    with _open_w(path) as f:
        w = csv.writer(f)
        w.writerow(["step", "agent_id", "entry_id", "attr"])
        for step, agent_id, entry_id, attr in assignments:
            w.writerow([step, agent_id, entry_id, attr])


def read_assignments(path) -> np.ndarray:
    """Assignment rows (step, agent_id, entry_id, attr) in file order."""
    return _read_table(path, ["step", "agent_id", "entry_id", "attr"])


def write_ngram_top(path, rows, n: int):
    """rows: (rank, gram, freq_truth, freq_assim, freq_baseline)."""
    with _open_w(path) as f:
        w = csv.writer(f)
        w.writerow(
            ["rank"] + [f"s{i}" for i in range(n)] + ["freq_truth", "freq_assim", "freq_baseline"]
        )
        for rank, gram, ft, fa, fb in rows:
            w.writerow([rank] + list(gram) + [f"{ft:.6f}", f"{fa:.6f}", f"{fb:.6f}"])


def write_json(path, payload):
    Path(path).parent.mkdir(parents=True, exist_ok=True)
    with open(path, "w", encoding="utf-8") as f:
        json.dump(payload, f, indent=2, sort_keys=True)
        f.write("\n")


def read_json(path):
    with open(path, encoding="utf-8") as f:
        return json.load(f)
