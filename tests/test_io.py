import json
import warnings

import numpy as np
import pytest
import reference

from roamlab import io
from roamlab.twin import SequencePool, run_truth

from conftest import path_rows, small_sim_config


def test_observation_roundtrip(tmp_path):
    cfg = small_sim_config(store_count=4, horizon_steps=25)
    _, observations = run_truth(cfg, np.random.default_rng(1))
    io.write_obs_counts(tmp_path / "c.csv", observations)
    io.write_obs_counts_attr(tmp_path / "a.csv", observations)
    back = io.read_observations(tmp_path / "c.csv", tmp_path / "a.csv", observations.shape)
    assert back.dtype == np.int64
    np.testing.assert_array_equal(back, observations)


def test_sequence_pool_roundtrip(tmp_path):
    pool = SequencePool(
        paths=np.array([[0, 1, 2, 3], [3, 2, 1, 0]]), attrs=np.array([2, 0])
    )
    io.write_sequence_pool(tmp_path / "pool.csv", pool)
    back = io.read_sequence_pool(tmp_path / "pool.csv", 4, 4, 3)
    np.testing.assert_array_equal(back.paths, pool.paths)
    np.testing.assert_array_equal(back.attrs, pool.attrs)


def test_od_roundtrip(tmp_path):
    od = np.arange(16).reshape(4, 4)
    io.write_od(tmp_path / "od.csv", od)
    np.testing.assert_array_equal(io.read_od(tmp_path / "od.csv", 4), od)


def test_paths_roundtrip(tmp_path):
    triples = [(0, 1, (4, 2, 0)), (1, 3, (5,)), (2, 0, (1, 1, 2, 3))]
    io.write_paths(tmp_path / "p.csv", path_rows(triples))
    back = io.read_paths(tmp_path / "p.csv", 6, 4)
    assert back.dtype == np.int64
    np.testing.assert_array_equal(back, path_rows(triples))


def test_assignments_roundtrip(tmp_path):
    rows = [(0, 0, 12, 3), (7, 1, 399, 0)]
    io.write_assignments(tmp_path / "s.csv", rows)
    back = io.read_assignments(tmp_path / "s.csv", 4)
    assert back.dtype == np.int64
    np.testing.assert_array_equal(back, rows)


def test_header_only_files_parse_to_zero_rows(tmp_path):
    # A paths file may hold no rows; an assignment file numbers its rows from
    # 0, so it must hold at least one.
    io.write_paths(tmp_path / "p.csv", [])
    io.write_assignments(tmp_path / "s.csv", [])
    (tmp_path / "blank.csv").write_text("agent_id,group,position,store\n\n \n")
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        paths = io.read_paths(tmp_path / "p.csv", 4, 4)
        blank = io.read_paths(tmp_path / "blank.csv", 4, 4)
        with pytest.raises(io.MalformedTableError, match="no data rows"):
            io.read_assignments(tmp_path / "s.csv", 4)
    assert paths.shape == (0, 4)
    assert blank.shape == (0, 4)


def shuffle_rows(path, seed):
    header, *rows = path.read_text().splitlines(keepends=True)
    order = np.random.default_rng(seed).permutation(len(rows))
    assert not np.array_equal(order, np.arange(len(rows)))
    path.write_text(header + "".join(rows[i] for i in order))


def test_paths_read_in_agent_and_position_order_whatever_the_row_order(tmp_path):
    triples = [(0, 1, (4, 2, 0)), (1, 3, (5,)), (2, 0, (1, 1, 2, 3)), (3, 2, (0, 1))]
    io.write_paths(tmp_path / "p.csv", path_rows(triples))
    shuffle_rows(tmp_path / "p.csv", 3)
    np.testing.assert_array_equal(io.read_paths(tmp_path / "p.csv", 6, 4), path_rows(triples))


def test_observations_placed_by_index_whatever_the_row_order(tmp_path):
    cfg = small_sim_config(store_count=4, horizon_steps=25)
    _, observations = run_truth(cfg, np.random.default_rng(1))
    io.write_obs_counts(tmp_path / "c.csv", observations)
    io.write_obs_counts_attr(tmp_path / "a.csv", observations)
    shuffle_rows(tmp_path / "c.csv", 4)
    shuffle_rows(tmp_path / "a.csv", 5)
    back = io.read_observations(tmp_path / "c.csv", tmp_path / "a.csv", observations.shape)
    np.testing.assert_array_equal(back, observations)


PATHS_HEADER = "agent_id,group,position,store\n"


@pytest.mark.parametrize(
    "text, reason",
    [
        ("", "header"),
        ("agent_id,group,pos,store\n0,0,0,1\n", "header"),
        (PATHS_HEADER + "0,0,0,1\n0,0,1,2\n0,0,2", "columns changed"),
        (PATHS_HEADER + "0,0,0,1\n0,0,1,\n", "convert"),
        (PATHS_HEADER + "0,0,0,1.5\n", "convert"),
        (PATHS_HEADER + "0,0,0\n", "cells"),
        (PATHS_HEADER + "0,0,0,1\n0,0,2,3\n", "positions"),
        (PATHS_HEADER + "0,0,0,1\n0,0,0,1\n", "positions"),
        (PATHS_HEADER + "0,0,0,1\n0,1,1,2\n", "group"),
        (PATHS_HEADER + "0,0,0,1\n0,0,1,4\n", "store outside"),
        (PATHS_HEADER + "0,0,0,-1\n", "store outside"),
        (PATHS_HEADER + "0,4,0,1\n0,4,1,2\n", "group outside"),
        (PATHS_HEADER + "0,-1,0,1\n", "group outside"),
        (PATHS_HEADER + "-1,0,0,1\n-1,0,1,2\n", "agent_id is negative"),
    ],
)
def test_malformed_paths_file_refused_naming_it(tmp_path, text, reason):
    path = tmp_path / "p.csv"
    path.write_text(text)
    with pytest.raises(io.MalformedTableError, match=reason) as info:
        io.read_paths(path, 4, 4)
    assert str(path) in str(info.value)


def test_observation_files_must_agree_on_extent(tmp_path):
    (tmp_path / "c.csv").write_text("step,store,count\n0,0,1\n0,1,0\n")
    (tmp_path / "a.csv").write_text("step,attr,store,count\n0,0,0,1\n1,0,1,0\n")
    with pytest.raises(io.MalformedTableError, match="beyond"):
        io.read_observations(tmp_path / "c.csv", tmp_path / "a.csv", (1, 1, 2))


def test_totals_must_be_the_per_store_sums_of_the_attr_counts(tmp_path):
    cfg = small_sim_config(store_count=4, horizon_steps=25)
    _, observations = run_truth(cfg, np.random.default_rng(1))
    io.write_obs_counts(tmp_path / "c.csv", observations)
    io.write_obs_counts_attr(tmp_path / "a.csv", observations)
    header, *rows = (tmp_path / "c.csv").read_text().splitlines(keepends=True)
    step, store, count = rows[7].split(",")
    rows[7] = f"{step},{store},{int(count) + 1}\n"
    (tmp_path / "c.csv").write_text(header + "".join(rows))
    with pytest.raises(io.MalformedTableError, match="per-store sums") as info:
        io.read_observations(tmp_path / "c.csv", tmp_path / "a.csv", observations.shape)
    assert str(tmp_path / "c.csv") in str(info.value)


def edit_rows(path, edit):
    """Rewrite a CSV's data rows (header kept) as edit(rows) gives them."""
    header, *rows = path.read_text().splitlines(keepends=True)
    path.write_text(header + "".join(edit(rows)))


CELL_EDITS = {
    "duplicated": lambda rows: rows + [rows[3]],
    "missing": lambda rows: rows[:3] + rows[4:],
}


@pytest.mark.parametrize("edit", CELL_EDITS)
def test_od_file_must_hold_every_cell_once(tmp_path, edit):
    io.write_od(tmp_path / "od.csv", np.arange(16).reshape(4, 4))
    edit_rows(tmp_path / "od.csv", CELL_EDITS[edit])
    with pytest.raises(io.MalformedTableError, match=r"cell \(0, 3\) has [02] rows") as info:
        io.read_od(tmp_path / "od.csv", 4)
    assert str(tmp_path / "od.csv") in str(info.value)


@pytest.mark.parametrize("name", ["c.csv", "a.csv"])
@pytest.mark.parametrize("edit", CELL_EDITS)
def test_observation_files_must_hold_every_cell_once(tmp_path, name, edit):
    cfg = small_sim_config(store_count=4, horizon_steps=25)
    _, observations = run_truth(cfg, np.random.default_rng(1))
    io.write_obs_counts(tmp_path / "c.csv", observations)
    io.write_obs_counts_attr(tmp_path / "a.csv", observations)
    edit_rows(tmp_path / name, CELL_EDITS[edit])
    with pytest.raises(io.MalformedTableError, match="rows, not 1") as info:
        io.read_observations(tmp_path / "c.csv", tmp_path / "a.csv", observations.shape)
    assert str(tmp_path / name) in str(info.value)


def test_od_file_must_fit_the_store_count(tmp_path):
    io.write_od(tmp_path / "od.csv", np.ones((4, 4), dtype=np.int64))
    with pytest.raises(io.MalformedTableError, match="beyond the \\(3, 3\\) array"):
        io.read_od(tmp_path / "od.csv", 3)
    with pytest.raises(io.MalformedTableError, match="rows, not 1"):
        io.read_od(tmp_path / "od.csv", 5)


def test_sequence_pool_entry_ids_must_number_rows(tmp_path):
    (tmp_path / "pool.csv").write_text("entry_id,attr,s0,s1\n0,0,1,2\n2,1,2,3\n")
    with pytest.raises(io.MalformedTableError, match="entry_id"):
        io.read_sequence_pool(tmp_path / "pool.csv", 2, 4, 2)


@pytest.mark.parametrize(
    "text, reason",
    [
        ("entry_id,attr,s0,s1,s2\n0,0,1,2,3\n", "header"),
        ("entry_id,attr,s0,s1\n", "no data rows"),
        ("entry_id,attr,s0,s1\n0,0,1,2\n1,2,2,3\n", "attr outside"),
        ("entry_id,attr,s0,s1\n0,0,1,4\n", "store outside"),
        ("entry_id,attr,s0,s1\n0,0,-1,2\n", "store outside"),
    ],
)
def test_sequence_pool_must_fit_the_config(tmp_path, text, reason):
    path = tmp_path / "pool.csv"
    path.write_text(text)
    with pytest.raises(io.MalformedTableError, match=reason) as info:
        io.read_sequence_pool(path, 2, 4, 2)
    assert str(path) in str(info.value)


@pytest.mark.parametrize(
    "rows, reason",
    [
        ([(0, 0, 3, 1), (0, 1, 4, 0), (0, 1, 4, 0)], "agent_id"),
        ([(0, 0, 3, 1), (0, 2, 4, 0)], "agent_id"),
        ([(0, 0, 3, 1), (0, 1, 4, 2)], "attr outside"),
        ([(0, 0, 3, -1)], "attr outside"),
    ],
    ids=["duplicated", "gap", "attr-2", "attr-negative"],
)
def test_assignments_must_number_agents_and_fit_the_groups(tmp_path, rows, reason):
    path = tmp_path / "s.csv"
    io.write_assignments(path, rows)
    with pytest.raises(io.MalformedTableError, match=reason) as info:
        io.read_assignments(path, 2)
    assert str(path) in str(info.value)


def test_assignments_read_in_agent_order_whatever_the_row_order(tmp_path):
    rows = [(0, 0, 12, 3), (0, 1, 7, 0), (3, 2, 9, 1), (5, 3, 12, 3)]
    io.write_assignments(tmp_path / "s.csv", rows)
    shuffle_rows(tmp_path / "s.csv", 6)
    np.testing.assert_array_equal(io.read_assignments(tmp_path / "s.csv", 4), rows)


def test_mean_od_fixed_precision(tmp_path):
    io.write_mean_od(tmp_path / "m.csv", np.array([[1 / 3, 0.0], [2.5, 1e-7]]))
    lines = (tmp_path / "m.csv").read_text().splitlines()
    assert lines[0] == "origin,dest,mean_count"
    assert lines[1] == "0,0,0.333333"
    assert lines[4] == "1,1,0.000000"


INTS = np.random.default_rng(5).integers(-50, 10**6, size=(10_000, 4))  # 3 writer blocks
MEAN_OD = np.array([[5e-7, 2.0000005, 1 / 3], [1e6 + 0.25, -5e-7, 0.0], [2.5e-6, 7.0, 1e-7]])
NGRAM_ROWS = [
    (1, (4, 0, 17), np.float64(46.5), np.float64(1 / 3), 0.0),
    (2, (0, 3, 1), np.float64(5e-7), np.float64(2.0000005), np.float64(1e6 + 0.25)),
]


def pool_rows(pool):
    return [(i, a, *p) for i, (a, p) in enumerate(zip(pool.attrs.tolist(), pool.paths.tolist()))]


def fixed(rows):
    """Rows as the writers formatted their averages: every float cell in .6f."""
    return [[f"{x:.6f}" if isinstance(x, float) else x for x in row] for row in rows]


# (writer call, header, the rows csv.writer was given for it)
WRITER_CASES = {
    "obs_counts": (
        lambda p: io.write_obs_counts(p, INTS[:60].reshape(5, 3, 16)),
        ["step", "store", "count"], reference.cell_rows(INTS[:60].reshape(5, 3, 16).sum(axis=1))),
    "obs_counts_no_steps": (
        lambda p: io.write_obs_counts(p, np.zeros((0, 4, 3), dtype=np.int64)),
        ["step", "store", "count"], []),
    "obs_counts_attr": (
        lambda p: io.write_obs_counts_attr(p, INTS[:60].reshape(5, 3, 16)),
        ["step", "attr", "store", "count"], reference.cell_rows(INTS[:60].reshape(5, 3, 16))),
    "od": (
        lambda p: io.write_od(p, INTS[:4].reshape(4, 4)),
        ["origin", "dest", "count"], reference.cell_rows(INTS[:4].reshape(4, 4))),
    "od_empty": (
        lambda p: io.write_od(p, np.zeros((0, 0), dtype=np.int64)),
        ["origin", "dest", "count"], []),
    "mean_od": (
        lambda p: io.write_mean_od(p, MEAN_OD),
        ["origin", "dest", "mean_count"], fixed(reference.cell_rows(MEAN_OD))),
    "sequence_pool": (
        lambda p: io.write_sequence_pool(p, SequencePool(paths=INTS[:7, :3], attrs=INTS[:7, 3])),
        ["entry_id", "attr", "s0", "s1", "s2"],
        pool_rows(SequencePool(paths=INTS[:7, :3], attrs=INTS[:7, 3]))),
    "paths": (
        lambda p: io.write_paths(p, INTS),
        ["agent_id", "group", "position", "store"], INTS.tolist()),
    "paths_empty": (
        lambda p: io.write_paths(p, np.zeros((0, 4), dtype=np.int64)),
        ["agent_id", "group", "position", "store"], []),
    "assignments": (
        lambda p: io.write_assignments(p, INTS[:9]),
        ["step", "agent_id", "entry_id", "attr"], INTS[:9].tolist()),
    "ngram_top": (
        lambda p: io.write_ngram_top(p, NGRAM_ROWS, 3),
        ["rank", "s0", "s1", "s2", "freq_truth", "freq_assim", "freq_baseline"],
        fixed([(rank, *gram, *freqs) for rank, gram, *freqs in NGRAM_ROWS])),
    "ngram_top_empty": (
        lambda p: io.write_ngram_top(p, [], 2),
        ["rank", "s0", "s1", "freq_truth", "freq_assim", "freq_baseline"], []),
}


@pytest.mark.parametrize("case", WRITER_CASES)
def test_writer_bytes_match_csv_writer(tmp_path, case):
    write, header, rows = WRITER_CASES[case]
    write(tmp_path / "got.csv")
    expected = reference.csv_bytes(tmp_path / "expected.csv", header, rows)
    assert (tmp_path / "got.csv").read_bytes() == expected


def test_json_roundtrip(tmp_path):
    payload = {"b": [1, 2], "a": {"x": 0.5}}
    io.write_json(tmp_path / "m.json", payload)
    assert json.loads((tmp_path / "m.json").read_text(encoding="utf-8")) == payload
