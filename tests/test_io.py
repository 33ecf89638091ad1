import numpy as np

from roamlab import io
from roamlab.twin import SequencePool, run_truth

from conftest import small_sim_config


def test_observation_roundtrip(tmp_path):
    cfg = small_sim_config(store_count=4, horizon_steps=25)
    truth = run_truth(cfg, np.random.default_rng(1))
    io.write_obs_counts(tmp_path / "c.csv", truth.observations)
    io.write_obs_counts_attr(tmp_path / "a.csv", truth.observations)
    back = io.read_observations(tmp_path / "c.csv", tmp_path / "a.csv")
    assert len(back) == len(truth.observations)
    for x, y in zip(back, truth.observations):
        assert x.step == y.step
        np.testing.assert_array_equal(x.inflow, y.inflow)
        np.testing.assert_array_equal(x.inflow_by_attr, y.inflow_by_attr)


def test_sequence_pool_roundtrip(tmp_path):
    pool = SequencePool(
        paths=np.array([[0, 1, 2, 3], [3, 2, 1, 0]]), attrs=np.array([2, 0])
    )
    io.write_sequence_pool(tmp_path / "pool.csv", pool)
    back = io.read_sequence_pool(tmp_path / "pool.csv")
    np.testing.assert_array_equal(back.paths, pool.paths)
    np.testing.assert_array_equal(back.attrs, pool.attrs)


def test_od_roundtrip(tmp_path):
    od = np.arange(16).reshape(4, 4)
    io.write_od(tmp_path / "od.csv", od)
    np.testing.assert_array_equal(io.read_od(tmp_path / "od.csv"), od)


def test_paths_roundtrip(tmp_path):
    triples = [(0, 1, (4, 2, 0)), (1, 3, (5,)), (2, 0, (1, 1, 2, 3))]
    io.write_paths(tmp_path / "p.csv", triples)
    assert io.read_paths(tmp_path / "p.csv") == triples


def test_assignments_roundtrip(tmp_path):
    rows = [(0, 5, 12, 3), (7, 40, 399, 0)]
    io.write_assignments(tmp_path / "s.csv", rows)
    assert io.read_assignments(tmp_path / "s.csv") == rows


def test_mean_od_fixed_precision(tmp_path):
    io.write_mean_od(tmp_path / "m.csv", np.array([[1 / 3, 0.0], [2.5, 1e-7]]))
    lines = (tmp_path / "m.csv").read_text().splitlines()
    assert lines[0] == "origin,dest,mean_count"
    assert lines[1] == "0,0,0.333333"
    assert lines[4] == "1,1,0.000000"


def test_json_roundtrip(tmp_path):
    payload = {"b": [1, 2], "a": {"x": 0.5}}
    io.write_json(tmp_path / "m.json", payload)
    assert io.read_json(tmp_path / "m.json") == payload
