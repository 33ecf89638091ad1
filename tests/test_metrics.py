from collections import Counter

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from roamlab.experiment import Summaries
from roamlab.metrics import (
    aggregate_runs,
    build_od,
    decode_ngram,
    discrepancy,
    ngram_table,
    top_k,
)

from conftest import path_rows

int_matrix = st.integers(2, 5).flatmap(
    lambda n: st.lists(
        st.lists(st.integers(0, 50), min_size=n, max_size=n), min_size=n, max_size=n
    ).map(np.array)
)


def od_of(paths, store_count):
    """build_od over plain paths, one agent per path."""
    return build_od(path_rows([(i, 0, p) for i, p in enumerate(paths)]), store_count)


class TestBuildOd:
    def test_single_path(self):
        od = od_of([[0, 1, 2, 3]], 4)
        assert od[0, 1] == od[1, 2] == od[2, 3] == 1
        assert od.sum() == 3

    def test_empty_path_set(self):
        assert od_of([], 3).sum() == 0

    def test_repeated_transition_accumulates(self):
        od = od_of([[0, 1], [0, 1]], 2)
        assert od[0, 1] == 2

    def test_single_store_paths_add_nothing(self):
        assert od_of([[2]], 3).sum() == 0

    @settings(max_examples=40, deadline=None)
    @given(st.lists(st.lists(st.integers(0, 5), min_size=1, max_size=6), max_size=8))
    def test_total_equals_transition_count(self, paths):
        od = od_of(paths, 6)
        assert od.sum() == sum(len(p) - 1 for p in paths)

    @settings(max_examples=60, deadline=None)
    @given(
        st.integers(2, 6).flatmap(
            lambda s: st.tuples(
                st.just(s),
                st.lists(st.lists(st.integers(0, s - 1), min_size=1, max_size=6), max_size=10),
            )
        ),
        st.lists(st.integers(1, 3), min_size=10, max_size=10),
    )
    def test_matches_plain_python_pair_count(self, store_paths, id_gaps):
        # Paths of different lengths sit next to each other, under ascending
        # but not consecutive agent ids; no pair may join two agents.
        store_count, paths = store_paths
        ids = np.cumsum(id_gaps)[: len(paths)]
        od = build_od(path_rows(list(zip(ids, [0] * len(paths), paths))), store_count)
        oracle = np.zeros((store_count, store_count), dtype=np.int64)
        for path in paths:
            for a, b in zip(path[:-1], path[1:]):
                oracle[a, b] += 1
        assert od.shape == (store_count, store_count)
        np.testing.assert_array_equal(od, oracle)


class TestDiscrepancy:
    def test_identical_matrices(self):
        a = np.array([[1, 2], [3, 4]])
        assert discrepancy(a, a) == 0.0

    def test_hand_computed_value(self):
        assert discrepancy([[1, 2], [3, 4]], [[0, 2], [5, 1]]) == 6.0

    def test_shape_mismatch_rejected(self):
        with pytest.raises(ValueError, match="shape"):
            discrepancy(np.zeros((2, 2)), np.zeros((3, 3)))

    @settings(max_examples=40, deadline=None)
    @given(int_matrix, int_matrix)
    def test_metric_axioms_pairwise(self, a, b):
        if a.shape != b.shape:
            return
        assert discrepancy(a, b) == discrepancy(b, a) >= 0.0
        assert (discrepancy(a, b) == 0.0) == bool(np.array_equal(a, b))

    def test_triangle_inequality_spot_check(self):
        rng = np.random.default_rng(0)
        for _ in range(200):
            a, b, c = rng.integers(0, 30, size=(3, 4, 4))
            assert discrepancy(a, c) <= discrepancy(a, b) + discrepancy(b, c) + 1e-9


def table_of(paths, store_count, n=3):
    """ngram_table over plain paths, one agent per path."""
    return ngram_table(path_rows([(i, 0, p) for i, p in enumerate(paths)]), store_count, n)


def as_dict(table, store_count, n=3):
    return {decode_ngram(c, store_count, n): int(table[c]) for c in np.flatnonzero(table)}


def oracle_table(paths, n):
    """Plain-Python n-gram counts: every window of every path, as a tuple."""
    return Counter(tuple(p[i : i + n]) for p in paths for i in range(len(p) - n + 1))


class TestNgrams:
    def test_three_grams_of_short_path(self):
        table = table_of([[0, 1, 2, 3]], 4)
        assert as_dict(table, 4) == {(0, 1, 2): 1, (1, 2, 3): 1}

    def test_n_longer_than_path_gives_empty(self):
        assert as_dict(table_of([[0, 1]], 2), 2) == {}

    def test_shared_prefix_counts(self):
        paths = [[4, 5, 6, 1], [4, 5, 6, 2], [4, 5, 6]]
        assert as_dict(table_of(paths, 7), 7)[(4, 5, 6)] == 3

    @settings(max_examples=40, deadline=None)
    @given(st.lists(st.lists(st.integers(0, 4), min_size=1, max_size=7), max_size=8))
    def test_total_window_count(self, paths):
        table = table_of(paths, 5)
        assert table.sum() == sum(max(0, len(p) - 2) for p in paths)

    def test_top_k_deterministic_tiebreak(self):
        # bigram counts (2,0):3, (0,1):3, (1,2):5, (0,0):1, one path per bigram
        paths = [[2, 0]] * 3 + [[0, 1]] * 3 + [[1, 2]] * 5 + [[0, 0]]
        ranked = [(decode_ngram(c, 3, 2), f) for c, f in top_k(table_of(paths, 3, 2), 3)]
        assert ranked == [((1, 2), 5), ((0, 1), 3), ((2, 0), 3)]
        assert top_k(table_of(paths, 3, 2), 3) == top_k(table_of(paths[::-1], 3, 2), 3)

    def test_mean_table_averages_missing_as_zero(self):
        t1 = table_of([[0, 1]] * 4, 3, 2)
        t2 = table_of([[0, 1]] * 2 + [[1, 2]] * 2, 3, 2)
        # evaluate's mean: the running sum Summaries folds, over the replicates
        summaries = Summaries().fold({"case1": (np.zeros((3, 3)), t, None)} for t in (t1, t2))
        mean = summaries.ngrams["case1"] / len(summaries.od["case1"])
        assert mean[1] == 3.0  # code of (0, 1)
        assert mean[5] == 1.0  # code of (1, 2)
        assert np.count_nonzero(mean) == 2

    @settings(max_examples=60, deadline=None)
    @given(
        st.integers(2, 5).flatmap(
            lambda s: st.tuples(
                st.just(s),
                st.lists(st.lists(st.integers(0, s - 1), min_size=1, max_size=7), max_size=10),
            )
        ),
        st.integers(1, 4),
        st.integers(1, 12),
    )
    def test_codes_and_ranking_match_plain_python_oracle(self, store_paths, n, k):
        store_count, paths = store_paths
        table = table_of(paths, store_count, n)
        assert table.shape == (store_count**n,)
        oracle = oracle_table(paths, n)
        assert as_dict(table, store_count, n) == dict(oracle)
        ranked = [(decode_ngram(c, store_count, n), f) for c, f in top_k(table, k)]
        assert ranked == sorted(oracle.items(), key=lambda kv: (-kv[1], kv[0]))[:k]

    def test_windows_stay_within_one_agent(self):
        # Two agents whose rows are adjacent: no window may join 0,1 to 2,3.
        assert as_dict(table_of([[0, 1], [2, 3]], 4, 3), 4) == {}
        assert as_dict(table_of([[0, 1], [2, 3]], 4, 2), 4, 2) == {(0, 1): 1, (2, 3): 1}


class TestAggregateRuns:
    def test_identical_runs_have_zero_std(self):
        od = np.array([[0, 2], [1, 0]])
        out = aggregate_runs({"truth": [od] * 30, "other": [od] * 30})
        np.testing.assert_array_equal(out["mean_od"]["other"], od)
        assert out["labels"]["other"]["discrepancy_mean"] == 0.0
        assert out["labels"]["other"]["discrepancy_std"] == 0.0

    def test_mean_of_two_discrepancies(self):
        truth = np.zeros((2, 2), dtype=int)
        runs = [np.array([[10, 0], [0, 0]]), np.array([[20, 0], [0, 0]])]
        out = aggregate_runs({"truth": [truth, truth], "x": runs})
        assert out["labels"]["x"]["discrepancy_mean"] == 15.0

    def test_element_wise_mean(self):
        a = np.array([[2, 0], [0, 0]])
        b = np.array([[0, 0], [0, 2]])
        out = aggregate_runs({"truth": [a, b]})
        np.testing.assert_array_equal(out["mean_od"]["truth"], [[1, 0], [0, 1]])

    def test_both_averaging_orders_reported(self):
        truth = [np.array([[0, 4], [0, 0]]), np.array([[0, 0], [4, 0]])]
        runs = [np.array([[0, 0], [4, 0]]), np.array([[0, 4], [0, 0]])]
        out = aggregate_runs({"truth": truth, "x": runs})
        # per-run discrepancies are 8 and 8; the means coincide exactly
        assert out["labels"]["x"]["discrepancy_mean"] == 8.0
        assert out["labels"]["x"]["discrepancy_of_mean_od"] == 0.0

    def test_mismatched_replicate_counts_rejected(self):
        od = np.zeros((2, 2))
        with pytest.raises(ValueError, match="unequal"):
            aggregate_runs({"truth": [od, od], "x": [od]})

    def test_truth_label_required(self):
        with pytest.raises(ValueError, match="truth"):
            aggregate_runs({"x": [np.zeros((2, 2))]})
