import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from roamlab.numerics import categorical, log_normalize_rows

from conftest import FixedUniforms

finite_vec = st.lists(
    st.floats(-200, 200, allow_nan=False, allow_infinity=False), min_size=1, max_size=20
).map(np.array)


@settings(max_examples=100, deadline=None)
@given(finite_vec)
def test_log_normalize_sums_to_one(v):
    w = np.exp(log_normalize_rows(v))
    assert abs(w.sum() - 1.0) < 1e-9


@settings(max_examples=100, deadline=None)
@given(finite_vec, st.floats(-100, 100, allow_nan=False, allow_infinity=False))
def test_log_normalize_shift_invariant(v, c):
    assert np.max(np.abs(log_normalize_rows(v + c) - log_normalize_rows(v))) <= 1e-12


@settings(max_examples=100, deadline=None)
@given(st.integers(1, 6).flatmap(lambda rows: st.lists(finite_vec, min_size=rows, max_size=rows)))
def test_log_normalize_rows_matches_row_loop_bit_for_bit(rows):
    width = min(len(r) for r in rows)
    v = np.array([r[:width] for r in rows])
    expected = np.vstack([log_normalize_rows(r) for r in v])
    np.testing.assert_array_equal(log_normalize_rows(v), expected)


def test_logsumexp_handles_large_values(v=np.array([10_000.0, 0.0])):
    # the log-sum-exp is exactly 10_000, because exp(-10000) underflows to zero
    assert log_normalize_rows(v)[0] == 0.0
    assert np.isfinite(log_normalize_rows(v)[0])


def test_log_normalize_rows_keeps_minus_inf_entries():
    out = log_normalize_rows(np.array([[0.0, -np.inf, 0.0], [-np.inf, 3.0, -np.inf]]))
    np.testing.assert_array_equal(out, [[-np.log(2), -np.inf, -np.log(2)], [-np.inf, 0.0, -np.inf]])


def test_categorical_scalar_and_vector_draws():
    rng = np.random.default_rng(0)
    probs = np.array([0.2, 0.5, 0.3])
    singles = np.array([categorical(rng, probs) for _ in range(30_000)])
    batch = categorical(rng, probs, size=30_000)
    for draws in (singles, batch):
        counts = np.bincount(draws, minlength=3)
        sigma = np.sqrt(len(draws) * probs * (1 - probs))
        assert np.all(np.abs(counts - len(draws) * probs) <= 3 * sigma)


def test_categorical_clamps_rounding_overflow():
    # cumulative sum slightly below 1 must still yield a valid index
    rng = np.random.default_rng(1)
    probs = np.array([0.1] * 3 + [0.7 - 1e-12])
    draws = categorical(rng, probs, size=10_000)
    assert draws.max() <= 3


@pytest.mark.parametrize(
    "probs",
    [
        [0.5, float("nan"), 0.5],
        [0.6, -0.1, 0.5],
        [0.25, 0.25, 0.0],  # sums to 0.5
        [[0.2, 0.8, 0.0], [0.25, 0.25, 0.0]],
        [[0.2, 0.8, 0.0], [float("nan"), 0.5, 0.5]],
    ],
)
def test_categorical_rejects_nan_negative_and_unnormalised_input(probs):
    with pytest.raises(ValueError, match="probabilities"):
        categorical(np.random.default_rng(0), np.array(probs))


def test_categorical_last_category_with_probability_one_always_drawn():
    rng = np.random.default_rng(2)
    probs = np.array([0.0, 0.0, 0.0, 1.0])
    assert np.all(categorical(rng, probs, size=10_000) == 3)
    assert all(categorical(rng, probs) == 3 for _ in range(100))
    assert np.all(categorical(rng, np.tile(probs, (10_000, 1))) == 3)


def test_categorical_each_row_draws_from_its_own_row():
    rng = np.random.default_rng(3)
    rows = np.array([[0.7, 0.3, 0.0, 0.0], [0.0, 0.0, 0.2, 0.8], [0.0, 1.0, 0.0, 0.0]])
    n = 30_000
    draws = categorical(rng, np.repeat(rows, n, axis=0)).reshape(3, n)
    for row, got in zip(rows, draws):
        counts = np.bincount(got, minlength=4)
        assert np.all(counts[row == 0] == 0)
        sigma = np.sqrt(n * row * (1 - row))
        assert np.all(np.abs(counts - n * row) <= 3 * np.maximum(sigma, 1e-9))
    per_row = categorical(rng, rows, size=n)
    assert per_row.shape == (3, n)
    for row, got in zip(rows, per_row):
        assert np.all(row[got] > 0)


@pytest.mark.parametrize("u, drawn", [(0.0, 1), (0.5, 3)], ids=["u-zero", "u-on-cdf-entry"])
def test_categorical_vector_skips_zero_categories_at_cdf_edges(u, drawn):
    # CDF 0, 0.5, 0.5, 1: the index is the count of entries <= u, so u = 0
    # passes the leading zero category and u = 0.5 the one after index 1
    probs = np.array([0.0, 0.5, 0.0, 0.5])
    assert categorical(FixedUniforms([u]), probs) == drawn
    np.testing.assert_array_equal(categorical(FixedUniforms([u] * 3), probs, size=3), [drawn] * 3)


def test_categorical_stack_skips_zero_categories_at_cdf_edges():
    # row CDFs 0, 0.5, 0.5, 1 and 0, 0.25, 0.25, 1
    rows = np.array([[0.0, 0.5, 0.0, 0.5], [0.0, 0.25, 0.0, 0.75]])
    np.testing.assert_array_equal(categorical(FixedUniforms([0.0, 0.25]), rows), [1, 3])
    np.testing.assert_array_equal(
        categorical(FixedUniforms([[0.5, 0.0], [0.0, 0.25]]), rows, size=2), [[3, 1], [1, 3]])
