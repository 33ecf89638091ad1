import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st

from roamlab.numerics import categorical, log_normalize, logsumexp

finite_vec = st.lists(
    st.floats(-200, 200, allow_nan=False, allow_infinity=False), min_size=1, max_size=20
).map(np.array)


@settings(max_examples=100, deadline=None)
@given(finite_vec)
def test_log_normalize_sums_to_one(v):
    w = np.exp(log_normalize(v))
    assert abs(w.sum() - 1.0) < 1e-9


@settings(max_examples=100, deadline=None)
@given(finite_vec, st.floats(-100, 100, allow_nan=False, allow_infinity=False))
def test_log_normalize_shift_invariant(v, c):
    assert np.max(np.abs(log_normalize(v + c) - log_normalize(v))) <= 1e-12


def test_logsumexp_handles_large_values(v=np.array([10_000.0, 0.0])):
    assert logsumexp(v) == 10_000.0  # exp(-10000) underflows to zero
    assert np.isfinite(log_normalize(v)[0])


def test_logsumexp_all_minus_inf():
    assert logsumexp(np.array([-np.inf, -np.inf])) == -np.inf


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
