import math

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st
from numpy.testing import assert_allclose

from localglmnet import interval, rng_stream, synth_generate


def bisect_quantile(p, lo=-12.0, hi=12.0):
    """Independent inverse-CDF oracle: bisection on the erf-based CDF."""
    def cdf(x):
        return 0.5 * math.erfc(-x / math.sqrt(2.0))
    for _ in range(200):
        mid = 0.5 * (lo + hi)
        if cdf(mid) < p:
            lo = mid
        else:
            hi = mid
    return 0.5 * (lo + hi)


def quantile(p):
    """Standard normal quantile at p, read off a bound of interval(2 min(p, 1 - p), 1)."""
    lo, hi = interval(2.0 * min(p, 1.0 - p), 1.0)
    return lo if p < 0.5 else hi


def draws(sigma, n, seed=0, mean=None):
    """Draws of numpy's Cholesky-method sampler, the one synth_generate uses,
    and the standard normals Z behind them."""
    d = len(sigma)
    mean = np.zeros(d) if mean is None else mean
    X = rng_stream(seed, "mvn").multivariate_normal(mean, np.asarray(sigma, dtype=float),
                                                    size=n, method="cholesky")
    return X - mean, rng_stream(seed, "mvn").standard_normal((n, d))


class TestCholesky:
    """The factor L that the sampler draws with: X = mean + Z @ L.T."""

    def test_identity(self):
        X, Z = draws(np.eye(8), 20)
        assert_allclose(X, Z)

    def test_two_by_two_closed_form(self):
        X, Z = draws([[1.0, 0.5], [0.5, 1.0]], 20)
        L = np.array([[1.0, 0.0], [0.5, math.sqrt(1.0 - 0.25)]])
        assert_allclose(X, Z @ L.T, atol=1e-15)

    def test_scalar(self):
        X, Z = draws([[4.0]], 20)
        assert_allclose(X, 2.0 * Z)

    @settings(max_examples=25, deadline=None)
    @given(st.integers(min_value=1, max_value=50), st.integers(min_value=0, max_value=2**31))
    def test_round_trip_random_spd(self, n, seed):
        rng = np.random.default_rng(seed)
        A = rng.standard_normal((n, n))
        sigma = A @ A.T + n * np.eye(n)
        X, Z = draws(sigma, 4 * n, seed, mean=rng.standard_normal(n))
        L = np.linalg.lstsq(Z, X, rcond=None)[0].T  # recover the factor from the draws
        assert np.abs(np.triu(L, 1)).max(initial=0.0) < 1e-10 * np.abs(L).max()
        assert np.abs(L @ L.T - sigma).max() < 1e-10 * np.abs(sigma).max()


class TestQuantile:
    """The normal quantile behind interval (statistics.NormalDist.inv_cdf)."""

    def test_tail_value(self):
        # Half-width multiplier used by the 0.1% selection test.
        assert quantile(0.0005) == pytest.approx(-3.2905, abs=1e-3)

    @pytest.mark.parametrize(
        "p", [1e-8, 1e-5, 0.02425, 0.15, 0.245, 0.97575, 1 - 1e-5, 1 - 1e-8])
    def test_accuracy_grid(self, p):
        assert abs(quantile(p) - bisect_quantile(p)) < 1e-6

    @pytest.mark.parametrize("p", [0.0, 1.0, -0.1, 1.5])
    def test_domain(self, p):
        with pytest.raises(ValueError):
            quantile(p)

    def test_symmetry(self):
        assert quantile(0.2) == pytest.approx(-quantile(0.8), abs=1e-12)


class TestRngStream:
    def test_same_seed_bitwise_equal(self):
        a = rng_stream(123, "draw").bit_generator.random_raw(64)
        b = rng_stream(123, "draw").bit_generator.random_raw(64)
        assert np.array_equal(a, b)

    def test_labels_give_distinct_streams(self):
        a = rng_stream(123, "split").bit_generator.random_raw(8)
        b = rng_stream(123, "shuffle").bit_generator.random_raw(8)
        assert not np.array_equal(a, b)

    def test_seeds_give_distinct_streams(self):
        a = rng_stream(1, "x").bit_generator.random_raw(8)
        b = rng_stream(2, "x").bit_generator.random_raw(8)
        assert not np.array_equal(a, b)


class TestSampleMvn:
    """The multivariate normal features of synth_generate."""

    def test_independent_components(self):
        X, _ = draws(np.eye(2), 100_000, seed=5)
        assert abs(np.corrcoef(X.T)[0, 1]) < 0.02

    def test_target_correlation_structure(self):
        learn, _ = synth_generate(100_000, 1, rng_stream(5, "gen"))
        corr = np.corrcoef(learn.X.T)
        assert 0.48 <= corr[1, 7] <= 0.52
        assert np.abs(learn.X.mean(axis=0)).max() < 0.02
        # Bit for bit mean + Z @ L.T, with Z the first normals of the stream.
        sigma = np.eye(8)
        sigma[1, 7] = sigma[7, 1] = 0.5
        Z = rng_stream(5, "gen").standard_normal((100_000, 8))
        assert learn.X.tobytes() == (np.zeros(8) + Z @ np.linalg.cholesky(sigma).T).tobytes()

    def test_deterministic_under_seed(self):
        sigma = np.array([[2.0, 0.3], [0.3, 1.0]])
        X1, _ = draws(sigma, 50, seed=9)
        X2, _ = draws(sigma, 50, seed=9)
        assert np.array_equal(X1, X2)

    def test_rejects_empty(self):
        with pytest.raises(ValueError, match="n_learn >= 1"):
            synth_generate(0, 5, rng_stream(0, "gen"))
