import math
import tracemalloc
import warnings

import numpy as np
import pytest
from hypothesis import example, given, settings, strategies as st
from numpy.testing import assert_allclose

from localglmnet import (
    fit_glm,
    fit_null,
    get_family,
    mse_loss,
    poisson_deviance,
    rng_stream,
)
from localglmnet import linalg
from localglmnet.errors import NumericError
from localglmnet.families import GLM_MAX_ITER, GLM_TOL


class TestMseLoss:
    def test_perfect_fit(self):
        y = np.array([1.0, -2.0, 3.0])
        assert mse_loss(y, y) == 0.0

    def test_hand_arithmetic(self):
        assert mse_loss(np.array([0.0, 2.0]), np.array([0.0, 0.0])) == 2.0

    def test_length_mismatch(self):
        with pytest.raises(ValueError, match="mismatch"):
            mse_loss(np.ones(3), np.ones(2))


class TestPoissonDeviance:
    def test_saturated(self):
        y = np.array([1.0, 2.0, 5.0])
        assert poisson_deviance(y, y) == pytest.approx(0.0, abs=1e-15)

    def test_zero_count_branch(self):
        # y = 0 contributes 2*mu.
        assert poisson_deviance(np.array([0.0]), np.array([1.0])) == pytest.approx(2.0)

    def test_unit_deviance_value(self):
        expected = 2.0 * (2.0 * math.log(2.0) - 1.0)
        assert poisson_deviance(np.array([2.0]), np.array([1.0])) == pytest.approx(expected)

    def test_requires_positive_mu(self):
        with pytest.raises(ValueError, match="mu > 0"):
            poisson_deviance(np.array([1.0]), np.array([0.0]))

    def test_requires_nonnegative_y(self):
        with pytest.raises(ValueError, match="y >= 0"):
            poisson_deviance(np.array([-1.0, 2.0]), np.array([1.0, 1.0]))

    def test_permutation_invariant(self):
        rng = rng_stream(0, "perm")
        y = rng.poisson(2.0, 40).astype(float)
        mu = rng.uniform(0.5, 3.0, 40)
        perm = rng.permutation(40)
        assert poisson_deviance(y, mu) == pytest.approx(
            poisson_deviance(y[perm], mu[perm]), rel=1e-12)

    def test_nonnegative(self):
        rng = rng_stream(1, "pd")
        y = rng.poisson(1.0, 100).astype(float)
        mu = rng.uniform(0.1, 4.0, 100)
        assert poisson_deviance(y, mu) >= 0.0


def reference_mse(y, mu):
    """mse_loss's own arithmetic before the family kernel became its only copy."""
    return float(np.mean((y - mu) ** 2))


def reference_poisson(y, mu):
    """poisson_deviance's own checks and arithmetic before the family kernel
    became their only copy."""
    if np.any(mu <= 0.0):
        raise ValueError("Poisson deviance requires mu > 0")
    if np.any(y < 0.0):
        raise ValueError("Poisson deviance requires y >= 0")
    terms = mu - y
    pos = y > 0
    terms[pos] -= y[pos] * np.log(mu[pos] / y[pos])
    return float(2.0 * np.mean(terms))


def outcome(fn, *args):
    """The bytes of ``fn(*args)``, or the type and message of what it raises."""
    try:
        return np.float64(fn(*args)).tobytes()
    except ValueError as exc:
        return type(exc), str(exc)


class TestLossesKeepTheirBytes:
    """mse_loss and poisson_deviance go through the in-place family kernels,
    which training uses too, with the bytes and errors of their old formulas."""

    @settings(max_examples=300, deadline=None)
    @given(shape=st.one_of(st.tuples(st.integers(1, 300)),
                           st.tuples(st.integers(1, 20), st.integers(1, 20))),
           seed=st.integers(0, 2 ** 32 - 1),
           zeros=st.floats(0.0, 0.5), bad_mu=st.booleans(), bad_y=st.booleans(),
           nan=st.booleans(), scale=st.sampled_from([1e-300, 1e-3, 1.0, 1e3, 1e150]))
    @example(shape=(1,), seed=0, zeros=1.0, bad_mu=True, bad_y=True, nan=False, scale=1.0)
    def test_same_bytes_and_errors_as_the_old_formulas(self, shape, seed, zeros, bad_mu, bad_y,
                                                       nan, scale):
        rng = np.random.default_rng(seed)
        y = np.where(rng.uniform(size=shape) < zeros, 0.0,
                     np.round(rng.exponential(scale, shape), 2) if scale == 1.0
                     else rng.exponential(scale, shape))
        mu = rng.exponential(scale, shape) + 5e-324
        flat_y, flat_mu = y.reshape(-1), mu.reshape(-1)
        if bad_mu:
            flat_mu[rng.integers(mu.size)] = rng.choice([0.0, -0.0, -scale])
        if bad_y:
            flat_y[rng.integers(y.size)] = -scale
        if nan:
            (flat_mu if rng.integers(2) else flat_y)[rng.integers(y.size)] = np.nan
        assert outcome(mse_loss, y, mu) == outcome(reference_mse, y, mu)
        assert outcome(poisson_deviance, y, mu) == outcome(reference_poisson, y, mu)
        assert outcome(get_family("poisson").loss, y, mu) == outcome(reference_poisson, y, mu)

    @pytest.mark.parametrize("loss", [mse_loss, poisson_deviance])
    @pytest.mark.parametrize("y, mu, message", [
        (np.ones(0), np.ones(2), "length mismatch: y has shape (0,), mu has (2,)"),
        (np.ones((2, 3)), np.ones(6), "length mismatch: y has shape (2, 3), mu has (6,)"),
        (np.ones((0, 3)), np.ones((0, 3)), "need at least one observation"),
    ])
    def test_shape_checks_come_first(self, loss, y, mu, message):
        with pytest.raises(ValueError) as err:
            loss(-y, -mu)  # negative, so a value check would fire if it ran first
        assert str(err.value) == message


class TestFitNull:
    def test_gaussian_mean(self):
        assert fit_null(np.array([1.0, 3.0])) == 2.0

    def test_poisson_frequency(self):
        assert fit_null(np.array([1.0, 0.0]), np.array([0.5, 0.5]),
                        get_family("poisson")) == 1.0

    def test_zero_exposure_rejected(self):
        with pytest.raises(ValueError, match="exposure"):
            fit_null(np.array([1.0]), np.array([0.0]), get_family("poisson"))

    def test_empty_rejected(self):
        with pytest.raises(ValueError):
            fit_null(np.array([]))


class TestStrictConsistency:
    def test_loss_decreases_toward_truth(self):
        # Moving the fit along the segment toward the observations
        # monotonically lowers the deviance.
        rng = rng_stream(2, "cons")
        y = rng.uniform(0.5, 3.0, 50)
        start = rng.uniform(0.5, 3.0, 50)
        for family in (get_family("gaussian"), get_family("poisson")):
            losses = [family.loss(y, start + t * (y - start))
                      for t in np.linspace(0.0, 1.0, 11)]
            assert all(a >= b - 1e-12 for a, b in zip(losses, losses[1:]))


class TestFitGlm:
    def test_recovers_exact_linear_data(self):
        rng = rng_stream(3, "glm")
        X = rng.standard_normal((60, 4))
        beta = np.array([0.5, -1.0, 0.25, 2.0])
        y = 0.75 + X @ beta
        fit = fit_glm(X, y)
        assert abs(fit.beta0 - 0.75) < 1e-8
        assert np.abs(fit.beta - beta).max() < 1e-8

    def test_all_zero_responses(self):
        rng = rng_stream(4, "glm")
        X = rng.standard_normal((30, 3))
        fit = fit_glm(X, np.zeros(30))
        assert abs(fit.beta0) < 1e-12
        assert np.abs(fit.beta).max() < 1e-12

    def test_all_zero_poisson_responses_raise(self):
        # The log of a null mean of 0 is -inf: one clear error, no log warning.
        X = rng_stream(4, "glm").standard_normal((30, 3))
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(ValueError, match="every response is 0, so the null mean is 0"):
                fit_glm(X, np.zeros(30), np.ones(30), get_family("poisson"))

    @pytest.mark.parametrize("seed", range(5))
    def test_matches_least_squares_oracle(self, seed):
        rng = rng_stream(seed, "glm-oracle")
        n, q = int(rng.integers(20, 200)), int(rng.integers(1, 10))
        X = rng.standard_normal((n, q))
        y = rng.standard_normal(n)
        fit = fit_glm(X, y)
        coef, *_ = np.linalg.lstsq(np.column_stack([np.ones(n), X]), y, rcond=None)
        assert np.abs(np.r_[fit.beta0, fit.beta] - coef).max() < 1e-8

    def test_gradient_small_at_optimum_poisson(self):
        rng = rng_stream(6, "glm-pois")
        X = rng.standard_normal((400, 3))
        v = rng.uniform(0.2, 1.0, 400)
        y = rng.poisson(v * np.exp(0.2 + X @ np.array([0.4, -0.3, 0.1]))).astype(float)
        fit = fit_glm(X, y, v, get_family("poisson"))
        mu = v * np.exp(fit.beta0 + X @ fit.beta)
        assert_allclose(fit.predict(X, v), mu, rtol=1e-14)
        grad = 2.0 * np.column_stack([np.ones(400), X]).T @ (mu - y) / 400
        assert np.abs(grad).max() < 1e-8

    def test_poisson_exposure_is_offset(self):
        # Doubling all exposures halves the fitted frequency, slopes unchanged.
        rng = rng_stream(7, "glm-off")
        X = rng.standard_normal((300, 2))
        v = rng.uniform(0.5, 1.0, 300)
        y = rng.poisson(v * np.exp(0.1 + X @ np.array([0.3, -0.2]))).astype(float)
        fam = get_family("poisson")
        f1 = fit_glm(X, y, v, fam)
        f2 = fit_glm(X, y, 2.0 * v, fam)
        assert f2.beta0 == pytest.approx(f1.beta0 - math.log(2.0), abs=1e-6)
        assert_allclose(f2.beta, f1.beta, atol=1e-6)

    @pytest.mark.parametrize("bad", [-0.5, 0.0])
    def test_rejects_nonpositive_exposure_before_log(self, bad):
        rng = rng_stream(9, "glm-expo")
        X = rng.standard_normal((40, 2))
        v = rng.uniform(0.5, 1.0, 40)
        v[7] = bad
        with warnings.catch_warnings():
            warnings.simplefilter("error")  # log(v) would warn first
            with pytest.raises(ValueError, match="exposures must be positive"):
                fit_glm(X, rng.poisson(1.0, 40).astype(float), v, get_family("poisson"))

    @pytest.mark.parametrize("bad", [np.nan, 0.0, -0.5])
    def test_bad_exposure_names_its_row_index(self, bad):
        # A NaN exposure fails v > 0 like 0 and -0.5 do, so the GLM rejects it
        # with train.fit's message rather than fitting to a nan deviance; the
        # null fit follows the same rule.
        rng = rng_stream(9, "glm-expo")
        X = rng.standard_normal((40, 2))
        y, v = rng.poisson(1.0, 40).astype(float), rng.uniform(0.5, 1.0, 40)
        v[[7, 30]] = bad
        want = f"exposures must be positive; row index 7 has exposure {bad!r}"
        for fit_one in (lambda: fit_glm(X, y, v, get_family("poisson")),
                        lambda: fit_null(y, v, get_family("poisson"))):
            with pytest.raises(ValueError) as err:
                fit_one()
            assert str(err.value) == want

    def test_rank_deficiency_names_columns(self):
        rng = rng_stream(8, "glm-rank")
        X = rng.standard_normal((50, 2))
        X = np.column_stack([X, X[:, 0] + X[:, 1]])  # exact collinearity
        with pytest.raises(NumericError, match="collinear") as err:
            fit_glm(X, rng.standard_normal(50), column_names=["a", "b", "a_plus_b"])
        assert any(name in str(err.value) for name in ("a", "b", "a_plus_b"))


def scipy_rank(X):
    """Rank of the design [1, X] from scipy's pivoted QR, with fit_glm's tolerance."""
    import scipy.linalg

    design = np.column_stack([np.ones(len(X)), X])
    _, R, _ = scipy.linalg.qr(design, mode="economic", pivoting=True)
    diag = np.abs(np.diag(R))
    return int(np.sum(diag > diag.max() * max(design.shape) * np.finfo(float).eps))


def whole_design_irls(X, y, v, family):
    """IRLS with step-halving that solves each step by lstsq on the whole
    weighted design: the reference for the blocked R-factor solve."""
    n = len(y)
    design = np.column_stack([np.ones(n), X])
    offset = np.log(v) if family.uses_exposure else np.zeros(n)
    coef = np.zeros(design.shape[1])
    coef[0] = family.g(fit_null(y, v, family))
    dev = family.loss(y, family.inv(design @ coef + offset))
    with np.errstate(over="ignore", invalid="ignore"):
        for _ in range(GLM_MAX_ITER):
            eta = design @ coef + offset
            mu = family.inv(eta)
            w = family.variance(mu)
            z = (eta - offset) + (y - mu) / np.maximum(w, 1e-300)
            sw = np.sqrt(w)
            new_coef, *_ = np.linalg.lstsq(design * sw[:, None], z * sw, rcond=None)
            step = new_coef - coef
            for _ in range(30):
                new_dev = family.loss(y, family.inv(design @ (coef + step) + offset))
                if np.isfinite(new_dev) and new_dev <= dev + 1e-14 * max(1.0, abs(dev)):
                    break
                step = step / 2.0
            coef = coef + step
            prev, dev = dev, float(new_dev if np.isfinite(new_dev) else dev)
            if abs(prev - dev) <= GLM_TOL * max(1.0, abs(prev)):
                break
    return coef


class TestBlockedGlm:
    """fit_glm works on the R factor of the design built over row blocks; with
    7-row blocks it must agree with scipy's rank verdict and with IRLS on the
    whole design."""

    @pytest.fixture(autouse=True)
    def seven_row_blocks(self, monkeypatch):
        monkeypatch.setattr(linalg, "EVAL_BLOCK_ROWS", 7)

    @settings(max_examples=60, deadline=None)
    @given(st.integers(min_value=0, max_value=2**31), st.integers(min_value=6, max_value=40),
           st.integers(min_value=1, max_value=4), st.sampled_from(["gaussian", "poisson"]))
    # n % 7 == 1: the lone last row joins the block before it.
    @example(seed=1, n=8, p=3, family="gaussian")
    @example(seed=2, n=15, p=4, family="poisson")
    @example(seed=3, n=36, p=2, family="poisson")
    def test_matches_whole_design_irls(self, seed, n, p, family):
        rng = rng_stream(seed, "glm-blocked")
        fam = get_family(family)
        X = rng.standard_normal((n, p))
        v = rng.uniform(0.2, 1.0, n) if fam.uses_exposure else np.ones(n)
        eta = 0.2 + X @ rng.uniform(-0.5, 0.5, p)
        # Positive Poisson responses, so the maximum-likelihood fit exists.
        y = rng.exponential(v * np.exp(eta)) if fam.uses_exposure else eta + rng.standard_normal(n)
        assert scipy_rank(X) == p + 1
        fit = fit_glm(X, y, v, fam)
        want = whole_design_irls(X, y, v, fam)
        assert np.abs(np.r_[fit.beta0, fit.beta] - want).max() < 1e-8

    @pytest.mark.parametrize("kind, names, dependent", [
        ("sum", ["a", "b", "c", "a_plus_b"], {"a", "b", "a_plus_b"}),
        ("duplicate", ["a", "b", "a_copy"], {"a", "a_copy"}),
        ("constant", ["a", "const", "b"], {"intercept", "const"}),
        ("one-hot", ["a", "g_1", "g_2", "g_3"], {"intercept", "g_1", "g_2", "g_3"}),
    ])
    def test_rank_deficient_designs(self, kind, names, dependent):
        rng = rng_stream(11, f"glm-rank-{kind}")
        n = 30
        a, b, c = rng.standard_normal((3, n))
        X = {"sum": np.column_stack([a, b, c, a + b]),
             "duplicate": np.column_stack([a, b, a]),
             "constant": np.column_stack([a, np.full(n, 3.0), b]),
             "one-hot": np.column_stack([a, np.eye(3)[np.arange(n) % 3]])}[kind]
        rank = scipy_rank(X)
        assert rank == X.shape[1]  # one dependency among the p + 1 design columns
        with pytest.raises(NumericError, match="rank deficient") as err:
            fit_glm(X, rng.standard_normal(n), column_names=names)
        named = str(err.value).split("collinear columns: ")[1].split(", ")
        assert len(named) == X.shape[1] + 1 - rank
        assert set(named) <= dependent


class TestGlmMemory:
    """Peak traced allocation of fit_glm on 100k x 8 rows over the bytes of X.
    Copies of the design [1, X] for the rank check and of the weighted design
    for each IRLS step reach 3.4; row blocks bound both by the block."""

    @pytest.mark.parametrize("family", ["gaussian", "poisson"])
    def test_peak_stays_near_the_input(self, family):
        rng = rng_stream(25, "glm-memory")
        fam = get_family(family)
        X = rng.standard_normal((100_000, 8))
        v = rng.uniform(0.2, 1.0, 100_000)
        eta = 0.1 + X @ rng.uniform(-0.3, 0.3, 8)
        y = rng.poisson(v * np.exp(eta)).astype(float) if fam.uses_exposure else eta
        fit_glm(X[:100], y[:100], v[:100], fam)  # imports outside the trace
        tracemalloc.start()
        try:
            fit_glm(X, y, v, fam)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak / X.nbytes < 1.5
