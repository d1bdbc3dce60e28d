import math
import tracemalloc

import numpy as np
import pytest
from hypothesis import assume, given, settings, strategies as st
from numpy.testing import assert_allclose

from localglmnet import (
    ModelSpec,
    batch_input_jacobian,
    coverage_and_verdict,
    init_params,
    interaction_profiles,
    interval,
    rng_stream,
    selection_report,
    selection_stats,
    smooth_curve,
    variable_importance,
)
from localglmnet import interpret
from localglmnet import linalg
from localglmnet.model import Params
from test_model import random_tower


def bisect_quantile(p, lo=-12.0, hi=12.0):
    """Independent inverse-CDF oracle: bisection on the erf-based CDF."""
    for _ in range(200):
        mid = 0.5 * (lo + hi)
        if normal_cdf(mid) < p:
            lo = mid
        else:
            hi = mid
    return 0.5 * (lo + hi)


def normal_cdf(x):
    return 0.5 * math.erfc(-x / math.sqrt(2.0))


class TestSelectionStats:
    def test_constant_column(self):
        mean, sd = selection_stats(np.full(10, 3.0))
        assert mean == 3.0 and sd == 0.0

    def test_hand_arithmetic(self):
        mean, sd = selection_stats(np.array([0.0, 2.0]))
        assert mean == 1.0
        assert sd == pytest.approx(np.sqrt(2.0))

    def test_rejects_single_value(self):
        with pytest.raises(ValueError):
            selection_stats(np.array([1.0]))


class TestInterval:
    def test_paper_scale_half_width(self):
        lo, hi = interval(0.001, 0.0461)
        assert hi == pytest.approx(0.15169, abs=2e-4)
        assert lo == -hi

    def test_half_width_multiplier(self):
        lo, hi = interval(0.001, 1.0)
        assert hi == pytest.approx(3.2905, abs=1e-3)

    def test_zero_sd(self):
        assert interval(0.01, 0.0) == (0.0, 0.0)

    def test_symmetry_exact(self):
        lo, hi = interval(0.05, 0.7)
        assert lo == -hi

    @pytest.mark.parametrize("alpha", [0.0, 0.5, 1.0, -0.1])
    def test_alpha_domain(self, alpha):
        with pytest.raises(ValueError):
            interval(alpha, 1.0)

    def test_negative_sd_rejected(self):
        with pytest.raises(ValueError):
            interval(0.01, -1.0)

    def test_upper_value_against_bisection(self):
        _, hi = interval(0.05, 1.0)
        assert hi == pytest.approx(bisect_quantile(0.975), abs=1e-9)
        assert hi == pytest.approx(1.959964, abs=1e-6)

    def test_default_level_same_bytes_as_ndtri(self):
        from scipy.special import ndtri

        lo, hi = interval(0.001, 0.0461)
        assert lo == float(ndtri(0.0005)) * 0.0461 and hi == -lo

    def test_within_8_ulp_of_ndtri(self):
        # Each quantile is within 8e-16 relative of the truth (below), so they
        # can differ by a few ulp; 6 was the largest over 300k levels.
        from scipy.special import ndtri

        alphas = np.r_[np.linspace(1e-6, 0.5, 2001)[:-1], np.geomspace(1e-6, 0.5, 2001)[:-1]]
        lo = np.array([interval(a, 1.0)[0] for a in alphas])
        ref = ndtri(alphas / 2.0)
        assert np.all(np.abs(lo - ref) <= 8 * np.spacing(np.abs(ref)))

    def test_relative_error_against_mpmath(self):
        mpmath = pytest.importorskip("mpmath")
        with mpmath.workdps(40):
            for a in np.linspace(1e-6, 0.5, 500, endpoint=False):
                exact = -mpmath.sqrt(2) * mpmath.erfinv(1 - mpmath.mpf(a))
                lo, _ = interval(a, 1.0)
                assert abs((lo - exact) / exact) < 8e-16

    @settings(max_examples=200, deadline=None)
    @given(st.floats(min_value=2e-8, max_value=0.5, exclude_max=True))
    def test_inverse_property(self, alpha):
        lo, hi = interval(alpha, 1.0)
        assert abs(normal_cdf(lo) - alpha / 2.0) < 1e-9
        assert abs(normal_cdf(hi) - (1.0 - alpha / 2.0)) < 1e-9


class TestCoverageAndVerdict:
    def test_all_inside_droppable(self):
        cov, verdict = coverage_and_verdict(np.zeros(100), (-0.1, 0.1), 0.001)
        assert cov == 1.0 and verdict == "droppable"

    def test_half_outside_keep(self):
        col = np.r_[np.zeros(50), np.full(50, 5.0)]
        cov, verdict = coverage_and_verdict(col, (-0.1, 0.1), 0.001)
        assert cov == 0.5 and verdict == "keep"

    def test_threshold_is_twice_alpha(self):
        col = np.r_[np.zeros(998), np.full(2, 9.0)]
        cov, verdict = coverage_and_verdict(col, (-1.0, 1.0), 0.001)
        assert verdict == "droppable"  # outside fraction exactly 2 alpha
        col = np.r_[np.zeros(997), np.full(3, 9.0)]
        _, verdict = coverage_and_verdict(col, (-1.0, 1.0), 0.001)
        assert verdict == "keep"

    @settings(max_examples=50, deadline=None)
    @given(st.integers(min_value=0, max_value=2**31))
    def test_permutation_invariant_and_monotone_in_width(self, seed):
        rng = np.random.default_rng(seed)
        col = rng.standard_normal(200)
        cov1, _ = coverage_and_verdict(col, (-0.5, 0.5), 0.01)
        cov2, _ = coverage_and_verdict(rng.permutation(col), (-0.5, 0.5), 0.01)
        assert cov1 == cov2
        cov_wide, _ = coverage_and_verdict(col, (-1.0, 1.0), 0.01)
        assert cov_wide >= cov1


class TestSelectionReport:
    def test_report_structure(self):
        rng = rng_stream(0, "rep")
        beta = np.column_stack([np.full(500, 0.5) + 0.01 * rng.standard_normal(500),
                                0.05 * rng.standard_normal(500)])
        rep = selection_report(beta, ["signal", "noise"], control="noise", alpha=0.001)
        assert rep.verdict_of("signal") == "keep"
        assert rep.verdict_of("noise") == "droppable"
        assert rep.lo == -rep.hi
        assert 0.0 <= rep.rows[0].coverage <= 1.0

    def test_unknown_control(self):
        with pytest.raises(ValueError, match="control"):
            selection_report(np.zeros((10, 2)), ["a", "b"], control="c")

    def test_csv_written(self, tmp_path):
        beta = np.column_stack([np.ones(20), np.zeros(20)])
        rep = selection_report(beta, ["a", "b"], control="b", alpha=0.01)
        path = tmp_path / "sel.csv"
        rep.write_csv(path)
        lines = path.read_text().strip().splitlines()
        assert lines[0].startswith("feature,mean,sd,coverage,verdict")
        assert len(lines) == 3


class TestVariableImportance:
    def test_zero_attentions(self):
        rep = variable_importance(np.zeros((10, 3)))
        assert np.all(rep.vi == 0.0)

    def test_constant_negative_column(self):
        rep = variable_importance(np.full((10, 1), -0.5))
        assert rep.vi[0] == 0.5

    def test_ordering(self):
        beta = np.column_stack([np.full(10, 0.1), np.full(10, 0.9), np.full(10, 0.5)])
        rep = variable_importance(beta, ["a", "b", "c"])
        assert [rep.features[j] for j in rep.order] == ["b", "c", "a"]

    @settings(max_examples=30, deadline=None)
    @given(st.integers(min_value=0, max_value=2**31))
    def test_sign_flip_invariant(self, seed):
        rng = np.random.default_rng(seed)
        beta = rng.standard_normal((50, 4))
        flip = rng.choice([-1.0, 1.0], size=4)
        assert_allclose(variable_importance(beta).vi,
                        variable_importance(beta * flip).vi, rtol=1e-12)

    def test_flags_non_standardized(self):
        rep = variable_importance(np.ones((5, 2)), ["a", "b=x"],
                                  standardized=[True, False])
        assert rep.flagged == ["b=x"]


class TestSmoothCurve:
    def test_reproduces_constant(self):
        rng = rng_stream(1, "sc")
        x = rng.uniform(-2, 2, 400)
        grid, vals = smooth_curve(x, np.full(400, 3.25))
        assert np.abs(vals - 3.25).max() < 1e-8

    def test_reproduces_line(self):
        rng = rng_stream(2, "sc")
        x = rng.uniform(-3, 1, 800)
        grid, vals = smooth_curve(x, 0.4 - 1.3 * x)
        assert np.abs(vals - (0.4 - 1.3 * grid)).max() < 1e-6

    @pytest.mark.parametrize("n_knots", [4, 8, 20, 35])
    def test_linear_reproduction_any_knot_count(self, n_knots, monkeypatch):
        monkeypatch.setattr(interpret, "N_KNOTS", n_knots)
        rng = rng_stream(3, "sc")
        x = rng.standard_normal(600)
        grid, vals = smooth_curve(x, 2.0 + 0.5 * x)
        assert np.abs(vals - (2.0 + 0.5 * grid)).max() < 1e-6

    def test_recovers_sine_from_noise(self):
        # Monte Carlo oracle: the smoother tracks a known signal under noise.
        rng = rng_stream(4, "sc")
        x = rng.uniform(-3, 3, 5000)
        y = np.sin(2 * x) + 0.1 * rng.standard_normal(5000)
        grid, vals = smooth_curve(x, y)
        central = (grid >= np.quantile(x, 0.05)) & (grid <= np.quantile(x, 0.95))
        assert np.abs(vals - np.sin(2 * grid))[central].max() < 0.05

    def test_rejects_short_input(self):
        with pytest.raises(ValueError, match="at least 10"):
            smooth_curve(np.arange(5.0), np.arange(5.0))

    def test_rejects_constant_x(self):
        with pytest.raises(ValueError, match="constant"):
            smooth_curve(np.ones(20), np.arange(20.0))

    @pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
    def test_rejects_non_finite_x(self, bad):
        x = np.arange(20.0)
        x[7] = bad
        with pytest.raises(ValueError):
            smooth_curve(x, np.arange(20.0))

    def test_non_finite_x_names_the_column(self):
        x = np.arange(20.0)
        x[3] = np.nan
        with pytest.raises(ValueError, match="column 'x3' has a non-finite value"):
            interpret._place_knots(x, "column 'x3'")

    @pytest.mark.parametrize("bad", [np.nan, np.inf])
    def test_rejects_non_finite_y(self, bad):
        Y = np.zeros((20, 2))
        Y[11, 1] = bad
        with pytest.raises(ValueError, match="y has a non-finite value"):
            smooth_curve(np.arange(20.0), Y)

    @settings(max_examples=50, deadline=None)
    @given(st.integers(min_value=0, max_value=2**31), st.integers(min_value=10, max_value=300),
           st.integers(min_value=1, max_value=6), st.integers(min_value=4, max_value=25))
    def test_columns_match_one_at_a_time(self, seed, n, m, n_knots):
        rng = rng_stream(seed, "sc-multi")
        x = rng.uniform(-3.0, 3.0, n)
        Y = rng.standard_normal((n, m)) + np.sin(x)[:, None]
        with pytest.MonkeyPatch.context() as mp:
            mp.setattr(interpret, "N_KNOTS", n_knots)
            grid, values = smooth_curve(x, Y)
            columns = [smooth_curve(x, Y[:, k]) for k in range(m)]
        assert values.shape == (grid.size, m)
        for k, (grid_k, values_k) in enumerate(columns):
            assert np.array_equal(grid, grid_k)
            assert_allclose(values[:, k], values_k, rtol=0.0, atol=1e-12)

    @staticmethod
    def loop_reference(x, y):
        """The smoother with its penalty matrix filled entry by entry."""
        from scipy.interpolate import BSpline

        knots = interpret._place_knots(x)
        g = interpret._greville(knots, interpret.DEGREE)
        dg = np.diff(g)
        sbar = dg.mean()
        D = np.zeros((g.size - 2, g.size))
        for j in range(g.size - 2):
            a, b = sbar / dg[j], sbar / dg[j + 1]
            D[j, j:j + 3] = a, -(a + b), b
        B = BSpline.design_matrix(x, knots, interpret.DEGREE).toarray()
        coef = np.linalg.solve(B.T @ B + interpret.SMOOTHING * (D.T @ D), B.T @ y)
        grid = np.linspace(knots[0], knots[-1], interpret.GRID_SIZE)
        return grid, BSpline.design_matrix(grid, knots, interpret.DEGREE).toarray() @ coef

    @settings(max_examples=30, deadline=None)
    @given(st.integers(min_value=0, max_value=2**31), st.integers(min_value=10, max_value=300),
           st.integers(min_value=4, max_value=25))
    def test_same_bytes_as_the_entry_loop_penalty(self, seed, n, n_knots):
        rng = rng_stream(seed, "sc-loop")
        x = rng.standard_normal(n) ** 3  # uneven Greville spacing
        Y = rng.standard_normal((n, 3)) + np.cos(x)[:, None]
        with pytest.MonkeyPatch.context() as mp:
            mp.setattr(interpret, "N_KNOTS", n_knots)
            grid, values = smooth_curve(x, Y)
            ref_grid, ref_values = self.loop_reference(x, Y)
        assert np.array_equal(grid, ref_grid)
        assert np.array_equal(values, ref_values)

    def test_rejects_mismatched_rows(self):
        with pytest.raises(ValueError, match="one row per x"):
            smooth_curve(np.arange(20.0), np.zeros((19, 2)))

    def test_grid_strictly_increasing(self):
        rng = rng_stream(5, "sc")
        x = rng.standard_normal(100)
        grid, vals = smooth_curve(x, x**2)
        assert np.all(np.diff(grid) > 0)
        assert np.all(np.isfinite(vals))


class TestDesign:
    """The numpy basis against scipy's, the reference evaluator."""

    @settings(max_examples=150, deadline=None)
    @given(st.integers(min_value=0, max_value=2**31), st.integers(min_value=10, max_value=400),
           st.sampled_from(["normal", "uniform", "exponential", "discrete", "ties"]))
    def test_same_bytes_as_scipy(self, seed, n, kind):
        from scipy.interpolate import BSpline

        rng = rng_stream(seed, "design")
        x = {"normal": lambda: rng.standard_normal(n),
             "uniform": lambda: rng.uniform(-2.0, 3.0, n),
             "exponential": lambda: rng.exponential(1.0, n),
             "discrete": lambda: rng.integers(0, 5, n).astype(float),
             "ties": lambda: np.round(rng.standard_normal(n), 1)}[kind]()
        assume(x.min() < x.max())
        knots = interpret._place_knots(x)
        grid = np.linspace(knots[0], knots[-1], interpret.GRID_SIZE)
        for at in (x, knots, grid):  # knots: every interior knot and both ends
            B = interpret._design(at, knots)
            ref = BSpline.design_matrix(at, knots, interpret.DEGREE).toarray()
            assert B.tobytes() == ref.tobytes()
            assert np.abs(B.sum(axis=1) - 1.0).max() <= 1e-15


class TestInteractionProfiles:
    def test_zero_tower_flat_profiles(self):
        spec = ModelSpec(q=3, hidden_dims=(5,))
        params = Params(spec.layer_dims)
        params.beta0 = 1.0
        X = rng_stream(6, "ip").standard_normal((200, 3))
        profiles = interaction_profiles(params, spec, X, ["x2", "x3", "x1"])
        assert [prof.focal for prof in profiles] == ["x2", "x3", "x1"]
        for prof in profiles:
            assert prof.curves.shape == (3, 200)
            assert np.abs(prof.curves).max() < 1e-12

    def test_known_linear_interaction(self):
        # beta(x) = W^T x with a single off-diagonal entry gives a constant
        # sensitivity curve at exactly that entry's value.
        spec = ModelSpec(q=2)
        params = Params(spec.layer_dims)
        params.weights[0][1, 0] = 0.7  # beta_1(x) = 0.7 * x_2
        X = rng_stream(7, "ip").standard_normal((300, 2))
        x1, x2 = interaction_profiles(params, spec, X, ["x1", "x2"])
        assert np.abs(x1.curves[1] - 0.7).max() < 1e-8
        assert np.abs(x1.curves[0]).max() < 1e-8
        assert np.abs(x2.curves).max() < 1e-8

    def test_csv_written(self, tmp_path):
        spec = ModelSpec(q=2, hidden_dims=(4,))
        params = init_params(spec, rng_stream(8, "ip"))
        X = rng_stream(9, "ip").standard_normal((120, 2))
        [prof] = interaction_profiles(params, spec, X, ["x1"], feature_names=["x1", "x2"])
        path = tmp_path / "prof.csv"
        prof.write_csv(path)
        lines = path.read_text().strip().splitlines()
        assert lines[0] == "x1,d_x1_d_x1,d_x1_d_x2"
        assert len(lines) == 201

    def test_bare_string_focal_raises(self):
        spec = ModelSpec(q=2)
        X = rng_stream(10, "ip").standard_normal((50, 2))
        with pytest.raises(TypeError, match="sequence of feature names"):
            interaction_profiles(Params(spec.layer_dims), spec, X, "x1")

    def test_unknown_focal_raises(self):
        spec = ModelSpec(q=2)
        X = rng_stream(11, "ip").standard_normal((50, 2))
        with pytest.raises(ValueError, match="unknown focal feature 'x3'"):
            interaction_profiles(Params(spec.layer_dims), spec, X, ["x1", "x3"])


def whole_array_profiles(params, spec, X):
    """The unblocked reference: smooth_curve on the columns of one full
    batch_input_jacobian, for every feature in turn."""
    jac = batch_input_jacobian(params, spec, X)
    return [smooth_curve(X[:, j], jac[:, j, :]) for j in range(spec.q)]


class TestBlockedInteractions:
    """interaction_profiles adds the Jacobian to every focal smoother block by
    block; the curves must agree with one whole-array Jacobian and smoother."""

    @staticmethod
    def setting(n, depth):
        rng = rng_stream(n * 10 + depth, "blocked-profiles")
        spec, params = random_tower(rng, depth)
        X = rng.standard_normal((n, spec.q))
        names = [f"x{j + 1}" for j in range(spec.q)]
        return spec, params, X, names

    @pytest.mark.parametrize("depth", [1, 2, 3, 4])
    @pytest.mark.parametrize("n", [10, 14, 15, 22, 50])
    def test_seven_row_blocks_match_whole_array(self, n, depth, monkeypatch):
        spec, params, X, names = self.setting(n, depth)
        want = whole_array_profiles(params, spec, X)
        monkeypatch.setattr(linalg, "EVAL_BLOCK_ROWS", 7)
        got = interaction_profiles(params, spec, X, names)
        for prof, (grid, values) in zip(got, want):
            assert prof.grid.tobytes() == grid.tobytes()
            assert_allclose(prof.curves, values.T, rtol=1e-12, atol=1e-13)

    @pytest.mark.parametrize("depth", [1, 2, 3, 4])
    @pytest.mark.parametrize("n", [10, 14, 15, 22, 50])
    def test_one_block_gives_the_reference_bytes(self, n, depth, monkeypatch):
        spec, params, X, names = self.setting(n, depth)
        want = whole_array_profiles(params, spec, X)
        monkeypatch.setattr(linalg, "EVAL_BLOCK_ROWS", n)
        got = interaction_profiles(params, spec, X, names)
        for prof, (grid, values) in zip(got, want):
            assert prof.grid.tobytes() == grid.tobytes()
            assert prof.curves.tobytes() == values.T.tobytes()

    @pytest.mark.parametrize("n", [10, 14, 15, 22, 50])
    def test_jacobian_sees_every_row_once(self, n, monkeypatch):
        spec, params, X, names = self.setting(n, 3)
        blocks = []

        def recorded(params, spec, X):
            blocks.append(X.copy())
            return batch_input_jacobian(params, spec, X)

        monkeypatch.setattr(linalg, "EVAL_BLOCK_ROWS", 7)
        monkeypatch.setattr(interpret, "batch_input_jacobian", recorded)
        interaction_profiles(params, spec, X, names)
        assert sum(len(b) for b in blocks) == n
        assert max(len(b) for b in blocks) <= 8
        assert np.concatenate(blocks).tobytes() == X.tobytes()


class TestInteractionMemory:
    """Peak traced allocation of interaction_profiles on 100k rows of the
    paper's 8-20-15-10-8 tower with all 8 focal features, over the bytes of X.
    A whole-array Jacobian and n-row spline designs reach 11.8; row blocks
    bound both by the block."""

    def test_peak_is_bounded_by_the_block(self):
        rng = rng_stream(22, "profile-memory")
        spec = ModelSpec(q=8, hidden_dims=(20, 15, 10))
        params = init_params(spec, rng)
        X = rng.standard_normal((100_000, 8))
        focal = [f"x{j + 1}" for j in range(8)]
        interaction_profiles(params, spec, X[:100], focal)  # imports outside the trace
        tracemalloc.start()
        try:
            interaction_profiles(params, spec, X, focal)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak / X.nbytes < 4
