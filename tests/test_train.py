import tracemalloc
import warnings

import numpy as np
import pytest
from numpy.testing import assert_allclose

from localglmnet import (
    Dataset,
    ModelSpec,
    TrainConfig,
    evaluate_loss,
    fit,
    fit_null,
    get_family,
    init_params,
    loss_and_param_grads,
    nadam_step,
    read_config,
    rng_stream,
    split_indices,
)
from localglmnet.errors import ConfigError, NumericError
from localglmnet.model import Params


def make_dataset(n, q, seed=0, noise=0.1):
    rng = rng_stream(seed, "data")
    X = rng.standard_normal((n, q))
    beta = rng.standard_normal(q)
    y = 0.5 + X @ beta + noise * rng.standard_normal(n)
    return Dataset(X=X, y=y, v=np.ones(n), feature_names=[f"x{j}" for j in range(q)],
                   feature_kinds=["continuous"] * q, groups={})


def scalar_params(value=0.0):
    params = Params((1, 1))
    params.weights[0][0, 0] = value
    return params


def zero_moments(params):
    return np.zeros_like(params.flat), np.zeros_like(params.flat)


class TestSplit:
    def test_exact_sizes(self):
        tr, va = split_indices(10, 0.2, rng_stream(0, "split"))
        assert len(va) == 2 and len(tr) == 8

    def test_large_protocol_sizes(self):
        tr, va = split_indices(100_000, 0.2, rng_stream(0, "split"))
        assert len(va) == 20_000 and len(tr) == 80_000

    def test_disjoint_exhaustive(self):
        tr, va = split_indices(101, 0.3, rng_stream(1, "split"))
        both = np.sort(np.r_[tr, va])
        assert np.array_equal(both, np.arange(101))

    def test_deterministic(self):
        a = split_indices(50, 0.2, rng_stream(2, "split"))
        b = split_indices(50, 0.2, rng_stream(2, "split"))
        assert np.array_equal(a[0], b[0]) and np.array_equal(a[1], b[1])

    def test_dataset_split(self):
        ds = make_dataset(20, 3)
        tr, va = (ds.subset(idx) for idx in split_indices(ds.n, 0.25, rng_stream(3, "split")))
        assert tr.n == 15 and va.n == 5
        assert set(map(tuple, np.vstack([tr.X, va.X]))) == set(map(tuple, ds.X))

    def test_rejects_degenerate(self):
        with pytest.raises(ValueError):
            split_indices(1, 0.2, rng_stream(0, "split"))


class TestNadamStep:
    def config(self, **kw):
        return TrainConfig(max_epochs=1, batch_size=1, **kw)

    def test_zero_gradient_leaves_fresh_params(self):
        params = scalar_params(1.0)
        nadam_step(params, scalar_params(), *zero_moments(params), t=1, config=self.config())
        assert params.weights[0][0, 0] == 1.0

    def test_zero_gradient_decays_moments(self):
        params = scalar_params(1.0)
        m, v = zero_moments(params)
        m[:] = 0.5
        v[:] = 0.5
        nadam_step(params, scalar_params(), m, v, t=1, config=self.config())
        assert m == pytest.approx(0.45)  # decays by beta1
        assert v == pytest.approx(0.4995)  # decays by beta2

    def test_constant_gradient_step_approaches_lr(self):
        # With g == 1 held fixed, the Adam-family step magnitude tends to lr.
        cfg = self.config(learning_rate=0.002)
        params = scalar_params()
        grads = scalar_params(1.0)
        m, v = zero_moments(params)
        prev = params.weights[0][0, 0]
        step = None
        for t in range(1, 2001):
            nadam_step(params, grads, m, v, t, cfg)
            step = prev - params.weights[0][0, 0]
            prev = params.weights[0][0, 0]
        assert step == pytest.approx(cfg.learning_rate, rel=1e-3)

    def test_per_coordinate_scale_invariance(self):
        # Gradients (c, 2c) give equal-magnitude steps asymptotically.
        cfg = self.config()
        params = Params((1, 2))
        grads = Params((1, 2))
        grads.weights[0][:] = [[0.3, 0.6]]
        m, v = zero_moments(params)
        prev = params.weights[0].copy()
        for t in range(1, 2001):
            nadam_step(params, grads, m, v, t, cfg)
            steps = prev - params.weights[0]
            prev = params.weights[0].copy()
        assert steps[0, 0] == pytest.approx(steps[0, 1], rel=1e-3)

    def test_rejects_nonfinite_gradient(self):
        params = scalar_params()
        with pytest.raises(NumericError, match="non-finite"):
            nadam_step(params, scalar_params(np.nan), *zero_moments(params), 1, self.config())

    def test_rejects_bad_step_index(self):
        params = scalar_params()
        with pytest.raises(ValueError):
            nadam_step(params, scalar_params(), *zero_moments(params), 0, self.config())


class TestFit:
    def test_linear_data_reaches_noise_floor(self):
        # Known generative noise: out-of-sample MSE of a well-trained net on
        # clean linear data lands within 2% of the irreducible variance.
        noise = 0.3
        beta = np.array([0.8, -0.5, 0.3])

        def draw(n, label):
            rng = rng_stream(5, label)
            X = rng.standard_normal((n, 3))
            y = 0.5 + X @ beta + noise * rng.standard_normal(n)
            return Dataset(X=X, y=y, v=np.ones(n),
                           feature_names=["x0", "x1", "x2"],
                           feature_kinds=["continuous"] * 3, groups={})

        ds, test = draw(4000, "learn"), draw(4000, "test")
        irreducible = float(np.mean((test.y - (0.5 + test.X @ beta)) ** 2))
        spec = ModelSpec(q=3, hidden_dims=(8,))
        cfg = TrainConfig(batch_size=250, max_epochs=400, seed=7)
        params, _ = fit(ds, spec, cfg)
        out = evaluate_loss(params, spec, test)
        assert out <= irreducible * 1.02

    def test_early_stopping_contract(self):
        ds = make_dataset(500, 2, seed=8, noise=1.0)
        spec = ModelSpec(q=2, hidden_dims=(5,))
        cfg = TrainConfig(batch_size=100, max_epochs=25, seed=9)
        params, hist = fit(ds, spec, cfg)
        assert hist.best_val_loss == min(hist.val_loss)
        # Returned parameters reproduce the recorded best validation loss.
        _, idx_val = split_indices(ds.n, cfg.val_fraction, rng_stream(cfg.seed, "split"))
        val = ds.subset(idx_val)
        assert evaluate_loss(params, spec, val) == pytest.approx(hist.best_val_loss,
                                                                 abs=1e-12)
        assert hist.best_val_loss <= hist.val_loss[-1]

    def test_deterministic(self):
        ds = make_dataset(300, 2, seed=10)
        spec = ModelSpec(q=2, hidden_dims=(4,))
        cfg = TrainConfig(batch_size=64, max_epochs=8, seed=11)
        p1, h1 = fit(ds, spec, cfg)
        p2, h2 = fit(ds, spec, cfg)
        assert h1.train_loss == h2.train_loss
        assert h1.val_loss == h2.val_loss
        for w1, w2 in zip(p1.weights, p2.weights):
            assert np.array_equal(w1, w2)
        assert p1.beta0 == p2.beta0

    def test_single_epoch_best(self):
        ds = make_dataset(100, 2, seed=12)
        spec = ModelSpec(q=2)
        params, hist = fit(ds, spec, TrainConfig(batch_size=32, max_epochs=1, seed=13))
        assert hist.best_epoch == 1
        assert len(hist.val_loss) == 1

    def test_patience_aborts_early(self):
        ds = make_dataset(300, 2, seed=14)
        spec = ModelSpec(q=2, hidden_dims=(4,))
        cfg = TrainConfig(batch_size=64, max_epochs=200, seed=15, patience=3)
        _, hist = fit(ds, spec, cfg)
        assert len(hist.val_loss) < 200
        assert len(hist.val_loss) - hist.best_epoch >= 3

    def test_spec_mismatch(self):
        ds = make_dataset(50, 3)
        with pytest.raises(ConfigError, match="feature columns"):
            fit(ds, ModelSpec(q=4), TrainConfig(max_epochs=1))

    def test_poisson_training_runs(self):
        rng = rng_stream(16, "pois")
        n = 800
        X = rng.standard_normal((n, 2))
        v = rng.uniform(0.5, 1.0, n)
        y = rng.poisson(v * np.exp(0.2 + 0.3 * X[:, 0])).astype(float)
        ds = Dataset(X=X, y=y, v=v, feature_names=["a", "b"],
                     feature_kinds=["continuous"] * 2, groups={})
        spec = ModelSpec(q=2, hidden_dims=(4,), family="poisson", link="log")
        params, hist = fit(ds, spec, TrainConfig(batch_size=200, max_epochs=20, seed=17))
        assert np.isfinite(hist.val_loss).all()
        assert evaluate_loss(params, spec, ds) < hist.train_loss[0]


    def test_train_loss_is_pre_step_batch_loss(self):
        # One batch per epoch: train_loss[e] is the loss of the parameters
        # before step e + 1, replayed here from fit's seeded streams.
        ds = make_dataset(200, 2, seed=20)
        spec = ModelSpec(q=2, hidden_dims=(4,))
        cfg = TrainConfig(batch_size=1000, max_epochs=5, seed=21, shuffle=False)
        _, hist = fit(ds, spec, cfg)
        train, val = (ds.subset(idx) for idx in
                      split_indices(ds.n, cfg.val_fraction, rng_stream(cfg.seed, "split")))
        family = get_family(spec.family)
        params = init_params(spec, rng_stream(cfg.seed, "init"),
                             output_bias=float(family.g(fit_null(train.y, train.v, family))))
        m, v = zero_moments(params)
        for t in range(1, cfg.max_epochs + 1):
            loss, grads = loss_and_param_grads(params, spec, train.X, train.y, train.v)
            assert hist.train_loss[t - 1] == pytest.approx(loss, rel=1e-14, abs=0.0)
            nadam_step(params, grads, m, v, t, cfg)
            assert hist.val_loss[t - 1] == evaluate_loss(params, spec, val)
        assert hist.train_loss[-1] != pytest.approx(evaluate_loss(params, spec, train),
                                                    rel=1e-6)

    def test_train_loss_weights_batches_by_rows(self):
        # 150 training rows in batches of 100 and 50: the epoch mean weights
        # each batch loss by its row count.
        ds = make_dataset(188, 2, seed=22)
        spec = ModelSpec(q=2)
        cfg = TrainConfig(batch_size=100, max_epochs=1, seed=23, shuffle=False)
        _, hist = fit(ds, spec, cfg)
        idx_train, _ = split_indices(ds.n, cfg.val_fraction, rng_stream(cfg.seed, "split"))
        train = ds.subset(idx_train)
        family = get_family(spec.family)
        params = init_params(spec, rng_stream(cfg.seed, "init"),
                             output_bias=float(family.g(fit_null(train.y, train.v, family))))
        m, v = zero_moments(params)
        first, grads = loss_and_param_grads(params, spec, train.X[:100], train.y[:100])
        nadam_step(params, grads, m, v, 1, cfg)
        second, _ = loss_and_param_grads(params, spec, train.X[100:], train.y[100:])
        assert train.n == 150
        assert hist.train_loss[0] == pytest.approx((100 * first + 50 * second) / 150,
                                                   rel=1e-14, abs=0.0)

    def test_all_zero_poisson_responses_raise(self):
        # Without the check the output bias is log(0) = -inf and fit returns it.
        X = rng_stream(30, "zeros").standard_normal((200, 2))
        ds = Dataset(X=X, y=np.zeros(200), v=np.ones(200), feature_names=["a", "b"],
                     feature_kinds=["continuous"] * 2, groups={})
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(ValueError, match="every response is 0, so the null mean is 0"):
                fit(ds, ModelSpec(q=2, hidden_dims=(3,), family="poisson"),
                    TrainConfig(batch_size=50, max_epochs=2, seed=31))

    @pytest.mark.parametrize("bad", ["negative response", "zero exposure",
                                     "negative exposure"])
    def test_invalid_poisson_rows_raise(self, bad):
        # A negative response raises ValueError in the training step that sees
        # it, or in the validation loss when the split puts it there; a bad
        # exposure raises before the first step, naming its row.
        rng = rng_stream(32, "bad-rows")
        X = rng.standard_normal((200, 2))
        y, v = rng.poisson(1.0, 200).astype(float), np.ones(200)
        if bad == "negative response":
            y[17] = -1.0
        else:
            y[17], v[17] = 2.0, 0.0 if bad == "zero exposure" else -0.5
        ds = Dataset(X=X, y=y, v=v, feature_names=["a", "b"],
                     feature_kinds=["continuous"] * 2, groups={})
        match = {"negative response": "Poisson deviance requires",
                 "zero exposure": r"^exposures must be positive; row index 17 has exposure 0\.0$",
                 "negative exposure": r"^exposures must be positive; row index 17 has exposure "
                                      r"-0\.5$"}[bad]
        with pytest.raises(ValueError, match=match):
            fit(ds, ModelSpec(q=2, hidden_dims=(3,), family="poisson"),
                TrainConfig(batch_size=50, max_epochs=2, seed=33))

    def test_poisson_clamp_warns(self):
        # Inputs of scale 100 put eta far outside the +/-30 window at the start.
        rng = rng_stream(24, "clamp")
        X = 100.0 * rng.standard_normal((200, 2))
        y = rng.poisson(1.0, 200).astype(float)
        ds = Dataset(X=X, y=y, v=np.ones(200), feature_names=["a", "b"],
                     feature_kinds=["continuous"] * 2, groups={})
        spec = ModelSpec(q=2, hidden_dims=(3,), family="poisson")
        with pytest.warns(RuntimeWarning, match=r"clamp engaged on \d+ training batch rows"):
            fit(ds, spec, TrainConfig(batch_size=50, max_epochs=2, seed=25))

    def test_no_clamp_warning_on_tame_poisson(self):
        rng = rng_stream(26, "tame")
        X = rng.standard_normal((200, 2))
        ds = Dataset(X=X, y=rng.poisson(1.0, 200).astype(float), v=np.ones(200),
                     feature_names=["a", "b"], feature_kinds=["continuous"] * 2, groups={})
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            fit(ds, ModelSpec(q=2, hidden_dims=(3,), family="poisson"),
                TrainConfig(batch_size=50, max_epochs=2, seed=27))


class TestHistoryAndConfig:
    def test_history_csv(self, tmp_path):
        ds = make_dataset(120, 2, seed=18)
        spec = ModelSpec(q=2)
        _, hist = fit(ds, spec, TrainConfig(batch_size=60, max_epochs=3, seed=19))
        path = tmp_path / "history.csv"
        hist.write_csv(path)
        lines = path.read_text().strip().splitlines()
        assert lines[0] == "epoch,train_loss,val_loss"
        assert len(lines) == 4

    def test_load_train_config(self, tmp_path):
        path = tmp_path / "train.cfg"
        path.write_text(
            "learning_rate = 0.002\nbatch_size = 10000\nmax_epochs = 200\n"
            "val_fraction = 0.2\nseed = 1\nshuffle = true\n")
        cfg = read_config(path, TrainConfig)
        assert cfg.batch_size == 10000 and cfg.max_epochs == 200 and cfg.shuffle

    def test_load_train_config_rejects_unknown_key(self, tmp_path):
        path = tmp_path / "train.cfg"
        path.write_text("learning_rat = 0.002\n")
        with pytest.raises(ConfigError, match="unknown option 'learning_rat'"):
            read_config(path, TrainConfig)

    def test_config_validation(self):
        with pytest.raises(ConfigError):
            TrainConfig(val_fraction=1.5)
        with pytest.raises(ConfigError):
            TrainConfig(batch_size=0)
        with pytest.raises(ConfigError):
            TrainConfig(max_epochs=0)

    @pytest.mark.parametrize("value", [0.0, -1.0, float("nan")])
    def test_rejects_nonpositive_learning_rate(self, value):
        with pytest.raises(ConfigError, match="learning_rate"):
            TrainConfig(learning_rate=value)

    def test_rejects_patience_below_one(self):
        with pytest.raises(ConfigError, match="patience"):
            TrainConfig(patience=0)
        assert TrainConfig(patience=1).patience == 1

    def test_bounds_reach_the_config_file(self, tmp_path):
        path = tmp_path / "train.cfg"
        path.write_text("learning_rate = -1\n")
        with pytest.raises(ConfigError, match="learning_rate"):
            read_config(path, TrainConfig)


class TestFitMemory:
    """Peak traced allocation of one epoch of fit on 100k rows of 8 features,
    over the bytes of X. Copying both splits reaches 1.51; gathering each
    batch from X by index leaves the validation copy, the index arrays and
    one batch's temporaries (0.64)."""

    def test_peak_is_below_the_data(self):
        ds = make_dataset(100_000, 8, seed=28)
        spec = ModelSpec(q=8, hidden_dims=(4,))
        cfg = TrainConfig(batch_size=500, max_epochs=1, seed=29)
        fit(make_dataset(100, 8), spec, cfg)  # imports outside the trace
        tracemalloc.start()
        try:
            fit(ds, spec, cfg)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < ds.X.nbytes
