import json
import re
import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st
from numpy.testing import assert_allclose

from localglmnet import (
    ModelSpec,
    Params,
    attention,
    batch_input_jacobian,
    fit_glm,
    forward,
    get_family,
    init_params,
    load_model,
    loss_and_param_grads,
    rng_stream,
    save_model,
)
from localglmnet import linalg
from localglmnet import model as model_mod
from localglmnet.data import Dataset
from localglmnet.errors import ConfigError, NumericError
from localglmnet.train import TrainConfig, evaluate_loss, nadam_step


def zero_params(spec, beta0=0.0):
    params = Params(spec.layer_dims)
    params.beta0 = beta0
    return params


def family_loss(params, spec, X, y, v=None):
    return get_family(spec.family).loss(y, forward(params, spec, X, v).mu)


def extended_loss(params, spec, X, y, v=None):
    """The family's loss continued linearly in eta past the clamp window.

    Beyond |eta| = eta_max each row adds its clamped score 2 (mu_c - y) / n
    times its distance past the window: the loss whose exact gradient
    loss_and_param_grads returns.
    """
    family = get_family(spec.family)
    tr = forward(params, spec, X, v)
    past = tr.eta - np.clip(tr.eta, -family.eta_max, family.eta_max)
    return family.loss(y, tr.mu) + np.mean(2.0 * (tr.mu - y) * past)


def fd_param_grads(params, spec, X, y, v=None, h=1e-5, loss=family_loss):
    """Central finite differences of ``loss`` over every parameter entry."""
    def loss_at(p):
        return loss(p, spec, X, y, v)

    grads = zero_params(spec)
    for i in range(params.flat.size):
        p1, p2 = params.copy(), params.copy()
        p1.flat[i] += h
        p2.flat[i] -= h
        grads.flat[i] = (loss_at(p1) - loss_at(p2)) / (2 * h)
    return grads


def assert_grads_close(got, want, rtol=1e-4):
    scale = max(1e-8, max(np.abs(w).max() for w in want.weights))
    for m in range(len(got.weights)):
        assert np.abs(got.weights[m] - want.weights[m]).max() <= rtol * scale
        assert np.abs(got.biases[m] - want.biases[m]).max() <= rtol * scale
    assert abs(got.beta0 - want.beta0) <= rtol * max(scale, abs(want.beta0))


class TestModelSpec:
    def test_default_activations(self):
        spec = ModelSpec(q=8, hidden_dims=(20, 15, 10))
        assert spec.activations == ("tanh", "tanh", "tanh", "linear")
        assert spec.layer_dims == (8, 20, 15, 10, 8)
        assert spec.depth == 4

    def test_minimal_depth(self):
        spec = ModelSpec(q=3)
        assert spec.layer_dims == (3, 3)
        assert spec.activations == ("linear",)

    @staticmethod
    def saved_with_tags(tmp_path, tags):
        """A model.json for the q=3, width-4 tower whose stored tags are ``tags``."""
        spec = ModelSpec(q=3, hidden_dims=(4,))
        path = tmp_path / "model.json"
        save_model(path, spec, init_params(spec, rng_stream(14, "ser")))
        doc = json.loads(path.read_text())
        doc["spec"]["activations"] = tags
        path.write_text(json.dumps(doc))
        return path

    def test_rejects_bad_activation(self, tmp_path):
        # The tower is fixed: the spec takes no tags, and a model file's tags must match it.
        with pytest.raises(TypeError):
            ModelSpec(q=3, hidden_dims=(4,), activations=("tanh", "linear"))
        path = self.saved_with_tags(tmp_path, ["relu", "linear"])
        with pytest.raises(ConfigError, match=r"model\.json: activations \['relu', 'linear'\]"):
            load_model(path)

    def test_rejects_wrong_activation_count(self, tmp_path):
        path = self.saved_with_tags(tmp_path, ["tanh"])
        with pytest.raises(ConfigError, match=r"model\.json: activations \['tanh'\] differ "
                                              r"from the fixed tower \['tanh', 'linear'\]"):
            load_model(path)

    @pytest.mark.parametrize("family,link", [("gaussian", "identity"), ("poisson", "log")])
    def test_link_defaults_to_canonical(self, family, link):
        assert ModelSpec(q=2, family=family).link == link
        assert ModelSpec(q=2, family=family) == ModelSpec(q=2, family=family, link=link)

    @pytest.mark.parametrize("family,link", [("gaussian", "log"), ("poisson", "identity"),
                                             ("gaussian", "logit")])
    def test_rejects_non_canonical_link(self, family, link):
        with pytest.raises(ValueError, match=rf"family '{family}'.*link '{link}'"):
            ModelSpec(q=2, family=family, link=link)


class TestInitParams:
    def test_deterministic(self):
        spec = ModelSpec(q=5, hidden_dims=(7,))
        p1 = init_params(spec, rng_stream(3, "init"))
        p2 = init_params(spec, rng_stream(3, "init"))
        for w1, w2 in zip(p1.weights, p2.weights):
            assert np.array_equal(w1, w2)

    def test_glorot_bound(self):
        spec = ModelSpec(q=8, hidden_dims=(20,))
        p = init_params(spec, rng_stream(0, "init"))
        bound = np.sqrt(6.0 / (8 + 20))
        assert np.abs(p.weights[0]).max() <= bound
        assert np.all(p.biases[0] == 0.0)

    def test_output_bias_passthrough(self):
        spec = ModelSpec(q=2)
        assert init_params(spec, rng_stream(0, "i"), output_bias=1.25).beta0 == 1.25


class TestForward:
    def test_constant_net(self):
        spec = ModelSpec(q=4, hidden_dims=(6,))
        params = zero_params(spec, beta0=2.5)
        X = rng_stream(1, "x").standard_normal((10, 4))
        tr = forward(params, spec, X)
        assert_allclose(tr.mu, np.full(10, 2.5))
        assert np.all(tr.attentions == 0.0)

    def test_constant_attention_reproduces_glm(self):
        # A depth-1 linear tower with zero weights and bias b has
        # beta(x) = b constant, so the network is exactly the GLM.
        rng = rng_stream(2, "glm-nest")
        X = rng.standard_normal((200, 3))
        beta = np.array([0.4, -0.7, 1.1])
        y = 0.2 + X @ beta + 0.05 * rng.standard_normal(200)
        glm = fit_glm(X, y)
        spec = ModelSpec(q=3)
        params = zero_params(spec, beta0=glm.beta0)
        params.biases[0][:] = glm.beta
        tr = forward(params, spec, X)
        assert_allclose(tr.mu, glm.beta0 + X @ glm.beta, atol=1e-12)

    def test_eta_equals_attention_dot_product(self):
        rng = rng_stream(3, "dot")
        spec = ModelSpec(q=6, hidden_dims=(9, 5))
        params = init_params(spec, rng, output_bias=0.3)
        X = rng.standard_normal((1, 6))
        tr = forward(params, spec, X)
        beta = attention(params, spec, X)[0]
        assert abs(tr.eta[0] - (params.beta0 + beta @ X[0])) < 1e-12

    def test_additivity_invariant(self):
        rng = rng_stream(4, "addi")
        spec = ModelSpec(q=5, hidden_dims=(8, 6))
        params = init_params(spec, rng, output_bias=-0.2)
        X = rng.standard_normal((300, 5))
        tr = forward(params, spec, X)
        recon = params.beta0 + np.sum(tr.attentions * X, axis=1)
        assert np.abs(tr.eta - recon).max() < 1e-12

    def test_poisson_exposure_scales_mu(self):
        spec = ModelSpec(q=2, family="poisson", link="log")
        params = zero_params(spec, beta0=0.0)
        X = np.ones((4, 2))
        v = np.array([0.25, 0.5, 1.0, 2.0])
        assert_allclose(forward(params, spec, X, v).mu, v)

    def test_overflow_error_names_layer(self):
        spec = ModelSpec(q=2, hidden_dims=(3,))
        params = zero_params(spec)
        params.weights[0][0, 0] = np.inf
        with pytest.raises(NumericError, match="layer 1"):
            forward(params, spec, np.ones((1, 2)))

    def test_log_link_clamps_eta(self):
        spec = ModelSpec(q=1, family="poisson", link="log")
        params = zero_params(spec, beta0=0.0)
        params.biases[0][:] = 100.0  # beta(x) = 100, eta = 100 * x
        tr = forward(params, spec, np.array([[1.0]]), np.array([1.0]))
        assert np.isfinite(tr.mu).all()
        assert tr.n_clamped == 1


class TestAttentionAndContributions:
    def test_zero_net_attention(self):
        spec = ModelSpec(q=3, hidden_dims=(4,))
        assert np.all(attention(zero_params(spec), spec, np.ones((5, 3))) == 0.0)

    def test_zero_feature_contributes_zero(self):
        rng = rng_stream(5, "contrib")
        spec = ModelSpec(q=4, hidden_dims=(6,))
        params = init_params(spec, rng)
        X = rng.standard_normal((7, 4))
        X[:, 2] = 0.0
        assert np.all((attention(params, spec, X) * X)[:, 2] == 0.0)

    def test_contribution_rows_sum_to_eta(self):
        rng = rng_stream(6, "contrib")
        spec = ModelSpec(q=5, hidden_dims=(7,))
        params = init_params(spec, rng, output_bias=0.4)
        X = rng.standard_normal((50, 5))
        total = (attention(params, spec, X) * X).sum(axis=1) + params.beta0
        assert np.abs(total - forward(params, spec, X).eta).max() < 1e-12


class TestParamGradients:
    def test_constant_predictor_closed_form(self):
        # Zero-weight Gaussian net: d loss / d beta0 = 2 (beta0 - mean y).
        spec = ModelSpec(q=3, hidden_dims=(4,))
        params = zero_params(spec, beta0=1.5)
        y = np.array([0.5, 2.5, 3.0])
        _, grads = loss_and_param_grads(params, spec, np.ones((3, 3)), y)
        assert grads.beta0 == pytest.approx(2.0 * (1.5 - y.mean()), rel=1e-12)

    @pytest.mark.parametrize("family,link", [("gaussian", "identity"), ("poisson", "log")])
    def test_matches_finite_differences(self, family, link):
        rng = rng_stream(7, f"fd-{family}")
        spec = ModelSpec(q=4, hidden_dims=(6, 5), family=family, link=link)
        params = init_params(spec, rng, output_bias=0.1)
        X = rng.standard_normal((12, 4))
        if family == "poisson":
            v = rng.uniform(0.3, 1.0, 12)
            y = rng.poisson(1.0, 12).astype(float)
        else:
            v = None
            y = rng.standard_normal(12)
        _, grads = loss_and_param_grads(params, spec, X, y, v)
        assert_grads_close(grads, fd_param_grads(params, spec, X, y, v))

    def test_poisson_clamp_and_exposure_match_finite_differences(self):
        # A large attention bias on feature 0 pushes eta past the clamp on the
        # rows where |x_0| is large. There the gradient is that of the deviance
        # continued linearly in eta, below the window and then above it too.
        rng = rng_stream(7, "fd-clamp")
        spec = ModelSpec(q=3, hidden_dims=(5,), family="poisson")
        params = init_params(spec, rng, output_bias=0.1)
        params.biases[-1][0] = 12.0
        X = rng.standard_normal((10, 3))
        X[:, 0] = np.r_[-3.0, -3.5, -4.0, rng.uniform(-1.0, 1.0, 7)]
        v = rng.uniform(0.3, 1.0, 10)
        y = rng.poisson(1.0, 10).astype(float)
        eta_max = get_family("poisson").eta_max
        clamped = np.abs(forward(params, spec, X, v).eta) > eta_max
        assert clamped[:3].all() and not clamped[3:].any()
        _, grads = loss_and_param_grads(params, spec, X, y, v)
        assert_grads_close(grads, fd_param_grads(params, spec, X, y, v, loss=extended_loss))
        X[:2, 0] = [3.0, 4.0]  # above the window too
        assert (np.abs(forward(params, spec, X[:3], v[:3]).eta) > eta_max).all()
        _, grads = loss_and_param_grads(params, spec, X[:3], y[:3], v[:3])
        assert_grads_close(grads, fd_param_grads(params, spec, X[:3], y[:3], v[:3],
                                                 loss=extended_loss))

    @settings(max_examples=30, deadline=None)
    @given(st.integers(min_value=0, max_value=2**31), st.integers(min_value=1, max_value=3))
    def test_poisson_exposure_matches_finite_differences_on_random_towers(self, seed, depth):
        rng = rng_stream(seed, "fd-poisson-exposure")
        spec, params = random_tower(rng, depth, "poisson")
        X = rng.standard_normal((12, spec.q))
        v = rng.uniform(0.2, 1.0, 12)
        y = rng.poisson(v).astype(float)
        _, grads = loss_and_param_grads(params, spec, X, y, v)
        # extended_loss is the family's loss wherever eta stays in the clamp window
        assert_grads_close(grads, fd_param_grads(params, spec, X, y, v, loss=extended_loss))

    def test_nadam_pulls_clamped_row_back_into_window(self):
        # beta(x) = W x + b with x = 1 puts eta = beta0 + W + b at 40, past the
        # window; the kept score drives every step back toward it.
        spec = ModelSpec(q=1, family="poisson")
        params = zero_params(spec)
        params.biases[0][:] = 40.0
        X, y, v = np.ones((1, 1)), np.ones(1), np.ones(1)
        config = TrainConfig(learning_rate=1.0)
        m, s = np.zeros_like(params.flat), np.zeros_like(params.flat)
        etas = [forward(params, spec, X, v).eta[0]]
        for t in range(1, 6):
            _, grads = loss_and_param_grads(params, spec, X, y, v)
            nadam_step(params, grads, m, s, t, config)
            etas.append(forward(params, spec, X, v).eta[0])
        assert etas[0] == 40.0
        assert np.all(np.diff(etas) < 0.0)
        assert abs(etas[-1]) < get_family("poisson").eta_max

    def test_gradient_is_descent_direction(self):
        rng = rng_stream(8, "desc")
        spec = ModelSpec(q=3, hidden_dims=(5,))
        params = init_params(spec, rng, output_bias=0.2)
        X = rng.standard_normal((30, 3))
        y = rng.standard_normal(30)
        loss, grads = loss_and_param_grads(params, spec, X, y)
        eps = 1e-3
        stepped = params.copy()
        stepped.flat -= eps * grads.flat
        new_loss, _ = loss_and_param_grads(stepped, spec, X, y)
        assert new_loss < loss

    def test_batch_permutation_invariance(self):
        rng = rng_stream(9, "perm")
        spec = ModelSpec(q=3, hidden_dims=(4,))
        params = init_params(spec, rng)
        X = rng.standard_normal((20, 3))
        y = rng.standard_normal(20)
        perm = rng.permutation(20)
        l1, g1 = loss_and_param_grads(params, spec, X, y)
        l2, g2 = loss_and_param_grads(params, spec, X[perm], y[perm])
        assert l1 == pytest.approx(l2, rel=1e-12)
        for m in range(spec.depth):
            assert_allclose(g1.weights[m], g2.weights[m], rtol=1e-10, atol=1e-14)

    @pytest.mark.parametrize("bad", ["negative response", "zero exposure",
                                     "negative exposure"])
    def test_rejects_invalid_poisson_rows(self, bad):
        spec = ModelSpec(q=2, hidden_dims=(3,), family="poisson")
        params = init_params(spec, rng_stream(0, "bad-rows"))
        X, y, v = np.ones((4, 2)), np.array([0.0, 1.0, 2.0, 0.0]), np.ones(4)
        if bad == "negative response":
            y[3] = -1.0
        else:
            v[3] = 0.0 if bad == "zero exposure" else -0.5
        with pytest.raises(ValueError, match="Poisson deviance requires"):
            loss_and_param_grads(params, spec, X, y, v)

    def test_rejects_empty_batch(self):
        spec = ModelSpec(q=2)
        with pytest.raises(ValueError, match="empty"):
            loss_and_param_grads(zero_params(spec), spec, np.empty((0, 2)), np.empty(0))


class TestInputJacobian:
    def test_zero_tower_zero_jacobian(self):
        spec = ModelSpec(q=4, hidden_dims=(5,))
        J = batch_input_jacobian(zero_params(spec), spec, np.ones((1, 4)))[0]
        assert np.all(J == 0.0)

    def test_depth_one_linear_tower(self):
        rng = rng_stream(10, "lin")
        spec = ModelSpec(q=4)
        params = zero_params(spec)
        params.weights[0][:] = rng.standard_normal((4, 4))
        params.biases[0][:] = rng.standard_normal(4)
        J = batch_input_jacobian(params, spec, rng.standard_normal((1, 4)))[0]
        assert_allclose(J, params.weights[0].T, atol=1e-14)

    def test_matches_finite_differences(self):
        rng = rng_stream(11, "jfd")
        spec = ModelSpec(q=5, hidden_dims=(7, 6))
        params = init_params(spec, rng)
        x = rng.standard_normal(5)
        J = batch_input_jacobian(params, spec, x[None])[0]
        h = 1e-5
        for k in range(5):
            xp, xm = x.copy(), x.copy()
            xp[k] += h
            xm[k] -= h
            fd = (attention(params, spec, xp[None, :])[0] -
                  attention(params, spec, xm[None, :])[0]) / (2 * h)
            assert np.abs(J[:, k] - fd).max() < 1e-4 * max(1e-8, np.abs(fd).max(), 1.0)

    def test_batch_agrees_with_single(self):
        rng = rng_stream(12, "batch")
        spec = ModelSpec(q=3, hidden_dims=(6,))
        params = init_params(spec, rng)
        X = rng.standard_normal((9, 3))
        JB = batch_input_jacobian(params, spec, X)
        for i in range(9):
            assert_allclose(JB[i], batch_input_jacobian(params, spec, X[i][None])[0],
                            atol=1e-14)



def whole_array_jacobian(params, spec, X):
    """Input Jacobians from one whole-array tower pass: the unblocked reference."""
    acts = model_mod._tower(params, spec, np.asarray(X, dtype=float))
    if spec.depth == 1:
        return np.repeat(params.weights[0].T[None], len(X), axis=0)
    z = acts[1][:, :, None]
    J = (1.0 - z * z) * params.weights[0].T
    for m in range(1, spec.depth):
        J = np.matmul(params.weights[m].T, J)
        if m < spec.depth - 1:
            z = acts[m + 1][:, :, None]
            J *= 1.0 - z * z
    return J


def random_tower(rng, depth, family="gaussian"):
    """A tower of the given depth with random widths of at least 2 and random
    weights and biases. A width-1 layer is a matrix-vector product, whose
    rounding depends on the row's offset within the call, which a 7-row block
    shifts; test_width_one_layers_agree_to_rounding covers it apart."""
    widths = [int(w) for w in rng.integers(2, 10, size=depth)]
    spec = ModelSpec(q=widths[0], hidden_dims=tuple(widths[1:]), family=family)
    params = Params(spec.layer_dims)
    params.flat[:] = 0.5 * rng.standard_normal(params.flat.size)
    return spec, params


class TestBlockedEvaluation:
    """attention, batch_input_jacobian and evaluate_loss run over blocks of rows:
    every output must equal one whole-array pass byte for byte."""

    @pytest.fixture(autouse=True)
    def seven_row_blocks(self, monkeypatch):
        monkeypatch.setattr(linalg, "EVAL_BLOCK_ROWS", 7)

    @pytest.mark.parametrize("depth", [1, 2, 3, 4])
    @pytest.mark.parametrize("n", [1, 6, 7, 8, 15, 22])
    def test_attention_and_jacobian_match_whole_array(self, n, depth):
        rng = rng_stream(n * 10 + depth, "blocked")
        spec, params = random_tower(rng, depth)
        X = rng.standard_normal((n, spec.q))
        whole = model_mod._tower(params, spec, X)[-1]
        assert attention(params, spec, X).tobytes() == whole.tobytes()
        assert (batch_input_jacobian(params, spec, X).tobytes()
                == whole_array_jacobian(params, spec, X).tobytes())

    @pytest.mark.parametrize("family", ["gaussian", "poisson"])
    @pytest.mark.parametrize("depth", [1, 2, 3, 4])
    @pytest.mark.parametrize("n", [1, 6, 7, 8, 15, 22])
    def test_evaluate_loss_matches_whole_array(self, n, depth, family):
        rng = rng_stream(n * 10 + depth, f"blocked-{family}")
        spec, params = random_tower(rng, depth, family)
        X = rng.standard_normal((n, spec.q))
        if family == "poisson":
            y, v = rng.poisson(1.0, n).astype(float), rng.uniform(0.1, 2.0, n)
        else:
            y, v = rng.standard_normal(n), np.ones(n)
        ds = Dataset(X=X, y=y, v=v, feature_names=[f"x{j}" for j in range(spec.q)],
                     feature_kinds=["continuous"] * spec.q, groups={})
        whole = family_loss(params, spec, X, y, v)  # one forward pass over all n rows
        assert np.float64(evaluate_loss(params, spec, ds)).tobytes() == \
            np.float64(whole).tobytes()

    def test_width_one_layers_agree_to_rounding(self):
        rng = rng_stream(5, "width-one")
        spec = ModelSpec(q=9, hidden_dims=(1, 12, 1))
        params = Params(spec.layer_dims)
        params.flat[:] = rng.standard_normal(params.flat.size)
        X = rng.standard_normal((22, 9))
        assert_allclose(attention(params, spec, X), model_mod._tower(params, spec, X)[-1],
                        rtol=1e-14, atol=1e-14)
        assert_allclose(batch_input_jacobian(params, spec, X),
                        whole_array_jacobian(params, spec, X), rtol=1e-14, atol=1e-14)

    def test_no_rows_give_empty_results(self):
        spec = ModelSpec(q=3, hidden_dims=(4,))
        params = init_params(spec, rng_stream(0, "empty"))
        assert attention(params, spec, np.empty((0, 3))).shape == (0, 3)
        assert batch_input_jacobian(params, spec, np.empty((0, 3))).shape == (0, 3, 3)
        empty = Dataset(X=np.empty((0, 3)), y=np.empty(0), v=np.empty(0),
                        feature_names=["a", "b", "c"], feature_kinds=["continuous"] * 3,
                        groups={})
        with pytest.raises(ValueError, match="need at least one observation"):
            evaluate_loss(params, spec, empty)

    @pytest.mark.parametrize("n", [0, 22])
    def test_wrong_width_names_the_whole_shape(self, n):
        spec = ModelSpec(q=3, hidden_dims=(4,))
        params = init_params(spec, rng_stream(0, "width"))
        X = np.ones((n, 2))
        message = re.escape(f"X must have shape (n, 3), got ({n}, 2)")
        ds = Dataset(X=X, y=np.ones(n), v=np.ones(n), feature_names=["a", "b"],
                     feature_kinds=["continuous"] * 2, groups={})
        for call in (lambda: attention(params, spec, X),
                     lambda: batch_input_jacobian(params, spec, X),
                     lambda: evaluate_loss(params, spec, ds)):
            with pytest.raises(ValueError, match=message):
                call()
        with pytest.raises(ValueError, match=re.escape("got (3,)")):
            attention(params, spec, np.ones(3))


class TestEvaluationMemory:
    """Peak traced allocation of the evaluation passes on 20k rows of the
    paper's 8-20-15-10-8 tower, over the bytes of their output. A whole-array
    pass holds every layer for all rows (8.9 for attention, 5.2 for the
    Jacobians); row blocks bound the temporaries by the block."""

    @pytest.fixture(scope="class")
    def setting(self):
        rng = rng_stream(20, "memory")
        spec = ModelSpec(q=8, hidden_dims=(20, 15, 10))
        return spec, init_params(spec, rng), rng.standard_normal((20000, 8))

    @staticmethod
    def peak_ratio(call):
        tracemalloc.start()
        try:
            out = call()
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        return peak / out.nbytes

    def test_attention(self, setting):
        spec, params, X = setting
        assert self.peak_ratio(lambda: attention(params, spec, X)) < 4

    def test_batch_input_jacobian(self, setting):
        spec, params, X = setting
        assert self.peak_ratio(lambda: batch_input_jacobian(params, spec, X)) < 3


class TestSerialization:
    def test_round_trip_bit_exact(self, tmp_path):
        rng = rng_stream(13, "ser")
        spec = ModelSpec(q=4, hidden_dims=(6, 5), family="poisson", link="log")
        params = init_params(spec, rng, output_bias=-1.2345678912345678)
        path = tmp_path / "model.json"
        save_model(path, spec, params, preprocess={"note": "smoke"})
        spec2, params2, pre = load_model(path)
        assert spec2 == spec
        assert pre == {"note": "smoke"}
        assert params2.beta0 == params.beta0
        for w1, w2 in zip(params.weights, params2.weights):
            assert np.array_equal(w1, w2)
        for b1, b2 in zip(params.biases, params2.biases):
            assert np.array_equal(b1, b2)

    def test_rejects_foreign_file(self, tmp_path):
        path = tmp_path / "junk.json"
        path.write_text('{"format": "something-else"}')
        with pytest.raises(ConfigError, match="not a model file"):
            load_model(path)

    def saved_doc(self, tmp_path):
        spec = ModelSpec(q=3, hidden_dims=(4,))
        path = tmp_path / "model.json"
        save_model(path, spec, init_params(spec, rng_stream(14, "ser")))
        return path, json.loads(path.read_text())

    @pytest.mark.parametrize("block,key", [("params", "weights"), ("params", "biases"),
                                           ("params", "beta0"), ("spec", "q"),
                                           ("spec", "hidden_dims"), ("spec", "activations")])
    def test_missing_key_names_file_and_key(self, tmp_path, block, key):
        path, doc = self.saved_doc(tmp_path)
        del doc[block][key]
        path.write_text(json.dumps(doc))
        with pytest.raises(ConfigError, match=rf"model\.json: missing key '{key}'"):
            load_model(path)

    @pytest.mark.parametrize("corrupt", ["bias", "weight", "beta0"])
    def test_rejects_wrong_shapes(self, tmp_path, corrupt):
        # Each replacement has the right size to broadcast or reshape silently.
        path, doc = self.saved_doc(tmp_path)
        p = doc["params"]
        if corrupt == "bias":
            p["biases"][0] = p["beta0"]  # shape [1] for a width-4 layer
        elif corrupt == "weight":
            p["weights"][0]["shape"] = p["weights"][0]["shape"][::-1]  # (4, 3) for (3, 4)
        else:
            p["beta0"] = p["biases"][1]  # three output biases
        path.write_text(json.dumps(doc))
        with pytest.raises(ConfigError, match="do not match spec"):
            load_model(path)

    @pytest.mark.parametrize("corrupt", ["truncated-buffer", "weights-not-a-list"])
    def test_rejects_malformed_block(self, tmp_path, corrupt):
        path, doc = self.saved_doc(tmp_path)
        if corrupt == "truncated-buffer":
            doc["params"]["weights"][0]["data"] = "AAAA"  # 3 bytes, not a float64 buffer
        else:
            doc["params"]["weights"] = 5
        path.write_text(json.dumps(doc))
        with pytest.raises(ConfigError, match=r"model\.json: malformed model file"):
            load_model(path)

    def test_rejects_non_finite_parameters(self, tmp_path):
        spec = ModelSpec(q=2)
        params = zero_params(spec)
        params.biases[0][1] = np.nan
        path = tmp_path / "model.json"
        save_model(path, spec, params)
        with pytest.raises(NumericError, match="non-finite"):
            load_model(path)


widths = st.integers(min_value=1, max_value=6)
layer_dims = st.builds(lambda q, hidden: (q, *hidden, q), widths, st.lists(widths, max_size=3))


class TestFlatLayout:
    @settings(max_examples=50, deadline=None)
    @given(layer_dims)
    def test_views_alias_flat(self, dims):
        params = Params(dims)
        pairs = list(zip(dims[:-1], dims[1:]))
        assert params.flat.size == sum(a * b + b for a, b in pairs) + 1
        assert [w.shape for w in params.weights] == pairs
        assert [b.shape for b in params.biases] == [(b,) for _, b in pairs]
        views = [*params.weights, *params.biases]
        for k, view in enumerate(views):
            assert np.shares_memory(view, params.flat)
            view[...] = k + 1.0
        params.beta0 = -1.0
        # The views tile flat in order: weights, biases, then beta0.
        expected = np.concatenate([np.full(v.size, k + 1.0) for k, v in enumerate(views)]
                                  + [[-1.0]])
        assert np.array_equal(params.flat, expected)

    @settings(max_examples=50, deadline=None)
    @given(layer_dims, st.integers(min_value=0, max_value=2**31))
    def test_copy_is_independent(self, dims, seed):
        params = Params(dims)
        params.flat[:] = rng_stream(seed, "copy").standard_normal(params.flat.size)
        before = params.flat.copy()
        dup = params.copy()
        assert np.array_equal(dup.flat, before)
        for view in (*dup.weights, *dup.biases):
            view += 1.0
        dup.beta0 += 1.0
        assert np.array_equal(params.flat, before)
        assert not np.shares_memory(dup.flat, params.flat)

    @settings(max_examples=25, deadline=None)
    @given(layer_dims, st.integers(min_value=0, max_value=2**31))
    def test_save_load_restores_flat_bit_exactly(self, tmp_path_factory, dims, seed):
        spec = ModelSpec(q=dims[0], hidden_dims=dims[1:-1])
        params = Params(spec.layer_dims)
        params.flat[:] = rng_stream(seed, "flat-ser").standard_normal(params.flat.size)
        path = tmp_path_factory.mktemp("ser") / "model.json"
        save_model(path, spec, params)
        _, loaded, _ = load_model(path)
        assert loaded.flat.tobytes() == params.flat.tobytes()


# The training step's arithmetic as it was written out of place: every
# temporary a fresh array, the finite check per layer by isfinite, the row
# and column sums by numpy's sum, the loss by the family's checked loss.
# The in-place step must give the same bytes.

def reference_forward(params, spec, X, v=None):
    """``(activations, eta, mu, n_clamped)`` of the out-of-place forward pass."""
    acts = [np.asarray(X, dtype=float)]
    for m in range(spec.depth):
        a = acts[-1] @ params.weights[m] + params.biases[m]
        if not np.all(np.isfinite(a)):
            raise NumericError(f"non-finite activations in layer {m + 1}")
        acts.append(np.tanh(a) if m < spec.depth - 1 else a)
    eta = params.beta0 + np.sum(acts[-1] * acts[0], axis=1)
    family = get_family(spec.family)
    n_clamped = int(np.sum(np.abs(eta) > family.eta_max))
    mu = family.inv(np.clip(eta, -family.eta_max, family.eta_max))
    if family.uses_exposure and v is not None:
        mu = mu * np.asarray(v, dtype=float)
    return acts, eta, mu, n_clamped


def reference_loss_and_grads(params, spec, X, y, v=None):
    """``(loss, grads, n_clamped)`` of the out-of-place backward pass."""
    acts, _, mu, n_clamped = reference_forward(params, spec, X, v)
    loss = get_family(spec.family).loss(y, mu)
    deta = 2.0 * (mu - y) / y.shape[0]
    grads = Params(spec.layer_dims)
    grads.beta0 = np.sum(deta)
    da = deta[:, None] * acts[0]
    for m in range(spec.depth - 1, -1, -1):
        np.matmul(acts[m].T, da, out=grads.weights[m])
        da.sum(axis=0, out=grads.biases[m])
        if m > 0:
            z = acts[m]
            da = (da @ params.weights[m].T) * (1.0 - z * z)
    return loss, grads, n_clamped


def reference_nadam_step(params, grads, m, v, t, lr, b1=0.9, b2=0.999, eps=1e-7):
    g = grads.flat
    m *= b1
    m += (1.0 - b1) * g
    v *= b2
    v += (1.0 - b2) * g * g
    m_hat = b1 * m / (1.0 - b1 ** (t + 1)) + (1.0 - b1) * g / (1.0 - b1 ** t)
    params.flat -= lr * m_hat / (np.sqrt(v / (1.0 - b2 ** t)) + eps)


def random_batch(seed, dims, family, n, with_exposure):
    """A tower on ``dims`` and an n-row batch; about a third of the rows are
    scaled up so their eta leaves the +-30 clamp window."""
    rng = rng_stream(seed, "in-place-step")
    spec = ModelSpec(q=dims[0], hidden_dims=dims[1:-1], family=family)
    params = Params(spec.layer_dims)
    params.flat[:] = rng.standard_normal(params.flat.size)
    X = rng.standard_normal((n, spec.q))
    X[rng.random(n) < 0.3] *= 60.0
    if family == "poisson":
        y = rng.poisson(1.0, n).astype(float)
        v = rng.uniform(0.1, 2.0, n) if with_exposure else None
    else:
        y, v = rng.standard_normal(n), (np.ones(n) if with_exposure else None)
    return spec, params, X, y, v


# q from 1 to 9 straddles the 8-column switch of model._row_sums.
step_dims = st.builds(lambda q, hidden: (q, *hidden, q), st.integers(1, 9),
                      st.lists(widths, max_size=3))


class TestInPlaceStepIsBitIdentical:
    @settings(max_examples=200, deadline=None)
    @given(step_dims, st.sampled_from(["gaussian", "poisson"]), st.integers(1, 40),
           st.booleans(), st.integers(min_value=0, max_value=2**31))
    def test_loss_grads_and_forward(self, dims, family, n, with_exposure, seed):
        spec, params, X, y, v = random_batch(seed, dims, family, n, with_exposure)
        loss, grads = loss_and_param_grads(params, spec, X, y, v)
        ref_loss, ref_grads, ref_clamped = reference_loss_and_grads(params, spec, X, y, v)
        assert np.float64(loss).tobytes() == np.float64(ref_loss).tobytes()
        assert grads.flat.tobytes() == ref_grads.flat.tobytes()
        assert grads.n_clamped == ref_clamped
        tr = forward(params, spec, X, v)
        acts, eta, mu, n_clamped = reference_forward(params, spec, X, v)
        assert tr.attentions.tobytes() == acts[-1].tobytes()
        assert tr.eta.tobytes() == eta.tobytes()
        assert tr.mu.tobytes() == mu.tobytes()
        assert tr.n_clamped == n_clamped

    def test_random_batches_clamp_some_rows(self):
        # The property above must meet rows past the clamp next to rows inside it.
        spec, params, X, y, v = random_batch(3, (4, 1, 5, 4), "poisson", 40, True)
        assert 0 < reference_forward(params, spec, X, v)[3] < 40

    @pytest.mark.parametrize("family, dims", [("poisson", (4, 15, 10, 4)),
                                              ("gaussian", (8, 20, 15, 10, 8)),
                                              ("gaussian", (3, 1, 2, 3))])
    def test_nadam_steps(self, family, dims):
        spec, params, X, y, v = random_batch(7, dims, family, 64, True)
        params.flat *= 0.3
        start, ref = params.flat.copy(), params.copy()
        moments = [np.zeros_like(params.flat) for _ in range(4)]
        config = TrainConfig(learning_rate=0.01)
        for t in range(1, 31):
            rows = slice(2 * t, 2 * t + 32)
            _, grads = loss_and_param_grads(params, spec, X[rows], y[rows], v[rows])
            nadam_step(params, grads, moments[0], moments[1], t, config)
            _, ref_grads, _ = reference_loss_and_grads(ref, spec, X[rows], y[rows], v[rows])
            reference_nadam_step(ref, ref_grads, moments[2], moments[3], t,
                                 config.learning_rate)
        assert params.flat.tobytes() == ref.flat.tobytes()
        assert moments[0].tobytes() == moments[2].tobytes()
        assert moments[1].tobytes() == moments[3].tobytes()
        assert not np.array_equal(params.flat, start)

    def test_infinite_hidden_pre_activation_names_its_layer(self):
        # tanh maps an infinite pre-activation to +-1, so the check comes first.
        spec = ModelSpec(q=2, hidden_dims=(3, 2))
        params = zero_params(spec)
        params.biases[0][:] = 10.0  # layer 1 outputs tanh(10), about 1
        params.weights[1][:, 0] = 1e308  # three times 1e308 overflows to inf
        X, y = np.ones((3, 2)), np.zeros(3)
        with np.errstate(over="ignore"):
            with pytest.raises(NumericError, match="non-finite activations in layer 2"):
                loss_and_param_grads(params, spec, X, y)
            with pytest.raises(NumericError, match="non-finite activations in layer 2"):
                forward(params, spec, X)
