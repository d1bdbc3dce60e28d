"""Acceptance suite for the synthetic benchmark and the package contracts.

Runs the full-scale experiment once (n = 100,000 learning / 100,000 test)
and checks the loss ladder, the selection test, attention shapes, and
interaction detection on the fitted model, plus property-based gradient
verification, exactness invariants, pipeline determinism, and the Poisson
pathway. One PASS/FAIL line is printed per criterion (run with ``-s`` or
``-rA`` to see them).

The full run takes under a minute, dominated by network training.
"""

import hashlib
import math
import os
from dataclasses import dataclass

import numpy as np
import pytest

import localglmnet as lg
from localglmnet.cli import main as cli_main
from test_golden import differing_facts_message

N_FULL = 100_000
DATA_SEED = 1
TRAIN_SEED = 8
BATCH_SIZE = 5000
MAX_EPOCHS = 600
# The fit returns the best-validation parameters. Their best epoch is 254,
# and before it no run of epochs without a new best reaches 47, so stopping
# 47 epochs after the best returns the 600-epoch run's parameters bit for
# bit, in 301 epochs instead of 600.
PATIENCE = 47
FULL_RUN_BEST_EPOCH, PATIENCE_RUN_EPOCHS = 254, 301
FULL_RUN_PARAMS_SHA256 = "d382ec99893d9776772356a508d8661b5fd04e73e40110daa9bafb5024b76e0c"


def _line(name: str, ok: bool, detail: str) -> None:
    print(f"ACCEPTANCE {name}: {'PASS' if ok else 'FAIL'} ({detail})")
    assert ok, f"{name}: {detail}"


@dataclass
class SyntheticRun:
    learn_raw: object
    test_raw: object
    learn: object
    test: object
    spec: object
    params: object
    history: object
    losses: dict
    control_report: object


@pytest.fixture(scope="module")
def run():
    learn_raw, test_raw = lg.synth_generate(N_FULL, N_FULL,
                                            lg.rng_stream(DATA_SEED, "datagen"))
    learn, std = lg.standardize(learn_raw)
    test = lg.apply_standardize(test_raw, std)

    losses = {}
    losses["true"] = (lg.mse_loss(learn_raw.y, lg.true_mu(learn_raw.X)),
                      lg.mse_loss(test_raw.y, lg.true_mu(test_raw.X)))
    null = lg.fit_null(learn.y)
    losses["null"] = (lg.mse_loss(learn.y, np.full(learn.n, null)),
                      lg.mse_loss(test.y, np.full(test.n, null)))
    glm = lg.fit_glm(learn.X, learn.y)
    losses["glm"] = (lg.mse_loss(learn.y, glm.beta0 + learn.X @ glm.beta),
                     lg.mse_loss(test.y, glm.beta0 + test.X @ glm.beta))

    spec = lg.ModelSpec(q=8, hidden_dims=(20, 15, 10))
    config = lg.TrainConfig(batch_size=BATCH_SIZE, max_epochs=MAX_EPOCHS,
                            seed=TRAIN_SEED, patience=PATIENCE)
    params, history = lg.fit(learn, spec, config)
    losses["localglmnet"] = (lg.evaluate_loss(params, spec, learn),
                             lg.evaluate_loss(params, spec, test))

    beta_learn = lg.attention(params, spec, learn.X)
    report = lg.selection_report(beta_learn, learn.feature_names,
                                 control="x7", alpha=0.001)
    return SyntheticRun(learn_raw=learn_raw, test_raw=test_raw, learn=learn,
                        test=test, spec=spec, params=params, history=history,
                        losses=losses, control_report=report)


def early_stop_detail(best: int, epochs: int, digest: str) -> str:
    """The early-stop line's detail; a digest other than the 600-epoch run's
    adds the machine facts that differ from the machine that recorded it
    (the one ``tests/golden/machine.json`` describes)."""
    detail = (f"best epoch {best}, {epochs} epochs run, params sha256 {digest[:16]} "
              f"(600-epoch run: {FULL_RUN_PARAMS_SHA256[:16]})")
    if digest != FULL_RUN_PARAMS_SHA256:
        detail += "\n" + differing_facts_message()
    return detail


class TestEarlyStopping:
    def test_patience_returns_the_full_run_params(self, run):
        best, epochs = run.history.best_epoch, len(run.history.val_loss)
        digest = hashlib.sha256(run.params.flat.tobytes()).hexdigest()
        ok = (best == FULL_RUN_BEST_EPOCH and epochs == PATIENCE_RUN_EPOCHS
              and digest == FULL_RUN_PARAMS_SHA256)
        _line("0 early stop", ok, early_stop_detail(best, epochs, digest))

    def test_a_moved_digest_names_the_machine_facts(self):
        moved = early_stop_detail(FULL_RUN_BEST_EPOCH, PATIENCE_RUN_EPOCHS, "0" * 64)
        assert moved.splitlines()[1] == "machine facts that differ from the recording machine:"
        assert len(moved.splitlines()) > 2  # each differing fact, or "none"
        kept = early_stop_detail(FULL_RUN_BEST_EPOCH, PATIENCE_RUN_EPOCHS,
                                 FULL_RUN_PARAMS_SHA256)
        assert "machine facts" not in kept


class TestLossLadder:
    def test_true_function_mse(self, run):
        ins, out = run.losses["true"]
        _line("1a true-function MSE", 0.98 <= ins <= 1.02 and 0.98 <= out <= 1.02,
              f"in={ins:.4f} out={out:.4f} target [0.98, 1.02]")

    def test_null_model_mse(self, run):
        ins, out = run.losses["null"]
        _line("1b null-model MSE", 1.75 <= ins <= 1.83 and 1.75 <= out <= 1.83,
              f"in={ins:.4f} out={out:.4f} target [1.75, 1.83]")

    def test_glm_mse(self, run):
        ins, out = run.losses["glm"]
        _line("1c GLM MSE", 1.49 <= ins <= 1.56 and 1.49 <= out <= 1.56,
              f"in={ins:.4f} out={out:.4f} target [1.49, 1.56]")

    def test_localglmnet_mse(self, run):
        _, out = run.losses["localglmnet"]
        _, true_out = run.losses["true"]
        ok = out <= 1.05 and abs(out - true_out) <= 0.04
        _line("1d LocalGLMnet MSE", ok,
              f"out={out:.4f} (true {true_out:.4f}); need <= 1.05 and within 0.04")


class TestSelectionVerdicts:
    def test_keep_and_drop_verdicts(self, run):
        rep = run.control_report
        keeps = [rep.verdict_of(f"x{j}") for j in range(1, 7)]
        x8 = rep.verdict_of("x8")
        ok = all(v == "keep" for v in keeps) and x8 == "droppable"
        _line("2a selection verdicts", ok,
              f"x1..x6={keeps} x8={x8} (coverage x8="
              f"{next(r.coverage for r in rep.rows if r.feature == 'x8'):.4f})")

    def test_control_sd_band(self, run):
        sd = run.control_report.control_sd
        _line("2b control sd", 0.02 <= sd <= 0.10, f"s7={sd:.4f} target [0.02, 0.10]")


class TestAttentionShapes:
    def test_mean_attention_levels(self, run):
        beta = lg.attention(run.params, run.spec, run.test.X)
        m1 = float(beta[:, 0].mean())
        mabs = np.abs(beta).mean(axis=0)
        ok1 = 0.40 <= m1 <= 0.60
        ok2 = all(mabs[6] < mabs[j] and mabs[7] < mabs[j] for j in range(1, 6))
        _line("3 attention shapes", ok1 and ok2,
              f"mean b1={m1:.4f}; mean|b|={np.round(mabs, 4).tolist()}")


@pytest.fixture(scope="module")
def profiles(run):
    """The three focal profiles the checks read, from one Jacobian pass."""
    found = lg.interaction_profiles(run.params, run.spec, run.learn.X, ["x1", "x2", "x4"],
                                    feature_names=run.learn.feature_names)
    return {prof.focal: prof for prof in found}


class TestInteractionDetection:
    def test_focal_x1_flat(self, profiles):
        worst = float(np.abs(profiles["x1"].curves).max())
        _line("4a x1 sensitivities flat", worst < 0.1, f"max |curve| = {worst:.4f}")

    def test_focal_x4_linear_interaction_with_x5(self, profiles):
        curve = profiles["x4"].curves[4]
        level = float(np.abs(curve).mean())
        spread = float(curve.std())
        ok = level > 0.2 and spread < 0.5 * level
        _line("4b x4-x5 interaction", ok, f"level={level:.4f} sd={spread:.4f}")

    def test_focal_x2_quadratic_term(self, profiles):
        level = float(np.abs(profiles["x2"].curves[1]).mean())
        _line("4c x2 own-gradient level", level > 0.1, f"level={level:.4f}")


class TestGradientCorrectness:
    def test_random_configurations(self):
        rng = np.random.default_rng(20_26)
        h = 1e-5
        n_configs = 100
        worst_param, worst_jac = 0.0, 0.0
        for i in range(n_configs):
            q = int(rng.integers(2, 6))
            depth_hidden = int(rng.integers(0, 3))
            hidden = tuple(int(rng.integers(3, 8)) for _ in range(depth_hidden))
            family, link = (("gaussian", "identity"), ("poisson", "log"))[i % 2]
            spec = lg.ModelSpec(q=q, hidden_dims=hidden, family=family, link=link)
            params = lg.init_params(spec, lg.rng_stream(i, "accept-init"),
                                    output_bias=float(rng.normal(0.0, 0.3)))
            X = rng.standard_normal((5, q))
            if family == "poisson":
                v = rng.uniform(0.3, 1.0, 5)
                y = rng.poisson(1.0, 5).astype(float)
            else:
                v, y = None, rng.standard_normal(5)
            fam = lg.get_family(family)

            def loss_at(p):
                return fam.loss(y, lg.forward(p, spec, X, v).mu)

            _, grads = lg.loss_and_param_grads(params, spec, X, y, v)
            scale = max(np.abs(w).max() for w in grads.weights) + 1e-8
            for m in range(spec.depth):
                for idx in np.ndindex(params.weights[m].shape):
                    p1, p2 = params.copy(), params.copy()
                    p1.weights[m][idx] += h
                    p2.weights[m][idx] -= h
                    fd = (loss_at(p1) - loss_at(p2)) / (2 * h)
                    worst_param = max(worst_param,
                                      abs(grads.weights[m][idx] - fd) / scale)
                for idx in np.ndindex(params.biases[m].shape):
                    p1, p2 = params.copy(), params.copy()
                    p1.biases[m][idx] += h
                    p2.biases[m][idx] -= h
                    fd = (loss_at(p1) - loss_at(p2)) / (2 * h)
                    worst_param = max(worst_param,
                                      abs(grads.biases[m][idx] - fd) / scale)
            p1, p2 = params.copy(), params.copy()
            p1.beta0 += h
            p2.beta0 -= h
            fd = (loss_at(p1) - loss_at(p2)) / (2 * h)
            worst_param = max(worst_param, abs(grads.beta0 - fd) / (abs(fd) + scale))

            x = rng.standard_normal(q)
            J = lg.batch_input_jacobian(params, spec, x[None])[0]
            jscale = np.abs(J).max() + 1e-8
            for k in range(q):
                xp, xm = x.copy(), x.copy()
                xp[k] += h
                xm[k] -= h
                fd = (lg.attention(params, spec, xp[None, :])[0]
                      - lg.attention(params, spec, xm[None, :])[0]) / (2 * h)
                worst_jac = max(worst_jac, float(np.abs(J[:, k] - fd).max()) / jscale)
        ok = worst_param < 1e-4 and worst_jac < 1e-4
        _line("5 gradient correctness", ok,
              f"{n_configs} configs; worst param rel err {worst_param:.2e}, "
              f"worst jacobian rel err {worst_jac:.2e}")


class TestExactnessInvariants:
    def test_additive_decomposition(self, run):
        trace = lg.forward(run.params, run.spec, run.test.X)
        recon = run.params.beta0 + np.sum(trace.attentions * run.test.X, axis=1)
        worst = float(np.abs(trace.eta - recon).max())
        _line("6a additive decomposition", worst <= 1e-12, f"max residual {worst:.2e}")

    def test_glm_matches_least_squares(self):
        rng = np.random.default_rng(77)
        X = rng.standard_normal((150, 6))
        y = rng.standard_normal(150)
        fit = lg.fit_glm(X, y)
        coef, *_ = np.linalg.lstsq(np.column_stack([np.ones(150), X]), y, rcond=None)
        worst = float(np.abs(np.r_[fit.beta0, fit.beta] - coef).max())
        _line("6b GLM vs least-squares oracle", worst <= 1e-8, f"max diff {worst:.2e}")

    def test_tail_quantile_value(self):
        got = lg.interval(0.001, 1.0)[0]
        _line("6c tail quantile", abs(got - (-3.2905)) <= 1e-3, f"got {got:.6f}")


class TestPipelineDeterminism:
    def test_pipeline_byte_identical(self, tmp_path):
        schema = tmp_path / "schema.txt"
        schema.write_text("".join(f"x{j}: continuous\n" for j in range(1, 9))
                          + "y: response\n")
        model_cfg = tmp_path / "model.cfg"
        model_cfg.write_text("hidden_dims = 20,15,10\nfamily = gaussian\nlink = identity\n")
        train_cfg = tmp_path / "train.cfg"
        train_cfg.write_text("learning_rate = 0.002\nbatch_size = 500\n"
                             "max_epochs = 10\nval_fraction = 0.2\nseed = 7\n")

        outputs = []
        for tag in ("one", "two"):
            base = tmp_path / tag
            assert cli_main(["synth", "--n-learn", "2000", "--n-test", "1000",
                             "--seed", "5", "--out-dir", str(base / "data")]) == 0
            assert cli_main(["fit", "--learn", str(base / "data" / "learn.csv"),
                             "--test", str(base / "data" / "test.csv"),
                             "--schema", str(schema), "--spec", str(model_cfg),
                             "--train-config", str(train_cfg), "--seed", "7",
                             "--synthetic-truth",
                             "--out-dir", str(base / "fit")]) == 0
            assert cli_main(["report", "--model", str(base / "fit" / "model.json"),
                             "--data", str(base / "data" / "test.csv"),
                             "--schema", str(schema), "--control", "x7",
                             "--sample", "500", "--seed", "11",
                             "--out-dir", str(base / "report")]) == 0
            files = {}
            for sub in ("data", "fit", "report"):
                for name in sorted(os.listdir(base / sub)):
                    files[f"{sub}/{name}"] = (base / sub / name).read_bytes()
            outputs.append(files)
        same_names = sorted(outputs[0]) == sorted(outputs[1])
        diffs = [k for k in outputs[0] if outputs[0][k] != outputs[1].get(k)]
        _line("7 determinism", same_names and not diffs,
              f"{len(outputs[0])} files compared; mismatches: {diffs or 'none'}")


class TestPoissonPathway:
    def test_null_deviance_matches_sum_oracle(self):
        rng = np.random.default_rng(123)
        n = 500
        v = rng.uniform(0.2, 1.0, n)
        y = rng.poisson(v * 1.7).astype(float)
        freq = lg.fit_null(y, v, lg.get_family("poisson"))
        mu = v * freq
        got = lg.poisson_deviance(y, mu)
        # Independent elementwise oracle for the mean deviance.
        total = 0.0
        for yi, mi in zip(y, mu):
            term = mi - yi
            if yi > 0:
                term -= yi * math.log(mi / yi)
            total += 2.0 * term
        oracle = total / n
        _line("8a Poisson null deviance vs oracle", abs(got - oracle) <= 1e-10,
              f"|{got:.12f} - {oracle:.12f}| = {abs(got - oracle):.2e}")

    def test_poisson_training_smoke(self):
        rng = lg.rng_stream(31, "pois-smoke")
        n = 2000
        X = rng.standard_normal((n, 3))
        v = rng.uniform(0.5, 1.0, n)
        y = rng.poisson(v * np.exp(0.1 + 0.4 * X[:, 0] - 0.2 * X[:, 1])).astype(float)
        ds = lg.Dataset(X=X, y=y, v=v, feature_names=["a", "b", "c"],
                        feature_kinds=["continuous"] * 3, groups={})
        spec = lg.ModelSpec(q=3, hidden_dims=(6,), family="poisson", link="log")
        params, hist = lg.fit(ds, spec, lg.TrainConfig(batch_size=250, max_epochs=30,
                                                       seed=3))
        ok = (np.isfinite(hist.val_loss).all()
              and hist.best_val_loss <= hist.val_loss[0])
        _line("8b Poisson training smoke", ok,
              f"first val {hist.val_loss[0]:.4f} -> best {hist.best_val_loss:.4f}")
