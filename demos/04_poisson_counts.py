"""Count responses with exposures: the Poisson pathway.

Claim-count style data: each instance has an exposure v in (0, 1] and a
count response. The Poisson family brings its canonical log link, with
the exposure as a multiplicative offset, mu = v * exp(beta0 + <beta(x), x>),
and both training and evaluation use the mean Poisson deviance.
"""

import numpy as np

import localglmnet as lg

N = 30_000
rng = lg.rng_stream(4, "counts")

X = rng.standard_normal((N, 4))
v = rng.uniform(0.2, 1.0, N)
# Log-rate with a nonlinearity and an interaction, plus one dead feature.
log_rate = (-1.0 + 0.4 * X[:, 0] - 0.3 * X[:, 1] ** 2
            + 0.3 * X[:, 2] + 0.2 * X[:, 2] * X[:, 1])
y = rng.poisson(v * np.exp(log_rate)).astype(float)
names = ["driver_age", "density", "vehicle_age", "noise"]
ds = lg.Dataset(X=X, y=y, v=v, feature_names=names,
                feature_kinds=["continuous"] * 4, groups={})
print(f"{N} instances, mean exposure {v.mean():.3f}, mean count {y.mean():.3f}")

null = lg.fit_null(ds.y, ds.v, lg.get_family("poisson"))
null_dev = lg.poisson_deviance(ds.y, ds.v * null)
print(f"null frequency {null:.4f}, null deviance {null_dev:.4f}")

glm = lg.fit_glm(ds.X, ds.y, ds.v, lg.get_family("poisson"), column_names=names)
glm_mu = glm.predict(ds.X, ds.v)
print(f"GLM deviance {lg.poisson_deviance(ds.y, glm_mu):.4f} "
      f"(slopes {np.round(glm.beta, 3).tolist()})")

spec = lg.ModelSpec(q=4, hidden_dims=(15, 10), family="poisson")  # log link
params, history = lg.fit(ds, spec, lg.TrainConfig(batch_size=3000, max_epochs=120,
                                                  seed=2))
print(f"LocalGLMnet deviance {lg.evaluate_loss(params, spec, ds):.4f} "
      f"(best epoch {history.best_epoch})")

beta = lg.attention(params, spec, ds.X)
vi = lg.variable_importance(beta, names)
print("importance ranking:", ", ".join(vi.features[j] for j in vi.order))
print("\nThe deviance ladder mirrors the Gaussian case, and the noise column"
      "\nlands last in the importance ranking.")
