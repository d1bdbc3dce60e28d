"""Exponential-dispersion families, their losses, and GLM baselines.

Two response families are supported: Gaussian responses scored by mean
squared error, and Poisson counts with exposures scored by mean Poisson
deviance. Both losses are strictly consistent for the mean, nonnegative,
and zero at a saturated fit. Each family owns its canonical link: ``link``
names it, ``g`` maps the mean to the linear predictor, ``inv`` maps back,
``variance`` is V(mu), and ``eta_max`` bounds the linear predictor the
network's mean follows. The GLM fit uses iteratively reweighted least
squares with step-halving.
"""

from dataclasses import dataclass

import numpy as np

from .errors import NumericError

__all__ = [
    "Gaussian",
    "Poisson",
    "get_family",
    "mse_loss",
    "poisson_deviance",
    "fit_null",
    "fit_glm",
    "GlmFit",
]

GLM_MAX_ITER = 100
GLM_TOL = 1e-10


class Gaussian:
    """Gaussian family: quadratic cumulant, identity canonical link, MSE loss."""

    name = "gaussian"
    link = "identity"
    uses_exposure = False
    eta_max = np.inf

    def g(self, mu):
        return mu

    def inv(self, eta):
        return eta

    def variance(self, mu):
        return np.ones_like(mu)

    def loss(self, y, mu):
        return mse_loss(y, mu)


class Poisson:
    """Poisson family: exponential cumulant, log canonical link, deviance loss.

    Exposure enters the mean multiplicatively, mu = v * exp(eta), which is
    the offset-log(v) parameterization of a count rate per unit exposure.
    """

    name = "poisson"
    link = "log"
    uses_exposure = True
    eta_max = 30.0  # the network clamps eta here before exp, against overflow

    def g(self, mu):
        return np.log(mu)

    def inv(self, eta):
        return np.exp(eta)

    def variance(self, mu):
        return mu

    def loss(self, y, mu):
        return poisson_deviance(y, mu)


_FAMILIES = {"gaussian": Gaussian(), "poisson": Poisson()}


def get_family(name: str):
    try:
        return _FAMILIES[name]
    except KeyError:
        raise ValueError(f"unknown family {name!r}; choose from {sorted(_FAMILIES)}") from None


def mse_loss(y: np.ndarray, mu: np.ndarray) -> float:
    """Mean squared error (1/n) sum (y_i - mu_i)^2."""
    y = np.asarray(y, dtype=float)
    mu = np.asarray(mu, dtype=float)
    if y.shape != mu.shape:
        raise ValueError(f"length mismatch: y has shape {y.shape}, mu has {mu.shape}")
    if y.size == 0:
        raise ValueError("need at least one observation")
    return float(np.mean((y - mu) ** 2))


def poisson_deviance(y: np.ndarray, mu: np.ndarray) -> float:
    """Mean Poisson deviance (2/n) sum (mu_i - y_i - y_i log(mu_i / y_i)).

    The y_i = 0 term is read as plain mu_i (the y log y -> 0 limit).
    Exposures enter through the mean, mu = v * exp(eta).
    """
    y = np.asarray(y, dtype=float)
    mu = np.asarray(mu, dtype=float)
    if y.shape != mu.shape:
        raise ValueError(f"length mismatch: y has shape {y.shape}, mu has {mu.shape}")
    if y.size == 0:
        raise ValueError("need at least one observation")
    if np.any(mu <= 0.0):
        raise ValueError("Poisson deviance requires mu > 0")
    if np.any(y < 0.0):
        raise ValueError("Poisson deviance requires y >= 0")
    terms = mu - y
    pos = y > 0
    terms[pos] -= y[pos] * np.log(mu[pos] / y[pos])
    return float(2.0 * np.mean(terms))


def fit_null(y: np.ndarray, v: np.ndarray | None = None, family=None) -> float:
    """Loss-minimizing constant: the mean for Gaussian, sum(y)/sum(v) for Poisson.

    For the Poisson family the returned value is the frequency per unit
    exposure; the fitted mean for instance i is v_i times this value.
    """
    y = np.asarray(y, dtype=float)
    if y.size == 0:
        raise ValueError("need a nonempty dataset")
    family = family or Gaussian()
    if not family.uses_exposure:
        return float(np.mean(y))
    v = np.ones_like(y) if v is None else np.asarray(v, dtype=float)
    total = float(np.sum(v))
    if total == 0.0:
        raise ValueError("total exposure is zero")
    return float(np.sum(y) / total)


@dataclass
class GlmFit:
    """Fitted GLM: intercept, coefficient vector, convergence info, family."""

    beta0: float
    beta: np.ndarray
    deviance: float
    n_iter: int
    family: object

    def predict(self, X: np.ndarray, v: np.ndarray | None = None) -> np.ndarray:
        """Response-scale mean; exposure enters as the offset log(v)."""
        eta = self.beta0 + np.asarray(X, dtype=float) @ self.beta
        if v is not None and self.family.uses_exposure:
            eta = eta + np.log(np.asarray(v, dtype=float))
        return self.family.inv(eta)


def _check_full_rank(X: np.ndarray, column_names) -> None:
    import scipy.linalg  # imported here so loading the CLI stays light

    _, R, piv = scipy.linalg.qr(X, mode="economic", pivoting=True)
    diag = np.abs(np.diag(R))
    tol = diag.max() * max(X.shape) * np.finfo(float).eps
    rank = int(np.sum(diag > tol))
    if rank < X.shape[1]:
        names = column_names or [f"col{j}" for j in range(X.shape[1] - 1)]
        # Column 0 is the internal intercept; report the trailing pivots.
        bad = sorted(int(j) - 1 for j in piv[rank:])
        labels = ["intercept" if j < 0 else str(names[j]) for j in bad]
        raise NumericError(
            "design matrix is rank deficient; collinear columns: " + ", ".join(labels)
        )


def fit_glm(
    X: np.ndarray,
    y: np.ndarray,
    v: np.ndarray | None = None,
    family=None,
    column_names=None,
) -> GlmFit:
    """Fit a GLM by IRLS with step-halving.

    The link is the family's canonical one, so the IRLS weight is the
    variance function V(mu). Exposure is treated as an offset log(v) when
    the family uses one; exposures must then be positive. Converges when
    the relative deviance change drops below ``GLM_TOL`` (at most
    ``GLM_MAX_ITER`` iterations); rank-deficient designs raise
    :class:`NumericError` naming the collinear columns.
    """
    X = np.asarray(X, dtype=float)
    y = np.asarray(y, dtype=float)
    n = y.shape[0]
    family = family or Gaussian()
    v = np.ones(n) if v is None else np.asarray(v, dtype=float)

    design = np.column_stack([np.ones(n), X])
    _check_full_rank(design, column_names)
    if family.uses_exposure and np.any(v <= 0.0):
        raise ValueError("exposures must be positive")
    offset = np.log(v) if family.uses_exposure else np.zeros(n)

    # Null start: intercept at the link-scale null value, slopes zero.
    coef = np.zeros(design.shape[1])
    coef[0] = float(family.g(fit_null(y, v, family)))

    def mean_of(c):
        return family.inv(design @ c + offset)

    dev = family.loss(y, mean_of(coef))
    n_iter = 0
    with np.errstate(over="ignore", invalid="ignore"):
        for n_iter in range(1, GLM_MAX_ITER + 1):
            eta = design @ coef + offset
            mu = family.inv(eta)
            w = family.variance(mu)
            z = (eta - offset) + (y - mu) / np.maximum(w, 1e-300)
            sw = np.sqrt(w)
            new_coef, *_ = np.linalg.lstsq(design * sw[:, None], z * sw, rcond=None)
            # Step-halving keeps the deviance from increasing on bad steps.
            step = new_coef - coef
            new_dev = dev
            for _ in range(30):
                cand = coef + step
                try:
                    new_dev = family.loss(y, mean_of(cand))
                except ValueError:
                    new_dev = np.inf
                if np.isfinite(new_dev) and new_dev <= dev + 1e-14 * max(1.0, abs(dev)):
                    break
                step = step / 2.0
            coef = coef + step
            prev, dev = dev, float(new_dev if np.isfinite(new_dev) else dev)
            if abs(prev - dev) <= GLM_TOL * max(1.0, abs(prev)):
                break
    return GlmFit(beta0=float(coef[0]), beta=coef[1:].copy(), deviance=dev, n_iter=n_iter,
                  family=family)
