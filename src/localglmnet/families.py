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
from .linalg import _row_blocks

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

    @staticmethod
    def _batch_loss(y, mu, resid):
        """Mean squared error from ``resid`` = mu - y, which it overwrites; y and mu
        are nonempty and of one shape. ``mse_loss`` adds those checks."""
        resid *= resid
        return float(np.add.reduce(resid, axis=None) / resid.size)


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

    @staticmethod
    def _batch_loss(y, mu, resid):
        """Mean Poisson deviance from ``resid`` = mu - y, which it overwrites; y and
        mu are nonempty and of one shape. ``poisson_deviance`` adds those checks."""
        # fmin skips NaN, so these read as any(mu <= 0) and any(y < 0) without a mask.
        if np.fmin.reduce(mu, axis=None) <= 0.0:
            raise ValueError("Poisson deviance requires mu > 0")
        if np.fmin.reduce(y, axis=None) < 0.0:
            raise ValueError("Poisson deviance requires y >= 0")
        pos = y > 0
        y_pos = y[pos]
        resid[pos] -= y_pos * np.log(mu[pos] / y_pos)
        return float(2.0 * (np.add.reduce(resid, axis=None) / resid.size))


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
    return Gaussian._batch_loss(y, mu, mu - y)


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
    return Poisson._batch_loss(y, mu, mu - y)


def _check_exposures(v: np.ndarray, family) -> None:
    """The exposure rule of every fit: v > 0 (NaN fails) when ``family`` uses exposures."""
    if family.uses_exposure and not (v > 0.0).all():
        bad = int(np.argmin(v > 0.0))
        raise ValueError(f"exposures must be positive; row index {bad} has exposure "
                         f"{float(v[bad])!r}")


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
    _check_exposures(v, family)
    return float(np.sum(y) / np.sum(v))


def _null_eta(y: np.ndarray, v: np.ndarray, family) -> float:
    """The null value on the link scale: the GLM's IRLS start and the network's
    output bias. Raises ValueError when a log link meets a null mean of 0."""
    mu = fit_null(y, v, family)
    if family.link == "log" and mu == 0.0:
        raise ValueError("every response is 0, so the null mean is 0 and its log is -inf; "
                         "a log-link fit needs a positive response")
    return float(family.g(mu))


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


def _r_factor(n: int, m: int, block_of) -> np.ndarray:
    """The (m, m) R factor of the n-row matrix whose rows ``rows`` are ``block_of(rows)``.

    Built by TSQR (Demmel, Grigori, Hoemmen & Langou 2012): each row block is
    stacked under the R so far and re-triangularized, so no n-row matrix is
    ever formed. R^T R is the matrix's Gram matrix, so R has the matrix's
    column norms and gives its least-squares solutions. Starting from a zero
    R adds every block the same way and keeps R square when n < m.
    """
    R = np.zeros((m, m))
    for rows in _row_blocks(n):
        R = np.linalg.qr(np.vstack([R, block_of(rows)]), mode="r")
    return R


def _check_full_rank(X: np.ndarray, column_names) -> None:
    """Raise NumericError naming the collinear columns when [1, X] is rank deficient.

    The rank is read from a column-pivoted QR (Businger & Golub 1965) of the
    small R factor of [1, X], which has the same column norms, so the same
    pivots, as the design itself.
    """
    n, m = X.shape[0], X.shape[1] + 1
    R = _r_factor(n, m, lambda rows: np.column_stack([np.ones(rows.stop - rows.start), X[rows]]))
    piv = np.arange(m)
    for k in range(m):
        # Move the column of largest remaining norm to k, then reduce it.
        j = k + int(np.argmax(np.sum(R[k:, k:] ** 2, axis=0)))
        R[:, [k, j]] = R[:, [j, k]]
        piv[[k, j]] = piv[[j, k]]
        R[k:, k:] = np.linalg.qr(R[k:, k:], mode="r")
    diag = np.abs(np.diag(R))
    tol = diag.max() * max(n, m) * np.finfo(float).eps
    rank = int(np.sum(diag > tol))
    if rank < m:
        names = column_names or [f"col{j}" for j in range(m - 1)]
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
    :class:`NumericError` naming the collinear columns. Each weighted
    least-squares step solves against the R factor of [sqrt(w), sqrt(w) X,
    sqrt(w) z], built over row blocks, so no copy of the design is made.
    """
    X = np.asarray(X, dtype=float)
    y = np.asarray(y, dtype=float)
    n, m = y.shape[0], X.shape[1] + 1
    family = family or Gaussian()
    v = np.ones(n) if v is None else np.asarray(v, dtype=float)

    _check_full_rank(X, column_names)
    _check_exposures(v, family)
    offset = np.log(v) if family.uses_exposure else np.zeros(n)

    # Null start: intercept at the link-scale null value, slopes zero.
    coef = np.zeros(m)
    coef[0] = _null_eta(y, v, family)

    def eta_of(c):
        return c[0] + X @ c[1:] + offset

    dev = family.loss(y, family.inv(eta_of(coef)))
    n_iter = 0
    with np.errstate(over="ignore", invalid="ignore"):
        for n_iter in range(1, GLM_MAX_ITER + 1):
            eta = eta_of(coef)
            mu = family.inv(eta)
            w = family.variance(mu)
            z = (eta - offset) + (y - mu) / np.maximum(w, 1e-300)
            sw = np.sqrt(w)
            R = _r_factor(n, m + 1, lambda rows: np.column_stack(
                [sw[rows], X[rows] * sw[rows, None], z[rows] * sw[rows]]))
            new_coef = np.linalg.solve(R[:m, :m], R[:m, m])
            # Step-halving keeps the deviance from increasing on bad steps.
            step = new_coef - coef
            new_dev = dev
            for _ in range(30):
                cand = coef + step
                try:
                    new_dev = family.loss(y, family.inv(eta_of(cand)))
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
