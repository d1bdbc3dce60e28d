"""Nadam minibatch training with validation split and early stopping.

The training loop scans all epochs and returns the parameter snapshot
with the smallest validation loss (no early abort unless a patience is
set), so the selected model is exactly reproducible from the history.
All shuffling and splitting is driven by the config seed.
"""

import time
import warnings
from dataclasses import dataclass, field

import numpy as np

from .data import write_rows
from .errors import ConfigError, NumericError
from .families import _check_exposures, _null_eta, get_family
from .linalg import _row_blocks, rng_stream
from .model import ModelSpec, Params, _as_input, forward, init_params, loss_and_param_grads

__all__ = [
    "TrainConfig",
    "TrainHistory",
    "split_indices",
    "nadam_step",
    "evaluate_loss",
    "fit",
]

# Nadam's moment decays and denominator guard: the Keras defaults (Dozat 2016).
BETA1, BETA2, EPS = 0.9, 0.999, 1e-7


@dataclass
class TrainConfig:
    learning_rate: float = 0.002
    batch_size: int = 5000
    max_epochs: int = 100
    val_fraction: float = 0.2
    seed: int = 0
    shuffle: bool = True
    patience: int | None = None  # optional early abort; default scans all epochs

    def __post_init__(self):
        if not self.learning_rate > 0.0:
            raise ConfigError(f"learning_rate must be > 0, got {self.learning_rate}")
        if self.patience is not None and self.patience < 1:
            raise ConfigError(f"patience must be >= 1, got {self.patience}")
        if not 0.0 < self.val_fraction < 1.0:
            raise ConfigError(f"val_fraction must be in (0, 1), got {self.val_fraction}")
        if self.batch_size < 1:
            raise ConfigError(f"batch_size must be >= 1, got {self.batch_size}")
        if self.max_epochs < 1:
            raise ConfigError(f"max_epochs must be >= 1, got {self.max_epochs}")


@dataclass
class TrainHistory:
    """Per-epoch losses and timings.

    ``train_loss[e]`` is the row-weighted mean of the batch losses of epoch
    e + 1, each taken before its own step (the Keras convention), so it
    costs no extra pass; ``val_loss[e]`` is the validation loss after the
    epoch's last step and alone drives model selection.
    """

    train_loss: list = field(default_factory=list)
    val_loss: list = field(default_factory=list)
    epoch_seconds: list = field(default_factory=list)
    best_epoch: int = 0

    @property
    def best_val_loss(self) -> float:
        return self.val_loss[self.best_epoch - 1]

    def write_csv(self, path) -> None:
        write_rows(path, ["epoch", "train_loss", "val_loss"],
                   [[e, repr(tr), repr(va)]
                    for e, (tr, va) in enumerate(zip(self.train_loss, self.val_loss), start=1)])


def split_indices(n: int, val_fraction: float, rng: np.random.Generator):
    """Disjoint, exhaustive (train, validation) index split.

    The validation size is the rounded fraction, clamped so both parts
    are nonempty; the partition is a seeded permutation.
    """
    if n < 2:
        raise ValueError(f"need at least 2 instances to split, got {n}")
    n_val = int(round(n * val_fraction))
    n_val = min(max(n_val, 1), n - 1)
    perm = rng.permutation(n)
    return np.sort(perm[n_val:]), np.sort(perm[:n_val])


def nadam_step(params: Params, grads: Params, m: np.ndarray, v: np.ndarray, t: int,
               config: TrainConfig) -> None:
    """One Nadam update of ``params.flat`` and the moment vectors m, v, in place.

    Standard exponential moments with a Nesterov-style lookahead on the
    bias-corrected first moment:

        m_hat = beta1 * m_t / (1 - beta1^(t+1)) + (1 - beta1) * g / (1 - beta1^t)
        v_hat = v_t / (1 - beta2^t)
        step  = lr * m_hat / (sqrt(v_hat) + eps)
    """
    if t < 1:
        raise ValueError(f"step index must be >= 1, got {t}")
    g = grads.flat
    if not np.isfinite(g).all():
        raise NumericError("non-finite gradient in optimizer step")
    b1, b2, lr = BETA1, BETA2, config.learning_rate
    # The update below in the order of the formulas above, through three buffers.
    m *= b1
    g1 = (1.0 - b1) * g
    m += g1
    v *= b2
    g2 = (1.0 - b2) * g
    g2 *= g
    v += g2
    step = b1 * m
    step /= 1.0 - b1 ** (t + 1)
    g1 /= 1.0 - b1 ** t
    step += g1  # m_hat
    den = np.divide(v, 1.0 - b2 ** t, out=g2)
    np.sqrt(den, out=den)
    den += EPS
    step *= lr
    step /= den
    params.flat -= step


def evaluate_loss(params: Params, spec: ModelSpec, dataset) -> float:
    """Mean deviance of the model on a dataset.

    The means come from forward passes over blocks of EVAL_BLOCK_ROWS rows,
    so no pass holds every layer's activations for all rows at once.
    """
    X = _as_input(spec, dataset.X)
    mu = np.empty(X.shape[0])
    for rows in _row_blocks(X.shape[0]):
        mu[rows] = forward(params, spec, X[rows], dataset.v[rows]).mu
    return get_family(spec.family).loss(dataset.y, mu)


def fit(dataset, spec: ModelSpec, config: TrainConfig):
    """Train on a seeded train/validation split; return best-validation params.

    Each batch is gathered from ``dataset`` by its rows' indices, so only the
    validation rows are copied. The returned parameters are a full copy
    snapshotted at the epoch with the smallest validation loss. History
    covers every epoch run. A family with exposures rejects a non-positive
    exposure before the first step, naming its row index.
    """
    if dataset.q != spec.q:
        raise ConfigError(f"dataset has {dataset.q} feature columns, spec expects {spec.q}")
    family = get_family(spec.family)
    _check_exposures(dataset.v, family)
    idx_train, idx_val = split_indices(dataset.n, config.val_fraction,
                                       rng_stream(config.seed, "split"))
    val_set = dataset.subset(idx_val)
    params = init_params(spec, rng_stream(config.seed, "init"),
                         output_bias=_null_eta(dataset.y[idx_train], dataset.v[idx_train],
                                               family))
    m, v = np.zeros_like(params.flat), np.zeros_like(params.flat)
    shuffle_rng = rng_stream(config.seed, "shuffle")

    history = TrainHistory()
    best_params = params.copy()
    best_val = np.inf
    n_clamped = 0
    t = 0
    n_train = len(idx_train)
    for epoch in range(1, config.max_epochs + 1):
        tic = time.perf_counter()
        order = idx_train[shuffle_rng.permutation(n_train)] if config.shuffle else idx_train
        loss_sum = 0.0
        for start in range(0, n_train, config.batch_size):
            idx = order[start:start + config.batch_size]
            try:  # take gathers rows as X[idx] does, at a fraction of its per-call cost
                loss, grads = loss_and_param_grads(params, spec, dataset.X.take(idx, axis=0),
                                                   dataset.y[idx], dataset.v[idx])
            except NumericError as exc:
                raise NumericError(
                    f"epoch {epoch}, batch starting at {start}: {exc}") from exc
            loss_sum += loss * len(idx)
            n_clamped += grads.n_clamped
            t += 1
            nadam_step(params, grads, m, v, t, config)
        val_loss = evaluate_loss(params, spec, val_set)
        history.train_loss.append(loss_sum / n_train)
        history.val_loss.append(val_loss)
        history.epoch_seconds.append(time.perf_counter() - tic)
        if val_loss < best_val:
            best_val = val_loss
            best_params = params.copy()
            history.best_epoch = epoch
        if config.patience is not None and epoch - history.best_epoch >= config.patience:
            break
    if n_clamped:
        warnings.warn(f"linear predictor clamp engaged on {n_clamped} training batch "
                      "rows", RuntimeWarning, stacklevel=2)
    return best_params, history
