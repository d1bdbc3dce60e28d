"""The LocalGLMnet architecture.

A feed-forward tower maps the q-dimensional input back to q regression
attentions beta(x); the skip connection then forms the linear predictor

    eta(x) = beta0 + <beta(x), x>

so the link-scale response decomposes additively into per-feature
contributions beta_j(x) * x_j. The tower is small and fixed, so the
backward pass (parameter gradients) and input Jacobians d beta_j / d x_k
are derived by hand instead of going through an autodiff tape.
"""

import base64
import json
from dataclasses import dataclass

import numpy as np

from .errors import ConfigError, NumericError
from .families import get_family
from .linalg import _row_blocks

__all__ = [
    "ModelSpec",
    "Params",
    "init_params",
    "forward",
    "attention",
    "loss_and_param_grads",
    "batch_input_jacobian",
    "save_model",
    "load_model",
]


@dataclass(frozen=True)
class ModelSpec:
    """Architecture description: widths and response family.

    ``hidden_dims`` are the widths of the intermediate tower layers; the
    tower input and output are both q. Every hidden layer is tanh and the
    output layer is linear, so its outputs are the attentions beta(x).
    ``link`` is the family's canonical link (identity for gaussian, log
    for poisson) and may be left out; any other link raises ValueError.
    """

    q: int
    hidden_dims: tuple[int, ...] = ()
    family: str = "gaussian"
    link: str = None

    def __post_init__(self):
        if self.q < 1:
            raise ValueError(f"feature dimension must be >= 1, got {self.q}")
        object.__setattr__(self, "hidden_dims", tuple(int(h) for h in self.hidden_dims))
        if any(h < 1 for h in self.hidden_dims):
            raise ValueError(f"hidden_dims must be >= 1, got {self.hidden_dims}")
        canonical = get_family(self.family).link
        if self.link not in (None, canonical):
            raise ValueError(f"family {self.family!r} takes only its canonical link "
                             f"{canonical!r}, got link {self.link!r}")
        object.__setattr__(self, "link", canonical)

    @property
    def layer_dims(self) -> tuple:
        """(q_0, q_1, ..., q_d) with q_0 = q_d = q."""
        return (self.q, *self.hidden_dims, self.q)

    @property
    def depth(self) -> int:
        return len(self.hidden_dims) + 1

    @property
    def activations(self) -> tuple:
        """The layer tags a model file stores: tanh per hidden layer, then linear."""
        return ("tanh",) * len(self.hidden_dims) + ("linear",)


class Params:
    """All trainable state in one contiguous float64 vector ``flat``.

    ``flat`` holds every layer's weights, then every layer's biases, then
    the output bias. ``weights[m]`` (shape (q_m, q_{m+1}), so layer m maps
    activations by ``z @ weights[m] + biases[m]``) and ``biases[m]`` are
    views into ``flat``: write them in place (``weights[m][:] = ...``).
    ``beta0`` is the intercept added after the scalar product with the input.
    """

    def __init__(self, layer_dims):
        self.layer_dims = tuple(layer_dims)
        shapes = list(zip(self.layer_dims[:-1], self.layer_dims[1:]))
        self.flat = np.zeros(sum(a * b + b for a, b in shapes) + 1)
        self.weights, self.biases, start = [], [], 0
        for a, b in shapes:
            self.weights.append(self.flat[start:start + a * b].reshape(a, b))
            start += a * b
        for _, b in shapes:
            self.biases.append(self.flat[start:start + b])
            start += b

    @property
    def beta0(self) -> float:
        return float(self.flat[-1])

    @beta0.setter
    def beta0(self, value: float) -> None:
        self.flat[-1] = value

    def copy(self) -> "Params":
        dup = Params(self.layer_dims)
        dup.flat[:] = self.flat
        return dup

    def check_finite(self) -> None:
        if not np.all(np.isfinite(self.flat)):
            raise NumericError("non-finite parameters")


@dataclass
class ForwardTrace:
    """Cached forward pass for one batch.

    ``activations[0]`` is the input; ``attentions`` is the tower output
    beta(x); ``eta`` is beta0 + row-sums of attentions * x; ``mu`` is the
    mean on the response scale (exposure-scaled when the family uses one).
    ``n_clamped`` counts entries of eta outside the family's ``eta_max``,
    where mu is held at its clamped value. Under the identity link mu is
    eta itself, the same array.
    """

    activations: list
    attentions: np.ndarray
    eta: np.ndarray
    mu: np.ndarray
    n_clamped: int = 0


def init_params(spec: ModelSpec, rng: np.random.Generator, output_bias: float = 0.0) -> Params:
    """Glorot-uniform weights, zero biases, output bias as given.

    Callers that know the data pass the link-scale null value as
    ``output_bias`` so training starts from the null model.
    """
    params = Params(spec.layer_dims)
    for w in params.weights:
        fan_in, fan_out = w.shape
        bound = np.sqrt(6.0 / (fan_in + fan_out))
        w[:] = rng.uniform(-bound, bound, size=(fan_in, fan_out))
    params.beta0 = output_bias
    return params


def _as_input(spec: ModelSpec, X) -> np.ndarray:
    """X as a float array, which must have shape (n, q)."""
    X = np.asarray(X, dtype=float)
    if X.ndim != 2 or X.shape[1] != spec.q:
        raise ValueError(f"X must have shape (n, {spec.q}), got {X.shape}")
    return X


def _tower(params: Params, spec: ModelSpec, X: np.ndarray):
    """Run the attention tower on a checked input, returning the per-layer activations.

    ``acts[0]`` is X and ``acts[m + 1]`` the output of layer m: tanh of its
    pre-activation for a hidden layer, the pre-activation itself for the
    output layer. Each layer's bias add and tanh run in the buffer of its
    matrix product; the finite check comes before the tanh, which would
    squash an infinite pre-activation to +-1.
    """
    acts = [X]
    last = spec.depth - 1
    for m in range(spec.depth):
        a = acts[-1] @ params.weights[m]
        a += params.biases[m]
        if not np.isfinite(a).all():
            raise NumericError(f"non-finite activations in layer {m + 1}")
        if m < last:
            np.tanh(a, out=a)
        acts.append(a)
    return acts


def _row_sums(a: np.ndarray) -> np.ndarray:
    """``a.sum(axis=1)`` with the same bytes, faster on narrow rows.

    Below 8 columns numpy adds each row's entries left to right onto a +0.0
    start, one inner-loop call per row; the same sums taken a column at a
    time need one call per column. From 8 columns on numpy sums pairwise,
    so its own sum is used.
    """
    if a.shape[1] >= 8:
        return a.sum(axis=1)
    sums = a[:, 0] + 0.0
    for k in range(1, a.shape[1]):
        sums += a[:, k]
    return sums


def _mean(beta0: float, family, prod: np.ndarray, v):
    """``(eta, mu, n_clamped)`` from ``prod`` = beta(x) * x, the attentions times the input.

    eta = beta0 + the row sums of ``prod``; mu is the family's mean of eta
    clamped to +-``eta_max``, times the exposure when the family uses one;
    ``n_clamped`` counts the entries of eta past the clamp. A family without
    a clamp (``eta_max`` inf: identity link) skips it, and its mu is eta itself.
    """
    eta = _row_sums(prod)
    eta += beta0
    if family.eta_max == np.inf:
        return eta, family.inv(eta), 0
    bound = family.eta_max
    n_clamped = int(np.count_nonzero(np.abs(eta) > bound))
    mu = np.minimum(eta, bound)
    np.maximum(mu, -bound, out=mu)
    mu = family.inv(mu)
    if family.uses_exposure and v is not None:
        mu *= np.asarray(v, dtype=float)
    return eta, mu, n_clamped


def forward(params: Params, spec: ModelSpec, X: np.ndarray,
            v: np.ndarray | None = None) -> ForwardTrace:
    """Full forward pass: attentions, linear predictor, and response mean."""
    acts = _tower(params, spec, _as_input(spec, X))
    beta = acts[-1]
    eta, mu, n_clamped = _mean(params.beta0, get_family(spec.family), beta * acts[0], v)
    return ForwardTrace(activations=acts, attentions=beta, eta=eta, mu=mu,
                        n_clamped=n_clamped)


def attention(params: Params, spec: ModelSpec, X: np.ndarray) -> np.ndarray:
    """Regression attentions beta_j(x_i) as an (n, q) matrix, run EVAL_BLOCK_ROWS rows
    at a time."""
    X = _as_input(spec, X)
    beta = np.empty(X.shape)
    for rows in _row_blocks(X.shape[0]):
        beta[rows] = _tower(params, spec, X[rows])[-1]
    return beta


def loss_and_param_grads(params: Params, spec: ModelSpec, X: np.ndarray,
                         y: np.ndarray, v: np.ndarray | None = None):
    """Batch loss and its gradient with respect to every parameter.

    Returns ``(loss, grads)`` where grads is a Params of the same layout.
    The loss is the family's mean deviance over the batch. ``grads.n_clamped``
    counts the batch rows whose eta lies outside the family's clamp window.
    The skip connection routes the chain rule into the tower as
    d eta / d beta_j = x_j. One tower pass serves both directions, and its
    buffers are reused in place; the bytes are those of ``forward`` and
    ``family.loss`` followed by the out-of-place backward pass.
    """
    X = _as_input(spec, X)
    y = np.asarray(y, dtype=float)
    n = X.shape[0]
    if n == 0:
        raise ValueError("empty batch")
    if y.shape != (n,):
        raise ValueError(f"length mismatch: y has shape {y.shape}, X has {n} rows")
    family = get_family(spec.family)
    acts = _tower(params, spec, X)
    prod = acts[-1]  # the attentions are not needed past eta, so take beta * X in place
    prod *= X
    _, mu, n_clamped = _mean(params.beta0, family, prod, v)
    resid = mu - y

    # Under a canonical link dL/deta is the score 2 (mu - y) / n, exposure
    # included. Outside the clamp window the score of the clamped mean is
    # kept: the exact gradient of the deviance continued linearly in eta, so
    # clamped rows are still pulled back toward the window.
    deta = resid * 2.0
    deta /= n
    loss = family._batch_loss(y, mu, resid)

    grads = Params(spec.layer_dims)
    grads.n_clamped = n_clamped
    grads.beta0 = deta.sum()
    da = np.multiply(deta[:, None], X, out=prod)  # gradient wrt beta(x), the linear output layer
    for m in range(spec.depth - 1, -1, -1):
        np.matmul(acts[m].T, da, out=grads.weights[m])
        # einsum's column sums equal sum(axis=0)'s bytes and cost a third as
        # much; on one column numpy's sum is pairwise, and einsum's is not.
        if da.shape[1] > 1:
            np.einsum("ij->j", da, out=grads.biases[m])
        else:
            da.sum(axis=0, out=grads.biases[m])
        if m > 0:  # back through the tanh of hidden layer m - 1: tanh' = 1 - tanh^2
            z = acts[m]  # read for the last time, so 1 - z*z overwrites it
            z *= z
            np.subtract(1.0, z, out=z)
            da = da @ params.weights[m].T
            da *= z
    return loss, grads


def batch_input_jacobian(params: Params, spec: ModelSpec, X: np.ndarray) -> np.ndarray:
    """Jacobians d beta_j(x_i) / d x_ik as an (n, q, q) array.

    Accumulated layer by layer: J <- W_m^T @ J, times diag(1 - z^2) after
    each tanh layer with output z, sharing one forward pass across all q
    outputs. The output layer is linear, so it adds no factor. The skip
    connection does not enter the attentions, so only the tower is
    differentiated. Runs EVAL_BLOCK_ROWS rows at a time.
    """
    X = _as_input(spec, X)
    J = np.empty((X.shape[0], spec.q, spec.q))
    for rows in _row_blocks(X.shape[0]):
        acts = _tower(params, spec, X[rows])
        Jb = params.weights[0].T  # broadcast over the block's rows
        for m in range(1, spec.depth):  # (q_{m+1}, q_m) @ (b, q_m, q)
            z = acts[m][:, :, None]
            Jb = np.matmul(params.weights[m].T, (1.0 - z * z) * Jb)
        J[rows] = Jb
    return J


# ---------------------------------------------------------------------------
# Serialization: versioned JSON with base64-encoded float64 buffers, so a
# round trip is bit-exact.

_FORMAT = "localglmnet-model"
_VERSION = 1


def _encode(arr: np.ndarray) -> dict:
    a = np.ascontiguousarray(arr, dtype="<f8")
    return {"shape": list(a.shape), "data": base64.b64encode(a.tobytes()).decode("ascii")}


def _decode(obj: dict) -> np.ndarray:
    buf = base64.b64decode(obj["data"])
    return np.frombuffer(buf, dtype="<f8").reshape(obj["shape"])


def save_model(path, spec: ModelSpec, params: Params, preprocess: dict | None = None) -> None:
    """Write spec + parameters (+ optional preprocessing metadata) to JSON."""
    doc = {
        "format": _FORMAT,
        "version": _VERSION,
        "spec": {
            "q": spec.q,
            "hidden_dims": list(spec.hidden_dims),
            "activations": list(spec.activations),
            "family": spec.family,
            "link": spec.link,
        },
        "params": {
            "weights": [_encode(w) for w in params.weights],
            "biases": [_encode(b) for b in params.biases],
            "beta0": _encode(np.array([params.beta0])),
        },
    }
    if preprocess is not None:
        doc["preprocess"] = preprocess
    with open(path, "w", encoding="utf-8") as fh:
        json.dump(doc, fh, indent=1)
        fh.write("\n")


def load_model(path):
    """Read a model file; returns (spec, params, preprocess-or-None)."""
    with open(path, encoding="utf-8") as fh:
        doc = json.load(fh)
    if doc.get("format") != _FORMAT:
        raise ConfigError(f"{path}: not a model file (format={doc.get('format')!r})")
    if doc.get("version") != _VERSION:
        raise ConfigError(f"{path}: unsupported model version {doc.get('version')!r}")
    try:
        s, p = doc["spec"], doc["params"]
        spec = ModelSpec(q=s["q"], hidden_dims=tuple(s["hidden_dims"]),
                         family=s["family"], link=s["link"])
        tags = tuple(s["activations"])
        weights = [_decode(w) for w in p["weights"]]
        biases = [_decode(b) for b in p["biases"]]
        beta0 = _decode(p["beta0"])
    except KeyError as exc:
        raise ConfigError(f"{path}: missing key {exc}") from None
    except (TypeError, ValueError) as exc:
        raise ConfigError(f"{path}: malformed model file: {exc}") from None
    if tags != spec.activations:
        raise ConfigError(f"{path}: activations {list(tags)} differ from the fixed tower "
                          f"{list(spec.activations)} (tanh hidden layers, linear output)")
    params = Params(spec.layer_dims)
    expected = ([w.shape for w in params.weights], [b.shape for b in params.biases], (1,))
    got = ([w.shape for w in weights], [b.shape for b in biases], beta0.shape)
    if got != expected:
        raise ConfigError(f"{path}: parameter shapes {got} do not match spec {expected}")
    params.flat[:] = np.concatenate([a.ravel() for a in (*weights, *biases, beta0)])
    params.check_finite()
    return spec, params, doc.get("preprocess")
