"""Mixture density network: an MLP whose output layer parameterizes an
isotropic Gaussian mixture, trained by gradient descent on the mixture
negative log-likelihood.

The output layer is affine and its units split into three groups: K mixing
activations (softmax), K deviation activations (exponential, floored), and
K*D mean activations (identity). Column layout of the output layer is
``[a_pi | a_sigma | a_mu]`` with ``a_mu`` component-major, i.e. the mean
activation of component k, coordinate i sits at column ``2K + k*D + i``.

The loss is the batch MEAN of the per-sample negative log-likelihood (not
the sum), so the learning rate does not scale with batch size; the optimum
is unchanged. All gradient formulas are derived in docs/gradients.md and
checked against central finite differences in the test suite.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from .errors import DomainError, NumericError, ShapeError
from .numcore import (Rng, checked, log_sum_exp_cols, normals_from, positive_float,
                      positive_int, sum_rows, u64_rows, uniforms_from)

_LOG_2PI = math.log(2.0 * math.pi)

# allowed MdnConfig.hidden_activation and .optimizer values, in --help order
ACTIVATIONS = ("tanh", "relu")
OPTIMIZERS = ("adam", "sgd")

# features with spread below this are treated as constant when standardizing
_STD_FLOOR = 1e-12

# training stops early when the best epoch NLL has not improved in this many epochs
_PATIENCE = 50


@dataclass(frozen=True)
class MdnConfig:
    """Architecture and training hyperparameters for one MDN.

    ``hidden_layers`` may be empty, giving a purely affine mixture head.
    ``sigma_floor`` clamps component deviations away from collapse.
    """

    input_dim: int
    target_dim: int
    n_components: int
    hidden_layers: tuple = (64, 64)
    hidden_activation: str = "tanh"
    learning_rate: float = 1e-3
    optimizer: str = "adam"
    adam_beta1: float = 0.9
    adam_beta2: float = 0.999
    adam_eps: float = 1e-8
    epochs: int = 2000
    batch_size: int = 64
    sigma_floor: float = 1e-3
    seed: int = 0

    def __post_init__(self):
        object.__setattr__(self, "hidden_layers", tuple(int(h) for h in self.hidden_layers))
        for name in ("input_dim", "target_dim", "n_components", "epochs", "batch_size"):
            checked(name, positive_int, getattr(self, name))
        for name in ("learning_rate", "sigma_floor"):
            checked(name, positive_float, getattr(self, name))
        for width in self.hidden_layers:
            checked("hidden_layers", positive_int, width)
        for name, choices in (("hidden_activation", ACTIVATIONS), ("optimizer", OPTIMIZERS)):
            if getattr(self, name) not in choices:
                raise DomainError(f"must be one of {choices}", key=name)

    @property
    def output_width(self) -> int:
        """Width of the affine output layer: 2K + K*D."""
        return 2 * self.n_components + self.n_components * self.target_dim

    def layer_dims(self) -> list:
        """(fan_in, fan_out) per affine layer, input to output."""
        widths = [self.input_dim, *self.hidden_layers, self.output_width]
        return list(zip(widths[:-1], widths[1:]))


@dataclass(frozen=True)
class MixtureParams:
    """Mixture description at one input: weights sum to one, sigma >= floor."""

    pi: np.ndarray     # (K,)
    sigma: np.ndarray  # (K,)
    mu: np.ndarray     # (K, D)

    @property
    def n_components(self) -> int:
        return self.pi.shape[0]

    @property
    def dim(self) -> int:
        return self.mu.shape[1]


@dataclass(frozen=True)
class MdnModel:
    """Trained (or hand-built) network: immutable weights plus input scaling.

    ``weights`` alternates weight and bias arrays per affine layer:
    ``[W0, b0, W1, b1, ...]`` with W of shape (fan_in, fan_out) and b of
    shape (1, fan_out). Construction copies each into a read-only
    C-contiguous float64 ndarray and rejects non-finite entries. Inputs are
    standardized per feature with the stored statistics before the first
    layer; the means must be finite and the deviations finite and positive.

    ``preprocessing`` is opaque here: ``hmdn train`` records the network's
    role and the recoding of its data in it (see ``dataio.RECODINGS``), and
    the default ``()`` marks a model built by the library.
    """

    config: MdnConfig
    weights: tuple
    input_mean: np.ndarray
    input_std: np.ndarray
    training_log: tuple = field(default_factory=tuple)
    preprocessing: tuple = ()

    def __post_init__(self):
        dims = self.config.layer_dims()
        if len(self.weights) != 2 * len(dims):
            raise ShapeError(
                f"expected {2 * len(dims)} weight matrices for this config, got {len(self.weights)}"
            )
        weights = tuple(np.array(w, dtype=np.float64, order="C") for w in self.weights)
        for i, (fan_in, fan_out) in enumerate(dims):
            w, b = weights[2 * i], weights[2 * i + 1]
            if w.shape != (fan_in, fan_out) or b.shape != (1, fan_out):
                raise ShapeError(
                    f"layer {i}: expected ({fan_in}, {fan_out}) weights and (1, {fan_out}) bias, "
                    f"got {w.shape} and {b.shape}"
                )
        for w in weights:
            if not np.isfinite(w).all():
                raise NumericError("weight entries must all be finite")
            w.flags.writeable = False
        mean = np.array(self.input_mean, dtype=np.float64)
        std = np.array(self.input_std, dtype=np.float64)
        if mean.shape != (self.config.input_dim,) or std.shape != (self.config.input_dim,):
            raise ShapeError("standardization statistics must have length input_dim")
        if not np.isfinite(mean).all():
            raise DomainError("standardization means must all be finite")
        if not (np.isfinite(std).all() and (std > 0.0).all()):
            raise DomainError("standardization deviations must all be finite and > 0")
        mean.flags.writeable = False
        std.flags.writeable = False
        object.__setattr__(self, "input_mean", mean)
        object.__setattr__(self, "input_std", std)
        object.__setattr__(self, "weights", weights)
        object.__setattr__(self, "training_log", tuple(float(v) for v in self.training_log))


def identity_model(config: MdnConfig, weights) -> MdnModel:
    """Model with unit standardization; convenient for hand-built networks."""
    return MdnModel(
        config=config,
        weights=tuple(weights),
        input_mean=np.zeros(config.input_dim),
        input_std=np.ones(config.input_dim),
    )


def _layer_views(flat: np.ndarray, dims) -> list:
    """Views ``[W0, b0, W1, b1, ...]`` into one flat buffer, laid out in that
    order (the model-file weight order), each array row-major."""
    views, start = [], 0
    for fan_in, fan_out in dims:
        for rows in (fan_in, 1):
            views.append(flat[start : start + rows * fan_out].reshape(rows, fan_out))
            start += rows * fan_out
    return views


class _HeadBuffers:
    """Buffers of the mixture-head kernels for B rows, K components and D
    target dimensions, component-major: a per-component quantity is a
    contiguous (K, B) array and the means are (K, D, B). ``at`` holds the
    output activations A (B, 2K + K*D) transposed, so its rows are
    ``[a_pi | a_sigma | a_mu]``; ``shifted``, ``total``, ``mask`` and
    ``swap`` are work arrays of ``numcore.log_sum_exp_cols``. ``_HeadBuffers()``
    holds none: every field is None and the kernels allocate their results
    instead."""

    __slots__ = (
        "at", "above", "diff", "quad", "var", "log_terms", "shifted", "log_p",
        "total", "mask", "swap",
    )

    def __init__(self, B=None, K=None, D=None):
        for name in self.__slots__:
            setattr(self, name, None)
        if B is None:
            return
        self.at = np.empty((2 * K + K * D, B))
        self.above = np.empty((K, B), dtype=bool)
        self.diff = np.empty((K, D, B))
        self.quad = np.empty((K, B))
        self.var = np.empty((K, B))
        self.log_terms = np.empty((K, B))
        self.shifted = np.empty((K, B))
        self.log_p = np.empty(B)
        self.total = np.empty(B)
        self.mask = np.empty(B, dtype=bool)
        self.swap = np.empty(K * D * B)


_UNBUFFERED = _HeadBuffers()


class _Workspace:
    """Buffers for one forward and backward pass over B rows, built once per
    batch size that occurs and reused: the gathered inputs (B, input_dim)
    and targets (as columns, (D, B)), every layer's output (``acts``; the
    last is the output activations A), every layer's error signal
    dE/d(pre-activation) (``deltas``; the last is dE/dA) and the head
    buffers."""

    def __init__(self, config: MdnConfig, B: int):
        K, D = config.n_components, config.target_dim
        widths = [*config.hidden_layers, config.output_width]
        self.x = np.empty((B, config.input_dim))
        self.yt = np.empty((D, B))
        self.acts = [np.empty((B, w)) for w in widths]
        self.deltas = [np.empty((B, w)) for w in widths]
        self.head = _HeadBuffers(B, K, D)


def _standardize(model: MdnModel, X: np.ndarray, out=None) -> np.ndarray:
    H = np.subtract(X, model.input_mean, out=out)
    H /= model.input_std
    return H


def _forward(activation: str, weights, H: np.ndarray, acts=None) -> np.ndarray:
    """Affine stack on standardized inputs H; returns the output activations.

    ``weights`` is a flat sequence of ndarrays ``[W0, b0, W1, b1, ...]``.
    A stacked H, (R, B, fan_in), runs as R separate B-row products.
    Layer i writes its output into ``acts[i]``; without ``acts`` each layer
    allocates its own.
    """
    n_layers = len(weights) // 2
    acts = acts or [None] * n_layers
    for i in range(n_layers):
        H = np.matmul(H, weights[2 * i], out=acts[i])
        H += weights[2 * i + 1]
        if i < n_layers - 1:  # the output layer stays affine
            if activation == "tanh":
                np.tanh(H, out=H)
            else:
                np.maximum(H, 0.0, out=H)
    return H


# --- the mixture head, batched and component-major: (K, B) per quantity ---
#
# The kernels write into a _HeadBuffers (or allocate, given _UNBUFFERED).
# They read A through one transposing copy and write dE/dA back through
# another; in between, every operation runs on contiguous rows, and a sum
# over components or coordinates is ``sum_rows``, which adds in the order
# numpy's row-major reduction took. Each element keeps its operation order,
# so results are bit for bit those of the row-major formulas.
#
# Overflow, invalid operations and the log of zero are expected here on
# diverging weights or far-out inputs and surface as non-finite losses or
# scores, which the callers check; every public entry point runs them under
# one np.errstate(all="ignore").


def _transposed(A: np.ndarray, out=None) -> np.ndarray:
    """A (B, W) as a C-contiguous (W, B) copy, in ``out`` when given."""
    if out is None:
        return A.T.copy()
    np.copyto(out, A.T)
    return out


def _split_rows(at: np.ndarray, K: int, D: int):
    """Views a_pi (K, B), a_sigma (K, B) and a_mu (K, D, B) of transposed
    output activations."""
    return at[:K], at[K : 2 * K], at[2 * K :].reshape(K, D, at.shape[1])


def _log_sum_exp(a: np.ndarray, buf: _HeadBuffers) -> np.ndarray:
    """Log-sum-exp over the K rows of a, into buf.log_p."""
    return log_sum_exp_cols(a, buf.log_p, buf.shifted, buf.total, buf.mask, buf.swap)


def _mixture_transform(a_pi, a_sigma, sigma_floor: float, buf=_UNBUFFERED):
    """Log mixing weights (log-softmax of a_pi over its K rows), deviations
    exp(a_sigma) clamped below at sigma_floor, and the mask of deviations
    above the floor; log_pi overwrites a_pi and the deviations a_sigma."""
    # log_p is free until the mixture log-density is written there
    lse = _log_sum_exp(a_pi, buf)
    log_pi = np.subtract(a_pi, lse, out=a_pi)
    raw_sigma = np.exp(a_sigma, out=a_sigma)
    above = np.greater(raw_sigma, sigma_floor, out=buf.above)
    return log_pi, np.maximum(raw_sigma, sigma_floor, out=raw_sigma), above


def _log_terms(log_pi, sigma, mu, Yt, buf=_UNBUFFERED):
    """ln(pi_k) + ln N(y | mu_k, sigma_k^2 I) per component and sample (K, B),
    for targets as columns Yt (D, B), returned with the squared distances
    |y - mu_k|^2 and the variances."""
    D = Yt.shape[0]
    sq = np.subtract(Yt, mu, out=buf.diff)                  # (K, D, B)
    sq *= sq
    quad = sum_rows(sq, out=buf.quad, swap=buf.swap)        # (K, B)
    var = np.multiply(sigma, sigma, out=buf.var)
    terms = np.log(sigma, out=buf.log_terms)
    terms *= D
    np.subtract(-0.5 * D * _LOG_2PI, terms, out=terms)
    scaled = np.multiply(var, 2.0, out=buf.shifted)
    terms -= np.divide(quad, scaled, out=scaled)
    terms += log_pi
    return quad, var, terms


def _head_terms(A: np.ndarray, Yt: np.ndarray, K: int, sigma_floor: float, buf=_UNBUFFERED):
    """Mixture terms of a batch of output activations A (B, W) for K
    components and targets as columns Yt (D, B): (at, above, quad, var,
    log_terms, log_p), with ``at`` the transposed activations holding
    log_pi and sigma in place of a_pi and a_sigma, and log_p the per-sample
    log-density."""
    at = _transposed(A, buf.at)
    a_pi, a_sigma, mu = _split_rows(at, K, Yt.shape[0])
    log_pi, sigma, above = _mixture_transform(a_pi, a_sigma, sigma_floor, buf)
    quad, var, log_terms = _log_terms(log_pi, sigma, mu, Yt, buf)
    return at, above, quad, var, log_terms, _log_sum_exp(log_terms, buf)


def _output_derivatives(Yt, at, above, quad, var, log_terms, log_p, dA):
    """Derivatives of the batch-mean NLL wrt the output activations
    (docs/gradients.md), computed in place over the head terms of
    ``_head_terms`` and copied into dA (B, W), which keeps the
    [d_a_pi | d_a_sigma | d_a_mu] column layout of A:

    gamma_k = pi_k N_k / sum_l pi_l N_l
    dE/da_pi_k    = (pi_k - gamma_k) / B
    dE/da_sigma_k = gamma_k (D - |y - mu_k|^2 / sigma_k^2) / B   (0 where floored)
    dE/da_mu_ki   = gamma_k (mu_ki - y_i) / (sigma_k^2 B)

    A diverged batch (log_p = -inf) produces NaN here; the caller aborts on
    the non-finite loss, so the gradient values never get used.
    """
    (D, B), K = Yt.shape, quad.shape[0]
    d_a_pi, d_a_sigma, d_a_mu = _split_rows(at, K, D)
    gamma = np.subtract(log_terms, log_p, out=log_terms)
    np.exp(gamma, out=gamma)                                # (K, B)
    inv_var = np.divide(1.0, var, out=var)
    np.exp(d_a_pi, out=d_a_pi)                              # log_pi -> pi
    d_a_pi -= gamma
    np.multiply(quad, inv_var, out=d_a_sigma)
    np.subtract(D, d_a_sigma, out=d_a_sigma)
    d_a_sigma *= gamma
    np.copyto(quad, above)                                  # quad is spent: now the 0/1 mask
    d_a_sigma *= quad
    at[: 2 * K] /= B                                        # d_a_pi and d_a_sigma
    coef = np.multiply(gamma, inv_var, out=inv_var)
    coef /= B
    np.subtract(d_a_mu, Yt, out=d_a_mu)                     # mu -> mu - y
    d_a_mu *= coef[:, None, :]
    np.copyto(dA, at.T)


def log_density(params: MixtureParams, y) -> float:
    """ln of the density at y of a mixture such as ``mixture_at`` returns,
    evaluated fully in log space."""
    y = np.asarray(y, dtype=np.float64)
    if y.shape != (params.dim,):
        raise ShapeError(f"y has shape {y.shape}, mixture is {params.dim}-dimensional")
    with np.errstate(all="ignore"):
        log_pi = np.log(params.pi)[:, None]
        *_, log_terms = _log_terms(log_pi, params.sigma[:, None], params.mu[:, :, None], y[:, None])
        return float(_log_sum_exp(log_terms, _UNBUFFERED)[0])


def density(params: MixtureParams, y) -> float:
    """Mixture density at y: sum_k pi_k N(y | mu_k, sigma_k^2 I)."""
    return math.exp(log_density(params, y))


def _as_xy(batch, input_dim: int, target_dim: int):
    """A batch as its (X, Y) pair of 2-D float64 arrays, one row per sample,
    checked against the model's input and target dimensions."""
    if not (isinstance(batch, tuple) and len(batch) == 2):
        raise ValueError("batch must be an (X, Y) pair of 2-D arrays")
    X, Y = (np.asarray(a, dtype=np.float64) for a in batch)
    if X.ndim != 2 or Y.ndim != 2:
        raise ShapeError(f"batch arrays must be 2-D, got shapes {X.shape} and {Y.shape}")
    if X.shape[0] == 0:
        raise ValueError("batch must be non-empty")
    if X.shape[1] != input_dim:
        raise ShapeError(f"inputs have dimension {X.shape[1]}, model expects {input_dim}")
    if Y.shape[1] != target_dim:
        raise ShapeError(f"targets have dimension {Y.shape[1]}, model expects {target_dim}")
    if X.shape[0] != Y.shape[0]:
        raise ShapeError(f"{X.shape[0]} inputs vs {Y.shape[0]} targets")
    return X, Y


def _log_p(config: MdnConfig, weights, H, Yt, ws=None, acts=None) -> np.ndarray:
    """Per-sample log-density ln p(y | x) for standardized inputs H and
    targets as columns Yt (D, N), in the buffers of ``ws`` when given, else
    with only the layer outputs in ``acts`` when given. H may be stacked,
    (R, B, input_dim): each of its R blocks goes through the layers as its
    own B-row product, and Yt then holds the R*B targets."""
    acts, head = (ws.acts, ws.head) if ws else (acts, _UNBUFFERED)
    A = _forward(config.hidden_activation, weights, H, acts)
    A = A.reshape(-1, A.shape[-1])
    return _head_terms(A, Yt, config.n_components, config.sigma_floor, head)[-1]


def _log_likelihoods(model: MdnModel, X: np.ndarray, Y: np.ndarray, acts=None) -> np.ndarray:
    """ln p(y_i | x_i) under the model for each row of X (2-D, or stacked
    as in ``_log_p``) and of the 2-D Y, the layers writing into ``acts``
    when given."""
    with np.errstate(all="ignore"):
        return _log_p(model.config, model.weights, _standardize(model, X), Y.T, acts=acts)


def _mean_nll(log_p: np.ndarray) -> float:
    """Mean negative log-likelihood of per-sample log-densities; the sum and
    divide of ``np.mean``, without its overhead."""
    return float(-(np.add.reduce(log_p) / log_p.shape[0]))


def nll(model: MdnModel, batch) -> float:
    """Mean negative log-likelihood of the batch under the model."""
    X, Y = _as_xy(batch, model.config.input_dim, model.config.target_dim)
    return _mean_nll(_log_likelihoods(model, X, Y))


def _backward(config: MdnConfig, weights, H, Yt, ws: _Workspace, grads) -> float:
    """Mean NLL over the batch (standardized inputs H, targets as columns
    Yt; B rows, the size ``ws`` was built for); its gradient wrt every
    weight array is written into ``grads``. Overwrites the hidden
    activations in ``ws``."""
    A = _forward(config.hidden_activation, weights, H, ws.acts)
    terms = _head_terms(A, Yt, config.n_components, config.sigma_floor, ws.head)
    _output_derivatives(Yt, *terms, ws.deltas[-1])
    for i in range(len(ws.deltas) - 1, -1, -1):
        delta = ws.deltas[i]
        inputs = ws.acts[i - 1] if i > 0 else H
        np.matmul(inputs.T, delta, out=grads[2 * i])
        np.add.reduce(delta, axis=0, out=grads[2 * i + 1][0])
        if i > 0:
            d_hidden = np.matmul(delta, weights[2 * i].T, out=ws.deltas[i - 1])
            # activation derivative from the layer's output, in place:
            # tanh' = 1 - tanh^2; relu' = 1 where the output is > 0
            if config.hidden_activation == "tanh":
                np.multiply(inputs, inputs, out=inputs)
                np.subtract(1.0, inputs, out=inputs)
            else:
                np.greater(inputs, 0.0, out=inputs)
            d_hidden *= inputs
    return _mean_nll(terms[-1])


def gradients(model: MdnModel, batch) -> list:
    """Exact gradient of ``nll`` wrt every weight matrix, in weights order."""
    X, Y = _as_xy(batch, model.config.input_dim, model.config.target_dim)
    ws = _Workspace(model.config, X.shape[0])
    grads = _layer_views(np.empty(sum(w.size for w in model.weights)), model.config.layer_dims())
    with np.errstate(all="ignore"):
        _backward(model.config, model.weights, _standardize(model, X, out=ws.x), Y.T, ws, grads)
    return grads


def _init_weights(config: MdnConfig, Y: np.ndarray, rng: Rng) -> list:
    """Glorot-uniform weights, zero biases; output biases seeded from target
    moments (component means at the target mean, deviations at the pooled
    target spread) so the initial mixture already covers the data."""
    K, D = config.n_components, config.target_dim
    ws = []
    dims = config.layer_dims()
    for li, (fan_in, fan_out) in enumerate(dims):
        bound = math.sqrt(6.0 / (fan_in + fan_out))
        W = (rng.uniform(fan_in * fan_out) * 2.0 - 1.0) * bound
        b = np.zeros((1, fan_out))
        if li == len(dims) - 1:
            pooled_std = float(np.sqrt(np.mean((Y - Y.mean(axis=0)) ** 2)))
            b[0, K : 2 * K] = math.log(max(pooled_std, config.sigma_floor))
            b[0, 2 * K :] = np.tile(Y.mean(axis=0), K)
        ws.append(W.reshape(fan_in, fan_out))
        ws.append(b)
    return ws


def train(dataset, config: MdnConfig) -> MdnModel:
    """Mini-batch gradient descent on the mean NLL; deterministic given seed.

    Runs ``config.epochs`` passes unless the best epoch NLL fails to improve
    for 50 consecutive epochs, in which case training stops early. The
    per-epoch log records the full-dataset mean NLL evaluated after each
    epoch's updates. Raises NumericError (naming epoch and batch) if the
    loss becomes non-finite.

    Weights, gradients and the Adam moments each live in one flat buffer
    (per-layer views in weights order), so an optimizer step is one
    elementwise update; forward and backward passes write into a workspace
    built once per batch size that occurs.
    """
    X, Y = _as_xy(dataset, config.input_dim, config.target_dim)
    if not (np.isfinite(X).all() and np.isfinite(Y).all()):
        raise ValueError("training data must be finite")
    n = X.shape[0]

    mean = X.mean(axis=0)
    std = X.std(axis=0)
    std = np.where(std < _STD_FLOOR, 1.0, std)
    H = (X - mean) / std
    Yt = np.ascontiguousarray(Y.T)

    rng = Rng(config.seed)
    w_flat = np.concatenate([w.ravel() for w in _init_weights(config, Y, rng.spawn("init"))])
    rng_shuffle = rng.spawn("shuffle")
    dims = config.layer_dims()
    weights = _layer_views(w_flat, dims)
    g_flat = np.empty_like(w_flat)
    grads = _layer_views(g_flat, dims)
    adam_m, adam_v = np.zeros_like(w_flat), np.zeros_like(w_flat)
    upd, scratch = np.empty_like(w_flat), np.empty_like(w_flat)
    step = 0
    lr, b1, b2, eps = config.learning_rate, config.adam_beta1, config.adam_beta2, config.adam_eps

    workspaces: dict = {}
    full = _Workspace(config, n)
    log: list = []
    best = math.inf
    best_epoch = 0
    with np.errstate(all="ignore"):
        for epoch in range(1, config.epochs + 1):
            order = rng_shuffle.permutation(n)
            for bi, start in enumerate(range(0, n, config.batch_size)):
                idx = order[start : start + config.batch_size]
                ws = workspaces.get(idx.shape[0])
                if ws is None:
                    ws = workspaces[idx.shape[0]] = _Workspace(config, idx.shape[0])
                # idx is a slice of a permutation, so always in range; with
                # mode="raise" numpy would gather through a temporary
                np.take(H, idx, axis=0, out=ws.x, mode="clip")
                np.take(Yt, idx, axis=1, out=ws.yt, mode="clip")
                loss = _backward(config, weights, ws.x, ws.yt, ws, grads)
                if not math.isfinite(loss):
                    raise NumericError(
                        f"training aborted: non-finite NLL at epoch {epoch}, batch {bi + 1}"
                    )
                step += 1
                # one elementwise pass over the flat buffers; each element
                # keeps the operation order of docs/numerics.md
                if config.optimizer == "adam":
                    c1 = 1.0 - b1**step
                    c2 = 1.0 - b2**step
                    adam_m *= b1
                    adam_m += np.multiply(1.0 - b1, g_flat, out=upd)
                    adam_v *= b2
                    np.multiply(1.0 - b2, g_flat, out=upd)
                    upd *= g_flat
                    adam_v += upd
                    np.divide(adam_m, c1, out=upd)
                    upd *= lr
                    np.divide(adam_v, c2, out=scratch)
                    np.sqrt(scratch, out=scratch)
                    scratch += eps
                    upd /= scratch
                    w_flat -= upd
                else:
                    w_flat -= np.multiply(lr, g_flat, out=upd)
            epoch_nll = _mean_nll(_log_p(config, weights, H, Yt, full))
            log.append(epoch_nll)
            if epoch_nll < best:
                best = epoch_nll
                best_epoch = epoch
            elif epoch - best_epoch >= _PATIENCE:
                break

    return MdnModel(
        config=config,
        weights=tuple(weights),
        input_mean=mean,
        input_std=std,
        training_log=tuple(log),
    )


def _mixtures(model: MdnModel, X) -> tuple:
    """Mixture parameters at each of the R inputs X (R, input_dim), as rows:
    pi (R, K), sigma (R, K), mu (R, K, D).

    Each input goes through the layers as its own one-row product (a
    stacked matmul), so row r is bit for bit the mixture at X[r] alone: BLAS
    picks its kernel by the row count, and a single R-row product can round
    differently.
    """
    cfg = model.config
    if X.shape[1:] != (cfg.input_dim,):
        raise ShapeError(f"input has shape {X.shape[1:]}, model expects ({cfg.input_dim},)")
    with np.errstate(all="ignore"):
        H = _standardize(model, X[:, None, :])
        A = _forward(cfg.hidden_activation, model.weights, H).reshape(X.shape[0], -1)
        K = cfg.n_components
        at = _transposed(A[:, : 2 * K])
        log_pi, sigma, _ = _mixture_transform(at[:K], at[K:], cfg.sigma_floor)
        pi = np.exp(log_pi, out=log_pi)
        return pi.T, sigma.T, A[:, 2 * K :].reshape(X.shape[0], K, cfg.target_dim)


def _draw(pi, sigma, mu, m: int, rngs) -> np.ndarray:
    """``m`` draws from each of R mixtures given as rows (pi (R, K), sigma
    (R, K), mu (R, K, D)), row i from the stream of ``rngs[i]``; (R, m, D).

    Stream layout per row: m uniforms for the component choices, then m*D
    normals row-major. The component is the smallest k with u < cumsum(pi)[k]
    (cumulative-sum inversion with strict inequality), clamped to K - 1.
    """
    R, K, D = mu.shape
    words = u64_rows(rngs, m + 2 * ((m * D + 1) // 2))
    u = uniforms_from(words[:, :m])
    z = normals_from(words[:, m:], m * D).reshape(R, m, D)
    cum = np.cumsum(pi, axis=1)
    # searchsorted(cum, u, side="right") clamped to K - 1, row-wise: since
    # cum never decreases, that is the count of its first K - 1 entries <= u
    k = np.zeros((R, m), dtype=np.intp)
    for j in range(K - 1):
        k += cum[:, j, None] <= u
    rows = np.arange(R)[:, None]
    return mu[rows, k] + sigma[rows, k][:, :, None] * z


def sample(params: MixtureParams, m: int, rng: Rng) -> np.ndarray:
    """Ancestral sampling: component index by cumulative-sum inversion with
    strict inequality, then an isotropic Gaussian draw. Stream layout: m
    uniforms for the component choices, then m*D normals row-major.
    """
    checked("m", positive_int, m)
    return _draw(params.pi[None], params.sigma[None], params.mu[None], m, [rng])[0]


def mixture_at(model: MdnModel, x) -> MixtureParams:
    """The mixture at one input: pi the softmax of the mixing activations,
    sigma exp of the deviation activations clamped below at the sigma
    floor, and the mean activations as mu."""
    pi, sigma, mu = _mixtures(model, np.asarray(x, dtype=np.float64)[None])
    return MixtureParams(pi=pi[0], sigma=sigma[0], mu=mu[0])
