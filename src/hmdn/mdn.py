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
from .numcore import Rng, log_sum_exp_rows

_LOG_2PI = math.log(2.0 * math.pi)

_ACTIVATIONS = ("tanh", "relu")
_OPTIMIZERS = ("sgd", "adam")

# features with spread below this are treated as constant when standardizing
_STD_FLOOR = 1e-12

# training stops early when the best epoch NLL has not improved in this many epochs
_PATIENCE = 50


def _check_sigma_floor(sigma_floor: float) -> None:
    if not sigma_floor > 0.0:
        raise ValueError(f"sigma_floor must be > 0, got {sigma_floor}")


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
        if self.input_dim < 1 or self.target_dim < 1:
            raise ValueError("input_dim and target_dim must be >= 1")
        if self.n_components < 1:
            raise ValueError(f"n_components must be >= 1, got {self.n_components}")
        _check_sigma_floor(self.sigma_floor)
        if not self.learning_rate > 0.0:
            raise ValueError(f"learning_rate must be > 0, got {self.learning_rate}")
        if self.epochs < 1:
            raise ValueError(f"epochs must be >= 1, got {self.epochs}")
        if self.batch_size < 1:
            raise ValueError(f"batch_size must be >= 1, got {self.batch_size}")
        if any(h < 1 for h in self.hidden_layers):
            raise ValueError(f"hidden layer widths must be >= 1, got {self.hidden_layers}")
        if self.hidden_activation not in _ACTIVATIONS:
            raise ValueError(f"hidden_activation must be one of {_ACTIVATIONS}")
        if self.optimizer not in _OPTIMIZERS:
            raise ValueError(f"optimizer must be one of {_OPTIMIZERS}")

    @property
    def output_width(self) -> int:
        """Width of the affine output layer: 2K + K*D."""
        return 2 * self.n_components + self.n_components * self.target_dim

    def layer_dims(self) -> list:
        """(fan_in, fan_out) per affine layer, input to output."""
        widths = [self.input_dim, *self.hidden_layers, self.output_width]
        return list(zip(widths[:-1], widths[1:]))


@dataclass(frozen=True)
class Activations:
    """Raw output-layer values for one input, split into the three groups."""

    a_pi: np.ndarray     # (K,)
    a_sigma: np.ndarray  # (K,)
    a_mu: np.ndarray     # (K, D)


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
class GradWorkspace:
    """Per-sample loss derivatives at the output layer, plus responsibilities."""

    gamma: np.ndarray      # (K,) posterior responsibilities
    d_a_pi: np.ndarray     # (K,)
    d_a_sigma: np.ndarray  # (K,)
    d_a_mu: np.ndarray     # (K, D)


@dataclass(frozen=True)
class MdnModel:
    """Trained (or hand-built) network: immutable weights plus input scaling.

    ``weights`` alternates weight and bias arrays per affine layer:
    ``[W0, b0, W1, b1, ...]`` with W of shape (fan_in, fan_out) and b of
    shape (1, fan_out). Construction copies each into a read-only
    C-contiguous float64 ndarray and rejects non-finite entries. Inputs are
    standardized per feature with the stored statistics before the first
    layer; the means must be finite and the deviations finite and positive.
    """

    config: MdnConfig
    weights: tuple
    input_mean: np.ndarray
    input_std: np.ndarray
    training_log: tuple = field(default_factory=tuple)

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


def _activation_fn(name: str):
    if name == "tanh":
        return np.tanh, lambda pre, act: 1.0 - act * act
    return (lambda a: np.maximum(a, 0.0)), (lambda pre, act: (pre > 0.0).astype(np.float64))


def _forward_arrays(activation: str, weights, mean, std, X: np.ndarray, keep_hidden: bool = False):
    """Affine stack on standardized inputs; returns output activations.

    With ``keep_hidden`` also returns the per-layer pre-activations and
    activations needed by backpropagation (activations[0] is the
    standardized input). ``weights`` is a flat sequence of ndarrays
    ``[W0, b0, W1, b1, ...]``.
    """
    act, _ = _activation_fn(activation)
    H = (X - mean) / std
    pre_acts, acts = [], [H]
    n_layers = len(weights) // 2
    for i in range(n_layers):
        A = H @ weights[2 * i] + weights[2 * i + 1]
        if i < n_layers - 1:
            H = act(A)
            if keep_hidden:
                pre_acts.append(A)
                acts.append(H)
        else:
            H = A  # output layer stays affine
    return (H, pre_acts, acts) if keep_hidden else H


def _forward_batch(model: MdnModel, X: np.ndarray, keep_hidden: bool = False):
    return _forward_arrays(
        model.config.hidden_activation,
        model.weights,
        model.input_mean,
        model.input_std,
        X,
        keep_hidden,
    )


def _split_output(A: np.ndarray, K: int, D: int):
    return A[:, :K], A[:, K : 2 * K], A[:, 2 * K :].reshape(A.shape[0], K, D)


def forward(model: MdnModel, x) -> Activations:
    """Output activations for a single input vector."""
    x = np.asarray(x, dtype=np.float64)
    if x.shape != (model.config.input_dim,):
        raise ShapeError(
            f"input has shape {x.shape}, model expects ({model.config.input_dim},)"
        )
    A = _forward_batch(model, x.reshape(1, -1))
    a_pi, a_sigma, a_mu = _split_output(A, model.config.n_components, model.config.target_dim)
    return Activations(a_pi=a_pi[0], a_sigma=a_sigma[0], a_mu=a_mu[0])


# --- the mixture head, batched: one row per sample, (B, K) per quantity ---


def _mixture_transform(a_pi, a_sigma, sigma_floor: float):
    """Log mixing weights (log-softmax of a_pi), deviations exp(a_sigma)
    clamped below at sigma_floor, and the mask of clamped deviations."""
    log_pi = a_pi - log_sum_exp_rows(a_pi)[:, None]
    with np.errstate(over="ignore", invalid="ignore"):
        raw_sigma = np.exp(a_sigma)
        return log_pi, np.maximum(raw_sigma, sigma_floor), raw_sigma <= sigma_floor


def _log_terms(log_pi, sigma, mu, Y):
    """ln(pi_k) + ln N(y | mu_k, sigma_k^2 I) per sample and component,
    returned with the squared distances |y - mu_k|^2."""
    D = Y.shape[1]
    with np.errstate(over="ignore", invalid="ignore"):
        diff = Y[:, None, :] - mu                      # (B, K, D)
        quad = np.sum(diff * diff, axis=2)             # (B, K)
        log_norm = -0.5 * D * _LOG_2PI - D * np.log(sigma) - quad / (2.0 * sigma**2)
        return quad, log_pi + log_norm


def _head_terms(a_pi, a_sigma, mu, Y, sigma_floor: float):
    log_pi, sigma, floored = _mixture_transform(a_pi, a_sigma, sigma_floor)
    quad, log_terms = _log_terms(log_pi, sigma, mu, Y)
    log_p = log_sum_exp_rows(log_terms)            # (B,)
    return log_pi, sigma, floored, mu, quad, log_terms, log_p


def _batch_loss_terms(config: MdnConfig, A: np.ndarray, Y: np.ndarray):
    a_pi, a_sigma, mu = _split_output(A, config.n_components, config.target_dim)
    return _head_terms(a_pi, a_sigma, mu, Y, config.sigma_floor)


def _output_derivatives(Y, log_pi, sigma, floored, mu, quad, log_terms, log_p):
    """Derivatives of the batch-mean NLL wrt the output activations
    (docs/gradients.md), plus the responsibilities gamma:

    gamma_k = pi_k N_k / sum_l pi_l N_l
    dE/da_pi_k    = (pi_k - gamma_k) / B
    dE/da_sigma_k = gamma_k (D - |y - mu_k|^2 / sigma_k^2) / B   (0 where floored)
    dE/da_mu_ki   = gamma_k (mu_ki - y_i) / (sigma_k^2 B)
    """
    B, D = Y.shape
    # a diverged batch (log_p = -inf) produces NaN here; the caller aborts on
    # the non-finite loss, so the gradient values never get used
    with np.errstate(invalid="ignore"):
        gamma = np.exp(log_terms - log_p[:, None])     # (B, K)
        inv_var = 1.0 / (sigma * sigma)
        d_a_pi = (np.exp(log_pi) - gamma) / B
        d_a_sigma = gamma * (D - quad * inv_var) * (~floored) / B
        d_a_mu = (gamma * inv_var / B)[:, :, None] * (mu - Y[:, None, :])
    return gamma, d_a_pi, d_a_sigma, d_a_mu


# --- single-sample API: B=1 calls into the batched head ---


def _activation_rows(a: Activations):
    return (
        np.asarray(a.a_pi, dtype=np.float64).reshape(1, -1),
        np.asarray(a.a_sigma, dtype=np.float64).reshape(1, -1),
        np.asarray(a.a_mu, dtype=np.float64)[None],
    )


def activations_to_params(a: Activations, sigma_floor: float) -> MixtureParams:
    """Transform raw activations to mixture parameters.

    pi is the softmax of a_pi computed via a log-sum-exp shift; sigma is
    exp(a_sigma) clamped below at sigma_floor; means pass through.
    """
    _check_sigma_floor(sigma_floor)
    a_pi, a_sigma, mu = _activation_rows(a)
    log_pi, sigma, _ = _mixture_transform(a_pi, a_sigma, sigma_floor)
    return MixtureParams(pi=np.exp(log_pi[0]), sigma=sigma[0], mu=mu[0])


def log_density(params: MixtureParams, y) -> float:
    """ln of the mixture density at y, evaluated fully in log space."""
    y = np.asarray(y, dtype=np.float64)
    if y.shape != (params.dim,):
        raise ShapeError(f"y has shape {y.shape}, mixture is {params.dim}-dimensional")
    with np.errstate(divide="ignore"):
        log_pi = np.log(params.pi)
    _, log_terms = _log_terms(log_pi[None], params.sigma[None], params.mu[None], y[None])
    return float(log_sum_exp_rows(log_terms)[0])


def density(params: MixtureParams, y) -> float:
    """Mixture density at y: sum_k pi_k N(y | mu_k, sigma_k^2 I)."""
    return math.exp(log_density(params, y))


def head_gradients(a: Activations, y, sigma_floor: float) -> GradWorkspace:
    """Loss derivatives at the output layer for a single (activations, target),
    with the responsibilities gamma: the batch formulas at B=1 (derived in
    docs/gradients.md)."""
    _check_sigma_floor(sigma_floor)
    Y = np.asarray(y, dtype=np.float64).reshape(1, -1)
    terms = _head_terms(*_activation_rows(a), Y, sigma_floor)
    gamma, d_a_pi, d_a_sigma, d_a_mu = _output_derivatives(Y, *terms)
    return GradWorkspace(gamma=gamma[0], d_a_pi=d_a_pi[0], d_a_sigma=d_a_sigma[0], d_a_mu=d_a_mu[0])


def _as_xy(batch, input_dim: int, target_dim: int):
    """Normalize a batch (pairs, or an (X, Y) tuple of arrays) to 2-D arrays."""
    if (
        isinstance(batch, tuple)
        and len(batch) == 2
        and isinstance(batch[0], np.ndarray)
        and batch[0].ndim == 2
    ):
        X = np.asarray(batch[0], dtype=np.float64)
        Y = np.asarray(batch[1], dtype=np.float64)
    else:
        pairs = list(batch)
        if not pairs:
            raise ValueError("batch must be non-empty")
        X = np.array([np.asarray(x, dtype=np.float64).ravel() for x, _ in pairs])
        Y = np.array([np.asarray(y, dtype=np.float64).ravel() for _, y in pairs])
    if X.shape[0] == 0:
        raise ValueError("batch must be non-empty")
    if X.shape[1] != input_dim:
        raise ShapeError(f"inputs have dimension {X.shape[1]}, model expects {input_dim}")
    if Y.shape[1] != target_dim:
        raise ShapeError(f"targets have dimension {Y.shape[1]}, model expects {target_dim}")
    if X.shape[0] != Y.shape[0]:
        raise ShapeError(f"{X.shape[0]} inputs vs {Y.shape[0]} targets")
    return X, Y


def nll(model: MdnModel, batch) -> float:
    """Mean negative log-likelihood of the batch under the model."""
    X, Y = _as_xy(batch, model.config.input_dim, model.config.target_dim)
    A = _forward_batch(model, X)
    *_, log_p = _batch_loss_terms(model.config, A, Y)
    return float(-np.mean(log_p))


def _backward_arrays(config: MdnConfig, weights, mean, std, X: np.ndarray, Y: np.ndarray):
    """Mean NLL over the batch and its gradient wrt every weight array."""
    K, D = config.n_components, config.target_dim
    B = X.shape[0]
    A, pre_acts, acts = _forward_arrays(
        config.hidden_activation, weights, mean, std, X, keep_hidden=True
    )
    terms = _batch_loss_terms(config, A, Y)
    _, d_a_pi, d_a_sigma, d_a_mu = _output_derivatives(Y, *terms)
    dA = np.concatenate([d_a_pi, d_a_sigma, d_a_mu.reshape(B, K * D)], axis=1)

    _, act_grad = _activation_fn(config.hidden_activation)
    n_layers = len(weights) // 2
    grads: list = [None] * (2 * n_layers)
    for i in range(n_layers - 1, -1, -1):
        grads[2 * i] = acts[i].T @ dA
        grads[2 * i + 1] = np.sum(dA, axis=0, keepdims=True)
        if i > 0:
            dH = dA @ weights[2 * i].T
            dA = dH * act_grad(pre_acts[i - 1], acts[i])
    return float(-np.mean(terms[-1])), grads


def gradients(model: MdnModel, batch) -> list:
    """Exact gradient of ``nll`` wrt every weight matrix, in weights order."""
    X, Y = _as_xy(batch, model.config.input_dim, model.config.target_dim)
    _, grads = _backward_arrays(
        model.config, model.weights, model.input_mean, model.input_std, X, Y
    )
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
    """
    X, Y = _as_xy(dataset, config.input_dim, config.target_dim)
    if not (np.isfinite(X).all() and np.isfinite(Y).all()):
        raise ValueError("training data must be finite")
    n = X.shape[0]

    mean = X.mean(axis=0)
    std = X.std(axis=0)
    std = np.where(std < _STD_FLOOR, 1.0, std)

    rng = Rng(config.seed)
    weights = _init_weights(config, Y, rng.spawn("init"))
    rng_shuffle = rng.spawn("shuffle")

    adam_m = [np.zeros_like(w) for w in weights]
    adam_v = [np.zeros_like(w) for w in weights]
    step = 0
    lr, b1, b2, eps = config.learning_rate, config.adam_beta1, config.adam_beta2, config.adam_eps

    log: list = []
    best = math.inf
    best_epoch = 0
    for epoch in range(1, config.epochs + 1):
        order = rng_shuffle.permutation(n)
        for bi, start in enumerate(range(0, n, config.batch_size)):
            idx = order[start : start + config.batch_size]
            loss, grads = _backward_arrays(config, weights, mean, std, X[idx], Y[idx])
            if not math.isfinite(loss):
                raise NumericError(
                    f"training aborted: non-finite NLL at epoch {epoch}, batch {bi + 1}"
                )
            step += 1
            if config.optimizer == "adam":
                c1 = 1.0 - b1**step
                c2 = 1.0 - b2**step
                for w, g, m, v in zip(weights, grads, adam_m, adam_v):
                    m *= b1
                    m += (1.0 - b1) * g
                    v *= b2
                    v += (1.0 - b2) * g * g
                    w -= lr * (m / c1) / (np.sqrt(v / c2) + eps)
            else:
                for w, g in zip(weights, grads):
                    w -= lr * g
        A = _forward_arrays(config.hidden_activation, weights, mean, std, X)
        *_, log_p = _batch_loss_terms(config, A, Y)
        epoch_nll = float(-np.mean(log_p))
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


def sample(params: MixtureParams, m: int, rng: Rng) -> np.ndarray:
    """Ancestral sampling: component index by cumulative-sum inversion with
    strict inequality, then an isotropic Gaussian draw. Stream layout: m
    uniforms for the component choices, then m*D normals row-major.
    """
    if m < 1:
        raise ValueError(f"sample count must be >= 1, got {m}")
    cum = np.cumsum(params.pi)
    u = np.atleast_1d(rng.uniform(m))
    k = np.minimum(np.searchsorted(cum, u, side="right"), params.n_components - 1)
    z = rng.normals(m * params.dim).reshape(m, params.dim)
    return params.mu[k] + params.sigma[k][:, None] * z


def mixture_at(model: MdnModel, x) -> MixtureParams:
    """forward + activations_to_params in one call."""
    return activations_to_params(forward(model, x), model.config.sigma_floor)
