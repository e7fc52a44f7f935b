"""Shared helpers for the test suite: random model builders and the
finite-difference gradient oracle."""

import numpy as np

from hmdn.mdn import MdnConfig, MdnModel, nll
from hmdn.numcore import Rng


def make_random_model(
    seed,
    input_dim=2,
    n_components=2,
    target_dim=2,
    hidden=(4,),
    activation="tanh",
    sigma_floor=1e-3,
    weight_scale=0.7,
    random_standardize=False,
):
    """Hand-rolled random model (not produced by train) for oracle tests."""
    cfg = MdnConfig(
        input_dim=input_dim,
        target_dim=target_dim,
        n_components=n_components,
        hidden_layers=tuple(hidden),
        hidden_activation=activation,
        sigma_floor=sigma_floor,
        seed=seed,
    )
    rng = Rng(seed)
    ws = []
    for fan_in, fan_out in cfg.layer_dims():
        ws.append(((rng.uniform(fan_in * fan_out) * 2 - 1) * weight_scale).reshape(fan_in, fan_out))
        ws.append(((rng.uniform(fan_out) * 2 - 1) * weight_scale).reshape(1, fan_out))
    if random_standardize:
        mean = rng.uniform(input_dim) * 4 - 2
        std = rng.uniform(input_dim) * 1.5 + 0.5
    else:
        mean = np.zeros(input_dim)
        std = np.ones(input_dim)
    return MdnModel(config=cfg, weights=tuple(ws), input_mean=mean, input_std=std)


def random_batch(rng: Rng, model: MdnModel, size):
    X = (rng.uniform(size * model.config.input_dim) * 4 - 2).reshape(size, -1)
    Y = (rng.uniform(size * model.config.target_dim) * 4 - 2).reshape(size, -1)
    return X, Y


def with_weights(model: MdnModel, arrays):
    return MdnModel(
        config=model.config,
        weights=tuple(arrays),
        input_mean=model.input_mean,
        input_std=model.input_std,
    )


def finite_diff_grads(model: MdnModel, batch, h=1e-5):
    """Central finite differences of nll wrt every weight entry (oracle)."""
    arrays = [w.copy() for w in model.weights]
    out = []
    for wi in range(len(arrays)):
        g = np.zeros_like(arrays[wi])
        flat_w = arrays[wi].ravel()
        flat_g = g.ravel()
        for j in range(flat_w.size):
            orig = flat_w[j]
            flat_w[j] = orig + h
            up = nll(with_weights(model, arrays), batch)
            flat_w[j] = orig - h
            down = nll(with_weights(model, arrays), batch)
            flat_w[j] = orig
            flat_g[j] = (up - down) / (2.0 * h)
        out.append(g)
    return out


def grads_close(analytic, numeric, rel=1e-4, abs_tol=1e-7):
    """True when every entry agrees within rel OR abs tolerance."""
    for ga, gn in zip(analytic, numeric):
        diff = np.abs(ga - gn)
        scale = np.maximum(np.abs(ga), np.abs(gn))
        if not np.all((diff <= abs_tol) | (diff <= rel * scale)):
            return False
    return True
