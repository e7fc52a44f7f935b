"""Shared helpers for the test suite: random model and record builders,
the finite-difference gradient oracle, the reference training loop, the
reference bootstrap and dump writer, the reference prediction loop, and
the reference fingerprint CSV reader and writers."""

import csv
import math
import warnings

import numpy as np
import pytest

from hmdn.dataio import FingerprintTable
from hmdn.errors import NumericError, ParseError, SchemaError
from hmdn.mdn import (
    _PATIENCE,
    _STD_FLOOR,
    MdnConfig,
    MdnModel,
    MixtureParams,
    _init_weights,
    identity_model,
    nll,
)
from hmdn.numcore import Rng, fmt17
from hmdn.pipeline import (
    HmdnEstimate,
    HmdnPipeline,
    PredictionRecord,
    baseline_samples,
    predict,
    prediction_rngs,
)


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


def affine_model(a_pi, a_sigma, a_mu, sigma_floor=1e-3):
    """One-input affine (no hidden layer) model whose zero weights and bias
    spell out the output activations: a_pi (K,), a_sigma (K,) and a_mu
    (K, D) at every input."""
    a_mu = np.asarray(a_mu, dtype=np.float64)
    K, D = a_mu.shape
    cfg = MdnConfig(input_dim=1, target_dim=D, n_components=K, hidden_layers=(),
                    sigma_floor=sigma_floor)
    bias = np.concatenate([np.ravel(a_pi), np.ravel(a_sigma), a_mu.ravel()]).reshape(1, -1)
    return identity_model(cfg, [np.zeros((1, cfg.output_width)), bias])


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


# --- reference training loop --------------------------------------------------
# The training step as written before weights, gradients and Adam moments
# moved into flat buffers with preallocated per-batch-size workspaces: fresh
# arrays per batch, a per-array Adam update and standardization per batch.
# The optimized mdn.train and mdn.gradients must match it bit for bit.


def reference_log_sum_exp_rows(a):
    m = np.max(a, axis=1, keepdims=True)
    m = np.where(np.isfinite(m), m, 0.0)
    with np.errstate(divide="ignore"):
        return (m + np.log(np.sum(np.exp(a - m), axis=1, keepdims=True))).ravel()


def _reference_forward(activation, weights, mean, std, X, keep_hidden=False):
    if activation == "tanh":
        act = np.tanh
    else:
        def act(a):
            return np.maximum(a, 0.0)
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
            H = A
    return (H, pre_acts, acts) if keep_hidden else H


def _reference_loss_terms(config, A, Y):
    K, D = config.n_components, config.target_dim
    a_pi, a_sigma, mu = A[:, :K], A[:, K : 2 * K], A[:, 2 * K :].reshape(A.shape[0], K, D)
    log_pi = a_pi - reference_log_sum_exp_rows(a_pi)[:, None]
    with np.errstate(over="ignore", invalid="ignore"):
        raw_sigma = np.exp(a_sigma)
        sigma = np.maximum(raw_sigma, config.sigma_floor)
        floored = raw_sigma <= config.sigma_floor
        diff = Y[:, None, :] - mu
        quad = np.sum(diff * diff, axis=2)
        log_norm = -0.5 * D * math.log(2.0 * math.pi) - D * np.log(sigma) - quad / (2.0 * sigma**2)
        log_terms = log_pi + log_norm
    log_p = reference_log_sum_exp_rows(log_terms)
    return log_pi, sigma, floored, mu, quad, log_terms, log_p


def _reference_backward(config, weights, mean, std, X, Y):
    K, D = config.n_components, config.target_dim
    B = X.shape[0]
    A, pre_acts, acts = _reference_forward(
        config.hidden_activation, weights, mean, std, X, keep_hidden=True
    )
    log_pi, sigma, floored, mu, quad, log_terms, log_p = _reference_loss_terms(config, A, Y)
    with np.errstate(invalid="ignore"):
        gamma = np.exp(log_terms - log_p[:, None])
        inv_var = 1.0 / (sigma * sigma)
        d_a_pi = (np.exp(log_pi) - gamma) / B
        d_a_sigma = gamma * (D - quad * inv_var) * (~floored) / B
        d_a_mu = (gamma * inv_var / B)[:, :, None] * (mu - Y[:, None, :])
    dA = np.concatenate([d_a_pi, d_a_sigma, d_a_mu.reshape(B, K * D)], axis=1)
    n_layers = len(weights) // 2
    grads = [None] * (2 * n_layers)
    for i in range(n_layers - 1, -1, -1):
        grads[2 * i] = acts[i].T @ dA
        grads[2 * i + 1] = np.sum(dA, axis=0, keepdims=True)
        if i > 0:
            dH = dA @ weights[2 * i].T
            if config.hidden_activation == "tanh":
                dA = dH * (1.0 - acts[i] * acts[i])
            else:
                dA = dH * (pre_acts[i - 1] > 0.0).astype(np.float64)
    return float(-np.mean(log_p)), grads


def reference_gradients(model, batch):
    X, Y = (np.asarray(a, dtype=np.float64) for a in batch)
    _, grads = _reference_backward(
        model.config, model.weights, model.input_mean, model.input_std, X, Y
    )
    return grads


def reference_train(dataset, config):
    X, Y = (np.asarray(a, dtype=np.float64) for a in dataset)
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

    log = []
    best = math.inf
    best_epoch = 0
    for epoch in range(1, config.epochs + 1):
        order = rng_shuffle.permutation(n)
        for bi, start in enumerate(range(0, n, config.batch_size)):
            idx = order[start : start + config.batch_size]
            loss, grads = _reference_backward(config, weights, mean, std, X[idx], Y[idx])
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
        A = _reference_forward(config.hidden_activation, weights, mean, std, X)
        *_, log_p = _reference_loss_terms(config, A, Y)
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


# --- reference output path -----------------------------------------------------
# The paired bootstrap and the dump writer as written before they streamed:
# one n_resamples x n uniform matrix with np.median per row, and a dump
# built as one list of lines with a set lookup per candidate. The streaming
# versions must match them bit for bit and byte for byte.


def reference_bootstrap_improvement(b_err, h_err, rng: Rng, n_resamples: int = 10_000):
    n = b_err.shape[0]
    u = rng.uniform(n_resamples * n).reshape(n_resamples, n)
    idx = np.minimum((u * n).astype(int), n - 1)
    b_med = np.median(b_err[idx], axis=1)
    h_med = np.median(h_err[idx], axis=1)
    with np.errstate(divide="ignore", invalid="ignore"):
        pct = 100.0 * (b_med - h_med) / b_med
    pct = np.where(b_med > 0, pct, 0.0)
    lo, hi = np.percentile(pct, [2.5, 97.5])
    return float(lo), float(hi)


def make_dump_records(seed, dim, m, n, count=2, weighted=False):
    """Records from a pipeline of random models: g1 maps 2 inputs to
    ``dim`` coordinates, g2 maps those to one observable."""
    g1 = make_random_model(seed, input_dim=2, target_dim=dim, hidden=(4,))
    g2 = make_random_model(seed + 1, input_dim=dim, target_dim=1, hidden=(4,))
    pipe = HmdnPipeline(g1=g1, g2=g2, n_candidates=m, n_selected=n)
    rng = Rng(seed)
    records = []
    for rid in range(count):
        x = rng.uniform(2) * 2 - 1
        z = rng.uniform(1) * 2 - 1
        est = predict(pipe, x, z, rng.spawn("candidates", rid), weighted=weighted)
        cloud = baseline_samples(g1, x, rng.spawn("baseline", rid), m)
        records.append(
            PredictionRecord(
                record_id=rid,
                condition=("sunny", "cloudy")[rid % 2],
                truth=rng.uniform(dim) * 10,
                z=z,
                baseline_samples=cloud,
                baseline_estimate=cloud.mean(axis=0),
                hmdn=est,
            )
        )
    return records


def _reference_fmt_vec(v) -> str:
    return " ".join(format(float(x), ".17g") for x in np.asarray(v).ravel())


def reference_write_predictions(path, records, master_seed: int, m: int, n: int) -> None:
    lines = ["# hmdn-predictions v2", f"# master_seed {master_seed}", f"# m {m} n {n}",
             f"# records {len(records)}"]
    for r in records:
        lines.append(
            f"record {r.record_id} {r.condition} truth {_reference_fmt_vec(r.truth)} "
            f"z {_reference_fmt_vec(r.z)}"
        )
        lines.append(f"baseline estimate {_reference_fmt_vec(r.baseline_estimate)}")
        for s in r.baseline_samples:
            lines.append(f"baseline sample {_reference_fmt_vec(s)}")
        est = r.hmdn
        lines.append(
            f"hmdn estimate {_reference_fmt_vec(est.estimate)} "
            f"fallback={1 if est.underflow_fallback else 0}"
        )
        sel = set(int(i) for i in est.selected_indices)
        for i, (c, s) in enumerate(zip(est.candidates, est.scores)):
            lines.append(
                f"hmdn candidate {_reference_fmt_vec(c)} "
                f"score={format(float(s), '.17g')} selected={1 if i in sel else 0}"
            )
    with open(path, "w", encoding="utf-8") as fh:
        fh.write("\n".join(lines) + "\n")


# --- reference prediction path --------------------------------------------------
# Prediction as written before records were predicted in blocks: per
# (record, condition), a one-row g1 forward for each of the two clouds, a
# sampler drawing its uniforms and normals from the generator through the
# old u64_block, one g2 forward over the M candidates, a 1-D stable argsort
# and a RuntimeWarning per fallback record. The block kernel must match it
# bit for bit.

_GAMMA, _MIX1, _MIX2 = 0x9E3779B97F4A7C15, 0xBF58476D1CE4E5B9, 0x94D049BB133111EB


def reference_u64_block(rng: Rng, n):
    counters = rng.seed + (rng._count + 1 + np.arange(n, dtype=np.uint64)) * np.uint64(_GAMMA)
    rng._count += n
    z = counters
    z = (z ^ (z >> np.uint64(30))) * np.uint64(_MIX1)
    z = (z ^ (z >> np.uint64(27))) * np.uint64(_MIX2)
    return z ^ (z >> np.uint64(31))


def reference_uniform(rng: Rng, n):
    return ((reference_u64_block(rng, n) >> np.uint64(11))).astype(np.float64) * 2.0**-53


def reference_normals(rng: Rng, n):
    pairs = (n + 1) // 2
    words = reference_u64_block(rng, 2 * pairs)
    u1 = ((words[0::2] >> np.uint64(11)) + np.uint64(1)).astype(np.float64) * 2.0**-53
    u2 = ((words[1::2] >> np.uint64(11))).astype(np.float64) * 2.0**-53
    r = np.sqrt(-2.0 * np.log(u1))
    theta = (2.0 * math.pi) * u2
    out = np.empty(2 * pairs)
    out[0::2] = r * np.cos(theta)
    out[1::2] = r * np.sin(theta)
    return out[:n]


def reference_sample(params, m, rng: Rng):
    cum = np.cumsum(params.pi)
    u = np.atleast_1d(reference_uniform(rng, m))
    k = np.minimum(np.searchsorted(cum, u, side="right"), params.n_components - 1)
    z = reference_normals(rng, m * params.dim).reshape(m, params.dim)
    return params.mu[k] + params.sigma[k][:, None] * z


def reference_mixture_at(model: MdnModel, x):
    cfg = model.config
    K, D = cfg.n_components, cfg.target_dim
    X = np.asarray(x, dtype=np.float64).reshape(1, -1)
    A = _reference_forward(cfg.hidden_activation, model.weights, model.input_mean,
                           model.input_std, X)[0]
    a_pi, a_sigma = A[:K], A[K : 2 * K]
    log_pi = a_pi - reference_log_sum_exp_rows(a_pi[None])[0]
    with np.errstate(over="ignore"):
        sigma = np.maximum(np.exp(a_sigma), cfg.sigma_floor)
    return MixtureParams(pi=np.exp(log_pi), sigma=sigma, mu=A[2 * K :].reshape(K, D))


def reference_score_candidates(g2: MdnModel, candidates, z):
    A = _reference_forward(
        g2.config.hidden_activation, g2.weights, g2.input_mean, g2.input_std, candidates
    )
    Y = np.broadcast_to(np.asarray(z, dtype=np.float64), (candidates.shape[0], len(z)))
    *_, log_p = _reference_loss_terms(g2.config, A, Y)
    return log_p


def reference_select_top(scores, n):
    if not np.isfinite(scores).any():
        return np.arange(scores.shape[0]), True
    order = np.argsort(-scores, kind="stable")
    return order[:n], False


def reference_predict(pipeline, x, z, rng: Rng, weighted=False):
    params = reference_mixture_at(pipeline.g1, x)
    candidates = reference_sample(params, pipeline.n_candidates, rng)
    scores = reference_score_candidates(pipeline.g2, candidates, z)
    idx, fallback = reference_select_top(scores, pipeline.n_selected)
    chosen = candidates[idx]
    if fallback:
        warnings.warn(
            "all candidate scores are non-finite; falling back to the mean "
            "of all candidates",
            RuntimeWarning,
            stacklevel=2,
        )
        estimate = candidates.mean(axis=0)
    elif weighted:
        w = np.exp(scores[idx] - np.max(scores[idx]))
        estimate = (chosen * (w / w.sum())[:, None]).sum(axis=0)
    else:
        estimate = chosen.mean(axis=0)
    return HmdnEstimate(
        estimate=estimate,
        candidates=candidates,
        scores=scores,
        selected_indices=idx,
        underflow_fallback=fallback,
        weighted=weighted,
    )


def reference_baseline_samples(g1, x, rng: Rng, m):
    return reference_sample(reference_mixture_at(g1, x), m, rng)


def reference_run_predictions(
    pipeline, features, truths, lux_by_condition, record_ids, master_seed, weighted=False
):
    records = []
    for cond in lux_by_condition:
        lux = np.asarray(lux_by_condition[cond], dtype=np.float64)
        for rid in record_ids:
            rid = int(rid)
            rng_cand, rng_base = prediction_rngs(master_seed, cond, rid)
            est = reference_predict(
                pipeline, features[rid], [lux[rid]], rng_cand, weighted=weighted
            )
            cloud = reference_baseline_samples(
                pipeline.g1, features[rid], rng_base, pipeline.n_candidates
            )
            records.append(
                PredictionRecord(
                    record_id=rid,
                    condition=cond,
                    truth=np.asarray(truths[rid], dtype=np.float64),
                    z=np.array([lux[rid]]),
                    baseline_samples=cloud,
                    baseline_estimate=cloud.mean(axis=0),
                    hmdn=est,
                )
            )
    return records


# --- reference fingerprint CSV reader and writers -------------------------------
# The CSV code as written before files were parsed in one numpy pass and
# rendered through one row template: csv.reader with one float() per cell,
# and csv.writer with one fmt17 call per cell. The loader must match it bit
# for bit (or raise the same error) and the writers byte for byte.


def reference_load_csv(path):
    with open(path, "r", encoding="utf-8", newline="") as fh:
        reader = csv.reader(fh)
        try:
            header = next(reader)
        except StopIteration:
            raise SchemaError("empty file, expected a header row", path=path) from None

        wap_names = [c for c in header if c.startswith("WAP")]
        if not wap_names:
            raise SchemaError("no columns start with WAP prefix 'WAP'", path=path, line=1)
        for col in ("LONGITUDE", "LATITUDE"):
            if col not in header:
                raise SchemaError(f"missing column {col!r}", path=path, line=1)

        col_index = {c: i for i, c in enumerate(header)}
        wap_idx = [col_index[c] for c in wap_names]
        x_idx, y_idx = col_index["LONGITUDE"], col_index["LATITUDE"]
        meta_cols = [
            c for c in header if c not in wap_names and c not in ("LONGITUDE", "LATITUDE")
        ]

        rssi_rows, coord_rows = [], []
        metadata: dict = {c: [] for c in meta_cols}
        line = reader.line_num + 1  # the file line the next row starts on
        for row in reader:
            if len(row) != len(header):
                raise ParseError(f"row has {len(row)} cells, header has {len(header)}",
                                 path=path, line=line)

            def cell(idx, col):
                try:
                    return float(row[idx])
                except ValueError:
                    raise ParseError(f"cannot parse {row[idx]!r}", path=path, line=line,
                                     key=col) from None

            values = []
            for c, i in zip(wap_names, wap_idx):
                v = cell(i, c)
                if v != 100.0 and not (-104.0 <= v <= 0.0):
                    raise ParseError(f"value {v} outside [-104.0, 0.0] and not the sentinel",
                                     path=path, line=line, key=c)
                values.append(v)
            rssi_rows.append(values)
            xy = []
            for c, i in (("LONGITUDE", x_idx), ("LATITUDE", y_idx)):
                v = cell(i, c)
                if not math.isfinite(v):
                    raise ParseError(f"coordinate {v} is not finite", path=path, line=line,
                                     key=c)
                xy.append(v)
            coord_rows.append(xy)
            for c in meta_cols:
                metadata[c].append(row[col_index[c]])
            line = reader.line_num + 1

    if not rssi_rows:
        raise SchemaError("no data rows", path=path)
    return FingerprintTable(
        wap_names=tuple(wap_names),
        rssi=np.array(rssi_rows),
        coords=np.array(coord_rows),
        metadata={k: tuple(v) for k, v in metadata.items()},
    )


def raised(error, func, *args):
    """The ``error`` that ``func(*args)`` raises."""
    with pytest.raises(error) as info:
        func(*args)
    return info.value


def where(err) -> tuple:
    """An error's location fields: (path, line, column, key)."""
    return err.path, err.line, err.column, err.key


def load_outcome(loader, path):
    """What a CSV loader makes of a file: the table's exact bits, or the
    class, location fields and message of the error it raises."""
    try:
        table = loader(path)
    except Exception as err:
        fields = (getattr(err, name, None) for name in ("path", "line", "column", "key"))
        return (type(err), *fields, str(err))
    return (
        table.wap_names,
        table.rssi.shape,
        table.coords.shape,
        table.rssi.view(np.uint64).tolist(),
        table.coords.view(np.uint64).tolist(),
        table.metadata,
    )


def reference_write_dataset_csv(path, wap_names, rssi, coords, extra=None):
    extra = extra or {}
    rssi = np.asarray(rssi, dtype=np.float64)
    coords = np.asarray(coords, dtype=np.float64)
    header = [*wap_names, "LONGITUDE", "LATITUDE", *extra.keys()]
    with open(path, "w", encoding="utf-8", newline="") as fh:
        writer = csv.writer(fh, lineterminator="\n")
        writer.writerow(header)
        extra_cols = [np.asarray(v, dtype=np.float64) for v in extra.values()]
        for i in range(rssi.shape[0]):
            row = [fmt17(v) for v in rssi[i]]
            row += [fmt17(coords[i, 0]), fmt17(coords[i, 1])]
            row += [fmt17(col[i]) for col in extra_cols]
            writer.writerow(row)


def reference_table_to_csv(table, path):
    header = [*table.wap_names, "LONGITUDE", "LATITUDE", *table.metadata]
    with open(path, "w", encoding="utf-8", newline="") as fh:
        writer = csv.writer(fh, lineterminator="\n")
        writer.writerow(header)
        for i in range(table.n_records):
            row = [fmt17(v) for v in table.rssi[i]]
            row += [fmt17(table.coords[i, 0]), fmt17(table.coords[i, 1])]
            row += [table.metadata[c][i] for c in table.metadata]
            writer.writerow(row)
