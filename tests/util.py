"""Shared helpers for the test suite: random model and record builders,
the finite-difference gradient oracle, the reference training loop, the
reference bootstrap, dump writer and dump reader, the reference
prediction loop, the reference fingerprint CSV reader and writers, and
runners for code that must stay within a memory cap or a file-size cap."""

import csv
import json
import math
import os
import subprocess
import sys
import warnings
from itertools import islice
from pathlib import Path

import numpy as np
import pytest

import hmdn
from hmdn.dataio import FingerprintTable
from hmdn.errors import NumericError, ParseError, SchemaError, located
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
    _DUMP_FIELDS,
    _DUMP_HEADER,
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


# The dump reader as it was before it read a chunk of records at a time: one
# ``str.split`` per line, and one ``np.array`` over each section's split
# lines. Its records are what the chunked reader must return bit for bit.
# It takes the looser spelling the chunked reader refuses (doubled spaces,
# tabs, trailing blanks, '1_0', a last line without its newline, a
# condition holding ',', '"' or '/'), so compare them on writer-spelled dumps.
# A body line it refuses gets the chunked reader's message: the spelling
# due there and the line. A record line whose truth coordinates are not as
# many as the first record's is refused.


def _reference_read_block(start: int, parts, lines, m: int, n: int, width) -> PredictionRecord:
    offset = 0

    def coordinates(rows, cut: slice, first: int, due: str = None) -> np.ndarray:
        nonlocal offset
        try:
            values = np.array([p[cut] for _, p in rows], dtype=np.float64)
        except ValueError:
            for offset, (line, p) in enumerate(rows, start=first):
                try:
                    list(map(float, p[cut]))
                except ValueError:
                    if due is None:
                        raise
                    refuse(due, line)
            raise
        bad = ~np.isfinite(values).all(axis=1)
        if bad.any():
            offset = first + int(np.argmax(bad))
            raise ValueError("non-finite coordinate")
        return values

    def refuse(due: str, line: str):
        raise ValueError(f"expected {due!r}, got {line.rstrip(chr(10))!r}")

    try:
        zi = parts.index("z", 5) if "z" in parts[5:] else 0
        if parts[3:4] != ["truth"] or not 4 < zi < len(parts) - 1:
            raise ValueError("expected 'record <id> <condition> truth <coords> z <values>'")
        rid, cond = parts[1], parts[2]
        record_id, dim = int(rid), zi - 4
        head = coordinates([(None, parts[4:zi] + parts[zi + 1 :])], slice(None), 0)
        if width is not None and dim != width:
            raise ValueError(f"{dim} truth coordinates, but the first record has {width}")
        sections = []
        for first, count, kind, field, marks, cut in (
            (1, 1, "baseline", "estimate", "", slice(2, None)),
            (2, m, "baseline", "sample", "", slice(2, None)),
            (m + 2, 1, "hmdn", "estimate", " fallback=<0|1>", slice(2, -1)),
            (m + 3, m, "hmdn", "candidate", " score=<log density> selected=<0|1>", slice(2, -2)),
        ):
            due = f"{kind} {field} <{dim} coordinates>{marks}"
            rows = [(line, line.split()) for line in islice(lines, count)]
            for offset, (line, p) in enumerate(rows, start=first):
                if len(p) != 2 + dim + marks.count("=") or p[0] != kind or p[1] != field:
                    refuse(due, line)
            if len(rows) < count:
                offset = first + len(rows)
                raise ValueError(
                    f"end of file inside the block of record {rid} {cond} (line {start})"
                )
            sections.append((due, rows, coordinates(rows, cut, first, due)))

        (_, _, base), (_, _, samples), (flag_due, ((flag_line, flags),), hmdn), \
            (cand_due, cand_rows, cands) = sections
        offset = m + 2
        if flags[-1] not in ("fallback=0", "fallback=1"):
            refuse(flag_due, flag_line)
        fallback = flags[-1] == "fallback=1"
        scores, chosen = [], []
        for offset, (line, p) in enumerate(cand_rows, start=m + 3):
            if p[-2][:6] != "score=" or p[-1] not in ("selected=0", "selected=1"):
                refuse(cand_due, line)
            try:
                scores.append(float(p[-2][6:]))
            except ValueError:
                refuse(cand_due, line)
            chosen.append(p[-1] == "selected=1")
        offset = 0
        scores, selected = np.array(scores), np.flatnonzero(chosen)
        if selected.shape[0] != (m if fallback else n):
            raise ValueError(
                f"record {rid} {cond}: {selected.shape[0]} candidates selected, "
                f"expected {m if fallback else n}"
            )
    except ValueError as err:
        raise ParseError(str(err), line=start + offset) from None

    if not fallback:
        selected = selected[np.argsort(-scores[selected], kind="stable")]
    est = HmdnEstimate(
        estimate=hmdn[0],
        candidates=cands,
        scores=scores,
        selected_indices=selected,
        underflow_fallback=fallback,
    )
    return PredictionRecord(
        record_id=record_id,
        condition=cond,
        truth=head[0, :dim],
        z=head[0, dim:],
        baseline_samples=samples,
        baseline_estimate=base[0],
        hmdn=est,
    )


def reference_parse_predictions(path, header: dict = None) -> list:
    records = []
    with located(path), open(path, "r", encoding="utf-8") as fh:
        try:
            first = fh.readline().rstrip("\n")
            if first != _DUMP_HEADER:
                why = f"not a predictions dump (no {_DUMP_HEADER!r})"
                if first.startswith("# hmdn-predictions "):
                    why = (f"{first[2:]!r} dumps are no longer read; re-run `hmdn predict` "
                           f"to write {_DUMP_HEADER[2:]!r}")
                raise SchemaError(why, line=1)
            meta = {}
            for lineno, fields in enumerate(_DUMP_FIELDS, start=2):
                ln = fh.readline()
                words = ln.rstrip("\n").split(" ")
                keys, values = words[1::2], words[2::2]
                try:
                    if words[0] != "#" or keys != list(fields) or len(values) != len(keys):
                        raise ValueError
                    for domain, text in zip(fields.values(), values):
                        domain(text)
                except ValueError:
                    due = "# " + " ".join(f"{key} <{dom.__name__}>" for key, dom in fields.items())
                    got = repr(ln.rstrip("\n")) if ln else "the end of the file"
                    raise SchemaError(f"expected {due!r}, got {got}", line=lineno) from None
                meta.update(zip(keys, values))
            m, n, count = (int(meta[key]) for key in ("m", "n", "records"))
            if n > m:
                raise SchemaError(f"n {n} exceeds m {m}", line=3)
            if header is not None:
                header.update(meta)
            parts, lineno = next(map(str.split, fh), None), lineno + 1
            for _ in range(count):
                if parts is None:
                    raise ParseError(f"end of file after {len(records)} of the header's "
                                     f"'# records {count}'", line=lineno)
                if parts[0:1] != ["record"]:
                    raise ParseError("expected a 'record' line", line=lineno)
                width = records[0].truth.shape[0] if records else None
                records.append(_reference_read_block(lineno, parts, fh, m, n, width))
                lineno += 2 * m + 3
                parts = next(map(str.split, fh), None)
            if parts is not None:
                raise ParseError("expected the end of the file after the header's "
                                 f"'# records {count}'", line=lineno)
        except UnicodeDecodeError as err:
            raise ParseError(f"not UTF-8 text ({err.reason})") from None
    return records


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


def dump_outcome(reader, path) -> tuple:
    """What a dump reader makes of a file: each record's fields, arrays as
    dtype, shape, C-contiguity and bytes; or the class, location fields and
    message of the error it raises."""
    try:
        records = reader(path)
    except Exception as err:
        return (type(err), *where(err), str(err))
    out = []
    for r in records:
        est = r.hmdn
        arrays = (r.truth, r.z, r.baseline_samples, r.baseline_estimate, est.estimate,
                  est.candidates, est.scores, est.selected_indices)
        out.append((r.record_id, r.condition, est.underflow_fallback,
                    *((a.dtype.str, a.shape, a.flags.c_contiguous, a.tobytes())
                      for a in arrays)))
    return tuple(out)


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


def _run_child(code: str, *args) -> subprocess.CompletedProcess:
    """Run ``code`` in a fresh Python with ``args`` as its ``sys.argv[1:]``,
    this ``hmdn`` importable and one BLAS thread."""
    src = str(Path(hmdn.__file__).resolve().parent.parent)
    path = os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))
    env = {**os.environ, "PYTHONPATH": path, "OPENBLAS_NUM_THREADS": "1"}
    return subprocess.run([sys.executable, "-c", code, *args], env=env, capture_output=True,
                          text=True, timeout=120)


def run_capped(code: str, limit: int = 1 << 30) -> subprocess.CompletedProcess:
    """Run ``code`` in a fresh Python whose address space is capped at
    ``limit`` bytes (``RLIMIT_AS``), with this ``hmdn`` importable and one
    BLAS thread. A size check that regresses then fails fast on a refused
    allocation instead of committing memory."""
    cap = f"import resource\nresource.setrlimit(resource.RLIMIT_AS, ({limit}, {limit}))\n"
    return _run_child(cap + code)


_CUT_RUNS = """
import contextlib, io, json, resource, sys
from hmdn.cli import main
_, hard = resource.getrlimit(resource.RLIMIT_FSIZE)
outcomes = []
for argv, limit in json.loads(sys.argv[1]):
    err = io.StringIO()
    resource.setrlimit(resource.RLIMIT_FSIZE, (limit, hard))
    try:
        with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(err):
            code = main(argv)
    finally:
        resource.setrlimit(resource.RLIMIT_FSIZE, (hard, hard))
    outcomes.append((code, err.getvalue()))
print(json.dumps(outcomes))
"""


def run_cut(cases) -> list:
    """Run ``hmdn.cli.main(argv)`` for each ``(argv, limit)`` of ``cases``, in
    order and in one fresh Python started as ``run_capped`` starts it, each
    run with the size of any file it writes capped at ``limit`` bytes
    (``RLIMIT_FSIZE``, set in the child only). Python ignores SIGXFSZ, so a
    write past the cap fails with EFBIG. Returns each run's (exit code,
    stderr)."""
    done = _run_child(_CUT_RUNS, json.dumps([([str(a) for a in argv], limit)
                                             for argv, limit in cases]))
    assert done.returncode == 0, done.stderr
    return [tuple(outcome) for outcome in json.loads(done.stdout)]
