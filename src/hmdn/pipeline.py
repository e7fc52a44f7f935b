"""Two-stage composition of trained mixture networks.

The first network g1 maps an observed feature vector to a mixture over
target space; the second network g2 maps a target point to a mixture over
a second observed feature. Prediction samples M candidate targets from
g1, scores each candidate by the log-likelihood g2 assigns to the second
observation, keeps the N best, and averages them. Scores are log
densities throughout: with many candidates the raw densities routinely
underflow in the tails, and only rank order matters for selection.
"""

from __future__ import annotations

import warnings
from dataclasses import dataclass

import numpy as np

from .errors import ShapeError
from .mdn import MdnModel, _log_likelihoods, mixture_at, sample
from .numcore import Rng, fmt17


@dataclass(frozen=True)
class HmdnPipeline:
    """Two frozen networks joined by sample-then-score selection.

    The networks are trained independently and composed as-is; no joint
    fine-tuning happens here.
    """

    g1: MdnModel
    g2: MdnModel
    n_candidates: int = 100
    n_selected: int = 20

    def __post_init__(self):
        if self.g1.config.target_dim != self.g2.config.input_dim:
            raise ShapeError(
                f"g1 target dimension {self.g1.config.target_dim} must equal "
                f"g2 input dimension {self.g2.config.input_dim}"
            )
        if not 1 <= self.n_selected <= self.n_candidates:
            raise ValueError(
                f"need 1 <= n_selected <= n_candidates, got "
                f"{self.n_selected} and {self.n_candidates}"
            )


@dataclass(frozen=True)
class HmdnEstimate:
    """Final estimate plus every intermediate set, kept for inspection.

    ``selected_indices`` are indices into ``candidates``, exactly the
    n_selected highest scores (ties broken by candidate index ascending).
    """

    estimate: np.ndarray
    candidates: np.ndarray        # (M, D)
    scores: np.ndarray            # (M,) log p(z | candidate)
    selected_indices: np.ndarray  # (N,)
    underflow_fallback: bool = False
    weighted: bool = False

    @property
    def selected(self) -> np.ndarray:
        return self.candidates[self.selected_indices]

    @property
    def selected_scores(self) -> np.ndarray:
        return self.scores[self.selected_indices]


def score_candidates(g2: MdnModel, candidates, z) -> np.ndarray:
    """Log-density each candidate assigns to the observation z under g2.

    Up to an additive constant this is the log-posterior over candidates,
    so ranking by it is ranking by posterior probability.
    """
    C = np.asarray(candidates, dtype=np.float64)
    if C.ndim == 1:
        C = C.reshape(1, -1)
    if C.shape[1] != g2.config.input_dim:
        raise ShapeError(
            f"candidates have dimension {C.shape[1]}, g2 expects {g2.config.input_dim}"
        )
    z = np.asarray(z, dtype=np.float64)
    if z.shape != (g2.config.target_dim,):
        raise ShapeError(f"z has shape {z.shape}, g2 targets are {g2.config.target_dim}-dimensional")
    return _log_likelihoods(g2, C, np.broadcast_to(z, (C.shape[0], z.shape[0])))


def select_top(scores, n: int):
    """Indices of the n best scores, ties broken by index ascending.

    Returns ``(indices, fallback)``; fallback is True when every score is
    non-finite, in which case all indices are returned so the caller can
    average over the whole candidate set.
    """
    scores = np.asarray(scores, dtype=np.float64)
    if not 1 <= n <= scores.shape[0]:
        raise ValueError(f"need 1 <= n <= {scores.shape[0]}, got {n}")
    if not np.isfinite(scores).any():
        return np.arange(scores.shape[0]), True
    order = np.argsort(-scores, kind="stable")
    return order[:n], False


def predict(pipeline: HmdnPipeline, x, z, rng: Rng, weighted: bool = False) -> HmdnEstimate:
    """Sample, score, select, average.

    With ``weighted`` the estimate is the softmax-score-weighted mean of
    the selected candidates instead of the plain mean (an extension; the
    default plain mean is the reference behavior).
    """
    params = mixture_at(pipeline.g1, x)
    candidates = sample(params, pipeline.n_candidates, rng)
    scores = score_candidates(pipeline.g2, candidates, z)
    idx, fallback = select_top(scores, pipeline.n_selected)
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


def baseline_samples(g1: MdnModel, x, rng: Rng, m: int) -> np.ndarray:
    """The m-point candidate cloud drawn from g1 alone."""
    return sample(mixture_at(g1, x), m, rng)


def predict_baseline(g1: MdnModel, x, rng: Rng, m: int) -> np.ndarray:
    """Mean of m draws from g1(x): the estimate that ignores the second feature."""
    return baseline_samples(g1, x, rng, m).mean(axis=0)


def prediction_rngs(master_seed: int, condition: str, record_id: int):
    """The two generators one prediction consumes.

    Derivation is fixed: ``spawn("predict", condition, record_id, role)``
    off the master seed, with roles "candidates" and "baseline". Any code
    path that predicts the same (record, condition) pair under the same
    master seed therefore draws identical samples, which is what makes the
    predict and evaluate commands agree number-for-number.
    """
    base = Rng(master_seed)
    return (
        base.spawn("predict", condition, record_id, "candidates"),
        base.spawn("predict", condition, record_id, "baseline"),
    )


def run_predictions(
    pipeline: HmdnPipeline,
    features: np.ndarray,
    truths: np.ndarray,
    lux_by_condition: dict,
    record_ids,
    master_seed: int,
    weighted: bool = False,
) -> list:
    """Predict every (record, condition) pair and bundle the results.

    ``features`` are g1-ready inputs (already normalized), ``truths`` the
    matching coordinates, ``lux_by_condition`` maps condition name to the
    per-record observed illumination.
    """
    records = []
    for cond in lux_by_condition:
        lux = np.asarray(lux_by_condition[cond], dtype=np.float64)
        for rid in record_ids:
            rid = int(rid)
            rng_cand, rng_base = prediction_rngs(master_seed, cond, rid)
            est = predict(pipeline, features[rid], [lux[rid]], rng_cand, weighted=weighted)
            cloud = baseline_samples(pipeline.g1, features[rid], rng_base, pipeline.n_candidates)
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


# --- prediction dump: line-oriented text consumed by plotting/evaluation ---

_DUMP_HEADER = "# hmdn-predictions v1"


@dataclass(frozen=True)
class PredictionRecord:
    """Everything one prediction produced, as written to a dump file."""

    record_id: int
    condition: str
    truth: np.ndarray
    z: np.ndarray
    baseline_samples: np.ndarray
    baseline_estimate: np.ndarray
    hmdn: HmdnEstimate


def _fmt_vec(v) -> str:
    return " ".join(fmt17(x) for x in np.asarray(v).ravel())


def write_predictions(path, records, master_seed: int, m: int, n: int) -> None:
    """Write prediction records to a dump file.

    Per (record, condition): one ``record`` line with truth coordinates and
    the observed z, one ``baseline estimate`` line, M ``baseline sample``
    lines, one ``hmdn estimate`` line, and M ``hmdn candidate`` lines with
    score and selected flag. Candidate lines list the selected block first,
    scores descending (ties by candidate index), then the rest, also
    descending.
    """
    lines = [_DUMP_HEADER, f"# master_seed {master_seed}", f"# m {m} n {n}"]
    for r in records:
        rid, cond = r.record_id, r.condition
        lines.append(f"record {rid} {cond} truth {_fmt_vec(r.truth)} z {_fmt_vec(r.z)}")
        lines.append(f"baseline {rid} {cond} estimate {_fmt_vec(r.baseline_estimate)}")
        for i, s in enumerate(r.baseline_samples):
            lines.append(f"baseline {rid} {cond} sample {i} {_fmt_vec(s)}")
        est = r.hmdn
        lines.append(
            f"hmdn {rid} {cond} estimate {_fmt_vec(est.estimate)} "
            f"fallback={1 if est.underflow_fallback else 0}"
        )
        sel = set(int(i) for i in est.selected_indices)
        order = np.argsort(-est.scores, kind="stable")
        ordered = [i for i in order if i in sel] + [i for i in order if i not in sel]
        for i in ordered:
            lines.append(
                f"hmdn {rid} {cond} candidate {i} {_fmt_vec(est.candidates[i])} "
                f"score={fmt17(est.scores[i])} selected={1 if i in sel else 0}"
            )
    with open(path, "w", encoding="utf-8") as fh:
        fh.write("\n".join(lines) + "\n")


def parse_predictions(path) -> list:
    """Re-read a dump file into PredictionRecord values."""
    with open(path, "r", encoding="utf-8") as fh:
        lines = [ln.rstrip("\n") for ln in fh]
    if not lines or lines[0] != _DUMP_HEADER:
        raise ValueError(f"{path}: not a predictions dump (missing header)")

    records = []
    current: dict | None = None

    def close(cur):
        if cur is None:
            return
        cand = sorted(cur["candidates"], key=lambda t: t[0])
        candidates = np.array([c[1] for c in cand])
        scores = np.array([c[2] for c in cand])
        selected = np.array([c[0] for c in cur["candidates"] if c[3]], dtype=int)
        est = HmdnEstimate(
            estimate=np.array(cur["hmdn_estimate"]),
            candidates=candidates,
            scores=scores,
            selected_indices=selected,
            underflow_fallback=cur["fallback"],
        )
        records.append(
            PredictionRecord(
                record_id=cur["rid"],
                condition=cur["cond"],
                truth=np.array(cur["truth"]),
                z=np.array(cur["z"]),
                baseline_samples=np.array(cur["baseline_samples"]),
                baseline_estimate=np.array(cur["baseline_estimate"]),
                hmdn=est,
            )
        )

    for ln in lines:
        if not ln or ln.startswith("#"):
            continue
        parts = ln.split()
        kind = parts[0]
        if kind == "record":
            close(current)
            zi = parts.index("z")
            current = {
                "rid": int(parts[1]),
                "cond": parts[2],
                "truth": [float(v) for v in parts[4:zi]],
                "z": [float(v) for v in parts[zi + 1 :]],
                "baseline_samples": [],
                "baseline_estimate": None,
                "hmdn_estimate": None,
                "fallback": False,
                "candidates": [],
            }
        elif kind == "baseline" and parts[3] == "estimate":
            current["baseline_estimate"] = [float(v) for v in parts[4:]]
        elif kind == "baseline" and parts[3] == "sample":
            current["baseline_samples"].append([float(v) for v in parts[5:]])
        elif kind == "hmdn" and parts[3] == "estimate":
            current["fallback"] = parts[-1] == "fallback=1"
            current["hmdn_estimate"] = [float(v) for v in parts[4:-1]]
        elif kind == "hmdn" and parts[3] == "candidate":
            idx = int(parts[4])
            score = float(parts[-2].split("=", 1)[1])
            selected = parts[-1] == "selected=1"
            coords = [float(v) for v in parts[5:-2]]
            current["candidates"].append((idx, coords, score, selected))
        else:
            raise ValueError(f"{path}: unrecognized dump line: {ln!r}")
    close(current)
    return records
