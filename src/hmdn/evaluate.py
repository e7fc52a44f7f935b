"""Position-error metrics: baseline vs two-stage estimates, per condition,
with a paired bootstrap interval on the median improvement."""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .dataio import write_text
from .errors import NumericError
from .numcore import Rng, fmt17
from . import pipeline


@dataclass(frozen=True)
class ConditionMetrics:
    """Error summary for one lighting condition over the evaluated records."""

    condition: str
    n_records: int
    baseline_mean: float
    baseline_median: float
    hmdn_mean: float
    hmdn_median: float
    improvement_pct: float  # 100 * (baseline median - hmdn median) / baseline median
    ci_low: float           # bootstrap 95% interval of improvement_pct
    ci_high: float


def paired_errors(records) -> dict:
    """condition -> (baseline errors, hmdn errors), paired record-by-record:
    the Euclidean distances of the two estimates to the truth, computed
    for all records at once (each sum runs over one record's coordinates,
    so every error is the per-record value). Raises NumericError naming the
    first record whose estimates do not both lie at a finite distance from
    its truth (coordinates so large that the squares overflow)."""
    truth = np.array([r.truth for r in records], dtype=np.float64)
    with np.errstate(over="ignore"):
        b_err, h_err = (
            np.sqrt(np.sum((np.array(est, dtype=np.float64) - truth) ** 2, axis=-1))
            for est in ([r.baseline_estimate for r in records],
                        [r.hmdn.estimate for r in records])
        )
    finite = np.isfinite(b_err) & np.isfinite(h_err)
    if not finite.all():
        r = records[np.argmin(finite)]
        raise NumericError(f"the estimates of record {r.record_id} under {r.condition} "
                           "lie at no finite distance from its truth")
    buckets: dict = {}
    for i, r in enumerate(records):
        buckets.setdefault(r.condition, []).append(i)
    return {cond: (b_err[rows], h_err[rows]) for cond, rows in buckets.items()}


def _improvement_pct(b_median, h_median):
    with np.errstate(divide="ignore", invalid="ignore"):
        pct = 100.0 * (b_median - h_median) / b_median
    return np.where(b_median > 0, pct, 0.0)


def _ranked(err: np.ndarray):
    """Each error's int32 rank in a stable ascending sort of ``err`` (NaN
    last), and the errors in rank order."""
    order = np.argsort(err, kind="stable")
    rank = np.empty(err.shape[0], dtype=np.int32)
    rank[order] = np.arange(err.shape[0], dtype=np.int32)
    return rank, err[order]


def _rank_medians(rank, by_rank, idx, keys) -> np.ndarray:
    """``np.median(err[idx], axis=1)``, bit for bit, for ``_ranked(err)``
    and a (k, n) index matrix, from an in-place sort of the rows of ranks
    ``keys`` (k, n) instead of the errors.

    An index of n reads rank n - 1 (``take``'s clip mode is the clamp).
    A sorted rank row, mapped through ``by_rank``, is the sorted error row:
    ranks order the drawn errors as the errors do, and tied ranks hold equal
    errors. So, as in np.median, the median is ``np.mean`` of the middle one
    or two of them, or NaN where the row's last rank maps to a NaN.
    """
    np.take(rank, idx, out=keys, mode="clip")
    keys.sort(axis=1)
    n = keys.shape[1]
    med = np.mean(by_rank[keys[:, n // 2 - 1 + n % 2 : n // 2 + 1]], axis=1)
    last = by_rank[keys[:, -1]]
    np.copyto(med, last, where=np.isnan(last))
    return med


# bootstrap resamples per interval unless the caller asks for another count
N_RESAMPLES = 10_000

# uniforms drawn per block of resamples; the block size is derived from n
# so that one block holds about this many, whatever n_resamples is
_BLOCK_DRAWS = 65536


def bootstrap_improvement(b_err, h_err, rng: Rng, n_resamples: int = N_RESAMPLES):
    """95% percentile interval of the median-error improvement (paired).

    Resample r takes indices floor(u * n) (clamped to n - 1) from uniforms
    r * n .. r * n + n - 1 of the stream, and its medians are computed on
    its own row. Rows are drawn and reduced in blocks of
    max(1, 65536 // n) resamples: the stream is consumed in the same
    row-major order whatever the block size, so the interval is the same
    as drawing one n_resamples x n matrix, while memory per call stays
    near 65536 draws instead of growing with n_resamples * n.
    """
    n = b_err.shape[0]
    if n < 1 or n_resamples < 1:
        raise ValueError(
            f"need n >= 1 paired errors and n_resamples >= 1, got {n} and {n_resamples}"
        )
    rows = max(1, _BLOCK_DRAWS // n)
    ranked = (_ranked(b_err), _ranked(h_err))
    idx = np.empty((rows, n), dtype=np.intp)
    keys = np.empty((rows, n), dtype=np.int32)
    pct = np.empty(n_resamples)
    for start in range(0, n_resamples, rows):
        k = min(rows, n_resamples - start)
        # floor(u * n) of each uniform u: u * n >= 0, so the cast truncates to it
        np.multiply(rng.uniform(k * n).reshape(k, n), n, out=idx[:k], casting="unsafe")
        pct[start : start + k] = _improvement_pct(
            *(_rank_medians(*r, idx[:k], keys[:k]) for r in ranked)
        )
    lo, hi = np.percentile(pct, [2.5, 97.5])
    return float(lo), float(hi)


def compute_metrics(records, master_seed: int, n_resamples: int = N_RESAMPLES) -> list:
    """Per-condition metrics; bootstrap streams derive from the master seed
    and the condition name, so re-runs reproduce the intervals exactly."""
    by_condition = paired_errors(records)
    base = Rng(master_seed)
    out = []
    for cond in sorted(by_condition):
        b_err, h_err = by_condition[cond]
        lo, hi = bootstrap_improvement(
            b_err, h_err, base.spawn("bootstrap", cond), n_resamples
        )
        out.append(
            ConditionMetrics(
                condition=cond,
                n_records=b_err.shape[0],
                baseline_mean=float(b_err.mean()),
                baseline_median=float(np.median(b_err)),
                hmdn_mean=float(h_err.mean()),
                hmdn_median=float(np.median(h_err)),
                improvement_pct=float(
                    _improvement_pct(np.median(b_err), np.median(h_err))
                ),
                ci_low=lo,
                ci_high=hi,
            )
        )
    return out


def metrics_from_dump(path, n_resamples: int = N_RESAMPLES) -> list:
    """Recompute the metrics from a predictions dump file alone.

    The master seed is read back from the dump header, so the bootstrap
    intervals match a live evaluation over the same records.
    """
    meta = {}
    records = pipeline.parse_predictions(path, header=meta)
    return compute_metrics(records, int(meta["master_seed"]), n_resamples)


def _rows(metrics):
    """The rows of both metrics files: per condition its baseline row, whose
    improvement and interval cells are None, and its hmdn row."""
    for m in metrics:
        yield (m.condition, "baseline", m.n_records, m.baseline_mean, m.baseline_median,
               None, None, None)
        yield (m.condition, "hmdn", m.n_records, m.hmdn_mean, m.hmdn_median, m.improvement_pct,
               m.ci_low, m.ci_high)


def format_metrics_table(metrics) -> str:
    """Human-readable fixed-width table."""
    lines = [
        f"{'condition':<14} {'method':<9} {'n':>4} {'mean_err':>9} {'median_err':>11} "
        f"{'improve%':>9} {'ci95_low':>9} {'ci95_high':>9}"
    ]
    for condition, method, n, mean, median, *tail in _rows(metrics):
        tail = " ".join(" " * 9 if cell is None else f"{cell:>9.3f}" for cell in tail)
        lines.append(f"{condition:<14} {method:<9} {n:>4} {mean:>9.4f} {median:>11.4f} {tail}")
    return "\n".join(lines)


def write_metrics_csv(metrics, path) -> None:
    """Machine-readable export: one row per (condition, method)."""
    lines = ["condition,method,n_records,mean_error,median_error,improvement_pct,ci_low,ci_high"]
    for row in _rows(metrics):
        lines.append(",".join("" if cell is None else fmt17(cell) if isinstance(cell, float)
                              else str(cell) for cell in row))
    write_text(path, ["\n".join(lines) + "\n"])
