"""Position-error metrics: baseline vs two-stage estimates, per condition,
with a paired bootstrap interval on the median improvement."""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import SchemaError
from .numcore import Rng, fmt17, seed64
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
    for all of a condition's records at once (each sum runs over one
    record's coordinates, so every error is the per-record value)."""
    buckets: dict = {}
    for r in records:
        buckets.setdefault(r.condition, []).append(r)
    out = {}
    for cond, rs in buckets.items():
        truth = np.array([r.truth for r in rs], dtype=np.float64)
        out[cond] = tuple(
            np.sqrt(np.sum((np.array(est, dtype=np.float64) - truth) ** 2, axis=-1))
            for est in ([r.baseline_estimate for r in rs], [r.hmdn.estimate for r in rs])
        )
    return out


def _improvement_pct(b_median, h_median):
    with np.errstate(divide="ignore", invalid="ignore"):
        pct = 100.0 * (b_median - h_median) / b_median
    return np.where(b_median > 0, pct, 0.0)


def _row_medians(a: np.ndarray) -> np.ndarray:
    """``np.median(a, axis=1)``, bit for bit, from an in-place row sort.

    np.median partitions each row and takes ``np.mean`` of the middle one
    or two entries; a sorted row holds the same values at those positions,
    and numpy's vectorized sort beats its multi-pivot partition several
    times over at these sizes. As in np.median, a row that holds a NaN
    (sorted last) has median NaN.
    """
    a.sort(axis=1)
    n = a.shape[1]
    med = np.mean(a[:, n // 2 - 1 + n % 2 : n // 2 + 1], axis=1)
    last = a[:, -1]
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
    pct = np.empty(n_resamples)
    for start in range(0, n_resamples, rows):
        k = min(rows, n_resamples - start)
        u = rng.uniform(k * n)
        u *= n
        idx = u.astype(int).reshape(k, n)
        np.minimum(idx, n - 1, out=idx)
        pct[start : start + k] = _improvement_pct(
            _row_medians(b_err[idx]), _row_medians(h_err[idx])
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
    intervals match a live evaluation over the same records; a header
    without a valid ``master_seed`` raises SchemaError.
    """
    meta = {}
    records = pipeline.parse_predictions(path, header=meta)
    try:
        seed = seed64(meta["master_seed"])
    except (KeyError, ValueError):
        raise SchemaError("dump header needs a '# master_seed <0..2^64-1>' line",
                          path=path) from None
    return compute_metrics(records, seed, n_resamples)


def format_metrics_table(metrics) -> str:
    """Human-readable fixed-width table."""
    lines = [
        f"{'condition':<14} {'method':<9} {'n':>4} {'mean_err':>9} {'median_err':>11} "
        f"{'improve%':>9} {'ci95_low':>9} {'ci95_high':>9}"
    ]
    for m in metrics:
        lines.append(
            f"{m.condition:<14} {'baseline':<9} {m.n_records:>4} {m.baseline_mean:>9.4f} "
            f"{m.baseline_median:>11.4f} {'':>9} {'':>9} {'':>9}"
        )
        lines.append(
            f"{m.condition:<14} {'hmdn':<9} {m.n_records:>4} {m.hmdn_mean:>9.4f} "
            f"{m.hmdn_median:>11.4f} {m.improvement_pct:>9.3f} {m.ci_low:>9.3f} {m.ci_high:>9.3f}"
        )
    return "\n".join(lines)


def write_metrics_csv(metrics, path) -> None:
    """Machine-readable export: one row per (condition, method)."""
    lines = ["condition,method,n_records,mean_error,median_error,improvement_pct,ci_low,ci_high"]
    for m in metrics:
        lines.append(
            f"{m.condition},baseline,{m.n_records},{fmt17(m.baseline_mean)},"
            f"{fmt17(m.baseline_median)},,,"
        )
        lines.append(
            f"{m.condition},hmdn,{m.n_records},{fmt17(m.hmdn_mean)},{fmt17(m.hmdn_median)},"
            f"{fmt17(m.improvement_pct)},{fmt17(m.ci_low)},{fmt17(m.ci_high)}"
        )
    with open(path, "w", encoding="utf-8") as fh:
        fh.write("\n".join(lines) + "\n")
