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
from itertools import islice
from dataclasses import dataclass

import numpy as np

from .errors import ParseError, SchemaError, ShapeError, located
from .mdn import MdnModel, _draw, _log_likelihoods, _mixtures, mixture_at, sample
from .numcore import FLOAT_SPEC, Rng, positive_int


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


def _check_z(g2: MdnModel, z: np.ndarray) -> None:
    if z.shape != (g2.config.target_dim,):
        raise ShapeError(f"z has shape {z.shape}, g2 targets are {g2.config.target_dim}-dimensional")


def _rank(S: np.ndarray):
    """Row-wise order of the scores S (R, M), best first with ties broken by
    index ascending (a stable argsort), and the mask of rows without a
    finite score."""
    return np.argsort(-S, axis=1, kind="stable"), ~np.isfinite(S).any(axis=1)


def _selected(order: np.ndarray, fallback, n: int) -> np.ndarray:
    """The n best indices of one ranked row, or every index on fallback."""
    return np.arange(order.shape[0]) if fallback else order[:n]


def _predict_rows(pipeline: HmdnPipeline, mix, z: np.ndarray, rngs, weighted: bool):
    """Sample, score, select and average for R records at once.

    ``mix`` holds the records' g1 mixtures as rows (pi, sigma, mu), ``z``
    their observations (R, dz) and ``rngs`` their candidate streams. Each
    record's M candidates go through g2 as their own M-row product (a
    stacked matmul), and every reduction runs within a record's row, so a
    record comes out bit for bit as when predicted alone. Returns the
    candidates (R, M, D), scores (R, M), the ranked order of each row (R, M),
    the fallback mask (R,) and the estimates (R, D).
    """
    M, N = pipeline.n_candidates, pipeline.n_selected
    C = _draw(*mix, M, rngs)
    S = _log_likelihoods(pipeline.g2, C, np.repeat(z, M, axis=0)).reshape(C.shape[:2])
    order, fallback = _rank(S)
    top = order[:, :N]
    chosen = np.take_along_axis(C, top[:, :, None], axis=1)
    if weighted:
        s = np.take_along_axis(S, top, axis=1)
        with np.errstate(invalid="ignore"):  # fallback rows, replaced below
            w = np.exp(s - np.max(s, axis=1, keepdims=True))
            est = (chosen * (w / w.sum(axis=1, keepdims=True))[:, :, None]).sum(axis=1)
    else:
        est = chosen.mean(axis=1)
    est[fallback] = C[fallback].mean(axis=1)
    return C, S, order, fallback, est


def predict(pipeline: HmdnPipeline, x, z, rng: Rng, weighted: bool = False) -> HmdnEstimate:
    """Sample, score, select, average.

    With ``weighted`` the estimate is the softmax-score-weighted mean of
    the selected candidates instead of the plain mean (an extension; the
    default plain mean is the reference behavior).
    """
    mix = _mixtures(pipeline.g1, np.asarray(x, dtype=np.float64)[None])
    z = np.asarray(z, dtype=np.float64)
    _check_z(pipeline.g2, z)
    C, S, order, fallback, est = _predict_rows(pipeline, mix, z[None], [rng], weighted)
    if fallback[0]:
        warnings.warn(
            "all candidate scores are non-finite; falling back to the mean "
            "of all candidates",
            RuntimeWarning,
            stacklevel=2,
        )
    return HmdnEstimate(
        estimate=est[0],
        candidates=C[0],
        scores=S[0],
        selected_indices=_selected(order[0], fallback[0], pipeline.n_selected),
        underflow_fallback=bool(fallback[0]),
        weighted=weighted,
    )


def baseline_samples(g1: MdnModel, x, rng: Rng, m: int) -> np.ndarray:
    """The m-point candidate cloud drawn from g1 alone."""
    return sample(mixture_at(g1, x), m, rng)


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


# candidate rows one block of records sends through g2 together
_BLOCK_ROWS = 4096


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
    per-record observed illumination. Records come out condition by
    condition, in ``record_ids`` order, each owning its arrays and equal to
    what ``predict`` and ``baseline_samples`` give for it alone.

    The g1 mixtures are computed once per call; each condition then runs
    blocks of ``max(1, 4096 // M)`` records through ``_predict_rows``, which
    bounds the working memory whatever the record count. Predictions that
    fell back to the mean of all candidates are reported with one
    RuntimeWarning per condition.
    """
    ids = [int(rid) for rid in record_ids]
    if not ids:
        return []
    M, N = pipeline.n_candidates, pipeline.n_selected
    _check_z(pipeline.g2, np.zeros(1))  # each record observes one value
    mix = _mixtures(pipeline.g1, np.asarray(features, dtype=np.float64)[ids])
    block = max(1, _BLOCK_ROWS // M)
    records = []
    for cond in lux_by_condition:
        lux = np.asarray(lux_by_condition[cond], dtype=np.float64)
        fell_back = 0
        for start in range(0, len(ids), block):
            part = ids[start : start + block]
            part_mix = [a[start : start + block] for a in mix]
            rngs = [prediction_rngs(master_seed, cond, rid) for rid in part]
            z = lux[part].reshape(-1, 1)
            C, S, order, fallback, est = _predict_rows(
                pipeline, part_mix, z, [r[0] for r in rngs], weighted
            )
            clouds = _draw(*part_mix, M, [r[1] for r in rngs])
            cloud_means = clouds.mean(axis=1)
            fell_back += int(np.count_nonzero(fallback))
            for i, rid in enumerate(part):
                hmdn = HmdnEstimate(
                    estimate=est[i].copy(),
                    candidates=C[i].copy(),
                    scores=S[i].copy(),
                    selected_indices=_selected(order[i], fallback[i], N).copy(),
                    underflow_fallback=bool(fallback[i]),
                    weighted=weighted,
                )
                records.append(
                    PredictionRecord(
                        record_id=rid,
                        condition=cond,
                        truth=np.array(truths[rid], dtype=np.float64),
                        z=z[i].copy(),
                        baseline_samples=clouds[i].copy(),
                        baseline_estimate=cloud_means[i].copy(),
                        hmdn=hmdn,
                    )
                )
        if fell_back:
            warnings.warn(
                f"{fell_back} of {len(ids)} predictions under {cond} fell back to the "
                "mean of all candidates",
                RuntimeWarning,
                stacklevel=2,
            )
    return records


# --- prediction dump: line-oriented text consumed by plotting/evaluation ---

_DUMP_HEADER = "# hmdn-predictions v2"


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


def _vec(k: int) -> str:
    """%-template for k space-separated floats."""
    return " ".join([FLOAT_SPEC] * k)


def _render_record(r: PredictionRecord) -> str:
    """One record's block of dump lines. Each section is one %-template
    over ``.tolist()`` values, so every float goes through ``FLOAT_SPEC``."""
    est = r.hmdn
    truth, z = np.ravel(r.truth).tolist(), np.ravel(r.z).tolist()
    base, hest = np.ravel(r.baseline_estimate).tolist(), np.ravel(est.estimate).tolist()
    samples = np.asarray(r.baseline_samples)
    m, dim = est.candidates.shape
    flags = np.zeros(m)
    flags[np.asarray(est.selected_indices, dtype=np.intp)] = 1
    candidates = np.column_stack([est.candidates, est.scores, flags])
    cond = r.condition.replace("%", "%%")
    return "".join([
        f"record {r.record_id} {cond} truth {_vec(len(truth))} z {_vec(len(z))}\n" % (*truth, *z),
        f"baseline estimate {_vec(len(base))}\n" % tuple(base),
        (f"baseline sample {_vec(samples.shape[1])}\n" * len(samples))
        % tuple(samples.ravel().tolist()),
        f"hmdn estimate {_vec(len(hest))} fallback=%d\n" % (*hest, est.underflow_fallback),
        (f"hmdn candidate {_vec(dim)} score={FLOAT_SPEC} selected=%d\n" * m)
        % tuple(candidates.ravel().tolist()),
    ])


def write_predictions(path, records, master_seed: int, m: int, n: int) -> None:
    """Write a list of prediction records to a dump file, one record block
    at a time.

    The header gives the master seed, M, N and the record count. Per
    (record, condition): one ``record`` line with the id, condition, truth
    coordinates and observed z, one ``baseline estimate`` line, M
    ``baseline sample`` lines, one ``hmdn estimate`` line, and M ``hmdn
    candidate`` lines with score and selected flag, in index order.
    """
    with open(path, "w", encoding="utf-8") as fh:
        fh.write(f"{_DUMP_HEADER}\n# master_seed {master_seed}\n# m {m} n {n}\n"
                 f"# records {len(records)}\n")
        for r in records:
            fh.write(_render_record(r))


def _read_header(fh, start: int = 1):
    """Read the ``# key value ...`` lines at the current position of an open
    dump, line ``start`` of the file. Returns the key/value pairs of those
    with an even number of fields, the first line after them (None at the
    end of the file) and its number."""
    meta: dict = {}
    lineno = start - 1
    for lineno, ln in enumerate(fh, start=start):
        if not ln.startswith("#"):
            return meta, ln, lineno
        parts = ln[1:].split()
        if len(parts) % 2 == 0:
            meta.update(zip(parts[0::2], parts[1::2]))
    return meta, None, lineno + 1


def _block_sizes(meta: dict):
    """(m, n, k) from the dump header: candidates and selected per record,
    and the number of records."""
    try:
        m, n, k = (positive_int(meta[key]) for key in ("m", "n", "records"))
    except (KeyError, ValueError):
        m = n = k = 0
    if not 1 <= n <= m:
        raise SchemaError(
            "dump header needs '# m <candidates> n <selected>' with 1 <= n <= m and "
            f"'# records <count>' with count >= 1, got m={meta.get('m')!r} "
            f"n={meta.get('n')!r} records={meta.get('records')!r}"
        )
    return m, n, k


def _read_block(start: int, parts, lines, m: int, n: int) -> PredictionRecord:
    """Parse one record block: ``parts`` is its split ``record`` line (line
    ``start`` of the file) and its other 2m + 2 lines are pulled from
    ``lines``, an iterator of split lines.

    The layout is fixed, so every line's number follows from its offset in
    the block. Lines are checked a section at a time, and each section's
    coordinates are converted by one numpy call (numpy parses float text
    exactly as ``float`` does); only a section that fails is walked line by
    line to name the offending line.
    """
    offset = 0

    def coordinates(rows, cut: slice, first: int) -> np.ndarray:
        nonlocal offset
        try:
            values = np.array([p[cut] for p in rows], dtype=np.float64)
        except ValueError:
            for offset, p in enumerate(rows, start=first):
                list(map(float, p[cut]))
            raise
        bad = ~np.isfinite(values).all(axis=1)
        if bad.any():
            offset = first + int(np.argmax(bad))
            raise ValueError("non-finite coordinate")
        return values

    try:
        zi = parts.index("z", 5) if "z" in parts[5:] else 0
        if parts[3:4] != ["truth"] or not 4 < zi < len(parts) - 1:
            raise ValueError("expected 'record <id> <condition> truth <coords> z <values>'")
        rid, cond = parts[1], parts[2]
        record_id, dim = int(rid), zi - 4
        head = coordinates([parts[4:zi] + parts[zi + 1 :]], slice(None), 0)
        sections = []
        # (first offset, lines, kind, field, fields per line, coordinate fields)
        for first, count, kind, field, width, cut in (
            (1, 1, "baseline", "estimate", 2 + dim, slice(2, None)),
            (2, m, "baseline", "sample", 2 + dim, slice(2, None)),
            (m + 2, 1, "hmdn", "estimate", 3 + dim, slice(2, -1)),
            (m + 3, m, "hmdn", "candidate", 4 + dim, slice(2, -2)),
        ):
            rows = list(islice(lines, count))
            for offset, p in enumerate(rows, start=first):
                if len(p) != width or p[0] != kind or p[1] != field:
                    raise ValueError(f"expected a '{kind} {field}' line of {width} fields")
            if len(rows) < count:
                offset = first + len(rows)
                raise ValueError(
                    f"end of file inside the block of record {rid} {cond} (line {start})"
                )
            sections.append((rows, coordinates(rows, cut, first)))

        (_, base), (_, samples), ((flags,), hmdn), (cand_rows, cands) = sections
        offset = m + 2
        if flags[-1] not in ("fallback=0", "fallback=1"):
            raise ValueError(f"expected fallback=<0|1>, got {flags[-1]!r}")
        fallback = flags[-1] == "fallback=1"
        scores, chosen = [], []
        for offset, p in enumerate(cand_rows, start=m + 3):
            if p[-2][:6] != "score=" or p[-1] not in ("selected=0", "selected=1"):
                raise ValueError(
                    f"expected 'score=<log density> selected=<0|1>', got {p[-2]} {p[-1]}"
                )
            scores.append(float(p[-2][6:]))
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

    if not fallback:  # prediction's order: best score first, ties by index
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


def parse_predictions(path, header: dict = None) -> list:
    """Re-read a dump file into PredictionRecord values, streaming it.

    The file must be laid out exactly as ``write_predictions`` writes it:
    the header, with ``m``, ``n`` and ``records``, then that many record
    blocks, each with its lines in the documented order, m baseline
    samples and m candidates, finite coordinates of one dimension, and n
    selected candidates (all m on a fallback record). A missing or older
    header or unusable ``m``/``n``/``records`` raises SchemaError; any
    other deviation raises ParseError. Each has ``path`` set, and ``line``
    where one line is at fault. A
    ``header`` dict, if given, is filled with the key/value pairs of the
    ``# key value ...`` header lines, so a caller needing both reads the
    file once.
    """
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
            meta, ln, lineno = _read_header(fh, start=2)
            if header is not None:
                header.update(meta)
            m, n, count = _block_sizes(meta)
            lines = map(str.split, fh)
            parts = None if ln is None else ln.split()
            for _ in range(count):
                if parts is None:
                    raise ParseError(f"end of file after {len(records)} of the header's "
                                     f"'# records {count}'", line=lineno)
                if parts[0:1] != ["record"]:
                    raise ParseError("expected a 'record' line", line=lineno)
                records.append(_read_block(lineno, parts, lines, m, n))
                lineno += 2 * m + 3
                parts = next(lines, None)
            if parts is not None:
                raise ParseError("expected the end of the file after the header's "
                                 f"'# records {count}'", line=lineno)
        except UnicodeDecodeError as err:
            raise ParseError(f"not UTF-8 text ({err.reason})") from None
    return records
