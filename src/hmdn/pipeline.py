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
from functools import lru_cache
from itertools import chain, islice
from dataclasses import dataclass

import numpy as np

from .dataio import _read_utf8, write_text
from .errors import NumericError, ParseError, SchemaError, ShapeError, located
from .mdn import (MdnModel, _draw, _finite_mixtures, _layer_outputs, _log_likelihoods, _mixtures,
                  mixture_at, sample)
from .numcore import FLOAT_SPEC, Rng, decimal, float_rows, positive_int, real, seed64


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


def _predict_rows(pipeline: HmdnPipeline, mix, z: np.ndarray, rngs, weighted: bool,
                  layers=None):
    """Sample, score, select and average for R records at once.

    ``mix`` holds the records' g1 mixtures as rows (pi, sigma, mu), ``z``
    their observations (R, dz) and ``rngs`` their candidate streams. Each
    record's M candidates go through g2 as their own M-row product (a
    stacked matmul), its layer outputs written into the leading R rows of
    ``layers`` when given, and every reduction runs within a record's row,
    so a record comes out bit for bit as when predicted alone. Returns the
    candidates (R, M, D), scores (R, M), the ranked order of each row (R, M),
    the fallback mask (R,) and the estimates (R, D).
    """
    M, N = pipeline.n_candidates, pipeline.n_selected
    C = _draw(*mix, M, rngs)
    acts = layers and [a[: C.shape[0]] for a in layers]
    S = _log_likelihoods(pipeline.g2, C, np.repeat(z, M, axis=0), acts).reshape(C.shape[:2])
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
    bounds the working memory whatever the record count, and every block
    writes g2's layer outputs into one ``_layer_outputs`` allocation.
    Predictions that fell back to the mean of all candidates are reported
    with one RuntimeWarning per condition. A record whose g1 mixture,
    candidates or baseline samples are not all finite, or whose two
    estimates lie at no finite squared distance from its truth, raises
    NumericError naming g1 and the first such (record, condition); then one
    with a candidate whose g2 mixture is not finite, or has a mean at no
    finite squared distance from z, raises it naming g2. Both come before
    any record is returned, so a -inf score that remains is underflow.
    """
    ids = [int(rid) for rid in record_ids]
    if not ids:
        return []
    M, N = pipeline.n_candidates, pipeline.n_selected
    _check_z(pipeline.g2, np.zeros(1))  # each record observes one value
    truths = np.asarray(truths, dtype=np.float64)
    mix = _mixtures(pipeline.g1, np.asarray(features, dtype=np.float64)[ids])
    block = max(1, _BLOCK_ROWS // M)
    # (records, M, width) per layer at the first block's size; a shorter
    # last block writes into their leading rows
    layers = _layer_outputs(pipeline.g2.config, min(block, len(ids)), M)
    records = []
    for cond in lux_by_condition:
        lux = np.asarray(lux_by_condition[cond], dtype=np.float64)
        fell_back = 0
        for start in range(0, len(ids), block):
            part = ids[start : start + block]
            part_mix = [a[start : start + block] for a in mix]
            rngs = [prediction_rngs(master_seed, cond, rid) for rid in part]
            z = lux[part].reshape(-1, 1)
            # a non-finite g1 or g2 is refused below; an underflowing score falls back
            with np.errstate(all="ignore"):
                C, S, order, fallback, est = _predict_rows(
                    pipeline, part_mix, z, [r[0] for r in rngs], weighted, layers
                )
                clouds = _draw(*part_mix, M, [r[1] for r in rngs])
                cloud_means = clouds.mean(axis=1)
                finite = [np.isfinite(a.reshape(len(part), -1)).all(axis=1)
                          for a in (*part_mix, C, clouds)]
                finite += [np.isfinite(((e - truths[part]) ** 2).sum(axis=1))
                           for e in (est, cloud_means)]
            ok = np.logical_and.reduce(finite)
            if not ok.all():
                raise NumericError(f"g1 gives a non-finite mixture, sample or error for record "
                                   f"{part[np.argmin(ok)]} under {cond}")
            ok = _finite_mixtures(pipeline.g2.config, layers[-1][: len(part)], z)
            if not ok.all():
                raise NumericError("g2 gives a non-finite mixture, or a mean at no finite distance "
                                   f"from z, for record {part[np.argmin(ok)]} under {cond}")
            fell_back += int(np.count_nonzero(fallback))
            for i, rid in enumerate(part):
                hmdn = HmdnEstimate(
                    estimate=est[i].copy(),
                    candidates=C[i].copy(),
                    scores=S[i].copy(),
                    selected_indices=_selected(order[i], fallback[i], N).copy(),
                    underflow_fallback=bool(fallback[i]),
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
# the header lines after the version line: each one's keys, with their values' domains
_DUMP_FIELDS = ({"master_seed": seed64}, {"m": positive_int, "n": positive_int},
                {"records": positive_int})
# lines of record blocks the reader converts together: whole blocks, at
# least one. Larger chunks read no faster and raise the peak memory.
_CHUNK_LINES = 2048


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


@lru_cache(maxsize=8)
def _section_templates(m: int, dim: int) -> tuple:
    """The %-template of each ``_layout(m)`` section's lines for dim
    coordinates: every number a ``FLOAT_SPEC`` but the last mark's, a %d
    flag."""
    templates = []
    for _, count, head, marks in _layout(m):
        spec = [name + FLOAT_SPEC for name, _ in marks[:-1]]
        spec += [name + "%d" for name, _ in marks[-1:]]
        templates.append((" ".join([head, _vec(dim), *spec]) + "\n") * count)
    return tuple(templates)


def _render_record(r: PredictionRecord) -> str:
    """One record's block of dump lines: its ``record`` line, then each
    ``_layout`` section from its ``_section_templates`` template over
    ``.tolist()`` values."""
    est = r.hmdn
    m, dim = est.candidates.shape
    flags = np.zeros(m)
    flags[np.asarray(est.selected_indices, dtype=np.intp)] = 1
    truth, z = np.ravel(r.truth).tolist(), np.ravel(r.z).tolist()
    cond = r.condition.replace("%", "%%")
    text = [f"record {r.record_id} {cond} truth {_vec(len(truth))} z {_vec(len(z))}\n"
            % (*truth, *z)]
    sections = (r.baseline_estimate, r.baseline_samples,
                np.append(est.estimate, est.underflow_fallback),
                np.column_stack([est.candidates, est.scores, flags]))
    for template, values in zip(_section_templates(m, dim), sections):
        text.append(template % tuple(np.ravel(values).tolist()))
    return "".join(text)


def write_predictions(path, records, master_seed: int, m: int, n: int) -> None:
    """Write a list of prediction records to a dump file, one record block
    at a time.

    The header gives the master seed, M, N and the record count. Per
    (record, condition): one ``record`` line with the id, condition, truth
    coordinates and observed z, one ``baseline estimate`` line, M
    ``baseline sample`` lines, one ``hmdn estimate`` line, and M ``hmdn
    candidate`` lines with score and selected flag, in index order.
    """
    values = {"master_seed": master_seed, "m": m, "n": n, "records": len(records)}
    header = "".join(" ".join(["#", *(f"{key} {values[key]}" for key in fields)]) + "\n"
                     for fields in _DUMP_FIELDS)
    write_text(path, chain([_DUMP_HEADER + "\n", header], map(_render_record, records)))


def condition_name(text: str) -> str:
    """A condition as the dump's record lines, the rows of metrics.csv and
    the names of plot files hold it: not empty, and no whitespace, ',', '"'
    or '/'. Raises ValueError for any other text."""
    if not text or any(c.isspace() or c in ',"/' for c in text):
        raise ValueError("a condition is not empty and has no whitespace, ',', "
                         f"'\"' or '/', got {text!r}")
    return text


def _record_line(line: str) -> tuple:
    """(id text, condition, dim, the (1, dim + dz) truth and z row) of a
    ``record <id> <condition> truth <coords> z <values>`` line, ending in
    its newline."""
    parts = line[:-1].split(" ")
    if parts[0] != "record":
        raise ValueError("expected a 'record' line")
    zi = parts.index("z", 5) if "z" in parts[5:] else 0
    if (parts[3:4] != ["truth"] or not 4 < zi < len(parts) - 1 or line.split() != parts
            or not line.endswith("\n")):
        raise ValueError("expected 'record <id> <condition> truth <coords> z <values>'")
    decimal(parts[1])
    condition_name(parts[2])
    head = np.array([[real(t) for t in parts[4:zi] + parts[zi + 1 :]]])
    if not np.isfinite(head).all():
        raise ValueError("non-finite coordinate")
    return parts[1], parts[2], zi - 4, head


def _layout(m: int) -> tuple:
    """The sections of a record block after its ``record`` line, in order:
    (offset of the first line, line count, head, marks). A line of one is
    ``<head> <dim coordinates>`` and a `` <name>=<number>`` per mark, a
    (``<name>=``, ``<number>``) pair, the last mark's number a 0/1 flag."""
    return ((1, 1, "baseline estimate", ()), (2, m, "baseline sample", ()),
            (m + 2, 1, "hmdn estimate", (("fallback=", "<0|1>"),)),
            (m + 3, m, "hmdn candidate", (("score=", "<log density>"), ("selected=", "<0|1>"))))


def _section(lines: list, dim: int, head: str, marks: tuple) -> np.ndarray:
    """The numbers of ``lines``, each ending in a newline and spelled as a
    line of the ``_layout`` section ``head``, ``marks`` with dim coordinates:
    an array of the coordinates and the marks' numbers, a row per line. The
    counts of the head and mark words and ``float_rows`` go line by line, so
    a chunk's section passes exactly when each of its lines passes alone.
    Raises ValueError naming the spelling due and the text refused."""
    names = [name for name, _ in marks]
    text = "".join(lines)
    try:
        if (not text.startswith(head + " ") or text.count(f"\n{head} ") != len(lines) - 1
                or any(text.count(f" {name}") != len(lines) for name in names[:-1])
                or names and sum(text.count(f" {names[-1]}{v}\n") for v in "01") != len(lines)):
            raise ValueError
        values = float_rows(lines, " " * (1 + dim) + " =" * len(marks),
                            [*range(2, 2 + dim), *range(3 + dim, 3 + dim + 2 * len(marks), 2)])
    except ValueError:
        due = " ".join([head, f"<{dim} coordinates>", *map("".join, marks)])
        got = text.removesuffix("\n")
        raise ValueError(f"expected {due!r}, got {got!r}") from None
    if not np.isfinite(values[:, :dim]).all():
        raise ValueError("non-finite coordinate")
    return values


def _records(heads: list, base, samples, hmdn, cands, m: int, n: int) -> list:
    """The PredictionRecords of consecutive blocks: their ``_record_line``
    heads and the arrays of their ``_layout`` sections, the blocks' rows one
    after the other. Raises ValueError for the first block whose selection
    count is not n (m on a fallback record)."""
    k, dim = len(heads), base.shape[1]
    fallback = hmdn[:, dim] == 1
    chosen = (cands[:, dim + 1] == 1).reshape(k, m)
    scores = np.ascontiguousarray(cands[:, dim]).reshape(k, m)
    coords = np.ascontiguousarray(cands[:, :dim]).reshape(k, m, dim)
    samples = samples.reshape(k, m, dim)
    records = []
    for i, (rid, cond, _, head) in enumerate(heads):
        selected = np.flatnonzero(chosen[i])
        if selected.shape[0] != (m if fallback[i] else n):
            raise ValueError(f"record {rid} {cond}: {selected.shape[0]} candidates selected, "
                             f"expected {m if fallback[i] else n}")
        if not fallback[i]:  # prediction's order: best score first, ties by index
            selected = selected[np.argsort(-scores[i, selected], kind="stable")]
        est = HmdnEstimate(estimate=hmdn[i, :dim], candidates=coords[i], scores=scores[i],
                           selected_indices=selected, underflow_fallback=bool(fallback[i]))
        records.append(PredictionRecord(
            record_id=int(rid), condition=cond, truth=head[0, :dim], z=head[0, dim:],
            baseline_samples=samples[i], baseline_estimate=base[i], hmdn=est))
    return records


def _read_chunk(rows: list, k: int, m: int, n: int, dim) -> list:
    """The k records of ``rows``, each a block of 2m + 3 lines whose record
    line has dim truth coordinates (the first one's count if dim is None),
    read a ``_layout`` section at a time across the blocks, each section by
    one ``_section`` call. Raises ValueError, without saying where, if
    ``rows`` is anything else."""
    size = 2 * m + 3
    if len(rows) != k * size:
        raise ValueError("end of file")
    starts = range(0, len(rows), size)
    heads = [_record_line(rows[i]) for i in starts]
    dim = heads[0][2] if dim is None else dim
    if any(h[2] != dim for h in heads):
        raise ValueError("records of more than one dimension")
    sections = [_section([r for i in starts for r in rows[i + first : i + first + count]],
                         dim, head, marks) for first, count, head, marks in _layout(m)]
    return _records(heads, *sections, m, n)


def _read_block(start: int, rows: list, m: int, n: int, dim) -> PredictionRecord:
    """Read one record block line by line, naming the line of its first
    fault: ``rows`` are its lines, the first of them line ``start`` of the
    file; fewer than 2m + 3 means the file ends inside the block. Each line
    goes in file order through the check ``_read_chunk`` applies to it
    (``_record_line`` and its count of dim truth coordinates, unless dim is
    None, or ``_section`` on the line alone), so the walk takes exactly the
    lines the chunked read takes; ``_read_chunk`` then reads the block, and
    the selection count is all it can refuse."""
    offset = 0
    try:
        rid, cond, width, _ = _record_line(rows[0])
        if dim is not None and width != dim:
            raise ValueError(f"{width} truth coordinates, but the first record has {dim}")
        dim = width
        for first, count, head, marks in _layout(m):
            for offset in range(first, min(first + count, len(rows))):
                _section([rows[offset]], dim, head, marks)
        if len(rows) < 2 * m + 3:
            offset = len(rows)
            raise ValueError(f"end of file inside the block of record {rid} {cond} (line {start})")
        offset = 0
        return _read_chunk(rows, 1, m, n, dim)[0]
    except ValueError as err:
        why = str(err)
        if offset < len(rows) and not rows[offset].endswith("\n"):
            why += " (the file ends inside this line)"
        raise ParseError(why, line=start + offset) from None


def parse_predictions(path, header: dict = None) -> list:
    """Re-read a dump file into PredictionRecord values, a chunk of record
    blocks at a time (as many as fit in ``_CHUNK_LINES`` lines):
    ``_read_chunk`` reads a chunk, and only a chunk it refuses is walked
    line by line by ``_read_block``, which names the fault.

    The file must be laid out exactly as ``write_predictions`` writes it
    (docs/formats.md): the version line, the three header lines, and as
    many record blocks as ``# records`` says. A header line that is not the
    one due raises SchemaError; any other deviation raises ParseError. Each
    has ``path`` set, and ``line`` where one line is at fault. A ``header``
    dict, if given, is filled with the header's values as text
    (``master_seed``, ``m``, ``n``, ``records``), so a caller needing both
    reads the file once. The first record line sets the number of
    coordinates of every record.
    """
    records, dim = [], None
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
            size, lineno = 2 * m + 3, lineno + 1
            while len(records) < count:
                k = min(max(1, _CHUNK_LINES // size), count - len(records))
                rows = list(islice(fh, k * size))
                try:
                    records += _read_chunk(rows, k, m, n, dim)
                except ValueError:  # walk the chunk line by line to name the fault
                    for at in range(0, k * size, size):
                        if at >= len(rows):
                            raise ParseError(f"end of file after {len(records)} of the "
                                             f"header's '# records {count}'", line=lineno + at)
                        records.append(_read_block(lineno + at, rows[at : at + size], m, n, dim))
                        dim = records[0].truth.shape[0]
                dim, lineno = records[0].truth.shape[0], lineno + k * size
            if fh.readline():
                raise ParseError("expected the end of the file after the header's "
                                 f"'# records {count}'", line=lineno)
        except UnicodeDecodeError as err:
            _read_utf8(path)  # raises with the line of the first bad byte
            raise ParseError(f"not UTF-8 text ({err.reason})") from None
    return records
