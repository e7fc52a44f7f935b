"""Fingerprint CSV ingestion, feature normalization, splitting, and
persistence of datasets and trained models.

Fingerprint CSVs have the UJIIndoorLoc layout: ``WAP...`` signal columns,
``LONGITUDE``/``LATITUDE`` coordinates, and every other column kept as text.
A stored value of 100 means "access point not detected"; detected values
lie in [-104, 0] dBm.
Model files are a versioned plain-text format with every float printed to
17 significant digits, so a load after save is bit-exact. A model trained
by ``hmdn train`` also records its role and the recoding of its data, which
prediction applies in turn.
"""

from __future__ import annotations

import contextlib
import csv
import io
import math
import os
import re
from dataclasses import dataclass, field, fields
from itertools import chain

import numpy as np

from .errors import DomainError, ParseError, SchemaError, ShapeError, located
from .mdn import MdnConfig, MdnModel
from .numcore import FLOAT_SPEC, Rng, checked, decimal, float_rows, fmt17, real, unit_fraction

# the fingerprint CSV layout load_csv reads and the writers write
NOT_DETECTED = 100.0
RSSI_FLOOR = -104.0
RSSI_CEILING = 0.0
WAP_PREFIX = "WAP"
# illuminance columns: LUX_<condition> noiseless, LUXN_<condition> measured with noise
LUX_PREFIX, LUXN_PREFIX = "LUX_", "LUXN_"
COORD_COLUMNS = ("LONGITUDE", "LATITUDE")

# exponent of the "powed" representation
POWED_BETA = math.e

# role -> the recodings a model of that role can be trained under: g1's
# RSSI feature map (see normalize_rssi) and the lux observable g2 models
# (see lux_transform)
RECODINGS = {"g1": ("zero_one", "powed"), "g2": ("identity", "log")}

_MODEL_FORMAT = "hmdn-model v2"

# MdnConfig field annotation (mdn's annotations are text) -> how its [config]
# value is formatted and parsed; the fields are written group by group in
# this order, each group in declaration order
_CONFIG_TEXT = {
    "int": (str, decimal),
    "float": (fmt17, real),
    "str": (str, str),
    "tuple": (lambda v: " ".join(map(str, v)), lambda t: tuple(map(decimal, t and t.split(" ")))),
}
_CONFIG_FIELDS = [
    (f.name, *_CONFIG_TEXT[f.type])
    for f in sorted(fields(MdnConfig), key=lambda f: list(_CONFIG_TEXT).index(f.type))
]

# the model file's sections in the order save_model writes them, each with
# its ``key = value`` lines in order; [weights] holds matrix blocks instead,
# and a model built by the library has no [preprocessing]. load_model reads
# the same layout line by line.
_SECTION_KEYS = {
    "preprocessing": ("role", "recoding"),
    "config": tuple(name for name, _, _ in _CONFIG_FIELDS),
    "standardize": ("mean", "std"),
    "weights": (),
    "training_log": ("nll",),
}


@dataclass(frozen=True)
class FingerprintTable:
    """Parsed fingerprint records: immutable arrays plus opaque metadata."""

    wap_names: tuple
    rssi: np.ndarray    # (n_records, n_waps), sentinel-coded dBm
    coords: np.ndarray  # (n_records, 2)
    metadata: dict = field(default_factory=dict)  # column -> tuple of strings

    def __post_init__(self):
        rssi = np.asarray(self.rssi, dtype=np.float64)
        coords = np.asarray(self.coords, dtype=np.float64)
        if rssi.shape[0] != coords.shape[0]:
            raise ShapeError(f"{rssi.shape[0]} fingerprints vs {coords.shape[0]} coordinates")
        rssi.flags.writeable = False
        coords.flags.writeable = False
        object.__setattr__(self, "rssi", rssi)
        object.__setattr__(self, "coords", coords)

    @property
    def n_records(self) -> int:
        return self.rssi.shape[0]

    @property
    def n_waps(self) -> int:
        return self.rssi.shape[1]

    def detected_mask(self) -> np.ndarray:
        return self.rssi != NOT_DETECTED

    def take(self, indices) -> "FingerprintTable":
        idx = np.asarray(indices, dtype=int)
        return FingerprintTable(
            wap_names=self.wap_names,
            rssi=self.rssi[idx].copy(),
            coords=self.coords[idx].copy(),
            metadata={k: tuple(v[i] for i in idx) for k, v in self.metadata.items()},
        )

    def metadata_floats(self, column: str) -> np.ndarray:
        """A metadata column as finite floats. Errors are keyed by the column
        and say the 1-based data row of a cell that is not a finite number;
        the caller knows the file."""
        if column not in self.metadata:
            raise SchemaError("no such column", key=column)
        values = []
        for row_no, text in enumerate(self.metadata[column], start=1):
            try:
                values.append(float(text))
            except ValueError:
                values.append(math.nan)
            if not math.isfinite(values[-1]):
                raise ParseError(f"data row {row_no}: {text!r} is not a finite number", key=column)
        return np.array(values)


def load_csv(path) -> FingerprintTable:
    """Parse a fingerprint CSV.

    Every error has ``path`` set. SchemaError is raised for an empty file,
    a header without WAP or coordinate columns or naming a column twice,
    and a file without data rows; ParseError for the first byte that is not
    UTF-8 and a row the csv module rejects, and, keyed by the column, for a
    cell that fails to parse, a WAP cell outside [RSSI_FLOOR, RSSI_CEILING]
    that is not NOT_DETECTED, and a coordinate or ``LUX_*``/``LUXN_*`` cell
    that is not a finite number. ``line`` is the file line a row starts on
    (a quoted cell can span lines).
    """
    with located(path):
        text = _read_utf8(path)
        rows = csv.reader(m.group() for m in _LINE.finditer(text))
        try:
            header = next(rows, None)
        except csv.Error as err:
            raise ParseError(str(err), line=1) from None
        if header is None:
            raise SchemaError("empty file, expected a header row")
        if len(set(header)) < len(header):
            c = next(c for i, c in enumerate(header) if c in header[:i])
            raise SchemaError("appears more than once in the header", line=1, key=c)

        wap_names = [c for c in header if c.startswith(WAP_PREFIX)]
        if not wap_names:
            raise SchemaError(f"no columns start with WAP prefix {WAP_PREFIX!r}", line=1)
        for col in COORD_COLUMNS:
            if col not in header:
                raise SchemaError(f"missing column {col!r}", line=1)

        ingested = {*wap_names, *COORD_COLUMNS}
        meta_cols = [c for c in header if c not in ingested]
        # WAP cells, then the cells that must be finite numbers, in check order
        numeric = [(c, None) for c in wap_names] + [(c, "coordinate") for c in COORD_COLUMNS]
        numeric += [(c, "illuminance") for c in meta_cols
                    if c.startswith((LUX_PREFIX, LUXN_PREFIX))]
        col_index = {c: i for i, c in enumerate(header)}
        layout = _Layout(
            n_cells=len(header),
            numeric=[(c, col_index[c], noun) for c, noun in numeric],
            meta=[col_index[c] for c in meta_cols],
            n_waps=len(wap_names),
        )
        parsed = _parse_block(text, layout)
        if parsed is None:
            parsed = _parse_rows(rows, layout)
        values, meta = parsed
        if not len(values):
            raise SchemaError("no data rows")
        n = layout.n_waps
        return FingerprintTable(
            wap_names=tuple(wap_names),
            rssi=values[:, :n].copy(),
            coords=values[:, n : n + 2].copy(),
            metadata={c: tuple(col) for c, col in zip(meta_cols, meta)},
        )


# one line as a file opened with newline="" yields it: up to LF, CR or CRLF
_LINE = re.compile(r"[^\r\n]*(?:\r\n?|\n)|[^\r\n]+\Z")


def _read_utf8(path) -> str:
    """The whole file as UTF-8 text, line endings as they are. A byte that
    is not UTF-8 raises ParseError on its line, lines split as ``_LINE`` does."""
    with open(path, "rb") as fh:
        data = fh.read()
    try:
        return data.decode("utf-8")
    except UnicodeDecodeError as err:  # the lines before the byte's, and its own
        line = len(_LINE.findall(data[: err.start].decode("utf-8") + "?"))
        raise ParseError(f"not UTF-8 text ({err.reason})", path=path, line=line) from None


@dataclass(frozen=True)
class _Layout:
    """Where load_csv finds the fields of a data row: the numeric cells as
    (column, index, noun) triples, the ``n_waps`` WAP cells first (noun
    None) and then the cells that must be finite, and the indices of the
    metadata cells."""

    n_cells: int
    numeric: list
    meta: list
    n_waps: int


# characters np.loadtxt skips as whitespace around a number and float() rejects
_LOADTXT_ONLY_SPACE = "\x1c\x1d\x1e\x1f"


def _parse_block(text: str, layout: _Layout):
    """(values, metadata columns) of the data rows in one numpy pass, or
    None when the rows need the per-cell walk.

    The pass applies when csv.reader would split the file at every comma
    and line end: no quote, no NUL and no CR outside a CRLF pair. It gives
    up on a row of the wrong width, a cell np.loadtxt cannot parse (or
    would parse where float() fails) and any value the checks reject.
    np.loadtxt converts decimal text with the routine float() uses, so
    the values are bit-identical.
    """
    if any(ch in text for ch in '"\0' + _LOADTXT_ONLY_SPACE):
        return None
    if "\r" in text:
        text = text.replace("\r\n", "\n")
        if "\r" in text:
            return None
    lines = text.split("\n")[1:]
    if lines and not lines[-1]:
        lines.pop()
    commas = layout.n_cells - 1
    if not lines or any(not ln or ln.count(",") != commas for ln in lines):
        return None
    try:
        values = np.loadtxt(lines, delimiter=",", usecols=[i for _, i, _ in layout.numeric],
                            comments=None, dtype=np.float64, ndmin=2)
    except ValueError:
        return None
    rssi = values[:, : layout.n_waps]
    in_range = (rssi >= RSSI_FLOOR) & (rssi <= RSSI_CEILING)
    if (
        values.shape[0] != len(lines)
        or not np.all(in_range | (rssi == NOT_DETECTED))
        or not np.all(np.isfinite(values[:, layout.n_waps :]))
    ):
        return None
    meta = []
    if layout.meta:
        # split off only the tail of each line that holds metadata cells
        n = layout.n_cells
        tails = [ln.rsplit(",", n - min(layout.meta)) for ln in lines]
        meta = [[cells[i - n] for cells in tails] for i in layout.meta]
    return values, meta


def _parse_rows(rows, layout: _Layout):
    """(values, metadata columns) of the rows of a csv.reader, one cell at a
    time; the first bad row or cell raises ParseError with the line the row
    starts on, keyed by the cell's column."""
    values, meta = [], [[] for _ in layout.meta]
    line = rows.line_num + 1
    try:
        for row in rows:
            if len(row) != layout.n_cells:
                raise ParseError(f"row has {len(row)} cells, header has {layout.n_cells}",
                                 line=line)
            row_values = []
            for c, i, noun in layout.numeric:
                try:
                    v = float(row[i])
                except ValueError:
                    raise ParseError(f"cannot parse {row[i]!r}", line=line, key=c) from None
                if noun is None:
                    if v != NOT_DETECTED and not (RSSI_FLOOR <= v <= RSSI_CEILING):
                        raise ParseError(f"value {v} outside [{RSSI_FLOOR}, {RSSI_CEILING}] "
                                         "and not the sentinel", line=line, key=c)
                elif not math.isfinite(v):
                    raise ParseError(f"{noun} {v} is not finite", line=line, key=c)
                row_values.append(v)
            values.append(row_values)
            for col, i in zip(meta, layout.meta):
                col.append(row[i])
            line = rows.line_num + 1
    except csv.Error as err:  # raised while reading the row that starts on line
        raise ParseError(str(err), line=line) from None
    return np.array(values), meta


@dataclass(frozen=True)
class NormalizedRssi:
    """Feature matrix of a fingerprint table.

    zero_one maps detected dBm affinely onto (0, 1] with the zero point one
    dB below the detection floor, so the weakest detectable signal stays
    strictly above the not-detected code (exactly 0). powed raises the
    zero_one value to the power e, compressing weak signals further.
    """

    features: np.ndarray


def normalize_rssi(table: FingerprintTable, mode: str = "zero_one") -> NormalizedRssi:
    """Map sentinel-coded dBm to features in [0, 1]; monotone on detected values."""
    if mode not in RECODINGS["g1"]:
        raise ValueError(f"mode must be zero_one or powed, got {mode!r}")
    zero_point = RSSI_FLOOR - 1.0
    detected = table.detected_mask()
    scaled = (table.rssi - zero_point) / (-zero_point)
    feats = np.where(detected, scaled, 0.0)
    if mode == "powed":
        feats = feats**POWED_BETA
    return NormalizedRssi(features=feats)


def lux_transform(values: np.ndarray, transform: str) -> np.ndarray:
    """The observable g2 models: raw lux, or its natural log.

    The log recoding is monotone, so candidate ranking is the quantity the
    selection needs either way; it tames the several-decade dynamic range
    of direct sunlight vs night lighting.
    """
    if transform not in RECODINGS["g2"]:
        raise ValueError(f"transform must be identity or log, got {transform!r}")
    if transform == "identity":
        return values
    return np.log(np.maximum(values, 1e-12))


@dataclass(frozen=True)
class SplitSpec:
    """How to divide a table: the train fraction and the shuffle seed."""

    train_fraction: float
    seed: int = 0

    def __post_init__(self):
        checked("train_fraction", unit_fraction, self.train_fraction)


def split(table: FingerprintTable, spec: SplitSpec):
    """Disjoint, exhaustive train/test split; deterministic given the seed.

    The train side gets round(n * fraction) records; indices within each
    side keep the original record order.
    """
    n = table.n_records
    if n == 0:
        raise ValueError("cannot split an empty table")
    n_train = int(math.floor(n * spec.train_fraction + 0.5))
    n_train = min(max(n_train, 0), n)
    order = Rng(spec.seed).spawn("split").permutation(n)
    train_idx = np.sort(order[:n_train])
    test_idx = np.sort(order[n_train:])
    return table.take(train_idx), table.take(test_idx)


# --- artifact files ---


def write_text(path, chunks) -> None:
    """The one writer of every artifact: the strings of ``chunks``, written
    as they come, UTF-8 with each ``\\n`` as is, into ``.hmdn-<pid>.tmp`` in
    ``path``'s directory (made as ``open(path, "w")`` makes a file), which
    then replaces ``path``. So ``path`` holds the whole text or what it held
    before. On any exception the temporary file is removed, and an OSError
    names ``path``. No fsync: a crash of the machine may lose the text."""
    path = os.fspath(path)
    tmp = os.path.join(os.path.dirname(path), f".hmdn-{os.getpid()}.tmp")
    try:
        with open(tmp, "w", encoding="utf-8", newline="") as fh:
            fh.writelines(chunks)
        os.replace(tmp, path)
    except BaseException as err:
        with contextlib.suppress(OSError):
            os.remove(tmp)
        if isinstance(err, OSError) and err.errno is not None:
            raise OSError(err.errno, err.strerror, path) from None
        raise


# --- dataset CSV export (the layout load_csv reads) ---


def write_dataset_csv(path, wap_names, rssi, coords, extra=None) -> None:
    """Write records as a fingerprint CSV; extra columns (e.g. LUX_<condition>)
    are appended after the coordinate columns in the given order."""
    extra = extra or {}
    header = [*wap_names, *COORD_COLUMNS, *extra.keys()]
    columns = [rssi, coords, *extra.values()]
    _write_csv(path, header, np.column_stack([np.asarray(c, dtype=np.float64) for c in columns]))


def table_to_csv(table: FingerprintTable, path) -> None:
    """Export a loaded table; numeric round-trip through load_csv is exact."""
    header = [*table.wap_names, *COORD_COLUMNS, *table.metadata]
    values = np.hstack([table.rssi, table.coords])
    _write_csv(path, header, values, list(table.metadata.values()))


_NEEDS_QUOTES = re.compile('[,"\r\n]')


def _csv_cell(text: str) -> str:
    """A text cell as csv.writer (QUOTE_MINIMAL, LF line ends) writes it:
    a cell with a comma, quote, CR or LF goes through csv.writer itself."""
    if not _NEEDS_QUOTES.search(text):
        return text
    buf = io.StringIO()
    csv.writer(buf, lineterminator="\n").writerow([text])
    return buf.getvalue()[:-1]


def _write_csv(path, header, values: np.ndarray, text_columns=()) -> None:
    """The one CSV row renderer: each row is its floats through one
    ``FLOAT_SPEC`` template over ``.tolist()`` values, then its cell of each
    text column, the same bytes csv.writer writes for ``fmt17`` cells. Rows
    become Python floats one at a time, which keeps memory at one row."""
    template = ",".join([FLOAT_SPEC] * values.shape[1])
    text_columns = [[_csv_cell(s) for s in col] for col in text_columns]
    rows = (",".join([template % tuple(row.tolist()), *cells]) + "\n"
            for row, *cells in zip(values, *text_columns))
    write_text(path, chain([",".join(map(_csv_cell, header)) + "\n"], rows))


# --- model persistence ---


def _floats(values) -> str:
    return " ".join(fmt17(v) for v in values)


def save_model(model: MdnModel, path) -> None:
    """Serialize the recorded role and recoding (none for a model built by
    the library), config, standardization statistics, weights, and the
    training log to the versioned text format (17 significant digits), in
    the section and key order of ``_SECTION_KEYS``."""
    values = {
        "preprocessing": model.preprocessing,
        "config": [format_(getattr(model.config, name)) for name, format_, _ in _CONFIG_FIELDS],
        "standardize": (_floats(model.input_mean), _floats(model.input_std)),
        "weights": (),
        "training_log": (_floats(model.training_log),),
    }
    lines = [_MODEL_FORMAT]
    for section, keys in _SECTION_KEYS.items():
        if section == "preprocessing" and not model.preprocessing:
            continue
        lines.append(f"[{section}]")
        lines += [f"{key} = {value}" for key, value in zip(keys, values[section])]
        if section == "weights":
            for i, w in enumerate(model.weights):
                lines.append(f"matrix {i} {w.shape[0]} {w.shape[1]}")
                lines.extend(_floats(row) for row in w)
    write_text(path, ["\n".join(lines) + "\n"])


def _numbers(rows: list, count: int, valid=None, *, line: int, key=None) -> np.ndarray:
    """The floats of ``rows``, lines of the file from ``line`` on, as an
    array (len(rows), count), each passing ``valid``, a (test of an array,
    message) pair, when given: one ``float_rows`` call, or on a refusal a
    walk of the rows, each by ``float_rows`` alone, naming line, key and fault."""
    lines = [r + "\n" for r in rows]
    try:  # separators wider than the rows are never built
        values = float_rows(lines, " " * min(count - 1, sum(map(len, lines))))
        if valid is None or valid[0](values).all():
            return values
    except ValueError:
        pass
    values = []
    for at, row in enumerate(lines, start=line):
        try:
            values.append(float_rows([row], " " * row.count(" "))[0] if row != "\n" else [])
        except ValueError:
            raise ParseError(f"expected numbers, got {row[:-1]!r}", line=at, key=key) from None
        if len(values[-1]) != count:
            raise ParseError(f"expected {count} values, got {len(values[-1])}", line=at, key=key)
        if valid is not None and not valid[0](values[-1]).all():
            raise ParseError(valid[1], line=at, key=key)
    return np.array(values)


def load_model(path) -> MdnModel:
    """Reload a model file; bit-exact inverse of save_model.

    The file is read line by line in the layout save_model writes (see
    ``_SECTION_KEYS`` and docs/formats.md), each line the one the writer
    puts there, and its numbers as the writer spells them: one space
    apart, read by ``numcore.float_rows`` a line or a matrix at a time.

    Every error has ``path`` and ``line`` set, and an error about a
    ``key = value`` line has ``key`` set to its ``[section] key``. A line
    that is not the one due (the end of the file included), and a role or
    recoding outside ``RECODINGS``, raise SchemaError naming what was due
    and what the file has. A value raises ParseError: a byte that is not
    UTF-8, a number that does not parse, a [config] value its field
    rejects, a row or statistics line of the wrong width, a non-finite
    weight or mean, a non-finite or non-positive std, and a last line
    without its newline (the file was cut inside it). Each matrix is
    built from rows of the file, so no array is larger than the file.
    """
    with located(path):
        text = _read_utf8(path)
        lines = [m.group().rstrip("\r\n") for m in _LINE.finditer(text)]
        if lines[:1] != [_MODEL_FORMAT]:
            why = ""
            if lines[:1] == ["hmdn-model v1"]:
                why = "; a v1 model records no role or recoding, so retrain it with `hmdn train`"
            raise SchemaError(f"expected header {_MODEL_FORMAT!r}{why}", line=1)
        at = 1  # the number of the last line read

        def take(due: str, prefix: str = None) -> str:
            """The next line, less ``prefix``. It must start with ``prefix``, or
            be ``due`` when there is none; else a SchemaError on its line."""
            nonlocal at
            at += 1
            got = lines[at - 1] if at <= len(lines) else None
            if got is None or not (got == due if prefix is None else got.startswith(prefix)):
                found = "the end of the file" if got is None else repr(got)
                raise SchemaError(f"expected {due!r}, got {found}", line=at)
            return got[len(prefix or "") :]

        def section(name: str) -> list:
            """The section's header line, then (value, location) per key line."""
            take(f"[{name}]")
            values = []
            for key in _SECTION_KEYS[name]:
                where = {"line": at + 1, "key": f"[{name}] {key}"}
                with located(**where):
                    values.append((take(f"{key} = <value>", f"{key} = "), where))
            return values

        preprocessing = ()
        if lines[1:2] == ["[preprocessing]"]:
            (role, role_at), (recoding, recoding_at) = section("preprocessing")
            if role not in RECODINGS:
                raise SchemaError(f"must be g1 or g2, got {role!r}", **role_at)
            if recoding not in RECODINGS[role]:
                raise SchemaError(f"a {role} recoding is one of {', '.join(RECODINGS[role])}, "
                                  f"got {recoding!r}", **recoding_at)
            preprocessing = (role, recoding)

        raw = dict(zip(_SECTION_KEYS["config"], section("config")))
        try:
            config = MdnConfig(**{name: checked(name, parse, raw[name][0])
                                  for name, _, parse in _CONFIG_FIELDS})
        except DomainError as err:  # keyed by the field
            raise ParseError(err.message, **raw[err.key][1]) from None

        (mean, mean_at), (std, std_at) = section("standardize")
        (mean,) = _numbers([mean], config.input_dim,
                           (np.isfinite, "standardization means must all be finite"), **mean_at)
        (std,) = _numbers([std], config.input_dim, (lambda v: (0.0 < v) & (v < math.inf),
                          "standardization deviations must all be finite and > 0"), **std_at)

        section("weights")
        weights = []
        shapes = [(rows, cols) for fan_in, cols in config.layer_dims() for rows in (fan_in, 1)]
        finite = (np.isfinite, "weight entries must all be finite")
        for i, (rows, cols) in enumerate(shapes):
            take(f"matrix {i} {rows} {cols}")
            block = lines[at : at + rows]
            weights.append(_numbers(block, cols, finite, line=at + 1))
            at += len(block)
            if len(block) < rows:
                take(f"<{cols} numbers>", "")  # the end of the file

        ((nll, nll_at),) = section("training_log")
        training_log = _numbers([nll], nll.count(" ") + 1, **nll_at)[0] if nll else ()
        if at < len(lines):
            raise SchemaError(f"expected the end of the file, got {lines[at]!r}", line=at + 1)
        if not text.endswith(("\n", "\r")):
            raise ParseError("the file ends inside this line (no newline after it)", **nll_at)

        return MdnModel(
            config=config,
            weights=tuple(weights),
            input_mean=mean,
            input_std=std,
            training_log=training_log,
            preprocessing=preprocessing,
        )
