"""Fingerprint CSV ingestion, feature normalization, splitting, and
persistence of datasets and trained models.

The RSSI encoding follows the common indoor-fingerprint convention: a
stored value of 100 means "access point not detected", detected values lie
in [-104, 0] dBm. Both numbers are schema parameters, not code constants.
Model files are a versioned plain-text format with every float printed to
17 significant digits, so a load after save is bit-exact.
"""

from __future__ import annotations

import csv
import io
import math
import re
from dataclasses import dataclass, field

import numpy as np

from .errors import DomainError, NumericError, ParseError, SchemaError, ShapeError
from .mdn import MdnConfig, MdnModel
from .numcore import FLOAT_SPEC, Rng, fmt17

NOT_DETECTED = 100.0
RSSI_FLOOR = -104.0

# exponent of the "powed" representation
POWED_BETA = math.e

_MODEL_FORMAT = "hmdn-model v1"

_CONFIG_INT_FIELDS = ("input_dim", "target_dim", "n_components", "epochs", "batch_size", "seed")
_CONFIG_FLOAT_FIELDS = (
    "learning_rate",
    "adam_beta1",
    "adam_beta2",
    "adam_eps",
    "sigma_floor",
)
_CONFIG_STR_FIELDS = ("hidden_activation", "optimizer")


@dataclass(frozen=True)
class ColumnSchema:
    """Mapping from CSV columns to fingerprint fields.

    WAP columns are either listed explicitly or discovered by prefix; only
    columns named here are ingested as signal values, everything else rides
    along as opaque metadata strings.
    """

    wap_prefix: str = "WAP"
    wap_columns: tuple | None = None
    x_column: str = "LONGITUDE"
    y_column: str = "LATITUDE"
    sentinel: float = NOT_DETECTED
    rssi_min: float = RSSI_FLOOR
    rssi_max: float = 0.0


@dataclass(frozen=True)
class FingerprintTable:
    """Parsed fingerprint records: immutable arrays plus opaque metadata."""

    wap_names: tuple
    rssi: np.ndarray    # (n_records, n_waps), sentinel-coded dBm
    coords: np.ndarray  # (n_records, 2)
    metadata: dict = field(default_factory=dict)  # column -> tuple of strings
    schema: ColumnSchema = field(default_factory=ColumnSchema)

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
        return self.rssi != self.schema.sentinel

    def take(self, indices) -> "FingerprintTable":
        idx = np.asarray(indices, dtype=int)
        return FingerprintTable(
            wap_names=self.wap_names,
            rssi=self.rssi[idx].copy(),
            coords=self.coords[idx].copy(),
            metadata={k: tuple(v[i] for i in idx) for k, v in self.metadata.items()},
            schema=self.schema,
        )

    def metadata_floats(self, column: str) -> np.ndarray:
        if column not in self.metadata:
            raise SchemaError(f"table has no column {column!r}")
        try:
            return np.array([float(v) for v in self.metadata[column]])
        except ValueError as err:
            raise ParseError(f"column {column!r} is not numeric: {err}") from None


def load_csv(path, schema: ColumnSchema | None = None) -> FingerprintTable:
    """Parse a fingerprint CSV.

    Raises SchemaError naming a missing declared column or a column named
    twice in the header, and ParseError naming the path: with the line of
    the first byte that is not UTF-8, and with the 1-based data-row number
    and column name for cells that fail to parse, WAP cells outside
    [rssi_min, rssi_max] that are not the sentinel, and coordinates and
    ``LUX_*``/``LUXN_*`` cells that are not finite numbers.
    """
    schema = schema or ColumnSchema()
    text = _read_utf8(path)
    rows = csv.reader(m.group() for m in _LINE.finditer(text))
    header = next(rows, None)
    if header is None:
        raise SchemaError(f"{path}: empty file, expected a header row")
    names = set()
    for c in header:
        if c in names:
            raise SchemaError(f"{path}: column {c!r} appears more than once in the header")
        names.add(c)

    if schema.wap_columns is not None:
        wap_names = list(schema.wap_columns)
        missing = [c for c in wap_names if c not in names]
        if missing:
            raise SchemaError(f"{path}: missing WAP column {missing[0]!r}")
    else:
        wap_names = [c for c in header if c.startswith(schema.wap_prefix)]
        if not wap_names:
            raise SchemaError(
                f"{path}: no columns start with WAP prefix {schema.wap_prefix!r}"
            )
    coord_cols = (schema.x_column, schema.y_column)
    for col in coord_cols:
        if col not in names:
            raise SchemaError(f"{path}: missing column {col!r}")

    ingested = {*wap_names, *coord_cols}
    meta_cols = [c for c in header if c not in ingested]
    # WAP cells, then the cells that must be finite numbers, in check order
    numeric = [(c, None) for c in wap_names] + [(c, "coordinate") for c in coord_cols]
    numeric += [(c, "illuminance") for c in meta_cols if c.startswith(("LUX_", "LUXN_"))]
    col_index = {c: i for i, c in enumerate(header)}
    layout = _Layout(
        n_cells=len(header),
        numeric=[(c, col_index[c], noun) for c, noun in numeric],
        meta=[col_index[c] for c in meta_cols],
        n_waps=len(wap_names),
    )
    parsed = _parse_block(text, layout, schema)
    if parsed is None:
        parsed = _parse_rows(path, rows, layout, schema)
    values, meta = parsed
    if not len(values):
        raise SchemaError(f"{path}: no data rows")
    n = layout.n_waps
    return FingerprintTable(
        wap_names=tuple(wap_names),
        rssi=values[:, :n].copy(),
        coords=values[:, n : n + 2].copy(),
        metadata={c: tuple(col) for c, col in zip(meta_cols, meta)},
        schema=schema,
    )


# one line as a file opened with newline="" yields it: up to LF, CR or CRLF
_LINE = re.compile(r"[^\r\n]*(?:\r\n?|\n)|[^\r\n]+\Z")


def _read_utf8(path) -> str:
    """The whole file as UTF-8 text, line endings as they are."""
    with open(path, "rb") as fh:
        data = fh.read()
    try:
        return data.decode("utf-8")
    except UnicodeDecodeError as err:
        line = data.count(b"\n", 0, err.start) + 1
        raise ParseError(f"{path}: line {line}: not UTF-8 text ({err.reason})") from None


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


def _parse_block(text: str, layout: _Layout, schema: ColumnSchema):
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
    in_range = (rssi >= schema.rssi_min) & (rssi <= schema.rssi_max)
    if (
        values.shape[0] != len(lines)
        or not np.all(in_range | (rssi == schema.sentinel))
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


def _parse_rows(path, rows, layout: _Layout, schema: ColumnSchema):
    """(values, metadata columns) of the csv rows, one cell at a time; the
    first bad cell raises ParseError naming its row and column."""
    values, meta = [], [[] for _ in layout.meta]
    for row_no, row in enumerate(rows, start=1):
        if len(row) != layout.n_cells:
            raise ParseError(
                f"{path}: row {row_no} has {len(row)} cells, header has {layout.n_cells}"
            )
        row_values = []
        for c, i, noun in layout.numeric:
            try:
                v = float(row[i])
            except ValueError:
                raise ParseError(
                    f"{path}: cannot parse row {row_no}, column {c!r}: {row[i]!r}"
                ) from None
            if noun is None:
                if v != schema.sentinel and not (schema.rssi_min <= v <= schema.rssi_max):
                    raise ParseError(
                        f"{path}: row {row_no}, column {c!r}: value {v} outside "
                        f"[{schema.rssi_min}, {schema.rssi_max}] and not the sentinel"
                    )
            elif not math.isfinite(v):
                raise ParseError(f"{path}: row {row_no}, column {c!r}: {noun} {v} is not finite")
            row_values.append(v)
        values.append(row_values)
        for col, i in zip(meta, layout.meta):
            col.append(row[i])
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
    if mode not in ("zero_one", "powed"):
        raise ValueError(f"mode must be zero_one or powed, got {mode!r}")
    zero_point = table.schema.rssi_min - 1.0
    detected = table.detected_mask()
    scaled = (table.rssi - zero_point) / (-zero_point)
    feats = np.where(detected, scaled, 0.0)
    if mode == "powed":
        feats = feats**POWED_BETA
    return NormalizedRssi(features=feats)


@dataclass(frozen=True)
class SplitSpec:
    """How to divide a table: the train fraction and the shuffle seed."""

    train_fraction: float
    seed: int = 0

    def __post_init__(self):
        if not 0.0 < self.train_fraction < 1.0:
            raise ValueError(
                f"train_fraction must be strictly inside (0, 1), got {self.train_fraction}"
            )


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


# --- dataset CSV export (mirrors the import schema) ---


def write_dataset_csv(path, wap_names, rssi, coords, extra=None, schema=None) -> None:
    """Write records as a fingerprint CSV; extra columns (e.g. LUX_<condition>)
    are appended after the coordinate columns in the given order."""
    schema = schema or ColumnSchema()
    extra = extra or {}
    header = [*wap_names, schema.x_column, schema.y_column, *extra.keys()]
    columns = [rssi, coords, *extra.values()]
    _write_csv(path, header, np.column_stack([np.asarray(c, dtype=np.float64) for c in columns]))


def table_to_csv(table: FingerprintTable, path) -> None:
    """Export a loaded table; numeric round-trip through load_csv is exact."""
    header = [*table.wap_names, table.schema.x_column, table.schema.y_column, *table.metadata]
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
    with open(path, "w", encoding="utf-8", newline="") as fh:
        fh.write(",".join(map(_csv_cell, header)) + "\n")
        for row, *cells in zip(values, *text_columns):
            fh.write(",".join([template % tuple(row.tolist()), *cells]) + "\n")


# --- model persistence ---


def save_model(model: MdnModel, path) -> None:
    """Serialize config, standardization statistics, weights, and the
    training log to the versioned text format (17 significant digits)."""
    cfg = model.config
    lines = [_MODEL_FORMAT, "[config]"]
    for name in _CONFIG_INT_FIELDS:
        lines.append(f"{name} = {getattr(cfg, name)}")
    for name in _CONFIG_FLOAT_FIELDS:
        lines.append(f"{name} = {fmt17(getattr(cfg, name))}")
    for name in _CONFIG_STR_FIELDS:
        lines.append(f"{name} = {getattr(cfg, name)}")
    lines.append("hidden_layers = " + " ".join(str(h) for h in cfg.hidden_layers))
    lines.append("[standardize]")
    lines.append("mean = " + " ".join(fmt17(v) for v in model.input_mean))
    lines.append("std = " + " ".join(fmt17(v) for v in model.input_std))
    lines.append("[weights]")
    for i, w in enumerate(model.weights):
        lines.append(f"matrix {i} {w.shape[0]} {w.shape[1]}")
        lines.extend(" ".join(fmt17(v) for v in row) for row in w)
    lines.append("[training_log]")
    lines.append("nll = " + " ".join(fmt17(v) for v in model.training_log))
    with open(path, "w", encoding="utf-8") as fh:
        fh.write("\n".join(lines) + "\n")


def _numbers(path, lineno: int, text: str) -> list:
    try:
        return [float(t) for t in text.split()]
    except ValueError:
        raise ParseError(f"{path}, line {lineno}: expected numbers, got {text!r}") from None


def load_model(path) -> MdnModel:
    """Reload a model file; bit-exact inverse of save_model.

    A missing field raises SchemaError; a malformed or truncated line raises
    ParseError naming the path and line number. Weights or statistics the
    model rejects raise SchemaError (a missing or mis-sized matrix) or
    ParseError (a non-finite weight, a bad standardization value), naming
    the path.
    """
    with open(path, "r", encoding="utf-8") as fh:
        lines = [ln.rstrip("\n") for ln in fh]
    if not lines or lines[0] != _MODEL_FORMAT:
        raise SchemaError(f"{path}: expected header {_MODEL_FORMAT!r}")

    sections: dict = {}
    current = None
    for lineno, ln in enumerate(lines[1:], start=2):
        if not ln:
            continue
        if ln.startswith("["):
            current = ln.strip("[]")
            sections[current] = []
        else:
            sections.setdefault(current, []).append((lineno, ln))

    def parse_kv(section):
        """key -> (line number, value text) for the ``key = value`` lines."""
        out = {}
        for lineno, ln in sections.get(section, []):
            key, _, value = ln.partition(" = ")
            out[key] = (lineno, value)
        return out

    raw = {key: value for key, (_, value) in parse_kv("config").items()}
    try:
        kwargs = {name: int(raw[name]) for name in _CONFIG_INT_FIELDS}
        kwargs |= {name: float(raw[name]) for name in _CONFIG_FLOAT_FIELDS}
        kwargs |= {name: raw[name] for name in _CONFIG_STR_FIELDS}
        kwargs["hidden_layers"] = tuple(int(t) for t in raw["hidden_layers"].split())
        config = MdnConfig(**kwargs)
    except KeyError as missing:
        raise SchemaError(f"{path}: config missing field {missing}") from None
    except ValueError as err:
        raise ParseError(f"{path}: bad [config] section: {err}") from None

    std_kv = parse_kv("standardize")
    for name in ("mean", "std"):
        if name not in std_kv:
            raise SchemaError(f"{path}: standardize missing field {name!r}")
    mean = _numbers(path, *std_kv["mean"])
    std = _numbers(path, *std_kv["std"])

    weights = []
    w_lines = sections.get("weights", [])
    i = 0
    while i < len(w_lines):
        lineno, header = w_lines[i]
        parts = header.split()
        if len(parts) != 4 or parts[0] != "matrix" or not all(p.isdecimal() for p in parts[2:]):
            raise ParseError(
                f"{path}, line {lineno}: expected 'matrix <index> <rows> <cols>', got {header!r}"
            )
        rows, cols = int(parts[2]), int(parts[3])
        block = w_lines[i + 1 : i + 1 + rows]
        if len(block) < rows:
            raise ParseError(
                f"{path}, line {lineno}: matrix declares {rows} rows, file has {len(block)}"
            )
        matrix = np.empty((rows, cols))
        for r, (row_lineno, text) in enumerate(block):
            row = _numbers(path, row_lineno, text)
            if len(row) != cols:
                raise ParseError(
                    f"{path}, line {row_lineno}: expected {cols} values, got {len(row)}"
                )
            matrix[r] = row
        weights.append(matrix)
        i += 1 + rows

    log_lineno, log_text = parse_kv("training_log").get("nll", (0, ""))
    training_log = tuple(_numbers(path, log_lineno, log_text))

    try:
        return MdnModel(
            config=config,
            weights=tuple(weights),
            input_mean=mean,
            input_std=std,
            training_log=training_log,
        )
    except ShapeError as err:
        raise SchemaError(f"{path}: {err}") from None
    except (DomainError, NumericError) as err:
        raise ParseError(f"{path}: {err}") from None
