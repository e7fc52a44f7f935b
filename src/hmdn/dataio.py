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

import csv
import io
import math
import re
from dataclasses import dataclass, field, fields

import numpy as np

from .errors import DomainError, NumericError, ParseError, SchemaError, ShapeError
from .mdn import MdnConfig, MdnModel
from .numcore import FLOAT_SPEC, Rng, checked, fmt17, unit_fraction

# the fingerprint CSV layout load_csv reads and the writers write
NOT_DETECTED = 100.0
RSSI_FLOOR = -104.0
RSSI_CEILING = 0.0
WAP_PREFIX = "WAP"
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
    "int": (str, int),
    "float": (fmt17, float),
    "str": (str, str),
    "tuple": (lambda v: " ".join(map(str, v)), lambda text: tuple(map(int, text.split()))),
}
_CONFIG_FIELDS = [
    (f.name, *_CONFIG_TEXT[f.type])
    for f in sorted(fields(MdnConfig), key=lambda f: list(_CONFIG_TEXT).index(f.type))
]

# section -> its ``key = value`` keys; [weights] holds matrix blocks instead
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
        """A metadata column as finite floats. Errors name the column and,
        for a cell that is not a finite number, its 1-based data row; the
        caller knows the file."""
        if column not in self.metadata:
            raise SchemaError(f"table has no column {column!r}")
        values = []
        for row_no, text in enumerate(self.metadata[column], start=1):
            try:
                values.append(float(text))
            except ValueError as err:
                raise ParseError(f"row {row_no}, column {column!r} is not numeric: {err}") from None
            if not math.isfinite(values[-1]):
                raise ParseError(f"row {row_no}, column {column!r}: {text!r} is not finite")
        return np.array(values)


def load_csv(path) -> FingerprintTable:
    """Parse a fingerprint CSV.

    Raises SchemaError naming a missing coordinate column or a column named
    twice in the header, and ParseError naming the path: with the line of
    the first byte that is not UTF-8, with the row of a cell the csv module
    rejects, and with the 1-based data-row number and column name for cells
    that fail to parse, WAP cells outside [RSSI_FLOOR, RSSI_CEILING] that
    are not NOT_DETECTED, and coordinates and ``LUX_*``/``LUXN_*`` cells
    that are not finite numbers.
    """
    text = _read_utf8(path)
    rows = csv.reader(m.group() for m in _LINE.finditer(text))
    try:
        header = next(rows, None)
    except csv.Error as err:
        raise ParseError(f"{path}: header row: {err}") from None
    if header is None:
        raise SchemaError(f"{path}: empty file, expected a header row")
    names = set()
    for c in header:
        if c in names:
            raise SchemaError(f"{path}: column {c!r} appears more than once in the header")
        names.add(c)

    wap_names = [c for c in header if c.startswith(WAP_PREFIX)]
    if not wap_names:
        raise SchemaError(f"{path}: no columns start with WAP prefix {WAP_PREFIX!r}")
    for col in COORD_COLUMNS:
        if col not in names:
            raise SchemaError(f"{path}: missing column {col!r}")

    ingested = {*wap_names, *COORD_COLUMNS}
    meta_cols = [c for c in header if c not in ingested]
    # WAP cells, then the cells that must be finite numbers, in check order
    numeric = [(c, None) for c in wap_names] + [(c, "coordinate") for c in COORD_COLUMNS]
    numeric += [(c, "illuminance") for c in meta_cols if c.startswith(("LUX_", "LUXN_"))]
    col_index = {c: i for i, c in enumerate(header)}
    layout = _Layout(
        n_cells=len(header),
        numeric=[(c, col_index[c], noun) for c, noun in numeric],
        meta=[col_index[c] for c in meta_cols],
        n_waps=len(wap_names),
    )
    parsed = _parse_block(text, layout)
    if parsed is None:
        parsed = _parse_rows(path, rows, layout)
    values, meta = parsed
    if not len(values):
        raise SchemaError(f"{path}: no data rows")
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


def _parse_rows(path, rows, layout: _Layout):
    """(values, metadata columns) of the csv rows, one cell at a time; the
    first bad cell raises ParseError naming its row and column."""
    values, meta = [], [[] for _ in layout.meta]
    row_no = 0
    try:
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
                    if v != NOT_DETECTED and not (RSSI_FLOOR <= v <= RSSI_CEILING):
                        raise ParseError(
                            f"{path}: row {row_no}, column {c!r}: value {v} outside "
                            f"[{RSSI_FLOOR}, {RSSI_CEILING}] and not the sentinel"
                        )
                elif not math.isfinite(v):
                    raise ParseError(
                        f"{path}: row {row_no}, column {c!r}: {noun} {v} is not finite"
                    )
                row_values.append(v)
            values.append(row_values)
            for col, i in zip(meta, layout.meta):
                col.append(row[i])
    except csv.Error as err:  # raised while reading the row after row_no
        raise ParseError(f"{path}: row {row_no + 1}: {err}") from None
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
    with open(path, "w", encoding="utf-8", newline="") as fh:
        fh.write(",".join(map(_csv_cell, header)) + "\n")
        for row, *cells in zip(values, *text_columns):
            fh.write(",".join([template % tuple(row.tolist()), *cells]) + "\n")


# --- model persistence ---


def save_model(model: MdnModel, path) -> None:
    """Serialize the recorded role and recoding (none for a model built by
    the library), config, standardization statistics, weights, and the
    training log to the versioned text format (17 significant digits)."""
    lines = [_MODEL_FORMAT]
    if model.preprocessing:
        role, recoding = model.preprocessing
        lines += ["[preprocessing]", f"role = {role}", f"recoding = {recoding}"]
    lines.append("[config]")
    lines += [f"{name} = {format_(getattr(model.config, name))}"
              for name, format_, _ in _CONFIG_FIELDS]
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

    A missing field, a role or recoding outside ``RECODINGS`` and a file of
    another format version raise SchemaError naming the path (and the line
    of a bad role or recoding), as do an unknown or repeated section or key
    and a line outside any section, naming the path and line. A byte that
    is not UTF-8, or a malformed or truncated line, raises ParseError
    naming the path and line number. Weights or statistics the
    model rejects raise SchemaError (a missing or mis-sized matrix) or
    ParseError (a non-finite weight, a bad standardization value), naming
    the path.
    """
    lines = [m.group().rstrip("\r\n") for m in _LINE.finditer(_read_utf8(path))]
    if lines[:1] != [_MODEL_FORMAT]:
        why = ""
        if lines[:1] == ["hmdn-model v1"]:
            why = "; a v1 model records no role or recoding, so retrain it with `hmdn train`"
        raise SchemaError(f"{path}: expected header {_MODEL_FORMAT!r}{why}")

    sections: dict = {}
    current = None
    for lineno, ln in enumerate(lines[1:], start=2):
        if not ln:
            continue
        if ln.startswith("["):
            current = ln.strip("[]")
            if current not in _SECTION_KEYS or current in sections:
                why = "appears twice" if current in sections else "is not a model section"
                raise SchemaError(f"{path}, line {lineno}: {ln!r} {why}")
            sections[current] = []
        elif current is None:
            raise SchemaError(f"{path}, line {lineno}: {ln!r} is outside any section")
        else:
            sections[current].append((lineno, ln))

    def parse_kv(section):
        """key -> (line number, value text) for the ``key = value`` lines;
        a key the section does not have, or has already, is a SchemaError."""
        out = {}
        for lineno, ln in sections.get(section, []):
            key, _, value = ln.partition(" = ")
            if key not in _SECTION_KEYS[section]:
                raise SchemaError(f"{path}, line {lineno}: [{section}] has no key {key!r}")
            if key in out:
                raise SchemaError(f"{path}, line {lineno}: [{section}] key {key!r} "
                                  f"repeats line {out[key][0]}")
            out[key] = (lineno, value)
        return out

    preprocessing = ()
    if "preprocessing" in sections:
        pre = parse_kv("preprocessing")
        try:
            (role_lineno, role), (recoding_lineno, recoding) = pre["role"], pre["recoding"]
        except KeyError as missing:
            raise SchemaError(f"{path}: preprocessing missing field {missing}") from None
        if role not in RECODINGS:
            raise SchemaError(f"{path}, line {role_lineno}: role must be g1 or g2, got {role!r}")
        if recoding not in RECODINGS[role]:
            raise SchemaError(f"{path}, line {recoding_lineno}: a {role} recoding is one of "
                              f"{', '.join(RECODINGS[role])}, got {recoding!r}")
        preprocessing = (role, recoding)

    raw = {key: value for key, (_, value) in parse_kv("config").items()}
    try:
        config = MdnConfig(**{name: parse(raw[name]) for name, _, parse in _CONFIG_FIELDS})
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
            preprocessing=preprocessing,
        )
    except ShapeError as err:
        raise SchemaError(f"{path}: {err}") from None
    except (DomainError, NumericError) as err:
        raise ParseError(f"{path}: {err}") from None
