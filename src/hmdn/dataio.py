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
import math
from dataclasses import dataclass, field

import numpy as np

from .errors import DomainError, NumericError, ParseError, SchemaError, ShapeError
from .mdn import MdnConfig, MdnModel
from .numcore import Rng, fmt17

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

    Raises SchemaError naming any missing declared column, and ParseError
    with 1-based data-row number and column name for cells that fail to
    parse, WAP cells outside [rssi_min, rssi_max] that are not the
    sentinel, and coordinates that are not finite.
    """
    schema = schema or ColumnSchema()
    with open(path, "r", encoding="utf-8", newline="") as fh:
        reader = csv.reader(fh)
        try:
            header = next(reader)
        except StopIteration:
            raise SchemaError(f"{path}: empty file, expected a header row") from None

        if schema.wap_columns is not None:
            wap_names = list(schema.wap_columns)
            missing = [c for c in wap_names if c not in header]
            if missing:
                raise SchemaError(f"{path}: missing WAP column {missing[0]!r}")
        else:
            wap_names = [c for c in header if c.startswith(schema.wap_prefix)]
            if not wap_names:
                raise SchemaError(
                    f"{path}: no columns start with WAP prefix {schema.wap_prefix!r}"
                )
        for col in (schema.x_column, schema.y_column):
            if col not in header:
                raise SchemaError(f"{path}: missing column {col!r}")

        col_index = {c: i for i, c in enumerate(header)}
        wap_idx = [col_index[c] for c in wap_names]
        x_idx, y_idx = col_index[schema.x_column], col_index[schema.y_column]
        meta_cols = [
            c
            for c in header
            if c not in wap_names and c not in (schema.x_column, schema.y_column)
        ]

        rssi_rows, coord_rows = [], []
        metadata: dict = {c: [] for c in meta_cols}
        for row_no, row in enumerate(reader, start=1):
            if len(row) != len(header):
                raise ParseError(
                    f"{path}: row {row_no} has {len(row)} cells, header has {len(header)}"
                )

            def cell(idx, col):
                try:
                    return float(row[idx])
                except ValueError:
                    raise ParseError(
                        f"{path}: cannot parse row {row_no}, column {col!r}: {row[idx]!r}"
                    ) from None

            values = []
            for c, i in zip(wap_names, wap_idx):
                v = cell(i, c)
                if v != schema.sentinel and not (schema.rssi_min <= v <= schema.rssi_max):
                    raise ParseError(
                        f"{path}: row {row_no}, column {c!r}: value {v} outside "
                        f"[{schema.rssi_min}, {schema.rssi_max}] and not the sentinel"
                    )
                values.append(v)
            rssi_rows.append(values)
            xy = []
            for c, i in ((schema.x_column, x_idx), (schema.y_column, y_idx)):
                v = cell(i, c)
                if not math.isfinite(v):
                    raise ParseError(
                        f"{path}: row {row_no}, column {c!r}: coordinate {v} is not finite"
                    )
                xy.append(v)
            coord_rows.append(xy)
            for c in meta_cols:
                metadata[c].append(row[col_index[c]])

    if not rssi_rows:
        raise SchemaError(f"{path}: no data rows")
    return FingerprintTable(
        wap_names=tuple(wap_names),
        rssi=np.array(rssi_rows),
        coords=np.array(coord_rows),
        metadata={k: tuple(v) for k, v in metadata.items()},
        schema=schema,
    )


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
    rssi = np.asarray(rssi, dtype=np.float64)
    coords = np.asarray(coords, dtype=np.float64)
    header = [*wap_names, schema.x_column, schema.y_column, *extra.keys()]
    with open(path, "w", encoding="utf-8", newline="") as fh:
        writer = csv.writer(fh, lineterminator="\n")
        writer.writerow(header)
        extra_cols = [np.asarray(v, dtype=np.float64) for v in extra.values()]
        for i in range(rssi.shape[0]):
            row = [fmt17(v) for v in rssi[i]]
            row += [fmt17(coords[i, 0]), fmt17(coords[i, 1])]
            row += [fmt17(col[i]) for col in extra_cols]
            writer.writerow(row)


def table_to_csv(table: FingerprintTable, path) -> None:
    """Export a loaded table; numeric round-trip through load_csv is exact."""
    header = [*table.wap_names, table.schema.x_column, table.schema.y_column, *table.metadata]
    with open(path, "w", encoding="utf-8", newline="") as fh:
        writer = csv.writer(fh, lineterminator="\n")
        writer.writerow(header)
        for i in range(table.n_records):
            row = [fmt17(v) for v in table.rssi[i]]
            row += [fmt17(table.coords[i, 0]), fmt17(table.coords[i, 1])]
            row += [table.metadata[c][i] for c in table.metadata]
            writer.writerow(row)


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
