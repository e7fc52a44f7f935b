"""Property and fuzz tests of the fingerprint CSV boundary: mutated files
read by load_csv and by the reference per-cell loader, writer bytes
against the reference csv.writer output, and mutated test files fed to
the CLI."""

import contextlib
import io
import math
import struct
import tempfile
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from hmdn import cli
from hmdn.dataio import FingerprintTable, load_csv, table_to_csv, write_dataset_csv

from util import (
    load_outcome,
    reference_load_csv,
    reference_table_to_csv,
    reference_write_dataset_csv,
)


# metadata before, between and after the numeric columns
BASE_CSV = [
    "ID,WAP001,WAP002,LONGITUDE,WAP003,LATITUDE,NOTE,FLOOR",
    "r1,-50,100,1.5,-60.25,2.5,first,0",
    "r2,100,-104,-3.125,0,4e1,,1",
    "r3,-71,-0.5,0,100,-0,third,2",
    "r4,-90,-80,12345.678,-45,9.75, spaced ,3",
]

ADVERSARIAL_CELLS = [
    "", " ", "-1_0", "1_000", "+5", "-0", "٣", "-٥٠", " -7", "-7　", "\x1c-7", "-7\x1f",
    "nan", "-nan", "NaN", "inf", "-inf", "Infinity", "1e999", "5e-324", "0x10", "1d5", ".", "5.",
    "-1e", "--1", "-50 ", " -50", "1 2", "a,b", '"q"', '"-50"', 'x"y', " ", "\x0c-3",
]

# numbers both parsers take: in-range dBm and coordinates in assorted spellings
number_text = st.builds(
    lambda x, spell, pad: pad + spell(x) + pad,
    st.one_of(st.integers(-104, 0).map(float), st.floats(-1.0, 0.0), st.just(100.0)),
    st.sampled_from([repr, "{:.3f}".format, "{:e}".format, "{:+.17g}".format, "{:g}".format]),
    st.sampled_from(["", " ", "\t", "\xa0"]),
)

cell_text = st.one_of(
    number_text,
    st.sampled_from(ADVERSARIAL_CELLS),
    st.text(alphabet="-+.e_0159 ,\"\r\nnaif ٣\x1c", max_size=6),
)


@st.composite
def mutated_csv(draw):
    """BASE_CSV under 0-3 edits of its data rows, with LF or CRLF line ends
    and one line end that may differ (LF, CRLF, bare CR, CR CR LF, LF CR)."""
    rows = [line.split(",") for line in BASE_CSV]
    for _ in range(draw(st.integers(0, 3))):
        r = draw(st.integers(1, len(rows) - 1))
        kind = draw(st.sampled_from(["cell", "cell", "cell", "quote", "drop", "add", "blank"]))
        c = draw(st.integers(0, len(rows[r]) - 1)) if rows[r] else 0
        if kind == "cell" and rows[r]:
            rows[r][c] = draw(cell_text)
        elif kind == "quote" and rows[r]:
            rows[r][c] = '"' + rows[r][c].replace('"', '""') + draw(st.sampled_from(['"', '",x', "", ',"']))
        elif kind == "drop" and rows[r]:
            del rows[r][c]
        elif kind == "add":
            rows[r].insert(c, draw(cell_text))
        elif kind == "blank":
            rows.insert(r, [])
    end = draw(st.sampled_from(["\n", "\r\n"]))
    ends = [end] * len(rows)
    ends[draw(st.integers(0, len(rows) - 1))] = draw(
        st.sampled_from([end, "\n", "\r\n", "\r", "\r\r\n", "\n\r"])
    )
    return "".join(",".join(row) + e for row, e in zip(rows, ends))


@settings(max_examples=300)
@given(mutated_csv())
def test_loader_matches_reference_on_mutated_files(text):
    with tempfile.TemporaryDirectory() as tmp:
        path = Path(tmp) / "fingerprints.csv"
        path.write_bytes(text.encode("utf-8"))
        assert load_outcome(load_csv, path) == load_outcome(reference_load_csv, path)


SPECIAL_FLOATS = [0.0, -0.0, 5e-324, -5e-324, 2.2250738585072009e-308, 1.7976931348623157e308,
                  math.inf, -math.inf, math.nan]

any_float = st.one_of(
    st.sampled_from(SPECIAL_FLOATS),
    st.integers(0, 2**64 - 1).map(lambda bits: struct.unpack("<d", struct.pack("<Q", bits))[0]),
)

metadata_cell = st.one_of(
    st.sampled_from(["", " ", "a,b", 'say "hi"', "line\nbreak", "cr\rhere", "crlf\r\n", "%s %d",
                     "é中", '"', ","]),
    st.text(max_size=5),
)


@st.composite
def float_table(draw):
    n, k = draw(st.integers(0, 4)), draw(st.integers(1, 3))
    values = draw(st.lists(any_float, min_size=n * (k + 3), max_size=n * (k + 3)))
    return np.array(values, dtype=np.float64).reshape(n, k + 3), k


@settings(max_examples=150)
@given(float_table(), st.lists(metadata_cell, min_size=2, max_size=2))
def test_write_dataset_csv_bytes_match_reference(case, extra_names):
    values, k = case
    waps = tuple(f"WAP{i:03d}" for i in range(k))
    extra = {f"LUX_{name}": values[:, k + 2] for name in dict.fromkeys(extra_names)}
    with tempfile.TemporaryDirectory() as tmp:
        new, ref = Path(tmp) / "new.csv", Path(tmp) / "ref.csv"
        write_dataset_csv(new, waps, values[:, :k], values[:, k : k + 2], extra=extra)
        reference_write_dataset_csv(ref, waps, values[:, :k], values[:, k : k + 2], extra=extra)
        assert new.read_bytes() == ref.read_bytes()


@settings(max_examples=150)
@given(float_table(), st.data())
def test_table_to_csv_bytes_match_reference(case, data):
    values, k = case
    n = values.shape[0]
    names = data.draw(st.lists(metadata_cell, max_size=3, unique=True))
    metadata = {
        name: tuple(data.draw(st.lists(metadata_cell, min_size=n, max_size=n))) for name in names
    }
    table = FingerprintTable(
        wap_names=tuple(f"WAP{i:03d}" for i in range(k)),
        rssi=values[:, :k],
        coords=values[:, k : k + 2],
        metadata=metadata,
    )
    with tempfile.TemporaryDirectory() as tmp:
        new, ref = Path(tmp) / "new.csv", Path(tmp) / "ref.csv"
        table_to_csv(table, new)
        reference_table_to_csv(table, ref)
        assert new.read_bytes() == ref.read_bytes()


# --- the CLI at the CSV boundary ---


def run_quiet(argv):
    err = io.StringIO()
    with contextlib.redirect_stderr(err), contextlib.redirect_stdout(io.StringIO()):
        code = cli.main([str(a) for a in argv])
    return code, err.getvalue()


@pytest.fixture(scope="module")
def models(tmp_path_factory):
    """A tiny simulate + train run: the g1/g2 models and the test CSV lines."""
    root = tmp_path_factory.mktemp("csv_cli")
    assert run_quiet(["simulate", "--out-dir", root, "--n-train", 40, "--n-test", 4,
                      "--seed", 3])[0] == 0
    for which in ("g1", "g2"):
        assert run_quiet(["train", "--which", which, "--data", root / "train.csv", "--seed", 3,
                          "--hidden", "4", "--epochs", 2, "--model-out", root / which])[0] == 0
    return root, (root / "test.csv").read_text().splitlines(keepends=True)


@st.composite
def mutated_test_csv(draw, lines):
    lines = list(lines)
    r = draw(st.integers(0, len(lines) - 1))
    kind = draw(st.sampled_from(["cell", "cell", "truncate", "drop", "blank", "bytes"]))
    if kind == "truncate":
        return "".join(lines)[: draw(st.integers(0, sum(map(len, lines))))].encode()
    if kind == "drop":
        del lines[r]
    elif kind == "blank":
        lines.insert(r, "\n")
    elif kind == "cell":
        cells = lines[r].rstrip("\n").split(",")
        cells[draw(st.integers(0, len(cells) - 1))] = draw(cell_text)
        lines[r] = ",".join(cells) + "\n"
    data = "".join(lines).encode()
    if kind == "bytes":
        at = draw(st.integers(0, len(data)))
        data = data[:at] + draw(st.sampled_from([b"\xff", b"\xc3", b"\x00", b'"'])) + data[at:]
    return data


@settings(max_examples=200)
@given(st.data())
def test_mutated_test_csv_exits_0_or_3_with_one_line(models, data):
    root, lines = models
    with tempfile.TemporaryDirectory() as tmp:
        path = Path(tmp) / "test.csv"
        path.write_bytes(data.draw(mutated_test_csv(lines)))
        code, err = run_quiet(["evaluate", "--g1", root / "g1", "--g2", root / "g2",
                               "--data", path, "--out-dir", tmp, "--m", 4, "--n", 2,
                               "--seed", 1, "--bootstrap", 5])
    assert code in (0, 3), err
    assert "Traceback" not in err
    if code == 3:
        assert err.startswith("error: ") and err.count("\n") == 1, err
