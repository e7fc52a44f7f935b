import dataclasses
import math
import re
from pathlib import Path

import numpy as np
import pytest

from hmdn import dataio
from hmdn.dataio import (
    NOT_DETECTED,
    RSSI_FLOOR,
    SplitSpec,
    load_csv,
    load_model,
    normalize_rssi,
    save_model,
    split,
    table_to_csv,
    write_dataset_csv,
)
from hmdn.errors import ParseError, SchemaError
from hmdn.mdn import MdnConfig, train
from hmdn.numcore import Rng

from util import load_outcome, raised, reference_load_csv, where


FIXTURE = """WAP001,WAP002,WAP003,WAP004,LONGITUDE,LATITUDE,NOTE
-50,-60.5,100,-80,1.5,2.5,first
-55,100,-70,-90,3.25,4.75,second
-104,0,-45,100,5,6,third
"""


@pytest.fixture
def fixture_csv(tmp_path):
    path = tmp_path / "fingerprints.csv"
    path.write_text(FIXTURE)
    return path


class TestLoadCsv:
    def test_shapes_and_values(self, fixture_csv):
        table = load_csv(fixture_csv)
        assert table.n_records == 3
        assert table.n_waps == 4
        assert table.wap_names == ("WAP001", "WAP002", "WAP003", "WAP004")
        assert table.rssi[0, 0] == -50.0
        assert table.coords[1].tolist() == [3.25, 4.75]
        assert table.metadata["NOTE"] == ("first", "second", "third")

    def test_sentinel_flagged_and_excluded_from_stats(self, fixture_csv):
        table = load_csv(fixture_csv)
        mask = table.detected_mask()
        assert not mask[0, 2] and not mask[1, 1] and not mask[2, 3]
        detected = table.rssi[mask]
        assert detected.max() == 0.0
        assert detected.min() == -104.0
        assert NOT_DETECTED not in detected

    def test_malformed_cell_names_row_and_column(self, tmp_path):
        path = tmp_path / "bad.csv"
        path.write_text(
            "WAP001,WAP002,WAP003,LONGITUDE,LATITUDE\n"
            "-50,-60,-70,0,0\n"
            "-50,-60,oops,0,0\n"
        )
        err = raised(ParseError, load_csv, path)
        assert where(err) == (path, 3, None, "WAP003") and err.message == "cannot parse 'oops'"

    def test_out_of_range_cell_rejected(self, tmp_path):
        path = tmp_path / "range.csv"
        path.write_text("WAP001,LONGITUDE,LATITUDE\n17,0,0\n")
        err = raised(ParseError, load_csv, path)
        assert where(err) == (path, 2, None, "WAP001")
        assert err.message == "value 17.0 outside [-104.0, 0.0] and not the sentinel"

    @pytest.mark.parametrize("cell, column", [("nan", "LONGITUDE"), ("inf", "LATITUDE"),
                                              ("-inf", "LONGITUDE")])
    def test_non_finite_coordinate_names_path_row_and_column(self, tmp_path, cell, column):
        path = tmp_path / "coords.csv"
        x, y = (cell, "0") if column == "LONGITUDE" else ("0", cell)
        path.write_text(f"WAP001,LONGITUDE,LATITUDE\n-50,1,2\n-50,{x},{y}\n")
        err = raised(ParseError, load_csv, path)
        assert where(err) == (path, 3, None, column)
        assert err.message == f"coordinate {float(cell)} is not finite"

    def test_metadata_floats_names_row_and_column(self, fixture_csv):
        table = load_csv(fixture_csv)
        err = raised(ParseError, table.metadata_floats, "NOTE")
        assert where(err) == (None, None, None, "NOTE")
        assert err.message == "data row 1: 'first' is not a finite number"
        err = raised(SchemaError, table.metadata_floats, "NOPE")
        assert where(err) == (None, None, None, "NOPE") and err.message == "no such column"

    def test_missing_coordinate_column(self, tmp_path):
        path = tmp_path / "nocoord.csv"
        path.write_text("WAP001,LONGITUDE\n-50,0\n")
        err = raised(SchemaError, load_csv, path)
        assert where(err) == (path, 1, None, None) and err.message == "missing column 'LATITUDE'"


def wide_csv(n_rows=30, n_waps=520, seed=8) -> str:
    """A UJIIndoorLoc-layout file: sparse integer dBm, projected coordinates
    with six decimals, then integer metadata columns."""
    rng = Rng(seed)
    dbm = np.rint(rng.uniform(n_rows * n_waps) * -104).reshape(n_rows, n_waps)
    detected = rng.uniform(n_rows * n_waps).reshape(n_rows, n_waps) < 0.1
    pos = rng.uniform(n_rows * 2).reshape(n_rows, 2) * 300 + [-7695.0, 4864745.0]
    header = [f"WAP{i + 1:03d}" for i in range(n_waps)] + ["LONGITUDE", "LATITUDE", "FLOOR",
                                                           "USERID"]
    lines = [",".join(header)]
    for r in range(n_rows):
        cells = [str(int(v)) if d else "100" for v, d in zip(dbm[r], detected[r])]
        lines.append(",".join(cells + [f"{pos[r, 0]:.6f}", f"{pos[r, 1]:.6f}", str(r % 4), "7"]))
    return "\n".join(lines) + "\n"


CRLF = FIXTURE.replace("\n", "\r\n")
QUOTED = FIXTURE.replace("first", '"first, and quoted"').replace("third", '"say ""third"""')
UNDERSCORED = FIXTURE.replace("1.5,2.5", "1_000.5,2.5").replace("-55,", "-5_5,")


class TestLoadCsvMatchesReference:
    """load_csv reads every file bit for bit as the per-cell csv.reader
    loader it replaced, and takes the one-pass path on plain files."""

    @pytest.mark.parametrize("text", [FIXTURE, wide_csv(), CRLF, QUOTED, UNDERSCORED],
                             ids=["fixture", "520-waps", "crlf", "quoted-metadata",
                                  "underscored-numbers"])
    def test_bit_identical_to_reference(self, tmp_path, text):
        path = tmp_path / "data.csv"
        path.write_bytes(text.encode("utf-8"))
        expected = load_outcome(reference_load_csv, path)
        assert isinstance(expected[0], tuple)  # the reference reads the file
        assert load_outcome(load_csv, path) == expected
        table = load_csv(path)
        assert table.rssi.flags.c_contiguous and table.coords.flags.c_contiguous

    @pytest.mark.parametrize("cell", ["-1_0", "\x1c-50", "-50\x1f", "\x1d-5\x1e", "٣", "-٥٠",
                                      "\xa0-50", "-50\u3000", " -50 ", "\x0c-5\x0b", "", "nan",
                                      "-0", "+5", "1e999", "5e-324", "0x10", "1d5"])
    @pytest.mark.parametrize("column", ["WAP002", "LATITUDE"])
    def test_single_cell_same_as_reference(self, tmp_path, cell, column):
        """Cells float() and np.loadtxt read differently, or not at all."""
        path = tmp_path / "data.csv"
        lines = FIXTURE.splitlines()
        cells = lines[2].split(",")
        cells[lines[0].split(",").index(column)] = cell
        lines[2] = ",".join(cells)
        path.write_text("\n".join(lines) + "\n")
        assert load_outcome(load_csv, path) == load_outcome(reference_load_csv, path)

    @pytest.mark.parametrize("text, walked", [
        (FIXTURE, False), (wide_csv(), False), (CRLF, False),
        (QUOTED, True), (UNDERSCORED, True), (FIXTURE.replace("\n", "\r"), True),
    ], ids=["fixture", "520-waps", "crlf", "quoted-metadata", "underscored-numbers", "bare-cr"])
    def test_only_files_that_need_it_walk_rows(self, tmp_path, monkeypatch, text, walked):
        calls = []
        walk = dataio._parse_rows
        monkeypatch.setattr(dataio, "_parse_rows", lambda *a: calls.append(1) or walk(*a))
        path = tmp_path / "data.csv"
        path.write_text(text, newline="")
        load_csv(path)
        assert bool(calls) == walked


class TestLoadCsvRejects:
    def write(self, tmp_path, text):
        path = tmp_path / "data.csv"
        path.write_text(text)
        return path

    @pytest.mark.parametrize("cell", ["nan", "inf", "-inf", "bright", ""])
    @pytest.mark.parametrize("column", ["LUX_sunny", "LUXN_cloudy"])
    def test_lux_cell_must_be_a_finite_number(self, tmp_path, cell, column):
        lux = {"LUX_sunny": "10", "LUXN_cloudy": "20"} | {column: cell}
        path = self.write(tmp_path, "WAP001,LONGITUDE,LATITUDE,LUX_sunny,LUXN_cloudy,NOTE\n"
                          "-50,1,2,10,20,a\n"
                          f"-50,1,2,{lux['LUX_sunny']},{lux['LUXN_cloudy']},b\n")
        assert where(raised(ParseError, load_csv, path)) == (path, 3, None, column)

    def test_lux_checked_after_coordinates_in_header_order(self, tmp_path):
        path = self.write(tmp_path, "LUXN_b,WAP001,LUX_a,LONGITUDE,LATITUDE\n"
                          "nan,-50,nan,1,nan\n")
        assert where(raised(ParseError, load_csv, path)) == (path, 2, None, "LATITUDE")
        path.write_text("LUXN_b,WAP001,LUX_a,LONGITUDE,LATITUDE\nnan,-50,nan,1,2\n")
        err = raised(ParseError, load_csv, path)
        assert where(err) == (path, 2, None, "LUXN_b")
        assert err.message == "illuminance nan is not finite"

    def test_lux_cells_kept_as_written(self, tmp_path):
        path = self.write(tmp_path, "WAP001,LONGITUDE,LATITUDE,LUX_sunny\n-50,1,2, 1e2\n")
        assert load_csv(path).metadata["LUX_sunny"] == (" 1e2",)

    @pytest.mark.parametrize("header, column", [
        ("WAP001,WAP001,LONGITUDE,LATITUDE,NOTE", "WAP001"),
        ("WAP001,LONGITUDE,LATITUDE,NOTE,NOTE", "NOTE"),
        ("WAP001,LONGITUDE,LATITUDE,LONGITUDE", "LONGITUDE"),
    ])
    def test_repeated_column_name_rejected(self, tmp_path, header, column):
        path = self.write(tmp_path, header + "\n" + ",".join(["-50"] * 5) + "\n")
        err = raised(SchemaError, load_csv, path)
        assert where(err) == (path, 1, None, column)
        assert err.message == "appears more than once in the header"

    @pytest.mark.parametrize("text, line", [
        ('WAP001,LONGITUDE,LATITUDE,"{long}"\n-50,1,2,a\n', 1),
        ('WAP001,LONGITUDE,LATITUDE,NOTE\n-50,1,2,a\n-50,1,2,"{long}"\n', 3),
        ('WAP001,LONGITUDE,LATITUDE,NOTE\n-50,1,2,"a\nb"\n-50,1,2,"{long}"\n', 4),
    ], ids=["header", "data-row", "after-a-two-line-row"])
    def test_cell_over_the_csv_field_limit_names_the_row(self, tmp_path, text, line):
        path = self.write(tmp_path, text.replace("{long}", "x" * 200_000))
        err = raised(ParseError, load_csv, path)
        assert where(err) == (path, line, None, None)
        assert err.message.startswith("field larger than field limit")

    def test_cell_reports_the_line_its_row_starts_on(self, tmp_path):
        """A quoted cell spanning lines moves every later row down a line."""
        path = self.write(tmp_path, 'WAP001,LONGITUDE,LATITUDE,NOTE\n-50,1,2,"two\nlines"\n'
                          "-50,1,x,c\n")
        assert where(raised(ParseError, load_csv, path)) == (path, 4, None, "LATITUDE")
        path.write_text('WAP001,LONGITUDE,LATITUDE,NOTE\n-50,1,2,"two\nlines"\n-50,1,2\n')
        err = raised(ParseError, load_csv, path)
        assert where(err) == (path, 4, None, None)
        assert str(err) == f"{path}:4: row has 3 cells, header has 4"

    def test_non_utf8_names_path_and_line(self, tmp_path):
        path = tmp_path / "latin1.csv"
        path.write_bytes(FIXTURE.replace("second", "séc").encode("latin-1"))
        err = raised(ParseError, load_csv, path)
        assert where(err) == (path, 3, None, None)
        assert err.message == "not UTF-8 text (invalid continuation byte)"


class TestNormalize:
    def test_zero_one_endpoints(self, fixture_csv):
        table = load_csv(fixture_csv)
        norm = normalize_rssi(table, "zero_one")
        # -104 dBm maps just above zero, 0 dBm maps to 1
        assert norm.features[2, 0] == pytest.approx(1.0 / 105.0, rel=1e-12)
        assert norm.features[2, 1] == 1.0

    def test_sentinel_maps_to_exact_zero(self, fixture_csv):
        norm = normalize_rssi(load_csv(fixture_csv), "zero_one")
        assert norm.features[0, 2] == 0.0
        assert norm.features[1, 1] == 0.0

    def test_round_trip_detected_values(self, fixture_csv):
        table = load_csv(fixture_csv)
        for mode in ("zero_one", "powed"):
            norm = normalize_rssi(table, mode)
            mask = table.detected_mask()
            # invert the documented map: powed is zero_one to the power e,
            # zero_one is affine with its zero one dB below the floor
            v = norm.features[mask]
            if mode == "powed":
                v = v ** (1.0 / math.e)
            zero_point = RSSI_FLOOR - 1.0
            back = v * (-zero_point) + zero_point
            assert np.allclose(back, table.rssi[mask], atol=1e-12)

    def test_monotone_on_detected(self, fixture_csv):
        table = load_csv(fixture_csv)
        for mode in ("zero_one", "powed"):
            norm = normalize_rssi(table, mode)
            values = np.linspace(-104.0, 0.0, 300)
            fake = table.rssi.copy()
            feats = []
            for v in values:
                fake_row = np.full((1, table.n_waps), v)
                t2 = type(table)(
                    wap_names=table.wap_names,
                    rssi=fake_row,
                    coords=np.zeros((1, 2)),
                )
                feats.append(normalize_rssi(t2, mode).features[0, 0])
            assert all(a < b for a, b in zip(feats, feats[1:]))
            assert fake is not None

    def test_powed_compresses_weak_signals(self, fixture_csv):
        table = load_csv(fixture_csv)
        z = normalize_rssi(table, "zero_one").features
        p = normalize_rssi(table, "powed").features
        mask = table.detected_mask() & (table.rssi < -1)
        assert np.all(p[mask] < z[mask])

    def test_every_recoding_is_accepted_and_no_other(self, fixture_csv):
        table = load_csv(fixture_csv)
        lux = np.array([0.0, 0.5, 300.0])
        for mode in dataio.RECODINGS["g1"]:
            normalize_rssi(table, mode)
        assert dataio.lux_transform(lux, "identity") is lux
        assert np.array_equal(dataio.lux_transform(lux, "log"),
                              np.log(np.maximum(lux, 1e-12)))
        with pytest.raises(ValueError, match="'log'"):
            normalize_rssi(table, "log")
        with pytest.raises(ValueError, match="'powed'"):
            dataio.lux_transform(lux, "powed")


class TestSplit:
    def make_table(self, n=100):
        rng = Rng(4)
        rssi = (rng.uniform(n * 3) * -90).reshape(n, 3)
        coords = rng.uniform(n * 2).reshape(n, 2)
        from hmdn.dataio import FingerprintTable

        return FingerprintTable(
            wap_names=("WAP001", "WAP002", "WAP003"),
            rssi=rssi,
            coords=coords,
            metadata={"ID": tuple(str(i) for i in range(n))},
        )

    def test_fraction_one_rejected(self):
        with pytest.raises(ValueError):
            SplitSpec(train_fraction=1.0)
        with pytest.raises(ValueError):
            SplitSpec(train_fraction=0.0)

    def test_eighty_twenty(self):
        train, test = split(self.make_table(100), SplitSpec(train_fraction=0.8, seed=1))
        assert train.n_records == 80
        assert test.n_records == 20

    def test_same_seed_same_indices(self):
        t = self.make_table(60)
        spec = SplitSpec(train_fraction=0.75, seed=42)
        a_train, a_test = split(t, spec)
        b_train, b_test = split(t, spec)
        assert a_train.metadata["ID"] == b_train.metadata["ID"]
        assert a_test.metadata["ID"] == b_test.metadata["ID"]

    def test_partition(self):
        t = self.make_table(57)
        train, test = split(t, SplitSpec(train_fraction=0.6, seed=9))
        ids = sorted(train.metadata["ID"] + test.metadata["ID"], key=int)
        assert ids == [str(i) for i in range(57)]
        assert set(train.metadata["ID"]).isdisjoint(test.metadata["ID"])


class TestCsvRoundTrip:
    def test_value_identical(self, fixture_csv, tmp_path):
        table = load_csv(fixture_csv)
        out = tmp_path / "export.csv"
        table_to_csv(table, out)
        back = load_csv(out)
        assert np.array_equal(back.rssi, table.rssi)
        assert np.array_equal(back.coords, table.coords)
        assert back.metadata == table.metadata

    def test_write_dataset_with_extra_columns(self, tmp_path):
        path = tmp_path / "sim.csv"
        write_dataset_csv(
            path,
            wap_names=("WAP001", "WAP002"),
            rssi=[[-40.0, -50.0], [-45.0, 100.0]],
            coords=[[1.0, 2.0], [3.0, 4.0]],
            extra={"LUX_sunny": [200.5, 300.25]},
        )
        table = load_csv(path)
        assert table.n_records == 2
        assert table.metadata_floats("LUX_sunny").tolist() == [200.5, 300.25]


class TestModelPersistence:
    def train_tiny(self):
        rng = Rng(12)
        X = (rng.uniform(80) * 2 - 1).reshape(-1, 2)
        Y = (X[:, :1] * 2.0 + 0.5) + 0.1 * rng.normals(40).reshape(-1, 1)
        cfg = MdnConfig(
            input_dim=2, target_dim=1, n_components=2, hidden_layers=(6,), epochs=40, seed=5
        )
        return train((X, Y), cfg)

    def test_round_trip_bit_exact(self, tmp_path):
        model = self.train_tiny()
        path = tmp_path / "model.txt"
        save_model(model, path)
        back = load_model(path)
        assert back.config == model.config
        assert np.array_equal(back.input_mean, model.input_mean)
        assert np.array_equal(back.input_std, model.input_std)
        assert back.training_log == model.training_log
        for a, b in zip(model.weights, back.weights):
            assert np.array_equal(a, b)

    def test_save_is_idempotent_bytes(self, tmp_path):
        model = self.train_tiny()
        p1, p2 = tmp_path / "m1.txt", tmp_path / "m2.txt"
        save_model(model, p1)
        save_model(load_model(p1), p2)
        assert p1.read_bytes() == p2.read_bytes()

    def test_bad_header_rejected(self, tmp_path):
        p = tmp_path / "junk.txt"
        p.write_text("not a model\n")
        with pytest.raises(SchemaError):
            load_model(p)

    def test_v1_file_says_retrain(self, tmp_path):
        path = tmp_path / "model.txt"
        save_model(self.train_tiny(), path)
        path.write_text(path.read_text().replace("hmdn-model v2", "hmdn-model v1", 1))
        err = raised(SchemaError, load_model, path)
        assert where(err) == (path, 1, None, None)
        assert re.fullmatch(r"expected header 'hmdn-model v2'; a v1 model .* retrain it .*",
                            err.message)

    def test_recorded_preprocessing_round_trips(self, tmp_path):
        library = self.train_tiny()
        assert library.preprocessing == ()
        path = tmp_path / "model.txt"
        for preprocessing in (("g1", "powed"), ("g2", "identity"), ()):
            save_model(dataclasses.replace(library, preprocessing=preprocessing), path)
            has_section = "[preprocessing]" in path.read_text()
            assert has_section == bool(preprocessing)
            assert load_model(path).preprocessing == preprocessing

    @pytest.mark.parametrize("edit, line, key, message", [
        (lambda t: t.replace("role = g2", "role = g3"), 3, "[preprocessing] role",
         "must be g1 or g2, got 'g3'"),
        (lambda t: t.replace("recoding = log", "recoding = powed"), 4,
         "[preprocessing] recoding", "a g2 recoding is one of identity, log, got 'powed'"),
        (lambda t: t.replace("recoding = log\n", ""), None, "[preprocessing] recoding",
         "missing"),
    ], ids=["role", "recoding-of-the-other-role", "missing-recoding"])
    def test_bad_preprocessing_section_names_path(self, tmp_path, edit, line, key, message):
        path = tmp_path / "model.txt"
        save_model(dataclasses.replace(self.train_tiny(), preprocessing=("g2", "log")), path)
        path.write_text(edit(path.read_text()))
        err = raised(SchemaError, load_model, path)
        assert where(err) == (path, line, None, key) and err.message == message

    @pytest.mark.parametrize("edit, at, key, message", [
        (lambda t: t.replace("[config]\n", "[config]\nlearning_rat = 0.5\n"),
         "learning_rat = 0.5", "[config] learning_rat", "no such key"),
        (lambda t: t.replace("[config]\n", "[config]\nepochs = 7\n"),
         "epochs = 40", "[config] epochs", "repeats line 6"),
        (lambda t: t.replace("recoding = log\n", "recoding = log\nrole = g2\n"),
         "role = g2", "[preprocessing] role", "repeats line 3"),
        (lambda t: t.replace("std = ", "sd = "), "sd = ", "[standardize] sd", "no such key"),
        (lambda t: t.replace("[training_log]", "[log]"), "[log]", None,
         "'[log]' is not a model section"),
        (lambda t: t.replace("[training_log]", "[weights]"), "[weights]", None,
         "'[weights]' appears twice"),
        (lambda t: t.replace("hmdn-model v2\n", "hmdn-model v2\nstray\n"), "stray", None,
         "'stray' is outside any section"),
    ], ids=["unknown-key", "repeated-key", "repeated-preprocessing-key", "unknown-std-key",
            "unknown-section", "repeated-section", "outside-sections"])
    def test_unknown_or_repeated_key_or_section_names_path_and_line(self, tmp_path, edit, at,
                                                                    key, message):
        """``at`` starts the offending line: the last line that starts with it."""
        path = tmp_path / "model.txt"
        save_model(dataclasses.replace(self.train_tiny(), preprocessing=("g2", "log")), path)
        lines = edit(path.read_text()).splitlines(keepends=True)
        path.write_text("".join(lines))
        line = max(i for i, ln in enumerate(lines, start=1) if ln.startswith(at))
        err = raised(SchemaError, load_model, path)
        assert where(err) == (path, line, None, key) and err.message == message

    def test_non_utf8_model_names_path_and_line(self, tmp_path):
        path = tmp_path / "model.txt"
        save_model(self.train_tiny(), path)
        line = path.read_text().splitlines().index("[standardize]") + 1
        path.write_bytes(path.read_bytes().replace(b"[standardize]", b"[standardize\xff]"))
        err = raised(ParseError, load_model, path)
        assert where(err) == (path, line, None, None)
        assert err.message == "not UTF-8 text (invalid start byte)"

    def test_malformed_weights_name_path_and_line(self, tmp_path):
        path = tmp_path / "model.txt"
        save_model(self.train_tiny(), path)
        lines = path.read_text().splitlines()
        header = lines.index("[weights]") + 1  # "matrix 0 2 6"
        row = header + 1
        bad = tmp_path / "bad.txt"
        for edit, line_no in (
            (lambda ls: ls[: row + 1], header + 1),  # block cut after one of two rows
            (lambda ls: ls[:row] + [ls[row] + " 0.5"] + ls[row + 1 :], row + 1),
            (lambda ls: ls[:header] + ["matrix 0 2 x"] + ls[header + 1 :], header + 1),
            (lambda ls: ls[:row] + ["0.5 nan? 1 2 3 4"] + ls[row + 1 :], row + 1),
        ):
            bad.write_text("\n".join(edit(list(lines))) + "\n")
            assert where(raised(ParseError, load_model, bad)) == (bad, line_no, None, None)

    @pytest.mark.parametrize("header, error, message", [
        ("matrix 0 2 4611686018427387904", SchemaError,
         "expected matrix 0 2 6 for this config, got 'matrix 0 2 4611686018427387904'"),
        ("matrix 0 4611686018427387904 6", SchemaError,
         "expected matrix 0 2 6 for this config, got 'matrix 0 4611686018427387904 6'"),
        ("matrix 7 2 6", SchemaError,
         "expected matrix 0 2 6 for this config, got 'matrix 7 2 6'"),
        ("matrix 0 6 2", SchemaError, "expected matrix 0 2 6 for this config, got 'matrix 0 6 2'"),
        ("matrix x 2 6", ParseError,
         "expected 'matrix <index> <rows> <cols>', got 'matrix x 2 6'"),
    ], ids=["cols-numpy-refuses", "rows-numpy-refuses", "index", "transposed",
            "index-not-a-number"])
    def test_matrix_header_checked_against_the_config_before_allocating(self, tmp_path, header,
                                                                        error, message):
        """The first matrix header is checked against its position and the
        config's layer shapes before numpy is asked for the matrix. The sizes
        here are ones numpy refuses outright, so no run can commit memory."""
        path = tmp_path / "model.txt"
        save_model(self.train_tiny(), path)
        lines = path.read_text().splitlines()
        line = lines.index("[weights]") + 2
        lines[line - 1] = header
        path.write_text("\n".join(lines) + "\n")
        err = raised(error, load_model, path)
        assert where(err) == (path, line, None, None) and err.message == message

    def test_matrix_beyond_the_config_rejected(self, tmp_path):
        path = tmp_path / "model.txt"
        save_model(self.train_tiny(), path)
        lines = path.read_text().splitlines()
        line = lines.index("[training_log]") + 1
        lines[line - 1 : line - 1] = ["matrix 4 1 6", " ".join(["0.5"] * 6)]
        path.write_text("\n".join(lines) + "\n")
        err = raised(SchemaError, load_model, path)
        assert where(err) == (path, line, None, None)
        assert err.message == "expected the end of [weights] for this config, got 'matrix 4 1 6'"

    def config_keys(self, path) -> list:
        lines = path.read_text().splitlines()
        section = lines[lines.index("[config]") + 1 : lines.index("[standardize]")]
        return [ln.partition(" = ")[0] for ln in section]

    def test_config_section_holds_every_mdn_config_field(self, tmp_path):
        path = tmp_path / "model.txt"
        save_model(self.train_tiny(), path)
        fields = sorted(f.name for f in dataclasses.fields(MdnConfig))
        assert sorted(self.config_keys(path)) == fields

    def test_config_lines_in_documented_order(self, tmp_path):
        """ints, floats, strings, then hidden_layers, as in docs/formats.md and
        every model file written so far."""
        doc = (Path(__file__).resolve().parent.parent / "docs" / "formats.md").read_text()
        example = doc[doc.index("\nhmdn-model v2\n") :]
        documented = tmp_path / "documented.txt"
        documented.write_text(example[: example.index("```")])
        path = tmp_path / "model.txt"
        save_model(self.train_tiny(), path)
        assert self.config_keys(path) == self.config_keys(documented)

    @pytest.mark.parametrize("name", [f.name for f in dataclasses.fields(MdnConfig)])
    def test_missing_config_field_rejected(self, tmp_path, name):
        path, bad = tmp_path / "model.txt", tmp_path / "bad.txt"
        save_model(self.train_tiny(), path)
        lines = path.read_text().splitlines()
        kept = [ln for ln in lines if not ln.startswith(f"{name} = ")]
        assert len(kept) == len(lines) - 1
        bad.write_text("\n".join(kept) + "\n")
        err = raised(SchemaError, load_model, bad)
        assert where(err) == (bad, None, None, f"[config] {name}") and err.message == "missing"

    @pytest.mark.parametrize("value", ["0", "2147483648", "-3"])
    def test_config_value_outside_its_domain_names_line_and_key(self, tmp_path, value):
        path = tmp_path / "model.txt"
        save_model(self.train_tiny(), path)
        lines = path.read_text().splitlines()
        line = next(i for i, ln in enumerate(lines, start=1) if ln.startswith("epochs = "))
        lines[line - 1] = f"epochs = {value}"
        path.write_text("\n".join(lines) + "\n")
        err = raised(ParseError, load_model, path)
        assert where(err) == (path, line, None, "[config] epochs")
        assert err.message == f"{value} is not an integer in 1..2^31-1"

    def test_malformed_standardization_names_line_and_key(self, tmp_path):
        path = tmp_path / "model.txt"
        save_model(self.train_tiny(), path)
        lines = path.read_text().splitlines()
        line = next(i for i, ln in enumerate(lines, start=1) if ln.startswith("mean = "))
        lines[line - 1] = "mean = 0 x"
        path.write_text("\n".join(lines) + "\n")
        err = raised(ParseError, load_model, path)
        assert where(err) == (path, line, None, "[standardize] mean")
        assert str(err) == f"{path}:{line}: [standardize] mean: expected numbers, got '0 x'"

    def test_missing_standardization_rejected(self, tmp_path):
        path, bad = tmp_path / "model.txt", tmp_path / "bad.txt"
        save_model(self.train_tiny(), path)
        for name in ("mean", "std"):
            kept = [ln for ln in path.read_text().splitlines() if not ln.startswith(f"{name} = ")]
            bad.write_text("\n".join(kept) + "\n")
            err = raised(SchemaError, load_model, bad)
            assert where(err) == (bad, None, None, f"[standardize] {name}")

    def test_values_the_model_rejects_name_the_path(self, tmp_path):
        path, bad = tmp_path / "model.txt", tmp_path / "bad.txt"
        save_model(self.train_tiny(), path)
        lines = path.read_text().splitlines()
        header = lines.index("[weights]") + 1  # "matrix 0 2 6"
        std = next(i for i, ln in enumerate(lines) if ln.startswith("std = "))
        last_matrix = max(i for i, ln in enumerate(lines) if ln.startswith("matrix "))
        for edit, error in (
            (lambda ls: ls[: header + 1] + ["nan " + ls[header + 1].split(" ", 1)[1]] + ls[header + 2 :],
             ParseError),
            (lambda ls: ls[:std] + ["std = 0 1"] + ls[std + 1 :], ParseError),
            (lambda ls: ls[:last_matrix] + ls[last_matrix + 2 :], SchemaError),  # last bias dropped
        ):
            bad.write_text("\n".join(edit(list(lines))) + "\n")
            assert where(raised(error, load_model, bad)) == (bad, None, None, None)
