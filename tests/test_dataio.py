import math
import re

import numpy as np
import pytest

from hmdn import dataio
from hmdn.dataio import (
    ColumnSchema,
    NOT_DETECTED,
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

from util import load_outcome, reference_load_csv


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
        with pytest.raises(ParseError, match=r"row 2.*WAP003"):
            load_csv(path)

    def test_out_of_range_cell_rejected(self, tmp_path):
        path = tmp_path / "range.csv"
        path.write_text("WAP001,LONGITUDE,LATITUDE\n17,0,0\n")
        with pytest.raises(ParseError, match="row 1"):
            load_csv(path)

    @pytest.mark.parametrize("cell, column", [("nan", "LONGITUDE"), ("inf", "LATITUDE"),
                                              ("-inf", "LONGITUDE")])
    def test_non_finite_coordinate_names_path_row_and_column(self, tmp_path, cell, column):
        path = tmp_path / "coords.csv"
        x, y = (cell, "0") if column == "LONGITUDE" else ("0", cell)
        path.write_text(f"WAP001,LONGITUDE,LATITUDE\n-50,1,2\n-50,{x},{y}\n")
        with pytest.raises(ParseError) as err:
            load_csv(path)
        message = str(err.value)
        assert str(path) in message and "row 2" in message and repr(column) in message

    def test_missing_declared_column(self, fixture_csv):
        schema = ColumnSchema(wap_columns=("WAP001", "WAP009"))
        with pytest.raises(SchemaError, match="WAP009"):
            load_csv(fixture_csv, schema)

    def test_missing_coordinate_column(self, tmp_path):
        path = tmp_path / "nocoord.csv"
        path.write_text("WAP001,LONGITUDE\n-50,0\n")
        with pytest.raises(SchemaError, match="LATITUDE"):
            load_csv(path)

    def test_only_declared_waps_ingested(self, fixture_csv):
        schema = ColumnSchema(wap_columns=("WAP002", "WAP004"))
        table = load_csv(fixture_csv, schema)
        assert table.n_waps == 2
        # undeclared WAP columns ride along as metadata
        assert "WAP001" in table.metadata


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

    @pytest.mark.parametrize("text, schema", [
        (FIXTURE, None),
        (wide_csv(), None),
        (CRLF, None),
        (QUOTED, None),
        (UNDERSCORED, None),
        (FIXTURE, ColumnSchema(wap_columns=("WAP004", "WAP002"))),
    ], ids=["fixture", "520-waps", "crlf", "quoted-metadata", "underscored-numbers",
            "undeclared-wap-column"])
    def test_bit_identical_to_reference(self, tmp_path, text, schema):
        path = tmp_path / "data.csv"
        path.write_bytes(text.encode("utf-8"))
        expected = load_outcome(reference_load_csv, path, schema)
        assert isinstance(expected[0], tuple)  # the reference reads the file
        assert load_outcome(load_csv, path, schema) == expected
        table = load_csv(path, schema)
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
        with pytest.raises(ParseError) as err:
            load_csv(path)
        message = str(err.value)
        assert message.startswith(f"{path}: ") and "row 2" in message and repr(column) in message

    def test_lux_checked_after_coordinates_in_header_order(self, tmp_path):
        path = self.write(tmp_path, "LUXN_b,WAP001,LUX_a,LONGITUDE,LATITUDE\n"
                          "nan,-50,nan,1,nan\n")
        with pytest.raises(ParseError, match="'LATITUDE'"):
            load_csv(path)
        path.write_text("LUXN_b,WAP001,LUX_a,LONGITUDE,LATITUDE\nnan,-50,nan,1,2\n")
        with pytest.raises(ParseError, match="'LUXN_b'"):
            load_csv(path)

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
        with pytest.raises(SchemaError, match=rf"^{re.escape(str(path))}: .*{column!r}"):
            load_csv(path)

    def test_non_utf8_names_path_and_line(self, tmp_path):
        path = tmp_path / "latin1.csv"
        path.write_bytes(FIXTURE.replace("second", "séc").encode("latin-1"))
        with pytest.raises(ParseError, match=rf"^{re.escape(str(path))}: line 3: not UTF-8"):
            load_csv(path)


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
            zero_point = table.schema.rssi_min - 1.0
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
                    schema=table.schema,
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
            with pytest.raises(ParseError, match=rf"{re.escape(str(bad))}, line {line_no}:"):
                load_model(bad)

    def test_missing_standardization_rejected(self, tmp_path):
        path, bad = tmp_path / "model.txt", tmp_path / "bad.txt"
        save_model(self.train_tiny(), path)
        for name in ("mean", "std"):
            kept = [ln for ln in path.read_text().splitlines() if not ln.startswith(f"{name} = ")]
            bad.write_text("\n".join(kept) + "\n")
            with pytest.raises(SchemaError, match=f"'{name}'"):
                load_model(bad)

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
            with pytest.raises(error, match=rf"^{re.escape(str(bad))}: "):
                load_model(bad)
