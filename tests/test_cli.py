import ast
import csv
import dataclasses
import hashlib
import inspect
import json
import re
import textwrap
import warnings
from pathlib import Path

import numpy as np
import pytest

from hmdn import cli, dataio, evaluate, pipeline, scenario
from hmdn.errors import SchemaError
from hmdn.mdn import nll
from hmdn.pipeline import parse_predictions

from util import make_dump_records, raised, run_capped, run_cut


def run(*argv):
    return cli.main([str(a) for a in argv])


def one_error_line(capsys, *fragments) -> str:
    """The stderr of the last run: one ``error:`` line holding every fragment."""
    err = capsys.readouterr().err
    assert err.startswith("error: ") and err.count("\n") == 1, err
    assert "Traceback" not in err
    assert all(f in err for f in fragments), err
    return err


def file_hashes(root: Path) -> dict:
    return {
        p.relative_to(root).as_posix(): hashlib.sha256(p.read_bytes()).hexdigest()
        for p in sorted(root.rglob("*"))
        if p.is_file()
    }


def without_lux(source: Path, dest: Path) -> Path:
    """A copy of a fingerprint CSV without its LUX_* columns."""
    rows = [line.split(",") for line in source.read_text().splitlines()]
    keep = [i for i, name in enumerate(rows[0]) if not name.startswith("LUX_")]
    dest.write_text("".join(",".join(row[i] for i in keep) + "\n" for row in rows))
    return dest


@pytest.fixture(scope="module")
def workspace(tmp_path_factory):
    """One small simulate + train g1 + train g2 run shared by the module."""
    root = tmp_path_factory.mktemp("cli")
    assert run("simulate", "--out-dir", root, "--n-train", 80, "--n-test", 10, "--seed", 5) == 0
    common = ["--data", root / "train.csv", "--seed", 5, "--hidden", "16", "--epochs", 60]
    assert run("train", "--which", "g1", "--model-out", root / "g1.model", *common) == 0
    assert run("train", "--which", "g2", "--model-out", root / "g2.model", *common) == 0
    return root


class TestSimulate:
    def test_writes_requested_counts(self, workspace):
        train = (workspace / "train.csv").read_text().splitlines()
        test = (workspace / "test.csv").read_text().splitlines()
        assert len(train) == 1 + 80
        assert len(test) == 1 + 10

    def test_default_point_count_is_100(self, tmp_path):
        assert run("simulate", "--out-dir", tmp_path, "--n-test", 5, "--seed", 1) == 0
        assert len((tmp_path / "train.csv").read_text().splitlines()) == 1 + 100

    def test_zero_points_rejected(self, tmp_path):
        assert run("simulate", "--out-dir", tmp_path, "--n-train", 0, "--seed", 1) == 2

    def test_same_seed_byte_identical(self, tmp_path):
        a, b = tmp_path / "a", tmp_path / "b"
        for out in (a, b):
            assert run("simulate", "--out-dir", out, "--n-train", 30, "--n-test", 5, "--seed", 9) == 0
        assert file_hashes(a) == file_hashes(b)

    def test_augment_real_csv(self, tmp_path):
        # lux-less fingerprint file in projected units, as a real export would be
        src = tmp_path / "real.csv"
        rows = ["WAP001,WAP002,WAP003,LONGITUDE,LATITUDE,FLOOR"]
        rng = np.random.RandomState(3)
        for i in range(20):
            rssi = ",".join(str(v) for v in (-40 - rng.randint(0, 60, size=3)))
            rows.append(f"{rssi},{-7690 + 380 * rng.rand():.4f},{4864750 + 260 * rng.rand():.4f},2")
        src.write_text("\n".join(rows) + "\n")

        out = tmp_path / "aug"
        assert run("simulate", "--augment", src, "--out-dir", out, "--seed", 6,
                   "--train-fraction", 0.75) == 0
        train = dataio.load_csv(out / "train.csv")
        test = dataio.load_csv(out / "test.csv")
        assert train.n_records == 15 and test.n_records == 5
        for t in (train, test):
            # mapped coordinates fall inside the room; originals preserved
            assert np.all(t.coords[:, 0] >= 0) and np.all(t.coords[:, 0] <= 17.0)
            assert np.all(t.coords[:, 1] >= 0) and np.all(t.coords[:, 1] <= 10.0)
            assert "ORIG_LONGITUDE" in t.metadata and "FLOOR" in t.metadata
            lux = t.metadata_floats("LUX_sunny")
            assert np.all(lux >= 200.0)  # at least the sunny ambient floor

        # deterministic rerun
        out2 = tmp_path / "aug2"
        assert run("simulate", "--augment", src, "--out-dir", out2, "--seed", 6,
                   "--train-fraction", 0.75) == 0
        assert (out / "train.csv").read_bytes() == (out2 / "train.csv").read_bytes()

    @pytest.mark.parametrize("source, message", [
        (None, "error: [Errno 2] No such file or directory: '{src}'"),
        ("WAP001,LONGITUDE\n-50,1\n", "error: {src}:1: missing column 'LATITUDE'"),
    ], ids=["missing", "no-latitude"])
    def test_bad_augment_csv_exits_3_before_creating_out_dir(self, tmp_path, capsys, source,
                                                             message):
        src = tmp_path / "real.csv"
        if source is not None:
            src.write_text(source)
        out = tmp_path / "aug"
        assert run("simulate", "--augment", src, "--out-dir", out) == 3
        assert one_error_line(capsys) == message.format(src=src) + "\n"
        assert not out.exists()

    def test_augment_span_beyond_the_float_range_names_csv_and_column(self, tmp_path, capsys):
        src = tmp_path / "real.csv"
        src.write_text("WAP001,LONGITUDE,LATITUDE\n-50,1e308,1\n-60,-1e308,2\n-70,0,3\n")
        out = tmp_path / "aug"
        with warnings.catch_warnings():
            warnings.simplefilter("error")  # no overflow RuntimeWarning either
            assert run("simulate", "--augment", src, "--out-dir", out) == 3
        expected = (f"error: {src}: LONGITUDE: spans -1e+308 to 1e+308, a range "
                    "no float can hold; cannot map it into the room\n")
        assert one_error_line(capsys) == expected
        assert not out.exists()

    def test_measurement_noise_columns(self, tmp_path):
        assert (
            run(
                "simulate", "--out-dir", tmp_path, "--n-train", 10, "--n-test", 2,
                "--seed", 1, "--measurement-noise",
            )
            == 0
        )
        header = (tmp_path / "train.csv").read_text().splitlines()[0]
        assert "LUXN_sunny" in header and "LUX_sunny" in header


class TestTrain:
    def test_model_reloads_and_reproduces_final_nll(self, workspace):
        model = dataio.load_model(workspace / "g1.model")
        table = dataio.load_csv(workspace / "train.csv")
        X = dataio.normalize_rssi(table, "zero_one").features
        recomputed = nll(model, (X, table.coords))
        assert recomputed == pytest.approx(model.training_log[-1], rel=1e-12)

    def test_log_has_exactly_epochs_rows(self, workspace):
        lines = (workspace / "g1.model.log.csv").read_text().splitlines()
        assert lines[0] == "epoch,nll"
        assert len(lines) == 1 + 60

    @pytest.mark.parametrize("which, recoding", [("g1", "zero_one"), ("g2", "log")])
    def test_model_records_role_and_recoding_and_reloads_byte_identical(self, workspace,
                                                                        tmp_path, which,
                                                                        recoding):
        path = workspace / f"{which}.model"
        assert path.read_text().splitlines()[:4] == [
            "hmdn-model v2", "[preprocessing]", f"role = {which}", f"recoding = {recoding}",
        ]
        dataio.save_model(dataio.load_model(path), tmp_path / "again.model")
        assert (tmp_path / "again.model").read_bytes() == path.read_bytes()

    @pytest.mark.parametrize("flag", ["--model-out", "--log-out"])
    def test_unusable_output_path_fails_before_training(self, workspace, tmp_path, capsys,
                                                        monkeypatch, flag):
        def no_training(*_args, **_kwargs):
            raise AssertionError("trained before the output paths were made")

        monkeypatch.setattr(cli.mdn, "train", no_training)
        blocker = tmp_path / "taken"
        blocker.write_text("not a directory\n")
        paths = {"--model-out": tmp_path / "g1.model", "--log-out": tmp_path / "g1.log.csv"}
        paths[flag] = blocker / "sub" / "out"
        code = run("train", "--which", "g1", "--data", workspace / "train.csv", "--epochs", 1,
                   *[a for f, path in paths.items() for a in (f, path)])
        assert code == 3
        one_error_line(capsys, "taken")
        assert not (tmp_path / "g1.model").exists()

    @pytest.mark.parametrize("flag", ["--model-out", "--log-out"])
    def test_directory_output_path_fails_before_reading_data(self, workspace, tmp_path, capsys,
                                                             monkeypatch, flag):
        """At the default 2,000 epochs: exit 3 naming the directory before the
        CSV is read, and neither the model nor its log written."""
        def no_reading(*_args, **_kwargs):
            raise AssertionError("read the training data before checking the output paths")

        monkeypatch.setattr(cli.dataio, "load_csv", no_reading)
        taken = tmp_path / "taken"
        taken.mkdir()
        paths = {"--model-out": tmp_path / "g1.model"}
        paths[flag] = taken
        code = run("train", "--which", "g1", "--data", workspace / "train.csv",
                   *[a for f, path in paths.items() for a in (f, path)])
        assert code == 3
        assert one_error_line(capsys) == f"error: {taken}: output path is a directory\n"
        assert [p.name for p in tmp_path.iterdir()] == ["taken"]
        assert list(taken.iterdir()) == []

    def test_diverging_training_exits_numeric(self, workspace, tmp_path):
        code = run(
            "train", "--which", "g1", "--data", workspace / "train.csv",
            "--model-out", tmp_path / "m", "--optimizer", "sgd",
            "--learning-rate", 1e200, "--epochs", 3, "--seed", 1,
        )
        assert code == 4

    def test_bad_which_rejected(self, workspace, tmp_path):
        assert run("train", "--which", "g3", "--data", workspace / "train.csv",
                   "--model-out", tmp_path / "m") == 2

    @pytest.mark.parametrize("column, message", [
        ("NOTE", "data row 2: 'bright' is not a finite number"),
        ("NOPE", "no such column"),
        ("GAIN", "data row 2: 'inf' is not a finite number"),
    ], ids=["NOTE-fragments0", "NOPE-fragments1", "GAIN-fragments2"])
    def test_lux_column_errors_name_the_file(self, tmp_path, capsys, column, message):
        data = tmp_path / "train.csv"
        data.write_text("WAP001,LONGITUDE,LATITUDE,LUX_sunny,NOTE,GAIN\n"
                        "-50,1,2,300,4.5,2\n-60,2,3,310,bright,inf\n")
        code = run("train", "--which", "g2", "--data", data, "--model-out", tmp_path / "m",
                   "--lux-columns", column, "--epochs", 1)
        assert code == 3
        assert one_error_line(capsys) == f"error: {data}: {column}: {message}\n"
        assert not (tmp_path / "m").exists()

    @pytest.mark.parametrize("columns", [",", " , ,", ""], ids=["comma", "blanks", "empty"])
    def test_empty_lux_column_list_is_a_usage_error(self, workspace, tmp_path, capsys,
                                                    columns):
        code = run("train", "--which", "g2", "--data", workspace / "train.csv",
                   "--model-out", tmp_path / "m", f"--lux-columns={columns}", "--epochs", 1)
        assert code == 2
        assert one_error_line(capsys) == "error: --lux-columns must name at least one column\n"
        assert not (tmp_path / "m").exists()

    @pytest.mark.parametrize("hidden", ["a,b", "16,0", "-4", "1.5", ",", " ", "16,", "16,,8",
                                        "16, 8"])
    def test_bad_hidden_widths_name_the_flag(self, workspace, tmp_path, capsys, hidden):
        code = run("train", "--which", "g1", "--data", workspace / "train.csv",
                   "--model-out", tmp_path / "m", f"--hidden={hidden}", "--epochs", 1)
        assert code == 2
        last = capsys.readouterr().err.splitlines()[-1]
        assert "argument --hidden: invalid" in last and repr(hidden) in last, last
        assert not (tmp_path / "m").exists()


class TestPredict:
    def test_dump_and_plots(self, workspace, tmp_path):
        out = tmp_path / "pred"
        code = run(
            "predict", "--g1", workspace / "g1.model", "--g2", workspace / "g2.model",
            "--data", workspace / "test.csv", "--out-dir", out,
            "--m", 40, "--n", 10, "--seed", 3,
        )
        assert code == 0
        records = parse_predictions(out / "predictions.txt")
        # default selector: first three records, every condition
        assert sorted({r.record_id for r in records}) == [0, 1, 2]
        assert {r.condition for r in records} == {"sunny", "cloudy", "night_lights"}
        for r in records:
            assert r.baseline_samples.shape == (40, 2)
            assert r.hmdn.candidates.shape == (40, 2)
            assert r.hmdn.selected_indices.shape == (10,)

    def test_plot_mark_count_is_m_plus_n_plus_one(self, workspace, tmp_path):
        out = tmp_path / "pred"
        assert run(
            "predict", "--g1", workspace / "g1.model", "--g2", workspace / "g2.model",
            "--data", workspace / "test.csv", "--out-dir", out,
            "--records", "0", "--conditions", "sunny", "--m", 25, "--n", 5, "--seed", 3,
        ) == 0
        svgs = list(out.glob("*.svg"))
        assert len(svgs) == 1
        content = svgs[0].read_text()
        assert content.count("<circle") == 25 + 5 + 1
        assert content.count("<path") == 2  # the two estimate crosses

    def test_default_m_n_in_dump_header(self, workspace, tmp_path):
        out = tmp_path / "pred"
        assert run(
            "predict", "--g1", workspace / "g1.model", "--g2", workspace / "g2.model",
            "--data", workspace / "test.csv", "--out-dir", out,
            "--records", "0", "--conditions", "sunny", "--seed", 3, "--no-plots",
        ) == 0
        meta = {}
        records = parse_predictions(out / "predictions.txt", header=meta)
        assert meta["m"] == "100" and meta["n"] == "20" and len(records) == 1
        assert not list(out.glob("*.svg"))

    def test_dump_selected_block_descending(self, workspace, tmp_path):
        out = tmp_path / "pred"
        assert run(
            "predict", "--g1", workspace / "g1.model", "--g2", workspace / "g2.model",
            "--data", workspace / "test.csv", "--out-dir", out,
            "--records", "0,1", "--m", 30, "--n", 6, "--seed", 3, "--no-plots",
        ) == 0
        for r in parse_predictions(out / "predictions.txt"):
            sel = r.hmdn.scores[r.hmdn.selected_indices]
            assert all(a >= b for a, b in zip(sel, sel[1:]))

    def test_missing_model_names_train_command(self, workspace, tmp_path, capsys):
        code = run(
            "predict", "--g1", tmp_path / "nope.model", "--g2", workspace / "g2.model",
            "--data", workspace / "test.csv", "--out-dir", tmp_path,
        )
        assert code == 3
        assert "hmdn train --which g1" in capsys.readouterr().err

    @pytest.mark.parametrize("flag", ["--records", "--conditions"])
    @pytest.mark.parametrize("selection", [",", " , ,", ""], ids=["comma", "blanks", "empty"])
    def test_empty_selection_is_a_usage_error(self, workspace, tmp_path, capsys, flag,
                                              selection):
        code = run(
            "predict", "--g1", workspace / "g1.model", "--g2", workspace / "g2.model",
            "--data", workspace / "test.csv", "--out-dir", tmp_path / "pred", "--no-plots",
            f"{flag}={selection}",
        )
        assert code == 2
        assert one_error_line(capsys) == f"error: {flag} must name at least one {flag[2:-1]}\n"
        assert not (tmp_path / "pred" / "predictions.txt").exists()

    def test_condition_not_in_dataset_names_the_file(self, workspace, tmp_path, capsys):
        data = workspace / "test.csv"
        code = run("predict", "--g1", workspace / "g1.model", "--g2", workspace / "g2.model",
                   "--data", data, "--out-dir", tmp_path / "pred", "--conditions", "sunny,foggy")
        assert code == 2
        expected = (f"error: {data}: no LUX_foggy column for condition 'foggy' "
                    "(has ['cloudy', 'night_lights', 'sunny'])\n")
        assert one_error_line(capsys) == expected
        assert not (tmp_path / "pred" / "predictions.txt").exists()

    def test_malformed_scene_fails_before_predicting(self, workspace, tmp_path, capsys):
        scene = tmp_path / "scene.json"
        scene.write_text('{"room": ')
        out = tmp_path / "pred"
        code = run("predict", "--g1", workspace / "g1.model", "--g2", workspace / "g2.model",
                   "--data", workspace / "test.csv", "--out-dir", out, "--scene", scene)
        assert code == 3
        captured = capsys.readouterr()
        assert captured.out == "" and captured.err == f"error: {scene}:1:10: Expecting value\n"
        assert not out.exists()

    def test_record_out_of_range(self, workspace, tmp_path):
        assert run(
            "predict", "--g1", workspace / "g1.model", "--g2", workspace / "g2.model",
            "--data", workspace / "test.csv", "--out-dir", tmp_path, "--records", "99",
        ) == 2

    def test_repeated_record_index_exits_usage(self, workspace, tmp_path, capsys):
        """A repeated index would write its block twice, and a re-evaluation
        of the dump would count the record twice."""
        out = tmp_path / "pred"
        assert run(
            "predict", "--g1", workspace / "g1.model", "--g2", workspace / "g2.model",
            "--data", workspace / "test.csv", "--out-dir", out, "--records", "1,0,2,0",
        ) == 2
        assert one_error_line(capsys) == "error: record index 0 is given more than once\n"
        assert not out.exists()

    def test_record_indices_in_ascii_decimal_only(self, workspace, tmp_path, capsys):
        """``int`` reads '1_0', '٢' and '+1' as 10, 2 and 1; an index is
        read as every other integer is."""
        out = tmp_path / "pred"
        assert run(
            "predict", "--g1", workspace / "g1.model", "--g2", workspace / "g2.model",
            "--data", workspace / "test.csv", "--out-dir", out, "--records", "1_0, ٢ ,+1",
        ) == 2
        assert one_error_line(capsys) == ("error: --records must be 'all' or comma-separated "
                                          "indices, got '1_0, ٢ ,+1'\n")
        assert not out.exists()


@pytest.mark.parametrize("command", ["predict", "evaluate"])
def test_n_above_m_exits_2_before_reading_a_file(tmp_path, capsys, command):
    out = tmp_path / "out"
    code = run(command, "--g1", tmp_path / "no-g1.model", "--g2", tmp_path / "no-g2.model",
               "--data", tmp_path / "no.csv", "--out-dir", out, "--n", 9, "--m", 5)
    assert code == 2
    expected = ("error: --n 9 exceeds --m 5: the selection is taken from the "
                "candidates\n")
    assert one_error_line(capsys) == expected
    assert not out.exists()


@pytest.mark.parametrize("command, flag", [
    ("predict", "--m"), ("evaluate", "--m"), ("evaluate", "--bootstrap"),
    ("simulate", "--n-train"), ("simulate", "--n-test"),
])
def test_count_numpy_cannot_size_exits_2_naming_the_flag(tmp_path, capsys, command, flag):
    """2^62 is an integer, but no array of that many rows can be sized: the
    flag is rejected before any file is read (the inputs named here do not
    exist) or any directory made."""
    out = tmp_path / "out"
    inputs = ["--g1", tmp_path / "no-g1.model", "--g2", tmp_path / "no-g2.model",
              "--data", tmp_path / "no.csv"]
    code = run(command, *(inputs if command != "simulate" else []), "--out-dir", out,
               flag, 2**62)
    assert code == 2
    *usage, last = capsys.readouterr().err.splitlines()
    assert last == f"hmdn {command}: error: argument {flag}: invalid positive_int value: '{2**62}'"
    assert all("error" not in line for line in usage)
    assert not out.exists()


@pytest.mark.parametrize("command, flag, value, domain", [
    ("predict", "--m", "1_0", "positive_int"), ("evaluate", "--bootstrap", " 7 ", "positive_int"),
    ("simulate", "--n-train", "\u0664", "positive_int"), ("simulate", "--seed", "1_0", "seed64"),
    ("predict", "--seed", "+5", "seed64"),
])
def test_integer_flag_takes_ascii_decimal_only(tmp_path, capsys, command, flag, value, domain):
    """``int`` reads each of these texts as a number; a flag takes only the
    ASCII decimal digits the writers write, and exits 2 naming itself."""
    out = tmp_path / "out"
    inputs = ["--g1", tmp_path / "no-g1.model", "--g2", tmp_path / "no-g2.model",
              "--data", tmp_path / "no.csv"]
    code = run(command, *(inputs if command != "simulate" else []), "--out-dir", out,
               f"{flag}={value}")
    assert code == 2
    last = capsys.readouterr().err.splitlines()[-1]
    assert last == f"hmdn {command}: error: argument {flag}: invalid {domain} value: {value!r}"
    assert not out.exists()


class TestEvaluate:
    def test_metrics_shape_and_recompute_agreement(self, workspace, tmp_path):
        out = tmp_path / "eval"
        assert run(
            "evaluate", "--g1", workspace / "g1.model", "--g2", workspace / "g2.model",
            "--data", workspace / "test.csv", "--out-dir", out,
            "--m", 30, "--n", 6, "--seed", 7, "--bootstrap", 400,
        ) == 0
        csv_lines = (out / "metrics.csv").read_text().splitlines()
        assert len(csv_lines) == 1 + 3 * 2  # conditions x methods

        # the independent path: predict --records all, then recompute from the dump
        pred_out = tmp_path / "pred"
        assert run(
            "predict", "--g1", workspace / "g1.model", "--g2", workspace / "g2.model",
            "--data", workspace / "test.csv", "--out-dir", pred_out,
            "--records", "all", "--m", 30, "--n", 6, "--seed", 7, "--no-plots",
        ) == 0
        live = {}
        for line in csv_lines[1:]:
            cond, method, _, mean_e, med_e, imp, lo, hi = line.split(",")
            live[(cond, method)] = (mean_e, med_e, imp, lo, hi)
        redone = evaluate.metrics_from_dump(pred_out / "predictions.txt", n_resamples=400)
        for m in redone:
            b = live[(m.condition, "baseline")]
            h = live[(m.condition, "hmdn")]
            assert float(b[0]) == pytest.approx(m.baseline_mean, abs=1e-9)
            assert float(b[1]) == pytest.approx(m.baseline_median, abs=1e-9)
            assert float(h[0]) == pytest.approx(m.hmdn_mean, abs=1e-9)
            assert float(h[1]) == pytest.approx(m.hmdn_median, abs=1e-9)
            assert float(h[2]) == pytest.approx(m.improvement_pct, abs=1e-9)
            assert float(h[3]) == pytest.approx(m.ci_low, abs=1e-9)
            assert float(h[4]) == pytest.approx(m.ci_high, abs=1e-9)

    def test_from_dump_writes_metrics(self, workspace, tmp_path):
        pred_out = tmp_path / "pred"
        assert run(
            "predict", "--g1", workspace / "g1.model", "--g2", workspace / "g2.model",
            "--data", workspace / "test.csv", "--out-dir", pred_out,
            "--records", "all", "--m", 20, "--n", 4, "--seed", 2, "--no-plots",
        ) == 0
        out = tmp_path / "eval"
        assert run(
            "evaluate", "--from-dump", pred_out / "predictions.txt",
            "--out-dir", out, "--bootstrap", 200,
        ) == 0
        assert (out / "metrics.txt").exists()
        assert (out / "metrics.csv").exists()

    def test_requires_inputs(self, tmp_path, capsys):
        out = tmp_path / "eval"
        assert run("evaluate", "--out-dir", out) == 2
        assert one_error_line(capsys) == "error: --g1 is required\n"
        assert not out.exists()

    @pytest.fixture()
    def dump(self, tmp_path):
        path = tmp_path / "predictions.txt"
        pipeline.write_predictions(path, make_dump_records(2, 2, m=4, n=2), 3, m=4, n=2)
        return path

    @pytest.mark.parametrize("flag, value", [
        ("--g1", "g1.model"), ("--g2", "g2.model"), ("--data", "test.csv"),
        ("--conditions", "sunny"), ("--m", 40), ("--n", 5), ("--seed", 3),
    ])
    def test_from_dump_rejects_live_options(self, dump, tmp_path, capsys, flag, value):
        out = tmp_path / "eval"
        assert run("evaluate", "--from-dump", dump, "--out-dir", out, flag, value) == 2
        expected = (f"error: {flag} does not apply to --from-dump, which reads "
                    "the predictions and master seed from the dump\n")
        assert one_error_line(capsys) == expected
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps({flag[2:].replace("-", "_"): value}))
        assert run("evaluate", "--from-dump", dump, "--out-dir", out, "--config", cfg) == 2
        expected = (f"error: {flag} does not apply to --from-dump, which reads "
                    "the predictions and master seed from the dump\n")
        assert one_error_line(capsys) == expected
        assert not out.exists()

    def test_from_dump_accepts_live_options_at_their_defaults(self, dump, tmp_path):
        out = tmp_path / "eval"
        assert run("evaluate", "--from-dump", dump, "--out-dir", out, "--bootstrap", 20,
                   "--conditions", "all", "--m", 100, "--n", 20, "--seed", 0) == 0
        assert len((out / "metrics.csv").read_text().splitlines()) == 1 + 2 * 2

    def test_empty_condition_list_is_a_usage_error(self, workspace, tmp_path, capsys):
        code = run(
            "evaluate", "--g1", workspace / "g1.model", "--g2", workspace / "g2.model",
            "--data", workspace / "test.csv", "--out-dir", tmp_path / "eval",
            "--conditions", ",", "--m", 5, "--n", 2, "--bootstrap", 10,
        )
        assert code == 2
        assert one_error_line(capsys) == "error: --conditions must name at least one condition\n"
        assert not (tmp_path / "eval" / "metrics.csv").exists()


class TestRecordedPreprocessing:
    """predict and evaluate apply the role and recoding each model file
    records, and take no option that could disagree with them."""

    @pytest.fixture(scope="class")
    def recoded(self, workspace, tmp_path_factory):
        """g1 on powed features and g2 on raw lux, trained as the workspace's."""
        root = tmp_path_factory.mktemp("recoded")
        common = ["--data", workspace / "train.csv", "--seed", 5, "--hidden", "16", "--epochs", 60]
        assert run("train", "--which", "g1", "--normalize", "powed",
                   "--model-out", root / "g1.model", *common) == 0
        assert run("train", "--which", "g2", "--lux-transform", "identity",
                   "--model-out", root / "g2.model", *common) == 0
        return root

    def test_evaluate_applies_the_recorded_recodings(self, workspace, recoded, tmp_path):
        out = tmp_path / "eval"
        assert run("evaluate", "--g1", recoded / "g1.model", "--g2", recoded / "g2.model",
                   "--data", workspace / "test.csv", "--out-dir", out,
                   "--m", 30, "--n", 6, "--seed", 7, "--bootstrap", 200) == 0

        table = dataio.load_csv(workspace / "test.csv")
        g1, g2 = (dataio.load_model(recoded / f"{g}.model") for g in ("g1", "g2"))
        assert (g1.preprocessing, g2.preprocessing) == (("g1", "powed"), ("g2", "identity"))
        features = dataio.normalize_rssi(table, "powed").features
        lux = {c[len("LUX_"):]: table.metadata_floats(c) for c in table.metadata
               if c.startswith("LUX_")}
        pipe = pipeline.HmdnPipeline(g1=g1, g2=g2, n_candidates=30, n_selected=6)
        records = pipeline.run_predictions(pipe, features, table.coords, lux,
                                           range(table.n_records), 7)
        expected = tmp_path / "expected.csv"
        evaluate.write_metrics_csv(evaluate.compute_metrics(records, 7, 200), expected)
        assert (out / "metrics.csv").read_bytes() == expected.read_bytes()

    def prediction_argv(self, command, g1, g2, workspace, out):
        return [command, "--g1", g1, "--g2", g2, "--data", workspace / "test.csv",
                "--out-dir", out, "--m", 5, "--n", 2,
                *(["--no-plots"] if command == "predict" else ["--bootstrap", 10])]

    @pytest.mark.parametrize("command", ["predict", "evaluate"])
    @pytest.mark.parametrize("flag, value", [("--normalize", "powed"),
                                             ("--lux-transform", "identity")])
    def test_prediction_commands_take_no_recoding_option(self, workspace, tmp_path, capsys,
                                                         flag, value, command):
        out = tmp_path / "out"
        argv = self.prediction_argv(command, workspace / "g1.model", workspace / "g2.model",
                                    workspace, out)
        assert run(*argv, flag, value) == 2
        assert f"unrecognized arguments: {flag} {value}" in capsys.readouterr().err
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps({flag[2:].replace("-", "_"): value}))
        assert run(*argv, "--config", cfg) == 2
        key = flag[2:].replace("-", "_")
        assert one_error_line(capsys) == f"error: {cfg}: {key}: unknown option\n"
        assert not out.exists()

    @pytest.mark.parametrize("command", ["predict", "evaluate"])
    @pytest.mark.parametrize("flag, given", [("--g1", "g2"), ("--g2", "g1")])
    def test_swapped_models_name_file_flag_and_roles(self, workspace, tmp_path, capsys,
                                                     flag, given, command):
        models = {"--g1": workspace / "g1.model", "--g2": workspace / "g2.model"}
        models[flag] = workspace / f"{given}.model"
        out = tmp_path / "out"
        assert run(*self.prediction_argv(command, *models.values(), workspace, out)) == 3
        expected = (f"error: {models[flag]}: {flag} takes a {flag[2:]} model, "
                    f"this is a {given} model\n")
        assert one_error_line(capsys) == expected
        assert not out.exists()

    @pytest.mark.parametrize("kind, message", [
        ("v1", ":1: expected header 'hmdn-model v2'; a v1 model records no role or recoding, "
               "so retrain it with `hmdn train`"),
        ("library", ": --g1 takes a g1 model, this is a model built by the library with no "
                    "recorded role; retrain it with `hmdn train --which g1 --data <train.csv> "
                    "--model-out {bad}`"),
    ], ids=["v1", "library"])
    def test_model_without_a_role_says_retrain(self, workspace, tmp_path, capsys, kind,
                                               message):
        bad = tmp_path / "g1.model"
        if kind == "v1":
            lines = (workspace / "g1.model").read_text().splitlines(keepends=True)
            bad.write_text("hmdn-model v1\n" + "".join(lines[4:]))
        else:
            model = dataio.load_model(workspace / "g1.model")
            dataio.save_model(dataclasses.replace(model, preprocessing=()), bad)
        out = tmp_path / "out"
        argv = self.prediction_argv("evaluate", bad, workspace / "g2.model", workspace, out)
        assert run(*argv) == 3
        assert one_error_line(capsys) == f"error: {bad}{message.format(bad=bad)}\n"
        assert not out.exists()


class TestConfigFile:
    def test_file_values_and_flag_override(self, tmp_path):
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps({"n_train": 12, "n_test": 3, "seed": 4}))
        out = tmp_path / "out"
        assert run("simulate", "--config", cfg, "--out-dir", out, "--n-test", 5) == 0
        assert len((out / "train.csv").read_text().splitlines()) == 1 + 12
        assert len((out / "test.csv").read_text().splitlines()) == 1 + 5  # flag wins

    def test_unknown_key_rejected(self, tmp_path):
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps({"bogus": 1}))
        assert run("simulate", "--config", cfg, "--out-dir", tmp_path) == 2


class TestConfigValues:
    """A config value is read as its flag reads the same text; anything else
    is a usage error naming the file and the key."""

    def run_config(self, tmp_path, command, doc, *flags):
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps(doc))
        return cfg, run(command, "--config", cfg, *flags)

    BAD_VALUES = [
        ("predict", {"no_plots": "false"}, 'expected true or false, got "false"'),
        ("simulate", {"measurement_noise": "no"}, 'expected true or false, got "no"'),
        ("predict", {"m": 10.9}, "invalid positive_int value: '10.9'"),
        ("train", {"epochs": 2.9}, "invalid positive_int value: '2.9'"),
        ("train", {"epochs": None}, "expected a string or a number, got null"),
        ("simulate", {"seed": [1]}, "expected a string or a number, got [1]"),
        ("evaluate", {"m": 10.0}, "invalid positive_int value: '10.0'"),
        ("simulate", {"seed": " 4 "}, "invalid seed64 value: ' 4 '"),
        ("train", {"components": None}, "expected a string or a number, got null"),
        ("train", {"which": "g3"}, "invalid choice: 'g3' (choose from 'g1', 'g2')"),
        ("simulate", {"n_train": True}, "expected a string or a number, got true"),
        ("train", {"hidden": {"width": 16}}, 'expected a string or a number, got {"width": 16}'),
        ("train", {"hidden": "a"}, "invalid widths value: 'a'"),
        ("train", {"hidden": "16,0"}, "invalid widths value: '16,0'"),
        ("train", {"hidden": 1.5}, "invalid widths value: '1.5'"),
        ("train", {"learning_rate": " 1e-3"}, "invalid positive_float value: ' 1e-3'"),
        ("train", {"sigma_floor": "1_0"}, "invalid positive_float value: '1_0'"),
        ("simulate", {"train_fraction": "0.5\t"}, "invalid unit_fraction value: '0.5\\t'"),
        ("simulate", {"train_fraction": "٠.5"}, "invalid unit_fraction value: '٠.5'"),
        ("simulate", {"out_dir": "a\u0000b"}, "invalid text value: 'a\\x00b'"),
        ("predict", {"data": "test\u0000.csv"}, "invalid text value: 'test\\x00.csv'"),
    ]

    @pytest.mark.parametrize("command, doc, message", BAD_VALUES,
                             ids=[f"{c}-doc{i}" for i, (c, _, _) in enumerate(BAD_VALUES)])
    def test_bad_value_exits_2_naming_file_and_key(self, tmp_path, capsys, command, doc,
                                                   message):
        cfg, code = self.run_config(tmp_path, command, doc)
        assert code == 2
        (key,) = doc
        assert one_error_line(capsys) == f"error: {cfg}: {key}: {message}\n"

    @pytest.mark.parametrize("command, flag, text", [
        ("simulate", "--train-fraction", "0.7_5"),
        ("train", "--learning-rate", " 1e-3"),
        ("train", "--sigma-floor", "1e-3\n"),
    ])
    def test_float_flag_in_the_writers_spelling_only(self, capsys, command, flag, text):
        """``float`` also reads these; a float flag reads what numpy's C
        reader reads, as every float the program reads back."""
        assert run(command, f"{flag}={text}") == 2
        domain = "unit_fraction" if flag == "--train-fraction" else "positive_float"
        assert capsys.readouterr().err.endswith(
            f"error: argument {flag}: invalid {domain} value: {text!r}\n")

    def test_values_typed_as_their_flags(self, tmp_path):
        cfg, code = self.run_config(tmp_path, "simulate", {
            "n_train": "12", "n_test": 3, "seed": "4", "measurement_noise": False,
        }, "--out-dir", tmp_path / "out")
        assert code == 0
        header = (tmp_path / "out" / "train.csv").read_text().splitlines()
        assert len(header) == 1 + 12 and "LUXN_" not in header[0]
        # a JSON integer is read as a float flag reads the same text
        cfg.write_text(json.dumps({"learning_rate": 1}))
        args = cli.build_parser().parse_args(["train", "--config", str(cfg)])
        assert repr(cli._merge_options("train", args)["learning_rate"]) == "1.0"

    def test_number_for_a_text_option(self, workspace, tmp_path):
        cfg, code = self.run_config(tmp_path, "train", {"hidden": 16, "epochs": "3"},
                                    "--which", "g1", "--data", workspace / "train.csv",
                                    "--model-out", tmp_path / "g1.model")
        assert code == 0
        model = dataio.load_model(tmp_path / "g1.model")
        assert model.config.hidden_layers == (16,) and len(model.training_log) == 3

    @pytest.mark.parametrize("hidden, layers", [("16,8", (16, 8)), ("", ())])
    def test_hidden_widths_spellings(self, workspace, tmp_path, hidden, layers):
        cfg, code = self.run_config(tmp_path, "train", {"hidden": hidden, "epochs": 1},
                                    "--which", "g1", "--data", workspace / "train.csv",
                                    "--model-out", tmp_path / "g1.model")
        assert code == 0
        assert dataio.load_model(tmp_path / "g1.model").config.hidden_layers == layers

    def test_malformed_json_names_the_file(self, tmp_path, capsys):
        cfg = tmp_path / "cfg.json"
        cfg.write_text('{"seed": 1,\n "n_train": }')
        assert run("simulate", "--config", cfg, "--out-dir", tmp_path) == 2
        assert one_error_line(capsys) == f"error: {cfg}:2:13: not a JSON file: Expecting value\n"

    def test_document_that_is_not_an_object_names_the_file(self, tmp_path, capsys):
        cfg, code = self.run_config(tmp_path, "simulate", [], "--out-dir", tmp_path / "out")
        assert code == 2
        assert one_error_line(capsys) == f"error: {cfg}: config file must hold a JSON object\n"
        assert not (tmp_path / "out").exists()


def retyped(text: str, value, *path) -> str:
    """A scene's JSON text with the value at ``path`` replaced."""
    doc = json.loads(text)
    node = doc
    for key in path[:-1]:
        node = node[key]
    node[path[-1]] = value
    return json.dumps(doc)


class TestMalformedScene:
    """simulate --scene on a file that is not a scene: exit 3, one line."""

    @pytest.mark.parametrize("edit, message", [
        (lambda t: t.replace('"room": {', '"room": "big", "x": {'),
         "'room' must be a JSON object, not 'str'"),
        (lambda t: "[" + t + "]", "a scene is a JSON object, got list"),
        (lambda t: t[:120], ":9:1: Expecting ',' delimiter"),
        (lambda t: t.replace('"width": 17.0', '"width": NaN'),
         ":104:14: NaN is not a JSON number"),
        (lambda t: t.replace('"width": 17.0', '"width": 1e999'),
         "scene value inf is not a finite number"),
        (lambda t: retyped(t, "sunny", "conditions"),
         "'conditions' must be a JSON array, not 'str'"),
        (lambda t: retyped(t, "sunny", "conditions", 0),
         "'conditions[0]' must be a JSON object, not 'str'"),
        (lambda t: retyped(t, "0,5,2.5", "lights", 0, "position"),
         "'lights[0].position' must be a JSON array, not 'str'"),
        (lambda t: retyped(t, {"position": [1, 2, 3]}, "access_points"),
         "'access_points' must be a JSON array, not 'dict'"),
        (lambda t: retyped(t, -1.0, "lights", 0, "intensity", "sunny"),
         "luminous intensity must be >= 0 for every condition"),
        (lambda t: retyped(t, -0.5, "access_points", 0, "shadow_sigma"),
         "shadow_sigma must be >= 0, got -0.5"),
        (lambda t: retyped(t, 0.0, "room", "depth"), "all scene lengths must be positive"),
        (lambda t: retyped(t, 4.0, "room", "phone_height"),
         "phone_height must be below ceiling_height"),
        (lambda t: retyped(t, [], "lights"), "scene needs at least one light"),
        (lambda t: retyped(t, [], "access_points"), "scene needs at least one access point"),
        (lambda t: retyped(t, [], "conditions"), "scene needs at least one condition"),
        (lambda t: retyped(t, json.loads(t)["conditions"][:1] * 2, "conditions"),
         "duplicate condition names: ['sunny', 'sunny']"),
    ], ids=["string-room", "top-level-list", "truncated", "nan-width", "overflowing-width",
            "string-conditions", "string-condition", "string-light-position", "object-aps",
            "negative-intensity", "negative-shadow-sigma", "zero-depth", "phone-at-ceiling",
            "no-lights", "no-access-points", "no-conditions", "duplicate-condition"])
    def test_exits_data_error_naming_the_file(self, tmp_path, capsys, edit, message):
        """A document that is not a scene, or one whose values no scene may
        hold, names the file; text that is not JSON names the file, line and
        column."""
        scene = tmp_path / "scene.json"
        scenario.save_scene(scenario.paper_room_scene(), scene)
        scene.write_text(edit(scene.read_text()))
        code = run("simulate", "--scene", scene, "--out-dir", tmp_path / "out", "--n-train", 2,
                   "--n-test", 1)
        assert code == 3
        separator = "" if message.startswith(":") else ": "
        assert one_error_line(capsys) == f"error: {scene}{separator}{message}\n"
        assert not (tmp_path / "out" / "train.csv").exists()


class TestDeterminism:
    def test_full_pipeline_byte_identical(self, tmp_path):
        def pipeline_run(root: Path):
            root.mkdir()
            assert run("simulate", "--out-dir", root, "--n-train", 50, "--n-test", 6, "--seed", 13) == 0
            for which in ("g1", "g2"):
                assert run(
                    "train", "--which", which, "--data", root / "train.csv",
                    "--model-out", root / f"{which}.model", "--seed", 13,
                    "--hidden", "12", "--epochs", 40,
                ) == 0
            assert run(
                "predict", "--g1", root / "g1.model", "--g2", root / "g2.model",
                "--data", root / "test.csv", "--out-dir", root / "pred",
                "--records", "all", "--m", 15, "--n", 4, "--seed", 13,
            ) == 0
            assert run(
                "evaluate", "--g1", root / "g1.model", "--g2", root / "g2.model",
                "--data", root / "test.csv", "--out-dir", root / "eval",
                "--m", 15, "--n", 4, "--seed", 13, "--bootstrap", 300,
            ) == 0

        a, b = tmp_path / "a", tmp_path / "b"
        pipeline_run(a)
        pipeline_run(b)
        assert file_hashes(a) == file_hashes(b)


class TestDocs:
    def test_cli_md_flag_tables_match_parsers(self):
        doc = (Path(__file__).resolve().parent.parent / "docs" / "cli.md").read_text()
        sections = re.split(r"^## hmdn (\w+)$", doc, flags=re.M)
        documented = {
            name: {
                flag
                for row in body.splitlines()
                if row.startswith("| `")
                for flag in re.findall(r"`(--[\w-]+)`", row.split("|")[1])
            }
            for name, body in zip(sections[1::2], sections[2::2])
        }
        sub = next(a for a in cli.build_parser()._actions if a.dest == "command")
        declared = {
            name: {s for a in p._actions for s in a.option_strings} - {"-h", "--help", "--config"}
            for name, p in sub.choices.items()
        }
        assert documented == declared

    @pytest.mark.parametrize("command", list(cli._OPTIONS))
    def test_cli_md_defaults_match_parsers(self, command):
        """Each literal in a flag table's default column, read by its flag's
        own type (``off`` for a switch), is the default the flag resolves to."""
        doc = (Path(__file__).resolve().parent.parent / "docs" / "cli.md").read_text()
        body = re.split(r"^## hmdn (\w+)$", doc, flags=re.M)
        table = body[body.index(command) + 1]
        documented = {}
        for row in table.splitlines():
            if row.startswith("| `"):
                flags = re.findall(r"`(--[\w-]+)`", row.split("|")[1])
                values = row.split("|")[2].strip().strip("`").split(", ")
                if len(values) == 1:
                    values *= len(flags)  # `--g1`, `--g2` | required
                documented |= dict(zip(flags, values))
        resolved = cli._merge_options(command, cli.build_parser().parse_args([command]))
        for flag, default, parse_kwargs in cli._OPTIONS[command]:
            if default is None:
                continue
            text = documented[flag]
            if parse_kwargs == cli._SWITCH:
                assert (text, resolved[cli._dest(flag)]) == ("off", False), flag
            else:
                assert parse_kwargs.get("type", str)(text) == resolved[cli._dest(flag)], flag


class TestNonFiniteCoordinates:
    """A fingerprint CSV whose coordinate cell is nan or inf is a data error."""

    def with_bad_coordinate(self, source, bad, column, value):
        lines = source.read_text().splitlines()
        header = lines[0].split(",")
        cells = lines[1].split(",")
        cells[header.index(column)] = value
        lines[1] = ",".join(cells)
        bad.write_text("\n".join(lines) + "\n")

    def check(self, capsys, code, bad, column, value):
        """Data row 1 is line 2 of the file."""
        assert code == 3
        expected = f"error: {bad}:2: {column}: coordinate {value} is not finite\n"
        assert one_error_line(capsys) == expected

    def test_nan_test_coordinate_rejected_by_evaluate(self, workspace, tmp_path, capsys):
        bad = tmp_path / "test.csv"
        self.with_bad_coordinate(workspace / "test.csv", bad, "LONGITUDE", "nan")
        code = run(
            "evaluate", "--g1", workspace / "g1.model", "--g2", workspace / "g2.model",
            "--data", bad, "--out-dir", tmp_path / "eval",
            "--conditions", "sunny", "--m", 5, "--n", 2, "--seed", 1, "--bootstrap", 10,
        )
        self.check(capsys, code, bad, "LONGITUDE", "nan")
        assert not (tmp_path / "eval" / "metrics.csv").exists()

    def test_inf_train_coordinate_rejected_by_train(self, workspace, tmp_path, capsys):
        bad = tmp_path / "train.csv"
        self.with_bad_coordinate(workspace / "train.csv", bad, "LATITUDE", "inf")
        code = run(
            "train", "--which", "g1", "--data", bad, "--model-out", tmp_path / "g1.model",
            "--seed", 5, "--hidden", "4", "--epochs", 1,
        )
        self.check(capsys, code, bad, "LATITUDE", "inf")
        assert not (tmp_path / "g1.model").exists()


class TestMalformedCsv:
    """A test CSV with a non-finite LUX cell or bytes that are not UTF-8 is
    a data error naming the file, not a silent fallback or a usage error."""

    def evaluate(self, workspace, data, out):
        return run(
            "evaluate", "--g1", workspace / "g1.model", "--g2", workspace / "g2.model",
            "--data", data, "--out-dir", out,
            "--conditions", "sunny", "--m", 5, "--n", 2, "--seed", 1, "--bootstrap", 10,
        )

    def check(self, capsys, code, line):
        assert code == 3
        assert one_error_line(capsys) == line

    def test_nan_lux_cell_rejected_by_evaluate(self, workspace, tmp_path, capsys):
        bad = tmp_path / "test.csv"
        TestNonFiniteCoordinates().with_bad_coordinate(workspace / "test.csv", bad,
                                                       "LUX_sunny", "nan")
        code = self.evaluate(workspace, bad, tmp_path / "eval")
        self.check(capsys, code, f"error: {bad}:2: LUX_sunny: illuminance nan is not finite\n")
        assert not (tmp_path / "eval" / "metrics.csv").exists()

    def test_cell_over_the_csv_field_limit_names_file_and_row(self, tmp_path, capsys):
        bad = tmp_path / "train.csv"
        note = "x" * 200_000
        bad.write_text(f'WAP001,LONGITUDE,LATITUDE,NOTE\n-50,1,2,a\n-60,2,3,"{note}"\n')
        code = run("train", "--which", "g1", "--data", bad, "--model-out", tmp_path / "g1.model",
                   "--epochs", 1)
        self.check(capsys, code, f"error: {bad}:3: field larger than field limit (131072)\n")

    def test_non_utf8_file_rejected_by_evaluate(self, workspace, tmp_path, capsys):
        bad = tmp_path / "test.csv"
        lines = (workspace / "test.csv").read_bytes().split(b"\n")
        lines[2] = lines[2].replace(b",", b",\xe9", 1)
        bad.write_bytes(b"\n".join(lines))
        code = self.evaluate(workspace, bad, tmp_path / "eval")
        self.check(capsys, code, f"error: {bad}:3: not UTF-8 text (invalid continuation byte)\n")


def broken_model(model, row: str):
    """``model`` with one of the edits of ROADMAP item 2's rows: every
    ``a_sigma`` output bias 800, every ``a_mu`` output bias 1e300, a sigma
    floor of 1e308, or input means of +-1e308."""
    K = model.config.n_components
    weights = [np.array(w) for w in model.weights]
    if row == "a_sigma":
        weights[-1][0, K : 2 * K] = 800.0
    elif row == "a_mu":
        weights[-1][0, 2 * K :] = 1e300
    elif row == "sigma_floor":
        return dataclasses.replace(model, config=dataclasses.replace(model.config,
                                                                     sigma_floor=1e308))
    else:
        mean = np.array(model.input_mean)
        mean[:2] = 1e308, -1e308
        return dataclasses.replace(model, input_mean=mean)
    return dataclasses.replace(model, weights=tuple(weights))


def prediction_run(command, workspace, out, g1=None, g2=None) -> tuple:
    """Exit code and warning messages of ``predict`` (record 0) or
    ``evaluate`` under sunny, M=4, N=2, with the workspace's models unless
    others are given."""
    argv = [command, "--g1", g1 or workspace / "g1.model", "--g2", g2 or workspace / "g2.model",
            "--data", workspace / "test.csv", "--m", 4, "--n", 2, "--conditions", "sunny",
            "--out-dir", out]
    argv += ["--records", 0, "--no-plots"] if command == "predict" else ["--bootstrap", 10]
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        code = run(*argv)
    return code, [str(w.message) for w in caught]


@pytest.mark.parametrize("command", ["predict", "evaluate"])
@pytest.mark.parametrize("row", ["a_sigma", "a_mu", "sigma_floor", "mean"])
def test_non_finite_g1_exits_numeric_before_making_out_dir(workspace, tmp_path, capsys, command,
                                                            row):
    """A g1 that loads but predicts non-finite numbers (or positions whose
    error overflows): exit 4, one line naming g1, the record and the
    condition, no numpy warning, and no output directory."""
    g1 = tmp_path / "g1.model"
    dataio.save_model(broken_model(dataio.load_model(workspace / "g1.model"), row), g1)
    assert prediction_run(command, workspace, tmp_path / "out", g1=g1) == (4, [])
    one_error_line(capsys, "g1 gives a non-finite mixture, sample or error for record 0 under sunny")
    assert not (tmp_path / "out").exists()


@pytest.mark.parametrize("command", ["predict", "evaluate"])
@pytest.mark.parametrize("row", ["a_sigma", "a_mu"])
def test_non_finite_g2_exits_numeric_before_making_out_dir(workspace, tmp_path, capsys, command,
                                                            row):
    """A g2 whose sigmas overflow, or whose means lie at no finite squared
    distance from z: every score is -inf, yet this is no underflow. Exit 4,
    one line naming g2, the record and the condition, no warning, and no
    output directory."""
    g2 = tmp_path / "g2.model"
    dataio.save_model(broken_model(dataio.load_model(workspace / "g2.model"), row), g2)
    assert prediction_run(command, workspace, tmp_path / "out", g2=g2) == (4, [])
    one_error_line(capsys, "g2 gives a non-finite mixture, or a mean at no finite distance from z, "
                           "for record 0 under sunny")
    assert not (tmp_path / "out").exists()


@pytest.mark.parametrize("command", ["predict", "evaluate"])
def test_underflowing_g2_scores_fall_back(workspace, tmp_path, capsys, command):
    """g2 means 1e153 from every z at the sigma floor: each mixture is
    finite and each squared distance (about 1e306) too, but the distance
    over the variance overflows, so every score is -inf. That is the
    underflow fallback: exit 0, with its warning."""
    model = dataio.load_model(workspace / "g2.model")
    K = model.config.n_components
    weights = [np.array(w) for w in model.weights]
    weights[-1][0, K : 2 * K] = -50.0
    weights[-1][0, 2 * K :] = 1e153
    g2 = tmp_path / "g2.model"
    dataio.save_model(dataclasses.replace(model, weights=tuple(weights)), g2)
    count = 1 if command == "predict" else 10
    assert prediction_run(command, workspace, tmp_path / "out", g2=g2) == (0, [
        f"{count} of {count} predictions under sunny fell back to the mean of all candidates"])
    assert capsys.readouterr().err == ""


class TestMalformedModel:
    def evaluate(self, workspace, g1_path, out):
        return run(
            "evaluate", "--g1", g1_path, "--g2", workspace / "g2.model",
            "--data", workspace / "test.csv", "--out-dir", out,
            "--conditions", "sunny", "--m", 5, "--n", 2, "--seed", 1, "--bootstrap", 10,
        )

    def test_non_finite_std_exits_data_error(self, workspace, tmp_path, capsys):
        lines = (workspace / "g1.model").read_text().splitlines()
        i = next(i for i, ln in enumerate(lines) if ln.startswith("std = "))
        lines[i] = "std = " + " ".join(["nan"] * len(lines[i].split()[2:]))
        bad = tmp_path / "g1.model"
        bad.write_text("\n".join(lines) + "\n")
        assert self.evaluate(workspace, bad, tmp_path / "eval") == 3
        err = capsys.readouterr().err
        assert err.startswith("error: ") and err.count("\n") == 1
        assert str(bad) in err

    def test_non_finite_weight_exits_data_error(self, workspace, tmp_path, capsys):
        # a NaN read from a file is a data error (3); 4 is left to diverged training
        lines = (workspace / "g1.model").read_text().splitlines()
        row = lines.index("[weights]") + 2  # first row of the first matrix
        lines[row] = "nan " + lines[row].split(" ", 1)[1]
        bad = tmp_path / "g1.model"
        bad.write_text("\n".join(lines) + "\n")
        assert self.evaluate(workspace, bad, tmp_path / "eval") == 3
        err = capsys.readouterr().err
        assert err.startswith("error: ") and err.count("\n") == 1
        assert str(bad) in err

    def test_non_utf8_model_names_path_and_line(self, workspace, tmp_path, capsys):
        lines = (workspace / "g1.model").read_bytes().split(b"\n")
        lines[3] += b"\xff"
        bad = tmp_path / "g1.model"
        bad.write_bytes(b"\n".join(lines))
        assert self.evaluate(workspace, bad, tmp_path / "eval") == 3
        assert one_error_line(capsys) == f"error: {bad}:4: not UTF-8 text (invalid start byte)\n"
        assert not (tmp_path / "eval").exists()

    @pytest.mark.parametrize("edit", [
        lambda rows: f"matrix 0 {rows} 4611686018427387904",
        lambda rows: f"matrix 7 {rows} 16",
        lambda rows: f"matrix x {rows} 16",
    ], ids=["cols-numpy-refuses", "index", "index-not-a-number"])
    def test_bad_matrix_header_names_path_and_line(self, workspace, tmp_path, capsys, edit):
        """The header must be the one the config shapes, so numpy is never
        asked for the size it declares (here one numpy refuses outright):
        exit 3 with one line, nothing written."""
        lines = (workspace / "g1.model").read_text().splitlines()
        line = lines.index("[weights]") + 2
        rows = int(lines[line - 1].split()[2])
        lines[line - 1] = edit(rows)
        bad = tmp_path / "g1.model"
        bad.write_text("\n".join(lines) + "\n")
        assert self.evaluate(workspace, bad, tmp_path / "eval") == 3
        expected = f"error: {bad}:{line}: expected 'matrix 0 {rows} 16', got {lines[line - 1]!r}\n"
        assert one_error_line(capsys) == expected
        raised(SchemaError, dataio.load_model, bad)
        assert not (tmp_path / "eval").exists()

    def test_width_no_machine_holds_fails_on_the_first_row(self, workspace, tmp_path):
        """A g2 model whose config and matrix header agree on a 2^31-1 wide
        first layer: the reader builds each matrix from rows already parsed,
        so it stops at the first row's width, never asking numpy for the
        32 GiB the header declares. Run under a 1 GiB address-space cap, so
        a reader that allocates first fails fast instead of committing memory."""
        lines = (workspace / "g2.model").read_text().splitlines()
        hidden = next(i for i, ln in enumerate(lines) if ln.startswith("hidden_layers = "))
        lines[hidden] = "hidden_layers = 2147483647 16"
        header = lines.index("[weights]") + 1
        assert lines[header] == "matrix 0 2 16"
        lines[header] = "matrix 0 2 2147483647"
        bad = tmp_path / "g2.model"
        bad.write_text("\n".join(lines) + "\n")
        argv = ["evaluate", "--g1", workspace / "g1.model", "--g2", bad,
                "--data", workspace / "test.csv", "--out-dir", tmp_path / "eval",
                "--m", 5, "--n", 2, "--bootstrap", 10]
        done = run_capped(
            "import sys\n"
            "from hmdn import cli, dataio\n"
            "from hmdn.errors import ParseError\n"
            "try:\n"
            f"    dataio.load_model({str(bad)!r})\n"
            "except ParseError as err:\n"
            "    print(err.path, err.line, err.key, err.message, sep='|')\n"
            f"sys.exit(cli.main({[str(a) for a in argv]!r}))\n"
        )
        row = header + 2
        assert done.stdout == f"{bad}|{row}|None|expected 2147483647 values, got 16\n"
        assert done.returncode == 3
        assert done.stderr == f"error: {bad}:{row}: expected 2147483647 values, got 16\n"
        assert not (tmp_path / "eval").exists()

    def test_truncated_or_incomplete_model_never_crashes(self, workspace, tmp_path, capsys):
        lines = (workspace / "g1.model").read_text().splitlines(keepends=True)
        variants = [lines[:k] for k in range(len(lines))]
        variants.append([ln for ln in lines if not ln.startswith("std = ")])
        bad = tmp_path / "g1.model"
        for k, variant in enumerate(variants):
            bad.write_text("".join(variant))
            code = self.evaluate(workspace, bad, tmp_path / "eval")
            err = capsys.readouterr().err
            assert code in (0, 3), f"variant {k}: exit {code}, stderr {err!r}"
            assert "Traceback" not in err
            if code == 3:
                assert err.startswith("error: "), f"variant {k}: {err!r}"
        assert code == 3  # the model without its std line


class TestMalformedDump:
    """evaluate --from-dump on a cut or corrupted dump: exit 3, one line."""

    @pytest.fixture()
    def lines(self, tmp_path):
        path = tmp_path / "good.txt"
        pipeline.write_predictions(path, make_dump_records(3, 2, m=4, n=2), 55, m=4, n=2)
        return path.read_text().splitlines(keepends=True)

    def reeval(self, tmp_path, capsys, lines, *flags):
        path = tmp_path / "bad.txt"
        path.write_text("".join(lines))
        code = run("evaluate", "--from-dump", path, "--out-dir", tmp_path / "eval", *flags)
        return code, capsys.readouterr().err

    @pytest.mark.parametrize(
        "cut, message",
        [
            (lambda ls: ls[:4] + [ls[5]] + ls[4:], ":5: expected a 'record' line"),
            (lambda ls: ls[:9], ":10: end of file inside the block of record 0 sunny (line 5)"),
            (lambda ls: ls[:12], ":13: end of file inside the block of record 0 sunny (line 5)"),
            (lambda ls: ls[:4], ":5: end of file after 0 of the header's '# records 2'"),
            (lambda ls: ls[:15], ":16: end of file after 1 of the header's '# records 2'"),
            (lambda ls: ls + ls[4:15],
             ":27: expected the end of the file after the header's '# records 2'"),
            (lambda ls: ["condition,method\n"] + ls[3:],
             ":1: not a predictions dump (no '# hmdn-predictions v2')"),
            (lambda ls: ["# hmdn-predictions v1\n"] + ls[1:],
             ":1: 'hmdn-predictions v1' dumps are no longer read; re-run `hmdn predict` to "
             "write 'hmdn-predictions v2'"),
            (lambda ls: ls[:1] + ls[2:],
             ":2: expected '# master_seed <seed64>', got '# m 4 n 2'"),
        ],
        ids=["<lambda>-" + fault for fault in (
            "line 5: expected a 'record' line",
            "line 10: end of file inside the block of record 0",
            "line 13: end of file inside the block of record 0",
            "line 5: end of file after 0 of the header's '# records 2'",
            "line 16: end of file after 1 of the header's '# records 2'",
            "line 27: expected the end of the file after the header's '# records 2'",
            "line 1: not a predictions dump",
            "line 1: 'hmdn-predictions v1' dumps are no longer read; re-run `hmdn predict`",
            "needs a '# master_seed <0..2^64-1>' line",
        )],
    )
    def test_exits_data_error_naming_file_and_line(self, tmp_path, capsys, lines, cut, message):
        code, err = self.reeval(tmp_path, capsys, cut(lines), "--bootstrap", 20)
        assert code == 3
        assert err == f"error: {tmp_path / 'bad.txt'}{message}\n"
        assert not (tmp_path / "eval").exists()

    def test_byte_not_utf8_names_its_line(self, tmp_path, capsys, lines):
        path = tmp_path / "bad.txt"
        path.write_bytes("".join(lines[:20]).encode() + b"hmdn\xff" + "".join(lines[20:]).encode())
        assert run("evaluate", "--from-dump", path, "--out-dir", tmp_path / "eval") == 3
        assert one_error_line(capsys) == f"error: {path}:21: not UTF-8 text (invalid start byte)\n"
        assert not (tmp_path / "eval").exists()

    def test_second_record_of_another_width_names_its_record_line(self, tmp_path, capsys, lines):
        """The first record sets the dump's width: a third coordinate on
        every line of the second record is refused on its record line."""
        wider = []
        for at, line in enumerate(lines):
            words = line.split(" ")
            if 15 <= at < 26:  # the second record's block, lines 16-26
                words.insert(4 if words[0] == "record" else 2, "1.5")
            wider.append(" ".join(words))
        code, err = self.reeval(tmp_path, capsys, wider, "--bootstrap", 20)
        assert code == 3
        assert err == (f"error: {tmp_path / 'bad.txt'}:16: 3 truth coordinates, but the first "
                       "record has 2\n")
        assert not (tmp_path / "eval").exists()

    def test_good_dump_still_evaluates(self, tmp_path, capsys, lines):
        code, err = self.reeval(tmp_path, capsys, lines, "--bootstrap", 20)
        assert code == 0 and err == ""
        assert len((tmp_path / "eval" / "metrics.csv").read_text().splitlines()) == 1 + 2 * 2

    def test_overflowing_errors_exit_numeric(self, tmp_path, capsys):
        """Estimates near 1e300 parse, but their squared errors overflow:
        exit 4, one line naming the first such record and its condition, no
        numpy warning, and no output directory."""
        records = make_dump_records(3, 2, m=4, n=2, count=3)
        for r in records[1:]:
            r.hmdn.estimate[:] = 1e300, -1e300
        path = tmp_path / "far.txt"
        pipeline.write_predictions(path, records, 55, m=4, n=2)
        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always")
            code = run("evaluate", "--from-dump", path, "--out-dir", tmp_path / "eval",
                       "--bootstrap", 20)
        assert code == 4
        assert [str(w.message) for w in caught] == []
        assert one_error_line(capsys) == ("error: the estimates of record 1 under cloudy lie at "
                                          "no finite distance from its truth\n")
        assert not (tmp_path / "eval").exists()

    @pytest.mark.parametrize("count", [0, -5])
    def test_bootstrap_below_one_is_a_usage_error(self, tmp_path, capsys, lines, count):
        code, err = self.reeval(tmp_path, capsys, lines, "--bootstrap", count)
        assert code == 2
        assert err.endswith(f"error: argument --bootstrap: invalid positive_int value: '{count}'\n")
        assert not (tmp_path / "eval").exists()


class TestMissingLuxColumns:
    """A CSV without LUX_<condition> columns: every command that reads them
    exits 3 with one line naming the CSV."""

    @pytest.mark.parametrize("command", ["train", "predict", "evaluate"])
    def test_exits_data_error_naming_the_csv(self, workspace, tmp_path, capsys, command):
        data = without_lux(workspace / "test.csv", tmp_path / "nolux.csv")
        out = tmp_path / "out"
        models = ["--g1", workspace / "g1.model", "--g2", workspace / "g2.model", "--m", 5,
                  "--n", 2]
        argv = {
            "train": ["--which", "g2", "--model-out", out / "g2.model", "--epochs", 1],
            "predict": [*models, "--out-dir", out],
            "evaluate": [*models, "--out-dir", out, "--bootstrap", 10],
        }[command]
        assert run(command, "--data", data, *argv) == 3
        assert one_error_line(capsys) == f"error: {data}: no LUX_<condition> columns\n"
        assert not out.exists() or not any(out.iterdir())


class TestConditionNames:
    """A condition's name goes into the dump's record lines, the rows of
    metrics.csv and the names of plot files, so a ``LUX_<condition>`` column
    whose condition is empty or holds whitespace, ',', '"' or '/' exits 3
    with one line naming the CSV and the column, before any output is made."""

    @pytest.mark.parametrize("command", ["predict", "evaluate"])
    @pytest.mark.parametrize("name", ["", "sun ny", "sun\tny", "sun\u00a0ny", "sun,ny", 'sun"ny',
                                      "sun/ny"],
                             ids=["empty", "space", "tab", "nbsp", "comma", "quote", "slash"])
    def test_exits_data_error_naming_the_column(self, workspace, tmp_path, capsys, command,
                                                name):
        lines = (workspace / "test.csv").read_text().splitlines(keepends=True)
        header = next(csv.reader(lines[:1]))
        header[header.index("LUX_sunny")] = "LUX_" + name
        data = tmp_path / "renamed.csv"
        with open(data, "w", newline="") as fh:
            csv.writer(fh, lineterminator="\n").writerow(header)
            fh.writelines(lines[1:])
        out = tmp_path / "out"
        argv = ["--g1", workspace / "g1.model", "--g2", workspace / "g2.model", "--m", 5,
                "--n", 2, "--out-dir", out, *(["--bootstrap", 10] if command == "evaluate" else [])]
        assert run(command, "--data", data, *argv) == 3
        expected = (f"error: {data}: LUX_{name}: a condition is not empty and has no "
                    f"whitespace, ',', '\"' or '/', got {name!r}\n")
        assert one_error_line(capsys) == expected
        assert not out.exists()

    @pytest.mark.parametrize("name", ["cloud,y", 'cloud"y', "cloud/y"],
                             ids=["comma", "quote", "slash"])
    def test_dump_condition_exits_data_error_on_its_record_line(self, tmp_path, capsys, name):
        path = tmp_path / "renamed.txt"
        pipeline.write_predictions(path, make_dump_records(3, 2, m=4, n=2), 55, m=4, n=2)
        lines = path.read_text().splitlines(keepends=True)
        assert lines[15].startswith("record 1 cloudy ")
        lines[15] = lines[15].replace(" cloudy ", f" {name} ")
        path.write_text("".join(lines))
        out = tmp_path / "out"
        assert run("evaluate", "--from-dump", path, "--out-dir", out, "--bootstrap", 10) == 3
        assert one_error_line(capsys) == (f"error: {path}:16: a condition is not empty and has no "
                                          f"whitespace, ',', '\"' or '/', got {name!r}\n")
        assert not out.exists()

    def test_other_punctuation_is_a_name(self, workspace, tmp_path):
        text = (workspace / "test.csv").read_text()
        data = tmp_path / "renamed.csv"
        data.write_text(text.replace("LUX_sunny", "LUX_50%lit-2.b", 1))
        out = tmp_path / "out"
        assert run("predict", "--g1", workspace / "g1.model", "--g2", workspace / "g2.model",
                   "--data", data, "--m", 5, "--n", 2, "--out-dir", out) == 0
        assert (out / "plot_r000_50%lit-2.b.svg").exists()
        assert {r.condition for r in parse_predictions(out / "predictions.txt")} == {
            "50%lit-2.b", "cloudy", "night_lights"}


class TestWapCountMismatch:
    """A CSV with fewer WAP columns than g1 has inputs: exit 3 with one line
    naming the CSV, before any output is made."""

    @pytest.mark.parametrize("command", ["predict", "evaluate"])
    def test_exits_data_error_naming_the_csv(self, workspace, tmp_path, capsys, command):
        rows = [line.split(",") for line in (workspace / "test.csv").read_text().splitlines()]
        assert rows[0][:5] == ["WAP001", "WAP002", "WAP003", "WAP004", "LONGITUDE"]
        data = tmp_path / "three_waps.csv"
        data.write_text("".join(",".join(row[1:]) + "\n" for row in rows))
        out = tmp_path / "out"
        argv = ["--g1", workspace / "g1.model", "--g2", workspace / "g2.model", "--m", 5,
                "--n", 2, "--out-dir", out, *(["--bootstrap", 10] if command == "evaluate" else [])]
        assert run(command, "--data", data, *argv) == 3
        expected = f"error: {data}: dataset has 3 WAP features, g1 expects 4\n"
        assert one_error_line(capsys) == expected
        assert not out.exists()


class TestOutputPathIsAFile:
    """An output path that is, or runs through, an existing file: exit 3 with
    one line, never a traceback."""

    @pytest.mark.parametrize("command", ["simulate", "train", "predict", "evaluate"])
    @pytest.mark.parametrize("below", [False, True], ids=["file", "below-file"])
    def test_exits_data_error(self, workspace, tmp_path, capsys, command, below):
        blocker = tmp_path / "taken"
        blocker.write_text("not a directory\n")
        out_dir = blocker / "sub" if below else blocker
        models = ["--g1", workspace / "g1.model", "--g2", workspace / "g2.model",
                  "--data", workspace / "test.csv", "--m", 5, "--n", 2]
        argv = {
            "simulate": ["--out-dir", out_dir, "--n-train", 2, "--n-test", 1],
            "train": ["--which", "g1", "--data", workspace / "train.csv", "--epochs", 1,
                      "--model-out", out_dir / "g1.model"],
            "predict": [*models, "--out-dir", out_dir, "--no-plots"],
            "evaluate": [*models, "--out-dir", out_dir, "--bootstrap", 10],
        }[command]
        assert run(command, *argv) == 3
        one_error_line(capsys, "taken")
        assert blocker.read_text() == "not a directory\n"


class TestCutWriters:
    """A stage whose write is cut short by a file-size cap exits 3 with one
    line naming the artifact, and leaves no part of it: the artifact is
    absent, or keeps the bytes it had before, and no temporary file is left.
    Files the stage finished before the cut stay, complete: a failed stage
    does not remove them. Every cut runs in one child process."""

    CASES = ["simulate-empty", "simulate-half", "simulate-all-but-one-byte", "train-empty",
             "train-half", "train-rewrite", "evaluate-empty", "evaluate-metrics-csv",
             "predict-dump", "predict-plot", "predict-rewrite"]

    @pytest.fixture(scope="class")
    def cuts(self, workspace, tmp_path_factory):
        """case -> (out dir, cut file, its old bytes or None, the files the
        stage finished before the cut, (exit code, stderr))."""
        root = tmp_path_factory.mktemp("cut")
        inputs = ["--g1", workspace / "g1.model", "--g2", workspace / "g2.model",
                  "--data", workspace / "test.csv"]
        simulate = ["simulate", "--n-train", 80, "--n-test", 10, "--seed", 5]
        train = ["train", "--which", "g1", "--data", workspace / "train.csv", "--seed", 5,
                 "--hidden", "16", "--epochs", 60]
        evaluate_ = ["evaluate", *inputs, "--m", 5, "--n", 2, "--bootstrap", 10]
        predict = ["predict", *inputs, "--m", 2, "--n", 1, "--records", 0, "--conditions",
                   "sunny"]
        assert run(*evaluate_, "--out-dir", root / "evaluate") == 0
        assert run(*predict, "--out-dir", root / "predict") == 0
        whole = {p.name: p.read_bytes() for p in [*(root / "evaluate").iterdir(),
                                                  *(root / "predict").iterdir()]}
        assert len(whole["metrics.csv"]) > len(whole["metrics.txt"])
        assert len(whole["plot_r000_sunny.svg"]) > len(whole["predictions.txt"])
        train_csv, g1 = (len((workspace / name).read_bytes()) for name in ("train.csv", "g1.model"))
        # case -> argv, cap, the file cut, its old bytes, the files finished before it
        plan = {
            "simulate-empty": (simulate, 0, "train.csv", None, ()),
            "simulate-half": (simulate, train_csv // 2, "train.csv", None, ()),
            "simulate-all-but-one-byte": (simulate, train_csv - 1, "train.csv", None, ()),
            "train-empty": (train, 0, "g1.model", None, ()),
            "train-half": (train, g1 // 2, "g1.model", None, ()),
            "train-rewrite": (train, g1 - 1, "g1.model", b"an older model\n", ()),
            "evaluate-empty": (evaluate_, 0, "metrics.txt", None, ()),
            "evaluate-metrics-csv": (evaluate_, len(whole["metrics.txt"]), "metrics.csv", None,
                                     ("metrics.txt",)),
            # the file-size probe of the roadmap: predict at M=100 under `ulimit -f 20`
            "predict-dump": (["predict", *inputs, "--m", 100], 20 * 1024, "predictions.txt",
                             None, ()),
            "predict-plot": (predict, len(whole["predictions.txt"]), "plot_r000_sunny.svg", None,
                             ("predictions.txt",)),
            "predict-rewrite": (predict, 0, "predictions.txt", b"an older dump\n", ()),
        }
        assert list(plan) == self.CASES
        runs = []
        for case, (argv, cap, cut, old, _) in plan.items():
            out = root / case
            out.mkdir()
            if old is not None:
                (out / cut).write_bytes(old)
            flag = "--model-out" if argv[0] == "train" else "--out-dir"
            runs.append(([*argv, flag, out / cut if flag == "--model-out" else out], cap))
        outcomes = run_cut(runs)
        return {case: (root / case, cut, old, {name: whole[name] for name in done}, outcome)
                for (case, (_, _, cut, old, done)), outcome in zip(plan.items(), outcomes)}

    @pytest.mark.parametrize("case", CASES)
    def test_leaves_no_part_of_the_artifact(self, cuts, case):
        out, cut, old, done, (code, err) = cuts[case]
        assert code == 3
        assert err == f"error: [Errno 27] File too large: '{out / cut}'\n"
        left = {p.name: p.read_bytes() for p in out.iterdir()}
        assert left == {**done, **({cut: old} if old is not None else {})}


def test_main_has_no_catch_all():
    """main maps the package's error types to exit codes. Any other
    ValueError is a bug that must surface, so no handler in main catches
    ValueError or Exception."""
    (func,) = ast.parse(textwrap.dedent(inspect.getsource(cli.main))).body
    caught = set()
    for node in ast.walk(func):
        if isinstance(node, ast.ExceptHandler):
            kinds = node.type.elts if isinstance(node.type, ast.Tuple) else [node.type]
            caught |= {"bare" if k is None else ast.unparse(k) for k in kinds}
    assert "UsageError" in caught
    assert not caught & {"bare", "ValueError", "Exception", "BaseException"}
