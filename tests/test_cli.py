import hashlib
import json
import re
from pathlib import Path

import numpy as np
import pytest

from hmdn import cli, dataio, evaluate, pipeline
from hmdn.mdn import nll
from hmdn.pipeline import parse_predictions

from util import make_dump_records


def run(*argv):
    return cli.main([str(a) for a in argv])


def file_hashes(root: Path) -> dict:
    return {
        p.relative_to(root).as_posix(): hashlib.sha256(p.read_bytes()).hexdigest()
        for p in sorted(root.rglob("*"))
        if p.is_file()
    }


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

    def test_g2_input_dim_contract(self, workspace, tmp_path):
        code = run(
            "train", "--which", "g2", "--data", workspace / "train.csv",
            "--model-out", tmp_path / "m", "--input-dim", 3, "--epochs", 1,
        )
        assert code == 2

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
        meta = pipeline.dump_metadata(out / "predictions.txt")
        assert meta["m"] == "100" and meta["n"] == "20"
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

    def test_record_out_of_range(self, workspace, tmp_path):
        assert run(
            "predict", "--g1", workspace / "g1.model", "--g2", workspace / "g2.model",
            "--data", workspace / "test.csv", "--out-dir", tmp_path, "--records", "99",
        ) == 2


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

    def test_requires_inputs(self, tmp_path):
        assert run("evaluate", "--out-dir", tmp_path) == 2


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


class TestNonFiniteCoordinates:
    """A fingerprint CSV whose coordinate cell is nan or inf is a data error."""

    def with_bad_coordinate(self, source, bad, column, value):
        lines = source.read_text().splitlines()
        header = lines[0].split(",")
        cells = lines[1].split(",")
        cells[header.index(column)] = value
        lines[1] = ",".join(cells)
        bad.write_text("\n".join(lines) + "\n")

    def check(self, capsys, code, bad, column):
        err = capsys.readouterr().err
        assert code == 3
        assert err.startswith("error: ") and err.count("\n") == 1
        assert "Traceback" not in err
        assert str(bad) in err and "row 1" in err and repr(column) in err

    def test_nan_test_coordinate_rejected_by_evaluate(self, workspace, tmp_path, capsys):
        bad = tmp_path / "test.csv"
        self.with_bad_coordinate(workspace / "test.csv", bad, "LONGITUDE", "nan")
        code = run(
            "evaluate", "--g1", workspace / "g1.model", "--g2", workspace / "g2.model",
            "--data", bad, "--out-dir", tmp_path / "eval",
            "--conditions", "sunny", "--m", 5, "--n", 2, "--seed", 1, "--bootstrap", 10,
        )
        self.check(capsys, code, bad, "LONGITUDE")
        assert not (tmp_path / "eval" / "metrics.csv").exists()

    def test_inf_train_coordinate_rejected_by_train(self, workspace, tmp_path, capsys):
        bad = tmp_path / "train.csv"
        self.with_bad_coordinate(workspace / "train.csv", bad, "LATITUDE", "inf")
        code = run(
            "train", "--which", "g1", "--data", bad, "--model-out", tmp_path / "g1.model",
            "--seed", 5, "--hidden", "4", "--epochs", 1,
        )
        self.check(capsys, code, bad, "LATITUDE")
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

    def check(self, capsys, code, *fragments):
        err = capsys.readouterr().err
        assert code == 3
        assert err.startswith("error: ") and err.count("\n") == 1
        assert "Traceback" not in err
        assert all(f in err for f in fragments), err

    def test_nan_lux_cell_rejected_by_evaluate(self, workspace, tmp_path, capsys):
        bad = tmp_path / "test.csv"
        TestNonFiniteCoordinates().with_bad_coordinate(workspace / "test.csv", bad,
                                                       "LUX_sunny", "nan")
        code = self.evaluate(workspace, bad, tmp_path / "eval")
        self.check(capsys, code, str(bad), "row 1", "'LUX_sunny'")
        assert not (tmp_path / "eval" / "metrics.csv").exists()

    def test_non_utf8_file_rejected_by_evaluate(self, workspace, tmp_path, capsys):
        bad = tmp_path / "test.csv"
        lines = (workspace / "test.csv").read_bytes().split(b"\n")
        lines[2] = lines[2].replace(b",", b",\xe9", 1)
        bad.write_bytes(b"\n".join(lines))
        code = self.evaluate(workspace, bad, tmp_path / "eval")
        self.check(capsys, code, str(bad), "line 3", "not UTF-8")


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
            (lambda ls: ls[:3] + [ls[4]] + ls[3:], "line 4: expected a 'record' line"),
            (lambda ls: ls[:9], "line 10: end of file inside the block of record 0"),
            (lambda ls: ls[:12], "line 13: end of file inside the block of record 0"),
            (lambda ls: ls[:3], "line 4: no record lines after the header"),
            (lambda ls: ["condition,method\n"] + ls[3:], "line 1: not a predictions dump"),
            (lambda ls: ls[:1] + ls[2:], "needs a '# master_seed <0..2^64-1>' line"),
        ],
    )
    def test_exits_data_error_naming_file_and_line(self, tmp_path, capsys, lines, cut, message):
        code, err = self.reeval(tmp_path, capsys, cut(lines), "--bootstrap", 20)
        assert code == 3
        assert err.startswith(f"error: {tmp_path / 'bad.txt'}: ") and err.count("\n") == 1
        assert message in err
        assert not (tmp_path / "eval" / "metrics.csv").exists()

    def test_good_dump_still_evaluates(self, tmp_path, capsys, lines):
        code, err = self.reeval(tmp_path, capsys, lines, "--bootstrap", 20)
        assert code == 0 and err == ""
        assert len((tmp_path / "eval" / "metrics.csv").read_text().splitlines()) == 1 + 2 * 2

    @pytest.mark.parametrize("count", [0, -5])
    def test_bootstrap_below_one_is_a_usage_error(self, tmp_path, capsys, lines, count):
        code, err = self.reeval(tmp_path, capsys, lines, "--bootstrap", count)
        assert code == 2
        assert err == "error: --bootstrap must be >= 1\n"
