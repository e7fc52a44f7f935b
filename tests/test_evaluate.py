import builtins
import tracemalloc

import numpy as np
import pytest

from hmdn import pipeline
from hmdn.errors import NumericError, SchemaError
from hmdn.evaluate import (
    _rank_medians,
    _ranked,
    bootstrap_improvement,
    compute_metrics,
    format_metrics_table,
    metrics_from_dump,
    paired_errors,
    write_metrics_csv,
)
from hmdn.numcore import Rng
from hmdn.pipeline import HmdnEstimate, PredictionRecord, write_predictions

from util import make_dump_records, raised, reference_bootstrap_improvement, where


def make_record(rid, cond, truth, base_est, hmdn_est):
    est = HmdnEstimate(
        estimate=np.asarray(hmdn_est, dtype=float),
        candidates=np.zeros((3, 2)),
        scores=np.array([0.0, -1.0, -2.0]),
        selected_indices=np.array([0]),
    )
    return PredictionRecord(
        record_id=rid,
        condition=cond,
        truth=np.asarray(truth, dtype=float),
        z=np.array([1.0]),
        baseline_samples=np.zeros((3, 2)),
        baseline_estimate=np.asarray(base_est, dtype=float),
        hmdn=est,
    )


class TestMetrics:
    def test_paired_errors_grouped_by_condition(self):
        records = [
            make_record(0, "sunny", (0, 0), (3, 4), (0, 1)),
            make_record(1, "sunny", (1, 1), (1, 1), (1, 1)),
            make_record(0, "cloudy", (0, 0), (6, 8), (0, 2)),
        ]
        errs = paired_errors(records)
        assert set(errs) == {"sunny", "cloudy"}
        b, h = errs["sunny"]
        assert b.tolist() == [5.0, 0.0]
        assert h.tolist() == [1.0, 0.0]

    @pytest.mark.parametrize("dim", [2, 3])
    def test_paired_errors_bit_identical_to_per_record_distances(self, dim):
        rng = Rng(60 + dim)
        records = []
        for rid in range(200):
            truth, base, hmdn = ((rng.uniform(dim) * 2 - 1) * 10.0 ** (rid % 7 - 3)
                                 for _ in range(3))
            records.append(make_record(rid, ("sunny", "cloudy")[rid % 2], truth, base, hmdn))
        errs = paired_errors(records)
        for cond, (b, h) in errs.items():
            rs = [r for r in records if r.condition == cond]
            want_b = np.array([float(np.sqrt(np.sum((r.baseline_estimate - r.truth) ** 2)))
                               for r in rs])
            want_h = np.array([float(np.sqrt(np.sum((r.hmdn.estimate - r.truth) ** 2)))
                               for r in rs])
            assert b.tobytes() == want_b.tobytes()
            assert h.tobytes() == want_h.tobytes()

    def test_paired_errors_refuse_an_error_that_overflows(self):
        records = [
            make_record(0, "sunny", (0, 0), (3, 4), (0, 1)),
            make_record(4, "cloudy", (0, 0), (1, 1), (1e300, 1e300)),
            make_record(2, "sunny", (0, 0), (-1e300, 0), (0, 1)),
        ]
        with np.errstate(over="raise"):  # no numpy warning either
            err = raised(NumericError, paired_errors, records)
        assert str(err) == ("the estimates of record 4 under cloudy lie at no finite "
                            "distance from its truth")

    def test_constant_errors_give_degenerate_interval(self):
        # every resample of constant arrays has the same medians, so the
        # interval collapses onto the exact improvement
        records = [make_record(i, "sunny", (0, 0), (3, 0), (1, 0)) for i in range(10)]
        m = compute_metrics(records, master_seed=1, n_resamples=500)[0]
        want = 100.0 * (3.0 - 1.0) / 3.0
        assert m.improvement_pct == pytest.approx(want, rel=1e-12)
        assert m.ci_low == pytest.approx(want, rel=1e-12)
        assert m.ci_high == pytest.approx(want, rel=1e-12)
        assert m.n_records == 10

    def test_bootstrap_deterministic_given_stream(self):
        rng_a, rng_b = Rng(7), Rng(7)
        b = np.array([3.0, 2.0, 5.0, 4.0, 1.0])
        h = np.array([1.0, 2.0, 1.5, 0.5, 1.0])
        assert bootstrap_improvement(b, h, rng_a, 2000) == bootstrap_improvement(b, h, rng_b, 2000)

    def test_metrics_sorted_by_condition(self):
        records = [
            make_record(0, "sunny", (0, 0), (1, 0), (1, 0)),
            make_record(0, "cloudy", (0, 0), (1, 0), (1, 0)),
            make_record(0, "night_lights", (0, 0), (1, 0), (1, 0)),
        ]
        names = [m.condition for m in compute_metrics(records, 0, n_resamples=10)]
        assert names == sorted(names)

    def test_table_and_csv_row_counts(self, tmp_path):
        records = [
            make_record(i, cond, (0, 0), (2, 0), (1, 0))
            for cond in ("sunny", "cloudy")
            for i in range(4)
        ]
        metrics = compute_metrics(records, 3, n_resamples=50)
        table = format_metrics_table(metrics)
        assert len(table.splitlines()) == 1 + 2 * len(metrics)
        out = tmp_path / "metrics.csv"
        write_metrics_csv(metrics, out)
        lines = out.read_text().splitlines()
        assert len(lines) == 1 + 2 * len(metrics)
        assert lines[0].startswith("condition,method,")


class TestStreamingBootstrap:
    """Resamples drawn in blocks give the one-matrix interval bit for bit."""

    # at n = 64, a power of two, u * n is exact; at any n < 2^53 a uniform
    # u <= 1 - 2^-53 keeps floor(u * n) below n, so the clamp never acts
    @pytest.mark.parametrize("n", [1, 2, 3, 47, 48, 64, 200, 1111])
    @pytest.mark.parametrize("n_resamples", [1, 57, 10_000])
    def test_matches_one_matrix_reference(self, n, n_resamples):
        rng = Rng(1000 + n)
        b = rng.uniform(n) * 4.0
        # rounded errors give ties, which the medians must break the same way
        h = np.round(rng.uniform(n) * 6.0) / 2.0
        got = bootstrap_improvement(b, h, Rng(n_resamples), n_resamples)
        want = reference_bootstrap_improvement(b, h, Rng(n_resamples), n_resamples)
        assert np.array(got).tobytes() == np.array(want).tobytes()

    @pytest.mark.parametrize("n", [3, 64, 200])
    @pytest.mark.parametrize("kind", ["inf", "nan", "ties"])
    def test_matches_reference_on_inf_nan_and_ties(self, n, kind):
        """A resample drawing an inf or a NaN, or drawing from a few distinct
        values only, still gets np.median's double; a NaN median makes the
        improvement NaN, which np.percentile then spreads as the reference
        does."""
        rng = Rng(2000 + n)
        b = rng.uniform(n) * 4.0
        h = np.round(rng.uniform(n) * 3.0)  # at most four distinct values
        if kind == "ties":
            b = np.round(b)
        else:
            b[n // 2] = h[0] = np.inf if kind == "inf" else np.nan
        with np.errstate(invalid="ignore"):
            got = bootstrap_improvement(b, h, Rng(n), 300)
            want = reference_bootstrap_improvement(b, h, Rng(n), 300)
        assert np.array(got).tobytes() == np.array(want).tobytes()

    def test_peak_memory_is_bounded(self):
        rng = Rng(4)
        b, h = rng.uniform(1111) * 4.0, rng.uniform(1111) * 3.0
        tracemalloc.start()
        try:
            bootstrap_improvement(b, h, Rng(5), 10_000)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 16 * 2**20  # one 10,000 x 1,111 draw held 339 MB

    @pytest.mark.parametrize("n_resamples", [0, -5])
    def test_rejects_fewer_than_one_resample(self, n_resamples):
        with pytest.raises(ValueError, match="n_resamples >= 1"):
            bootstrap_improvement(np.ones(3), np.ones(3), Rng(0), n_resamples)

    @pytest.mark.parametrize("n", [1, 2, 7, 8, 301])
    def test_row_medians_match_np_median(self, n):
        """Rows of draws from one error vector, each index drawn into a
        row, give np.median's row medians, NaN and inf rows included."""
        rng = Rng(n)
        err = np.round(rng.uniform(3 * n) * 8.0)
        err[n // 2] = np.nan
        err[0] = np.inf
        idx = np.minimum((rng.uniform(20 * n) * 3 * n).astype(np.int32), 3 * n - 1).reshape(20, n)
        idx[3, n // 2], idx[5, 0] = n // 2, 0
        want = np.median(err[idx], axis=1)
        got = _rank_medians(*_ranked(err), idx, np.empty(idx.shape, dtype=np.int32))
        assert got.tobytes() == want.tobytes()


class TestMetricsFromDump:
    def test_missing_master_seed_is_a_schema_error(self, tmp_path):
        path = tmp_path / "dump.txt"
        write_predictions(path, make_dump_records(2, 2, m=4, n=2), master_seed=5, m=4, n=2)
        assert len(metrics_from_dump(path, n_resamples=20)) == 2
        lines = path.read_text().splitlines(keepends=True)
        path.write_text(lines[0] + "".join(lines[2:]))
        err = raised(SchemaError, metrics_from_dump, path, 20)
        assert where(err) == (path, 2, None, None)
        assert err.message == "expected '# master_seed <seed64>', got '# m 4 n 2'"

    def test_reads_the_dump_once(self, tmp_path, monkeypatch):
        path = tmp_path / "dump.txt"
        write_predictions(path, make_dump_records(2, 2, m=4, n=2), master_seed=5, m=4, n=2)
        opened = []
        real_open = builtins.open

        def counting_open(file, *args, **kwargs):
            opened.append(file)
            return real_open(file, *args, **kwargs)

        monkeypatch.setattr(builtins, "open", counting_open)
        assert len(metrics_from_dump(path, n_resamples=20)) == 2
        assert opened == [path]

    def test_reads_through_parse_predictions(self, tmp_path, monkeypatch):
        """The benchmark times the dump read as ``pipeline.parse_predictions``,
        so the re-evaluation must call it through the module attribute."""
        path = tmp_path / "dump.txt"
        write_predictions(path, make_dump_records(2, 2, m=4, n=2), master_seed=5, m=4, n=2)
        calls = []
        real_parse = pipeline.parse_predictions

        def counting_parse(*args, **kwargs):
            calls.append(args[0])
            return real_parse(*args, **kwargs)

        monkeypatch.setattr(pipeline, "parse_predictions", counting_parse)
        assert len(metrics_from_dump(path, n_resamples=20)) == 2
        assert calls == [path]
