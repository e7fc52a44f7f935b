import dataclasses
import math
import tracemalloc

import numpy as np
import pytest

from hmdn.errors import ParseError, SchemaError, ShapeError
from hmdn.mdn import MdnConfig, density, identity_model, mixture_at, nll
from hmdn.numcore import Rng
from hmdn.pipeline import (
    _CHUNK_LINES,
    HmdnEstimate,
    HmdnPipeline,
    baseline_samples,
    parse_predictions,
    predict,
    PredictionRecord,
    write_predictions,
)

from util import (
    affine_model,
    dump_outcome,
    make_dump_records,
    raised,
    reference_parse_predictions,
    reference_select_top,
    reference_write_predictions,
    where,
)

# the start of the message for a refused 'hmdn candidate' line of a 2-D dump
CANDIDATE = "expected 'hmdn candidate <2 coordinates> score=<log density> selected=<0|1>', got "


def bimodal_g1(mode_a=(2.0, 5.0), mode_b=(15.0, 5.0), spread=0.3, sigma_floor=1e-3):
    """Input-independent two-mode mixture over the plane (affine head, zero weights)."""
    return affine_model(np.zeros(2), np.full(2, math.log(spread)), [mode_a, mode_b], sigma_floor)


def linear_g2(sigma=1.0):
    """K=1 head whose mean is the candidate's first coordinate: z ~ N(x, sigma^2)."""
    cfg = MdnConfig(input_dim=2, target_dim=1, n_components=1, hidden_layers=())
    w = np.array([[0.0, 0.0, 1.0], [0.0, 0.0, 0.0]])
    b = np.array([[0.0, math.log(sigma), 0.0]])
    return identity_model(cfg, [w, b])


def constant_g2():
    """Scores every candidate identically (zero weights everywhere)."""
    cfg = MdnConfig(input_dim=2, target_dim=1, n_components=1, hidden_layers=())
    return identity_model(cfg, [np.zeros((2, 3)), np.array([[0.0, 0.0, 0.0]])])


def point_modes_g1():
    """Two modes with a spread far below one ulp of their coordinates:
    every candidate lands exactly on one of them."""
    return bimodal_g1(spread=1e-300, sigma_floor=1e-300)


def planar_g2():
    """K=1, unit-sigma head over a 2-D observation whose mean is (the
    candidate's first coordinate, 0): the second observed coordinate adds
    the same term to every candidate's score."""
    cfg = MdnConfig(input_dim=2, target_dim=2, n_components=1, hidden_layers=())
    w = np.array([[0.0, 0.0, 1.0, 0.0], [0.0, 0.0, 0.0, 0.0]])
    return identity_model(cfg, [w, np.zeros((1, 4))])


def score(g2, candidate, z) -> float:
    """The score of one candidate: -nll of g2 on that one row."""
    return -nll(g2, (np.array([candidate], dtype=float), np.array([z], dtype=float)))


class TestScoreCandidates:
    """Candidate scores, as ``predict`` computes them and as -nll on one row."""

    def test_identical_candidates_identical_scores(self):
        pipe = HmdnPipeline(g1=point_modes_g1(), g2=linear_g2(), n_candidates=40, n_selected=5)
        est = predict(pipe, [0.0], [2.0], Rng(12))
        at_a = est.candidates[:, 0] == 2.0
        assert at_a.any() and (~at_a).any()
        assert np.all(est.candidates[at_a] == est.candidates[at_a][0])
        assert np.all(est.scores[at_a] == est.scores[at_a][0])
        assert np.all(est.scores[~at_a] == est.scores[~at_a][0])

    def test_candidate_near_observation_scores_higher(self):
        g2 = linear_g2()
        assert score(g2, [2.0, 5.0], [2.0]) > score(g2, [15.0, 5.0], [2.0])

    def test_matches_density_op_per_candidate(self):
        pipe = HmdnPipeline(g1=bimodal_g1(spread=2.0), g2=linear_g2(sigma=0.8),
                            n_candidates=10, n_selected=3)
        z = [4.2]
        est = predict(pipe, [0.0], z, Rng(3))
        for c, s in zip(est.candidates, est.scores):
            want = math.log(density(mixture_at(pipe.g2, c), z))
            assert s == pytest.approx(want, rel=1e-12)
            assert s == pytest.approx(score(pipe.g2, c, z), rel=1e-12)

    def test_dimension_mismatch(self):
        with pytest.raises(ShapeError):
            score(linear_g2(), [1.0, 2.0, 3.0], [0.0])
        with pytest.raises(ShapeError):
            score(linear_g2(), [1.0, 2.0], [0.0, 1.0])
        pipe = HmdnPipeline(g1=bimodal_g1(), g2=linear_g2())
        with pytest.raises(ShapeError):
            predict(pipe, [0.0], [0.0, 1.0], Rng(1))


class TestSelectTop:
    """Selection inside ``predict``: the N best scores, ties by index."""

    def test_shift_invariance(self):
        # a second observed coordinate shifts every score by the same amount
        pipe = HmdnPipeline(g1=bimodal_g1(spread=3.0), g2=planar_g2(), n_candidates=30,
                            n_selected=7)
        rng = Rng(9)
        for t in range(50):
            c = rng.uniform() * 30
            base = predict(pipe, [0.0], [2.0, 0.0], Rng(300 + t))
            shifted = predict(pipe, [0.0], [2.0, c], Rng(300 + t))
            assert np.array_equal(base.candidates, shifted.candidates)
            assert set(base.selected_indices) == set(shifted.selected_indices)

    def test_ties_broken_by_index(self):
        pipe = HmdnPipeline(g1=point_modes_g1(), g2=linear_g2(), n_candidates=10, n_selected=6)
        est = predict(pipe, [0.0], [2.0], Rng(1))
        at_a = np.flatnonzero(est.candidates[:, 0] == 2.0)
        at_b = np.flatnonzero(est.candidates[:, 0] != 2.0)
        assert 0 < at_a.shape[0] < 6  # the selection runs into the tied second mode
        assert list(est.selected_indices) == [*at_a, *at_b][:6]
        assert not est.underflow_fallback

    def test_all_non_finite_falls_back(self):
        pipe = HmdnPipeline(g1=bimodal_g1(), g2=linear_g2(), n_candidates=5, n_selected=2)
        with pytest.warns(RuntimeWarning):
            est = predict(pipe, [0.0], [math.inf], Rng(4))
        assert est.underflow_fallback and list(est.selected_indices) == [0, 1, 2, 3, 4]


class TestPredict:
    def setup_method(self):
        self.pipe = HmdnPipeline(g1=bimodal_g1(), g2=linear_g2(), n_candidates=100, n_selected=20)

    def test_selection_no_op_when_m_equals_n(self):
        pipe = HmdnPipeline(g1=bimodal_g1(), g2=linear_g2(), n_candidates=50, n_selected=50)
        est = predict(pipe, [0.0], [2.0], Rng(5))
        assert est.estimate == pytest.approx(est.candidates.mean(axis=0), rel=1e-12)

    def test_bimodal_selection_stays_in_consistent_mode(self):
        est = predict(self.pipe, [0.0], [2.0], Rng(8))
        # observation favors the mode at x=2; every selected point must sit there
        assert np.all(np.abs(est.selected[:, 0] - 2.0) < 2.0)
        assert est.estimate[0] == pytest.approx(2.0, abs=0.5)

    def test_deterministic(self):
        e1 = predict(self.pipe, [0.0], [2.0], Rng(123))
        e2 = predict(self.pipe, [0.0], [2.0], Rng(123))
        assert np.array_equal(e1.estimate, e2.estimate)
        assert np.array_equal(e1.candidates, e2.candidates)
        assert np.array_equal(e1.selected_indices, e2.selected_indices)

    def test_selected_subset_invariants(self):
        est = predict(self.pipe, [0.0], [2.0], Rng(77))
        assert est.selected_indices.shape == (20,)
        assert len(set(est.selected_indices.tolist())) == 20
        unselected = np.setdiff1d(np.arange(100), est.selected_indices)
        assert est.scores[est.selected_indices].min() >= est.scores[unselected].max()

    def test_estimate_in_convex_hull_of_selected(self):
        est = predict(self.pipe, [0.0], [2.0], Rng(42))
        lo, hi = est.selected.min(axis=0), est.selected.max(axis=0)
        assert np.all(est.estimate >= lo - 1e-12)
        assert np.all(est.estimate <= hi + 1e-12)

    def test_underflow_fallback_flagged(self):
        with pytest.warns(RuntimeWarning):
            est = predict(self.pipe, [0.0], [math.inf], Rng(4))
        assert est.underflow_fallback
        assert est.estimate == pytest.approx(est.candidates.mean(axis=0), rel=1e-12)

    def test_weighted_mean_extension(self):
        est = predict(self.pipe, [0.0], [2.0], Rng(11), weighted=True)
        plain = predict(self.pipe, [0.0], [2.0], Rng(11))
        assert np.array_equal(est.selected_indices, plain.selected_indices)
        assert not np.array_equal(est.estimate, plain.estimate)
        lo, hi = est.selected.min(axis=0), est.selected.max(axis=0)
        assert np.all(est.estimate >= lo - 1e-12) and np.all(est.estimate <= hi + 1e-12)

    def test_uninformative_g2_matches_baseline_in_expectation(self):
        # constant-density second stage: filtering must not shift the estimate
        pipe = HmdnPipeline(g1=bimodal_g1(), g2=constant_g2(), n_candidates=100, n_selected=20)
        diffs = []
        for t in range(200):
            h = predict(pipe, [0.0], [0.0], Rng(1000 + t))
            b = baseline_samples(pipe.g1, [0.0], Rng(5000 + t), 100).mean(axis=0)
            diffs.append(h.estimate - b)
        mean_diff = np.mean(diffs, axis=0)
        # per-coordinate variance of the two-mode cloud, then a 4-sigma bound
        var = 0.5 * (2.0**2 + 15.0**2) - 8.5**2 + 0.3**2
        bound = 4.0 * math.sqrt(var * (1 / 20 + 1 / 100) / 200)
        assert abs(mean_diff[0]) <= bound

    def test_pipeline_dimension_contract(self):
        with pytest.raises(ShapeError):
            HmdnPipeline(g1=bimodal_g1(), g2=bimodal_g1())
        with pytest.raises(ValueError):
            HmdnPipeline(g1=bimodal_g1(), g2=linear_g2(), n_candidates=10, n_selected=11)


class TestPredictBaseline:
    def test_single_component_clt(self):
        cfg = MdnConfig(input_dim=1, target_dim=2, n_components=1, hidden_layers=())
        g1 = identity_model(
            cfg, [np.zeros((1, cfg.output_width)), np.array([[0.0, math.log(1.0), 3.0, -2.0]])]
        )
        m = 2000
        est = baseline_samples(g1, [0.0], Rng(21), m).mean(axis=0)
        bound = 4.0 / math.sqrt(m)
        assert abs(est[0] - 3.0) <= bound and abs(est[1] + 2.0) <= bound

    def test_m_one_is_single_sample(self):
        g1 = bimodal_g1()
        est = baseline_samples(g1, [0.0], Rng(33), 1).mean(axis=0)
        s = baseline_samples(g1, [0.0], Rng(33), 1)
        assert np.array_equal(est, s[0])

    def test_deterministic(self):
        g1 = bimodal_g1()
        assert np.array_equal(
            baseline_samples(g1, [0.0], Rng(3), 50).mean(axis=0),
            baseline_samples(g1, [0.0], Rng(3), 50).mean(axis=0),
        )


class TestPredictionDump:
    def make_records(self):
        pipe = HmdnPipeline(g1=bimodal_g1(), g2=linear_g2(), n_candidates=10, n_selected=3)
        records = []
        for rid, cond in [(0, "sunny"), (1, "cloudy")]:
            est = predict(pipe, [0.0], [2.0], Rng(100 + rid))
            base = baseline_samples(pipe.g1, [0.0], Rng(200 + rid), 10)
            records.append(
                PredictionRecord(
                    record_id=rid,
                    condition=cond,
                    truth=np.array([2.2, 4.9]),
                    z=np.array([2.0]),
                    baseline_samples=base,
                    baseline_estimate=base.mean(axis=0),
                    hmdn=est,
                )
            )
        return records

    def test_round_trip(self, tmp_path):
        path = tmp_path / "dump.txt"
        records = self.make_records()
        write_predictions(path, records, master_seed=55, m=10, n=3)
        back = parse_predictions(path)
        assert len(back) == len(records)
        for orig, got in zip(records, back):
            assert got.record_id == orig.record_id
            assert got.condition == orig.condition
            assert np.array_equal(got.truth, orig.truth)
            assert np.array_equal(got.z, orig.z)
            assert np.array_equal(got.baseline_samples, orig.baseline_samples)
            assert np.array_equal(got.baseline_estimate, orig.baseline_estimate)
            assert np.array_equal(got.hmdn.estimate, orig.hmdn.estimate)
            assert np.array_equal(got.hmdn.candidates, orig.hmdn.candidates)
            assert np.array_equal(got.hmdn.scores, orig.hmdn.scores)
            assert np.array_equal(got.hmdn.selected_indices, orig.hmdn.selected_indices)
            assert got.hmdn.underflow_fallback == orig.hmdn.underflow_fallback

    def test_selected_block_scores_descending(self, tmp_path):
        """Candidates are written in index order; the parser lists the
        selection best score first, as prediction does."""
        path = tmp_path / "dump.txt"
        write_predictions(path, self.make_records(), master_seed=55, m=10, n=3)
        flags = [line.rsplit(" ", 1)[1] for line in path.read_text().splitlines()
                 if line.startswith("hmdn candidate ")]
        for r, got in zip(self.make_records(), parse_predictions(path)):
            want = np.zeros(10, dtype=int)
            want[r.hmdn.selected_indices] = 1
            assert flags[:10] == [f"selected={f}" for f in want]
            del flags[:10]
            scores = got.hmdn.scores[got.hmdn.selected_indices]
            assert scores.tolist() == sorted(scores.tolist(), reverse=True)


class TestDumpMatchesReferenceWriter:
    """The record-by-record writer against the one-list writer it replaced."""

    def assert_same_bytes(self, tmp_path, records, m, n):
        write_predictions(tmp_path / "new.txt", records, master_seed=9, m=m, n=n)
        reference_write_predictions(tmp_path / "ref.txt", records, master_seed=9, m=m, n=n)
        assert (tmp_path / "new.txt").read_bytes() == (tmp_path / "ref.txt").read_bytes()

    @pytest.mark.parametrize("dim", [1, 2, 3])
    @pytest.mark.parametrize("weighted", [False, True])
    def test_random_pipelines(self, tmp_path, dim, weighted):
        records = make_dump_records(20 + dim, dim, m=12, n=4, count=3, weighted=weighted)
        self.assert_same_bytes(tmp_path, records, 12, 4)

    def test_fallback_and_tied_scores(self, tmp_path):
        records = make_dump_records(31, 2, m=6, n=3, count=3)
        fallback_scores = np.full(6, -np.inf)
        tied_scores = np.array([-1.0, 0.5, -1.0, 0.5, 0.5, -np.inf])
        rebuilt = []
        for r, scores in zip(records, (fallback_scores, tied_scores, None)):
            if scores is not None:
                idx, fallback = reference_select_top(scores, 3)
                est = HmdnEstimate(
                    estimate=r.hmdn.candidates[idx].mean(axis=0),
                    candidates=r.hmdn.candidates,
                    scores=scores,
                    selected_indices=idx,
                    underflow_fallback=fallback,
                )
                r = dataclasses.replace(r, hmdn=est)
            rebuilt.append(r)
        assert rebuilt[0].hmdn.underflow_fallback
        self.assert_same_bytes(tmp_path, rebuilt, 6, 3)
        back = parse_predictions(tmp_path / "new.txt")
        assert back[0].hmdn.underflow_fallback and back[0].hmdn.selected_indices.shape == (6,)
        assert np.array_equal(back[1].hmdn.scores, tied_scores)

    def test_condition_with_percent_sign(self, tmp_path):
        records = [dataclasses.replace(r, condition="50%dim") for r in make_dump_records(5, 2, 4, 2)]
        self.assert_same_bytes(tmp_path, records, 4, 2)


class TestDumpRejectsMalformedFiles:
    """Each way a dump can be cut or corrupted names the file and the line."""

    @pytest.fixture()
    def lines(self, tmp_path):
        path = tmp_path / "good.txt"
        write_predictions(path, make_dump_records(3, 2, m=4, n=2), master_seed=55, m=4, n=2)
        return path.read_text().splitlines(keepends=True)

    def check(self, tmp_path, lines, error, line, message):
        path = tmp_path / "bad.txt"
        path.write_text("".join(lines))
        err = raised(error, parse_predictions, path)
        assert where(err) == (path, line, None, None)
        assert message in err.message, err

    def test_layout_of_the_good_file(self, lines):
        # header (4) + 2 blocks of record, estimate, 4 samples, estimate, 4 candidates
        assert len(lines) == 4 + 2 * 11
        assert lines[3] == "# records 2\n"
        assert lines[4].startswith("record 0 ") and lines[15].startswith("record 1 ")

    def test_line_before_first_record(self, tmp_path, lines):
        bad = lines[:4] + [lines[5]] + lines[4:]
        self.check(tmp_path, bad, ParseError, 5, "expected a 'record' line")

    def test_truncated_before_hmdn_estimate(self, tmp_path, lines):
        self.check(tmp_path, lines[:10], ParseError, 11, "end of file inside the block of record 0")

    def test_truncated_mid_candidates(self, tmp_path, lines):
        self.check(tmp_path, lines[:13], ParseError, 14, "end of file inside the block of record 0")

    def test_dropped_or_reordered_sample_lines(self, tmp_path, lines):
        # one sample short: the fourth sample slot (line 10) holds the hmdn estimate
        bad = lines[:7] + lines[8:]
        self.check(tmp_path, bad, ParseError, 10,
                   f"expected 'baseline sample <2 coordinates>', got {lines[10][:-1]!r}")
        # a sample line moved ahead of the baseline estimate
        bad = lines[:5] + [lines[6], lines[5]] + lines[7:]
        self.check(tmp_path, bad, ParseError, 6,
                   f"expected 'baseline estimate <2 coordinates>', got {lines[6][:-1]!r}")

    def test_header_only(self, tmp_path, lines):
        self.check(tmp_path, lines[:4], ParseError, 5,
                   "end of file after 0 of the header's '# records 2'")

    def test_cut_at_a_record_boundary(self, tmp_path, lines):
        self.check(tmp_path, lines[:15], ParseError, 16,
                   "end of file after 1 of the header's '# records 2'")

    def test_one_record_more_than_the_header_says(self, tmp_path, lines):
        self.check(tmp_path, lines + lines[4:15], ParseError, 27,
                   "expected the end of the file after the header's '# records 2'")

    def test_not_a_dump(self, tmp_path):
        self.check(tmp_path, ["WAP001,LONGITUDE,LATITUDE\n", "-50,1,2\n"], SchemaError, 1,
                   "not a predictions dump")
        self.check(tmp_path, [], SchemaError, 1, "not a predictions dump")

    def test_v1_dump_says_to_rerun_predict(self, tmp_path, lines):
        self.check(tmp_path, ["# hmdn-predictions v1\n"] + lines[1:], SchemaError, 1,
                   "'hmdn-predictions v1' dumps are no longer read; re-run `hmdn predict`")

    def test_header_without_m_and_n(self, tmp_path, lines):
        self.check(tmp_path, lines[:2] + lines[3:], SchemaError, 3,
                   "expected '# m <positive_int> n <positive_int>', got '# records 2'")

    @pytest.mark.parametrize("count", [None, "0", "-1", "two"])
    def test_header_without_a_record_count(self, tmp_path, lines, count):
        bad = lines[:3] + ([] if count is None else [f"# records {count}\n"]) + lines[4:]
        self.check(tmp_path, bad, SchemaError, 4,
                   f"expected '# records <positive_int>', got {bad[3].rstrip()!r}")

    @pytest.mark.parametrize("edit, line, message", [
        (lambda ls: ls[:1] + [ls[2], ls[1]] + ls[3:], 2,
         "expected '# master_seed <seed64>', got '# m 4 n 2'"),
        (lambda ls: ls[:2] + [ls[3], ls[2]] + ls[4:], 3,
         "expected '# m <positive_int> n <positive_int>', got '# records 2'"),
        (lambda ls: ls[:2] + ["# n 2 m 4\n"] + ls[3:], 3,
         "expected '# m <positive_int> n <positive_int>', got '# n 2 m 4'"),
        (lambda ls: ls[:2] + ["# m 4 n 2 m 4\n"] + ls[3:], 3,
         "expected '# m <positive_int> n <positive_int>', got '# m 4 n 2 m 4'"),
        (lambda ls: ls[:4] + ["# comment\n"] + ls[4:], 5, "expected a 'record' line"),
        (lambda ls: ls[:1] + ["# comment\n"] + ls[1:], 2,
         "expected '# master_seed <seed64>', got '# comment'"),
        (lambda ls: ls[:1] + ["\n"] + ls[1:], 2, "expected '# master_seed <seed64>', got ''"),
        (lambda ls: ls[:2] + ["#  m 4 n 2\n"] + ls[3:], 3,
         "expected '# m <positive_int> n <positive_int>', got '#  m 4 n 2'"),
        (lambda ls: ls[:2] + ["# m 4 n 5\n"] + ls[3:], 3, "n 5 exceeds m 4"),
        (lambda ls: ls[:1] + ["# master_seed 18446744073709551616\n"] + ls[2:], 2,
         "expected '# master_seed <seed64>', got '# master_seed 18446744073709551616'"),
        (lambda ls: ls[:3], 4, "expected '# records <positive_int>', got the end of the file"),
        (lambda ls: ls[:2] + ["# m 1_00 n 20\n"] + ls[3:], 3,
         "expected '# m <positive_int> n <positive_int>', got '# m 1_00 n 20'"),
    ], ids=["seed-after-m-n", "records-before-m-n", "n-before-m", "extra-field", "extra-line",
            "comment-before-seed", "blank-line", "double-space", "n-exceeds-m", "seed-too-large",
            "cut-in-the-header", "digit-group-underscore"])
    def test_header_line_not_the_one_due_names_its_line(self, tmp_path, lines, edit, line,
                                                        message):
        """The three header lines are read as write_predictions writes them,
        so a missing, extra or reordered header line fails on its own line."""
        error = ParseError if message.startswith("expected a 'record'") else SchemaError
        path = tmp_path / "bad.txt"
        path.write_text("".join(edit(lines)))
        err = raised(error, parse_predictions, path)
        assert where(err) == (path, line, None, None) and err.message == message

    def test_non_numeric_and_non_finite_coordinates(self, tmp_path, lines):
        bad = lines.copy()
        bad[5] = bad[5].rsplit(" ", 1)[0] + " x\n"
        self.check(tmp_path, bad, ParseError, 6,
                   f"expected 'baseline estimate <2 coordinates>', got {bad[5][:-1]!r}")
        bad = lines.copy()
        bad[16] = bad[16].rsplit(" ", 1)[0] + " nan\n"
        self.check(tmp_path, bad, ParseError, 17, "non-finite coordinate")

    @pytest.mark.parametrize("newline", ["\n", "\r\n", "\r"], ids=["lf", "crlf", "cr"])
    @pytest.mark.parametrize("line", [2, 5, 21])
    def test_byte_not_utf8_names_its_line(self, tmp_path, lines, newline, line):
        """The line is found once decoding has failed, counting line ends
        as the reader's text file does: LF, CRLF and CR alike."""
        path = tmp_path / "bad.txt"
        before, after = ("".join(part).replace("\n", newline).encode()
                         for part in (lines[: line - 1], lines[line - 1 :]))
        path.write_bytes(before + b"\xff" + after)
        err = raised(ParseError, parse_predictions, path)
        assert where(err) == (path, line, None, None)
        assert err.message == "not UTF-8 text (invalid start byte)"

    def test_wrong_selected_count(self, tmp_path, lines):
        bad = lines.copy()
        i = next(i for i in range(11, 15) if bad[i].endswith("selected=1\n"))
        bad[i] = bad[i].replace("selected=1", "selected=0")
        self.check(tmp_path, bad, ParseError, 5, "1 candidates selected, expected 2")

    @pytest.mark.parametrize("line, edit, message", [
        (7, lambda ln: ln.replace(" ", "  ", 1), "expected 'baseline sample <2 coordinates>', got "),
        (9, lambda ln: "  ".join(ln.rsplit(" ", 1)),
         "expected 'baseline sample <2 coordinates>', got "),
        (12, lambda ln: ln.replace(" score=", "\tscore="), CANDIDATE),
        (6, lambda ln: ln[:-1] + " \n", "expected 'baseline estimate <2 coordinates>', got "),
        (11, lambda ln: ln[:-1] + " \n",
         "expected 'hmdn estimate <2 coordinates> fallback=<0|1>', got "),
        (8, lambda ln: ln[:-1] + "\t\n", "expected 'baseline sample <2 coordinates>', got "),
        (10, lambda ln: ln.rsplit(" ", 1)[0] + " 1_0\n",
         "expected 'baseline sample <2 coordinates>', got "),
        (13, lambda ln: ln.split(" score=")[0] + " score=1_0 " + ln.rsplit(" ", 1)[1], CANDIDATE),
        (16, lambda ln: ln.replace(" ", "  ", 2),
         "expected 'record <id> <condition> truth <coords> z <values>'"),
        (16, lambda ln: ln.replace(" truth ", " truth\t"),
         "expected 'record <id> <condition> truth <coords> z <values>'"),
        (16, lambda ln: " " + ln, "expected a 'record' line"),
        (16, lambda ln: ln.replace("record 1 ", "record 0_1 "),
         "invalid literal for int() with base 10: '0_1'"),
        (5, lambda ln: ln.replace(" z ", " z +"), None),
    ], ids=["double-space-words", "double-space-coordinates", "tab-before-score",
            "trailing-space", "trailing-space-flag", "trailing-tab", "underscore-coordinate",
            "underscore-score", "double-space-record", "tab-record", "leading-space-record",
            "underscore-record-id", "signed-z"])
    def test_body_lines_in_the_writers_spelling(self, tmp_path, lines, line, edit, message):
        """Fields are separated by one space and floats spelled as numpy's C
        text reader takes them; the reader these tests pin also took each of
        these edits (``str.split`` and ``float`` forgive them). A '+' sign is
        a float spelling both take."""
        bad = lines.copy()
        bad[line - 1] = edit(bad[line - 1])
        assert bad != lines
        path = tmp_path / "bad.txt"
        path.write_text("".join(bad))
        assert len(reference_parse_predictions(path)) == 2
        if message is None:
            assert len(parse_predictions(path)) == 2
        else:
            if message.endswith(", got "):  # a body line: the spelling due, then the line
                message += repr(bad[line - 1][:-1])
            self.check(tmp_path, bad, ParseError, line, message)

    @pytest.mark.parametrize("line", [5, 6, 8, 11, 14, 16, 26],
                             ids=["record", "baseline-estimate", "baseline-sample",
                                  "hmdn-estimate", "hmdn-candidate", "second-record", "last"])
    def test_cut_inside_a_line_says_the_file_ends_there(self, tmp_path, lines, line):
        """A dump cut inside a line fails on that line, and the message says
        the file ends inside it: cut after its first byte, halfway, inside
        its last number or flag (where a shorter number still reads), or
        just before its newline, which on the last line is a whole dump
        without its final newline."""
        before, text = "".join(lines[: line - 1]), lines[line - 1]
        for keep in (1, len(text) // 2, len(text) - 3, len(text) - 2, len(text) - 1):
            path = tmp_path / "cut.txt"
            path.write_text(before + text[:keep])
            err = raised(ParseError, parse_predictions, path)
            assert where(err) == (path, line, None, None), keep
            assert err.message.endswith(" (the file ends inside this line)"), err

    def test_crlf_dump_reads_the_same(self, tmp_path, lines):
        good, other = tmp_path / "good.txt", tmp_path / "other.txt"
        good.write_text("".join(lines))
        other.write_bytes("".join(lines).replace("\n", "\r\n").encode())
        assert dump_outcome(parse_predictions, other) == dump_outcome(parse_predictions, good)


def repeated(records, count: int) -> list:
    """``count`` records cycling through ``records``, with ids 0, 1, ..."""
    return [dataclasses.replace(records[i % len(records)], record_id=i) for i in range(count)]


class TestDumpMatchesReferenceReader:
    """The chunked reader returns what the line-by-line reader it replaced
    returns, bit for bit, and names the same line when a dump is corrupt."""

    def assert_same(self, tmp_path, records, m, n):
        path = tmp_path / "dump.txt"
        write_predictions(path, records, master_seed=9, m=m, n=n)
        got = dump_outcome(parse_predictions, path)
        assert got == dump_outcome(reference_parse_predictions, path)
        assert len(got) == len(records)

    @pytest.mark.parametrize("dim", [1, 2, 3])
    def test_dimensions(self, tmp_path, dim):
        self.assert_same(tmp_path, make_dump_records(40 + dim, dim, m=12, n=4, count=3), 12, 4)

    def test_one_candidate(self, tmp_path):
        self.assert_same(tmp_path, make_dump_records(44, 2, m=1, n=1, count=3), 1, 1)

    def test_fallback_tied_scores_and_conditions(self, tmp_path):
        records = make_dump_records(45, 2, m=6, n=3, count=4)
        all_scores = [np.full(6, -np.inf), np.array([-1.0, 0.5, -1.0, 0.5, 0.5, -np.inf]),
                      np.full(6, 0.25), None]
        conditions = ["sunny", "50%lit", "cloudy", "night_lights"]
        rebuilt = []
        for r, scores, cond in zip(records, all_scores, conditions):
            if scores is not None:
                idx, fallback = reference_select_top(scores, 3)
                r = dataclasses.replace(r, hmdn=dataclasses.replace(
                    r.hmdn, scores=scores, selected_indices=idx, underflow_fallback=fallback))
            rebuilt.append(dataclasses.replace(r, condition=cond))
        assert rebuilt[0].hmdn.underflow_fallback
        self.assert_same(tmp_path, rebuilt, 6, 3)

    # a chunk is as many blocks of 2m + 3 lines as fit in _CHUNK_LINES lines
    @pytest.mark.parametrize("count", [1, _CHUNK_LINES // 27, _CHUNK_LINES // 27 + 1],
                             ids=["one", "one-chunk", "one-chunk-and-one"])
    def test_record_counts(self, tmp_path, count):
        self.assert_same(tmp_path, repeated(make_dump_records(46, 2, m=12, n=4), count), 12, 4)

    def assert_second_dimension_refused(self, tmp_path, first: int):
        """``first`` records of 2 coordinates, then records of 3: both readers
        refuse the first record line of 3, which names the first record's."""
        records = repeated(make_dump_records(47, 2, m=5, n=2), first)
        path = tmp_path / "dump.txt"
        write_predictions(path, records + make_dump_records(48, 3, m=5, n=2), 9, m=5, n=2)
        got = dump_outcome(parse_predictions, path)
        assert got == dump_outcome(reference_parse_predictions, path)
        assert got == (ParseError, path, 5 + 13 * first, None, None,
                       f"{path}:{5 + 13 * first}: 3 truth coordinates, but the first record has 2")

    def test_records_of_two_dimensions_in_one_chunk(self, tmp_path):
        """The first record line sets the dimension of every record."""
        self.assert_second_dimension_refused(tmp_path, 2)

    def test_records_of_two_dimensions_across_chunks(self, tmp_path):
        """A dimension that changes where a chunk starts is refused too."""
        assert _CHUNK_LINES // 13 == 157  # records of m = 5 in a chunk
        self.assert_second_dimension_refused(tmp_path, 157)

    @pytest.mark.parametrize("line, edit, fault", [
        (16, lambda ln: ln.replace(" cloudy ", " clo\tudy "), 16),
        (16, lambda ln: ln.replace(" cloudy ", " clo\u00a0udy "), 16),
        (16, lambda ln: ln.replace(" z ", " 1.5 z "), 16),
        (5, lambda ln: ln.replace(" z ", " 1.5 z "), 6),
    ], ids=["tab-in-condition", "nbsp-in-condition", "second-record-one-more-coordinate",
            "first-record-one-more-coordinate"])
    def test_edits_both_readers_reject_alike(self, tmp_path, line, edit, fault):
        """A blank inside the condition splits the record line. The first
        record line sets the dimension: a later record line of another fails
        on itself, and the first one's block fails on its next line."""
        path = tmp_path / "dump.txt"
        write_predictions(path, make_dump_records(51, 2, m=4, n=2), master_seed=9, m=4, n=2)
        lines = path.read_text().splitlines(keepends=True)
        lines[line - 1] = edit(lines[line - 1])
        path.write_text("".join(lines))
        got = dump_outcome(parse_predictions, path)
        assert got == dump_outcome(reference_parse_predictions, path)
        assert got[:3] == (ParseError, path, fault), got

    def test_faults_at_chunk_edges_name_their_lines(self, tmp_path):
        m, n = 100, 20
        size = 2 * m + 3
        block = _CHUNK_LINES // size  # records in a chunk
        path = tmp_path / "dump.txt"
        write_predictions(path, repeated(make_dump_records(49, 2, m=m, n=n), 2 * block + 1),
                          master_seed=9, m=m, n=n)
        lines = path.read_text().splitlines(keepends=True)
        first, last = 4 + block * size, 4 + 2 * block * size - 1  # indices
        for index, edit, message in (
            (first, lambda ln: ln.replace("record", "recrod", 1), "expected a 'record' line"),
            (last, lambda ln: ln.replace("selected=0", "selected=x"), CANDIDATE),
            (len(lines) - 1, lambda ln: ln.replace(" score=", " score=x"), CANDIDATE),
        ):
            bad = lines.copy()
            bad[index] = edit(bad[index])
            assert bad[index] != lines[index]
            path.write_text("".join(bad))
            if message == CANDIDATE:
                message += repr(bad[index][:-1])
            got = dump_outcome(parse_predictions, path)
            assert got == dump_outcome(reference_parse_predictions, path)
            assert got[:4] == (ParseError, path, index + 1, None) and message in got[-1]

    def test_memory_stays_one_chunk(self, tmp_path):
        """Reading 2,000 records at m = 100 holds the records and one chunk's
        text: well under the file's size, which reading it whole exceeds."""
        path = tmp_path / "dump.txt"
        write_predictions(path, repeated(make_dump_records(50, 2, m=100, n=20), 2000),
                          master_seed=9, m=100, n=20)
        size = path.stat().st_size
        tracemalloc.start()
        try:
            records = parse_predictions(path)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert len(records) == 2000
        assert peak < 0.75 * size, (peak, size)
