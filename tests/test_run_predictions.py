"""The block prediction kernel against the per-record loop it replaced."""

import math
import warnings

import numpy as np
import pytest

from hmdn.numcore import Rng
from hmdn.pipeline import (
    _BLOCK_ROWS,
    HmdnPipeline,
    baseline_samples,
    predict,
    run_predictions,
    write_predictions,
)

from util import (
    make_random_model,
    reference_baseline_samples,
    reference_predict,
    reference_run_predictions,
    reference_write_predictions,
)


def make_pipeline(seed, dim, k, activation, hidden, m, n, k2=None):
    """g1 maps 3 inputs to ``dim`` coordinates, g2 maps those to one value."""
    g1 = make_random_model(
        seed, input_dim=3, target_dim=dim, n_components=k, hidden=hidden,
        activation=activation, random_standardize=True,
    )
    g2 = make_random_model(
        seed + 1, input_dim=dim, target_dim=1, n_components=k2 or 1 + (k + 1) % 5, hidden=hidden,
        activation=activation, random_standardize=True,
    )
    return HmdnPipeline(g1=g1, g2=g2, n_candidates=m, n_selected=n)


def make_inputs(seed, n_records, dim, all_fallback_condition=False):
    rng = Rng(seed)
    features = (rng.uniform(n_records * 3) * 4 - 2).reshape(n_records, 3)
    truths = (rng.uniform(n_records * dim) * 10).reshape(n_records, dim)
    lux = {"sunny": rng.uniform(n_records) * 4 - 2, "cloudy": rng.uniform(n_records) * 4 - 2}
    if all_fallback_condition:
        lux["dark"] = np.full(n_records, math.inf)
    return features, truths, lux


def run_both(pipe, inputs, record_ids, weighted):
    with warnings.catch_warnings():
        warnings.simplefilter("ignore", RuntimeWarning)
        got = run_predictions(pipe, *inputs, record_ids, 77, weighted=weighted)
        want = reference_run_predictions(pipe, *inputs, record_ids, 77, weighted=weighted)
    return got, want


def same_bits(a, b):
    a, b = np.asarray(a), np.asarray(b)
    return a.dtype == b.dtype and a.shape == b.shape and a.tobytes() == b.tobytes()


def record_arrays(r):
    h = r.hmdn
    return (r.truth, r.z, r.baseline_samples, r.baseline_estimate,
            h.estimate, h.candidates, h.scores, h.selected_indices)


def assert_records_identical(got, want):
    assert len(got) == len(want)
    for g, w in zip(got, want):
        assert (g.record_id, g.condition) == (w.record_id, w.condition)
        assert g.hmdn.underflow_fallback == w.hmdn.underflow_fallback
        assert g.hmdn.weighted == w.hmdn.weighted
        for a, b in zip(record_arrays(g), record_arrays(w)):
            assert same_bits(a, b), (g.record_id, g.condition)


def assert_records_own_their_arrays(records):
    arrays = [a for r in records for a in record_arrays(r)]
    assert all(a.flags.owndata for a in arrays)
    # owning arrays that are distinct objects cannot overlap in memory
    assert len({id(a) for a in arrays}) == len(arrays)


def assert_same_dump(tmp_path, got, want, m, n):
    write_predictions(tmp_path / "new.txt", got, master_seed=77, m=m, n=n)
    reference_write_predictions(tmp_path / "ref.txt", want, master_seed=77, m=m, n=n)
    assert (tmp_path / "new.txt").read_bytes() == (tmp_path / "ref.txt").read_bytes()


class TestMatchesReferenceLoop:
    @pytest.mark.parametrize("dim", [1, 2, 3])
    @pytest.mark.parametrize("activation", ["tanh", "relu"])
    @pytest.mark.parametrize("hidden", [(), (8, 8)])
    @pytest.mark.parametrize("weighted", [False, True])
    def test_random_pipelines(self, tmp_path, dim, activation, hidden, weighted):
        for k in range(1, 6):
            seed = 100 * dim + 10 * k + len(hidden)
            pipe = make_pipeline(seed, dim, k, activation, hidden, m=9, n=4)
            inputs = make_inputs(seed, 6, dim, all_fallback_condition=(k == 3))
            got, want = run_both(pipe, inputs, range(6), weighted)
            assert_records_identical(got, want)
            assert_records_own_their_arrays(got)
            if k == 3:
                assert all(r.hmdn.underflow_fallback for r in got if r.condition == "dark")
            assert_same_dump(tmp_path, got, want, 9, 4)

    @pytest.mark.parametrize("m", [100, 5000])
    def test_record_counts_around_the_block_size(self, tmp_path, m):
        # _BLOCK_ROWS // M records per block (40 at M = 100 and 4096 rows),
        # and 1 for any M above _BLOCK_ROWS; the CLI's layer shapes, where one
        # product over all the rows of several records would round
        # differently from per-record products
        block = max(1, _BLOCK_ROWS // m)
        pipe = make_pipeline(7, 2, 5, "tanh", (64, 64), m=m, n=20, k2=3)
        n_records = 2 * block + 3
        inputs = make_inputs(7, n_records, 2)
        for count in sorted({1, block - 1, block, block + 1, 2 * block + 3} - {0}):
            got, want = run_both(pipe, inputs, range(count), weighted=False)
            assert_records_identical(got, want)
            assert_records_own_their_arrays(got)
        assert_same_dump(tmp_path, got, want, m, 20)

    def test_mixtures_of_eight_or_more_components(self, tmp_path):
        # sums over 9 g1 and 8 g2 components, which numpy adds pairwise
        pipe = make_pipeline(13, 2, 9, "tanh", (8, 8), m=30, n=5, k2=8)
        inputs = make_inputs(13, 5, 2)
        got, want = run_both(pipe, inputs, range(5), weighted=False)
        assert_records_identical(got, want)
        assert_same_dump(tmp_path, got, want, 30, 5)

    def test_duplicate_and_unsorted_record_ids(self, tmp_path):
        pipe = make_pipeline(11, 2, 4, "relu", (8, 8), m=30, n=5)
        inputs = make_inputs(11, 8, 2)
        ids = [5, 2, 5, 0, 7, 2, 2, 1]
        got, want = run_both(pipe, inputs, ids, weighted=True)
        assert [r.record_id for r in got] == ids + ids
        assert_records_identical(got, want)
        assert_records_own_their_arrays(got)
        assert_same_dump(tmp_path, got, want, 30, 5)

    def test_no_records(self):
        pipe = make_pipeline(3, 2, 2, "tanh", (), m=5, n=2)
        assert run_predictions(pipe, *make_inputs(3, 4, 2), [], 77) == []


class TestSingleRecordCalls:
    """predict and baseline_samples are one-record calls into the block
    kernel; they keep the per-record results and advance their generator as
    the per-record sampler did."""

    @pytest.mark.parametrize("dim", [1, 2, 3])
    @pytest.mark.parametrize("weighted", [False, True])
    def test_match_reference(self, dim, weighted):
        for k in range(1, 6):
            pipe = make_pipeline(40 + k, dim, k, "tanh", (8, 8), m=13, n=5)
            x = Rng(k).uniform(3) * 2 - 1
            for z in ([0.3], [math.inf]):
                a, b = Rng(900 + k), Rng(900 + k)
                a.uniform(3)
                b.uniform(3)
                with warnings.catch_warnings():
                    warnings.simplefilter("ignore", RuntimeWarning)
                    got = predict(pipe, x, z, a, weighted=weighted)
                    want = reference_predict(pipe, x, z, b, weighted=weighted)
                assert got.underflow_fallback == want.underflow_fallback == (z[0] == math.inf)
                for name in ("estimate", "candidates", "scores", "selected_indices"):
                    assert same_bits(getattr(got, name), getattr(want, name)), name
                assert a.next_u64() == b.next_u64()
                assert same_bits(baseline_samples(pipe.g1, x, a, 13),
                                 reference_baseline_samples(pipe.g1, x, b, 13))
                assert same_bits(baseline_samples(pipe.g1, x, a, 7).mean(axis=0),
                                 reference_baseline_samples(pipe.g1, x, b, 7).mean(axis=0))
                assert a.next_u64() == b.next_u64()


class TestFallbackReporting:
    def test_one_warning_per_condition_with_the_count(self):
        pipe = make_pipeline(5, 2, 2, "tanh", (8, 8), m=10, n=3)
        features, truths, lux = make_inputs(5, 7, 2)
        lux["cloudy"][[1, 4, 6]] = math.inf
        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always")
            records = run_predictions(pipe, features, truths, lux, range(7), 77)
        messages = [str(w.message) for w in caught if w.category is RuntimeWarning]
        assert messages == [
            "3 of 7 predictions under cloudy fell back to the mean of all candidates"
        ]
        assert [r.record_id for r in records if r.hmdn.underflow_fallback] == [1, 4, 6]

    def test_single_record_predict_keeps_its_warning(self):
        pipe = make_pipeline(5, 2, 2, "tanh", (8, 8), m=10, n=3)
        with pytest.warns(RuntimeWarning, match="all candidate scores are non-finite"):
            est = predict(pipe, [0.1, 0.2, 0.3], [math.inf], Rng(1))
        assert est.underflow_fallback
