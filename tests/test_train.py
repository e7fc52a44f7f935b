import math
import tracemalloc

import numpy as np
import pytest

from hmdn import mdn
from hmdn.errors import NumericError
from hmdn.mdn import MdnConfig, mixture_at, nll, sample, train
from hmdn.numcore import Rng

from util import reference_train


def sinusoid_dataset(n, seed):
    """x = y + 0.3 sin(2 pi y) + noise, y uniform on [0, 1]; inverse problem."""
    rng = Rng(seed)
    y = rng.uniform(n)
    x = y + 0.3 * np.sin(2 * np.pi * y) + rng.normals(n) * 0.05
    return x.reshape(-1, 1), y.reshape(-1, 1)


def sinusoid_roots(x_star=0.5):
    """Roots of y + 0.3 sin(2 pi y) = x_star by bisection (oracle)."""
    def f(y):
        return y + 0.3 * math.sin(2 * math.pi * y) - x_star

    def bisect(lo, hi):
        for _ in range(200):
            mid = 0.5 * (lo + hi)
            if f(lo) * f(mid) <= 0:
                hi = mid
            else:
                lo = mid
        return 0.5 * (lo + hi)

    return [bisect(0.1, 0.3), bisect(0.4, 0.6), bisect(0.7, 0.9)]


def constant_dataset(n=200, value=3.7, seed=5):
    rng = Rng(seed)
    X = (rng.uniform(n) * 4 - 2).reshape(-1, 1)
    Y = np.full((n, 1), value)
    return X, Y


class TestTrainConstantTarget:
    def test_recovers_constant_and_reaches_entropy_floor(self):
        X, Y = constant_dataset()
        cfg = MdnConfig(
            input_dim=1, target_dim=1, n_components=1, hidden_layers=(16,),
            learning_rate=5e-3, epochs=1500, seed=3,
        )
        model = train((X, Y), cfg)
        for x in (-1.5, 0.0, 1.9):
            p = mixture_at(model, [x])
            assert abs(p.mu[0, 0] - 3.7) <= 1e-2
        # analytic optimum of the Gaussian NLL for zero-spread data:
        # sigma pinned at the floor, mean at the constant
        floor_nll = 0.5 * math.log(2 * math.pi) + math.log(cfg.sigma_floor)
        final = model.training_log[-1]
        assert floor_nll - 1e-9 <= final <= floor_nll + 0.5


class TestTrainSinusoid:
    def test_captures_all_three_branches(self):
        X, Y = sinusoid_dataset(2000, 12345)
        cfg = MdnConfig(input_dim=1, target_dim=1, n_components=3, seed=7)
        model = train((X, Y), cfg)
        params = mixture_at(model, [0.5])
        draws = sample(params, 1000, Rng(99))
        for root in sinusoid_roots():
            frac = np.mean(np.abs(draws[:, 0] - root) <= 0.1)
            assert frac >= 0.10, f"branch at {root:.3f} attracted only {frac:.1%}"


class TestTrainMechanics:
    def test_mean_nll_invariant_under_batch_doubling(self):
        X, Y = sinusoid_dataset(64, 8)
        cfg = MdnConfig(input_dim=1, target_dim=1, n_components=2, hidden_layers=(8,), epochs=5, seed=1)
        model = train((X, Y), cfg)
        single = nll(model, (X, Y))
        doubled = nll(model, (np.vstack([X, X]), np.vstack([Y, Y])))
        assert doubled == pytest.approx(single, rel=1e-12)

    def test_same_seed_bit_identical_models(self, tmp_path):
        X, Y = sinusoid_dataset(128, 21)
        cfg = MdnConfig(input_dim=1, target_dim=1, n_components=2, hidden_layers=(8,), epochs=30, seed=9)
        m1 = train((X, Y), cfg)
        m2 = train((X, Y), cfg)
        assert m1.training_log == m2.training_log
        for w1, w2 in zip(m1.weights, m2.weights):
            assert np.array_equal(w1, w2)
        from hmdn.dataio import save_model

        p1, p2 = tmp_path / "m1", tmp_path / "m2"
        save_model(m1, p1)
        save_model(m2, p2)
        assert p1.read_bytes() == p2.read_bytes()

    def test_different_seed_different_models(self):
        X, Y = sinusoid_dataset(128, 21)
        base = dict(input_dim=1, target_dim=1, n_components=2, hidden_layers=(8,), epochs=5)
        m1 = train((X, Y), MdnConfig(**base, seed=1))
        m2 = train((X, Y), MdnConfig(**base, seed=2))
        assert not np.array_equal(m1.weights[0], m2.weights[0])

    def test_divergence_aborts_naming_epoch_and_batch(self):
        X, Y = constant_dataset(n=200)
        cfg = MdnConfig(
            input_dim=1, target_dim=1, n_components=1, hidden_layers=(8,),
            optimizer="sgd", learning_rate=1e12, epochs=3, seed=1,
        )
        with pytest.raises(NumericError, match=r"epoch \d+, batch \d+"):
            train((X, X), cfg)

    def test_early_stop_after_stalled_window(self):
        # with an infinitesimal learning rate nothing improves after epoch 1,
        # so training must stop exactly when the 50-epoch window closes
        X, Y = constant_dataset(n=64)
        cfg = MdnConfig(
            input_dim=1, target_dim=1, n_components=1, hidden_layers=(4,),
            learning_rate=1e-30, epochs=400, seed=2,
        )
        model = train((X, Y), cfg)
        assert len(model.training_log) == 51

    def test_log_ends_within_patience_of_best(self):
        X, Y = sinusoid_dataset(500, 3)
        cfg = MdnConfig(input_dim=1, target_dim=1, n_components=3, hidden_layers=(16,), epochs=400, seed=11)
        model = train((X, Y), cfg)
        log = np.array(model.training_log)
        assert len(log) - (int(np.argmin(log)) + 1) <= 50

    def test_training_data_dimension_checked(self):
        cfg = MdnConfig(input_dim=2, target_dim=1, n_components=1, hidden_layers=(4,), epochs=1)
        with pytest.raises(Exception):
            train((np.zeros((10, 3)), np.zeros((10, 1))), cfg)

    def test_empty_dataset_rejected(self):
        cfg = MdnConfig(input_dim=1, target_dim=1, n_components=1, epochs=1)
        with pytest.raises(ValueError):
            train((np.zeros((0, 1)), np.zeros((0, 1))), cfg)


def assert_same_as_reference(dataset, cfg):
    got, want = train(dataset, cfg), reference_train(dataset, cfg)
    assert got.training_log == want.training_log
    for a, b in zip((*got.weights, got.input_mean, got.input_std),
                    (*want.weights, want.input_mean, want.input_std)):
        assert a.tobytes() == b.tobytes()
    return got


def two_input_dataset(n, target_dim, seed):
    rng = Rng(seed)
    X = (rng.uniform(2 * n) * 4 - 2).reshape(n, 2)
    Y = np.sin(X[:, :1] * np.arange(1, target_dim + 1)) + 0.1 * rng.normals(n * target_dim).reshape(n, -1)
    return X, Y


class TestMatchesReferenceLoop:
    """The flat-buffer training step against the per-array loop in tests/util.py."""

    @pytest.mark.parametrize("activation", ["tanh", "relu"])
    @pytest.mark.parametrize("optimizer", ["adam", "sgd"])
    @pytest.mark.parametrize("hidden", [(), (8, 8)])
    @pytest.mark.parametrize("target_dim", [1, 2])
    def test_bit_identical_models(self, activation, optimizer, hidden, target_dim):
        # n = 150 with batches of 64: two full batches and a 22-row tail
        cfg = MdnConfig(
            input_dim=2, target_dim=target_dim, n_components=3, hidden_layers=hidden,
            hidden_activation=activation, optimizer=optimizer, learning_rate=1e-2,
            epochs=8, batch_size=64, seed=4,
        )
        assert_same_as_reference(two_input_dataset(150, target_dim, 17), cfg)

    # the CLI's g1 and g2 shapes, and shapes where a sum over components or
    # coordinates has 8 or more terms, which numpy adds pairwise
    @pytest.mark.parametrize("K, D", [(5, 2), (3, 1), (8, 1), (9, 2), (12, 1), (3, 8), (2, 9)])
    def test_bit_identical_at_head_shapes(self, K, D):
        cfg = MdnConfig(
            input_dim=2, target_dim=D, n_components=K, hidden_layers=(8,),
            learning_rate=1e-2, epochs=6, batch_size=64, seed=5,
        )
        assert_same_as_reference(two_input_dataset(150, D, 20 + K + D), cfg)

    def test_bit_identical_with_active_sigma_floor(self):
        # a floor above the pooled target spread clamps every deviation at first
        cfg = MdnConfig(
            input_dim=2, target_dim=2, n_components=3, hidden_layers=(8,),
            sigma_floor=2.0, epochs=8, seed=6,
        )
        model = assert_same_as_reference(two_input_dataset(150, 2, 18), cfg)
        assert np.any(mixture_at(model, [0.3, -0.2]).sigma == 2.0)

    def test_bit_identical_when_stopping_early(self):
        X, Y = constant_dataset(n=100)
        cfg = MdnConfig(
            input_dim=1, target_dim=1, n_components=2, hidden_layers=(4,),
            learning_rate=1e-30, epochs=400, seed=2,
        )
        model = assert_same_as_reference((X, Y), cfg)
        assert len(model.training_log) == 51

    def test_model_does_not_share_training_buffers(self, monkeypatch):
        flats = []

        def recording(flat, dims):
            flats.append(flat)
            return layer_views(flat, dims)

        layer_views = mdn._layer_views
        monkeypatch.setattr(mdn, "_layer_views", recording)
        X, Y = two_input_dataset(150, 1, 19)
        model = train((X, Y), MdnConfig(input_dim=2, target_dim=1, n_components=2,
                                         hidden_layers=(4,), epochs=2, seed=1))
        assert len(flats) == 2  # weights and gradients
        for a in (*model.weights, model.input_mean, model.input_std):
            assert not any(np.shares_memory(a, flat) for flat in flats)
            assert not np.shares_memory(a, X)


class TestStepWorkspace:
    @pytest.mark.parametrize("K, D", [(5, 2), (3, 1), (9, 2), (3, 8)])
    def test_steady_state_step_allocates_no_batch_sized_array(self, K, D):
        """A step on a built workspace writes every batch-sized result into
        the workspace: its allocation peak stays under one float64 per row,
        a K-th of one (B, K) array. numpy's ufuncs copy a broadcast operand
        through a buffer of at most 8,192 elements (64 KiB), whatever the
        batch size; the batch is large enough that any batch-sized array
        lies above that bound."""
        B = 16384
        cfg = MdnConfig(input_dim=2, target_dim=D, n_components=K, hidden_layers=(16, 16))
        X, Y = two_input_dataset(B, D, 24)
        weights = mdn._init_weights(cfg, Y, Rng(3))
        grads = [np.empty_like(w) for w in weights]
        ws = mdn._Workspace(cfg, B)
        np.copyto(ws.x, X)
        np.copyto(ws.yt, Y.T)
        with np.errstate(all="ignore"):
            mdn._backward(cfg, weights, ws.x, ws.yt, ws, grads)
            tracemalloc.start()
            try:
                mdn._backward(cfg, weights, ws.x, ws.yt, ws, grads)
                _, peak = tracemalloc.get_traced_memory()
            finally:
                tracemalloc.stop()
        assert peak < B * 8, peak
