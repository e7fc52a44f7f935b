import numpy as np
import pytest

from hmdn.errors import ShapeError
from hmdn.mdn import gradients, mixture_at, nll
from hmdn.numcore import Rng

from util import (
    affine_model,
    finite_diff_grads,
    grads_close,
    make_random_model,
    random_batch,
    reference_gradients,
)


def head_gradients(a_pi, a_sigma, a_mu, y, sigma_floor=1e-3):
    """Loss derivatives at the output layer for one sample with the given
    output activations, and the responsibilities: the output-bias gradient
    of ``gradients`` at B=1 on an affine model that spells out the
    activations, split as [d_a_pi | d_a_sigma | d_a_mu], with
    gamma = pi - d_a_pi. Returns (gamma, d_a_pi, d_a_sigma, d_a_mu)."""
    model = affine_model(a_pi, a_sigma, a_mu, sigma_floor)
    K, D = model.config.n_components, model.config.target_dim
    x = np.zeros((1, 1))
    d_a = gradients(model, (x, np.asarray(y, dtype=np.float64).reshape(1, D)))[-1][0]
    d_a_pi = d_a[:K]
    gamma = mixture_at(model, x[0]).pi - d_a_pi
    return gamma, d_a_pi, d_a[K : 2 * K], d_a[2 * K :].reshape(K, D)


class TestHeadGradients:
    def test_single_component_at_mean(self):
        # y exactly at the only component's mean: mu gradient vanishes,
        # sigma gradient equals D * gamma = D, pi gradient is zero
        for D in (1, 2, 3):
            a_mu = np.linspace(-1, 1, D).reshape(1, D)
            gamma, d_a_pi, d_a_sigma, d_a_mu = head_gradients([0.3], [0.2], a_mu, a_mu[0])
            assert gamma[0] == pytest.approx(1.0, abs=1e-15)
            assert np.allclose(d_a_mu, 0.0, atol=1e-15)
            assert d_a_sigma[0] == pytest.approx(float(D), rel=1e-12)
            assert d_a_pi[0] == pytest.approx(0.0, abs=1e-15)

    def test_equal_components_share_responsibility(self):
        for K in (2, 3, 5):
            gamma, *_ = head_gradients(np.zeros(K), np.zeros(K), np.tile([0.5, -0.5], (K, 1)),
                                       [0.1, 0.2])
            assert gamma == pytest.approx([1.0 / K] * K, rel=1e-12)

    def test_responsibilities_sum_to_one(self):
        rng = Rng(500)
        for _ in range(100):
            K = 1 + int(rng.uniform() * 5)
            D = 1 + int(rng.uniform() * 3)
            gamma, *_ = head_gradients(
                rng.uniform(K) * 6 - 3,
                rng.uniform(K) * 2 - 1,
                (rng.uniform(K * D) * 4 - 2).reshape(K, D),
                rng.uniform(D) * 4 - 2,
            )
            assert gamma.sum() == pytest.approx(1.0, abs=1e-9)
            assert np.all(gamma >= 0.0)

    def test_floored_sigma_has_zero_gradient(self):
        _, _, d_a_sigma, _ = head_gradients(np.zeros(2), np.array([-30.0, 0.0]), np.zeros((2, 1)),
                                            [0.4])
        assert d_a_sigma[0] == 0.0
        assert d_a_sigma[1] != 0.0


class TestWeightGradients:
    def test_matches_finite_differences_small_sweep(self):
        # a quick sweep; the acceptance suite runs the full 200-draw version
        rng = Rng(31)
        checked = 0
        for K in (1, 2, 5):
            for D in (1, 2, 3):
                seed = 1000 + 10 * K + D
                model = make_random_model(
                    seed,
                    input_dim=2,
                    n_components=K,
                    target_dim=D,
                    hidden=(4,),
                    random_standardize=True,
                )
                batch = random_batch(rng, model, 3)
                fd = finite_diff_grads(model, batch)
                an = gradients(model, batch)
                assert grads_close(an, fd), f"gradient mismatch for K={K}, D={D}"
                checked += 1
        assert checked == 9

    def test_matches_finite_differences_relu(self):
        rng = Rng(77)
        model = make_random_model(4242, n_components=2, target_dim=2, hidden=(5, 3), activation="relu")
        batch = random_batch(rng, model, 4)
        assert grads_close(gradients(model, batch), finite_diff_grads(model, batch))

    def test_matches_finite_differences_no_hidden_layer(self):
        rng = Rng(78)
        model = make_random_model(999, n_components=3, target_dim=1, hidden=())
        batch = random_batch(rng, model, 5)
        assert grads_close(gradients(model, batch), finite_diff_grads(model, batch))

    def test_matches_finite_differences_with_floor_active(self):
        # sigma_floor above exp(a_sigma) for roughly half the components
        rng = Rng(79)
        model = make_random_model(555, n_components=4, target_dim=2, hidden=(4,), sigma_floor=1.0)
        batch = random_batch(rng, model, 3)
        assert grads_close(gradients(model, batch), finite_diff_grads(model, batch))

    def test_gradient_shapes_match_weights(self):
        model = make_random_model(66)
        batch = random_batch(Rng(6), model, 2)
        gs = gradients(model, batch)
        assert len(gs) == len(model.weights)
        for g, w in zip(gs, model.weights):
            assert g.shape == w.shape

    def test_bit_identical_to_reference_backward(self):
        rng = Rng(80)
        for seed, kwargs in enumerate((
            dict(),
            dict(n_components=3, target_dim=1, hidden=()),
            dict(n_components=2, target_dim=2, hidden=(5, 3), activation="relu"),
            dict(n_components=4, target_dim=2, hidden=(4,), sigma_floor=1.0),
            dict(input_dim=3, n_components=5, target_dim=3, hidden=(6, 6), random_standardize=True),
            # the CLI's g1 and g2 shapes, then sums of 8 or more terms
            *(dict(n_components=K, target_dim=D, hidden=(4,))
              for K, D in ((5, 2), (3, 1), (8, 1), (9, 2), (12, 1), (3, 8), (2, 9))),
        )):
            model = make_random_model(700 + seed, **kwargs)
            for size in (1, 7):
                batch = random_batch(rng, model, size)
                for got, want in zip(gradients(model, batch), reference_gradients(model, batch)):
                    assert got.tobytes() == want.tobytes()

    def test_consecutive_calls_return_independent_arrays(self):
        model = make_random_model(67, hidden=(4, 4))
        rng = Rng(7)
        first = gradients(model, random_batch(rng, model, 5))
        kept = [g.copy() for g in first]
        second = gradients(model, random_batch(rng, model, 5))
        for g, k in zip(first, kept):
            assert np.array_equal(g, k)
            assert not any(np.shares_memory(g, h) for h in second)

    def test_empty_batch_rejected(self):
        model = make_random_model(1)
        empty = (np.zeros((0, 2)), np.zeros((0, 2)))
        with pytest.raises(ValueError):
            gradients(model, empty)
        with pytest.raises(ValueError):
            nll(model, empty)

    def test_batch_must_be_an_xy_pair_of_2d_arrays(self):
        model = make_random_model(1)
        x, y = np.zeros(2), np.zeros(2)
        with pytest.raises(ValueError, match=r"\(X, Y\) pair"):
            nll(model, [(x, y)])
        with pytest.raises(ShapeError, match="2-D"):
            gradients(model, (x, y))
