import math

import numpy as np
import pytest

from hmdn.errors import DomainError, NumericError, ShapeError
from hmdn.mdn import MdnConfig, MdnModel, identity_model, mixture_at
from hmdn.numcore import Rng

from util import affine_model, make_random_model


def zero_model(input_dim=2, hidden=(3,), K=2, D=2):
    cfg = MdnConfig(input_dim=input_dim, target_dim=D, n_components=K, hidden_layers=hidden)
    ws = []
    for fan_in, fan_out in cfg.layer_dims():
        ws.append(np.zeros((fan_in, fan_out)))
        ws.append(np.zeros((1, fan_out)))
    return identity_model(cfg, ws)


def with_standardization(model, mean, std):
    return MdnModel(config=model.config, weights=model.weights, input_mean=mean, input_std=std)


class TestMdnModel:
    def test_rejects_non_finite_weights(self):
        m = zero_model()
        for bad in (float("nan"), float("inf")):
            ws = [w.copy() for w in m.weights]
            ws[2][0, 1] = bad
            with pytest.raises(NumericError):
                identity_model(m.config, ws)

    def test_weights_read_only(self):
        m = zero_model()
        for w in m.weights:
            with pytest.raises(ValueError):
                w[0, 0] = 5.0

    def test_weights_stored_as_c_contiguous_float64_copies(self):
        cfg = zero_model().config
        source = []
        for fan_in, fan_out in cfg.layer_dims():
            source.append(np.asfortranarray(np.ones((fan_in, fan_out), dtype=np.float32)))
            source.append(np.ones((1, fan_out), dtype=np.float32))
        m = identity_model(cfg, source)
        source[0][0, 0] = 7.0
        for w in m.weights:
            assert w.dtype == np.float64 and w.flags.c_contiguous
            assert np.all(w == 1.0)

    def test_shape_mismatch_names_both_shapes(self):
        m = zero_model()
        ws = list(m.weights)
        ws[0] = np.zeros((1, 3))
        with pytest.raises(ShapeError, match=r"\(2, 3\).*\(1, 3\)"):
            identity_model(m.config, ws)

    @pytest.mark.parametrize("edit, message", [
        (lambda ws: ws[:3], r"weight array 3: expected \(1, 8\), got none$"),
        (lambda ws: ws + [np.zeros((1, 4))],
         r"weight array 4: expected none, got \(1, 4\)$"),
    ], ids=["too-few", "too-many"])
    def test_array_count_mismatch_names_the_first_missing_or_extra_array(self, edit, message):
        m = zero_model()
        with pytest.raises(ShapeError, match=message):
            identity_model(m.config, edit(list(m.weights)))

    def test_rejects_bad_standardization(self):
        m = zero_model()
        nan, inf = float("nan"), float("inf")
        for mean, std in (
            ([nan, 0.0], [1.0, 1.0]),
            ([0.0, -inf], [1.0, 1.0]),
            ([0.0, 0.0], [nan, 1.0]),
            ([0.0, 0.0], [1.0, inf]),
            ([0.0, 0.0], [1.0, 0.0]),
            ([0.0, 0.0], [-1.0, 1.0]),
        ):
            with pytest.raises(DomainError):
                with_standardization(m, mean, std)


class TestForward:
    """The layers as seen through ``mixture_at``: mu is a_mu, and sigma is
    exp(a_sigma) wherever that lies above the floor."""

    def test_all_zero_weights_give_zero_activations(self):
        m = zero_model()
        p = mixture_at(m, [0.7, -1.3])
        assert np.all(p.pi == p.pi[0])
        assert np.all(p.sigma == 1.0)
        assert np.all(p.mu == 0.0)

    def test_hand_computed_single_hidden_layer(self):
        # 2 -> 2 tanh -> 4 outputs (K=1, D=2): a_pi, a_sigma, a_mu
        cfg = MdnConfig(input_dim=2, target_dim=2, n_components=1, hidden_layers=(2,))
        w0 = [[0.5, -0.25], [1.0, 0.75]]
        b0 = [[0.1, -0.2]]
        w1 = [[1.0, 0.0, -1.0, 2.0], [0.5, -0.5, 0.25, 0.0]]
        b1 = [[0.0, 0.1, 0.2, 0.3]]
        m = identity_model(cfg, [w0, b0, w1, b1])
        x = [0.3, -0.6]

        h = [
            math.tanh(0.3 * 0.5 + (-0.6) * 1.0 + 0.1),
            math.tanh(0.3 * -0.25 + (-0.6) * 0.75 - 0.2),
        ]
        a_sigma = h[0] * 0.0 + h[1] * -0.5 + 0.1
        a_mu = [h[0] * -1.0 + h[1] * 0.25 + 0.2, h[0] * 2.0 + h[1] * 0.0 + 0.3]
        p = mixture_at(m, x)
        assert p.pi[0] == 1.0
        assert p.sigma[0] == pytest.approx(math.exp(a_sigma), rel=1e-14)
        assert list(p.mu[0]) == pytest.approx(a_mu, rel=1e-14)

    def test_deterministic(self):
        m = make_random_model(5)
        x = [0.2, 0.9]
        p1, p2 = mixture_at(m, x), mixture_at(m, x)
        assert np.array_equal(p1.pi, p2.pi)
        assert np.array_equal(p1.sigma, p2.sigma)
        assert np.array_equal(p1.mu, p2.mu)

    def test_dimension_mismatch(self):
        with pytest.raises(ShapeError):
            mixture_at(make_random_model(1), [1.0, 2.0, 3.0])

    def test_standardization_applied(self):
        m = make_random_model(9, random_standardize=True)
        # feeding the stored mean must equal feeding zeros to an unstandardized twin
        p1 = mixture_at(m, m.input_mean)
        twin = make_random_model(9, random_standardize=False)
        p2 = mixture_at(twin, np.zeros(2))
        assert np.allclose(p1.mu, p2.mu, atol=1e-12)

    def test_relu_hidden(self):
        m = make_random_model(12, activation="relu")
        p = mixture_at(m, [0.4, -0.8])
        assert np.all(np.isfinite(p.pi))


class TestActivationsToParams:
    """The mixture transform, on affine models whose bias is the activations."""

    def test_uniform_pi_for_equal_activations(self):
        p = mixture_at(affine_model(np.zeros(3), np.zeros(3), np.zeros((3, 1))), [0.0])
        assert p.pi == pytest.approx([1 / 3] * 3, rel=1e-12)

    def test_exp_zero_is_unit_sigma(self):
        p = mixture_at(affine_model(np.zeros(2), np.zeros(2), np.zeros((2, 1))), [0.0])
        assert np.all(p.sigma == 1.0)

    def test_extreme_pi_no_overflow(self):
        m = affine_model(np.array([1000.0, 0.0]), np.zeros(2), np.zeros((2, 1)))
        p = mixture_at(m, [0.0])
        # high-precision reference: softmax([1000, 0]) = [1, e^-1000] / (1 + e^-1000)
        assert p.pi[0] == pytest.approx(1.0, abs=1e-15)
        assert p.pi[1] == pytest.approx(0.0, abs=1e-300)
        assert np.all(np.isfinite(p.pi))

    def test_sigma_floor_applied(self):
        m = affine_model(np.zeros(2), np.array([-50.0, 0.5]), np.zeros((2, 1)), sigma_floor=1e-3)
        p = mixture_at(m, [0.0])
        assert p.sigma[0] == 1e-3
        assert p.sigma[1] == pytest.approx(math.exp(0.5), rel=1e-15)

    def test_mu_identity(self):
        mu = np.array([[1.5, -2.5], [0.25, 9.0]])
        p = mixture_at(affine_model(np.zeros(2), np.zeros(2), mu), [0.0])
        assert np.array_equal(p.mu, mu)

    def test_softmax_shift_invariance(self):
        rng = Rng(88)
        for _ in range(50):
            a_pi = rng.uniform(4) * 20 - 10
            c = rng.uniform() * 100 - 50
            p0 = mixture_at(affine_model(a_pi, np.zeros(4), np.zeros((4, 1))), [0.0])
            p1 = mixture_at(affine_model(a_pi + c, np.zeros(4), np.zeros((4, 1))), [0.0])
            assert np.allclose(p0.pi, p1.pi, atol=1e-12)


class TestMixtureConstraints:
    def test_constraints_hold_over_random_inputs(self):
        m = make_random_model(77, input_dim=3, n_components=4, target_dim=2, hidden=(8, 8), weight_scale=2.0)
        rng = Rng(101)
        for _ in range(500):
            x = rng.uniform(3) * 10 - 5
            p = mixture_at(m, x)
            assert abs(p.pi.sum() - 1.0) <= 1e-9
            assert np.all(p.pi >= 0.0) and np.all(p.pi <= 1.0)
            assert np.all(p.sigma >= m.config.sigma_floor)
