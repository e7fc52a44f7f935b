import numpy as np
import pytest

from hmdn.mdn import MixtureParams, sample
from hmdn.numcore import Rng

from util import reference_sample


class TestSample:
    def test_single_component_clt_bound(self):
        mu = np.array([[2.0, -1.0]])
        p = MixtureParams(pi=np.array([1.0]), sigma=np.array([1.5]), mu=mu)
        m = 4000
        draws = sample(p, m, Rng(17))
        bound = 4.0 * 1.5 / np.sqrt(m)
        assert np.all(np.abs(draws.mean(axis=0) - mu[0]) <= bound)

    def test_zero_probability_component_never_selected(self):
        p = MixtureParams(
            pi=np.array([1.0, 0.0]),
            sigma=np.array([0.1, 0.1]),
            mu=np.array([[0.0], [1000.0]]),
        )
        draws = sample(p, 1_000_000, Rng(23))
        assert np.all(draws < 500.0)

    def test_component_frequencies(self):
        p = MixtureParams(
            pi=np.array([0.3, 0.7]),
            sigma=np.array([0.5, 0.5]),
            mu=np.array([[0.0], [1000.0]]),
        )
        draws = sample(p, 100_000, Rng(31))
        frac_first = np.mean(draws[:, 0] < 500.0)
        assert abs(frac_first - 0.3) <= 0.01

    def test_fixed_seed_reproducible(self):
        p = MixtureParams(
            pi=np.array([0.5, 0.5]),
            sigma=np.array([1.0, 2.0]),
            mu=np.array([[0.0, 0.0], [5.0, 5.0]]),
        )
        assert np.array_equal(sample(p, 64, Rng(7)), sample(p, 64, Rng(7)))

    def test_sample_count_and_dim(self):
        p = MixtureParams(pi=np.array([1.0]), sigma=np.array([1.0]), mu=np.zeros((1, 3)))
        assert sample(p, 17, Rng(1)).shape == (17, 3)

    def test_zero_count_rejected(self):
        p = MixtureParams(pi=np.array([1.0]), sigma=np.array([1.0]), mu=np.zeros((1, 1)))
        with pytest.raises(ValueError):
            sample(p, 0, Rng(1))

    def test_bit_identical_to_reference_sampler(self):
        rng = Rng(404)
        for k in range(1, 6):
            for d in (1, 2, 3):
                pi = rng.uniform(k)
                if k > 1:
                    pi[k // 2] = 0.0  # a component that must never be chosen
                pi /= pi.sum()
                mu = rng.uniform(k * d).reshape(k, d)
                p = MixtureParams(pi=pi, sigma=rng.uniform(k) + 0.1, mu=mu)
                for m in (1, 2, 7, 100):
                    a, b = Rng(50 + m), Rng(50 + m)
                    assert sample(p, m, a).tobytes() == reference_sample(p, m, b).tobytes()
                    assert a.next_u64() == b.next_u64()
