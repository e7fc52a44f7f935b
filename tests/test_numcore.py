import math

import numpy as np
import pytest

from hmdn.mdn import MixtureParams, sample
from hmdn.numcore import (
    Rng,
    float_rows,
    log_sum_exp_cols,
    normals_from,
    positive_float,
    positive_int,
    real,
    seed64,
    splitmix64,
    sum_rows,
    u64_rows,
    uniforms_from,
    unit_fraction,
)

from util import reference_log_sum_exp_rows, reference_normals, reference_uniform

_M64 = (1 << 64) - 1


def reference_splitmix64(seed, n):
    """Scalar transcription of the published splitmix64 algorithm (oracle)."""
    state = seed
    out = []
    for _ in range(n):
        state = (state + 0x9E3779B97F4A7C15) & _M64
        z = state
        z = ((z ^ (z >> 30)) * 0xBF58476D1CE4E5B9) & _M64
        z = ((z ^ (z >> 27)) * 0x94D049BB133111EB) & _M64
        out.append(z ^ (z >> 31))
    return out


def log_sum_exp(v) -> float:
    """log_sum_exp_cols of v as a single column."""
    with np.errstate(divide="ignore"):
        return float(log_sum_exp_cols(np.asarray(v, dtype=np.float64).reshape(-1, 1))[0])


class TestLogSumExp:
    def test_two_zeros_is_ln2(self):
        assert log_sum_exp([0.0, 0.0]) == pytest.approx(math.log(2.0), rel=1e-15)

    def test_singleton_exact(self):
        for x in (0.0, -1234.5, 3.0e300, 1e-300):
            assert log_sum_exp([x]) == x

    def test_extreme_negatives_no_underflow(self):
        # high-precision reference: -1000 + ln(1 + e^-1)
        want = -1000.0 + math.log1p(math.exp(-1.0))
        got = log_sum_exp([-1000.0, -1001.0])
        assert got == pytest.approx(want, abs=1e-12)
        assert math.isfinite(got)

    def test_bounds_property(self):
        rng = Rng(5)
        for _ in range(200):
            n = 1 + int(rng.uniform() * 10)
            v = (rng.uniform(n) - 0.5) * 2000.0
            s = log_sum_exp(v)
            assert s >= np.max(v) - 1e-12
            assert s <= np.max(v) + math.log(n) + 1e-12

    def test_empty_rejected(self):
        with pytest.raises(ValueError):
            log_sum_exp_cols(np.empty((0, 1)))

    @pytest.mark.parametrize("n", range(1, 20))
    def test_columns_match_row_major_reference(self, n):
        # the (B, n) row-major formula the component-major layout replaced,
        # across numpy's switch to pairwise summation at 8 terms
        rng = Rng(60 + n)
        rows = (rng.uniform(13 * n).reshape(13, n) - 0.5) * 80.0
        rows[3] = -math.inf
        with np.errstate(divide="ignore"):
            got = log_sum_exp_cols(np.ascontiguousarray(rows.T))
        assert got.tobytes() == reference_log_sum_exp_rows(rows).tobytes()


class TestSumRows:
    @pytest.mark.parametrize("n", range(1, 20))
    @pytest.mark.parametrize("B", [1, 7, 64])
    def test_rounds_as_the_contiguous_reduction(self, n, B):
        # one after another below 8 terms, numpy's pairwise order from 8
        rng = Rng(1000 * B + n)
        runs = np.exp((rng.uniform(3 * B * n).reshape(3, B, n) - 0.5) * 30.0)
        want = np.add.reduce(runs, axis=-1)
        swap = np.empty(runs.size)
        for buffers in ({}, {"out": np.empty((3, B)), "swap": swap}):
            got = sum_rows(np.ascontiguousarray(np.swapaxes(runs, -1, -2)), **buffers)
            assert got.tobytes() == want.tobytes()
        assert sum_rows(np.ascontiguousarray(runs[0].T)).tobytes() == want[0].tobytes()


class TestRng:
    def test_matches_published_seed0_vector(self):
        # first words of the splitmix64 stream for seed 0, as published
        want = [0xE220A8397B1DCDAF, 0x6E789E6AA1B965F4, 0x06C45D188009454F]
        r = Rng(0)
        assert [r.next_u64() for _ in range(3)] == want

    def test_matches_reference_oracle(self):
        for seed in (0, 1, 42, 2**64 - 1, 987654321):
            r = Rng(seed)
            assert [r.next_u64() for _ in range(16)] == reference_splitmix64(seed, 16)

    def test_block_equals_scalar_stream(self):
        a, b = Rng(99), Rng(99)
        a.next_u64()
        b.next_u64()
        block = a.u64_block(17)
        scalars = [b.next_u64() for _ in range(17)]
        assert [int(x) for x in block] == scalars
        # streams stay aligned afterwards
        assert a.next_u64() == b.next_u64()

    def test_multi_seed_words_equal_per_generator_streams(self):
        seeds, counts = [0, 1, 42, 2**64 - 1, 987654321], [0, 3, 17, 5, 1]

        def advanced(seed, count):
            g = Rng(seed)
            g.u64_block(count)
            return g

        gens = [advanced(s, c) for s, c in zip(seeds, counts)]
        # 7 uniforms, then 13 normals from 7 Box-Muller pairs
        words = u64_rows(gens, 21)
        assert np.array_equal(words, splitmix64(seeds, counts, 21))
        for seed, count, row in zip(seeds, counts, words):
            assert [int(w) for w in row] == reference_splitmix64(seed, count + 21)[count:]
        u, z = uniforms_from(words[:, :7]), normals_from(words[:, 7:], 13)
        for i, (seed, count) in enumerate(zip(seeds, counts)):
            g = advanced(seed, count)
            assert u[i].tobytes() == g.uniform(7).tobytes()
            assert z[i].tobytes() == g.normals(13).tobytes()
            assert gens[i].next_u64() == g.next_u64()

    def test_one_seed_block_is_one_row(self):
        assert np.array_equal(splitmix64(7, 2, 9), splitmix64([7], [2], 9)[0])
        assert splitmix64(7, 2, 0).shape == (0,)

    def test_uniform_and_normals_match_reference_transcription(self):
        for seed in (0, 5, 2**64 - 1):
            for n in (1, 2, 7, 64, 1001):
                a, b = Rng(seed), Rng(seed)
                assert a.uniform(n).tobytes() == reference_uniform(b, n).tobytes()
                assert a.normals(n).tobytes() == reference_normals(b, n).tobytes()
                assert a.next_u64() == b.next_u64()

    def test_uniform_in_unit_interval(self):
        u = Rng(3).uniform(10000)
        assert np.all(u >= 0.0) and np.all(u < 1.0)

    def test_same_seed_same_stream(self):
        assert list(Rng(77).uniform(50)) == list(Rng(77).uniform(50))

    def test_spawn_children_are_stable_and_distinct(self):
        r = Rng(11)
        c1 = r.spawn("init")
        c2 = r.spawn("shuffle")
        assert c1.seed != c2.seed != r.seed
        assert Rng(11).spawn("init").seed == c1.seed
        assert r.spawn("stage", 0).seed != r.spawn("stage", 1).seed

    def test_permutation_is_permutation(self):
        p = Rng(8).permutation(100)
        assert sorted(p) == list(range(100))
        assert list(p) == list(Rng(8).permutation(100))

    def test_normals_moments(self):
        z = Rng(2024).normals(100000)
        assert abs(z.mean()) < 0.02
        assert 0.98 < z.std() < 1.02

    def test_normals_odd_count_prefix_of_even(self):
        a = Rng(4).normals(7)
        b = Rng(4).normals(8)
        assert np.array_equal(a, b[:7])


class TestGaussianSample:
    """Draws from one isotropic Gaussian: ``sample`` of a one-component mixture."""

    @staticmethod
    def gaussian(mu, sigma):
        mu = np.asarray(mu, dtype=np.float64)
        return MixtureParams(pi=np.array([1.0]), sigma=np.array([sigma]), mu=mu[None])

    def test_tiny_sigma_collapses_to_mu(self):
        mu = np.array([1.0, -2.0, 3.0])
        s = sample(self.gaussian(mu, 1e-300), 1, Rng(1))[0]
        assert np.allclose(s, mu, atol=1e-290)

    def test_monte_carlo_moments(self):
        r = Rng(31415)
        draws = np.concatenate([sample(self.gaussian([0.0], 1.0), 1000, r) for _ in range(100)])
        assert abs(draws.mean()) < 0.02
        assert 0.98 < draws.std() < 1.02

    def test_fixed_seed_identical_draws(self):
        a = sample(self.gaussian([1.0, 2.0], 0.5), 1, Rng(55))
        b = sample(self.gaussian([1.0, 2.0], 0.5), 1, Rng(55))
        assert np.array_equal(a, b)


class TestIntegerDomains:
    """Counts and seeds are read from ASCII decimal digits only; ``int``
    alone also takes digit-group underscores, blanks, signs and other
    scripts' digits, none of which a writer here writes."""

    @pytest.mark.parametrize("domain", [positive_int, seed64])
    @pytest.mark.parametrize("text", ["1_0", " 7 ", "7\n", "\u0664", "+7", "", "0x7", "7.0"])
    def test_text_other_than_ascii_digits_rejected(self, domain, text):
        with pytest.raises(ValueError):
            domain(text)

    @pytest.mark.parametrize("domain", [positive_int, seed64])
    def test_ascii_digits_and_numbers_pass(self, domain):
        assert domain("10") == domain(10) == domain(np.int64(10)) == 10

    def test_out_of_range_named_by_range(self):
        with pytest.raises(ValueError, match=r"'-3' is not an integer in 1..2\^31-1"):
            positive_int("-3")
        with pytest.raises(ValueError, match="'-1' is not a 64-bit unsigned integer"):
            seed64("-1")


class TestFloatText:
    """Floats are read back as numpy's C text reader reads them: ``real``
    one token at a time, ``float_rows`` a block of lines in one call."""

    @pytest.mark.parametrize("text", ["1_0", " 7 ", "7\n", "0.5\t", "\u0664", "\xa01", "", "x"])
    def test_spellings_float_alone_forgives_rejected(self, text):
        with pytest.raises(ValueError, match="could not convert string to float"):
            real(text)
        with pytest.raises(ValueError):
            float_rows([text + "\n"], "")

    @pytest.mark.parametrize("text", ["1e5", "+1", "-0", ".5", "5.", "nan", "-Infinity", "1E-3"])
    def test_writer_and_c_reader_spellings_pass(self, text):
        assert np.float64(real(text)).tobytes() == float_rows([text + "\n"], "")[0, 0].tobytes()

    def test_numbers_pass_as_they_are(self):
        assert real(2) == real(np.float64(2.0)) == real("2") == 2.0
        assert positive_float(1e-3) == 1e-3 and unit_fraction(0.5) == 0.5

    @pytest.mark.parametrize("domain", [positive_float, unit_fraction])
    @pytest.mark.parametrize("text", ["0.5_0", " 0.5", "0.5\t", "\u0660.5"])
    def test_float_domains_read_the_same_spelling(self, domain, text):
        with pytest.raises(ValueError, match="could not convert string to float"):
            domain(text)

    def test_rows_and_marked_columns(self):
        lines = ["a b 1 2 c=3\n", "a b -4 5e1 c=-inf\n"]
        got = float_rows(lines, "    =", usecols=[2, 3, 5])
        assert got.tolist() == [[1.0, 2.0, 3.0], [-4.0, 50.0, -np.inf]]
        assert float_rows(["1\n", "2\n"], "").shape == (2, 1)

    @pytest.mark.parametrize("lines, seps", [
        (["1 2\n"], ""), (["1\n"], " "), (["1  2\n"], " "), (["1 2 \n"], " "),
        (["1\n", "\n", "2\n"], ""), (["\n", "1\n"], ""), ([], ""), (["1\n2\n"], ""),
        (["1=2\n"], " "), (["1 2\n"], "="), (["1\x1f\n"], ""), (["1 2\r\n"], " "),
        (["1 2"], " "),
    ], ids=["extra-field", "missing-field", "doubled-space", "trailing-space", "blank-line",
            "leading-blank-line", "no-line", "two-lines-in-one", "mark-for-space",
            "space-for-mark", "control-byte", "carriage-return", "no-newline"])
    def test_other_separators_refused(self, lines, seps):
        with pytest.raises(ValueError):
            float_rows(lines, seps)
