"""Distribution primitives against independent oracles.

The Q-function, libm's and numpy's, is checked against an arbitrary-precision
erfc (mpmath); the CDF/CCDF formulas are checked against empirical frequencies
from the seeded sampler, which shares no code with them beyond the
ChannelSpec fields.
"""

import math

import mpmath
import numpy as np
import pytest

from ehrelay.lognormal import (
    _SQRT2,
    XI,
    ChannelSpec,
    product_ccdf,
    q_function,
    q_vector,
    sample_sq_gain,
    sq_gain_cdf,
    sq_gain_pdf,
)

CH = ChannelSpec(mu_db=3.0, sigma_db=2.0)


def q_oracle(x: float) -> float:
    """High-precision reference via the complementary error function."""
    with mpmath.workdps(50):
        return float(0.5 * mpmath.erfc(mpmath.mpf(x) / mpmath.sqrt(2)))


class TestQFunction:
    def test_half_at_zero(self):
        assert q_function(0.0) == 0.5

    def test_lower_tail_saturates(self):
        assert abs(q_function(-30.0) - 1.0) <= 1e-15

    def test_frozen_value(self):
        # frozen from q_oracle(1.96) at 50 digits
        assert q_function(1.96) == pytest.approx(0.024997895148220434, abs=1e-16)

    def test_relative_error_within_eight_sigmas(self):
        for x in np.linspace(-8.0, 8.0, 161):
            ref = q_oracle(float(x))
            assert abs(q_function(float(x)) - ref) <= 1e-12 * ref

    def test_far_tail_floor(self):
        assert 0.0 <= q_function(40.0) <= 1e-300

    def test_complement_identity(self):
        rng = np.random.default_rng(11)
        for x in rng.uniform(-10, 10, 200):
            assert q_function(x) + q_function(-x) == pytest.approx(1.0, abs=1e-12)

    def test_strictly_decreasing(self):
        xs = np.linspace(-6, 6, 200)
        qs = [q_function(float(x)) for x in xs]
        assert all(a > b for a, b in zip(qs, qs[1:]))


    def test_q_function_of_an_array_equals_its_elements_bit_for_bit(self):
        x = np.array([[0.0, -0.0, 40.0, -40.0, np.inf],
                      [-np.inf, np.nan, 1.96, -7.5, 1e-300]])
        expected = np.array([[q_function(float(v)) for v in row] for row in x])
        got = q_function(x)
        assert got.shape == x.shape and got.dtype == np.float64
        assert np.array_equal(got.view(np.uint64), expected.view(np.uint64))


def q_at_argument(x: float) -> float:
    """erfc(y)/2 at the float y = x/sqrt(2) that q_function passes to libm."""
    with mpmath.workdps(50):
        return float(mpmath.erfc(mpmath.mpf(x / _SQRT2)) / 2)


class TestQVector:
    # the integrand's arguments span -56..12.3 in a figure pass
    GRID = np.linspace(-56.0, 38.0, 9401)

    def test_within_1e_13_of_exact_q_at_its_argument(self):
        ref = np.array([q_at_argument(x) for x in self.GRID])
        got = q_vector(self.GRID)
        normal = ref >= 1e-300
        assert np.all(np.abs(got[normal] - ref[normal]) <= 1e-13 * ref[normal])
        assert np.all(np.abs(got[~normal] - ref[~normal]) <= 1e-300)

    def test_as_close_to_q_oracle_as_libm(self):
        # q_oracle divides the exact x by sqrt(2). Rounding x/sqrt(2) alone
        # moves Q by up to about 2*y^2*2^-53 relative, 1.5e-13 at x = 37, so
        # q_function misses a plain 1e-13 bound there too; q_vector may add
        # 1e-13 to libm's error
        ref = np.array([q_oracle(x) for x in self.GRID])
        libm = np.array([q_function(x) for x in self.GRID])
        got = q_vector(self.GRID)
        normal = ref >= 1e-300
        bound = 1e-13 * ref[normal] + np.abs(libm[normal] - ref[normal])
        assert np.all(np.abs(got[normal] - ref[normal]) <= bound)
        assert np.all(np.abs(got[~normal] - ref[~normal]) <= 1e-300)

    @pytest.mark.parametrize("x, expected", [(0.0, 0.5), (-0.0, 0.5), (math.inf, 0.0),
                                             (-math.inf, 1.0), (1e308, 0.0), (-1e308, 1.0),
                                             (5e-324, 0.5), (-5e-324, 0.5)])
    def test_exact_values(self, x, expected):
        with np.errstate(all="raise"):
            got = q_vector(x)
            assert got.shape == () and got == expected
            assert q_vector(np.array([x, 1.0]))[0] == expected

    def test_nan_gives_nan(self):
        with np.errstate(all="raise"):
            assert np.isnan(q_vector(math.nan))
            assert np.isnan(q_vector(np.array([1.0, math.nan]))[1])

    def test_each_element_is_computed_alone(self):
        # a batch of integrals equals its batches of one bit for bit only if
        # an element's Q does not depend on the array it sits in; 10,752 is
        # the quadrature's largest integrand call (512 panels of 21 nodes)
        rng = np.random.default_rng(17)
        flat = np.concatenate((rng.uniform(-56.0, 38.0, 10_744),
                               [0.0, -0.0, math.inf, -math.inf, math.nan, 37.9, -37.9, 1e-300]))
        rng.shuffle(flat)
        alone = np.array([q_vector(v) for v in flat])
        grid = flat.reshape(21, 512)
        for x, expected in ((flat, alone),
                            (grid, alone.reshape(21, 512)),
                            (grid.T, alone.reshape(21, 512).T),
                            (flat[5::3], alone[5::3]),
                            (grid[:, ::-7], alone.reshape(21, 512)[:, ::-7])):
            got = q_vector(x)
            assert got.shape == x.shape
            assert np.array_equal(got.view(np.uint64), expected.view(np.uint64))


class TestSqGainCdf:
    def test_median(self):
        median = 10 ** (2 * CH.mu_db / 10)
        assert sq_gain_cdf(median, CH) == pytest.approx(0.5, abs=1e-15)

    def test_lower_limit(self):
        assert sq_gain_cdf(1e-280, ChannelSpec(3, 2)) <= 1e-12

    def test_monotone_nondecreasing(self):
        xs = np.sort(np.random.default_rng(5).uniform(1e-3, 1e3, 500))
        vals = [sq_gain_cdf(float(x), CH) for x in xs]
        assert all(b >= a for a, b in zip(vals, vals[1:]))

    def test_matches_standardized_q_bit_for_bit(self):
        for x in (0.3, 1.0, 4.0, 25.0, 400.0):
            u = (XI * math.log(x) - 2.0 * CH.mu_db) / (2.0 * CH.sigma_db)
            assert sq_gain_cdf(x, CH) == q_function(-u)

    @pytest.mark.parametrize("x", [1e-3, 1e-2])
    def test_lower_tail_relative_precision(self, x):
        # 1e-3 sits 9 sigma below the median, where 1 - Q(u) rounds to 0
        ch = ChannelSpec(3, 2)
        with mpmath.workdps(50):
            u = (10 * mpmath.log10(mpmath.mpf(x)) - 2 * ch.mu_db) / (2 * ch.sigma_db)
            ref = float(mpmath.ncdf(u))
        assert abs(sq_gain_cdf(x, ch) - ref) <= 1e-12 * ref

    def test_against_empirical_cdf(self):
        # 1e7 sampler draws; binomial 3-sigma tolerance at the probe point
        n = 10**7
        draws = sample_sq_gain(CH, np.random.default_rng(101), n)
        p = sq_gain_cdf(10.0, CH)
        emp = np.count_nonzero(draws <= 10.0) / n
        assert abs(emp - p) <= 3.0 * math.sqrt(p * (1.0 - p) / n)

    def test_domain_error(self):
        with pytest.raises(ValueError):
            sq_gain_cdf(0.0, CH)
        with pytest.raises(ValueError):
            sq_gain_cdf(-1.0, CH)


class TestSqGainPdf:
    def test_normalizes_to_one(self):
        # transform to the dB coordinate where the density is Gaussian
        ts = np.linspace(2 * CH.mu_db - 24 * CH.sigma_db, 2 * CH.mu_db + 24 * CH.sigma_db, 400001)
        zs = np.exp(ts / XI)
        vals = np.array([sq_gain_pdf(z, CH) * z / XI for z in zs])
        assert np.trapezoid(vals, ts) == pytest.approx(1.0, abs=1e-9)

    @pytest.mark.parametrize("x", [0.5, 1.0, 4.0, 20.0])
    def test_is_derivative_of_cdf(self, x):
        h = 1e-6 * x
        num = (sq_gain_cdf(x + h, CH) - sq_gain_cdf(x - h, CH)) / (2 * h)
        assert num == pytest.approx(sq_gain_pdf(x, CH), rel=1e-6)

    def test_mode_location(self):
        # stationarity of the log-density: XI*ln(x*) = 2*mu - 4*sigma^2/XI
        x_star = math.exp((2 * CH.mu_db - 4 * CH.sigma_db**2 / XI) / XI)
        peak = sq_gain_pdf(x_star, CH)
        assert peak >= sq_gain_pdf(x_star * (1 + 1e-4), CH)
        assert peak >= sq_gain_pdf(x_star * (1 - 1e-4), CH)

    def test_domain_error(self):
        with pytest.raises(ValueError):
            sq_gain_pdf(0.0, CH)


class TestProductCcdf:
    def test_median_of_product(self):
        ch1, ch2 = ChannelSpec(3, 2), ChannelSpec(5, 1)
        x = 10.0 ** (2 * (ch1.mu_db + ch2.mu_db) / 10.0)
        assert product_ccdf(x, ch1, ch2) == pytest.approx(0.5, abs=1e-15)

    def test_equal_sigma_collapses_to_sum_form(self):
        # at sigma1 == sigma2 the quadrature-sum denominator coincides with
        # sqrt(2)*(sigma1 + sigma2)
        ch = ChannelSpec(3, 2)
        for x in (1.0, 10.0, 300.0):
            u = (XI * math.log(x) - 4 * ch.mu_db) / (math.sqrt(2) * (2 * ch.sigma_db))
            assert product_ccdf(x, ch, ch) == pytest.approx(q_function(u), rel=1e-12)

    def test_against_sampled_products(self):
        n = 10**7
        rng = np.random.default_rng(202)
        z = sample_sq_gain(CH, rng, n) * sample_sq_gain(CH, rng, n)
        p = product_ccdf(50.0, CH, CH)
        emp = np.count_nonzero(z > 50.0) / n
        assert abs(emp - p) <= 3.0 * math.sqrt(p * (1.0 - p) / n)

    def test_unequal_channels_against_sampler(self):
        ch1, ch2 = ChannelSpec(3, 2), ChannelSpec(6, 1)
        n = 10**6
        rng = np.random.default_rng(203)
        z = sample_sq_gain(ch1, rng, n) * sample_sq_gain(ch2, rng, n)
        p = product_ccdf(100.0, ch1, ch2)
        emp = np.count_nonzero(z > 100.0) / n
        assert abs(emp - p) <= 3.0 * math.sqrt(p * (1.0 - p) / n)

    def test_domain_error(self):
        with pytest.raises(ValueError):
            product_ccdf(0.0, CH, CH)


class TestSampler:
    def test_db_moments(self):
        n = 10**6
        draws = sample_sq_gain(CH, np.random.default_rng(303), n)
        db = XI * np.log(draws)
        # 3-sigma band for the mean of 1e6 Gaussian draws
        assert abs(db.mean() - 2 * CH.mu_db) <= 3.0 * (2 * CH.sigma_db) / 1e3
        assert db.std() == pytest.approx(2 * CH.sigma_db, rel=0.01)

    def test_kolmogorov_smirnov_probes(self):
        n = 10**6
        draws = np.sort(sample_sq_gain(CH, np.random.default_rng(404), n))
        # alpha = 0.001 critical value of the KS statistic
        bound = 1.9495 / math.sqrt(n)
        for x in (0.5, 2.0, 4.0, 10.0, 40.0):
            emp = np.searchsorted(draws, x, side="right") / n
            assert abs(emp - sq_gain_cdf(x, CH)) <= bound

    def test_deterministic_for_fixed_seed(self):
        a = sample_sq_gain(CH, np.random.default_rng(9), 1000)
        b = sample_sq_gain(CH, np.random.default_rng(9), 1000)
        assert np.array_equal(a, b)

    def test_in_place_draw_matches_allocated(self):
        rng_a, rng_b = np.random.default_rng(7), np.random.default_rng(7)
        for _ in range(2):  # the generator state advances the same way
            buf = np.empty(1000)
            assert sample_sq_gain(CH, rng_a, out=buf) is buf
            assert np.array_equal(buf, sample_sq_gain(CH, rng_b, 1000))

    def test_draw_needs_size_or_out(self):
        with pytest.raises(TypeError, match="needs `size` or `out`"):
            sample_sq_gain(CH, np.random.default_rng(7))


def test_channel_spec_validation():
    with pytest.raises(ValueError):
        ChannelSpec(3.0, 0.0)
    with pytest.raises(ValueError):
        ChannelSpec(3.0, -1.0)
    with pytest.raises(ValueError):
        ChannelSpec(math.nan, 1.0)


def test_standardized_coordinates_take_columns_bit_for_bit():
    # the analytic path standardizes float64 columns; each element must be the float
    # its row gives alone (numpy's SIMD log differs from libm's on about 9 inputs
    # per million, its hypot on about 0.6 %)
    from types import SimpleNamespace

    from ehrelay.lognormal import _standardize, product_db_moments

    rng = np.random.default_rng(23)
    n = 300_000
    x = np.exp(rng.uniform(-40.0, 40.0, n))
    mu, s1, s2 = rng.uniform(-10.0, 10.0, n), rng.uniform(0.1, 9.0, n), rng.uniform(0.1, 9.0, n)
    got = (_standardize(x, 2.0 * mu, 2.0 * s1),
           _standardize(x, *product_db_moments(SimpleNamespace(mu_db=mu, sigma_db=s1),
                                               SimpleNamespace(mu_db=-mu, sigma_db=s2))))
    ch1, ch2, want = SimpleNamespace(), SimpleNamespace(), ([], [])
    for v, m, a, b in zip(x.tolist(), mu.tolist(), s1.tolist(), s2.tolist()):
        ch1.mu_db, ch1.sigma_db, ch2.mu_db, ch2.sigma_db = m, a, -m, b
        want[0].append(_standardize(v, 2.0 * m, 2.0 * a))
        want[1].append(_standardize(v, *product_db_moments(ch1, ch2)))
    for g, w in zip(got, want):
        assert np.array_equal(g.view(np.uint64), np.array(w).view(np.uint64))
