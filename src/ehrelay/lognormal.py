"""Log-normal fading primitives in the decibel parameterization.

A channel amplitude h is log-normal when 10*log10(h) is Gaussian with mean
mu_db and standard deviation sigma_db. Every formula below operates on the
squared gain h^2, whose dB value 10*log10(h^2) is Gaussian with mean
2*mu_db and standard deviation 2*sigma_db.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

# 10*log10(x) = XI * ln(x)
XI = 10.0 / math.log(10.0)

_SQRT2 = math.sqrt(2.0)


@dataclass(frozen=True)
class ChannelSpec:
    """Mean and standard deviation, in dB, of 10*log10(h) for one channel."""

    mu_db: float
    sigma_db: float

    def __post_init__(self):
        if not math.isfinite(self.mu_db):
            raise ValueError(f"mu_db must be finite, got {self.mu_db}")
        if not (math.isfinite(self.sigma_db) and self.sigma_db > 0):
            raise ValueError(f"sigma_db must be > 0, got {self.sigma_db}")


def elementwise(fn, *args):
    """fn(*args) for scalar args; for numpy arrays of one shape, a float64
    array of fn on their elements. Every math-library call that may meet an
    array (log, hypot, erfc, non-integer powers) goes through here, so that
    an array gives bit for bit the floats its elements give alone: numpy's
    SIMD log, power and hypot differ from libm in the last bit on some
    inputs."""
    if not isinstance(args[0], np.ndarray):
        return fn(*args)
    flat = [a.ravel().tolist() for a in args]
    return np.fromiter(map(fn, *flat), np.float64, args[0].size).reshape(args[0].shape)


def q_function(x):
    """Upper-tail probability of the standard normal distribution, elementwise
    over an array."""
    return 0.5 * elementwise(math.erfc, x / _SQRT2)


# N/D approximates erfcx(y)*(1 + y)/2 in t = y/(y + 2) for y in [0, 28], within
# 5.4e-15 relative in float64: the fit printed by tools/fit_q.py (lowest degree first)
_Q_NUM = (0.5, -1.4335652329713349, 1.8091037246153174, -0.7227067448013383,
          -0.9075774474958936, 1.652427443206499, -1.2370997138658821, 0.5307844981185214,
          -0.12529388161238228, 0.013317232220400146)
_Q_DEN = (1.0, -2.6103721317519772, 3.718247651676262, -3.1996129231889556,
          1.9373360893878442, -0.7724802987555156, 0.23414151487063656, -0.03481191139536151,
          0.007262807957332267, 0.00171898908453302)
_Y_MAX = 28.0  # the end of the fit; from y = 27.3 on, exp(-y*y) is 0 in float64
_HIGH_BITS = np.int64(-1 << 32)  # a float64's sign, exponent and top 20 mantissa bits


def _horner(coefs, t):
    # highest degree first, in place on one new array
    acc = t * coefs[-1]
    acc += coefs[-2]
    for c in coefs[-3::-1]:
        acc *= t
        acc += c
    return acc


def q_vector(x):
    """Q(x) = erfc(y)/2 with y = x/sqrt(2), as a float64 array of x's shape,
    in whole-array numpy operations. y is the argument q_function gives libm.
    For y >= 0 the result is exp(-y^2) * N(t) / (D(t) * (1 + y)) with t =
    y/(y + 2) and N/D the degree-(9, 9) rational fitted by tools/fit_q.py
    (y is clamped to 28, where the result is 0), and Q(x) = 1 - Q(-x) below
    0. It is within 1e-13 of erfc(y)/2, relative where that is >= 1e-300
    and absolute below, but not bit for bit q_function. Each element's
    value is computed alone: it does not depend on the shape, strides or
    other elements of x."""
    with np.errstate(all="ignore"):  # Q(x) underflows for large x, as x/sqrt(2) for tiny x
        y = np.divide(x, _SQRT2, out=np.empty(np.shape(x)))
        shape, a = y.shape, y.reshape(-1)  # at least 1-d: ufuncs give 0-d results as scalars
        lower = np.copysign(0.5, a)
        np.subtract(0.5, lower, out=lower)  # 1 where x < 0 (or -0.0), else 0
        np.abs(a, out=a)
        np.minimum(a, _Y_MAX, out=a)  # inf -> 28; NaN stays NaN
        t = a + 2.0
        np.divide(a, t, out=t)
        q = _horner(_Q_NUM, t)
        den = _horner(_Q_DEN, t)
        q /= den
        np.add(a, 1.0, out=den)
        q /= den
        # exp(-a*a) split as in fdlibm's erfc: z keeps the high bits of a, so
        # z*z is exact and (z - a)*(z + a) = z*z - a*a is small
        z = den
        np.bitwise_and(a.view(np.int64), _HIGH_BITS, out=z.view(np.int64))
        np.subtract(z, a, out=t)
        a += z
        t *= a
        q *= np.exp(t, out=t)
        # exp(-z*z) as exp(-z*z/2)**2: numpy's exp takes about 100 times longer
        # on a lane whose result underflows; a product that underflows does not
        z *= z
        z *= -0.5
        np.exp(z, out=z)
        z *= z
        q *= z
        # |0 - q| = q for x >= 0, |1 - q| = 1 - q below
        np.subtract(lower, q, out=q)
        return np.abs(q, out=q).reshape(shape)


def _standardize(x, ch: ChannelSpec):
    # dB coordinate of x relative to the squared-gain Gaussian
    return (XI * elementwise(math.log, x) - 2.0 * ch.mu_db) / (2.0 * ch.sigma_db)


def sq_gain_cdf(x: float, ch: ChannelSpec) -> float:
    """CDF of the squared gain h^2 at x > 0, as the lower tail Q(-u): precise far below
    the median, where 1 - Q(u) would round to 0."""
    if x <= 0:
        raise ValueError(f"x must be > 0, got {x}")
    return q_function(-_standardize(x, ch))


def sq_gain_pdf(x: float, ch: ChannelSpec) -> float:
    """Density of the squared gain h^2 at x > 0."""
    if x <= 0:
        raise ValueError(f"x must be > 0, got {x}")
    u = XI * math.log(x) - 2.0 * ch.mu_db
    var8 = 8.0 * ch.sigma_db**2
    return XI / (x * math.sqrt(math.pi * var8)) * math.exp(-(u * u) / var8)


def product_ccdf(x: float, ch1: ChannelSpec, ch2: ChannelSpec) -> float:
    """CCDF of the product of two independent squared gains at x > 0.

    In the dB domain the product is a sum of independent Gaussians, so the
    combined standard deviation adds in quadrature: 2*sqrt(s1^2 + s2^2).
    """
    if x <= 0:
        raise ValueError(f"x must be > 0, got {x}")
    return q_function(_standardize_product(x, ch1, ch2))


def product_db_moments(ch1: ChannelSpec, ch2: ChannelSpec):
    """Mean and standard deviation of the dB value of the product of two
    independent squared gains."""
    return 2.0 * (ch1.mu_db + ch2.mu_db), 2.0 * elementwise(math.hypot, ch1.sigma_db, ch2.sigma_db)


def _standardize_product(x, ch1: ChannelSpec, ch2: ChannelSpec):
    # dB coordinate of x relative to the product's Gaussian
    mean, std = product_db_moments(ch1, ch2)
    return (XI * elementwise(math.log, x) - mean) / std


def sample_sq_gain(ch: ChannelSpec, rng: np.random.Generator, size=None, out=None):
    """Draw `size` squared gains h^2 = exp(g/XI) with g Gaussian in dB, or
    fill the float64 array `out` in place (it is returned). Identical
    generator state yields identical draws either way: g = 2*mu_db +
    2*sigma_db*n for the standard normals n, the same ones `rng.normal`
    would use.
    """
    if size is None and out is None:
        raise TypeError("sample_sq_gain needs `size` or `out`")
    scale, shift = 2.0 * ch.sigma_db / XI, 2.0 * ch.mu_db / XI
    n = rng.standard_normal(size, out=out)
    # gains outside the float64 range are reported by model.FadeSample, not as warnings
    with np.errstate(over="ignore", invalid="ignore"):
        np.multiply(n, scale, out=n)
        np.add(n, shift, out=n)
        return np.exp(n, out=n)
