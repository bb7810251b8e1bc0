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


q_array = q_function  # the name integrands use for the array form


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
