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


def q_function(x: float) -> float:
    """Upper-tail probability of the standard normal distribution."""
    return 0.5 * math.erfc(x / _SQRT2)


def q_array(x: np.ndarray) -> np.ndarray:
    """q_function elementwise, bit for bit (math.erfc on every element)."""
    u = (x / _SQRT2).ravel().tolist()
    return 0.5 * np.fromiter(map(math.erfc, u), np.float64, len(u)).reshape(np.shape(x))


def _standardize(x: float, ch: ChannelSpec) -> float:
    # dB coordinate of x relative to the squared-gain Gaussian
    return (XI * math.log(x) - 2.0 * ch.mu_db) / (2.0 * ch.sigma_db)


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


def _standardize_product(x: float, ch1: ChannelSpec, ch2: ChannelSpec) -> float:
    # dB coordinate of x relative to the product's Gaussian
    mean = 2.0 * (ch1.mu_db + ch2.mu_db)
    std = 2.0 * math.hypot(ch1.sigma_db, ch2.sigma_db)
    return (XI * math.log(x) - mean) / std


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
    np.multiply(n, scale, out=n)
    np.add(n, shift, out=n)
    return np.exp(n, out=n)
