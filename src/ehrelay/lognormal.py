"""Log-normal fading primitives in the decibel parameterization.

A channel amplitude h is log-normal when 10*log10(h) is Gaussian with mean
mu_db and standard deviation sigma_db. Every formula below operates on the
squared gain h^2, whose dB value 10*log10(h^2) is Gaussian with mean
2*mu_db and standard deviation 2*sigma_db.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass

import numpy as np

# 10*log10(x) = XI * ln(x)
XI = 10.0 / math.log(10.0)

_SQRT2 = math.sqrt(2.0)


def holds(ok) -> bool:
    """Whether `ok`, a bool or a bool array, is true everywhere."""
    return ok if type(ok) is bool else ok.all()


def finite_positive(x):
    """x > 0 and finite, elementwise over an array (False for NaN)."""
    return (x > 0) & (x < math.inf)


@dataclass(frozen=True)
class ChannelSpec:
    """Mean and standard deviation, in dB, of 10*log10(h) for one channel."""

    mu_db: float
    sigma_db: float

    def __post_init__(self):
        self.check(self)

    @staticmethod
    def check(c) -> None:
        """Raise the ValueError of the first check that c fails. c is an
        instance or a namespace of its fields, some of them float64 columns,
        which fails where any row does (see model.Columns.valid)."""
        if not holds((-math.inf < c.mu_db) & (c.mu_db < math.inf)):
            raise ValueError(f"mu_db must be finite, got {c.mu_db}")
        if not holds(finite_positive(c.sigma_db)):
            raise ValueError(f"sigma_db must be > 0, got {c.sigma_db}")


def elementwise(fn, *args):
    """fn(*args) for scalar args; where some are numpy arrays (of one shape),
    a float64 array of fn on their elements, a scalar arg standing for every
    element. Every math-library call that may meet an array (log, hypot,
    erfc, non-integer powers) goes through here, so that an array gives bit
    for bit the floats its elements give alone: numpy's SIMD log, power and
    hypot differ from libm in the last bit on some inputs."""
    if type(args[0]) is float is type(args[-1]):  # the common call, all floats (1 or 2 args)
        return fn(*args)
    array = args[0] if isinstance(args[0], np.ndarray) else args[-1]
    if not isinstance(array, np.ndarray):
        return fn(*args)
    flat = [a.ravel().tolist() if isinstance(a, np.ndarray) else itertools.repeat(a)
            for a in args]
    return np.fromiter(map(fn, *flat), np.float64, array.size).reshape(array.shape)


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


def _log(x):
    # math.log (an array's through elementwise), and its limit -inf at 0 (a threshold
    # that underflows), where math.log raises
    if not isinstance(x, np.ndarray):
        return -math.inf if x == 0.0 else math.log(x)
    zero = x == 0.0
    logs = elementwise(math.log, np.where(zero, 1.0, x))
    logs[zero] = -math.inf
    return logs


def _standardize(x, mean, std):
    # the dB value of x in standard deviations from `mean`, for a Gaussian dB value (mean, std)
    return (XI * _log(x) - mean) / std


def sq_gain_cdf(x: float, ch: ChannelSpec) -> float:
    """CDF of the squared gain h^2 at x > 0, as the lower tail Q(-u): precise far below
    the median, where 1 - Q(u) would round to 0."""
    if x <= 0:
        raise ValueError(f"x must be > 0, got {x}")
    return q_function(-_standardize(x, 2.0 * ch.mu_db, 2.0 * ch.sigma_db))


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
    return q_function(_standardize(x, *product_db_moments(ch1, ch2)))


def product_db_moments(ch1: ChannelSpec, ch2: ChannelSpec):
    """Mean and standard deviation of the dB value of the product of two
    independent squared gains."""
    return 2.0 * (ch1.mu_db + ch2.mu_db), 2.0 * elementwise(math.hypot, ch1.sigma_db, ch2.sigma_db)


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
