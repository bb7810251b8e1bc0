"""High-precision references for the analytic outages, imported as conftest is:
`outage`, a pair's whole outage in mpmath from `model` alone, and `tail`, one
tail of `analytic._reduce` on its window by `mpmath.fp.quad` (tanh-sinh in
float64, where the library's rule is Gauss-Kronrod); and `binomial_tail`, the
exact two-sided tail of a Monte Carlo outage count under an outage value."""

import functools

import mpmath
import numpy as np

from ehrelay.analytic import _reduce
from ehrelay.model import Columns
from ehrelay.model import snr_coefficients, threshold_snr
from ehrelay.quadrature import TAIL_SIGMAS

# The gain the outer squared gain must clear given the integrated one: HD's second hop
# Y given the first hop X (DF: b = 0, c = 1), FD-AF's product X*Y given the loop-back
# gain W, and the same given R = 1/W, as _reduce integrates it (scale = v*c/a). Past a
# map's pole no outer gain clears it.
MAPS = {
    "hd": lambda z, a, b, c, v: v * c / (a * z - v * b),
    "fd-af": lambda w, k1, vb_a, scale: scale * (k1 + w) / (1 - vb_a * w),
    "fd-af-r": lambda r, k1, vb_a, scale: scale * (k1 * r + 1) / (r - vb_a),
}
# where `outage` splits its integral, in standard deviations past the window's finite
# edge, where the integrand can step; it splits at t = 0 too, where phi's mass lies
# however far the edge is: one interval can miss either and read decades low
STEPS = (1e-6, 1e-4, 1e-2, 0.1, 0.5, 1, 2, 4, 8)


def _integrand(ctx, kind, coefs, mean, std, m, s):
    """t -> phi(t) * Pr{an outer gain of dB moments (m, s) misses MAPS[kind] at the
    integrated gain of dB value mean + std*t}, in ctx (mpmath.mp or mpmath.fp)."""
    def f(t):
        try:
            x = MAPS[kind](10 ** ((mean + std * t) / 10), *coefs)
        except ZeroDivisionError:  # at the pole
            x = -1
        return ctx.npdf(t) * (ctx.ncdf((10 * ctx.log10(x) - m) / s) if x > 0 else 1)
    return f


def _moments(*hops):  # dB mean and deviation of the product of the hops' squared gains
    return (2 * mpmath.fsum(h.mu_db for h in hops),
            2 * mpmath.sqrt(mpmath.fsum(mpmath.mpf(h.sigma_db) ** 2 for h in hops)))


@functools.cache
def outage_at(cfg, scenario, dps):
    """The outage as an mpf at dps digits: the chance that the integrated gain misses
    its edge (HD: X below what the relay needs; FD: W above the loop-back cutoff
    k1/v), plus the integral of MAPS over the rest (FD-DF's is closed)."""
    with mpmath.workdps(dps):
        k1, a, b, c = (x if x is None else mpmath.mpf(x) for x in snr_coefficients(cfg, scenario))
        v = mpmath.mpf(threshold_snr(scenario, cfg.cth))
        if scenario.duplex == "hd":
            sign, kind, coefs = 1, "hd", (a, b, c, v)
            edge, inner, outer = (v * b / a if k1 is None else v / k1), [cfg.ch1], [cfg.ch2]
        else:
            sign, kind, coefs = -1, f"fd-{scenario.relay}", (k1, v * b / a, v * c / a)
            edge, inner, outer = k1 / v, [cfg.chg], [cfg.ch1, cfg.ch2]
        (mean, std), (m, s) = _moments(*inner), _moments(*outer)
        e = (10 * mpmath.log10(edge) - mean) / std
        head = mpmath.ncdf(sign * e)
        if kind == "fd-df":  # the destination fails where X*Y < v/a, whatever W is
            p = mpmath.ncdf((10 * mpmath.log10(v / a) - m) / s)
            return head + p - head * p
        cuts = [e, *(e + sign * d for d in STEPS), sign * mpmath.inf] + [0] * (sign * e < 0)
        return head + mpmath.quad(_integrand(mpmath.mp, kind, coefs, mean, std, m, s),
                                  sorted(cuts))


def digits(cfg, scenario):
    """`outage`'s digits: 15 more than the decades below 1 of the 30-digit outage, or 30."""
    return max(30, 15 + int(mpmath.ceil(-mpmath.log10(outage_at(cfg, scenario, 30)))))


def outage(cfg, scenario):
    return float(outage_at(cfg, scenario, digits(cfg, scenario)))


def tail(cfg, scenario):
    """(head, integral) as analytic._reduce splits the outage, the integral over
    _reduce's window cut to +-TAIL_SIGMAS; None where _reduce leaves none. FD-AF's
    map comes from the model's coefficients, not from _reduce's."""
    with np.errstate(all="ignore"):  # as in analytic.outages
        head, pending, columns = _reduce(Columns(cfg, scenario))
    if not columns or not pending[0]:
        return None
    mean, std, lo, hi, m, s, _, *coefs, _ = (float(np.broadcast_to(c, 1)[0]) for c in columns)
    kind = "hd"
    if scenario.duplex == "fd":
        (k1, a, b, c), v = snr_coefficients(cfg, scenario), threshold_snr(scenario, cfg.cth)
        kind, coefs = "fd-af-r", (k1, v * b / a, v * c / a)
    f = _integrand(mpmath.fp, kind, coefs, mean, std, m, s)
    return float(head[0]), mpmath.fp.quad(f, [max(-TAIL_SIGMAS, lo), min(TAIL_SIGMAS, hi)])


def _beta_reg(a: int, b: int, x: float, y: float) -> float:
    """The regularized incomplete beta I_x(a, b) for a, b >= 1 and 0 < x = 1 - y < 1,
    from its series of positive terms x^a y^b / (a B(a, b)) * sum_j x^j (a+b)_j/(a+1)_j,
    summed where they fall from the start: past x = (a+1)/(a+b+2) it is 1 - I_y(b, a).
    The sum is in float64, the prefactor in mpmath at 30 digits, as log B(a, b) is a
    difference of numbers near 10^6 at 10^5 trials. (mpmath.betainc sums a series of
    alternating terms there, whose cancellation defeats it at mid-range p.)"""
    if x > (a + 1) / (a + b + 2):
        return 1.0 - _beta_reg(b, a, y, x)
    term = total = 1.0
    j = 0
    while True:  # every later ratio is below this one, so the rest is below term*ratio/(1 - ratio)
        ratio = x * (a + b + j) / (a + 1 + j)
        term *= ratio
        total += term
        if term < total * 2.0**-53 * (1.0 - ratio):
            break
        j += 1
    with mpmath.workdps(30):
        log_beta = mpmath.loggamma(a) + mpmath.loggamma(b) - mpmath.loggamma(a + b)
        pre = mpmath.exp(a * mpmath.log(x) + b * mpmath.log(y) - mpmath.log(a) - log_beta)
    return float(pre) * total


def binomial_tail(k: int, n: int, p: float) -> float:
    """The exact two-sided tail 2*min(F(k), 1 - F(k - 1)), capped at 1, of an outage
    count k of n trials under Binomial(n, p), F being its CDF: F(k) = I_(1-p)(n-k, k+1)
    and 1 - F(k - 1) = I_p(k, n-k+1)."""
    q = 1.0 - p
    low = 1.0 if k == n or p == 0 else _beta_reg(n - k, k + 1, q, p)
    high = 1.0 if k == 0 or q == 0 else _beta_reg(k, n - k + 1, p, q)
    return min(1.0, 2.0 * min(low, high))
