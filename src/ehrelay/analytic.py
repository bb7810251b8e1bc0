"""Ergodic-outage evaluators for the eight duplex/relay/harvesting variants.

Each scenario reduces to a threshold SNR v and then either to a closed
value or to a head term plus one integral over a fading distribution: the
six half-duplex variants share two integrands (one DF, one AF), the
full-duplex DF case is closed form and the full-duplex AF case is a single
finite-interval integral. `outages` evaluates many (cfg, scenario) pairs
with one batched quadrature per integrand kind; `outage` is a batch of one.
"""

from __future__ import annotations

import math

import numpy as np

from .lognormal import (XI, _standardize, _standardize_product, q_array, q_function,
                        sq_gain_cdf)
from .model import (OutageEstimate, Scenario, SystemConfig, af_snr_coefficients,
                    df_snr_coefficients, eh_time_gain, hop_losses, relay_noise_w, threshold_snr)
# integrate_lognormal_weighted stays importable here: bench/spans.py hooks this name
from .quadrature import integrate_lognormal_batch, integrate_lognormal_weighted  # noqa: F401


def _clamp01(p: float) -> float:
    # quadrature roundoff can leave the sum a few ulp outside [0, 1]
    return min(1.0, max(0.0, p))


# Tail terms whose provable bound (integrand <= 1 times remaining weight
# mass) falls below this are dropped instead of integrated: the adaptive
# rule cannot resolve a super-exponential ramp spanning 30 decades, and
# every tolerance downstream is at least four orders of magnitude larger.
_NEGLIGIBLE_TAIL = 1e-9

# Per integrand kind, the threshold x(z, *coefs) that a squared gain must
# clear given the integration variable z (a zero denominator is where it
# diverges). The outage adds the integral of the lower tail Q(-u) to a head
# term, with u the dB value of x standardized by (m, s): HD integrates the
# second hop Y over the first hop X, FD-AF the product X*Y over the
# loop-back W.
_KINDS = {
    "hd-df": lambda z, v, k2: v / (k2 * z),
    "hd-af": lambda z, a, b, c, v: v * c / np.maximum(a * z - v * b, 0.0),
    "fd-af": lambda w, k, v, scale: scale * (1.0 / k + w) / np.maximum(1.0 - k * v * w, 0.0),
}


def _reduce(cfg: SystemConfig, scenario: Scenario):
    """The outage of one pair as a closed value, or as (kind, head, weight,
    lower, upper, (m, s, unit, *coefs)): head + unit * the integral (see _KINDS)."""
    v = threshold_snr(scenario, cfg.cth)
    if v == 0.0:
        return 0.0
    if math.isinf(v):
        return 1.0
    if scenario.duplex == "fd" and scenario.relay == "df":
        # The relay link is loop-back limited (gamma_r = k1/W) and the
        # destination sees Z = X*Y, so the link fails when W > k1/v (p_w) or
        # Z < v/k2 (p_z), independently. Both are tails Q(-u) on standardized
        # dB coordinates, and p_w + p_z - p_w*p_z keeps their relative
        # precision where 1 - (1 - p_w)(1 - p_z) would round to 0.
        k1, k2 = df_snr_coefficients(cfg, scenario)
        p_w = q_function(-(XI * math.log(v / k1) + 2.0 * cfg.chg.mu_db) / (2.0 * cfg.chg.sigma_db))
        p_z = q_function(-_standardize_product(v / k2, cfg.ch1, cfg.ch2))
        return _clamp01(p_w + p_z - p_w * p_z)
    if scenario.duplex == "fd":
        # Beyond W = 1/(k*v) the amplified interference makes outage certain
        # (the head Pr{W > upper}); below it Z = X*Y must clear a W-dependent
        # threshold. Summing both failure events, not subtracting success from
        # 1, keeps the relative precision of a tiny outage.
        k = eh_time_gain(cfg, scenario)
        upper = 1.0 / (k * v)
        if sq_gain_cdf(upper, cfg.chg) <= _NEGLIGIBLE_TAIL:
            return 1.0  # essentially no loop-back realization survives the cutoff
        lp1, lp2 = hop_losses(cfg)
        scale = lp1 * lp2 * v * relay_noise_w(cfg, scenario) / cfg.ps_watts
        # The integrand is at least its value at W = 0, Pr{Z < scale/k}.
        # Integrated in units of that floor, the fixed absolute tolerance
        # acts as a relative one where the outage is tiny.
        unit = max(q_function(-_standardize_product(scale / k, cfg.ch1, cfg.ch2)), 1e-300)
        return ("fd-af", q_function(_standardize(upper, cfg.chg)), cfg.chg, 0.0, upper,
                (2.0 * (cfg.ch1.mu_db + cfg.ch2.mu_db),
                 2.0 * math.hypot(cfg.ch1.sigma_db, cfg.ch2.sigma_db), unit, k, v, scale))
    # HD: outage is certain when the first hop X misses `lower` (DF: k1*X < v;
    # AF, with gamma_d = A*X*Y/(B*Y + C): X <= v*B/A), otherwise the second
    # hop Y must miss the threshold given X
    if scenario.relay == "df":
        k1, k2 = df_snr_coefficients(cfg, scenario)
        lower, coefs = v / k1, (v, k2)
    else:
        a, b, c = af_snr_coefficients(cfg, scenario)
        lower, coefs = v * b / a, (a, b, c, v)
    head = sq_gain_cdf(lower, cfg.ch1)
    if q_function(_standardize(lower, cfg.ch1)) <= _NEGLIGIBLE_TAIL:
        return _clamp01(head)
    return (f"hd-{scenario.relay}", head, cfg.ch1, lower, math.inf,
            (2.0 * cfg.ch2.mu_db, 2.0 * cfg.ch2.sigma_db, 1.0, *coefs))


def outages(pairs) -> list[float]:
    """Analytic outage of every (cfg, scenario) pair; one quadrature batch per kind."""
    values = [_reduce(cfg, scenario) for cfg, scenario in pairs]
    for kind, threshold in _KINDS.items():
        todo = [i for i, r in enumerate(values) if isinstance(r, tuple) and r[0] == kind]
        if not todo:
            continue
        _, heads, weights, lowers, uppers, params = zip(*(values[i] for i in todo))
        m, s, unit, *coefs = np.array(params).T

        def integrand(z, k):
            with np.errstate(divide="ignore"):
                x = threshold(z, *(col[k] for col in coefs))
            return q_array(-((XI * np.log(x) - m[k]) / s[k])) / unit[k]

        tails = integrate_lognormal_batch(integrand, weights, lowers, uppers)
        for i, head, u, tail in zip(todo, heads, unit, tails):
            values[i] = _clamp01(head + float(u * tail))
    return values


def outage(cfg: SystemConfig, scenario: Scenario) -> OutageEstimate:
    """Analytic outage of one scenario, any variant."""
    return OutageEstimate(outages([(cfg, scenario)])[0], "analytic")
