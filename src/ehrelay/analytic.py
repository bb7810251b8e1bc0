"""Ergodic-outage evaluators for the eight duplex/relay/harvesting variants.

Each scenario reduces to a threshold SNR v and then either to a closed
value or to a head term plus one integral over a fading distribution: the
six half-duplex variants share two integrands (one DF, one AF), the
full-duplex DF case is closed form and the full-duplex AF case is a single
finite-interval integral. `outages` evaluates many (cfg, scenario) pairs
with one batched quadrature per integrand kind; every other evaluator is a
batch of one.
"""

from __future__ import annotations

import math

import numpy as np

from .lognormal import XI, _standardize, product_ccdf, q_array, q_function, sq_gain_cdf
from .model import (OutageEstimate, Scenario, SystemConfig, af_snr_coefficients,
                    df_snr_coefficients, eh_time_gain, hop_losses, relay_noise_w, threshold_snr)
# integrate_lognormal_weighted stays importable here: bench/spans.py hooks this name
from .quadrature import (DEFAULT_QUAD, QuadSpec, integrate_lognormal_batch,  # noqa: F401
                         integrate_lognormal_weighted)


def _clamp01(p: float) -> float:
    # quadrature roundoff can leave the sum a few ulp outside [0, 1]
    return min(1.0, max(0.0, p))


# Tail terms whose provable bound (integrand <= 1 times remaining weight
# mass) falls below this are dropped instead of integrated: the adaptive
# rule cannot resolve a super-exponential ramp spanning 30 decades, and
# every tolerance downstream is at least four orders of magnitude larger.
_NEGLIGIBLE_TAIL = 1e-9

# Per integrand kind: the threshold x(z, *coefs) given the integration
# variable z (a zero denominator is where it diverges), and the sign of the
# integral: HD adds the destination CDF Q(-u) over X to the head, FD-AF takes
# the product CCDF Q(u) over W from 1. u is x in dB, standardized by (m, s).
_KINDS = {
    "hd-df": (lambda z, v, k2: v / (k2 * z), 1.0),
    "hd-af": (lambda z, a, b, c, v: v * c / np.maximum(a * z - v * b, 0.0), 1.0),
    "fd-af": (lambda w, k, v, scale: scale * (1.0 / k + w) / np.maximum(1.0 - k * v * w, 0.0),
              -1.0),
}


def _reduce(cfg: SystemConfig, scenario: Scenario):
    """The outage of one pair as a closed value, or as (kind, head, weight,
    lower, upper, (m, s, *coefs)): head + sign * the integral (see _KINDS)."""
    v = threshold_snr(scenario, cfg.cth)
    if v == 0.0:
        return 0.0
    if math.isinf(v):
        return 1.0
    if scenario.duplex == "fd" and scenario.relay == "df":
        # The relay link is loop-back limited (gamma_r = k1/W) and the
        # destination sees Z = X*Y, so non-outage factors into Pr{W <= k1/v},
        # written on the standardized dB coordinate, times the product CCDF.
        k1, k2 = df_snr_coefficients(cfg, scenario)
        w_ok = q_function((XI * math.log(v / k1) + 2.0 * cfg.chg.mu_db) / (2.0 * cfg.chg.sigma_db))
        return _clamp01(1.0 - w_ok * product_ccdf(v / k2, cfg.ch1, cfg.ch2))
    if scenario.duplex == "fd":
        # Beyond W = 1/(k*v) the amplified interference makes outage certain;
        # below it Z = X*Y must clear a W-dependent threshold.
        k = eh_time_gain(cfg, scenario)
        upper = 1.0 / (k * v)
        if sq_gain_cdf(upper, cfg.chg) <= _NEGLIGIBLE_TAIL:
            return 1.0  # essentially no loop-back realization survives the cutoff
        lp1, lp2 = hop_losses(cfg)
        scale = lp1 * lp2 * v * relay_noise_w(cfg, scenario) / cfg.ps_watts
        return ("fd-af", 1.0, cfg.chg, 0.0, upper,
                (2.0 * (cfg.ch1.mu_db + cfg.ch2.mu_db),
                 2.0 * math.hypot(cfg.ch1.sigma_db, cfg.ch2.sigma_db), k, v, scale))
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
            (2.0 * cfg.ch2.mu_db, 2.0 * cfg.ch2.sigma_db, *coefs))


def outages(pairs, quad: QuadSpec = DEFAULT_QUAD) -> list[float]:
    """Analytic outage of every (cfg, scenario) pair; one quadrature batch per kind."""
    values = [_reduce(cfg, scenario) for cfg, scenario in pairs]
    for kind, (threshold, sign) in _KINDS.items():
        todo = [i for i, r in enumerate(values) if isinstance(r, tuple) and r[0] == kind]
        if not todo:
            continue
        _, heads, weights, lowers, uppers, params = zip(*(values[i] for i in todo))
        m, s, *coefs = np.array(params).T

        def integrand(z, k):
            with np.errstate(divide="ignore"):
                x = threshold(z, *(col[k] for col in coefs))
            return q_array(-sign * ((XI * np.log(x) - m[k]) / s[k]))

        tails = integrate_lognormal_batch(integrand, weights, lowers, uppers, [quad] * len(todo))
        for i, head, tail in zip(todo, heads, tails):
            values[i] = _clamp01(head + sign * float(tail))
    return values


def outage(cfg: SystemConfig, scenario: Scenario,
           quad: QuadSpec = DEFAULT_QUAD) -> OutageEstimate:
    """Analytic outage of one scenario, any variant."""
    return OutageEstimate(outages([(cfg, scenario)], quad)[0], "analytic")


def _evaluator(duplex: str, relay: str, doc: str):
    """outage() restricted to one duplex-relay pair; ValueError for any other."""
    def evaluate(cfg: SystemConfig, scenario: Scenario,
                 quad: QuadSpec = DEFAULT_QUAD) -> OutageEstimate:
        if scenario.duplex != duplex or scenario.relay != relay:
            raise ValueError(f"expected a {duplex}-{relay} scenario, got {scenario.label()}")
        return outage(cfg, scenario, quad)
    evaluate.__name__ = evaluate.__qualname__ = f"{duplex}_{relay}_outage"
    evaluate.__doc__ = doc
    return evaluate


hd_df_outage = _evaluator("hd", "df", "Half-duplex decode-and-forward outage (TSR, PSR or IRR).")
hd_af_outage = _evaluator("hd", "af", "Half-duplex amplify-and-forward outage (TSR, PSR or IRR).")
fd_df_outage = _evaluator("fd", "df", "Full-duplex decode-and-forward outage, closed form.")
fd_af_outage = _evaluator("fd", "af", "Full-duplex amplify-and-forward outage, one integral.")
