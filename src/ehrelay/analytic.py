"""Ergodic-outage evaluators for the eight duplex/relay/harvesting variants.

Each evaluator reduces its scenario to a threshold SNR v and integrates the
fading distributions directly: the six half-duplex variants share two
quadrature kernels (one DF, one AF), the full-duplex DF case is closed
form and the full-duplex AF case is a single finite-interval quadrature.
"""

from __future__ import annotations

import math

from .lognormal import XI, _standardize, product_ccdf, q_function, sq_gain_cdf
from .model import (
    OutageEstimate,
    Scenario,
    SystemConfig,
    hop_losses,
    df_snr_coefficients,
    eh_time_gain,
    relay_noise_w,
    threshold_snr,
    af_snr_coefficients,
)
from .quadrature import DEFAULT_QUAD, QuadSpec, integrate_lognormal_weighted


def _require(scenario: Scenario, duplex: str, relay: str) -> None:
    if scenario.duplex != duplex or scenario.relay != relay:
        raise ValueError(
            f"expected a {duplex}-{relay} scenario, got {scenario.label()}"
        )


def _clamp01(p: float) -> float:
    # quadrature roundoff can leave the sum a few ulp outside [0, 1]
    return min(1.0, max(0.0, p))


# Tail terms whose provable bound (integrand <= 1 times remaining weight
# mass) falls below this are dropped instead of integrated: the adaptive
# rule cannot resolve a super-exponential ramp spanning 30 decades, and
# every tolerance downstream is at least four orders of magnitude larger.
_NEGLIGIBLE_TAIL = 1e-9


def _upper_tail(x: float, ch) -> float:
    # weight mass above x, accurate deep into the tail
    return q_function(_standardize(x, ch))


def hd_df_outage(cfg: SystemConfig, scenario: Scenario,
                 quad: QuadSpec = DEFAULT_QUAD) -> OutageEstimate:
    """Half-duplex decode-and-forward outage (TSR, PSR or IRR).

    Decomposes over the first hop: outage is certain when the relay SNR
    k1*X misses v, and otherwise requires the second hop k2*X*Y to miss it.
    """
    _require(scenario, "hd", "df")
    v = threshold_snr(scenario, cfg.cth)
    if v == 0.0:
        return OutageEstimate(0.0, "analytic")
    if math.isinf(v):
        return OutageEstimate(1.0, "analytic")
    k1, k2 = df_snr_coefficients(cfg, scenario)
    lower = v / k1
    head = sq_gain_cdf(lower, cfg.ch1)
    if _upper_tail(lower, cfg.ch1) <= _NEGLIGIBLE_TAIL:
        return OutageEstimate(_clamp01(head), "analytic")

    def dest_cdf(z: float) -> float:
        return sq_gain_cdf(v / (k2 * z), cfg.ch2)

    tail = integrate_lognormal_weighted(dest_cdf, cfg.ch1, lower=lower, spec=quad)
    return OutageEstimate(_clamp01(head + tail), "analytic")


def hd_af_outage(cfg: SystemConfig, scenario: Scenario,
                 quad: QuadSpec = DEFAULT_QUAD) -> OutageEstimate:
    """Half-duplex amplify-and-forward outage (TSR, PSR or IRR).

    With gamma_d = A*X*Y/(B*Y + C), outage is certain for X <= v*B/A and
    otherwise happens when Y < v*C/(A*X - v*B).
    """
    _require(scenario, "hd", "af")
    v = threshold_snr(scenario, cfg.cth)
    if v == 0.0:
        return OutageEstimate(0.0, "analytic")
    if math.isinf(v):
        return OutageEstimate(1.0, "analytic")
    a, b, c = af_snr_coefficients(cfg, scenario)
    lower = v * b / a
    head = sq_gain_cdf(lower, cfg.ch1)
    if _upper_tail(lower, cfg.ch1) <= _NEGLIGIBLE_TAIL:
        return OutageEstimate(_clamp01(head), "analytic")

    def dest_cdf(z: float) -> float:
        denom = a * z - v * b
        if denom <= 0.0:
            return 1.0  # limit from the right of the always-outage region
        return sq_gain_cdf(v * c / denom, cfg.ch2)

    tail = integrate_lognormal_weighted(dest_cdf, cfg.ch1, lower=lower, spec=quad)
    return OutageEstimate(_clamp01(head + tail), "analytic")


def fd_df_outage(cfg: SystemConfig, scenario: Scenario,
                 quad: QuadSpec = DEFAULT_QUAD) -> OutageEstimate:
    """Full-duplex decode-and-forward outage, closed form.

    The relay link is loop-back limited (gamma_r = k1/W) and the
    destination sees the product Z = X*Y, so the non-outage probability
    factors into a W-tail term and the product CCDF. No quadrature.
    """
    _require(scenario, "fd", "df")
    v = threshold_snr(scenario, cfg.cth)
    if v == 0.0:
        return OutageEstimate(0.0, "analytic")
    if math.isinf(v):
        return OutageEstimate(1.0, "analytic")
    k1, k2 = df_snr_coefficients(cfg, scenario)
    # Pr{W <= k1/v}, written on the standardized dB coordinate
    w_ok = q_function(
        (XI * math.log(v / k1) + 2.0 * cfg.chg.mu_db) / (2.0 * cfg.chg.sigma_db)
    )
    z_ok = product_ccdf(v / k2, cfg.ch1, cfg.ch2)
    return OutageEstimate(_clamp01(1.0 - w_ok * z_ok), "analytic")


def fd_af_outage(cfg: SystemConfig, scenario: Scenario,
                 quad: QuadSpec = DEFAULT_QUAD) -> OutageEstimate:
    """Full-duplex amplify-and-forward outage.

    Conditions on the loop-back gain W: beyond W = 1/(k*v) the amplified
    interference makes outage certain, below it the product Z = X*Y must
    clear a W-dependent threshold. The integrand vanishes smoothly at the
    upper endpoint, where the threshold diverges.
    """
    _require(scenario, "fd", "af")
    v = threshold_snr(scenario, cfg.cth)
    if v == 0.0:
        return OutageEstimate(0.0, "analytic")
    if math.isinf(v):
        return OutageEstimate(1.0, "analytic")
    k = eh_time_gain(cfg, scenario)
    upper = 1.0 / (k * v)
    if sq_gain_cdf(upper, cfg.chg) <= _NEGLIGIBLE_TAIL:
        # essentially no loop-back realization survives the cutoff
        return OutageEstimate(1.0, "analytic")
    lp1, lp2 = hop_losses(cfg)
    scale = lp1 * lp2 * v * relay_noise_w(cfg, scenario) / cfg.ps_watts

    def z_ccdf(w: float) -> float:
        rem = 1.0 - k * v * w
        if rem <= 0.0:
            return 0.0  # threshold diverges; survival probability vanishes
        return product_ccdf(scale * (1.0 / k + w) / rem, cfg.ch1, cfg.ch2)

    survive = integrate_lognormal_weighted(
        z_ccdf, cfg.chg, lower=0.0, upper=upper, spec=quad
    )
    return OutageEstimate(_clamp01(1.0 - survive), "analytic")


def outage(cfg: SystemConfig, scenario: Scenario,
           quad: QuadSpec = DEFAULT_QUAD) -> OutageEstimate:
    """Dispatch to the evaluator matching the scenario."""
    if scenario.duplex == "hd":
        if scenario.relay == "df":
            return hd_df_outage(cfg, scenario, quad)
        return hd_af_outage(cfg, scenario, quad)
    if scenario.relay == "df":
        return fd_df_outage(cfg, scenario, quad)
    return fd_af_outage(cfg, scenario, quad)
