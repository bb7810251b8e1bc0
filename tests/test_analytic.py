"""Analytic outage evaluators against the Monte Carlo oracle and limits."""

import math
from dataclasses import replace

import mpmath
import numpy as np
import pytest

from ehrelay import quadrature
from ehrelay.analytic import _Columns, _reduce, outage, outages
from ehrelay.lognormal import ChannelSpec, product_ccdf
from ehrelay.model import (Scenario, SystemConfig, df_snr_coefficients, eh_time_gain,
                           hop_losses, relay_noise_w, threshold_snr)
from ehrelay.montecarlo import McPlan, estimate_outage

CFG = SystemConfig()

ALL_SCENARIOS = [
    Scenario("hd", "df", "tsr", tau=0.5),
    Scenario("hd", "df", "psr", rho=0.5),
    Scenario("hd", "df", "irr"),
    Scenario("hd", "af", "tsr", tau=0.5),
    Scenario("hd", "af", "psr", rho=0.5),
    Scenario("hd", "af", "irr"),
    Scenario("fd", "df", "tsr", tau=0.5),
    Scenario("fd", "af", "tsr", tau=0.5),
]


@pytest.mark.parametrize("scenario", ALL_SCENARIOS, ids=lambda s: s.label())
def test_zero_threshold_means_zero_outage(scenario):
    cfg0 = replace(CFG, cth=0.0)
    assert outage(cfg0, scenario).value == 0.0


@pytest.mark.parametrize("label", ["hd-df-tsr", "hd-af-tsr", "fd-df-tsr", "fd-af-tsr"])
def test_vanishing_harvest_time_saturates(label):
    s = Scenario.from_label(label, tau=1e-6)
    assert outage(CFG, s).value > 0.999


@pytest.mark.parametrize("scenario", ALL_SCENARIOS, ids=lambda s: s.label())
def test_matches_monte_carlo(scenario):
    plan = McPlan(trials=10**6, seed=1729)
    analytic = outage(CFG, scenario).value
    mc = estimate_outage(CFG, scenario, plan)
    assert abs(analytic - mc.value) <= max(3 * mc.stderr, 1e-3)


def test_hd_df_tsr_against_ten_million_trials():
    s = Scenario("hd", "df", "tsr", tau=0.5)
    mc = estimate_outage(CFG, s, McPlan(trials=10**7, seed=271828))
    assert abs(outage(CFG, s).value - mc.value) <= 3 * mc.stderr


def test_fd_closed_form_and_quadrature_at_small_tau():
    # operating point of the rate-sweep experiments: tau = 0.01
    cfg = replace(CFG, chg=ChannelSpec(3.0, math.sqrt(5.0)))
    plan = McPlan(trials=10**7, seed=314159)
    for relay in ("df", "af"):
        s = Scenario("fd", relay, "tsr", tau=0.01)
        mc = estimate_outage(cfg, s, plan)
        assert abs(outage(cfg, s).value - mc.value) <= 3 * mc.stderr


def test_af_outage_decreases_with_power():
    vals = [
        outage(replace(CFG, ps_watts=ps), Scenario("hd", "af", "irr")).value
        for ps in (1.0, 10.0, 100.0)
    ]
    assert vals[0] > vals[1] > vals[2]


@pytest.mark.parametrize("scenario", ALL_SCENARIOS, ids=lambda s: s.label())
def test_monotone_in_threshold(scenario):
    vals = [outage(replace(CFG, cth=c), scenario).value for c in (0.5, 1.0, 2.0, 4.0)]
    assert all(b >= a - 1e-12 for a, b in zip(vals, vals[1:]))


@pytest.mark.parametrize("scenario", ALL_SCENARIOS, ids=lambda s: s.label())
def test_monotone_in_power(scenario):
    vals = [outage(replace(CFG, ps_watts=p), scenario).value for p in (0.5, 1.0, 5.0, 10.0)]
    assert all(b <= a + 1e-12 for a, b in zip(vals, vals[1:]))


def test_df_never_worse_than_af():
    for eh, param in (("tsr", "tau"), ("psr", "rho")):
        for p in np.linspace(0.1, 0.9, 9):
            kw = {param: float(p)}
            df = outage(CFG, Scenario("hd", "df", eh, **kw)).value
            af = outage(CFG, Scenario("hd", "af", eh, **kw)).value
            assert df <= af + 3e-3


def test_fuzz_values_stay_probabilities():
    rng = np.random.default_rng(8675309)
    for _ in range(1000):
        cfg = SystemConfig(
            ps_watts=float(rng.uniform(0.1, 20)),
            eta=float(rng.uniform(0.2, 1.0)),
            path_loss_exp=float(rng.uniform(1.5, 4.0)),
            d1_m=float(rng.uniform(1, 30)),
            d2_m=float(rng.uniform(1, 30)),
            sigma_a2_w=float(rng.uniform(1e-4, 0.05)),
            sigma_c2_w=float(rng.uniform(1e-4, 0.05)),
            sigma_d2_w=float(rng.uniform(1e-4, 0.05)),
            cth=float(rng.uniform(0.05, 6)),
            ch1=ChannelSpec(float(rng.uniform(-5, 10)), float(rng.uniform(0.3, 4))),
            ch2=ChannelSpec(float(rng.uniform(-5, 10)), float(rng.uniform(0.3, 4))),
            chg=ChannelSpec(float(rng.uniform(-5, 10)), float(rng.uniform(0.3, 4))),
        )
        tau = float(rng.uniform(0.02, 0.98))
        rho = float(rng.uniform(0.02, 0.98))
        for s in [
            Scenario("hd", "df", "tsr", tau=tau), Scenario("hd", "df", "psr", rho=rho),
            Scenario("hd", "df", "irr"), Scenario("hd", "af", "tsr", tau=tau),
            Scenario("hd", "af", "psr", rho=rho), Scenario("hd", "af", "irr"),
            Scenario("fd", "df", "tsr", tau=tau), Scenario("fd", "af", "tsr", tau=tau),
        ]:
            assert 0.0 <= outage(cfg, s).value <= 1.0


def test_fd_df_saturates_as_tau_approaches_one():
    s = Scenario("fd", "df", "tsr", tau=0.999)
    assert outage(CFG, s).value > 0.9999


def test_fd_af_degenerate_loop_back_reduces_to_product_threshold():
    # concentrate W at a negligible value: the truncation window never
    # binds and outage is governed by the product Z alone
    cfg = replace(CFG, chg=ChannelSpec(-40.0, 0.01))
    s = Scenario("fd", "af", "tsr", tau=0.5)
    got = outage(cfg, s).value
    k = eh_time_gain(cfg, s)
    v = threshold_snr(s, cfg.cth)
    w0 = 10 ** (2 * cfg.chg.mu_db / 10)
    gamma = 25 * 25 * v * 0.005 * (1 / k + w0) / (cfg.ps_watts * (1 - k * v * w0))
    want = 1.0 - product_ccdf(gamma, cfg.ch1, cfg.ch2)
    assert got == pytest.approx(want, abs=1e-4)


def test_loose_quadspec_is_accepted(monkeypatch):
    s = Scenario("hd", "df", "tsr", tau=0.5)
    tight = outage(CFG, s).value
    monkeypatch.setattr(quadrature, "REL_TOL", 1e-6)
    monkeypatch.setattr(quadrature, "ABS_TOL", 1e-9)
    loose = outage(CFG, s).value
    assert loose == pytest.approx(tight, rel=1e-5)


def test_fd_df_low_outage_keeps_relative_precision():
    # both failure events are rare here, so 1 - (1 - p_w)(1 - p_z) rounds to 0
    cfg = replace(CFG, cth=0.05, ps_watts=1000.0, chg=ChannelSpec(-15.0, math.sqrt(5.0)))
    s = Scenario("fd", "df", "tsr", tau=0.5)
    k1, k2 = df_snr_coefficients(cfg, s)
    v = threshold_snr(s, cfg.cth)
    with mpmath.workdps(50):
        xi = 10 / mpmath.log(10)
        # Pr{W > k1/v}: the loop-back gain swamps the relay
        p_w = mpmath.ncdf(-(xi * mpmath.log(mpmath.mpf(k1) / v) - 2 * cfg.chg.mu_db)
                          / (2 * mpmath.mpf(cfg.chg.sigma_db)))
        # Pr{X*Y < v/k2}: the product gain misses the destination threshold
        mean = 2 * (mpmath.mpf(cfg.ch1.mu_db) + cfg.ch2.mu_db)
        std = 2 * mpmath.sqrt(mpmath.mpf(cfg.ch1.sigma_db) ** 2 + mpmath.mpf(cfg.ch2.sigma_db) ** 2)
        p_z = mpmath.ncdf((xi * mpmath.log(mpmath.mpf(v) / k2) - mean) / std)
        want = float(p_w + p_z - p_w * p_z)
    assert 1e-18 < want < 1e-17
    assert abs(outage(cfg, s).value - want) <= 1e-9 * want


# FD-DF's low-outage point, where 1 - Pr{success} rounds to 0, and one whose
# narrow hops put the integrand's floor Pr{X*Y < x(0)} below 1e-308
@pytest.mark.parametrize("ps,hop", [(1000.0, ChannelSpec(3.0, 2.0)), (1e4, ChannelSpec(3.0, 0.5))])
def test_fd_af_low_outage_keeps_relative_precision(ps, hop):
    cfg = replace(CFG, cth=0.05, ps_watts=ps, ch1=hop, ch2=hop,
                  chg=ChannelSpec(-15.0, math.sqrt(5.0)))
    s = Scenario("fd", "af", "tsr", tau=0.5)
    got = outage(cfg, s).value
    assert got > 0.0
    assert got >= outage(cfg, replace(s, relay="df")).value
    k, v = eh_time_gain(cfg, s), threshold_snr(s, cfg.cth)
    lp1, lp2 = hop_losses(cfg)
    scale = lp1 * lp2 * v * relay_noise_w(cfg, s) / cfg.ps_watts
    with mpmath.workdps(30):
        xi = 10 / mpmath.log(10)
        mean_z = 2 * (mpmath.mpf(cfg.ch1.mu_db) + cfg.ch2.mu_db)
        std_z = 2 * mpmath.sqrt(mpmath.mpf(cfg.ch1.sigma_db) ** 2 + cfg.ch2.sigma_db**2)
        mean_w, std_w = 2 * mpmath.mpf(cfg.chg.mu_db), 2 * mpmath.mpf(cfg.chg.sigma_db)
        t_upper = -xi * mpmath.log(mpmath.mpf(k) * v)  # dB of W = 1/(k*v)

        def integrand(t):
            # Pr{X*Y < x(W)} times the density of W's dB value t
            w = mpmath.exp(t / xi)
            x = scale * (1 / mpmath.mpf(k) + w) / (1 - k * v * w)
            return (mpmath.ncdf((xi * mpmath.log(x) - mean_z) / std_z)
                    * mpmath.npdf(t, mean_w, std_w))

        # beyond W = 1/(k*v) outage is certain
        want = float(mpmath.ncdf(-(t_upper - mean_w) / std_w)
                     + mpmath.quad(integrand, [mean_w - 12 * std_w, mean_w, t_upper]))
    assert 1e-21 < want < 1e-16
    assert abs(got - want) <= 1e-6 * want


def branch(cfg, scenario):
    """Which rule of analytic._reduce settles the pair's outage."""
    v = threshold_snr(scenario, cfg.cth)
    if v == 0.0:
        return "cth = 0"
    if math.isinf(v):
        return "exponent >= 1024"
    if scenario.label() == "fd-af-tsr" and math.isinf(eh_time_gain(cfg, scenario) * v):
        return "fd-af cutoff 0"
    _, kind, pending, _ = _reduce(_Columns([cfg]), _Columns([scenario]))
    if kind is None:
        return "fd-df closed form"
    return f"{kind} integral" if pending[0] else f"{kind} no tail"


# 2**(1.023/0.001) - 1 is finite, but k*v overflows, so the loop-back cutoff 1/(k*v) is 0
FD_AF_CUTOFF_ZERO = (replace(CFG, cth=1.023), Scenario("fd", "af", "tsr", tau=0.999))


def test_fd_af_zero_cutoff_is_certain_outage():
    assert outages([FD_AF_CUTOFF_ZERO]) == [1.0]


def mixed_batch():
    """All eight variants, each at three settings, and pairs that reach every
    early exit of the reduction."""
    pairs = [(c, s) for s in ALL_SCENARIOS
             for c in (CFG, replace(CFG, ps_watts=10.0), replace(CFG, cth=0.75, d1_m=2.0))]
    pairs += [(replace(CFG, cth=0.0), ALL_SCENARIOS[3]), (replace(CFG, cth=0.0), ALL_SCENARIOS[7]),
              (replace(CFG, cth=600.0), ALL_SCENARIOS[1]),
              (replace(CFG, cth=700.0), ALL_SCENARIOS[6]),
              (replace(CFG, cth=20.0), ALL_SCENARIOS[0]),
              (replace(CFG, cth=20.0), ALL_SCENARIOS[4]),
              (replace(CFG, cth=10.0), ALL_SCENARIOS[7]),
              FD_AF_CUTOFF_ZERO,
              (CFG, Scenario("hd", "df", "psr", rho=0.3, pc_fraction=0.2)),
              (replace(CFG, ps_watts=10.0), Scenario("fd", "df", "tsr", tau=0.2, pc_fraction=0.1)),
              (CFG, Scenario("hd", "df", "irr", pc_fraction=0.05))]
    return pairs


def test_mixed_batch_equals_batches_of_one_bit_for_bit():
    pairs = mixed_batch()
    assert {s.label() for _, s in pairs} == {s.label() for s in ALL_SCENARIOS}
    assert {branch(c, s) for c, s in pairs} == {
        "cth = 0", "exponent >= 1024", "fd-df closed form", "fd-af cutoff 0", "fd-af no tail",
        "fd-af integral", "hd-df no tail", "hd-df integral", "hd-af no tail", "hd-af integral"}
    assert any(s.pc_fraction > 0 for _, s in pairs)
    batch = outages(pairs)
    assert list(map(float.hex, batch)) == [float.hex(outages([pair])[0]) for pair in pairs]


def test_params_column_equals_scenarios_with_that_parameter():
    pairs = [(c, s) for c, s in mixed_batch() if s.eh != "irr"]
    params = np.linspace(0.03, 0.97, len(pairs))[:, None]
    moved = outages([(c, s.with_eh_param(p)) for (c, s), (p,) in zip(pairs, params)])
    assert list(map(float.hex, outages(pairs, params)[:, 0])) == list(map(float.hex, moved))
    with pytest.raises(ValueError, match="no harvesting parameter"):
        outages([(CFG, ALL_SCENARIOS[2])], [[0.5]])
    for bad in (0.0, 1.0, float("nan")):
        with pytest.raises(ValueError, match=r"\(0, 1\)"):
            outages(pairs[:2], [[0.5], [bad]])
    for shape in ((1, 1), (2,), (2, 1, 1)):  # one row per pair and nothing else
        with pytest.raises(ValueError, match="a row of harvesting parameters per pair"):
            outages(pairs[:2], np.full(shape, 0.5))


def test_params_row_entries_equal_batches_of_one_bit_for_bit():
    pairs = [(c, s) for c, s in mixed_batch() if s.eh != "irr"]
    params = np.random.default_rng(5).uniform(0.01, 0.99, (len(pairs), 3))
    got = outages(pairs, params)
    alone = [[outages([(c, s.with_eh_param(p))])[0] for p in row]
             for (c, s), row in zip(pairs, params)]
    assert got.shape == params.shape and got.dtype == np.float64
    assert np.array_equal(got.view(np.uint64), np.array(alone).view(np.uint64))


def test_empty_batch():
    assert outages([]).tolist() == [] and outages([], np.empty((0, 3))).shape == (0, 3)
