"""Analytic outage evaluators against the Monte Carlo oracle and limits."""

import math
from dataclasses import replace

import numpy as np
import pytest

import reference
from conftest import columns, load_tool
from ehrelay import analytic, quadrature
from ehrelay.analytic import _reduce, outage, outages
from ehrelay.cli import run_points
from ehrelay.grids import FIGURE_PRESETS, axis_curve, boundary_points, selftest_points
from ehrelay.lognormal import XI, ChannelSpec, product_ccdf, sq_gain_cdf
from ehrelay.model import (Columns, Scenario, SystemConfig, flat_fields, relay_budget, replaced,
                           snr_coefficients, threshold_snr)
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


# the relay's power or its share of the signal vanishes: by a short harvest time, or
# down to a power or share that underflows to 0, where the formulas meet log(0), 0/0
# and 1/0; the outage is then its limit, 1 (0 at cth = 0)
@pytest.mark.parametrize("label,param,eta", [
    *(pytest.param(label, 1e-6, 1.0, id=label)
      for label in ("hd-df-tsr", "hd-af-tsr", "fd-df-tsr", "fd-af-tsr")),
    *(pytest.param(label, param, 1.0, id=f"{label}-{name}-{param!r}")
      for label, name, param in (("hd-af-tsr", "tau", 5e-324), ("hd-af-psr", "rho", 5e-324),
                                 ("fd-df-tsr", "tau", 5e-324), ("fd-df-tsr", "tau", 1e-310))),
    *(pytest.param(s.label(), 0.5, 5e-324, id=f"{s.label()}-eta-5e-324") for s in ALL_SCENARIOS),
])
def test_vanishing_harvest_time_saturates(label, param, eta):
    cfg = replace(CFG, eta=eta)
    s = Scenario.from_label(label, tau=param, rho=param)
    assert outage(cfg, s).value > 0.999
    assert outage(replace(cfg, cth=0.0), s).value == 0.0


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


def test_threshold_far_below_one_ulp_matches_monte_carlo():
    # cth/pre = 2e-17, where 2**(cth/pre) - 1 rounds to 0 and would settle the link as no outage
    cfg = replace(CFG, cth=1e-17, ch1=ChannelSpec(3.0, 30.0), ch2=ChannelSpec(3.0, 30.0))
    s = Scenario("hd", "df", "irr")
    mc = estimate_outage(cfg, s, McPlan(trials=200_000, seed=5))
    assert abs(outage(cfg, s).value - mc.value) <= 5.7 * mc.stderr


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
        scenarios = [
            Scenario("hd", "df", "tsr", tau=tau), Scenario("hd", "df", "psr", rho=rho),
            Scenario("hd", "df", "irr"), Scenario("hd", "af", "tsr", tau=tau),
            Scenario("hd", "af", "psr", rho=rho), Scenario("hd", "af", "irr"),
            Scenario("fd", "df", "tsr", tau=tau), Scenario("fd", "af", "tsr", tau=tau),
        ]
        alone = [outage(cfg, s).value for s in scenarios]
        assert all(0.0 <= value <= 1.0 for value in alone)
        together = outages(columns([(cfg, s) for s in scenarios]))
        assert list(map(float.hex, together)) == list(map(float.hex, alone))


def test_fd_df_saturates_as_tau_approaches_one():
    s = Scenario("fd", "df", "tsr", tau=0.999)
    assert outage(CFG, s).value > 0.9999


def test_fd_af_degenerate_loop_back_reduces_to_product_threshold():
    # concentrate W at a negligible value: the truncation window never
    # binds and outage is governed by the product Z alone
    cfg = replace(CFG, chg=ChannelSpec(-40.0, 0.01))
    s = Scenario("fd", "af", "tsr", tau=0.5)
    got = outage(cfg, s).value
    _, k, _ = relay_budget(cfg, s)
    v = threshold_snr(s, cfg.cth)
    w0 = 10 ** (2 * cfg.chg.mu_db / 10)
    gamma = 25 * 25 * v * 0.005 * (1 / k + w0) / (cfg.ps_watts * (1 - k * v * w0))
    want = 1.0 - product_ccdf(gamma, cfg.ch1, cfg.ch2)
    assert got == pytest.approx(want, abs=1e-4)


def test_loose_quadspec_is_accepted(monkeypatch):
    s = Scenario("hd", "df", "tsr", tau=0.5)
    tight = outage(CFG, s).value
    monkeypatch.setattr(quadrature, "REL_TOL", 1e-6)
    monkeypatch.setattr(analytic, "ABS_TOL", 1e-9)  # analytic sets each tail's atol
    loose = outage(CFG, s).value
    assert loose == pytest.approx(tight, rel=1e-5)


def test_fd_df_low_outage_keeps_relative_precision():
    # both failure events are rare here, so 1 - (1 - p_w)(1 - p_z) rounds to 0
    cfg = replace(CFG, cth=0.05, ps_watts=1000.0, chg=ChannelSpec(-15.0, math.sqrt(5.0)))
    s = Scenario("fd", "df", "tsr", tau=0.5)
    want = reference.outage(cfg, s)
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
    want = reference.outage(cfg, s)
    assert 1e-21 < want < 1e-16
    assert abs(got - want) <= 1e-6 * want


def test_fd_af_random_links_within_rel_tol_of_mpmath():
    # every fourth FD-AF pair of tools/fingerprint.py, outages from 9.8e-15 to 1
    links = load_tool("fingerprint").random_pairs(np.random.default_rng(20181))[703::4]
    assert len(links) == 25 and {s.label() for _, s in links} == {"fd-af-tsr"}
    off = [(i, got, want) for i, ((cfg, s), got) in enumerate(zip(links, outages(columns(links))))
           if not abs(got - (want := reference.outage(cfg, s))) <= quadrature.REL_TOL * want]
    assert off == []


def test_fd_af_link_263_within_rel_tol_of_mpmath():
    # link 263 of a 3,000-link FD-AF fuzz, outage 0.901: with its window cut at
    # +TAIL_SIGMAS instead of the head's upper cut, the rule reported this tail
    # converged while it was 4.5e-9 relative off
    cfg = SystemConfig(
        ps_watts=77.7848675368681, eta=0.9105063379972944, path_loss_exp=2.8963855885762024,
        d1_m=4.525135380468812, d2_m=18.77856650571638, sigma_a2_w=0.0014444401901761203,
        sigma_c2_w=0.002433151330685237, sigma_d2_w=0.0001354915996528839,
        cth=0.6646506419633454, ch1=ChannelSpec(6.577484798872277, 4.737971094404721),
        ch2=ChannelSpec(-6.730557633694245, 4.334547840041658),
        chg=ChannelSpec(-9.98845398813193, 5.419981630316156))
    s = Scenario("fd", "af", "tsr", tau=0.3937677132483417)
    want = reference.outage(cfg, s)
    assert abs(outage(cfg, s).value - want) <= quadrature.REL_TOL * want


# FD-AF on the default link at 1e9 and 1e12 W, outage 0.999964283371 and
# 0.999964283370: the tail's tolerance, ABS_TOL times its floor Pr{Z < d} of
# about 1e-9 and 1e-12, is not met within MAX_SUBDIVISIONS panels
@pytest.mark.xfail(strict=True, raises=quadrature.QuadratureError,
                   reason="ROADMAP item 11: FD-AF's tail does not converge from about 1e9 W")
@pytest.mark.parametrize("ps", [1e9, 1e12])
def test_fd_af_outage_at_huge_source_power(ps):
    cfg, s = replace(CFG, ps_watts=ps), Scenario("fd", "af", "tsr", tau=0.5)
    want = reference.outage(cfg, s)
    assert abs(outage(cfg, s).value - want) <= quadrature.REL_TOL * want


# 42 HD points, 7 per variant (tau or rho 0.5, 0.8 or 0.2), with outage from 5.8e-9 to 1,
# two AF-TSR points whose small tails converge only to the absolute tolerance, and an
# AF-PSR point whose head, 0.9915, puts the upper cut at its deepest: 7.4 sigmas up
HD_REFERENCE_GRID = [
    (label, ps, cth, param)
    for label in ("hd-df-tsr", "hd-df-psr", "hd-df-irr", "hd-af-tsr", "hd-af-psr", "hd-af-irr")
    for (ps, cth), param in zip(((1.0, 0.5), (5.0, 1.0), (20.0, 2.0), (100.0, 4.0), (500.0, 1.0),
                                 (2000.0, 2.0), (5000.0, 2.0)), (0.5, 0.8, 0.2) * 3)]
HD_REFERENCE_GRID += [("hd-af-tsr", 100.0, 0.5, 0.8), ("hd-af-tsr", 5000.0, 1.0, 0.8),
                      ("hd-af-psr", 1.0, 4.0, 0.2)]


@pytest.mark.parametrize("label,ps,cth,param", HD_REFERENCE_GRID)
def test_hd_outage_within_rel_tol_of_mpmath(label, ps, cth, param):
    cfg = replace(CFG, ps_watts=ps, cth=cth)
    s = Scenario.from_label(label, tau=param, rho=param)
    want = reference.outage(cfg, s)
    assert 1e-9 < want <= 1.0  # below about 1e-9 the 10-sigma cut of the tail decides
    assert abs(outage(cfg, s).value - want) <= quadrature.REL_TOL * want


# HD links that a tolerance of ABS_TOL = 1e-12 alone leaves far off, and one of
# ABS_TOL times the head brings within REL_TOL: fingerprint pair 330
# (tools/fingerprint.py, random_pairs(np.random.default_rng(20181))[330]), 5.18e-12,
# 3.9e-3 low at 1e-12, and this AF-IRR link, 1.22e-6, whose 0.117 dB second hop
# makes a step that bisection to 1e-12 does not reach (2.1e-2 low)
SMALL_TAIL_IRR = (SystemConfig(ps_watts=12.0, eta=0.4565, path_loss_exp=1.75, d1_m=1.644,
                               d2_m=2.091, sigma_a2_w=4.62e-5, sigma_c2_w=2.22e-3,
                               sigma_d2_w=1.08e-5, cth=2.1, ch1=ChannelSpec(-3.5, 1.49),
                               ch2=ChannelSpec(5.5, 0.117), chg=ChannelSpec(-12.4, 0.43)),
                  Scenario("hd", "af", "irr"))
HD_REFERENCE_LINKS = {
    "fingerprint-pair-330": (SystemConfig(
        ps_watts=458.0734598431755, eta=0.9349582107032363, path_loss_exp=1.8581290242382813,
        d1_m=4.2540514726026135, d2_m=3.3106714045799723, sigma_a2_w=0.000945715171822169,
        sigma_c2_w=0.04201592143725231, sigma_d2_w=0.00021669941677895149,
        cth=0.029927755307236792, ch1=ChannelSpec(4.678591920324262, 3.5949236588835407),
        ch2=ChannelSpec(3.0374868398642896, 3.047229771438971),
        chg=ChannelSpec(-15.872233009569154, 2.6539024851383983)),
        Scenario("hd", "af", "tsr", tau=0.45697586013050356)),
    "hd-af-irr-small-tail": SMALL_TAIL_IRR,
    # A second hop 0.05 dB wide makes the integrand step within a width that
    # the error estimate of a starting panel misses: 2.1e-2 low at any tolerance
    "hd-af-irr-narrow-second-hop": pytest.param(
        replace(SMALL_TAIL_IRR[0], ch2=ChannelSpec(5.5, 0.05)), SMALL_TAIL_IRR[1],
        marks=pytest.mark.xfail(strict=True, reason="ROADMAP item 3: the error estimate misses "
                                "a step in the integrand narrower than the starting panels")),
}


@pytest.mark.parametrize("cfg,s", HD_REFERENCE_LINKS.values(), ids=HD_REFERENCE_LINKS)
def test_hd_link_within_rel_tol_of_mpmath(cfg, s):
    want = reference.outage(cfg, s)
    assert abs(outage(cfg, s).value - want) <= quadrature.REL_TOL * want


# HD on the default link (cth 2, tau 0.3) at 50 kW (outage 3.9e-14), 500 kW (1.2e-20;
# DF-TSR 1.5e-16 is 3.8e-9 off, too close to REL_TOL to pin) and 5 MW (1.7e-28; DF-TSR 1.3e-23)
LOWER_CUT = pytest.mark.xfail(strict=True, reason="ROADMAP item 3: the fixed -10 sigma lower cut "
                              "of the tail drops mass that an outage this small needs")
HD_LOW_OUTAGE = [("hd-df-irr", 5e4), ("hd-af-irr", 5e4),
                 *(pytest.param(label, ps, marks=LOWER_CUT)
                   for ps in (5e5, 5e6) for label in ("hd-df-irr", "hd-af-irr")),
                 pytest.param("hd-df-tsr", 5e6, marks=LOWER_CUT)]


@pytest.mark.parametrize("label,ps", HD_LOW_OUTAGE)
def test_hd_low_outage_within_rel_tol_of_mpmath(label, ps):
    cfg, s = replace(CFG, ps_watts=ps), Scenario.from_label(label, tau=0.3)
    want = reference.outage(cfg, s)
    assert abs(outage(cfg, s).value - want) <= quadrature.REL_TOL * want


# fingerprint pairs (tools/fingerprint.py) of outage 3.4e-30, 1.7e-38 and 2.3e-39, which a
# 30-digit reference reads 7e-5, 0.14 and 0.30 off; the library reads them 3.5 %, 97 % and
# 99.6 % low, for the lower cut of HD_LOW_OUTAGE, and is not checked here
@pytest.mark.parametrize("index", [568, 369, 466])
def test_reference_agrees_with_itself_at_15_more_digits(index):
    cfg, s = load_tool("fingerprint").random_pairs(np.random.default_rng(20181))[index]
    more = float(reference.outage_at(cfg, s, reference.digits(cfg, s) + 15))
    assert abs(reference.outage(cfg, s) - more) <= 1e-12 * more


@pytest.mark.parametrize("sigma_db", [1e-12, 1e-16, 1e-300, 5e-324])
@pytest.mark.parametrize("ps", [1.0, 50.0])
def test_vanishing_first_hop_spread_fixes_the_first_hop(ps, sigma_db):
    # the first hop's squared gain X is its median; the window in X's
    # standardized coordinate keeps its width however small the spread
    for s in ALL_SCENARIOS[:6]:
        cfg = replace(CFG, ps_watts=ps, ch1=ChannelSpec(CFG.ch1.mu_db, sigma_db))
        k1, a, b, c = snr_coefficients(cfg, s)
        v, x = threshold_snr(s, cfg.cth), 10 ** (2 * cfg.ch1.mu_db / 10)
        if s.relay == "df":
            want = 1.0 if k1 * x < v else sq_gain_cdf(v / (a * x), cfg.ch2)
        else:
            want = 1.0 if a * x <= v * b else sq_gain_cdf(v * c / (a * x - v * b), cfg.ch2)
        assert outage(cfg, s).value == pytest.approx(want, rel=quadrature.REL_TOL), s.label()


def test_fd_af_loop_back_mean_below_the_float_range():
    # at -1e308 dB the loop-back gain is 0 as at -300 dB; 2 * mu_db overflows to -inf
    got = [outage(replace(CFG, chg=ChannelSpec(mu, CFG.chg.sigma_db)), ALL_SCENARIOS[7]).value
           for mu in (-1e308, -300.0)]
    assert got[0] == got[1] == pytest.approx(0.797440683, abs=5e-10)


def branch(cfg, scenario):
    """Which rule of analytic._reduce settles the pair's outage."""
    v = threshold_snr(scenario, cfg.cth)
    if v == 0.0:
        return "cth = 0"
    if math.isinf(v):
        return "exponent >= 1024"
    variant = f"{scenario.duplex}-{scenario.relay}"
    if scenario.duplex == "fd" and snr_coefficients(cfg, scenario)[0] / v == 0.0:
        return f"{variant} cutoff 0"
    with np.errstate(all="ignore"):  # as in outages
        _, pending, tail = _reduce(Columns(cfg, scenario))
    if not tail:
        return "fd-df closed form"
    return f"{variant} integral" if pending[0] else f"{variant} no tail"


# tau one ulp below 1 and a threshold exponent cth/(1 - tau) of 1023.5: v = 2**1023.5 - 1
# is finite, but the loop-back cutoff k1/v = (1 - tau)/(tau*v) underflows to 0
FD_CUTOFF_ZERO = [(replace(CFG, cth=1023.5 * 2.0**-53),
                   Scenario("fd", relay, "tsr", tau=1 - 2.0**-53)) for relay in ("df", "af")]
# tau 0.999 and an exponent of 1023: the cutoff k1/v is about 1.1e-311, a subnormal above 0
FD_AF_CUTOFF_SUBNORMAL = (replace(CFG, cth=1.023), Scenario("fd", "af", "tsr", tau=0.999))


def test_fd_af_zero_cutoff_is_certain_outage():
    assert [branch(*pair) for pair in FD_CUTOFF_ZERO] == ["fd-df cutoff 0", "fd-af cutoff 0"]
    assert branch(*FD_AF_CUTOFF_SUBNORMAL) == "fd-af no tail"
    assert list(outages(columns([*FD_CUTOFF_ZERO, FD_AF_CUTOFF_SUBNORMAL]))) == [1.0, 1.0, 1.0]


def test_fd_edge_past_the_float_range_with_a_vanishing_loop_back():
    # a loop-back mean below the float range gives R a dB mean of +inf; where the
    # edge v/k1 overflows as well, its standardized value would be inf - inf = NaN
    # (at a subnormal cutoff k1/v this raised QuadratureError) unless the row settles
    pairs = [(replace(cfg, chg=ChannelSpec(-1e308, cfg.chg.sigma_db)), s)
             for cfg, s in (*FD_CUTOFF_ZERO, FD_AF_CUTOFF_SUBNORMAL)]
    assert list(outages(columns(pairs))) == [1.0, 1.0, 1.0]


def test_fd_variants_share_the_loop_back_cutoff():
    # at 1e8 W the destination hop cannot fail, so FD-DF and FD-AF both fail just
    # where the loop-back gain W passes k1/v, k1 = 1/power
    cfg = replace(CFG, ps_watts=1e8, chg=ChannelSpec(-15.0, math.sqrt(5.0)))
    got = []
    for relay in ("df", "af"):
        s = Scenario("fd", relay, "tsr", tau=0.5)
        assert snr_coefficients(cfg, s)[0] == 1.0 / relay_budget(cfg, s)[1]
        want = reference.outage(cfg, s)
        got.append(outage(cfg, s).value)
        assert got[-1] == pytest.approx(want, rel=1e-6)
    assert 1e-5 < got[0] <= got[1]


def hd_pair_at(u, label):
    """`label` on the default link with the first hop's mean moved so that the
    gain the first hop must clear lies u of its standard deviations above that
    mean: the head is Q(-u)."""
    s = Scenario.from_label(label, tau=0.5, rho=0.5)
    k1, a, b, _ = snr_coefficients(CFG, s)
    v = threshold_snr(s, CFG.cth)
    lower = v * b / a if k1 is None else v / k1
    sigma = CFG.ch1.sigma_db
    return replace(CFG, ch1=ChannelSpec((XI * math.log(lower) - 2 * u * sigma) / 2, sigma)), s


# (u, head, cut) at heads near 1, 1e-3 and 1e-20: the HD upper cut lies 7.43, 8.31
# and (capped at TAIL_SIGMAS) 10 standard deviations above the first hop's mean
CUT_DEPTHS = [(3.0, 0.99865, 7.43), (-3.09, 1.0e-3, 8.31), (-9.26, 1.0e-20, 10.0)]


def test_hd_upper_cut_follows_the_head():
    # mixed_batch() holds these pairs too: each row equals its batch of one there
    for u, head, cut in CUT_DEPTHS:
        for label in ("hd-df-irr", "hd-af-tsr"):
            cfg, s = hd_pair_at(u, label)
            assert branch(cfg, s) == f"{label[:5]} integral"
            with np.errstate(all="ignore"):  # as in outages
                value, _, tail = _reduce(Columns(cfg, s))
            assert value[0] == pytest.approx(head, rel=0.05)
            assert min(quadrature.TAIL_SIGMAS, tail[3][0]) == pytest.approx(cut, abs=0.01)


def mixed_batch():
    """All eight variants, each at three settings, HD pairs at every depth of
    the upper cut, and pairs that reach every early exit of the reduction."""
    pairs = [(c, s) for s in ALL_SCENARIOS
             for c in (CFG, replace(CFG, ps_watts=10.0), replace(CFG, cth=0.75, d1_m=2.0))]
    pairs += [(replace(CFG, cth=0.0), ALL_SCENARIOS[3]), (replace(CFG, cth=0.0), ALL_SCENARIOS[7]),
              (replace(CFG, cth=600.0), ALL_SCENARIOS[1]),
              (replace(CFG, cth=700.0), ALL_SCENARIOS[6]),
              (replace(CFG, cth=20.0), ALL_SCENARIOS[0]),
              (replace(CFG, cth=20.0), ALL_SCENARIOS[4]),
              (replace(CFG, cth=10.0), ALL_SCENARIOS[7]),
              *FD_CUTOFF_ZERO, FD_AF_CUTOFF_SUBNORMAL,
              *(hd_pair_at(u, label) for u, _, _ in CUT_DEPTHS
                for label in ("hd-df-irr", "hd-af-tsr")),
              (CFG, Scenario("hd", "df", "psr", rho=0.3, pc_fraction=0.2)),
              (replace(CFG, ps_watts=10.0), Scenario("fd", "df", "tsr", tau=0.2, pc_fraction=0.1)),
              (CFG, Scenario("hd", "df", "irr", pc_fraction=0.05))]
    # HD hops far outside any physical range: quadrature nodes overflow to inf or 0
    for hd in (ALL_SCENARIOS[0], ALL_SCENARIOS[5]):
        for hop in ("ch1", "ch2"):
            for spec in (ChannelSpec(1e300, 2.0), ChannelSpec(-1e300, 2.0),
                         ChannelSpec(3.0, 1e300)):
                pairs.append((replace(CFG, **{hop: spec}), hd))
    return pairs


def test_mixed_batch_equals_batches_of_one_bit_for_bit():
    pairs = mixed_batch()
    assert {s.label() for _, s in pairs} == {s.label() for s in ALL_SCENARIOS}
    assert {branch(c, s) for c, s in pairs} == {
        "cth = 0", "exponent >= 1024", "fd-df cutoff 0", "fd-df closed form", "fd-af cutoff 0",
        "fd-af no tail", "fd-af integral", "hd-df no tail", "hd-df integral", "hd-af no tail",
        "hd-af integral"}
    assert any(s.pc_fraction > 0 for _, s in pairs)
    batch = outages(columns(pairs))
    assert list(map(float.hex, batch)) == [float.hex(outages(columns([pair]))[0])
                                           for pair in pairs]


def test_one_quadrature_call_per_outages_call(monkeypatch):
    calls = []

    def counting(integrand, *window):
        calls.append(len(window[0]))
        return quadrature.integrate_normal_batch(integrand, *window)

    monkeypatch.setattr(analytic, "integrate_normal_batch", counting)
    hd = [(c, s) for c, s in mixed_batch()
          if s.duplex == "hd" and branch(c, s).endswith("integral")]
    assert {s.label()[:5] for _, s in hd} == {"hd-df", "hd-af"}
    outages(columns(hd))
    assert calls == [len(hd)]  # DF and AF tails share the HD integrand
    fd_af = (CFG, ALL_SCENARIOS[7])
    assert branch(*fd_af) == "fd-af integral"
    calls.clear()
    outages(columns([*hd, fd_af]))
    assert calls == [len(hd) + 1]  # and FD-AF's tail, over the inverse loop-back gain


def integrand_load(monkeypatch, point_lists):
    """The integrand nodes and calls that `run_points` makes without MC on
    each list of points in turn."""
    nodes = []

    def counting(integrand, *window):
        def counted(z, k):
            nodes.append(z.size)
            return integrand(z, k)
        return quadrature.integrate_normal_batch(counted, *window)

    monkeypatch.setattr(analytic, "integrate_normal_batch", counting)
    for points in point_lists:
        run_points(points, None, 1)
    return sum(nodes), len(nodes)


def test_figure_pass_integrand_nodes(monkeypatch):
    # the nodes that fig4-fig7 without MC evaluate: 482,580 from 8 starting
    # panels per integral, 378,672 from 6, and 235,767 (72 calls instead of 79)
    # from panels in proportion to each window and the HD upper cut; 251,643 in
    # 57 calls with two golden-section steps per optimizer call, whose 15,876
    # nodes of discarded candidates buy 15 fewer calls; 56 once FD-AF's tails
    # join the HD batch of their outages call; 250,887 once FD-AF's windows stop
    # at HD's upper cut instead of TAIL_SIGMAS
    figures = [preset(CFG)[0] for preset in FIGURE_PRESETS.values()]
    nodes, calls = integrand_load(monkeypatch, figures)
    assert nodes == 250_887 and calls == 56


def test_selftest_integrand_nodes(monkeypatch):
    # the selftest and boundary grids without MC: 6,762 nodes in 8 calls from 6
    # starting panels per integral; 4,473 in 10 with the windowed start and the
    # HD upper cut, which leave the HD batches two more small rounds; 4,473 in 5
    # with FD-AF's tails in the HD batch; 4,179 with FD-AF's windows at that cut
    nodes, calls = integrand_load(monkeypatch, [selftest_points(CFG), boundary_points(CFG)])
    assert nodes == 4_179 and calls == 5


def test_low_outage_sweep_integrand_nodes(monkeypatch):
    # the ps sweep of the benchmark's sweep-lowoutage workload without MC: six
    # HD variants, one run each, over 25 powers from 50 to 5000 W; 18,900 nodes
    # from 6 starting panels per integral, 17,346 with the windowed start
    powers = [float(f"{50.0 * 100.0 ** (i / 24):.10g}") for i in range(25)]
    runs = [[axis_curve(CFG, Scenario.from_label(label, tau=0.3, rho=0.5), "ps", powers)]
            for label in ("hd-df-tsr", "hd-af-tsr", "hd-df-psr", "hd-af-psr", "hd-df-irr",
                          "hd-af-irr")]
    nodes, calls = integrand_load(monkeypatch, runs)
    assert nodes <= 17_346 and calls == 6


def test_params_column_equals_scenarios_with_that_parameter():
    pairs = [(c, s) for c, s in mixed_batch() if s.eh != "irr"]
    params = np.linspace(0.03, 0.97, len(pairs))[:, None]
    moved = outages(columns([(c, s.with_eh_param(p)) for (c, s), (p,) in zip(pairs, params)]))
    assert list(map(float.hex, outages(columns(pairs), params)[:, 0])) == list(map(float.hex, moved))
    with pytest.raises(ValueError, match="no harvesting parameter"):
        outages(columns([(CFG, ALL_SCENARIOS[2])]), [[0.5]])
    for bad in (0.0, 1.0, float("nan")):
        with pytest.raises(ValueError, match=r"\(0, 1\)"):
            outages(columns(pairs[:2]), [[0.5], [bad]])
    for shape in ((1, 1), (2,), (2, 1, 1)):  # one row per pair and nothing else
        with pytest.raises(ValueError, match="a row of harvesting parameters per row"):
            outages(columns(pairs[:2]), np.full(shape, 0.5))


def test_params_row_entries_equal_batches_of_one_bit_for_bit():
    pairs = [(c, s) for c, s in mixed_batch() if s.eh != "irr"]
    params = np.random.default_rng(5).uniform(0.01, 0.99, (len(pairs), 3))
    got = outages(columns(pairs), params)
    alone = [[outages(columns([(c, s.with_eh_param(p))]))[0] for p in row]
             for (c, s), row in zip(pairs, params)]
    assert got.shape == params.shape and got.dtype == np.float64
    assert np.array_equal(got.view(np.uint64), np.array(alone).view(np.uint64))


def test_empty_batch():
    assert outages([]).tolist() == [] and outages([], np.empty((0, 3))).shape == (0, 3)


def column_bits(sets):
    """Every field of the Columns `sets`, joined, with each number as the bits
    of one float64 per row."""
    joined = Columns.concat(sets)
    names = {**flat_fields(joined.cfg, "system."), **flat_fields(joined.scenario, "scenario.")}
    values = {name: joined.value(name) for name in names}
    return {name: value if value is None or isinstance(value, str)
            else np.broadcast_to(np.asarray(value, float), joined.size).view(np.uint64).tolist()
            for name, value in values.items()}


def test_join_of_equal_but_distinct_floats_keeps_each_sets_outages():
    # the two base pairs hold ps_watts as equal floats that are not one object:
    # the join makes it a column of that value, and each row keeps its bits
    cfg = replaced(CFG, ps_watts=float("2.5"))
    twin = replaced(cfg, ps_watts=float("2.5"))
    assert twin.ps_watts == cfg.ps_watts and twin.ps_watts is not cfg.ps_watts
    base = Scenario.from_label("hd-af-tsr", tau=0.5)
    sets = [axis_curve(c, base, "tau", values).columns()
            for c, values in ((cfg, [0.1, 0.4]), (twin, [0.3, 0.8, 0.95]))]
    joined = Columns.concat(sets)
    assert isinstance(joined.value("system.ps_watts"), np.ndarray)
    got = outages([joined])
    alone = np.concatenate([outages([s]) for s in sets])
    assert got.tobytes() == alone.tobytes()


def row_columns(curve, repeat=1):
    """The one-row columns of each row of `curve`, from its checked pair, each
    `repeat` times in succession."""
    return [Columns(*curve.row(i)) for i in range(len(curve.values)) for _ in range(repeat)]


# per axis: the base scenario, values, total distance and each row's pair, built
# with dataclasses.replace
AXIS_CURVES = {
    "tau": ("hd-af-tsr", [0.05, 0.37, 0.9], None, lambda c, s, v: (c, replace(s, tau=v))),
    "rho": ("hd-df-psr", [0.1, 0.55, 0.95], None, lambda c, s, v: (c, replace(s, rho=v))),
    "cth": ("fd-df-tsr", [0.0, 0.3, 2.75], None, lambda c, s, v: (replace(c, cth=v), s)),
    "d1": ("hd-df-irr", [0.5, 7.3, 29.0], None, lambda c, s, v: (replace(c, d1_m=v), s)),
    "d1-total": ("hd-af-irr", [3.0, 15.1, 29.9], 30.0,
                 lambda c, s, v: (replace(c, d1_m=v, d2_m=30.0 - v), s)),
    "sigma_db": ("hd-af-psr", [0.5, 1.7, 3.0], None,
                 lambda c, s, v: (replace(c, ch1=ChannelSpec(c.ch1.mu_db, v),
                                          ch2=ChannelSpec(c.ch2.mu_db, v)), s)),
    "ps": ("hd-df-tsr", [0.01, 50.0, 5000.0], None, lambda c, s, v: (replace(c, ps_watts=v), s)),
    "sigma_g_db": ("fd-af-tsr", [0.1, 2.2, 4.0], None,
                   lambda c, s, v: (replace(c, chg=ChannelSpec(c.chg.mu_db, v)), s)),
}


@pytest.mark.parametrize("case", sorted(AXIS_CURVES))
def test_curve_columns_equal_its_rows_bit_for_bit(case):
    label, values, total, pair = AXIS_CURVES[case]
    base = Scenario.from_label(label, tau=0.5, rho=0.5)
    curve = axis_curve(CFG, base, case.split("-")[0], values, total=total)
    assert [curve.row(i) for i in range(len(values))] == [pair(CFG, base, v) for v in values]
    assert column_bits([curve.columns()]) == column_bits(row_columns(curve))
    # as the optimizer's stages take them, each row once per trial value
    repeated = curve.columns().take(np.repeat(np.arange(len(values)), 3))
    assert column_bits([repeated]) == column_bits(row_columns(curve, 3))


def test_fig5_curves_join_as_their_rows_bit_for_bit():
    # per variant, the ps = 1 and ps = 5 curves over sigma_db, as minimize_many
    # and outages join them
    by_variant = {}
    for curve in FIGURE_PRESETS["fig5"](CFG)[0]:
        by_variant.setdefault(curve.scenario.label(), []).append(curve)
    assert len(by_variant) == 6 and {len(c) for c in by_variant.values()} == {2}
    for curves in by_variant.values():
        assert column_bits([c.columns() for c in curves]) == column_bits(
            [row for c in curves for row in row_columns(c)])
