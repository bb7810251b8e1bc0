"""Link-model formulas: frozen hand-substituted values and invariants."""

import math
import warnings
from dataclasses import replace

import numpy as np
import pytest

from ehrelay import grids
from ehrelay.lognormal import sample_sq_gain
from ehrelay.model import (
    FadeSample,
    OutageEstimate,
    Scenario,
    SystemConfig,
    af_snr_coefficients,
    capacities,
    capacity,
    capacity_prefactor,
    df_snr_coefficients,
    outage_indicator,
    snr_cutoff,
    snr_pair,
    threshold_snr,
)

CFG = SystemConfig()


def hd(relay, eh, **kw):
    return Scenario("hd", relay, eh, **kw)


def relay_power(scenario):
    """Relay transmit power per unit first-hop gain, k2*d2^m*sigma_d2."""
    _, k2 = df_snr_coefficients(CFG, scenario)
    return k2 * CFG.d2_m**CFG.path_loss_exp * CFG.sigma_d2_w


class TestRelayPower:
    def test_hd_tsr_frozen(self):
        # 2*eta*tau*Ps / ((1-tau)*d1^m) at defaults, tau=0.5
        assert relay_power(hd("df", "tsr", tau=0.5)) == pytest.approx(0.08)

    def test_fd_tsr_is_half_of_hd(self):
        s_fd = Scenario("fd", "df", "tsr", tau=0.5)
        assert relay_power(s_fd) == pytest.approx(0.04)
        assert relay_power(s_fd) == pytest.approx(relay_power(hd("df", "tsr", tau=0.5)) / 2)

    def test_psr_and_irr_frozen(self):
        assert relay_power(hd("df", "psr", rho=0.5)) == pytest.approx(0.02)
        assert relay_power(hd("df", "irr")) == pytest.approx(0.04)

    def test_processing_cost_scales_df_power(self):
        base = relay_power(hd("df", "tsr", tau=0.5))
        costed = relay_power(hd("df", "tsr", tau=0.5, pc_fraction=0.02))
        assert costed == pytest.approx(0.98 * base, rel=1e-15)

    def test_zero_cost_is_bit_identical(self):
        s0 = hd("df", "irr")
        s1 = hd("df", "irr", pc_fraction=0.0)
        assert df_snr_coefficients(CFG, s0) == df_snr_coefficients(CFG, s1)


class TestSnrPair:
    def test_hd_df_tsr_frozen(self):
        gr, gd = snr_pair(CFG, hd("df", "tsr", tau=0.5), FadeSample(1.0, 1.0))
        assert gr == pytest.approx(8.0)
        assert gd == pytest.approx(0.64)

    def test_hd_df_psr_frozen(self):
        # sigma_r^2(rho=0.5) = 0.5*0.0025 + 0.0025 = 0.00375 W
        gr, gd = snr_pair(CFG, hd("df", "psr", rho=0.5), FadeSample(1.0, 1.0))
        assert gr == pytest.approx(0.5 / (25 * 0.00375))
        assert gd == pytest.approx(0.5 / (25 * 25 * 0.005))

    def test_fd_df_loop_back_frozen(self):
        s = Scenario("fd", "df", "tsr", tau=0.5)
        gr, gd = snr_pair(CFG, s, FadeSample(1.0, 1.0, 2.0))
        assert gr == pytest.approx(0.5)

    def test_af_has_no_relay_snr(self):
        gr, gd = snr_pair(CFG, hd("af", "irr"), FadeSample(1.0, 1.0))
        assert gr is None and gd > 0

    def test_af_snr_below_single_hop_bounds(self):
        s = hd("af", "tsr", tau=0.4)
        a, b, c = af_snr_coefficients(CFG, s)
        rng = np.random.default_rng(17)
        for _ in range(200):
            x, y = rng.uniform(0.01, 100, 2)
            _, gd = snr_pair(CFG, s, FadeSample(x, y))
            assert gd < a * x / b  # relay-side ceiling Ps*x/(d1^m*sr2)
            assert gd < a * x * y / c  # harvested-power destination bound

    def test_af_tsr_ceiling_matches_relay_snr_scale(self):
        s = hd("af", "tsr", tau=0.4)
        a, b, c = af_snr_coefficients(CFG, s)
        assert a / b == pytest.approx(CFG.ps_watts / (25 * 0.005))

    def test_destination_snr_monotone_in_fades(self):
        rng = np.random.default_rng(23)
        scenarios = [
            hd("df", "tsr", tau=0.3), hd("df", "psr", rho=0.7), hd("df", "irr"),
            hd("af", "tsr", tau=0.3), hd("af", "psr", rho=0.7), hd("af", "irr"),
            Scenario("fd", "df", "tsr", tau=0.3), Scenario("fd", "af", "tsr", tau=0.3),
        ]
        for s in scenarios:
            for _ in range(100):
                x, y, w = rng.uniform(0.05, 50, 3)
                bigger_x = snr_pair(CFG, s, FadeSample(x * 1.5, y, w))[1]
                bigger_y = snr_pair(CFG, s, FadeSample(x, y * 1.5, w))[1]
                base = snr_pair(CFG, s, FadeSample(x, y, w))[1]
                assert bigger_x >= base and bigger_y >= base

    def test_fd_requires_loop_back_gain(self):
        with pytest.raises(ValueError):
            snr_pair(CFG, Scenario("fd", "df", "tsr", tau=0.5), FadeSample(1.0, 1.0))

    def test_positive_snrs_for_positive_fades(self):
        rng = np.random.default_rng(31)
        s = Scenario("fd", "af", "tsr", tau=0.2)
        for _ in range(100):
            x, y, w = rng.uniform(1e-4, 1e4, 3)
            _, gd = snr_pair(CFG, s, FadeSample(x, y, w))
            assert gd > 0


class TestCapacities:
    def test_hd_df_tsr_frozen(self):
        cr, cd = capacities(CFG, hd("df", "tsr", tau=0.5), FadeSample(1.0, 1.0))
        assert cr == pytest.approx(0.792481250360578, rel=1e-12)
        assert cd == pytest.approx(0.178423953710840, rel=1e-12)

    def test_fd_prefactor_doubles_hd_tsr(self):
        s_hd = hd("df", "tsr", tau=0.37)
        s_fd = Scenario("fd", "df", "tsr", tau=0.37)
        assert capacity_prefactor(s_fd) == pytest.approx(2 * capacity_prefactor(s_hd))

    def test_zero_snr_gives_zero_capacity(self):
        for s in (hd("df", "psr", rho=0.5), hd("df", "irr")):
            assert capacity_prefactor(s) * np.log2(1.0 + 0.0) == 0.0

    def test_vectorized_matches_scalar(self):
        s = hd("df", "tsr", tau=0.5)
        xs = np.array([0.5, 1.0, 2.0])
        ys = np.array([1.0, 1.0, 3.0])
        cr_vec, cd_vec = capacities(CFG, s, FadeSample(xs, ys))
        for i in range(3):
            cr, cd = capacities(CFG, s, FadeSample(float(xs[i]), float(ys[i])))
            assert cr_vec[i] == pytest.approx(cr) and cd_vec[i] == pytest.approx(cd)


class TestOutageIndicator:
    def test_zero_threshold_never_outage(self):
        cfg0 = replace(CFG, cth=0.0)
        assert not outage_indicator(cfg0, hd("df", "tsr", tau=0.5), FadeSample(1.0, 1.0))

    def test_huge_threshold_always_outage(self):
        cfg_hi = replace(CFG, cth=1e6)
        assert outage_indicator(cfg_hi, hd("af", "irr"), FadeSample(1e6, 1e6))

    def test_default_point_is_outage(self):
        # min capacity 0.178 < cth = 2
        assert outage_indicator(CFG, hd("df", "tsr", tau=0.5), FadeSample(1.0, 1.0))

    def test_pathwise_monotone_in_power(self):
        rng = np.random.default_rng(47)
        s = hd("df", "psr", rho=0.5)
        fades = FadeSample(*sample_pair(rng, 500))
        low = outage_indicator(CFG, s, fades)
        high = outage_indicator(replace(CFG, ps_watts=5.0), s, fades)
        assert not np.any(high & ~low)


ALL_SCENARIOS = [
    hd("df", "tsr", tau=0.3), hd("df", "psr", rho=0.6), hd("df", "irr"),
    hd("af", "tsr", tau=0.3), hd("af", "psr", rho=0.6), hd("af", "irr"),
    Scenario("fd", "df", "tsr", tau=0.3), Scenario("fd", "af", "tsr", tau=0.3),
]


def sample_fades(rng, n):
    return FadeSample(*sample_pair(rng, n), sample_sq_gain(CFG.chg, rng, n))


@pytest.mark.parametrize("s", ALL_SCENARIOS, ids=Scenario.label)
def test_vector_indicator_matches_scalar_calls(s):
    fades = sample_fades(np.random.default_rng(53), 500)
    w = fades.w if s.duplex == "fd" else None
    c_r, c_d = capacities(CFG, s, FadeSample(fades.x, fades.y, w))
    end_to_end = c_d if c_r is None else np.minimum(c_r, c_d)
    cfg = replace(CFG, cth=float(np.median(end_to_end)))  # about half in outage
    vec = outage_indicator(cfg, s, FadeSample(fades.x, fades.y, w))
    scalar = [outage_indicator(cfg, s, FadeSample(float(fades.x[i]), float(fades.y[i]),
                                                  None if w is None else float(w[i])))
              for i in range(500)]
    assert vec.shape == (500,) and np.array_equal(vec, scalar)
    assert np.array_equal(vec, end_to_end < cfg.cth)


def test_indicator_leaves_fades_unchanged():
    fades = sample_fades(np.random.default_rng(59), 500)
    before = [v.copy() for v in (fades.x, fades.y, fades.w)]
    for s in ALL_SCENARIOS:
        outage_indicator(CFG, s, fades)
        snr_pair(CFG, s, fades)
    for v, b in zip((fades.x, fades.y, fades.w), before):
        assert v.tobytes() == b.tobytes()


def grid_cutoff_pairs():
    """Every (prefactor, cth) of the selftest, boundary, figure and ps-sweep
    grids, plus prefactors 1e-4 and 0.999 at cth up to 100."""
    points = grids.selftest_points(CFG) + grids.boundary_points(CFG)
    for preset in grids.FIGURE_PRESETS.values():
        points += preset(CFG)[0]
    for label in ("hd-df-tsr", "hd-af-tsr", "hd-df-psr", "hd-af-psr", "hd-df-irr", "hd-af-irr"):
        points += grids.axis_points(CFG, Scenario.from_label(label, tau=0.3, rho=0.5), "ps",
                                    [50.0, 5000.0])
    pairs = {(capacity_prefactor(p.scenario), p.cfg.cth) for p in points}
    pairs |= {(pre, cth) for pre in (1e-4, 0.999) for cth in (0.0, 0.05, 0.5, 2.0, 10.0, 100.0)}
    return sorted(pairs)


_INF_BITS = int(np.float64(math.inf).view(np.int64))
_ONE_BITS = int(np.float64(1.0).view(np.int64))


class TestSnrCutoff:
    def test_decides_as_capacity_does(self):
        rng = np.random.default_rng(61)
        sample = rng.integers(1, _INF_BITS, 1 << 16).view(np.float64)  # log-uniform, finite
        edges = np.array([0.0, 5e-324, math.inf, math.nan])
        pairs = grid_cutoff_pairs()
        assert len(pairs) > 60 and any(math.isinf(snr_cutoff(*pair)) for pair in pairs)
        for pre, cth in pairs:
            cut = snr_cutoff(pre, cth)
            at = int(np.float64(cut).view(np.int64))
            window = np.arange(max(at - (1 << 16), 0), min(at + (1 << 16), _INF_BITS) + 1)
            for gamma in (window.view(np.float64), sample, edges):
                assert np.array_equal(gamma < cut, capacity(pre, gamma) < cth), (pre, cth)

    def test_least_gamma_that_reaches_cth(self):
        # capacity(0.5, 0.9999999999999999) already rounds to 0.5, so the
        # cutoff lies one float below 2**1 - 1, which threshold_snr gives
        assert threshold_snr(hd("df", "psr", rho=0.5), 0.5) == 1.0
        assert snr_cutoff(0.5, 0.5) == 0.9999999999999999
        assert snr_cutoff(0.5, 0.0) == 0.0
        assert snr_cutoff(1e-4, 100.0) == math.inf  # 2**(1e6) leaves the float64 range

    def test_cold_search_is_silent(self):
        with warnings.catch_warnings(), np.errstate(divide="raise", over="raise", invalid="raise"):
            warnings.simplefilter("error")
            for pre, cth in [(1e-4, 100.0), (1e-3, 1.023), (0.999, 0.0), (0.5, 5e-324)]:
                snr_cutoff.__wrapped__(pre, cth)


def weakest_snr(cfg, s, fade):
    gamma_r, gamma_d = snr_pair(cfg, s, fade)
    return gamma_d if gamma_r is None else np.minimum(gamma_r, gamma_d)


@pytest.mark.parametrize("s", ALL_SCENARIOS, ids=Scenario.label)
def test_indicator_at_threshold_snr_matches_capacities(s):
    # first-hop gains 2**12 floats either side of the one whose weaker-hop SNR first
    # reaches threshold_snr at y = 1, each with the 8 second-hop gains from 1 up;
    # a tiny loop-back keeps the FD relay hop out of the way
    v = threshold_snr(s, CFG.cth)
    y, w = 1.0, (1e-9 if s.duplex == "fd" else None)
    lo, hi = 1, _INF_BITS - 1
    while hi - lo > 1:
        mid = (lo + hi) // 2
        x = float(np.int64(mid).view(np.float64))
        lo, hi = (lo, mid) if weakest_snr(CFG, s, FadeSample(x, y, w)) >= v else (mid, hi)
    xs = np.arange(hi - (1 << 12), hi + (1 << 12)).view(np.float64)
    ys = np.arange(_ONE_BITS, _ONE_BITS + 8).view(np.float64)
    xs, ys = (a.ravel() for a in np.meshgrid(xs, ys))
    fades = FadeSample(xs, ys, None if w is None else np.full(xs.size, w))
    gamma = weakest_snr(CFG, s, fades)
    # the window crosses v through both its float neighbours (v itself, a quotient
    # for AF, need not be reachable)
    assert np.isin([np.nextafter(v, 0.0), np.nextafter(v, math.inf)], gamma).all()
    c_r, c_d = capacities(CFG, s, fades)
    want = (c_d if c_r is None else np.minimum(c_r, c_d)) < CFG.cth
    assert want.any() and not want.all()
    assert np.array_equal(outage_indicator(CFG, s, fades), want)


def sample_pair(rng, n):
    return (
        sample_sq_gain(CFG.ch1, rng, n),
        sample_sq_gain(CFG.ch2, rng, n),
    )


class TestThresholdSnr:
    def test_frozen_values(self):
        assert threshold_snr(hd("df", "tsr", tau=0.5), 2.0) == pytest.approx(255.0)
        assert threshold_snr(hd("df", "psr", rho=0.5), 2.0) == pytest.approx(15.0)
        assert threshold_snr(Scenario("fd", "df", "tsr", tau=0.5), 2.0) == pytest.approx(15.0)

    def test_extreme_tau_overflows_to_inf(self):
        assert math.isinf(threshold_snr(hd("df", "tsr", tau=1 - 1e-9), 2.0))

    def test_zero_threshold(self):
        assert threshold_snr(hd("df", "irr"), 0.0) == 0.0


class TestValidation:
    @pytest.mark.parametrize(
        "kwargs",
        [
            {"duplex": "fd", "relay": "df", "eh": "psr", "rho": 0.5},
            {"duplex": "hd", "relay": "df", "eh": "tsr", "tau": 1.2},
            {"duplex": "hd", "relay": "df", "eh": "tsr", "tau": None},
            {"duplex": "hd", "relay": "df", "eh": "psr", "rho": 0.0},
            {"duplex": "hd", "relay": "df", "eh": "irr", "tau": 0.5},
            {"duplex": "hd", "relay": "af", "eh": "irr", "pc_fraction": 0.01},
            {"duplex": "hd", "relay": "df", "eh": "irr", "pc_fraction": 1.0},
            {"duplex": "xx", "relay": "df", "eh": "irr"},
        ],
    )
    def test_scenario_rejects(self, kwargs):
        with pytest.raises(ValueError):
            Scenario(**kwargs)

    def test_scenario_labels_roundtrip(self):
        s = Scenario.from_label("fd-af-tsr", tau=0.25)
        assert s.label() == "fd-af-tsr" and s.tau == 0.25 and s.rho is None

    @pytest.mark.parametrize(
        "kwargs",
        [
            {"ps_watts": 0.0},
            {"eta": 1.5},
            {"path_loss_exp": 0.5},
            {"d1_m": -1.0},
            {"sigma_d2_w": 0.0},
            {"cth": -0.1},
            {"d1_m": 1e200},  # path loss overflows
            {"path_loss_exp": 400.0},  # lp1 * lp2 * sigma_d2_w overflows
            {"d1_m": 1e-200},  # path loss underflows to 0
            {"d1_m": 1e-100, "d2_m": 1e-100, "sigma_d2_w": 1e-200},  # lp1 * lp2 * sigma_d2_w == 0
            {"d1_m": 1e-100, "sigma_a2_w": 1e-200, "sigma_c2_w": 1e-200},  # relay noise == 0
            {"cth": math.inf},  # not finite: a JSON dataset has no Infinity
        ],
    )
    def test_system_config_rejects(self, kwargs):
        with pytest.raises(ValueError):
            SystemConfig(**kwargs)

    def test_fade_sample_requires_positive_gains(self):
        with pytest.raises(ValueError):
            FadeSample(0.0, 1.0)
        with pytest.raises(ValueError):
            FadeSample(np.array([1.0, -2.0]), np.array([1.0, 1.0]))
        FadeSample(np.array([]), np.array([]))  # an empty batch stays valid

    @pytest.mark.parametrize("bad", [0.0, -1.0, math.nan])
    @pytest.mark.parametrize("channel", ["x", "y", "w"])
    @pytest.mark.parametrize("as_array", [False, True])
    def test_fade_sample_rejects_each_channel(self, bad, channel, as_array):
        good = np.array([1.0, 2.0, 3.0]) if as_array else 1.0
        gains = {"x": good, "y": good, "w": good}
        gains[channel] = np.array([1.0, bad, 3.0]) if as_array else bad
        with pytest.raises(ValueError, match=f"^{channel} must"):
            FadeSample(**gains)

    def test_with_eh_param_sets_tau_or_rho(self):
        assert hd("df", "tsr", tau=0.5).with_eh_param(0.3) == hd("df", "tsr", tau=0.3)
        assert hd("af", "psr", rho=0.5).with_eh_param(0.7) == hd("af", "psr", rho=0.7)
        assert hd("df", "irr").eh_param_name is None
        with pytest.raises(ValueError):
            hd("df", "irr").with_eh_param(0.5)

    def test_outage_estimate_bounds(self):
        with pytest.raises(ValueError):
            OutageEstimate(1.2, "analytic")
        with pytest.raises(ValueError):
            OutageEstimate(0.5, "guesswork")
        with pytest.raises(ValueError):
            OutageEstimate(1.0, "monte_carlo", -0.1, 10000)
        OutageEstimate(1.0, "monte_carlo", 0.0, 10000)


@pytest.mark.parametrize("label", ["hd-df-tsr", "hd-df-psr", "hd-af-tsr", "hd-af-irr",
                                   "fd-df-tsr"])
def test_coefficient_helpers_take_columns_bit_for_bit(label):
    # the analytic path calls these helpers with float64 columns in place of the
    # fields; each element must be the float its row gives alone (numpy's SIMD power
    # differs from libm's in the last bit on about 5 % of inputs)
    from types import SimpleNamespace

    rng = np.random.default_rng(17)
    n = 2000
    p, cth = rng.uniform(0.01, 0.99, n), rng.uniform(0.0, 9.0, n)
    d1, exp = rng.uniform(1.0, 30.0, n), rng.uniform(1.0, 4.0, n)
    rows = [(replace(CFG, cth=c, d1_m=d, path_loss_exp=e), Scenario.from_label(label, q, q))
            for c, d, e, q in zip(cth, d1, exp, p)]
    cfg = SimpleNamespace(**{k: np.full(n, float(v)) for k, v in vars(CFG).items()
                             if isinstance(v, float)})
    cfg.cth, cfg.d1_m, cfg.path_loss_exp = cth, d1, exp
    s = rows[0][1]
    scenario = SimpleNamespace(duplex=s.duplex, relay=s.relay, eh=s.eh, pc_fraction=np.zeros(n),
                               tau=p if s.tau is not None else None,
                               rho=p if s.rho is not None else None)
    coefficients = df_snr_coefficients if s.relay == "df" else af_snr_coefficients
    columns = (threshold_snr(scenario, cfg.cth), *coefficients(cfg, scenario))
    for got, want in zip(columns, zip(*((threshold_snr(s, c.cth), *coefficients(c, s))
                                        for c, s in rows))):
        assert np.array_equal(np.asarray(got).view(np.uint64), np.array(want).view(np.uint64))
