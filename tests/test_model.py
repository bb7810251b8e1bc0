"""Link-model formulas: frozen hand-substituted values and invariants."""

import ast
import itertools
import math
import warnings
from dataclasses import replace
from pathlib import Path

import mpmath
import numpy as np
import pytest

import ehrelay.montecarlo as mc
from conftest import curve_rows
from ehrelay import grids, model
from ehrelay.lognormal import sample_sq_gain
from ehrelay.model import (
    FadeSample,
    OutageEstimate,
    Scenario,
    SystemConfig,
    capacity,
    capacity_prefactor,
    hop_losses,
    relay_budget,
    snr_coefficients,
    threshold_snr,
)
from ehrelay.montecarlo import capacities, outage_indicator, snr_cutoff, snr_pair

CFG = SystemConfig()


def hd(relay, eh, **kw):
    return Scenario("hd", relay, eh, **kw)


def relay_power(scenario):
    """Relay transmit power per unit first-hop gain, k2*d2^m*sigma_d2."""
    _, k2, _, _ = snr_coefficients(CFG, scenario)
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
        assert snr_coefficients(CFG, s0) == snr_coefficients(CFG, s1)


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
        _, a, b, c = snr_coefficients(CFG, s)
        rng = np.random.default_rng(17)
        for _ in range(200):
            x, y = rng.uniform(0.01, 100, 2)
            _, gd = snr_pair(CFG, s, FadeSample(x, y))
            assert gd < a * x / b  # relay-side ceiling Ps*x/(d1^m*sr2)
            assert gd < a * x * y / c  # harvested-power destination bound

    def test_af_tsr_ceiling_matches_relay_snr_scale(self):
        s = hd("af", "tsr", tau=0.4)
        _, a, b, c = snr_coefficients(CFG, s)
        assert a / b == pytest.approx(CFG.ps_watts / (25 * 0.005))

    @pytest.mark.parametrize("eh", [
        pytest.param("tsr", marks=pytest.mark.xfail(
            strict=True, reason="ROADMAP item 2: AF-TSR's c has a (1 - tau) where its share is 1, "
                                "so its a/c is DF's k2/(1 - tau)")),
        "psr", "irr"])
    def test_noiseless_af_relay_reaches_df(self, eh):
        # as the relay noise (b) goes to 0, AF's a*x*y/(b*y + c) tends to (a/c)*x*y,
        # which must be DF's k2*x*y: an AF relay without noise forwards what DF decodes
        s = Scenario.from_label(f"hd-af-{eh}", tau=0.3, rho=0.3)
        _, a, _, c = snr_coefficients(CFG, s)
        _, k2, _, _ = snr_coefficients(CFG, replace(s, relay="df"))
        assert a / c == pytest.approx(k2, rel=1e-15)

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

    @pytest.mark.parametrize("eta,taus", [(1.0, (0.01, 0.99)), (5e-324, (0.01, 0.3))],
                             ids=["random-links", "power-underflows"])
    def test_fd_af_snr_bit_for_bit(self, eta, taus):
        # the amplified loop-back interference enters both signal path and gain:
        # ps*x*y / (lp1*lp2*noise*(1/power + w) + ps*power*w*x*y), which is
        # a*z / (c*(k1 + w) + (b*w)*z) with z = x*y, computed in its inverse form
        # 1/(beta*(w + lam*((k1 + w)*(1/z)))) with beta = b/a and lam = c/b, within
        # a few ulps of the quotient; a power that underflows to 0 gives SNR 0
        rng = np.random.default_rng(53)
        for _ in range(40):
            cfg = replace(CFG, eta=eta, ps_watts=10 ** rng.uniform(0.0, 4.0),
                          path_loss_exp=rng.uniform(1.5, 3.0), d1_m=rng.uniform(1.0, 10.0),
                          d2_m=rng.uniform(1.0, 10.0), sigma_a2_w=10 ** rng.uniform(-4.0, -1.0),
                          sigma_c2_w=10 ** rng.uniform(-4.0, -1.0))
            s = Scenario("fd", "af", "tsr", tau=rng.uniform(*taus))
            lp1, lp2 = hop_losses(cfg)
            _, power, noise = relay_budget(cfg, s)
            assert (power == 0.0) == (eta < 1.0)
            with np.errstate(divide="ignore"):
                inv = np.divide(1.0, power)
            coefs = (inv, cfg.ps_watts, cfg.ps_watts * power, lp1 * lp2 * noise)
            assert list(map(float.hex, snr_coefficients(cfg, s))) == list(map(float.hex, coefs))
            x, y, w = (sample_sq_gain(ch, rng, 64) for ch in (cfg.ch1, cfg.ch2, cfg.chg))
            quotient = cfg.ps_watts * (x * y) / (lp1 * lp2 * noise * (inv + w)
                                                 + cfg.ps_watts * power * w * (x * y))
            assert (quotient == 0.0).all() == (power == 0.0)
            a, b, c = coefs[1:]
            want = np.zeros(x.size)
            if power:
                want = 1.0 / (b / a * (w + c / b * ((inv + w) * (1.0 / (x * y)))))
            assert np.allclose(want, quotient, rtol=8 * 2.0**-52, atol=0.0)
            gr, gd = snr_pair(cfg, s, FadeSample(x, y, w))
            assert gr is None and np.array_equal(gd.view(np.uint64), want.view(np.uint64))
            _, gd = snr_pair(cfg, s, FadeSample(float(x[0]), float(y[0]), float(w[0])))
            assert float(gd).hex() == float(want[0]).hex()

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


@pytest.mark.parametrize("s", ALL_SCENARIOS, ids=Scenario.label)
def test_replaced_fade_has_the_products_of_its_gains(s):
    # replace passes only the gains: z, rx and rz are the new gains', not the old fade's
    rng = np.random.default_rng(61)
    old = FadeSample(*(1e-3 * rng.uniform(0.5, 2.0, (3, 50))))
    x, y = 1e3 * rng.uniform(0.5, 2.0, (2, 50))
    new, fresh = replace(old, x=x, y=y), FadeSample(x, y, old.w)
    assert new.z.tobytes() == (x * y).tobytes()
    assert new.rx.tobytes() == (1.0 / x).tobytes()
    assert new.rz.tobytes() == (1.0 / (x * y)).tobytes()
    assert np.array_equal(outage_indicator(CFG, s, new), outage_indicator(CFG, s, fresh))
    for got, want in zip(snr_pair(CFG, s, new), snr_pair(CFG, s, fresh)):
        assert got is want is None or got.tobytes() == want.tobytes()


@pytest.mark.parametrize("derived", ["z", "rx", "rz"])
def test_fade_sample_takes_only_its_gains(derived):
    with pytest.raises(TypeError):
        FadeSample(1.0, 2.0, **{derived: 2.0})


@pytest.mark.parametrize("as_scalars", [False, True], ids=["arrays", "scalars"])
def test_fade_sample_holds_its_reciprocals(as_scalars):
    # x*y in range, a subnormal x (1/x overflows), an x*y that overflows (rz = 0)
    # and one that underflows (1/z overflows), each built without a RuntimeWarning
    x = np.array([2.0, 5e-324, 1e200, 1e-200])
    y = np.array([0.5, 4.0, 1e200, 1e-200])
    with np.errstate(all="ignore"):
        want = x * y, 1.0 / x, 1.0 / (x * y)
    assert want[1][1] == want[2][3] == math.inf and want[2][2] == 0.0
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        fades = ([FadeSample(float(a), float(b)) for a, b in zip(x, y)] if as_scalars
                 else [FadeSample(x, y)])
    got = [np.array([getattr(f, name) for f in fades]).ravel() for name in ("z", "rx", "rz")]
    for g, w in zip(got, want):
        assert g.dtype == np.float64 and g.tobytes() == w.tobytes()


@pytest.mark.parametrize("s", ALL_SCENARIOS, ids=Scenario.label)
def test_integer_gains_decide_as_the_equal_floats(s):
    # an integer x*y of 3e9 * 4e9 would wrap in int64; float gains are kept as given
    gains = [np.array([3, 3_000_000_000, 1]), np.array([2, 4_000_000_000, 1]), np.array([5, 1, 2])]
    arrays = gains, [g.astype(np.float64) for g in gains]
    scalars = [int(g[0]) for g in gains], [float(g[0]) for g in gains]
    hd = s.duplex == "hd"
    for ints, same in (arrays, scalars):
        got = FadeSample(*ints[:2], None if hd else ints[2])
        want = FadeSample(*same[:2], None if hd else same[2])
        assert want.x is same[0] and want.y is same[1]
        for name in ("x", "y", "z", "rx", "rz"):
            g, w = np.asarray(getattr(got, name)), np.asarray(getattr(want, name))
            assert g.dtype == w.dtype == np.float64 and g.tobytes() == w.tobytes()
        assert np.array_equal(outage_indicator(CFG, s, got), outage_indicator(CFG, s, want))
        for g, w in zip(snr_pair(CFG, s, got), snr_pair(CFG, s, want)):
            assert g is w is None or np.asarray(g).tobytes() == np.asarray(w).tobytes()


def test_package_writes_no_object_once_it_is_built():
    # a frozen dataclass sets its fields in __post_init__, before any caller
    # holds it; object.__setattr__ anywhere else could write to an object that
    # the memo already shares with other threads
    found, in_post_init = [], 0
    for path in sorted(Path(model.__file__).parent.glob("*.py")):
        tree = ast.parse(path.read_text(encoding="utf-8"))
        allowed = {id(node) for f in ast.walk(tree)
                   if isinstance(f, ast.FunctionDef) and f.name == "__post_init__"
                   for node in ast.walk(f)}
        for node in ast.walk(tree):
            if (isinstance(node, ast.Attribute) and node.attr == "__setattr__"
                    and isinstance(node.value, ast.Name) and node.value.id == "object"):
                if id(node) in allowed:
                    in_post_init += 1
                else:
                    found.append(f"{path.name}:{node.lineno}")
    assert in_post_init and not found, f"object.__setattr__ outside __post_init__: {found}"


def test_indicator_leaves_fades_unchanged():
    fades = sample_fades(np.random.default_rng(59), 500)
    before = [v.copy() for v in (fades.x, fades.y, fades.w)]
    for s in ALL_SCENARIOS:
        outage_indicator(CFG, s, fades)
        snr_pair(CFG, s, fades)
    for v, b in zip((fades.x, fades.y, fades.w), before):
        assert v.tobytes() == b.tobytes()


MIXED_FADES = [  # gains of differing shapes, and the shape they broadcast to
    (FadeSample(2.0, np.full(3, 0.5)), (3,)),
    (FadeSample(np.full((2, 3), 2.0), np.full((2, 3), 0.5), 0.1), (2, 3)),
    (FadeSample(2.0, 0.5), ()),
    (FadeSample(2.0, 0.5, 0.1), ()),
]


@pytest.mark.parametrize("fade,shape", MIXED_FADES, ids=["scalar-x", "scalar-w", "hd", "fd"])
@pytest.mark.parametrize("cth", [1e6, 0.0], ids=["edge", "constant"])
def test_indicator_decided_without_the_trials_keeps_the_broadcast_shape(monkeypatch, fade,
                                                                         shape, cth):
    """A block decided at the certain-outage edge, or AF's with one SNR for
    every trial, is the fades' broadcast shape, a numpy bool for scalar fades."""
    for step in ("_any_past", "_iota"):  # the steps that read the trials
        monkeypatch.setattr(mc, step, None)
    duplex = "hd" if fade.w is None else "fd"
    decided = [s for s in ALL_SCENARIOS  # DF at cth 0 reads its trials
               if s.duplex == duplex and (cth > 0 or s.relay == "af")]
    for s in decided:
        got = outage_indicator(replace(CFG, cth=cth), s, fade)
        assert np.shape(got) == shape and got.dtype == bool and np.all(got) == (cth > 0)
        assert isinstance(got, np.ndarray if shape else np.bool_)
    assert len(decided) == (2 if duplex == "fd" else 6) // (1 if cth > 0 else 2)


def grid_cutoff_pairs():
    """Every (prefactor, cth) of the selftest, boundary, figure and ps-sweep
    grids, plus prefactors 1e-4 and 0.999 at cth up to 100."""
    curves = grids.selftest_points(CFG) + grids.boundary_points(CFG)
    for preset in grids.FIGURE_PRESETS.values():
        curves += preset(CFG)[0]
    for label in ("hd-df-tsr", "hd-af-tsr", "hd-df-psr", "hd-af-psr", "hd-df-irr", "hd-af-irr"):
        curves.append(grids.axis_curve(CFG, Scenario.from_label(label, tau=0.3, rho=0.5), "ps",
                                       [50.0, 5000.0]))
    pairs = {(capacity_prefactor(p.scenario), p.cfg.cth) for p in curve_rows(curves)}
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

    def test_search_from_a_guess_finds_what_plain_bisection_finds(self):
        # the search starts at 2**(cth/pre) - 1 and steps ulps before it bisects;
        # a plain bisection of the bit patterns asks only about midpoints
        def bisection(pre, cth):
            lo, hi = -1, _INF_BITS
            while hi - lo > 1:
                mid = (lo + hi) // 2
                if capacity(pre, np.array([mid], np.int64).view(np.float64))[0] >= cth:
                    hi = mid
                else:
                    lo = mid
            return float(np.int64(hi).view(np.float64))

        rng = np.random.default_rng(67)
        pres = [*np.geomspace(1e-4, 0.9999, 24), *rng.uniform(1e-3, 1.0, 24)]
        cths = [0.0, 5e-324, 1e-300, 1e-100, 1e-17, 1e-9, 1e-3, 0.5, 1.0, 2.0, 46.0, 1e3, 1e6,
                *10.0 ** rng.uniform(-20.0, 3.0, 48)]
        pairs = [(pre, cth) for pre in pres for cth in cths] + grid_cutoff_pairs()
        assert len(pairs) > 3000
        for pre, cth in pairs:
            assert snr_cutoff.__wrapped__(pre, cth) == bisection(pre, cth), (pre, cth)

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
    # the window crosses v through both its float neighbours (v itself need not be
    # reachable); where no DF product a*(x*y) is v's upper neighbour (hd-df-psr's
    # a = 0x1.89374bc6a7efap-3), it holds the float above that. An AF SNR
    # 1/(beta*iota) is a reciprocal, which skips up to every other float, so its
    # window holds an SNR at or past each neighbour and at most one float past it
    lower, upper = np.nextafter(v, 0.0), np.nextafter(v, math.inf)
    if s.relay == "af":
        assert gamma[gamma <= lower].max() >= np.nextafter(lower, 0.0)
        assert gamma[gamma >= upper].min() <= np.nextafter(upper, math.inf)
    else:
        a = snr_coefficients(CFG, s)[1]
        q = int(np.float64(upper / a).view(np.int64))
        if upper not in a * np.arange(q - 2, q + 3).view(np.float64):
            upper = np.nextafter(upper, math.inf)
        assert np.isin([lower, upper], gamma).all()
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

    @pytest.mark.parametrize("s", [hd("df", "irr"), hd("af", "tsr", tau=0.3),
                                   Scenario("fd", "df", "tsr", tau=0.01)], ids=Scenario.label)
    def test_small_threshold_keeps_its_relative_precision(self, s):
        # 2**(cth/pre) - 1 cancels where cth/pre is small, and is 0 below about 2.2e-16
        pre = capacity_prefactor(s)
        expos = np.concatenate([10.0 ** np.linspace(-300.0, 0.0, 601), np.linspace(0.4, 1.0, 61)])
        with mpmath.workdps(40):
            for cth in (expos * pre).tolist():
                want = mpmath.expm1(mpmath.mpf(cth) / mpmath.mpf(pre) * mpmath.log(2))
                assert abs(threshold_snr(s, cth) - want) <= 1e-15 * want, cth


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


NAN, INF = math.nan, math.inf
# per case: the axis, base scenario, total distance, base-config changes, and values each
# passing or failing a different rule, so that a row's first failing rule is not always
# the curve's first
CHECKED_AXES = {
    "tau": ("tau", "fd-af-tsr", None, {}, [0.5, 5e-324, 1 - 2**-53, 0.0, 1.0, -1.0, NAN, INF]),
    "rho": ("rho", "hd-df-psr", None, {}, [0.5, 1e-300, 0.0, 1.0, 2.0, NAN]),
    "cth": ("cth", "hd-af-irr", None, {}, [2.0, 0.0, -0.0, 1e308, -1.0, NAN, INF]),
    "d1": ("d1", "hd-df-irr", None, {}, [5.0, 1e-300, 1e-150, 1e150, 1e200, 0.0, -1.0, NAN, INF]),
    "d1-total": ("d1", "hd-af-irr", 30.0, {"path_loss_exp": 140.0},
                 [3.0, 15.0, 27.0, 30.0, 1e-300, 0.0, NAN]),
    "sigma_db": ("sigma_db", "hd-af-psr", None, {}, [2.0, 1e-300, 1e300, 0.0, -1.0, NAN, INF]),
    "ps": ("ps", "hd-df-tsr", None, {}, [1.0, 1e308, 1e-320, 5e-324, 0.0, -1.0, NAN, INF]),
    "ps-far": ("ps", "hd-af-tsr", None, {"d1_m": 1e150}, [1.0, 1e250, 1e-100]),
    "sigma_g_db": ("sigma_g_db", "fd-df-tsr", None, {}, [2.2, 1e-300, 0.0, NAN, INF]),
    "mismatch": ("tau", "hd-df-irr", None, {}, [0.5]),
}


@pytest.mark.parametrize("case", sorted(CHECKED_AXES))
def test_curve_check_agrees_with_its_rows(case):
    axis, label, total, changes, values = CHECKED_AXES[case]
    cfg, base = replace(CFG, **changes), Scenario.from_label(label, tau=0.5, rho=0.5)
    for chosen in [(v,) for v in values] + list(itertools.product(values, repeat=2)):
        curve = grids.Curve("", axis, chosen, cfg, base, total)
        errors = []
        for i in range(len(chosen)):
            try:
                curve.row(i)
            except ValueError as exc:
                errors.append(str(exc))
        assert curve.valid() == (not errors), chosen
        if errors:  # the first bad row's own message
            with pytest.raises(ValueError) as raised:
                grids.axis_curve(cfg, base, axis, chosen, total=total)
            assert str(raised.value) == errors[0]
        else:  # built unchecked, each pair equals its checked row
            built = grids.axis_curve(cfg, base, axis, chosen, total=total)
            pairs = [built.pair(i) for i in range(len(chosen))]
            assert pairs == [curve.row(i) for i in range(len(chosen))]
            assert pairs == [replaced_pair(cfg, base, axis, value, total) for value in chosen]


def replaced_pair(cfg, scenario, axis, value, total):
    """(cfg, scenario) with every field grids.AXIS_FIELDS names for `axis` set
    to `value` by dataclasses.replace, a nested ChannelSpec's too, and d2_m
    set to total - value on a d1 curve with a total: the row built
    independently of grids.Curve."""
    objs = {"system": cfg, "scenario": scenario}
    names = dict.fromkeys(grids.AXIS_FIELDS[axis], value)
    if axis == "d1" and total is not None:
        names["system.d2_m"] = total - value
    for name, field_value in names.items():
        owner, field, *leaf = name.split(".")
        if leaf:
            field_value = replace(getattr(objs[owner], field), **{leaf[0]: field_value})
        objs[owner] = replace(objs[owner], **{field: field_value})
    return objs["system"], objs["scenario"]


@pytest.mark.parametrize("value", ["2", "x", None])
def test_axis_curve_rejects_a_value_that_is_not_a_number(value):
    for axis in grids.SWEEP_AXES:
        with pytest.raises(ValueError) as raised:
            grids.axis_curve(CFG, hd("df", "tsr", tau=0.5), axis, [0.5, value])
        assert str(raised.value) == f"{axis} values must be real numbers, got {value!r}"


def coefficients(cfg, s):
    """threshold_snr, relay_budget and snr_coefficients (no k1 for HD-AF): the
    numbers the analytic path reads off columns."""
    return [threshold_snr(s, cfg.cth), *relay_budget(cfg, s),
            *(v for v in snr_coefficients(cfg, s) if v is not None)]


@pytest.mark.parametrize("label", ["hd-df-tsr", "hd-df-psr", "hd-df-irr", "hd-af-tsr", "hd-af-psr",
                                   "hd-af-irr", "fd-df-tsr", "fd-af-tsr"])
def test_coefficient_helpers_take_columns_bit_for_bit(label):
    # the analytic path calls these helpers with float64 columns in place of the
    # fields; each element must be the float its row gives alone (numpy's SIMD power
    # differs from libm's in the last bit on about 5 % of inputs)
    from types import SimpleNamespace

    rng = np.random.default_rng(17)
    n = 2000
    p, cth = rng.uniform(0.01, 0.99, n), rng.uniform(0.0, 9.0, n)
    d1, exp = rng.uniform(1.0, 30.0, n), rng.uniform(1.0, 4.0, n)
    pc = rng.uniform(0.0, 0.5, n) if "-df-" in label else np.zeros(n)
    rows = [(replace(CFG, cth=c, d1_m=d, path_loss_exp=e),
             Scenario.from_label(label, q, q, pc_fraction=f))
            for c, d, e, q, f in zip(cth, d1, exp, p, pc)]
    cfg = SimpleNamespace(**{k: np.full(n, float(v)) for k, v in vars(CFG).items()
                             if isinstance(v, float)})
    cfg.cth, cfg.d1_m, cfg.path_loss_exp = cth, d1, exp
    s = rows[0][1]
    scenario = SimpleNamespace(duplex=s.duplex, relay=s.relay, eh=s.eh, pc_fraction=pc,
                               tau=p if s.tau is not None else None,
                               rho=p if s.rho is not None else None)
    columns = coefficients(cfg, scenario)
    for got, want in zip(columns, zip(*(coefficients(c, s) for c, s in rows)), strict=True):
        got = np.broadcast_to(np.asarray(got, float), n)  # share = 1, DF's b = 0 and c = 1
        assert np.array_equal(got.view(np.uint64), np.array(want).view(np.uint64))


def test_link_model_imports_no_ehrelay_module_but_lognormal():
    # the shared link model stays a leaf of the package, so that it can be tested and
    # mutated on its own: it reads the channel model and nothing that builds on it
    imported = set()
    for node in ast.walk(ast.parse(Path(model.__file__).read_text(encoding="utf-8"))):
        if isinstance(node, ast.ImportFrom):
            module = "ehrelay." * bool(node.level) + (node.module or "")
            names = ([f"ehrelay.{a.name}" for a in node.names] if module.rstrip(".") == "ehrelay"
                     else [module])
        elif isinstance(node, ast.Import):
            names = [a.name for a in node.names]
        else:
            continue
        imported |= {n.split(".")[1] for n in names if n.startswith("ehrelay.")}
    assert imported == {"lognormal"}
