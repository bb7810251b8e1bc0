"""The certain-outage edges of the Monte Carlo decision: a DF relay's edge
(mc._relay_edge) and its product edge decide each DF hop exactly, and an AF
trial is in outage exactly where iota, the sum of its inverse SNR
1/(beta*iota) (mc._inverse_form), is at or above mc._inverse_edge.
outage_indicator, which uses them, flags what the weaker hop's SNR flags, also
on blocks that it decides from their extreme gains alone, on gains and
coefficients at the ends of the float range, and where a coefficient is 0."""

import contextlib
import math
import sys
from unittest import mock

import mpmath
import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

import ehrelay.montecarlo as mc
from ehrelay import model
from ehrelay.lognormal import ChannelSpec, sample_sq_gain
from ehrelay.model import FadeSample, Scenario, SystemConfig, capacity, capacity_prefactor
from ehrelay.montecarlo import outage_indicator, snr_cutoff, snr_pair

_INF_BITS = int(np.float64(math.inf).view(np.int64))
TINY, HUGE = sys.float_info.min, sys.float_info.max
CFG = SystemConfig()

K1S = [*10.0 ** np.arange(-300.0, 301.0, 20.0), 0.37, 1.0, math.pi * 1e5, 1e-310, 5e-324,
       math.inf]
CUTS = [0.0, 5e-324, 1e-310, TINY, 1e-300, 0.05, 0.75, math.e, 255.0, 1e300, HUGE, math.inf,
        snr_cutoff(0.35, 2.0), snr_cutoff(0.5, 1e-12)]


def gains_around(edge: float, rng) -> np.ndarray:
    """Positive finite gains: the edge and 16 floats either side of it, the
    extremes of the range and 256 log-uniform ones."""
    at = int(np.float64(edge).view(np.int64))
    window = np.arange(max(at - 16, 1), min(at + 17, _INF_BITS))
    random = rng.integers(1, _INF_BITS, 256)
    return np.concatenate([window, random, [1, _INF_BITS - 1]]).view(np.float64)


@pytest.mark.parametrize("duplex", ["hd", "fd"])
def test_relay_edge_is_exact(duplex):
    """x < edge (w >= edge for FD) is the relay SNR k1*x (k1/w) below cut, in
    the float64 operation snr_pair uses, on every gain tried: the edge, its
    neighbours and random floats, so an edge one float off fails."""
    rng = np.random.default_rng(71)
    for k1 in K1S:
        for cut in CUTS:
            edge = mc._relay_edge(duplex, np.float64(k1), cut)
            gains = gains_around(edge, rng)
            with np.errstate(over="ignore", under="ignore"):
                snr = np.multiply(k1, gains) if duplex == "hd" else np.divide(k1, gains)
            past = gains < edge if duplex == "hd" else gains >= edge
            assert np.array_equal(past, snr < cut), (k1, cut, edge)


def test_relay_edge_at_the_ends_of_the_range():
    assert mc._relay_edge("hd", 1.0, 0.0) == 0.0  # no x is in outage
    assert mc._relay_edge("fd", 1.0, 0.0) == math.inf  # no w is
    assert mc._relay_edge("hd", 1.0, math.inf) == math.inf  # 1*x never reaches inf
    assert mc._relay_edge("fd", math.inf, 1.0) == math.inf  # inf/w is never below cut
    assert mc._relay_edge("hd", math.inf, 1.0) == 0.0  # inf*x is never below cut
    assert mc._relay_edge("fd", 0.0, 1.0) == 5e-324  # 0/w always is


AF_LABELS = ("hd-af-tsr", "hd-af-psr", "hd-af-irr", "fd-af-tsr")
BETAS = [*10.0 ** np.arange(-300.0, 301.0, 20.0), 0.37, 1.0, math.pi * 1e5, 1e-310, 5e-324, HUGE]


def test_inverse_edge_is_exact():
    """iota >= edge is snr_pair's SNR fl(1/fl(beta*iota)) below cut, on every
    iota tried: the edge, its neighbours, random floats, 0 and inf, so an edge
    one float off fails."""
    rng = np.random.default_rng(83)
    for beta in BETAS:
        for cut in CUTS[1:]:  # cut = 0 puts no trial in outage (see outage_indicator)
            edge = mc._inverse_edge(beta, cut)
            iota = np.concatenate([gains_around(edge, rng), [0.0, math.inf]])
            with np.errstate(all="ignore"):
                gamma = 1.0 / (beta * iota)
            assert np.array_equal(iota >= edge, gamma < cut), (beta, cut, edge)


def patched(coefficients, cut=None):
    """A context in which snr_pair and outage_indicator read `coefficients` and,
    unless None, the cutoff `cut`."""
    stack = contextlib.ExitStack()
    stack.enter_context(mock.patch.object(mc, "snr_coefficients", return_value=coefficients))
    if cut is not None:
        stack.enter_context(mock.patch.object(mc, "snr_cutoff", return_value=cut))
    return stack


def iotas(scenario, coefficients, fade):
    with np.errstate(all="ignore"):
        form = mc._inverse_form(scenario.duplex, *coefficients)
        scratch = np.empty(mc._fade_shape(fade))
        return mc._iota(scenario.duplex, form, coefficients[0], fade, scratch)


def edge_window(scenario, coefficients, edge, rng):
    """(x, y, w) of trials whose iota runs through the edge: 64 floats either
    side of the HD x (FD w) at which the trial's iota, at a drawn y (x and y),
    is about the edge; and the same with an x*y that overflows, so that iota
    is rx (HD) or w (FD). None where that gain is not a positive float."""
    _, lam, _ = mc._inverse_form(scenario.duplex, *coefficients)
    out = []
    for x, y in ((10 ** rng.uniform(-2, 2), 10 ** rng.uniform(-2, 2)), (1e200, 1e200)):
        rz = 1.0 / (x * y)
        if scenario.duplex == "hd":
            at, w = (1.0 + lam * rz * x) / edge, 1.0
        else:
            at, w = x, (edge - lam * float(coefficients[0]) * rz) / (1.0 + lam * rz)
        if not 0 < at < math.inf or not 0 < w < math.inf:
            continue
        bits = int(np.float64(at if scenario.duplex == "hd" else w).view(np.int64))
        window = np.arange(max(bits - 64, 1), min(bits + 65, _INF_BITS)).view(np.float64)
        n = window.size
        out.append((window, np.full(n, y), np.full(n, w)) if scenario.duplex == "hd"
                   else (np.full(n, x), np.full(n, y), window))
    return out


@pytest.mark.parametrize("label", AF_LABELS)
def test_af_flags_are_the_snr_decision_at_the_edge(label):
    """An AF trial's flag is capacity(pre, snr_pair) < cth bit for bit, on random
    links at their own cutoff and at every cut in CUTS (0 and inf among them,
    where the flag is snr_pair < cut, as snr_cutoff makes it): on drawn trials,
    a subnormal x (1/x overflows), an x*y that overflows or underflows, and
    trials whose iota runs through the edge and 16 floats and more either side
    of it, among them trials whose iota is the edge itself (a compare with >
    fails there)."""
    rng = np.random.default_rng(89)
    at_edge = 0
    for _ in range(25):
        cfg, scenario = random_link(rng, label)
        coefficients = model.snr_coefficients(cfg, scenario)
        beta = mc._inverse_form(scenario.duplex, *coefficients)[0]
        pre = capacity_prefactor(scenario)
        drawn = [sample_sq_gain(ch, rng, 64) for ch in (cfg.ch1, cfg.ch2, cfg.chg)]
        extreme = [np.array([1e-310, 1e200, 1e-170]), np.array([1.0, 1e200, 1e-170]),
                   np.array([1.0, 1e300, 1e-300])]
        base = [np.concatenate(g) for g in zip(drawn, extreme)]
        for cut in [None, *CUTS]:
            gains = base
            edge = mc._inverse_edge(beta, cut) if cut else math.nan
            if cut and edge < math.inf:
                for window in edge_window(scenario, coefficients, edge, rng):
                    gains = [np.concatenate(g) for g in zip(gains, window)]
            fade = FadeSample(*gains[:2], gains[2] if scenario.duplex == "fd" else None)
            _, gamma = snr_pair(cfg, scenario, fade)
            with patched(coefficients, cut):
                got = outage_indicator(cfg, scenario, fade)
            want = capacity(pre, gamma) < cfg.cth if cut is None else gamma < cut
            assert np.array_equal(got, want), (cfg, scenario, cut)
            if cut:
                iota = iotas(scenario, coefficients, fade)
                at_edge += np.count_nonzero(iota == edge)
                assert np.array_equal(got, iota >= edge)
    assert at_edge


def magnitude(low: int, high: int):
    """A float64 m * 2**e, e in [low, high], m in [1, 2)."""
    return st.builds(lambda e, m: m * 2.0**e, st.integers(low, high),
                     st.floats(1.0, 2.0, exclude_max=True))


@settings(max_examples=600, deadline=None, derandomize=True, database=None)
@given(duplex=st.sampled_from(["hd", "fd"]), a=magnitude(-40, 40), b=magnitude(-40, 40),
       c=magnitude(-300, 40), k1=magnitude(-40, 40), cut=magnitude(-120, 40),
       other=magnitude(-40, 40), scale=st.integers(-1100, 1100),
       spreads=st.tuples(st.floats(0.0, 40.0), st.floats(0.0, 40.0)),
       offset=st.sampled_from([*range(-3, 4), 64, 2**20, -(2**20), 2**40, -(2**40)]),
       short=st.integers(0, 5), seed=st.integers(0, 2**32 - 1))
# the extreme trial at the edge or a float short of it, the others past it
@example(duplex="hd", a=1.0, b=1.0, c=2.0**-300, k1=1.0, cut=1.0, other=1.0, scale=0,
         spreads=(0.0, 1.0), offset=0, short=0, seed=1)
@example(duplex="hd", a=1.0, b=1.0, c=2.0**-300, k1=1.0, cut=1.0, other=1.0, scale=0,
         spreads=(0.0, 1.0), offset=-1, short=0, seed=1)
@example(duplex="fd", a=1.0, b=1.0, c=1.0, k1=1.0, cut=1.0, other=1.0, scale=0,
         spreads=(0.0, 1.0), offset=-1, short=0, seed=1)
def test_af_bound_flags_only_trials_the_snr_decision_flags(duplex, a, b, c, k1, cut, other,
                                                           scale, spreads, offset, short, seed):
    """Every block whose iota at its extreme gains (the largest x and x*y, and
    for FD the smallest w) reaches the edge, so that outage_indicator flags it
    whole, has every trial's SNR, as snr_pair computes it, below cut. The
    block's extreme trial is set `offset` floats past the gain at which its
    iota is about the edge (a negative offset: short of it), and the other
    trials spread from there to larger iota, `short` of the 16 the other way.
    Scaling a, b and c by 2**scale leaves every SNR as it is in exact
    arithmetic, and drives the floats to the ends of the range and past them."""
    rng = np.random.default_rng(seed)
    with np.errstate(all="ignore"):
        a, b, c = (float(np.ldexp(v, scale)) for v in (a, b, c))
    coefficients = (None if duplex == "hd" else k1), a, b, c
    beta, lam, _ = mc._inverse_form(duplex, *coefficients)
    if not 0 < beta < math.inf:
        return
    edge = mc._inverse_edge(beta, cut)
    y1 = other
    x1 = (1.0 + lam / y1) / edge if duplex == "hd" else other
    w0 = 1.0 if duplex == "hd" else (edge - lam * k1 / (x1 * y1)) / (1.0 + lam / (x1 * y1))
    # HD: iota falls with x, so past the edge is a smaller x; FD: it grows with w
    sign, at = (-1, x1) if duplex == "hd" else (1, w0)
    if not 0 < at < math.inf:
        return
    pinned = float(np.int64(np.float64(at).view(np.int64) + sign * offset).view(np.float64))
    if not 0 < pinned < math.inf:
        return
    with np.errstate(over="ignore", under="ignore"):
        edge_gain = pinned * 2.0 ** (sign * spreads[0] * rng.random(16))
        edge_gain[1:1 + short] = pinned * 2.0 ** (-sign * spreads[0] * rng.random(short))
        free_gain = y1 * 2.0 ** (-spreads[1] * rng.random(16))
    edge_gain[0], free_gain[0] = pinned, y1
    gains = {"x": edge_gain, "y": free_gain}
    if duplex == "fd":
        gains = {"x": np.full(16, x1), "y": free_gain, "w": edge_gain}
    if not all(np.all((v > 0) & (v < math.inf)) for v in gains.values()):
        return
    fade = FadeSample(**gains)
    scenario = Scenario(duplex, "af", "tsr", tau=0.5)
    with patched(coefficients, cut):
        _, gamma = snr_pair(CFG, scenario, fade)
        got = outage_indicator(CFG, scenario, fade)
    assert np.array_equal(got, gamma < cut)
    (_, x_max), (_, y_max) = fade.extremes["x"], fade.extremes["y"]
    w_min = fade.extremes["w"][0] if duplex == "fd" else None
    if mc._iota_at((beta, lam, True), k1, x_max, x_max * y_max, w_min) >= edge:
        assert np.all(gamma < cut), (edge, gamma.max())


LABELS = ("hd-df-tsr", "hd-df-psr", "hd-df-irr", "hd-af-tsr", "hd-af-psr", "hd-af-irr",
          "fd-df-tsr", "fd-af-tsr")


def random_link(rng, label):
    cfg = SystemConfig(
        ps_watts=10 ** rng.uniform(-1.0, 4.0), eta=rng.uniform(0.1, 1.0),
        path_loss_exp=rng.uniform(1.5, 3.0), d1_m=rng.uniform(1.0, 10.0),
        d2_m=rng.uniform(1.0, 10.0), sigma_a2_w=10 ** rng.uniform(-4.0, -1.0),
        sigma_c2_w=10 ** rng.uniform(-4.0, -1.0), sigma_d2_w=10 ** rng.uniform(-4.0, -1.0),
        cth=rng.choice([0.0, rng.uniform(0.0, 1.0), rng.uniform(1.0, 8.0)]),
        ch1=ChannelSpec(rng.uniform(-5.0, 5.0), rng.uniform(0.1, 4.0)),
        ch2=ChannelSpec(rng.uniform(-5.0, 5.0), rng.uniform(0.1, 4.0)),
        chg=ChannelSpec(rng.uniform(-20.0, 10.0), rng.uniform(0.1, 4.0)))
    param = rng.uniform(0.01, 0.99)
    pc = rng.uniform(0.0, 0.3) if "-df-" in label else 0.0
    return cfg, Scenario.from_label(label, tau=param, rho=param, pc_fraction=pc)


def edge_trials(cfg, scenario, rng):
    """(x, y, w) of trials pinned at the link's certain-outage edges and the
    floats either side: a DF relay gain at its edge and one float either side,
    with the other gains at 1e154 (x*y stays finite), and a product x*y at the
    product edge and two floats either side (pinned_gains); AF trials whose
    iota runs through its edge (edge_window)."""
    coefficients = model.snr_coefficients(cfg, scenario)
    cut = snr_cutoff(capacity_prefactor(scenario), cfg.cth)
    if scenario.relay == "af":
        beta = mc._inverse_form(scenario.duplex, *coefficients)[0]
        edge = mc._inverse_edge(beta, cut) if cut > 0 and 0 < beta < math.inf else math.inf
        return edge_window(scenario, coefficients, edge, rng) if edge < math.inf else []
    relay_edge = mc._relay_edge(scenario.duplex, coefficients[0], cut)
    pinned = pinned_gains(scenario.duplex, relay_edge, mc._relay_edge("hd", coefficients[1], cut))
    at = int(np.float64(relay_edge).view(np.int64))
    gain = np.arange(at - 1, at + 2).view(np.float64)
    gain = gain[(gain > 0) & (gain < math.inf)]
    other = np.full(gain.size, 1e154)
    relay = (gain, other, other) if scenario.duplex == "hd" else (other, other, gain)
    return [relay] if pinned is None else [relay, pinned]


POSITIVE = st.floats(5e-324, HUGE)
SUBNORMAL = st.floats(5e-324, TINY, exclude_max=True)
EXTREME_TRIALS = st.lists(st.one_of(  # (x, y, w) at the ends of the float range
    st.tuples(SUBNORMAL, POSITIVE, POSITIVE), st.tuples(POSITIVE, SUBNORMAL, POSITIVE),
    st.tuples(POSITIVE, POSITIVE, SUBNORMAL),
    st.tuples(st.floats(2.0**512, HUGE), st.floats(2.0**512, HUGE), POSITIVE),  # x*y overflows
    st.tuples(st.floats(5e-324, 2.0**-538), st.floats(5e-324, 2.0**-538), POSITIVE),  # x*y is 0
    st.tuples(POSITIVE, POSITIVE, st.floats(2.0**1023, HUGE))), min_size=1, max_size=6)


@pytest.mark.parametrize("label", LABELS)
@settings(max_examples=3, deadline=None, derandomize=True, database=None)
@given(extremes=EXTREME_TRIALS)
@example(extremes=[(5e-324, 1.0, 1.0), (1.0, 1e-310, 1e-310), (1e200, 1e200, 1.0),
                   (1e-200, 1e-200, 1.0), (1.0, 1.0, HUGE)])
def test_indicator_flags_the_weaker_snr_below_the_cutoff(label, extremes):
    """outage_indicator is min(snr_pair) < snr_cutoff trial by trial, over
    random links, on blocks of 64 fades and on scalar fades. Some blocks lie
    wholly past the edge and are decided from their extreme gains, some DF
    blocks have no trial past the relay edge and skip the compare on the gain,
    and the other AF blocks compare every trial's iota with the edge. Two more
    blocks per link add to its drawn fades trials pinned at its edges
    (edge_trials), and the drawn `extremes`: subnormal gains, an x*y that
    overflows or underflows, and a w for which the last link's FD k1 + w
    overflows (tau = 2**-1023, so k1 = 2**1023)."""
    past, some, computed, whole = [], [], [], set()
    past_edge, any_past, iota = mc._past_edge, mc._any_past, mc._iota
    rng, pin_rng = np.random.default_rng(73), np.random.default_rng(74)
    with mock.patch.multiple(mc, _past_edge=lambda *args: past.append(past_edge(*args)) or past[-1],
                             _any_past=lambda *args: some.append(any_past(*args)) or some[-1],
                             _iota=lambda *args: computed.append(True) or iota(*args)):
        for n in range(151):
            cfg, scenario = random_link(rng, label)
            if n == 150:
                cfg, scenario = CFG, Scenario.from_label(label, tau=2.0**-1023, rho=2.0**-1023)
            fd = scenario.duplex == "fd"
            x, y, w = (sample_sq_gain(ch, rng, 64) for ch in (cfg.ch1, cfg.ch2, cfg.chg))
            fades = [FadeSample(x, y, w if fd else None),
                     FadeSample(float(x[0]), float(y[0]), float(w[0]) if fd else None)]
            for trials in (edge_trials(cfg, scenario, pin_rng), [np.transpose(extremes)]):
                gains = [np.concatenate(g) for g in zip((x, y, w), *trials)]
                fades.append(FadeSample(gains[0], gains[1], gains[2] if fd else None))
            cut = snr_cutoff(capacity_prefactor(scenario), cfg.cth)
            for i, fade in enumerate(fades):
                # the reference SNRs of the added trials, and k1/w at k1 = 2**1023, may overflow
                with np.errstate(all="ignore" if i >= 2 or n == 150 else None):
                    gamma_r, gamma_d = snr_pair(cfg, scenario, fade)
                weaker = gamma_d if gamma_r is None else np.minimum(gamma_r, gamma_d)
                want = weaker < cut
                computed.clear()
                got = outage_indicator(cfg, scenario, fade)
                assert np.shape(got) == np.shape(want), (cfg, scenario)
                assert np.array_equal(got, want), (cfg, scenario)
                if "-af-" in label and cut > 0 and np.ndim(got):
                    whole.add(not computed)
                    assert computed or got.all()
    if "-df-" in label:
        assert any(past) and not all(some)
    else:
        assert whole == {True, False}


@pytest.mark.parametrize("duplex", ["hd", "fd"])
def test_indicator_decides_an_overflowed_af_snr_by_its_limit(duplex):
    """Where a*x*y and its denominator both overflow, their quotient is NaN,
    but snr_pair's inverse form 1/(beta*iota) is finite and the SNR's limit as
    x*y grows, a*x/b (HD) or a/(b*w) (FD): its term of 1/z is negligible or
    0. outage_indicator decides every trial as the exact SNR, which mpmath
    gives, does. The HD link is one that SystemConfig accepts and whose 300 dB
    second hop draws such gains."""
    if duplex == "hd":
        cfg = SystemConfig(d1_m=1e50, ps_watts=5e97, ch2=ChannelSpec(3.0, 300.0))
        scenario = Scenario("hd", "af", "irr")
        fade = FadeSample(np.tile(np.geomspace(0.1, 100.0, 40), 2), np.repeat([1e5, 1e250], 40))
    else:
        cfg = SystemConfig(ps_watts=1e300)
        scenario = Scenario("fd", "af", "tsr", tau=0.5)
        fade = FadeSample(np.full(80, 1e6), np.repeat([1e-5, 1e5], 40),
                          np.tile(np.geomspace(1e-2, 1.0, 40), 2))
    k1, a, b, c = model.snr_coefficients(cfg, scenario)
    cut = snr_cutoff(capacity_prefactor(scenario), cfg.cth)
    x, y, z, w = fade.x, fade.y, fade.z, fade.w
    with np.errstate(all="ignore"):
        quotient = a * z / (b * y + c) if duplex == "hd" else a * z / (c * (k1 + w) + b * w * z)
    over = np.arange(80) >= 40
    assert np.array_equal(np.isnan(quotient), over)
    _, gamma_d = snr_pair(cfg, scenario, fade)
    got = outage_indicator(cfg, scenario, fade)
    limit = a * x / b if duplex == "hd" else a / (b * w)
    assert np.isfinite(gamma_d).all()
    assert np.allclose(gamma_d[over], limit[over], rtol=4 * 2.0**-52, atol=0.0)
    assert np.array_equal(got, gamma_d < cut)
    with mpmath.workprec(200):
        k1, a, b, c = (None if v is None else mpmath.mpf(float(v)) for v in (k1, a, b, c))
        exact = [a * xi * yi / (b * yi + c) if duplex == "hd" else
                 a * xi * yi / (c * (k1 + wi) + b * wi * xi * yi)
                 for xi, yi, wi in zip(*(map(mpmath.mpf, g) for g in (x, y, w if w is not None
                                                                         else y)))]
        assert np.array_equal(got, [v < cut for v in exact])
    assert 0 < np.count_nonzero(got[over]) < 40  # a NaN SNR would count as no outage


def test_indicator_decides_out_of_range_af_blocks_silently(monkeypatch):
    """A block whose extreme gains let an AF operation leave the float range (a
    subnormal x, whose 1/x overflows; an x*y that underflows to 0; FD's k1 + w
    that overflows) is decided under np.errstate, without a warning (pytest
    turns one into an error), and with the flags of the SNR decision; the same
    block with its gains in range, or with an x*y that overflows, whose
    reciprocal is 0, is decided outside np.errstate."""
    states = []
    iota = mc._iota
    monkeypatch.setattr(mc, "_iota",
                        lambda *args: states.append(np.geterr()["over"]) or iota(*args))
    outside = np.geterr()["over"]
    x = np.geomspace(0.02, 50.0, 20)
    ones, big = np.ones(20), np.full(20, 1e154)  # big*big = 1e308 takes k1 = 1e308 to 1
    cases = [  # duplex, k1, x, y, w, cut, the errstate _iota runs in
        ("hd", None, x, ones, None, 1.0, outside),
        ("hd", None, np.r_[1e-310, x[1:]], ones, None, 1.0, "ignore"),
        ("hd", None, np.r_[x[:-1], 1e200], np.r_[ones[:-1], 1e200], None, 1.0, outside),
        ("hd", None, np.r_[1e-170, x[1:]], np.r_[1e-170, ones[1:]], None, 1.0, "ignore"),
        ("fd", 1e308, big, big, x, 0.5, outside),
        ("fd", 1e308, big, big, np.r_[x[:-1], 1e308], 0.5, "ignore"),
        ("fd", 1.0, np.r_[x[:-1], 1e200], np.r_[ones[:-1], 1e200], x, 0.05, outside),
        ("fd", 1.0, np.r_[1e-170, x[1:]], np.r_[1e-170, ones[1:]], x, 0.05, "ignore")]
    for duplex, k1, x, y, w, cut, state in cases:
        scenario = Scenario(duplex, "af", "tsr", tau=0.5)
        fade = FadeSample(x, y, w)
        with patched((k1, 1.0, 1.0, 1.0), cut):
            _, gamma = snr_pair(CFG, scenario, fade)
            states.clear()
            got = outage_indicator(CFG, scenario, fade)
        assert states == [state], (duplex, k1, x, y, w)
        assert np.array_equal(got, gamma < cut) and got.any() and not got.all()


def exact_snr(duplex, coefficients, x, y, w):
    """An AF destination SNR in mpmath, a coefficient of 0 dropping its term and
    FD's k1 = inf making the SNR 0."""
    k1, a, b, c = (None if v is None else mpmath.mpf(float(v)) for v in coefficients)
    x, y = mpmath.mpf(x), mpmath.mpf(y)
    if a == 0 or k1 == mpmath.inf:
        return mpmath.mpf(0)
    if duplex == "hd":
        den = b * y + c
    else:
        w = mpmath.mpf(w)
        den = c * (k1 + w) + b * w * x * y
    return a * x * y / den if den else mpmath.inf


@pytest.mark.parametrize("duplex,coefficients,limit", [
    ("hd", (None, 0.0, 0.0, 0.5), "0"), ("hd", (None, 0.0, 1e-3, 0.5), "0"),
    ("hd", (None, 2.0, 0.0, 0.5), "a*z/c"), ("hd", (None, 2.0, 1e-3, 0.0), "a*x/b"),
    ("hd", (None, 2.0, 0.0, 0.0), "inf"), ("fd", (math.inf, 2.0, 0.0, 0.5), "0"),
    ("fd", (4.0, 2.0, 0.0, 0.5), "a*z/(c*(k1 + w))"), ("fd", (4.0, 2.0, 1e-3, 0.0), "a/(b*w)"),
    ("hd", "tau=5e-324", "0"), ("fd", "tau=5e-324", "0")])
def test_degenerate_af_coefficients_take_the_snr_limit(duplex, coefficients, limit):
    """Where a, b or c is 0 (a relay power that underflows, as at tau = 5e-324
    with eta < 1, makes HD's a and b 0, and FD's b 0 and k1 inf), snr_pair and
    outage_indicator give no NaN and no warning, snr_pair is within 8 ulps of
    mpmath's SNR with that coefficient 0 (exactly 0 or inf where that is), and
    the flags are the SNR decision, on drawn gains and at the ends of the range."""
    cfg, scenario = SystemConfig(eta=0.3), Scenario(duplex, "af", "tsr", tau=0.5)
    if coefficients == "tau=5e-324":
        scenario = Scenario(duplex, "af", "tsr", tau=5e-324)
        coefficients = model.snr_coefficients(cfg, scenario)
        assert coefficients[1:3] == (0.0, 0.0) if duplex == "hd" else (
            coefficients[0] == math.inf and coefficients[2] == 0.0)
    rng = np.random.default_rng(97)
    drawn = [sample_sq_gain(ch, rng, 64) for ch in (cfg.ch1, cfg.ch2, cfg.chg)]
    fade = FadeSample(*drawn[:2], drawn[2] if duplex == "fd" else None)
    extreme = FadeSample(np.array([1e-310, 1e200, 1e-170, 1.0]),
                         np.array([1.0, 1e200, 1e-170, 1.0]),
                         np.array([1.0, 1.0, 1.0, 1e308]) if duplex == "fd" else None)
    for cut in CUTS:
        with patched(coefficients, cut):
            for f in (fade, extreme):
                _, gamma = snr_pair(cfg, scenario, f)
                got = outage_indicator(cfg, scenario, f)
                assert not np.isnan(gamma).any()
                assert np.array_equal(got, gamma < cut)
    with patched(coefficients):
        _, gamma = snr_pair(cfg, scenario, fade)
    with mpmath.workprec(200):
        exact = [exact_snr(duplex, coefficients, *g) for g in zip(
            fade.x, fade.y, fade.w if duplex == "fd" else fade.y)]
    for got, want in zip(gamma, exact):
        if want in (0, mpmath.inf):
            assert got == want
        else:
            assert abs(got - want) <= 8 * 2.0**-52 * want, (got, want)
    assert limit != "0" or not gamma.any()


def pinned_gains(duplex, relay_edge, product_edge):
    """(x, y, w) of trials whose relay hop is not in outage (an HD x at the power of two at or
    above the relay edge, an FD w just below it) and whose product x*y is, exactly, the
    product edge or one of the two floats either side of it; None where no such trial is."""
    if duplex == "hd":
        power = math.frexp(relay_edge)[1] if relay_edge < math.inf else 1024
        x, w = (2.0**power if power < 1024 else None), 1.0
    else:
        x, w = 1.0, (math.nextafter(relay_edge, 0.0) if relay_edge > 5e-324 else None)
    if x is None or w is None or not 0 < product_edge < math.inf:
        return None
    at = int(np.float64(product_edge).view(np.int64))
    y = np.arange(at - 2, at + 3).view(np.float64) / x
    keep = (y > 0) & (y < math.inf) & (x * y == np.arange(at - 2, at + 3).view(np.float64))
    return np.full(keep.sum(), x), y[keep], np.full(keep.sum(), w)


@pytest.mark.parametrize("label", ["hd-df-tsr", "hd-df-psr", "hd-df-irr", "fd-df-tsr"])
def test_df_edges_flag_the_weaker_snr_below_the_cutoff(label):
    """A DF trial's flag from its two gain edges, its product z = x*y against
    _relay_edge("hd", a, cut) and its relay gain against the relay edge, is
    capacity(pre, min(snr_pair)) < cth bit for bit. Each random link's block
    holds drawn trials, trials whose z is the product edge or a float either
    side of it with the relay hop not in outage (an edge compared with <=
    fails there), and a subnormal z; a second block adds a z that overflows,
    so the whole block computes a*x*y as (a*x)*y. The last link has
    a*DBL_MAX < cut: no finite z reaches the cutoff, and a trial whose z
    overflows is in outage exactly where its exact a*x*y is below the cutoff."""
    rng = np.random.default_rng(79)
    links = [random_link(rng, label) for _ in range(100)]
    links.append((SystemConfig(ps_watts=0.01, d2_m=2.6e153),
                  Scenario.from_label(label, tau=0.5, rho=0.5)))
    decisive = 0
    for cfg, scenario in links:
        last = cfg is links[-1][0]
        k1, a, _, _ = model.snr_coefficients(cfg, scenario)
        pre = capacity_prefactor(scenario)
        cut = snr_cutoff(pre, cfg.cth)
        relay_edge = mc._relay_edge(scenario.duplex, k1, cut)
        product_edge = mc._relay_edge("hd", a, cut)
        x, y, w = (sample_sq_gain(ch, rng, 64) for ch in (cfg.ch1, cfg.ch2, cfg.chg))
        tiny = np.array([1e-160]), np.array([1e-155]), np.array([1.0])  # z = 1e-315
        gains = [np.concatenate(g) for g in zip((x, y, w), tiny)]
        pinned = pinned_gains(scenario.duplex, relay_edge, product_edge)
        if pinned:
            gains = [np.concatenate(g) for g in zip(gains, pinned)]
        overflow = [np.append(g, v) for g, v in zip(gains, (1e200, 1e200, 1.0))]
        if last:
            assert a * HUGE < cut and product_edge == math.inf
            t = np.geomspace(1.01, 2.0**19, 40)  # x*y = t*DBL_MAX: past the range
            overflow = [np.append(g, v) for g, v in zip(gains, (np.full(40, 2.0**20),
                                                                 t * (HUGE / 2.0**20),
                                                                 np.full(40, 1e-9)))]
        for x, y, w in (gains, overflow):
            fade = FadeSample(x, y, w if scenario.duplex == "fd" else None)
            with np.errstate(all="ignore"):
                want = capacity(pre, np.minimum(*snr_pair(cfg, scenario, fade))) < cfg.cth
            got = outage_indicator(cfg, scenario, fade)
            assert np.array_equal(got, want), (cfg, scenario)
            if pinned and x is gains[0]:
                decisive += np.count_nonzero(~got[x * y == product_edge])
        if last:
            exact = [mpmath.mpf(a) * mpmath.mpf(xi) * mpmath.mpf(yi) < cut
                     for xi, yi in zip(overflow[0][-40:], overflow[1][-40:])]
            assert np.array_equal(got[-40:], exact) and 0 < sum(exact) < 40
    assert decisive
