"""The certain-outage edge of the Monte Carlo decision: a DF relay's edge
(model._relay_edge) decides its hop exactly, an AF edge (model._af_edge) only
where every trial past it is in outage by the SNR decision, and
outage_indicator, which uses both, flags what the weaker hop's SNR flags,
also where it computes the SNRs of only a block's trials short of the edge."""

import math
import sys

import mpmath
import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from ehrelay import model
from ehrelay.lognormal import ChannelSpec, sample_sq_gain
from ehrelay.model import (
    FadeSample,
    Scenario,
    SystemConfig,
    capacity,
    capacity_prefactor,
    outage_indicator,
    snr_cutoff,
    snr_pair,
)

_INF_BITS = int(np.float64(math.inf).view(np.int64))
TINY, HUGE = sys.float_info.min, sys.float_info.max

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
            edge = model._relay_edge(duplex, np.float64(k1), cut)
            gains = gains_around(edge, rng)
            with np.errstate(over="ignore", under="ignore"):
                snr = np.multiply(k1, gains) if duplex == "hd" else np.divide(k1, gains)
            past = gains < edge if duplex == "hd" else gains >= edge
            assert np.array_equal(past, snr < cut), (k1, cut, edge)


def test_relay_edge_at_the_ends_of_the_range():
    assert model._relay_edge("hd", 1.0, 0.0) == 0.0  # no x is in outage
    assert model._relay_edge("fd", 1.0, 0.0) == math.inf  # no w is
    assert model._relay_edge("hd", 1.0, math.inf) == math.inf  # 1*x never reaches inf
    assert model._relay_edge("fd", math.inf, 1.0) == math.inf  # inf/w is never below cut
    assert model._relay_edge("hd", math.inf, 1.0) == 0.0  # inf*x is never below cut
    assert model._relay_edge("fd", 0.0, 1.0) == 5e-324  # 0/w always is


def magnitude(low: int, high: int):
    """A float64 m * 2**e, e in [low, high], m in [1, 2)."""
    return st.builds(lambda e, m: m * 2.0**e, st.integers(low, high),
                     st.floats(1.0, 2.0, exclude_max=True))


@settings(max_examples=600, deadline=None, derandomize=True, database=None)
@given(duplex=st.sampled_from(["hd", "fd"]), a=magnitude(-40, 40), b=magnitude(-40, 40),
       c=magnitude(-300, 40), k1=magnitude(-40, 40), cut=magnitude(-120, 40),
       other=magnitude(-40, 40), scale=st.integers(-1100, 1100),
       spreads=st.tuples(st.floats(0.0, 40.0), st.floats(0.0, 40.0)),
       offset=st.sampled_from([*range(-3, 4), 64, 2**20, 2**23, 2**30, 2**40, -(2**22),
                               -(2**23), -(2**24), -(2**30)]),
       short=st.integers(0, 5), seed=st.integers(0, 2**32 - 1))
# a*x*y subnormal, with 2**-14 of relative precision, while b*y is normal
@example(duplex="hd", a=1.0, b=2.0**100, c=2.0**-74, k1=1.0, cut=2.0**-100, other=2.0**-60,
         scale=-1000, spreads=(0.0, 1.0), offset=1, short=0, seed=1)
# c negligible and the extreme gain short of the edge, at cut*b/a*(1 + 2**-42) (HD) or at
# a/(b*cut)*(1 - 2**-43) and 1 (FD): an edge that takes those trials fails
@example(duplex="hd", a=1.0, b=1.0, c=2.0**-300, k1=1.0, cut=1.0, other=1.0, scale=0,
         spreads=(0.0, 1.0), offset=-(2**23 + 2**10), short=0, seed=1)
@example(duplex="fd", a=1.0, b=1.0, c=2.0**-300, k1=1.0, cut=1.0, other=1.0, scale=0,
         spreads=(0.0, 1.0), offset=-(2**22 + 2**10), short=0, seed=1)
@example(duplex="fd", a=1.0, b=1.0, c=2.0**-300, k1=1.0, cut=1.0, other=1.0, scale=0,
         spreads=(0.0, 1.0), offset=-(2**22), short=0, seed=1)
def test_af_edge_flags_only_trials_the_snr_decision_flags(duplex, a, b, c, k1, cut, other,
                                                          scale, spreads, offset, short, seed):
    """Every trial past the edge that _af_edge gives has its destination SNR,
    computed as snr_pair computes it, below cut. The block's extreme gain is
    set `offset` floats past the edge, cut*b/a*(1 - 2**-30) for an HD x or
    a/(b*cut)*(1 + 2**-30) for an FD w (a negative offset: short of it), and
    its other gains spread from there or around `other`; `short` of its 16
    trials spread the other way, so 0-30 % of an FD block can lie short of an
    edge that it straddles, as on outage_indicator's subset path.
    Scaling a, b and c by 2**scale leaves every SNR as it is in exact
    arithmetic, and drives the floats to the ends of the normal range and past
    them, where the range guard decides."""
    rng = np.random.default_rng(seed)
    with np.errstate(all="ignore"):
        a, b, c = (float(np.ldexp(v, scale)) for v in (a, b, c))
        if duplex == "hd":
            sign, edge = -1, np.float64(cut) * b / a * (1.0 - 2.0**-30)
        else:
            sign, edge = 1, a / (np.float64(b) * cut) * (1.0 + 2.0**-30)
    if not 0 < edge < math.inf:
        edge = other
    pinned = float(np.int64(np.float64(edge).view(np.int64) + sign * offset).view(np.float64))
    if not 0 < pinned < math.inf:
        return
    # HD x at or below its pinned max, FD w at or above its pinned min
    with np.errstate(over="ignore", under="ignore"):
        edge_gain = pinned * 2.0 ** (sign * spreads[0] * rng.random(16))
        edge_gain[1:1 + short] = pinned * 2.0 ** (-sign * spreads[0] * rng.random(short))
        free_gain = other * 2.0 ** (spreads[1] * (rng.random(16) - 0.5))
    edge_gain[0] = pinned
    gains = {"x": edge_gain, "y": free_gain}
    if duplex == "fd":
        gains = {"x": free_gain, "y": free_gain[::-1].copy(), "w": edge_gain}
    if not all(np.all((v > 0) & (v < math.inf)) for v in gains.values()):
        return
    fade = FadeSample(**gains)
    scenario = Scenario(duplex, "af", "tsr", tau=0.5)
    coefficients = (None if duplex == "hd" else k1), a, b, c
    edge = model._af_edge(duplex, coefficients, cut, fade)
    past = fade.x < edge if duplex == "hd" else fade.w >= edge
    if past.any():
        with np.errstate(all="ignore"):
            gamma_d = model._snrs(coefficients, scenario, fade.z, fade.y, fade.w, np.empty(16),
                                  np.empty(16))
        assert np.all(gamma_d[past] < cut), (edge, gamma_d[past].max())


def test_af_edge_leaves_a_nan_snr_to_the_snr_decision():
    """An HD-AF trial whose a*x*y and b*y both overflow has a NaN SNR, which
    outage_indicator decides by its limit a*x/b (see the test below). Its x
    is far below the bound cut*b/a, but the range guard keeps the block off
    the edge."""
    coefficients = None, 1e300, 1e300, 1.0
    fade = FadeSample(np.array([1e4]), np.array([1e10]))
    cut = 1e5  # cut*b/a is 1e5 > x
    assert model._af_edge("hd", coefficients, cut, fade) == 0.0
    with np.errstate(all="ignore"):
        gamma_d = model._snrs(coefficients, Scenario("hd", "af", "irr"), fade.z, fade.y, None,
                              np.empty(1), np.empty(1))
    assert np.isnan(gamma_d[0])
    assert model._af_edge("hd", coefficients, cut, FadeSample(np.array([1e-9]), np.array([1e-10])))


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


def straddling_fade(rng, cfg, scenario, gains):
    """An FD-AF block of `gains` whose loop-back gains straddle the AF edge
    a/(b*cut)*(1 + 2**-30), with 0-30 % of them short of it, the first trial
    short and the second past; None where that edge is not a positive float."""
    _, a, b, _ = model.snr_coefficients(cfg, scenario)
    bc = b * snr_cutoff(capacity_prefactor(scenario), cfg.cth)
    if not 2.0**-900 < bc / a < 2.0**900:  # cth = 0 has no edge
        return None
    edge = a / bc * (1.0 + 2.0**-30)
    short = rng.random(64) < rng.uniform(0.0, 0.3)
    short[:2] = True, False
    return FadeSample(gains[0], gains[1],
                      edge * 2.0 ** (np.where(short, -1.0, 1.0) * rng.uniform(1e-3, 4.0, 64)))


@pytest.mark.parametrize("label", LABELS)
def test_indicator_flags_the_weaker_snr_below_the_cutoff(monkeypatch, label):
    """outage_indicator is min(snr_pair) < snr_cutoff trial by trial, over
    random links, on blocks of 64 fades and on scalar fades. Some of the
    blocks lie wholly past the edge, and some DF blocks have no trial past it
    and skip the compare on the gain. Each FD-AF link adds a block that
    straddles its edge with 0-30 % of its trials short of it: when at most
    _SUBSET_SHARE are, the SNRs of only those trials are computed."""
    past, some, sizes = [], [], []
    past_edge, any_past, snrs = model._past_edge, model._any_past, model._snrs
    monkeypatch.setattr(model, "_past_edge", lambda *args: past.append(past_edge(*args)) or past[-1])
    monkeypatch.setattr(model, "_any_past", lambda *args: some.append(any_past(*args)) or some[-1])
    monkeypatch.setattr(model, "_snrs",
                        lambda co, sc, x, *rest: sizes.append(np.size(x)) or snrs(co, sc, x, *rest))
    rng = np.random.default_rng(73)
    computed = set()  # whether a straddling FD-AF block computed only its short trials' SNRs
    for _ in range(150):
        cfg, scenario = random_link(rng, label)
        gains = [sample_sq_gain(ch, rng, 64) for ch in (cfg.ch1, cfg.ch2, cfg.chg)]
        if scenario.duplex == "hd":
            gains[2] = None
        scalars = [None if g is None else float(g[0]) for g in gains]
        fades = [FadeSample(*gains), FadeSample(*scalars)]
        if label == "fd-af-tsr":
            fades.append(straddling_fade(rng, cfg, scenario, gains))
        cut = snr_cutoff(capacity_prefactor(scenario), cfg.cth)
        for fade in filter(None, fades):
            gamma_r, gamma_d = snr_pair(cfg, scenario, fade)
            weaker = gamma_d if gamma_r is None else np.minimum(gamma_r, gamma_d)
            want = weaker < cut
            sizes.clear()
            got = outage_indicator(cfg, scenario, fade)
            assert np.shape(got) == np.shape(want) and np.array_equal(got, want)
            if fade is fades[-1] and len(fades) == 3:
                n = np.count_nonzero(fade.w < model._af_edge("fd", model.snr_coefficients(
                    cfg, scenario), cut, fade))
                subset = 0 < n <= model._SUBSET_SHARE * 64
                assert sizes == [n if subset else 64]
                computed.add(subset)
    assert any(past)
    if "-df-" in label:
        assert not all(some)
    if label == "fd-af-tsr":
        assert computed == {True, False}


@pytest.mark.parametrize("duplex", ["hd", "fd"])
def test_indicator_decides_an_overflowed_af_snr_by_its_limit(duplex):
    """Where a*x*y and its denominator both overflow, snr_pair's AF SNR is NaN,
    and outage_indicator decides the trial by the SNR's limit as x*y grows,
    a*x/b (HD) or a/(b*w) (FD): the decision of the exact SNR, which mpmath
    gives. The other trials keep the SNR decision. The HD link is one that
    SystemConfig accepts and whose 300 dB second hop draws such gains."""
    if duplex == "hd":
        cfg = SystemConfig(d1_m=1e50, ps_watts=5e97, ch2=ChannelSpec(3.0, 300.0))
        scenario = Scenario("hd", "af", "irr")
        fade = FadeSample(np.tile(np.geomspace(0.1, 100.0, 40), 2), np.repeat([1e5, 1e250], 40))
    else:
        cfg = SystemConfig(ps_watts=1e300)
        scenario = Scenario("fd", "af", "tsr", tau=0.5)
        fade = FadeSample(np.full(80, 1e6), np.repeat([1e-5, 1e5], 40),
                          np.tile(np.geomspace(1e-2, 1.0, 40), 2))
    k1, a, b, c = (mpmath.mpf(float(v)) if v is not None else None
                   for v in model.snr_coefficients(cfg, scenario))
    cut = snr_cutoff(capacity_prefactor(scenario), cfg.cth)
    with np.errstate(all="ignore"):
        _, gamma_d = snr_pair(cfg, scenario, fade)
        got = outage_indicator(cfg, scenario, fade)
    nan = np.isnan(gamma_d)
    assert np.array_equal(nan, np.arange(80) >= 40)
    assert np.array_equal(got[~nan], gamma_d[~nan] < cut)
    with mpmath.workprec(200):
        x, y = map(mpmath.mpf, (fade.x[40], fade.y[40]))
        exact = [a * x * y / (b * y + c) if duplex == "hd" else
                 a * x * y / (c * (k1 + mpmath.mpf(w)) + b * mpmath.mpf(w) * x * y)
                 for x, w in zip(map(mpmath.mpf, fade.x[40:]),
                                 fade.x[40:] if fade.w is None else fade.w[40:])]
        assert np.array_equal(got[nan], [v < cut for v in exact])
    assert 0 < np.count_nonzero(got[nan]) < 40  # NaN counted as no outage before


def test_indicator_keeps_blocks_off_the_edge_where_the_range_guard_fails(monkeypatch):
    """A straddling FD-AF block whose intermediates leave the normal range at
    its extreme gains gets no edge, so the SNRs of all its trials are
    computed: a subnormal a*x (x = 1e-310), or an a*x*y that overflows (the
    last trial, whose SNR is then NaN and decided by its limit). With normal
    intermediates the same block computes its three short trials' SNRs only."""
    sizes = []
    snrs = model._snrs
    monkeypatch.setattr(model, "_snrs",
                        lambda co, sc, x, *rest: sizes.append(np.size(x)) or snrs(co, sc, x, *rest))
    scenario = Scenario("fd", "af", "tsr", tau=0.5)
    w = np.geomspace(0.03, 10.0, 20)  # a = b, so the edge is 1/(cut = 15): w[:3] are short
    x = np.full(20, 100.0)
    for cfg, x, computed in ((SystemConfig(), x, 3), (SystemConfig(), np.r_[1e-310, x[1:]], 20),
                             (SystemConfig(ps_watts=1e300), np.r_[x[:-1], 1e10], 20)):
        fade = FadeSample(x, np.ones(20), w)
        with np.errstate(all="ignore"):
            _, gamma_d = snr_pair(cfg, scenario, fade)
            sizes.clear()
            got = outage_indicator(cfg, scenario, fade)
        assert sizes == [computed]
        # where the SNR is NaN (the overflow), its limit 1/w = 0.1 is below the cutoff
        assert np.array_equal(got, (gamma_d < 15.0) | np.isnan(gamma_d))
        assert not got[0] or x[0] < 1.0  # a short trial not in outage


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
        relay_edge = model._relay_edge(scenario.duplex, k1, cut)
        product_edge = model._relay_edge("hd", a, cut)
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
