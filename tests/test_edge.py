"""The certain-outage edge of the Monte Carlo decision: a DF relay's edge
(model._relay_edge) decides its hop exactly, an AF edge (model._af_edge) only
where every trial past it is in outage by the SNR decision, and
outage_indicator, which uses both, flags what the weaker hop's SNR flags."""

import math
import sys

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
       seed=st.integers(0, 2**32 - 1))
# a*x*y subnormal, with 2**-14 of relative precision, while b*y is normal
@example(duplex="hd", a=1.0, b=2.0**100, c=2.0**-74, k1=1.0, cut=2.0**-100, other=2.0**-60,
         scale=-1000, spreads=(0.0, 1.0), offset=1, seed=1)
# c negligible and the extreme gain short of the edge, at cut*b/a*(1 + 2**-42) (HD) or at
# a/(b*cut)*(1 - 2**-43) and 1 (FD): an edge that takes those trials fails
@example(duplex="hd", a=1.0, b=1.0, c=2.0**-300, k1=1.0, cut=1.0, other=1.0, scale=0,
         spreads=(0.0, 1.0), offset=-(2**23 + 2**10), seed=1)
@example(duplex="fd", a=1.0, b=1.0, c=2.0**-300, k1=1.0, cut=1.0, other=1.0, scale=0,
         spreads=(0.0, 1.0), offset=-(2**22 + 2**10), seed=1)
@example(duplex="fd", a=1.0, b=1.0, c=2.0**-300, k1=1.0, cut=1.0, other=1.0, scale=0,
         spreads=(0.0, 1.0), offset=-(2**22), seed=1)
def test_af_edge_flags_only_trials_the_snr_decision_flags(duplex, a, b, c, k1, cut, other,
                                                          scale, spreads, offset, seed):
    """Whenever _af_edge puts a block past its edge, every trial's destination
    SNR, computed as snr_pair computes it, is below cut. The block's extreme
    gain is set `offset` floats past the edge, cut*b/a*(1 - 2**-30) for an HD
    x or a/(b*cut)*(1 + 2**-30) for an FD w (a negative offset: short of it),
    and its other gains spread from there or around `other`.
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
    if model._past_edge(duplex, fade, model._af_edge(duplex, coefficients, cut, fade)):
        with np.errstate(all="ignore"):
            _, gamma_d = model._snrs(coefficients, scenario, fade, np.empty(16), np.empty(16))
        assert np.all(gamma_d < cut), (edge, gamma_d.max())


def test_af_edge_leaves_a_nan_snr_to_the_snr_decision():
    """An HD-AF trial whose a*x*y and b*y both overflow has a NaN SNR, which
    the SNR decision counts as no outage. Its x is far below the bound
    cut*b/a, but the range guard keeps the block off the edge."""
    coefficients = None, 1e300, 1e300, 1.0
    fade = FadeSample(np.array([1e4]), np.array([1e10]))
    cut = 1e5  # cut*b/a is 1e5 > x
    assert model._af_edge("hd", coefficients, cut, fade) == 0.0
    with np.errstate(all="ignore"):
        _, gamma_d = model._snrs(coefficients, Scenario("hd", "af", "irr"), fade,
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


@pytest.mark.parametrize("label", LABELS)
def test_indicator_flags_the_weaker_snr_below_the_cutoff(monkeypatch, label):
    """outage_indicator is min(snr_pair) < snr_cutoff trial by trial, over
    random links, on blocks of 64 fades and on scalar fades, and some of the
    blocks lie wholly past the edge."""
    past = []
    past_edge = model._past_edge
    monkeypatch.setattr(model, "_past_edge", lambda *args: past.append(past_edge(*args)) or past[-1])
    rng = np.random.default_rng(73)
    for _ in range(150):
        cfg, scenario = random_link(rng, label)
        gains = [sample_sq_gain(ch, rng, 64) for ch in (cfg.ch1, cfg.ch2, cfg.chg)]
        if scenario.duplex == "hd":
            gains[2] = None
        scalars = [None if g is None else float(g[0]) for g in gains]
        for fade in (FadeSample(*gains), FadeSample(*scalars)):
            gamma_r, gamma_d = snr_pair(cfg, scenario, fade)
            weaker = gamma_d if gamma_r is None else np.minimum(gamma_r, gamma_d)
            want = weaker < snr_cutoff(capacity_prefactor(scenario), cfg.cth)
            got = outage_indicator(cfg, scenario, fade)
            assert np.shape(got) == np.shape(want) and np.array_equal(got, want)
    assert any(past)
