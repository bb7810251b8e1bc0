"""Physical link model shared by the analytic and Monte Carlo paths.

Covers the harvested relay power, the per-scenario SNRs, instantaneous
capacities and the outage indicator for a dual-hop link whose relay is
powered entirely by the source signal. The SNR/capacity functions accept
scalar fades or numpy arrays of fades and broadcast elementwise. The
coefficient helpers (hop_losses, relay_noise_w, eh_time_gain, the two
*_snr_coefficients, capacity_prefactor and threshold_snr) also accept a
cfg and scenario whose numeric fields are float64 arrays, as the analytic
path's columns are, and give each element the float its row gives alone.
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass, field, replace

import numpy as np

from .lognormal import ChannelSpec, elementwise

_LN2 = math.log(2.0)

DUPLEX_MODES = ("hd", "fd")
RELAY_PROTOCOLS = ("df", "af")
EH_PROTOCOLS = ("tsr", "psr", "irr")


@dataclass(frozen=True)
class SystemConfig:
    """Link parameters. Defaults describe the baseline indoor link used by
    the bundled experiments: 1 W source, unit harvester efficiency,
    free-space-like exponent 2, two 5 m hops and 0.005 W noise at the relay
    and destination (split evenly between antenna and conversion noise)."""

    ps_watts: float = 1.0
    eta: float = 1.0
    path_loss_exp: float = 2.0
    d1_m: float = 5.0
    d2_m: float = 5.0
    sigma_a2_w: float = 0.0025
    sigma_c2_w: float = 0.0025
    sigma_d2_w: float = 0.005
    cth: float = 2.0
    ch1: ChannelSpec = field(default=ChannelSpec(3.0, 2.0))
    ch2: ChannelSpec = field(default=ChannelSpec(3.0, 2.0))
    chg: ChannelSpec = field(default=ChannelSpec(3.0, math.sqrt(5.0)))

    def __post_init__(self):
        if not self.ps_watts > 0:
            raise ValueError(f"ps_watts must be > 0, got {self.ps_watts}")
        if not 0 < self.eta <= 1:
            raise ValueError(f"eta must be in (0, 1], got {self.eta}")
        if not self.path_loss_exp >= 1:
            raise ValueError(f"path_loss_exp must be >= 1, got {self.path_loss_exp}")
        for name in ("d1_m", "d2_m"):
            if not getattr(self, name) > 0:
                raise ValueError(f"{name} must be > 0, got {getattr(self, name)}")
        for name in ("sigma_a2_w", "sigma_c2_w", "sigma_d2_w"):
            if not getattr(self, name) > 0:
                raise ValueError(f"{name} must be > 0, got {getattr(self, name)}")
        if not self.cth >= 0:
            raise ValueError(f"cth must be >= 0, got {self.cth}")
        # Every SNR coefficient is one of these scales times protocol
        # factors; an overflowed or underflowed scale would make the SNRs
        # infinite or zero for every fade.
        try:
            lp1, lp2 = hop_losses(self)
        except OverflowError:
            lp1 = lp2 = math.inf
        relay_noise = lp1 * (self.sigma_a2_w + self.sigma_c2_w)
        destination_noise = lp1 * lp2 * self.sigma_d2_w
        derived = {  # checked in order, so a noise that underflows to 0 is never divided by
            "path loss d1_m**path_loss_exp": lp1,
            "path loss d2_m**path_loss_exp": lp2,
            "relay noise lp1 * (sigma_a2_w + sigma_c2_w)": relay_noise,
            "destination noise lp1 * lp2 * sigma_d2_w": destination_noise,
            "relay SNR scale": relay_noise and self.ps_watts / relay_noise,
            "destination SNR scale": destination_noise and self.ps_watts / destination_noise,
        }
        for name, value in derived.items():
            if not (math.isfinite(value) and value > 0):
                raise ValueError(f"{name} must be finite and > 0, got {value}")


@dataclass(frozen=True)
class Scenario:
    """System variant: duplex mode x relay protocol x harvesting protocol.

    TSR harvests for a fraction tau of the frame, PSR splits off a fraction
    rho of the received power, IRR harvests and decodes simultaneously and
    has no free parameter. pc_fraction diverts that share of the harvested
    power to processing at a DF relay (always zero for AF).
    """

    duplex: str
    relay: str
    eh: str
    tau: float | None = None
    rho: float | None = None
    pc_fraction: float = 0.0

    def __post_init__(self):
        if self.duplex not in DUPLEX_MODES:
            raise ValueError(f"duplex must be one of {DUPLEX_MODES}, got {self.duplex!r}")
        if self.relay not in RELAY_PROTOCOLS:
            raise ValueError(f"relay must be one of {RELAY_PROTOCOLS}, got {self.relay!r}")
        if self.eh not in EH_PROTOCOLS:
            raise ValueError(f"eh must be one of {EH_PROTOCOLS}, got {self.eh!r}")
        if self.duplex == "fd" and self.eh != "tsr":
            raise ValueError("fd supports only the tsr harvesting protocol")
        if self.eh == "tsr":
            if self.tau is None or not 0 < self.tau < 1:
                raise ValueError(f"tau must be in (0, 1) for tsr, got {self.tau}")
        elif self.tau is not None:
            raise ValueError(f"tau is only meaningful for tsr, got {self.tau}")
        if self.eh == "psr":
            if self.rho is None or not 0 < self.rho < 1:
                raise ValueError(f"rho must be in (0, 1) for psr, got {self.rho}")
        elif self.rho is not None:
            raise ValueError(f"rho is only meaningful for psr, got {self.rho}")
        if not 0 <= self.pc_fraction < 1:
            raise ValueError(f"pc_fraction must be in [0, 1), got {self.pc_fraction}")
        if self.relay == "af" and self.pc_fraction > 0:
            raise ValueError("pc_fraction > 0 applies to df relaying only")

    @property
    def eh_param_name(self) -> str | None:
        """Name of the free harvesting parameter (tau, rho; None for irr)."""
        return {"tsr": "tau", "psr": "rho"}.get(self.eh)

    def with_eh_param(self, value: float) -> "Scenario":
        """This scenario with its free harvesting parameter set to value."""
        if self.eh_param_name is None:
            raise ValueError(f"{self.eh} has no harvesting parameter")
        return replace(self, **{self.eh_param_name: value})

    def label(self) -> str:
        return f"{self.duplex}-{self.relay}-{self.eh}"

    @classmethod
    def from_label(cls, label: str, tau: float | None = None,
                   rho: float | None = None, pc_fraction: float = 0.0) -> "Scenario":
        parts = label.lower().split("-")
        if len(parts) != 3:
            raise ValueError(f"scenario label must look like 'hd-df-tsr', got {label!r}")
        duplex, relay, eh = parts
        return cls(duplex=duplex, relay=relay, eh=eh,
                   tau=tau if eh == "tsr" else None,
                   rho=rho if eh == "psr" else None,
                   pc_fraction=pc_fraction)


class FadeRangeError(ValueError):
    """Squared gains that are not all finite and strictly positive, as when fades leave the
    float64 range."""


@dataclass(frozen=True)
class FadeSample:
    """One joint realization of squared gains (arrays allowed): x = h1^2,
    y = h2^2 and, for full-duplex, the loop-back gain w = g^2."""

    x: object
    y: object
    w: object = None

    def __post_init__(self):
        # two reductions per channel and no temporary; a NaN minimum fails too
        for name in ("x", "y") if self.w is None else ("x", "y", "w"):
            gains = np.asarray(getattr(self, name))
            if not gains.min(initial=np.inf) > 0:
                raise FadeRangeError(f"{name} must be strictly positive")
            if not gains.max(initial=0.0) < np.inf:
                raise FadeRangeError(f"{name} must be finite")


def hop_losses(cfg: SystemConfig) -> tuple[float, float]:
    return (elementwise(pow, cfg.d1_m, cfg.path_loss_exp),
            elementwise(pow, cfg.d2_m, cfg.path_loss_exp))


def relay_noise_w(cfg: SystemConfig, scenario: Scenario) -> float:
    """Noise variance at the relay's information receiver.

    PSR routes only the (1-rho) share of the antenna signal to the decoder,
    so the antenna noise contribution scales with (1-rho)."""
    if scenario.eh == "psr":
        return (1.0 - scenario.rho) * cfg.sigma_a2_w + cfg.sigma_c2_w
    return cfg.sigma_a2_w + cfg.sigma_c2_w


def eh_time_gain(cfg: SystemConfig, scenario: Scenario) -> float:
    """k = eta*tau/(1-tau), the harvested-power scale of the TSR protocols."""
    return cfg.eta * scenario.tau / (1.0 - scenario.tau)


def df_snr_coefficients(cfg: SystemConfig, scenario: Scenario) -> tuple[float, float]:
    """SNR coefficients (k1, k2) for DF relaying.

    HD: gamma_r = k1*x and gamma_d = k2*x*y.
    FD: gamma_r = k1/w (loop-back limited) and gamma_d = k2*x*y.
    k2*d2**m*sigma_d2 is the relay transmit power per unit first-hop gain:
    HD-TSR retransmits over half the remaining frame and FD-TSR over all of
    it, which halves the FD power, and pc_fraction of it goes to processing.
    """
    if scenario.relay != "df":
        raise ValueError("df_snr_coefficients requires a df scenario")
    lp1, lp2 = hop_losses(cfg)
    sr2 = relay_noise_w(cfg, scenario)
    cost = 1.0 - scenario.pc_fraction
    if scenario.duplex == "fd":
        k = eh_time_gain(cfg, scenario)
        return 1.0 / k, cost * k * cfg.ps_watts / (lp1 * lp2 * cfg.sigma_d2_w)
    if scenario.eh == "tsr":
        k1 = cfg.ps_watts / (lp1 * sr2)
        k2 = 2.0 * eh_time_gain(cfg, scenario) * cfg.ps_watts / (lp1 * lp2 * cfg.sigma_d2_w)
    elif scenario.eh == "psr":
        k1 = (1.0 - scenario.rho) * cfg.ps_watts / (lp1 * sr2)
        k2 = cfg.eta * scenario.rho * cfg.ps_watts / (lp1 * lp2 * cfg.sigma_d2_w)
    else:
        k1 = cfg.ps_watts / (lp1 * sr2)
        k2 = cfg.eta * cfg.ps_watts / (lp1 * lp2 * cfg.sigma_d2_w)
    return k1, cost * k2


def af_snr_coefficients(cfg: SystemConfig, scenario: Scenario) -> tuple[float, float, float]:
    """Coefficients (A, B, C) of the HD-AF destination SNR A*x*y/(B*y + C)."""
    if scenario.duplex != "hd" or scenario.relay != "af":
        raise ValueError("af_snr_coefficients requires an hd-af scenario")
    lp1, lp2 = hop_losses(cfg)
    if scenario.eh == "tsr":
        twok = 2.0 * eh_time_gain(cfg, scenario)
        a = twok * cfg.ps_watts
        b = twok * lp1 * relay_noise_w(cfg, scenario)
        c = (1.0 - scenario.tau) * lp1 * lp2 * cfg.sigma_d2_w
    elif scenario.eh == "psr":
        rho = scenario.rho
        a = cfg.eta * rho * (1.0 - rho) * cfg.ps_watts
        b = cfg.eta * rho * lp1 * (cfg.sigma_c2_w + (1.0 - rho) * cfg.sigma_a2_w)
        c = (1.0 - rho) * lp1 * lp2 * cfg.sigma_d2_w
    else:
        a = cfg.eta * cfg.ps_watts
        b = cfg.eta * lp1 * relay_noise_w(cfg, scenario)
        c = lp1 * lp2 * cfg.sigma_d2_w
    return a, b, c


def _empty_pair(fade: FadeSample):
    """Two float64 arrays of the fades' broadcast shape (0-d for scalars)."""
    shape = np.broadcast_shapes(*(np.shape(v) for v in (fade.x, fade.y, fade.w)
                                  if v is not None))
    return np.empty(shape), np.empty(shape)


def snr_pair(cfg: SystemConfig, scenario: Scenario, fade: FadeSample, out=None):
    """Relay and destination SNRs (gamma_r, gamma_d); gamma_r is None for AF.

    `out` is an optional pair of float64 arrays of the fades' shape that
    receive gamma_r and gamma_d in place and are returned (AF uses the first
    as scratch). Without it the SNRs are fresh arrays, or numpy scalars for
    scalar fades. The fade arrays are never written.
    """
    x, y, w = fade.x, fade.y, fade.w
    if scenario.duplex == "fd" and w is None:
        raise ValueError("fd scenarios need the loop-back gain w in the fade sample")
    r, d = _empty_pair(fade) if out is None else out
    if scenario.relay == "df":
        k1, k2 = df_snr_coefficients(cfg, scenario)
        if scenario.duplex == "fd":
            np.divide(k1, w, out=r)
        else:
            np.multiply(k1, x, out=r)
        np.multiply(k2, x, out=d)
        np.multiply(d, y, out=d)
    elif scenario.duplex == "hd":
        # a*x*y / (b*y + c)
        a, b, c = af_snr_coefficients(cfg, scenario)
        np.multiply(b, y, out=r)
        np.add(r, c, out=r)
        np.multiply(a, x, out=d)
        np.multiply(d, y, out=d)
        np.divide(d, r, out=d)
        r = None
    else:
        # fd-af: amplified loop-back interference enters both signal path and
        # gain, ps*x*y / (lp1*lp2*sr2*(1/k + w) + ps*k*w*x*y)
        lp1, lp2 = hop_losses(cfg)
        k = eh_time_gain(cfg, scenario)
        sr2 = relay_noise_w(cfg, scenario)
        np.add(1.0 / k, w, out=r)
        np.multiply(lp1 * lp2 * sr2, r, out=r)
        np.multiply(cfg.ps_watts * k, w, out=d)
        np.multiply(d, x, out=d)
        np.multiply(d, y, out=d)
        np.add(r, d, out=r)
        np.multiply(cfg.ps_watts, x, out=d)
        np.multiply(d, y, out=d)
        np.divide(d, r, out=d)
        r = None
    if out is None:
        return (None if r is None else r[()]), d[()]
    return r, d


def capacity_prefactor(scenario: Scenario) -> float:
    """Fraction of the frame carrying one hop's data (the log2 multiplier)."""
    if scenario.duplex == "fd":
        return 1.0 - scenario.tau
    if scenario.eh == "tsr":
        return (1.0 - scenario.tau) / 2.0
    return 0.5


def capacity(pre: float, gamma):
    """Capacity pre*log2(1 + gamma) in bps/Hz, as pre*log1p(gamma)/ln 2."""
    return np.multiply(np.log1p(gamma), pre / _LN2)


def capacities(cfg: SystemConfig, scenario: Scenario, fade: FadeSample):
    """Instantaneous capacities (c_r, c_d) in bps/Hz; c_r is None for AF."""
    gamma_r, gamma_d = snr_pair(cfg, scenario, fade)
    pre = capacity_prefactor(scenario)
    c_r = None if gamma_r is None else capacity(pre, gamma_r)
    return c_r, capacity(pre, gamma_d)


# For float64 values >= 0 the order of the bit patterns, read as int64, is the
# order of the values.
_INF_BITS = int(np.float64(math.inf).view(np.int64))


@functools.lru_cache(maxsize=1024)
def snr_cutoff(pre: float, cth: float) -> float:
    """The least float64 gamma >= 0 with capacity(pre, gamma) >= cth, or inf
    when no finite gamma reaches cth. capacity does not decrease in gamma, so
    `gamma < snr_cutoff(pre, cth)` is `capacity(pre, gamma) < cth` bit for bit,
    without a log1p; the search bisects the bit patterns, evaluating capacity
    itself, on a float64 array, at each midpoint.
    """
    # (lo, hi]: the patterns of a gamma below the cutoff (-1: none) and of one at or above it
    lo, hi = -1, _INF_BITS
    while hi - lo > 1:
        mid = (lo + hi) // 2
        if capacity(pre, np.array([mid], np.int64).view(np.float64))[0] >= cth:
            hi = mid
        else:
            lo = mid
    return float(np.int64(hi).view(np.float64))


def outage_indicator(cfg: SystemConfig, scenario: Scenario, fade: FadeSample,
                     scratch=None):
    """True where the end-to-end capacity is below cth (bool array for arrays).

    Both hops share the capacity prefactor and capacity does not decrease in
    the SNR, so the end-to-end capacity is that of the weaker hop's SNR, and
    it is below cth exactly where that SNR is below snr_cutoff: one compare
    per trial. `scratch` is an optional pair of float64 arrays of the fades'
    shape that takes the SNRs (see snr_pair); without it fresh ones are
    used. The fade arrays are never written.
    """
    if scratch is None:
        scratch = _empty_pair(fade)
    gamma_r, gamma_d = snr_pair(cfg, scenario, fade, out=scratch)
    if gamma_r is not None:
        np.minimum(gamma_r, gamma_d, out=gamma_d)
    return gamma_d < snr_cutoff(capacity_prefactor(scenario), cfg.cth)


def _snr_for_rate(expo: float) -> float:
    # 2**expo - 1, infinite where 2**expo leaves the float64 range
    return math.inf if expo >= 1024.0 else 2.0**expo - 1.0


def threshold_snr(scenario: Scenario, cth: float) -> float:
    """Minimum SNR at which the instantaneous capacity reaches cth."""
    return elementwise(_snr_for_rate, cth / capacity_prefactor(scenario))


@dataclass(frozen=True)
class OutageEstimate:
    """A probability with its provenance; Monte Carlo estimates also carry
    the binomial standard error and the trial count."""

    value: float
    method: str
    stderr: float | None = None
    trials: int | None = None

    def __post_init__(self):
        if self.method not in ("analytic", "monte_carlo"):
            raise ValueError(f"unknown method {self.method!r}")
        if not 0.0 <= self.value <= 1.0:
            raise ValueError(f"value must be in [0, 1], got {self.value}")
        if self.stderr is not None and self.stderr < 0:
            raise ValueError(f"stderr must be >= 0, got {self.stderr}")
