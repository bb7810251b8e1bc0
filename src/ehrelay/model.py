"""Physical link model shared by the analytic and Monte Carlo paths.

Holds the configuration types and their checks, the analytic path's
columns (Columns), and the link model both paths read: the path losses,
the relay's harvesting budget, the SNR coefficients, the capacity and the
threshold SNR of a dual-hop link whose relay is powered entirely by the
source signal. relay_budget is the one place a harvesting protocol enters:
every variant's SNR coefficients follow from its (share, power, noise).
The coefficient helpers (hop_losses, relay_budget, snr_coefficients,
capacity_prefactor and threshold_snr) accept a cfg and scenario whose
numeric fields are floats, float64 arrays, as Columns' are, or a mix, and
give each element the float its row gives alone. The per-fade SNRs,
capacities and outage decisions are the Monte Carlo path's (montecarlo).
"""

from __future__ import annotations

import math
from dataclasses import InitVar, dataclass, field
from types import SimpleNamespace

import numpy as np

from .lognormal import ChannelSpec, elementwise, finite_positive, holds

_LN2 = math.log(2.0)

DUPLEX_MODES = ("hd", "fd")
RELAY_PROTOCOLS = ("df", "af")
EH_PROTOCOLS = ("tsr", "psr", "irr")
# the free harvesting parameter of each protocol that has one
EH_PARAMS = {"tsr": "tau", "psr": "rho"}


def _scales(cfg):
    """(name, value) of each scale every SNR coefficient is one of, times
    protocol factors, in the order they are checked (see hop_losses for a
    power that overflows). An overflowed or underflowed scale would make the
    SNRs infinite or zero for every fade. Lazy, so that a noise is divided
    by only once it has passed its check."""
    lp1, lp2 = hop_losses(cfg)
    yield "path loss d1_m**path_loss_exp", lp1
    yield "path loss d2_m**path_loss_exp", lp2
    relay_noise = lp1 * (cfg.sigma_a2_w + cfg.sigma_c2_w)
    yield "relay noise lp1 * (sigma_a2_w + sigma_c2_w)", relay_noise
    destination_noise = lp1 * lp2 * cfg.sigma_d2_w
    yield "destination noise lp1 * lp2 * sigma_d2_w", destination_noise
    yield "relay SNR scale", cfg.ps_watts / relay_noise
    yield "destination SNR scale", cfg.ps_watts / destination_noise


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
        self.check(self)

    @staticmethod
    def check(c) -> None:
        """Raise the ValueError of the first check that c fails. c is an
        instance or a namespace of its fields, some of them float64 columns,
        which fails where any row does (see Columns.valid)."""
        if not holds(c.ps_watts > 0):
            raise ValueError(f"ps_watts must be > 0, got {c.ps_watts}")
        if not holds((0 < c.eta) & (c.eta <= 1)):
            raise ValueError(f"eta must be in (0, 1], got {c.eta}")
        if not holds(c.path_loss_exp >= 1):
            raise ValueError(f"path_loss_exp must be >= 1, got {c.path_loss_exp}")
        for name in ("d1_m", "d2_m", "sigma_a2_w", "sigma_c2_w", "sigma_d2_w"):
            if not holds(getattr(c, name) > 0):
                raise ValueError(f"{name} must be > 0, got {getattr(c, name)}")
        if not holds((0 <= c.cth) & (c.cth < math.inf)):
            raise ValueError(f"cth must be finite and >= 0, got {c.cth}")
        for name, value in _scales(c):
            if not holds(finite_positive(value)):
                raise ValueError(f"{name} must be finite and > 0, got {value}")


def flat_fields(obj, prefix: str = "") -> dict:
    """The fields of a dataclass instance by dotted name, prefix + name; a
    nested instance adds a name level (ch1.mu_db)."""
    out = {}
    for name, value in vars(obj).items():
        if hasattr(value, "__dataclass_fields__"):  # is_dataclass, without its type test
            out.update(flat_fields(value, f"{prefix}{name}."))
        else:
            out[prefix + name] = value
    return out


class Columns:
    """Rows of (cfg, scenario) pairs of one variant as columns, as the
    analytic path reads them: every row has the fields of the base pair but
    those that `changes` names (dotted, as flat_fields names them:
    system.ch1.sigma_db, scenario.tau), each set to a float that every row
    shares, which numpy broadcasts, or to a float64 array of one value per
    row. A curve's columns are its base pair with the axis values as changes;
    arbitrary pairs are one-row sets."""

    def __init__(self, cfg: SystemConfig, scenario: "Scenario", changes=None, size: int = 1):
        self.cfg, self.scenario, self.size = cfg, scenario, size
        self.changes = changes or {}
        self.variant = (scenario.duplex, scenario.relay, scenario.eh)

    def value(self, name: str):
        """Field `name` (dotted) of these columns, a number of the base pair as a float."""
        if name in self.changes:
            return self.changes[name]
        owner, *path = name.split(".")
        value = self.cfg if owner == "system" else self.scenario
        for part in path:
            value = getattr(value, part)
        return float(value) if isinstance(value, (int, float)) else value

    @classmethod
    def concat(cls, sets) -> "Columns":
        """The rows of `sets`, all of one variant, in order, on the first set's
        base pair: a field stays one float only where no set changes it and
        the base pairs share it; else it is a float64 column."""
        if len(sets) == 1:
            return sets[0]
        first = sets[0]
        names = set().union(*(s.changes for s in sets))
        for s in sets[1:]:
            names |= _differing(first.cfg, s.cfg, "system.")
            names |= _differing(first.scenario, s.scenario, "scenario.")
        changes = {}
        for name in names:
            values = [s.value(name) for s in sets]
            if not isinstance(values[0], (float, np.ndarray)):
                continue  # the variant's str or None
            changes[name] = np.concatenate([np.full(s.size, v) if type(v) is float else v
                                            for v, s in zip(values, sets)])
        return cls(first.cfg, first.scenario, changes, sum(s.size for s in sets))

    def take(self, rows) -> "Columns":
        """The rows of index array `rows`, in its order."""
        return Columns(self.cfg, self.scenario, {
            name: v[rows] if isinstance(v, np.ndarray) else v for name, v in self.changes.items()},
            rows.size)

    def pair(self):
        """(cfg, scenario) as namespaces of the columns, nested like
        SystemConfig and Scenario, as the coefficient helpers read them."""
        spaces = {owner: SimpleNamespace(**{
            name: float(v) if isinstance(v, (int, float)) else v for name, v in vars(obj).items()})
            for owner, obj in (("system", self.cfg), ("scenario", self.scenario))}
        for name, value in self.changes.items():
            owner, *outer, leaf = name.split(".")
            obj = spaces[owner]
            for part in outer:  # a nested instance is copied before its field is set
                nested = getattr(obj, part)
                if not isinstance(nested, SimpleNamespace):
                    nested = SimpleNamespace(**vars(nested))
                    setattr(obj, part, nested)
                obj = nested
            setattr(obj, leaf, value)
        return spaces["system"], spaces["scenario"]

    def valid(self) -> bool:
        """Whether every row passes the checks of its classes: each object that
        owns a changed field is checked once, as its fields with the changes
        in place (see SystemConfig.check)."""
        owners: dict[str, dict] = {}
        for name, value in self.changes.items():
            owner, leaf = name.rsplit(".", 1)
            owners.setdefault(owner, {})[leaf] = value
        with np.errstate(all="ignore"):  # a scale that overflows fails its check, silently
            for owner, changed in owners.items():
                root, *path = owner.split(".")
                obj = self.cfg if root == "system" else self.scenario
                for part in path:
                    obj = getattr(obj, part)
                try:
                    type(obj).check(SimpleNamespace(**{**vars(obj), **changed}))
                except ValueError:
                    return False
        return True


def _differing(a, b, prefix: str) -> set:
    """The dotted names of the fields in which dataclass instances a and b may
    differ: those whose values are not one object."""
    names = set()
    for name, value in ([] if a is b else vars(a).items()):
        other = vars(b)[name]
        if value is not other:
            names |= (_differing(value, other, f"{prefix}{name}.")
                      if hasattr(value, "__dataclass_fields__") else {prefix + name})
    return names


def by_variant(sets) -> list[tuple[Columns, np.ndarray]]:
    """The rows of the Columns `sets` joined per variant, variants in order of
    first appearance: (columns, each row's position among all rows)."""
    groups: dict[tuple, list] = {}
    start = 0
    for s in sets:
        groups.setdefault(s.variant, []).append((s, np.arange(start, start + s.size)))
        start += s.size
    return [(Columns.concat([s for s, _ in g]), np.concatenate([r for _, r in g]))
            for g in groups.values()]


def replaced(obj, **changes):
    """dataclasses.replace(obj, **changes) for a dataclass here: a new
    instance, checked by the same __post_init__, without replace's generic
    field-by-field __init__ (about half of its cost on a SystemConfig)."""
    new = updated(obj, **changes)
    new.__post_init__()
    return new


def updated(obj, **changes):
    """replaced(obj, **changes) without the check, for changes already
    checked (see Columns.valid)."""
    new = object.__new__(type(obj))
    vars(new).update(vars(obj), **changes)
    return new


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
        self.check(self)

    @staticmethod
    def check(s) -> None:
        """Raise the ValueError of the first check that s fails (see SystemConfig.check)."""
        if s.duplex not in DUPLEX_MODES:
            raise ValueError(f"duplex must be one of {DUPLEX_MODES}, got {s.duplex!r}")
        if s.relay not in RELAY_PROTOCOLS:
            raise ValueError(f"relay must be one of {RELAY_PROTOCOLS}, got {s.relay!r}")
        if s.eh not in EH_PROTOCOLS:
            raise ValueError(f"eh must be one of {EH_PROTOCOLS}, got {s.eh!r}")
        if s.duplex == "fd" and s.eh != "tsr":
            raise ValueError("fd supports only the tsr harvesting protocol")
        for eh, name in EH_PARAMS.items():
            value = getattr(s, name)
            if s.eh != eh:
                if value is not None:
                    raise ValueError(f"{name} is only meaningful for {eh}, got {value}")
            elif value is None or not holds((0 < value) & (value < 1)):
                raise ValueError(f"{name} must be in (0, 1) for {eh}, got {value}")
        if not holds((0 <= s.pc_fraction) & (s.pc_fraction < 1)):
            raise ValueError(f"pc_fraction must be in [0, 1), got {s.pc_fraction}")
        if s.relay == "af" and not holds(s.pc_fraction <= 0):
            raise ValueError("pc_fraction > 0 applies to df relaying only")

    @property
    def eh_param_name(self) -> str | None:
        """Name of the free harvesting parameter (tau, rho; None for irr)."""
        return EH_PARAMS.get(self.eh)

    def with_eh_param(self, value: float) -> "Scenario":
        """This scenario with its free harvesting parameter set to value."""
        if self.eh_param_name is None:
            raise ValueError(f"{self.eh} has no harvesting parameter")
        return replaced(self, **{self.eh_param_name: value})

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
    float64 range. `gain` names the first such gain and `problem` what it is not."""

    def __init__(self, gain: str, problem: str, message: str = ""):
        super().__init__(message or f"{gain} must be {problem}")
        self.gain, self.problem = gain, problem


@dataclass(frozen=True)
class FadeSample:
    """One joint realization of squared gains (arrays allowed): x = h1^2,
    y = h2^2 and, for full-duplex, the loop-back gain w = g^2. z is x*y,
    computed from the gains unless the Monte Carlo draw passes the product it
    holds as _product, so a replace() of x or y gets its own. rx and rz, 1/x
    and 1/z for an AF SNR, are None but where the Monte Carlo memo has set
    them on a fade it keeps. `extremes` maps each gain's name to its (min,
    max) from the checks."""

    x: object
    y: object
    w: object = None
    _product: InitVar[object] = None
    z: object = field(init=False, repr=False, compare=False)
    rx: object = field(default=None, init=False, repr=False, compare=False)
    rz: object = field(default=None, init=False, repr=False, compare=False)
    extremes: dict = field(init=False, repr=False, compare=False)

    def __post_init__(self, _product):
        # two reductions per channel and no temporary; a NaN minimum fails too
        extremes = {}
        for name in ("x", "y") if self.w is None else ("x", "y", "w"):
            gains = np.asarray(getattr(self, name))
            low = float(gains.min(initial=np.inf))
            if not low > 0:
                raise FadeRangeError(name, "strictly positive")
            high = float(gains.max(initial=0.0))
            if not high < np.inf:
                raise FadeRangeError(name, "finite")
            extremes[name] = low, high
        object.__setattr__(self, "extremes", extremes)
        if _product is None:
            with np.errstate(over="ignore"):  # an x*y that overflows: see montecarlo._product_snr
                _product = np.multiply(self.x, self.y)
        object.__setattr__(self, "z", _product)


def hop_losses(cfg: SystemConfig) -> tuple[float, float]:
    """The path losses (d1_m**path_loss_exp, d2_m**path_loss_exp), each
    computed on its own: one whose power overflows is inf (a whole column
    where some row's does), which SystemConfig's check rejects."""
    return _path_loss(cfg.d1_m, cfg.path_loss_exp), _path_loss(cfg.d2_m, cfg.path_loss_exp)


def _path_loss(d, exponent):
    try:
        return elementwise(pow, d, exponent)
    except OverflowError:
        return math.inf


def relay_budget(cfg: SystemConfig, scenario: Scenario) -> tuple[float, float, float]:
    """(share, power, noise): how the relay splits the received signal between
    harvesting and decoding. share is the fraction of the signal power its
    decoder gets, power the power it transmits per unit of signal power it
    receives, and noise the noise variance at its decoder.

    TSR splits in time: it harvests for tau of the frame and decodes all of
    the signal, then transmits over half the rest (HD) or all of it (FD), at
    2k or k with k = eta*tau/(1-tau). PSR splits in power: rho goes to the
    harvester and (1-rho) of the signal and antenna noise to the decoder.
    IRR harvests all of it while it decodes."""
    if scenario.eh == "psr":
        rho = scenario.rho
        return 1.0 - rho, cfg.eta * rho, (1.0 - rho) * cfg.sigma_a2_w + cfg.sigma_c2_w
    power = cfg.eta
    if scenario.eh == "tsr":
        k = cfg.eta * scenario.tau / (1.0 - scenario.tau)
        power = k if scenario.duplex == "fd" else 2.0 * k
    return 1.0, power, cfg.sigma_a2_w + cfg.sigma_c2_w


def snr_coefficients(cfg: SystemConfig,
                     scenario: Scenario) -> tuple[float | None, float, float, float]:
    """SNR coefficients (k1, a, b, c) of a variant.

    The destination SNR is gamma_d = a*z/(b*y + c) with z = x*y, or, for
    FD-AF, whose amplified loop-back interference enters both signal path and
    gain, a*z/(c*(k1 + w) + b*w*z). A DF relay decodes at gamma_r = k1*x (HD)
    or k1/w (FD, limited by its loop-back gain) and regenerates the signal,
    so b = 0 and c = 1, and pc_fraction of its power goes to processing. k1
    is None for HD-AF, whose relay does not decode; both FD variants have
    k1 = 1/power.
    """
    lp1, lp2 = hop_losses(cfg)
    share, power, noise = relay_budget(cfg, scenario)
    if scenario.duplex == "fd":
        with np.errstate(divide="ignore", over="ignore"):  # a power that underflows: k1 = inf
            k1 = np.divide(1.0, power)
        if scenario.relay == "af":
            return k1, cfg.ps_watts, cfg.ps_watts * power, lp1 * lp2 * noise
    elif scenario.relay == "af":
        # The one exception to the budget: TSR's c has (1 - tau) where its share
        # is 1, so its noiseless-relay limit a/c is DF's a/(1 - tau), not DF's
        # a. Nasir et al.'s AF-TSR derivation has no such factor; whether the
        # paper's model means it is an open question (ROADMAP item 2).
        c_share = 1.0 - scenario.tau if scenario.eh == "tsr" else share
        return (None, power * share * cfg.ps_watts, power * lp1 * noise,
                c_share * lp1 * lp2 * cfg.sigma_d2_w)
    cost = 1.0 - scenario.pc_fraction
    den = lp1 * lp2 * cfg.sigma_d2_w
    # each product keeps the association the pinned datasets were computed with
    if scenario.duplex == "fd":
        return k1, cost * power * cfg.ps_watts / den, 0.0, 1.0
    return share * cfg.ps_watts / (lp1 * noise), cost * (power * cfg.ps_watts / den), 0.0, 1.0


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


def _snr_for_rate(expo: float) -> float:
    # 2**expo - 1, infinite where 2**expo leaves the float64 range; below 0.5 the
    # subtraction would cancel (to 0 under about 2.2e-16), so expm1 gives it instead
    if expo < 0.5:
        return math.expm1(expo * _LN2)
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
