"""Physical link model shared by the analytic and Monte Carlo paths.

Covers the relay's harvesting budget, the per-scenario SNRs, instantaneous
capacities and the outage indicator for a dual-hop link whose relay is
powered entirely by the source signal. relay_budget is the one place a
harvesting protocol enters: every variant's SNR coefficients follow from
its (share, power, noise). The SNR/capacity functions accept scalar fades
or numpy arrays of fades and broadcast elementwise. The coefficient helpers
(hop_losses, relay_budget, snr_coefficients, capacity_prefactor and
threshold_snr) also accept a cfg and scenario whose numeric fields are
float64 arrays, as the analytic path's columns (Columns) are, or a mix of
arrays and floats, and give each element the float its row gives alone.
An AF destination SNR is computed in its inverse form 1/(beta*iota), a
sum of terms of the gains' reciprocals (see _inverse_form), and the
outage indicator decides a trial by comparing one quantity of its gains
with that quantity's exact edge, with no SNR computed.
"""

from __future__ import annotations

import functools
import math
import struct
import sys
from dataclasses import dataclass, field, is_dataclass
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
        if is_dataclass(value):
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
        base pair: a field stays one float where every set has that float, bit
        for bit."""
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
            if all(type(v) is float for v in values) and len({v.hex() for v in values}) == 1:
                changes[name] = values[0]
            else:
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
            names |= (_differing(value, other, f"{prefix}{name}.") if is_dataclass(value)
                      else {prefix + name})
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
    y = h2^2 and, for full-duplex, the loop-back gain w = g^2; z is x*y,
    computed here when None. rx and rz are 1/x and 1/z, which an AF SNR
    reads; when None they are not computed here but by the AF SNR that needs
    them (so a replace() of x or y passes z, rx and rz as None). The Monte
    Carlo memo attaches them to a fade it keeps when an AF row first reads it.
    `extremes` maps each gain's name to its (min, max) from the checks."""

    x: object
    y: object
    w: object = None
    z: object = field(default=None, repr=False, compare=False)
    rx: object = field(default=None, repr=False, compare=False)
    rz: object = field(default=None, repr=False, compare=False)
    extremes: dict = field(init=False, repr=False, compare=False)

    def __post_init__(self):
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
        if self.z is None:
            with np.errstate(over="ignore"):  # an x*y that overflows: see _product_snr
                object.__setattr__(self, "z", np.multiply(self.x, self.y))


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


def _check_fade(scenario: Scenario, fade: FadeSample) -> None:
    if scenario.duplex == "fd" and fade.w is None:
        raise ValueError("fd scenarios need the loop-back gain w in the fade sample")


def _fade_shape(fade: FadeSample) -> tuple:
    """The fades' broadcast shape (() for scalars): their one shape where they share it."""
    shapes = {np.shape(v) for v in (fade.x, fade.y, fade.w) if v is not None}
    return shapes.pop() if len(shapes) == 1 else np.broadcast_shapes(*shapes)


def _empty_pair(fade: FadeSample):
    """Two float64 arrays of the fades' broadcast shape (0-d for scalars)."""
    shape = _fade_shape(fade)
    return np.empty(shape), np.empty(shape)


def snr_pair(cfg: SystemConfig, scenario: Scenario, fade: FadeSample):
    """Relay and destination SNRs (gamma_r, gamma_d); gamma_r is None for AF.
    They are fresh arrays, or numpy scalars for scalar fades; the fade arrays
    are never written. DF's destination SNR is a*z (see _product_snr); AF's
    is 1/(beta*iota), its inverse form (see _inverse_form), which stays
    finite where a*z and its denominator both overflow."""
    _check_fade(scenario, fade)
    coefficients = snr_coefficients(cfg, scenario)
    r, d = _empty_pair(fade)
    if scenario.relay == "af":
        form = _inverse_form(scenario.duplex, *coefficients)
        beta, k1 = form[0], coefficients[0]
        with np.errstate(all="ignore"):  # reciprocals, and 1/0 where beta*iota underflows
            if 0 < beta < math.inf:
                np.multiply(beta, _iota(scenario.duplex, form, k1, fade, (r, d)), out=d)
                np.divide(1.0, d, out=d)
            else:
                d.fill(_constant_snr(beta))
        return None, d[()]
    d = _product_snr(coefficients[1], fade, d)[()]
    if scenario.duplex == "fd":
        return np.divide(coefficients[0], fade.w, out=r)[()], d
    return np.multiply(coefficients[0], fade.x, out=r)[()], d


def _product_snr(a, fade: FadeSample, out):
    """DF's destination SNR a*z into out, or (a*x)*y where some x*y overflows,
    so that a finite a*x*y stays finite."""
    (_, x1), (_, y1) = fade.extremes["x"], fade.extremes["y"]
    if x1 * y1 < math.inf:
        return np.multiply(a, fade.z, out=out)
    np.multiply(a, fade.x, out=out)
    return np.multiply(out, fade.y, out=out)


@functools.lru_cache(maxsize=1024)
def _inverse_form(duplex: str, k1, a, b, c) -> tuple:
    """(beta, lam, first) of an AF destination SNR in its inverse (harmonic)
    form 1/(beta*iota), where iota sums terms of one trial's gains (_iota):
      HD: 1/gamma_d = (b/a)/x + (c/a)/z,           iota = rx + lam*rz,
      FD: 1/gamma_d = (b/a)*w + (c/a)*(k1 + w)/z,  iota = w + lam*((k1 + w)*rz),
    with rx = 1/x, rz = 1/z, beta = b/a and lam = c/b. Every term only
    grows as the trial's gains make the SNR fall, and so do iota and
    beta*iota.

    A coefficient of 0 drops its term, which is the SNR's limit: lam = 0
    drops the second; where b = 0, first is False and iota is the second
    term's factor alone, rz (HD) or (k1 + w)*rz (FD), with beta = c/a. A
    ratio out of the float range is held at its end, so that no product is
    0*inf. Where a = 0, or FD's k1 = inf, every SNR is 0 (beta = inf);
    where b = c = 0 it is inf (beta = 0; see _constant_snr)."""
    k1, a, b, c = (None if v is None else float(v) for v in (k1, a, b, c))
    if a == 0.0 or k1 == math.inf:
        return math.inf, 0.0, True
    if b == 0.0:
        return (0.0, 0.0, True) if c == 0.0 else (_held(c / a), 1.0, False)
    return _held(b / a), min(c / b, sys.float_info.max), True


def _held(ratio: float) -> float:
    """A positive ratio held within the positive floats, [5e-324, DBL_MAX]."""
    return min(max(ratio, 5e-324), sys.float_info.max)


def _constant_snr(beta: float) -> float:
    """The one SNR of every trial where beta is inf (0) or 0 (inf)."""
    return 0.0 if beta == math.inf else math.inf


def _reciprocal(kept, gains, out):
    """The kept reciprocals of `gains`, or 1/gains into out."""
    return kept if kept is not None else np.divide(1.0, gains, out=out)


def _iota(duplex: str, form: tuple, k1, fade: FadeSample, scratch):
    """Every trial's iota of `form`, _inverse_form's for k1: a fade array where
    iota is one gain or reciprocal, else the first scratch array; the second
    takes the reciprocals a fade does not keep. A sum k1 + w that overflows is
    held at DBL_MAX, so that it times an rz of 0 (an x*y that overflowed) is 0."""
    _, lam, first = form
    s, t = scratch
    if duplex == "hd":
        if not first:
            return _reciprocal(fade.rz, fade.z, s)
        if not lam:
            return _reciprocal(fade.rx, fade.x, s)
        np.multiply(lam, _reciprocal(fade.rz, fade.z, s), out=s)
        return np.add(s, _reciprocal(fade.rx, fade.x, t), out=s)
    if first and not lam:
        return fade.w
    k1 = float(k1)
    np.add(k1, fade.w, out=s)
    if k1 + fade.extremes["w"][1] == math.inf:
        np.minimum(s, sys.float_info.max, out=s)
    np.multiply(s, _reciprocal(fade.rz, fade.z, t), out=s)
    if not first:
        return s
    np.multiply(lam, s, out=s)
    return np.add(s, fade.w, out=s)


def _iota_at(form: tuple, k1, x: float, z: float, w) -> float:
    """_iota of one trial with gains x, z = x*y and w (None for HD), in the
    same float64 operations on Python floats."""
    _, lam, first = form
    rz = 1.0 / z if z else math.inf
    if w is None:
        if not first:
            return rz
        return lam * rz + 1.0 / x if lam else 1.0 / x
    if first and not lam:
        return w
    term = min(k1 + w, sys.float_info.max) * rz
    return lam * term + w if first else term


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
_F64, _I64 = struct.Struct("<d"), struct.Struct("<q")
_INF_BITS = _I64.unpack(_F64.pack(math.inf))[0]


def _least_float(holds, guess: float) -> float:
    """The least float64 v >= 0 with holds(v), or inf when no finite v has it.
    holds must not turn false again as v grows; it is never asked about inf.
    The search asks at `guess` (none when NaN), then at 1, 3, 7, 15, ... ulps
    from it towards the answer until it steps past, then bisects the bit
    patterns between; a guess k ulps off costs about 2*log2(k) + 2 asks.
    Without a guess it bisects from the start, about 63 asks."""
    # (lo, hi]: the patterns of a v without the property (-1: none yet) and of one with it
    lo, hi = -1, _INF_BITS
    mid = _I64.unpack(_F64.pack(min(guess, sys.float_info.max)))[0] if guess >= 0 else -1
    step = 1
    while hi - lo > 1:
        if not lo < mid < hi:  # no guess yet, or stepped past: bisect
            mid = (lo + hi) // 2
        if holds(_F64.unpack(_I64.pack(mid))[0]):
            hi, mid = mid, mid - step
        else:
            lo, mid = mid, mid + step
        step *= 2
    return _F64.unpack(_I64.pack(hi))[0]


@functools.lru_cache(maxsize=1024)
def snr_cutoff(pre: float, cth: float) -> float:
    """The least float64 gamma >= 0 with capacity(pre, gamma) >= cth, or inf
    when no finite gamma reaches cth. capacity does not decrease in gamma, so
    `gamma < snr_cutoff(pre, cth)` is `capacity(pre, gamma) < cth` bit for bit,
    without a log1p. The search starts at 2**(cth/pre) - 1 and evaluates
    capacity itself, on a float64 array, at each float it tries.
    """
    expo = cth / pre * _LN2  # expm1 overflows from about 709.78
    return _least_float(lambda gamma: capacity(pre, np.array([gamma]))[0] >= cth,
                        math.expm1(expo) if expo < 709.78 else math.inf)


@functools.lru_cache(maxsize=1024)
def _relay_edge(duplex: str, k1: float, cut: float) -> float:
    """The DF relay's certain-outage edge: an HD trial is in outage at its relay
    exactly when x < edge, an FD one exactly when w >= edge. Exact on every
    float, since the relay SNR k1*x (k1/w), in snr_pair's float64 operations,
    does not decrease (increase) in the gain; k1/0 is inf, never below cut.
    With DF's a for k1 the HD edge is the product's: a*z < cut iff z < edge."""
    k1 = float(k1)
    if duplex == "fd":
        return _least_float(lambda w: w > 0 and k1 / w < cut, k1 / cut if cut else math.inf)
    return _least_float(lambda x: not k1 * x < cut, cut / k1 if k1 else math.inf)


def _past_edge(duplex: str, fade: FadeSample, edge: float) -> bool:
    """Whether every trial of `fade` lies past the DF relay's certain-outage
    edge: an HD x below it, an FD w at or above it. Reads only the block's
    extremes."""
    return fade.extremes["x"][1] < edge if duplex == "hd" else fade.extremes["w"][0] >= edge


def _any_past(duplex: str, fade: FadeSample, edge: float) -> bool:
    """Whether some trial of `fade` lies past the DF relay's edge (see _past_edge)."""
    return fade.extremes["x"][0] < edge if duplex == "hd" else fade.extremes["w"][1] >= edge


@functools.lru_cache(maxsize=1024)
def _inverse_edge(beta: float, cut: float) -> float:
    """The AF certain-outage edge, for cut > 0 and beta in (0, inf): the
    least float64 iota whose SNR fl(1/fl(beta*iota)) is below cut (inf where
    only iota = inf, SNR 0, is). That SNR does not increase in iota and is
    inf at beta*iota = 0, so iota >= edge is exactly the SNR below cut on
    every float, 0 and inf included."""
    beta, cut = float(beta), float(cut)
    guess = beta * cut
    return _least_float(lambda iota: 0 < beta * iota and 1.0 / (beta * iota) < cut,
                        1.0 / guess if guess else math.inf)


def outage_indicator(cfg: SystemConfig, scenario: Scenario, fade: FadeSample,
                     scratch=None):
    """True where the end-to-end capacity is below cth (bool array for arrays).

    Both hops share the capacity prefactor and capacity does not decrease in
    the SNR, so the end-to-end capacity is that of the weaker hop's SNR, and
    it is below cth exactly where that SNR is below snr_cutoff. Each hop's
    SNR is monotone in one quantity of the trial's gains, which is compared
    with its exact edge instead: a DF trial is in outage where its relay
    gain or its product z = x*y is past its edge (see _relay_edge; where
    some x*y overflows, its SNR a*x*y is computed, see _product_snr), an AF
    trial where its iota (see _inverse_form) is at or above _inverse_edge. A
    block whose extreme gains put every trial past the edge (an HD-DF
    block's largest x, an FD-DF block's smallest w, AF's iota at the gains
    that make it least, a lower bound of every trial's since each operation
    is monotone) is all True without a look at its arrays. Where its
    extreme gains let an operation leave the float range, a block is
    decided under np.errstate. `scratch` is an optional pair of float64
    arrays of the fades' shape; without it fresh ones are used. The fade
    arrays are never written.
    """
    _check_fade(scenario, fade)
    duplex = scenario.duplex
    coefficients = snr_coefficients(cfg, scenario)
    cut = snr_cutoff(capacity_prefactor(scenario), cfg.cth)
    if scenario.relay == "af":
        return _inverse_flags(duplex, coefficients, cut, fade, scratch)
    edge = _relay_edge(duplex, coefficients[0], cut)
    if _past_edge(duplex, fade, edge):
        return np.ones(_fade_shape(fade), bool)[()]
    (_, x1), (_, y1) = fade.extremes["x"], fade.extremes["y"]
    if x1 * y1 < math.inf:
        flags = fade.z < _relay_edge("hd", coefficients[1], cut)
    else:  # the errstate is entered here, not by the caller: pool threads do not inherit it
        with np.errstate(all="ignore"):
            out = _empty_pair(fade)[0] if scratch is None else scratch[0]
            flags = _product_snr(coefficients[1], fade, out) < cut
    if _any_past(duplex, fade, edge):
        flags |= fade.x < edge if duplex == "hd" else fade.w >= edge
    return flags


def _inverse_flags(duplex: str, coefficients, cut: float, fade: FadeSample, scratch):
    """outage_indicator's AF flags."""
    form = _inverse_form(duplex, *coefficients)
    beta = form[0]
    if not (cut > 0 and 0 < beta < math.inf):  # one SNR for all, or no SNR below cut = 0
        return np.full(_fade_shape(fade), _constant_snr(beta) < cut)[()]
    edge = _inverse_edge(beta, cut)
    k1 = None if coefficients[0] is None else float(coefficients[0])
    (x0, x1), (y0, y1) = fade.extremes["x"], fade.extremes["y"]
    w0, w1 = fade.extremes["w"] if duplex == "fd" else (None, None)
    if _iota_at(form, k1, x1, x1 * y1, w0) >= edge:
        return np.ones(_fade_shape(fade), bool)[()]
    if scratch is None:
        scratch = _empty_pair(fade)
    # every operation stays in range where the largest iota and FD's k1 + w do
    if _iota_at(form, k1, x0, x0 * y0, w1) < math.inf and (k1 is None or k1 + w1 < math.inf):
        return _iota(duplex, form, k1, fade, scratch) >= edge
    with np.errstate(all="ignore"):
        return _iota(duplex, form, k1, fade, scratch) >= edge


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
