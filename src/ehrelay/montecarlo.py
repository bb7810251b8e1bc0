"""Seeded Monte Carlo estimation of the ergodic outage probability.

Trials are partitioned into blocks of BLOCK_SIZE; each block draws its fades
from a substream derived deterministically from (seed, block index), so
the estimate depends only on the plan and not on how blocks are scheduled.
Outage is decided from the instantaneous capacities, keeping this path
algebraically independent of the analytic evaluators: a trial is in outage
where its weaker hop's SNR is below snr_cutoff, the least float64 SNR
whose capacity reaches cth, found by evaluating the capacity function
itself. The capacity does not decrease in the SNR, so comparing the SNR
decides exactly as comparing the capacity with cth does. A block whose
gains all lie past the certain-outage edge (see outage_indicator) is
decided from its gains' extremes alone, a DF trial by comparing its gain
and its product x*y with exact edges, and an AF trial by comparing the sum
iota of its inverse SNR 1/(beta*iota) (see _inverse_form) with an exact
edge; snr_pair, which computes the SNRs, is the reference.

Rows of a dataset share their fades, with their products x*y and the
reciprocals 1/x and 1/(x*y), through one memo of whole block fades that are
never written once kept, where an FD fade extends its block's HD fade (see
_block_fade); a block decides in arrays its thread reuses.
"""

from __future__ import annotations

import functools
import math
import operator
import struct
import sys
import threading
from dataclasses import dataclass

import numpy as np

from .lognormal import sample_sq_gain
from .model import (_LN2, FadeRangeError, FadeSample, OutageEstimate, Scenario, SystemConfig,
                    capacity, capacity_prefactor, snr_coefficients)


def _check_fade(scenario: Scenario, fade: FadeSample) -> None:
    if scenario.duplex == "fd" and fade.w is None:
        raise ValueError("fd scenarios need the loop-back gain w in the fade sample")


def _fade_shape(fade: FadeSample) -> tuple:
    """The fades' broadcast shape (() for scalars): their one shape where they share it."""
    shapes = {np.shape(v) for v in (fade.x, fade.y, fade.w) if v is not None}
    return shapes.pop() if len(shapes) == 1 else np.broadcast_shapes(*shapes)


def snr_pair(cfg: SystemConfig, scenario: Scenario, fade: FadeSample):
    """Relay and destination SNRs (gamma_r, gamma_d); gamma_r is None for AF.
    They are fresh arrays, or numpy scalars for scalar fades; the fade arrays
    are never written. DF's destination SNR is a*z (see _product_snr); AF's
    is 1/(beta*iota), its inverse form (see _inverse_form), which stays
    finite where a*z and its denominator both overflow."""
    _check_fade(scenario, fade)
    coefficients = snr_coefficients(cfg, scenario)
    shape = _fade_shape(fade)
    r, d = np.empty(shape), np.empty(shape)
    if scenario.relay == "af":
        form = _inverse_form(scenario.duplex, *coefficients)
        beta, k1 = form[0], coefficients[0]
        with np.errstate(all="ignore"):  # iota may overflow; 1/0 where beta*iota underflows
            if 0 < beta < math.inf:
                np.multiply(beta, _iota(scenario.duplex, form, k1, fade, d), out=d)
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


def _iota(duplex: str, form: tuple, k1, fade: FadeSample, s):
    """Every trial's iota of `form`, _inverse_form's for k1: a fade array where
    iota is one gain or reciprocal, else the scratch array s. A sum k1 + w that
    overflows is held at DBL_MAX, so that it times an rz of 0 (an x*y that
    overflowed) is 0."""
    _, lam, first = form
    if duplex == "hd":
        if not first:
            return fade.rz
        if not lam:
            return fade.rx
        np.multiply(lam, fade.rz, out=s)
        return np.add(s, fade.rx, out=s)
    if first and not lam:
        return fade.w
    k1 = float(k1)
    np.add(k1, fade.w, out=s)
    if k1 + fade.extremes["w"][1] == math.inf:
        np.minimum(s, sys.float_info.max, out=s)
    np.multiply(s, fade.rz, out=s)
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
    decided under np.errstate. `scratch` is an optional float64 array of the
    fades' shape for the block's intermediate values; without it a fresh one
    is used. The fade arrays are never written.
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
            out = np.empty(_fade_shape(fade)) if scratch is None else scratch
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
        scratch = np.empty(_fade_shape(fade))
    # every operation stays in range where the largest iota and FD's k1 + w do
    if _iota_at(form, k1, x0, x0 * y0, w1) < math.inf and (k1 is None or k1 + w1 < math.inf):
        return _iota(duplex, form, k1, fade, scratch) >= edge
    with np.errstate(all="ignore"):
        return _iota(duplex, form, k1, fade, scratch) >= edge


BLOCK_SIZE = 1 << 16


@dataclass(frozen=True)
class McPlan:
    """Trial budget and master seed of one estimate."""

    trials: int
    seed: int

    def __post_init__(self):
        for name, value in (("trials", self.trials), ("seed", self.seed)):
            try:
                operator.index(value)
            except TypeError:
                raise ValueError(f"{name} must be an integer, got {value!r}") from None
        if self.trials < 10_000:
            raise ValueError(f"trials must be >= 10000, got {self.trials}")
        if not 0 <= self.seed < 2**64:
            raise ValueError(f"seed must be a 64-bit value, got {self.seed}")

    def blocks(self) -> list[tuple[int, int]]:
        """(index, size) of every block; the last one may be short."""
        return [(index, min(BLOCK_SIZE, self.trials - start))
                for index, start in enumerate(range(0, self.trials, BLOCK_SIZE))]


_local = threading.local()


def _thread_array(key, size: int) -> np.ndarray:
    """The calling thread's float64 array under `key`, cut to `size` (itself when it
    has that size). It is replaced only when too short, so a run frees no block-sized array."""
    arr = vars(_local).get(key)
    if arr is None or arr.size < size:
        arr = vars(_local)[key] = np.empty(size)
    return arr if arr.size == size else arr[:size]


@functools.cache
def _pool(threads: int):
    """The one ThreadPoolExecutor of `threads` workers, so calls reuse its threads' arrays."""
    from concurrent.futures import ThreadPoolExecutor  # only a run on threads > 1 loads it

    return ThreadPoolExecutor(max_workers=threads)


# Bytes of gains the memo holds, 8 per trial and slot; only a plan whose gains fit on
# their own adds to it (HD plans of up to 2**20 trials, FD ones of up to 699,050). Each HD
# fade also holds its products x*y and reciprocals 1/x and 1/(x*y), uncounted, so the memo
# takes at most 40 MiB.
_KEPT_BYTES = 16 << 20
# (seed, index, size, channels) -> (generator state after the block's last slot, its checked
# FadeSample). An FD fade's x, y, z, rx and rz are the arrays of the HD entry for
# channels[:2], which the memo keeps while it keeps the FD one. Kept arrays are read-only and
# no entry is replaced or written, so the lock guards only insertion and eviction.
_memo: dict = {}
_lock = threading.Lock()


def _own_bytes(fade: FadeSample) -> int:
    """Bytes of the gains a kept fade adds: an FD fade adds only its loop-back gains."""
    return fade.x.nbytes + fade.y.nbytes if fade.w is None else fade.w.nbytes


def _block_fade(seed: int, index: int, size: int, channels, keep: bool) -> tuple:
    """(Generator state after the last slot, checked FadeSample) of block `index` for
    `channels`. An HD fade draws slots 0 and 1 from the substream (seed, index); an FD fade
    extends the HD fade of channels[:2] by slot 2, drawn from the state that fade left. So
    a kept fade is what a fresh draw gives, whichever call or thread asks. A fade is built
    whole: an HD fade with its products z = x*y and reciprocals rx = 1/x and rz = 1/z, an
    FD fade sharing its HD fade's x, y, z, rx and rz. With `keep`, a new fade's arrays are
    fresh and read-only, and the fade goes into the memo once drawn and checked; without,
    its new gains and an HD fade's z, rx and rz go into the running thread's arrays. An
    interrupted draw keeps nothing."""
    key = (seed, index, size, channels)
    entry = _memo.get(key)
    if entry is not None:
        return entry
    rng = np.random.default_rng(np.random.SeedSequence(entropy=seed, spawn_key=(index,)))
    hd = _block_fade(seed, index, size, channels[:2], keep) if len(channels) == 3 else None
    if hd:
        rng.bit_generator.state = hd[0]

    def out(name):  # where a new array goes: a fresh one, or the thread's
        return None if keep else _thread_array(name, size)

    old = (hd[1].x, hd[1].y) if hd else ()
    new = [sample_sq_gain(ch, rng, size, out=out(slot))
           for slot, ch in enumerate(channels) if slot >= len(old)]
    if hd:
        derived = hd[1].z, hd[1].rx, hd[1].rz
    else:
        with np.errstate(all="ignore"):  # silent, as in FadeSample, which checks the gains
            z = np.multiply(*new, out=out("z"))
            derived = z, np.divide(1.0, new[0], out=out("rx")), np.divide(1.0, z, out=out("rz"))
    entry = (rng.bit_generator.state, FadeSample(*old, *new, _derived=derived))
    if not keep:
        return entry
    for arr in (*new, *derived):
        arr.flags.writeable = False
    hd_key = (seed, index, size, channels[:2])
    with _lock:  # an FD fade only while the memo keeps the HD fade it extends
        if hd and _memo.get(hd_key) is not hd:
            return entry
        over = _own_bytes(entry[1]) - _KEPT_BYTES + sum(_own_bytes(f) for _, f in _memo.values())
        if key not in _memo and over > 0:  # drop the block's FD fades, then all but `hd`
            stale = [k for k in _memo if k[:3] == key[:3] and len(k[3]) == 3]
            if sum(_own_bytes(_memo[k][1]) for k in stale) < over:
                stale = [k for k in _memo if k != hd_key]
            for k in stale:
                del _memo[k]
        return _memo.setdefault(key, entry)


def _block_outages(cfg: SystemConfig, scenario: Scenario, channels, keep: bool, seed: int,
                   index: int, size: int) -> int:
    fade = _block_fade(seed, index, size, channels, keep)[1]
    scratch = _thread_array("scratch", size)
    return int(np.count_nonzero(outage_indicator(cfg, scenario, fade, scratch=scratch)))


def estimate_outage(cfg: SystemConfig, scenario: Scenario, plan: McPlan,
                    threads: int = 1) -> OutageEstimate:
    """Average the outage indicator over plan.trials independent fades.

    Deterministic for a fixed plan regardless of `threads`: blocks hold exact integer outage
    counts, summed in any order, and one thread or a one-block plan decides them in turn in a
    plain loop. Gains out of the float64 range raise FadeRangeError naming their channel's key.
    """
    trials, seed, size = plan.trials, plan.seed, BLOCK_SIZE
    channels = (cfg.ch1, cfg.ch2, cfg.chg) if scenario.duplex == "fd" else (cfg.ch1, cfg.ch2)
    keep = 8 * trials * len(channels) <= _KEPT_BYTES
    try:
        if threads > 1 and trials > size:
            block = functools.partial(_block_outages, cfg, scenario, channels, keep, seed)
            # the pool's map cancels the blocks still queued if the caller is interrupted
            failures = sum(_pool(threads).map(block, *zip(*plan.blocks())))
        else:
            failures = 0
            for start in range(0, trials, size):
                failures += _block_outages(cfg, scenario, channels, keep, seed, start // size,
                                           min(size, trials - start))
    except FadeRangeError as exc:  # a fade's gains x, y, w are drawn from `channels` in turn
        key = "system." + ("ch1", "ch2", "chg")["xyw".index(exc.gain)]
        raise FadeRangeError(exc.gain, exc.problem, f"{key}: gains left the float64 range "
                             f"(a squared gain is not {exc.problem})") from exc
    p_hat = failures / trials
    stderr = math.sqrt(p_hat * (1.0 - p_hat) / trials)
    return OutageEstimate(p_hat, "monte_carlo", stderr, trials)
