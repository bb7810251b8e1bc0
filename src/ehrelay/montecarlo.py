"""Seeded Monte Carlo estimation of the ergodic outage probability.

Trials are partitioned into blocks of BLOCK_SIZE; each block draws its fades
from a substream derived deterministically from (seed, block index), so
the estimate depends only on the plan and not on how blocks are scheduled.
Outage is decided from the instantaneous capacities, keeping this path
algebraically independent of the analytic evaluators: a trial is in outage
where its weaker hop's SNR is below model.snr_cutoff, the least float64 SNR
whose capacity reaches cth, found by evaluating the capacity function
itself. The capacity does not decrease in the SNR, so that one compare per
trial decides exactly as comparing the capacity with cth does.

Rows of a dataset share their fades through one read-only memo of whole
block fades, where an FD fade extends its block's HD fade (see _block_fade);
a block decides in arrays its thread reuses.
"""

from __future__ import annotations

import functools
import operator
import threading
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass

import numpy as np

from .lognormal import sample_sq_gain
from .model import FadeSample, OutageEstimate, Scenario, SystemConfig, outage_indicator


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
    """The calling thread's float64 array under `key`, cut to `size`. It is
    replaced only when too short, so a run frees no block-sized array."""
    arr = vars(_local).get(key)
    if arr is None or arr.size < size:
        arr = vars(_local)[key] = np.empty(size)
    return arr[:size]


@functools.cache
def _pool(threads: int) -> ThreadPoolExecutor:
    """The one pool of `threads` workers, so calls reuse its threads' arrays."""
    return ThreadPoolExecutor(max_workers=threads)


# Bytes of gains the memo holds, 8 per trial and slot; only a plan whose gains fit on
# their own adds to it (HD plans of up to 2**20 trials, FD ones of up to 699,050).
_KEPT_BYTES = 16 << 20
# (seed, index, size, channels) -> (generator state after the block's last slot, its checked
# FadeSample). An FD fade's x and y are the arrays of the HD entry for channels[:2], which the
# memo keeps while it keeps the FD one. Kept gains are read-only; no entry is replaced.
_memo: dict = {}
_lock = threading.Lock()


def _own_bytes(fade: FadeSample) -> int:
    """Bytes of the gains a kept fade adds: an FD fade adds only its loop-back gains."""
    return fade.x.nbytes + fade.y.nbytes if fade.w is None else fade.w.nbytes


def _block_fade(seed: int, index: int, size: int, channels, keep: bool) -> tuple:
    """(Generator state after the last slot, checked FadeSample) of block `index` for
    `channels`. An HD fade draws slots 0 and 1 from the substream (seed, index); an FD fade
    extends the HD fade of channels[:2] by slot 2, drawn from the state that fade left. So
    a kept fade is what a fresh draw gives, whichever call or thread asks. With `keep`, a
    new fade goes into the memo once drawn and checked; without, its new gains go into the
    running thread's arrays. An interrupted draw keeps nothing."""
    key = (seed, index, size, channels)
    entry = _memo.get(key)
    if entry is not None:
        return entry
    rng = np.random.default_rng(np.random.SeedSequence(entropy=seed, spawn_key=(index,)))
    hd = _block_fade(seed, index, size, channels[:2], keep) if len(channels) == 3 else None
    if hd:
        rng.bit_generator.state = hd[0]
    old = (hd[1].x, hd[1].y) if hd else ()
    new = [sample_sq_gain(ch, rng, size, out=None if keep else _thread_array(slot, size))
           for slot, ch in enumerate(channels) if slot >= len(old)]
    entry = (rng.bit_generator.state, FadeSample(*old, *new))
    if not keep:
        return entry
    for gains in new:
        gains.flags.writeable = False
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
    scratch = [_thread_array(key, size) for key in ("scratch0", "scratch1")]
    return int(np.count_nonzero(outage_indicator(cfg, scenario, fade, scratch=scratch)))


def estimate_outage(cfg: SystemConfig, scenario: Scenario, plan: McPlan,
                    threads: int = 1) -> OutageEstimate:
    """Average the outage indicator over plan.trials independent fades.

    Deterministic for a fixed plan regardless of `threads`: blocks hold
    exact integer outage counts and summation is order-independent.
    """
    blocks = plan.blocks()
    channels = (cfg.ch1, cfg.ch2, cfg.chg) if scenario.duplex == "fd" else (cfg.ch1, cfg.ch2)
    keep = 8 * plan.trials * len(channels) <= _KEPT_BYTES
    block = functools.partial(_block_outages, cfg, scenario, channels, keep, plan.seed)
    # the pool's map cancels the blocks still queued if the caller is interrupted
    apply = _pool(threads).map if threads > 1 and len(blocks) > 1 else map
    p_hat = sum(apply(block, *zip(*blocks))) / plan.trials
    stderr = np.sqrt(p_hat * (1.0 - p_hat) / plan.trials)
    return OutageEstimate(p_hat, "monte_carlo", float(stderr), plan.trials)
