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

Rows of a dataset share their fades through one read-only memo of block
gains (see _block_fade); a block decides in arrays its thread reuses.
"""

from __future__ import annotations

import functools
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
# (seed, index, size, slot) -> (generator state after the slot, {ChannelSpec: gains}),
# (seed, index, size, channels) -> their checked FadeSample; entries are replaced, not written.
_memo: dict = {}
_lock = threading.Lock()


def _keep(key, state, ch, gains) -> tuple:
    """Add read-only gains of spec `ch` to slot `key` and return its entry. Past
    _KEPT_BYTES, evict the slot's other specs and its block's FadeSamples, then all."""
    gains.flags.writeable = False
    with _lock:
        specs = _memo.get(key, (None, {}))[1]
        over = gains.nbytes - _KEPT_BYTES + sum(
            g.nbytes for k, entry in _memo.items() if type(k[3]) is int for g in entry[1].values())
        if over > 0:
            for stale in [k for k in _memo if k[:3] == key[:3] and type(k[3]) is tuple]:
                del _memo[stale]
            if sum(g.nbytes for g in specs.values()) < over:
                _memo.clear()
            specs = {}
        entry = _memo[key] = (state, {**specs, ch: gains})
    return entry


def _block_fade(seed: int, index: int, size: int, channels, keep: bool) -> FadeSample:
    """The squared gains of block `index` for the slots of `channels`. Slot
    k's normals depend only on (seed, index, size, k), so a spec the memo
    lacks is drawn from the state saved after slot k - 1, and kept gains are
    what a fresh draw gives, whichever call or thread asks. With `keep`, new
    gains and the checked FadeSample go into the memo; without, new gains go
    into the running thread's arrays. An interrupted draw keeps nothing."""
    block = (seed, index, size)
    fade = _memo.get((*block, channels))
    if fade is not None:
        return fade
    entries = []
    for slot, ch in enumerate(channels):
        entry = _memo.get((*block, slot))
        if entry is None or ch not in entry[1]:
            rng = np.random.default_rng(np.random.SeedSequence(entropy=seed, spawn_key=(index,)))
            if slot:
                rng.bit_generator.state = entries[-1][0]
            gains = sample_sq_gain(ch, rng, size, out=None if keep else _thread_array(slot, size))
            entry = (rng.bit_generator.state, {ch: gains})
            if keep:
                entry = _keep((*block, slot), entry[0], ch, gains)
        entries.append(entry)
    fade = FadeSample(*(entry[1][ch] for entry, ch in zip(entries, channels)))
    if keep:
        with _lock:  # unless another thread has since replaced one of its slots
            if all(_memo.get((*block, slot)) is entry for slot, entry in enumerate(entries)):
                _memo[(*block, channels)] = fade
    return fade


def _block_outages(cfg: SystemConfig, scenario: Scenario, channels, keep: bool, seed: int,
                   index: int, size: int) -> int:
    fade = _block_fade(seed, index, size, channels, keep)
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
