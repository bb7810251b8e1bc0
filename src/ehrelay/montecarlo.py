"""Seeded Monte Carlo estimation of the ergodic outage probability.

Trials are partitioned into blocks of BLOCK_SIZE; each block draws its fades
from a substream derived deterministically from (seed, block index), so
the estimate depends only on the plan and not on how blocks are scheduled.
Outage is decided from the instantaneous capacities, keeping this path
algebraically independent of the analytic evaluators: a trial is in outage
where its weaker hop's SNR is below model.snr_cutoff, the least float64 SNR
whose capacity reaches cth, found by evaluating the capacity function
itself. The capacity does not decrease in the SNR, so that one compare per
trial decides exactly as comparing the capacity with cth does. A block
draws into float64 arrays kept in a thread's store and reused across
blocks and calls, converts them to squared gains in place and decides in
place, so it allocates nothing larger than its boolean outage flags.

The store keeps a memo of block gains (see _block_fade) that later calls
reuse, so rows of a dataset share their fades.
"""

from __future__ import annotations

import functools
import threading
from concurrent.futures import ThreadPoolExecutor, wait
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


def _thread_array(key, size: int, store: dict | None = None) -> np.ndarray:
    """The float64 array kept under `key` in `store`, by default the calling
    thread's, cut to `size`. Threads that share a store use distinct keys, so
    results do not depend on scheduling. An array is replaced only when it is
    too short, so a run frees no block-sized array."""
    if store is None:
        store = vars(_local)
    arr = store.get(key)
    if arr is None or arr.size < size:
        arr = store[key] = np.empty(size)
    return arr[:size]


@functools.cache
def _pool(threads: int) -> ThreadPoolExecutor:
    """The one pool of `threads` workers, so calls reuse its threads' arrays."""
    return ThreadPoolExecutor(max_workers=threads)


def _block_rng(seed: int, index: int) -> np.random.Generator:
    return np.random.default_rng(np.random.SeedSequence(entropy=seed, spawn_key=(index,)))


# Bytes of gains a plan may keep in a store, 8 per trial and slot: HD plans of up
# to 2**20 trials and FD plans of up to 699,050 keep them; a larger plan keeps none.
_KEPT_BYTES = 16 << 20


def _block_fade(seed: int, index: int, size: int, channels, store: dict | None) -> FadeSample:
    """The squared gains of block `index` for the slots of `channels`, from
    memo entry `index` of `store`, or from entry 0 of the running thread's
    store when `store` is None. A slot's normals depend only on (seed, index,
    size), so gains tagged (seed, index, size, spec) are what a fresh draw
    gives, whichever call asks. A slot whose tag differs is redrawn in place,
    from the state saved after the slot before it. A checked FadeSample is
    kept until a slot it uses is redrawn."""
    entry, store = (index, store) if store is not None else (0, vars(_local))
    kept = store.setdefault(("kept", entry), {})  # slot -> (tag, state after it, gains)
    samples = store.setdefault(("samples", entry), {})  # slot count -> FadeSample
    for slot, ch in enumerate(channels):
        tag = (seed, index, size, ch)
        if kept.get(slot, (None,))[0] == tag:
            continue
        # untag before drawing in place: an interrupted draw leaves no stale tag
        kept.pop(slot, None)
        for slots in range(slot + 1, 4):
            samples.pop(slots, None)
        rng = _block_rng(seed, index)
        if slot:
            rng.bit_generator.state = kept[slot - 1][1]
        gains = sample_sq_gain(ch, rng, out=_thread_array(("gains", entry, slot), size, store))
        kept[slot] = (tag, rng.bit_generator.state, gains)
    if len(channels) not in samples:
        samples[len(channels)] = FadeSample(*(kept[slot][2] for slot in range(len(channels))))
    return samples[len(channels)]


def _block_outages(cfg: SystemConfig, scenario: Scenario, channels, seed: int, index: int,
                   size: int, store: dict | None) -> int:
    fade = _block_fade(seed, index, size, channels, store)
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
    # a plan that keeps its gains puts each block in its own entry of the caller's
    # store, which pool workers share; a larger plan draws into entry 0 of each thread's
    store = vars(_local) if 8 * plan.trials * len(channels) <= _KEPT_BYTES else None
    if threads > 1 and len(blocks) > 1:
        pool = _pool(threads)
        futures = [pool.submit(_block_outages, cfg, scenario, channels, plan.seed, index,
                               size, store)
                   for index, size in blocks]
        try:
            counts = [f.result() for f in futures]
        finally:  # even when interrupted, no block outlives the call to write the store
            for f in futures:
                f.cancel()
            wait(futures)
    else:
        counts = [_block_outages(cfg, scenario, channels, plan.seed, index, size, store)
                  for index, size in blocks]
    failures = sum(counts)
    p_hat = failures / plan.trials
    stderr = np.sqrt(p_hat * (1.0 - p_hat) / plan.trials)
    return OutageEstimate(p_hat, "monte_carlo", float(stderr), plan.trials)
