"""Seeded Monte Carlo estimation of the ergodic outage probability.

Trials are partitioned into blocks of BLOCK_SIZE; each block draws its fades
from a substream derived deterministically from (seed, block index), so
the estimate depends only on the plan and not on how blocks are scheduled.
Outage is decided from the instantaneous capacities, keeping this path
algebraically independent of the analytic evaluators. A block draws into
float64 arrays kept in the running thread's store and reused across
blocks and calls, converts them to squared gains in place and decides in
place, so it allocates nothing larger than its boolean outage flags.

Inside a `shared_fades()` scope, estimates with the scope's plan also
share their draws: a block's squared gains per channel slot are kept and
reused by every later estimate that asks for the same (block index, slot,
ChannelSpec), so each estimate is still bit for bit the one it would be
alone.
"""

from __future__ import annotations

import contextlib
import contextvars
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
    thread's, cut to `size`. No two threads share a store, so results do not
    depend on scheduling. An array is replaced only when it is too short, so
    a run frees no block-sized array."""
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


# Bytes of gains one shared_fades scope may keep; a plan whose gains exceed
# it draws per call.
_SHARED_BYTES = 16 << 20


class _SharedFades:
    """The squared gains kept inside one `shared_fades` scope.

    Bound to the first plan that fits the byte budget and to the thread that
    entered the scope; other plans and threads draw per call. One array per
    (block index, slot) in the owner thread's store, so the owner keeps
    arrays only for the blocks of the largest plan its scopes accepted, each
    tagged here with the ChannelSpec it holds. A different spec redraws that
    slot alone, in place, from the generator state saved after the slot
    before it. That is safe because the scope's estimates run one after
    another and a block reads only its own keys.
    """

    def __init__(self):
        self.owner = threading.get_ident()
        self.store = vars(_local)
        self.plan = None
        self.kept = {}  # (index, slot) -> (spec, gains)
        self.states = {}  # (index, slot) -> generator state before that slot's draw
        self.samples = {}  # (index, slots) -> checked FadeSample of the kept gains

    def accepts(self, plan: McPlan, slots: int) -> bool:
        if threading.get_ident() != self.owner or 8 * plan.trials * slots > _SHARED_BYTES:
            return False
        if self.plan is None:
            self.plan = plan
        return plan == self.plan

    def block_fades(self, index: int, size: int, channels) -> FadeSample:
        """The block's squared gains for the slots of `channels`, drawing
        only the slots whose kept spec differs."""
        for slot, ch in enumerate(channels):
            spec, _ = self.kept.get((index, slot), (None, None))
            if spec == ch:
                continue
            rng = _block_rng(self.plan.seed, index)
            if slot:
                rng.bit_generator.state = self.states[index, slot]
            gains = sample_sq_gain(ch, rng, out=_thread_array((index, slot), size, self.store))
            self.kept[index, slot] = (ch, gains)
            self.states[index, slot + 1] = rng.bit_generator.state
            for slots in range(slot + 1, 4):
                self.samples.pop((index, slots), None)
        key = (index, len(channels))
        if key not in self.samples:
            self.samples[key] = FadeSample(*(self.kept[index, slot][1]
                                             for slot in range(len(channels))))
        return self.samples[key]


_active: contextvars.ContextVar[_SharedFades | None] = contextvars.ContextVar(
    "shared_fades", default=None)


@contextlib.contextmanager
def shared_fades():
    """Within this scope (in this thread), estimate_outage keeps each block's
    squared gains and reuses them in later estimates with the same plan,
    wherever their channels agree. Every estimate is bit for bit the one it
    gives outside the scope. No kept gain is reused after the scope, but its
    arrays stay in the thread's store, so scopes do not nest in one thread."""
    outer = _active.get()
    if outer is not None and outer.owner == threading.get_ident():
        raise RuntimeError("shared_fades scopes do not nest within one thread")
    token = _active.set(_SharedFades())
    try:
        yield
    finally:
        _active.reset(token)


def _block_outages(cfg: SystemConfig, scenario: Scenario, channels, seed: int, index: int,
                   size: int, fades: _SharedFades | None = None) -> int:
    if fades is None:
        rng = _block_rng(seed, index)
        fade = FadeSample(*(sample_sq_gain(ch, rng, out=_thread_array(slot, size))
                            for slot, ch in enumerate(channels)))
    else:
        fade = fades.block_fades(index, size, channels)
    scratch = [_thread_array(key, size) for key in ("scratch0", "scratch1")]
    return int(np.count_nonzero(outage_indicator(cfg, scenario, fade, scratch=scratch)))


def estimate_outage(cfg: SystemConfig, scenario: Scenario, plan: McPlan,
                    threads: int = 1) -> OutageEstimate:
    """Average the outage indicator over plan.trials independent fades.

    Deterministic for a fixed plan regardless of `threads`: blocks hold
    exact integer outage counts and summation is order-independent.
    Inside `shared_fades()`, blocks reuse the gains kept there when the
    scope accepts the plan.
    """
    blocks = plan.blocks()
    channels = (cfg.ch1, cfg.ch2, cfg.chg) if scenario.duplex == "fd" else (cfg.ch1, cfg.ch2)
    fades = _active.get()
    if fades is not None and not fades.accepts(plan, len(channels)):
        fades = None
    if threads > 1 and len(blocks) > 1:
        pool = _pool(threads)
        futures = [pool.submit(_block_outages, cfg, scenario, channels, plan.seed, index,
                               size, fades)
                   for index, size in blocks]
        wait(futures)  # no block still reads a kept array once this call returns or raises
        counts = [f.result() for f in futures]
    else:
        counts = [_block_outages(cfg, scenario, channels, plan.seed, index, size, fades)
                  for index, size in blocks]
    failures = sum(counts)
    p_hat = failures / plan.trials
    stderr = np.sqrt(p_hat * (1.0 - p_hat) / plan.trials)
    return OutageEstimate(p_hat, "monte_carlo", float(stderr), plan.trials)
