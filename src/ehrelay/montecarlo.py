"""Seeded Monte Carlo estimation of the ergodic outage probability.

Trials are partitioned into fixed-size blocks; each block draws its fades
from a substream derived deterministically from (seed, block index), so
the estimate depends only on the plan and not on how blocks are scheduled.
Outage is decided from the instantaneous capacities, keeping this path
algebraically independent of the analytic evaluators. A block draws into
float64 arrays kept per thread and reused across blocks and calls,
converts them to squared gains in place and decides in place, so it
allocates nothing larger than its boolean outage flags.

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


@dataclass(frozen=True)
class McPlan:
    """Trial budget, master seed and block granularity of one estimate."""

    trials: int
    seed: int
    block_size: int = 1 << 16

    def __post_init__(self):
        if self.trials < 10_000:
            raise ValueError(f"trials must be >= 10000, got {self.trials}")
        if not 0 <= self.seed < 2**64:
            raise ValueError(f"seed must be a 64-bit value, got {self.seed}")
        if self.block_size < 1:
            raise ValueError(f"block_size must be >= 1, got {self.block_size}")

    def blocks(self) -> list[tuple[int, int]]:
        """(index, size) of every block; the last one may be short."""
        out = []
        done = 0
        index = 0
        while done < self.trials:
            size = min(self.block_size, self.trials - done)
            out.append((index, size))
            done += size
            index += 1
        return out


_local = threading.local()


def _thread_buffers(size: int) -> list[np.ndarray]:
    """The calling thread's five reusable float64 arrays, cut to `size`:
    three fade channels and the two scratch arrays of outage_indicator.
    No two threads share them, so results do not depend on scheduling."""
    bufs = getattr(_local, "bufs", None)
    if bufs is None or bufs[0].size < size:
        bufs = _local.bufs = [np.empty(size) for _ in range(5)]
    return [b[:size] for b in bufs]


@functools.cache
def _pool(threads: int) -> ThreadPoolExecutor:
    """The one pool of `threads` workers, so calls reuse its threads' buffers."""
    return ThreadPoolExecutor(max_workers=threads)


def _block_rng(seed: int, index: int) -> np.random.Generator:
    return np.random.default_rng(np.random.SeedSequence(entropy=seed, spawn_key=(index,)))


# Bytes of gains one shared_fades scope may keep; a plan whose gains exceed
# it draws per call.
_SHARED_BYTES = 16 << 20
_spare_lock = threading.Lock()
# Gain arrays of closed scopes, at most _SHARED_BYTES of them, kept so that a
# later scope reuses them instead of a run freeing block-sized arrays.
_spare: list[np.ndarray] = []


def _spare_array(size: int) -> np.ndarray:
    with _spare_lock:
        for i, arr in enumerate(_spare):
            if arr.size == size:
                return _spare.pop(i)
    return np.empty(size)


class _SharedFades:
    """The squared gains kept inside one `shared_fades` scope.

    Bound to the first plan that fits the byte budget and to the thread that
    entered the scope; other plans and threads draw per call. One array per
    (block index, slot), tagged with the ChannelSpec it holds. A different
    spec redraws that slot alone, in place, from the generator state saved
    after the slot before it. That is safe because the scope's estimates run
    one after another and a block reads only its own keys.
    """

    def __init__(self):
        self.owner = threading.get_ident()
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
        rng = None
        for slot, ch in enumerate(channels):
            spec, gains = self.kept.get((index, slot), (None, None))
            if spec == ch:
                rng = None
                continue
            if rng is None:
                rng = _block_rng(self.plan.seed, index)
                if slot:
                    rng.bit_generator.state = self.states[index, slot]
            gains = sample_sq_gain(ch, rng, out=_spare_array(size) if gains is None else gains)
            self.kept[index, slot] = (ch, gains)
            self.states[index, slot + 1] = rng.bit_generator.state
            for slots in range(slot + 1, 4):
                self.samples.pop((index, slots), None)
        key = (index, len(channels))
        if key not in self.samples:
            self.samples[key] = FadeSample(*(self.kept[index, slot][1]
                                             for slot in range(len(channels))))
        return self.samples[key]

    def close(self) -> None:
        """Hand the kept arrays to the spares, newest first, within the budget."""
        with _spare_lock:
            _spare[:0] = [gains for _, gains in self.kept.values()]
            while sum(arr.nbytes for arr in _spare) > _SHARED_BYTES:
                _spare.pop()
        self.kept.clear()
        self.states.clear()
        self.samples.clear()


_active: contextvars.ContextVar[_SharedFades | None] = contextvars.ContextVar(
    "shared_fades", default=None)


@contextlib.contextmanager
def shared_fades():
    """Within this scope (in this thread), estimate_outage keeps each block's
    squared gains and reuses them in later estimates with the same plan,
    wherever their channels agree. Every estimate is bit for bit the one it
    gives outside the scope. Nothing is reused after the scope."""
    fades = _SharedFades()
    token = _active.set(fades)
    try:
        yield
    finally:
        _active.reset(token)
        fades.close()


def _block_outages(cfg: SystemConfig, scenario: Scenario, seed: int, index: int, size: int,
                   fades: _SharedFades | None = None) -> int:
    bufs = _thread_buffers(size)
    channels = (cfg.ch1, cfg.ch2, cfg.chg) if scenario.duplex == "fd" else (cfg.ch1, cfg.ch2)
    if fades is None:
        rng = _block_rng(seed, index)
        fade = FadeSample(*(sample_sq_gain(ch, rng, out=buf) for ch, buf in zip(channels, bufs)))
    else:
        fade = fades.block_fades(index, size, channels)
    return int(np.count_nonzero(outage_indicator(cfg, scenario, fade, scratch=bufs[3:])))


def estimate_outage(cfg: SystemConfig, scenario: Scenario, plan: McPlan,
                    threads: int = 1) -> OutageEstimate:
    """Average the outage indicator over plan.trials independent fades.

    Deterministic for a fixed plan regardless of `threads`: blocks hold
    exact integer outage counts and summation is order-independent.
    Inside `shared_fades()`, blocks reuse the gains kept there when the
    scope accepts the plan.
    """
    blocks = plan.blocks()
    fades = _active.get()
    if fades is not None and not fades.accepts(plan, 3 if scenario.duplex == "fd" else 2):
        fades = None
    if threads > 1 and len(blocks) > 1:
        pool = _pool(threads)
        futures = [pool.submit(_block_outages, cfg, scenario, plan.seed, index, size, fades)
                   for index, size in blocks]
        wait(futures)  # no block still reads a kept array once this call returns or raises
        counts = [f.result() for f in futures]
    else:
        counts = [_block_outages(cfg, scenario, plan.seed, index, size, fades)
                  for index, size in blocks]
    failures = sum(counts)
    p_hat = failures / plan.trials
    stderr = np.sqrt(p_hat * (1.0 - p_hat) / plan.trials)
    return OutageEstimate(p_hat, "monte_carlo", float(stderr), plan.trials)
