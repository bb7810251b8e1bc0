"""Seeded Monte Carlo estimation of the ergodic outage probability.

Trials are partitioned into fixed-size blocks; each block draws its fades
from a substream derived deterministically from (seed, block index), so
the estimate depends only on the plan and not on how blocks are scheduled.
Outage is decided from the instantaneous capacities, keeping this path
algebraically independent of the analytic evaluators. A block draws into
float64 arrays kept per thread and reused across blocks and calls,
converts them to squared gains in place and decides in place, so it
allocates nothing larger than its boolean outage flags.
"""

from __future__ import annotations

import threading
from concurrent.futures import ThreadPoolExecutor
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


def _block_outages(cfg: SystemConfig, scenario: Scenario,
                   seed: int, index: int, size: int) -> int:
    rng = np.random.default_rng(np.random.SeedSequence(entropy=seed, spawn_key=(index,)))
    bufs = _thread_buffers(size)
    channels = (cfg.ch1, cfg.ch2, cfg.chg) if scenario.duplex == "fd" else (cfg.ch1, cfg.ch2)
    fade = FadeSample(*(sample_sq_gain(ch, rng, out=buf) for ch, buf in zip(channels, bufs)))
    return int(np.count_nonzero(outage_indicator(cfg, scenario, fade, scratch=bufs[3:])))


def estimate_outage(cfg: SystemConfig, scenario: Scenario, plan: McPlan,
                    threads: int = 1) -> OutageEstimate:
    """Average the outage indicator over plan.trials independent fades.

    Deterministic for a fixed plan regardless of `threads`: blocks hold
    exact integer outage counts and summation is order-independent.
    """
    blocks = plan.blocks()
    if threads > 1 and len(blocks) > 1:
        with ThreadPoolExecutor(max_workers=threads) as pool:
            counts = list(
                pool.map(
                    lambda blk: _block_outages(cfg, scenario, plan.seed, *blk),
                    blocks,
                )
            )
    else:
        counts = [_block_outages(cfg, scenario, plan.seed, *blk) for blk in blocks]
    failures = sum(counts)
    p_hat = failures / plan.trials
    stderr = np.sqrt(p_hat * (1.0 - p_hat) / plan.trials)
    return OutageEstimate(p_hat, "monte_carlo", float(stderr), plan.trials)
