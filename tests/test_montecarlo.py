"""Monte Carlo estimator: determinism, block structure and cost handling."""

import threading
from dataclasses import replace

import numpy as np
import pytest

import ehrelay.montecarlo as mc
from ehrelay.lognormal import sample_sq_gain
from ehrelay.model import FadeSample, Scenario, SystemConfig, outage_indicator
from ehrelay.montecarlo import McPlan, estimate_outage

CFG = SystemConfig()
TSR = Scenario("hd", "df", "tsr", tau=0.5)


def test_zero_threshold_gives_degenerate_zero():
    est = estimate_outage(replace(CFG, cth=0.0), TSR, McPlan(trials=10**4, seed=1))
    assert est.value == 0.0 and est.stderr == 0.0 and est.is_degenerate


def test_same_plan_is_bit_identical():
    plan = McPlan(trials=2 * 10**5, seed=99)
    a = estimate_outage(CFG, TSR, plan)
    b = estimate_outage(CFG, TSR, plan)
    assert a.value == b.value and a.stderr == b.stderr and a.trials == b.trials


def test_thread_count_does_not_change_estimate():
    plan = McPlan(trials=3 * 10**5 + 17, seed=5150, block_size=1 << 14)
    serial = estimate_outage(CFG, TSR, plan, threads=1)
    for threads in (2, 4):
        assert estimate_outage(CFG, TSR, plan, threads=threads) == serial


def test_fd_estimate_independent_of_threads_and_buffer_reuse():
    # short last block; per-thread buffers must leak nothing between blocks,
    # calls or threads
    s = Scenario("fd", "df", "tsr", tau=0.3)
    cfg = replace(CFG, ps_watts=10.0, cth=1.0)
    plan = McPlan(trials=5 * 2**12 + 123, seed=424242, block_size=2**12)
    first, second = estimate_outage(cfg, s, plan), estimate_outage(cfg, s, plan)
    assert 0.0 < first.value < 1.0 and first.value == second.value
    for threads in (2, 4):
        assert estimate_outage(cfg, s, plan, threads=threads).value == first.value


def test_threaded_calls_reuse_one_pool(monkeypatch):
    workers = set()
    block = mc._block_outages

    def recorded(*args):
        workers.add(threading.current_thread())
        return block(*args)

    monkeypatch.setattr(mc, "_block_outages", recorded)
    plan = McPlan(trials=6 * 2**12 + 5, seed=77, block_size=2**12)
    first = estimate_outage(CFG, TSR, plan, threads=2)
    second = estimate_outage(CFG, TSR, plan, threads=2)
    assert mc._pool(2) is mc._pool(2)
    assert workers and workers <= set(mc._pool(2)._threads) and len(workers) <= 2
    assert first == second


def test_fd_scenario_draws_loop_back_gains():
    s = Scenario("fd", "af", "tsr", tau=0.3)
    est = estimate_outage(CFG, s, McPlan(trials=10**5, seed=8))
    assert 0.0 <= est.value <= 1.0 and est.trials == 10**5


def test_split_seed_halves_agree():
    # two disjoint substreams of the same scenario should agree within
    # combined sampling error
    a = estimate_outage(CFG, TSR, McPlan(trials=5 * 10**5, seed=1000))
    b = estimate_outage(CFG, TSR, McPlan(trials=5 * 10**5, seed=2000))
    combined = np.hypot(a.stderr, b.stderr)
    assert abs(a.value - b.value) <= 6 * combined


def test_estimates_monotone_under_common_random_numbers():
    plan = McPlan(trials=10**5, seed=777)
    weaker = estimate_outage(CFG, TSR, plan)
    stronger = estimate_outage(replace(CFG, ps_watts=2.0), TSR, plan)
    easier = estimate_outage(replace(CFG, cth=1.0), TSR, plan)
    assert stronger.value <= weaker.value
    assert easier.value <= weaker.value


def test_indicator_pathwise_monotone_in_power():
    rng = np.random.default_rng(4242)
    fades = FadeSample(
        sample_sq_gain(CFG.ch1, rng, 2000), sample_sq_gain(CFG.ch2, rng, 2000)
    )
    low = outage_indicator(CFG, TSR, fades)
    high = outage_indicator(replace(CFG, ps_watts=4.0), TSR, fades)
    assert not np.any(high & ~low)


class TestProcessingCost:
    def test_zero_cost_matches_plain_estimate(self):
        plan = McPlan(trials=10**5, seed=31337)
        assert (
            estimate_outage(CFG, replace(TSR, pc_fraction=0.0), plan).value
            == estimate_outage(CFG, TSR, plan).value
        )

    def test_cost_ordering_under_common_random_numbers(self):
        plan = McPlan(trials=2 * 10**5, seed=2718)
        vals = [estimate_outage(CFG, replace(TSR, pc_fraction=pc), plan).value
                for pc in (0.0, 0.01, 0.02)]
        assert vals[0] <= vals[1] <= vals[2]

    def test_af_with_cost_is_rejected(self):
        with pytest.raises(ValueError):
            estimate_outage(
                CFG, replace(Scenario("hd", "af", "irr"), pc_fraction=0.01),
                McPlan(trials=10**4, seed=1),
            )

    def test_midpoint_relays_are_comparable_with_cost(self):
        # d1 = d2 = 15 m: a costed DF relay and a plain AF relay should sit
        # within a few percent of each other
        cfg = replace(CFG, d1_m=15.0, d2_m=15.0)
        plan = McPlan(trials=10**7, seed=60221023)
        df = estimate_outage(cfg, replace(Scenario("hd", "df", "irr"), pc_fraction=0.01), plan)
        af = estimate_outage(cfg, Scenario("hd", "af", "irr"), plan)
        assert abs(df.value - af.value) <= 0.05


class TestPlanValidation:
    def test_minimum_trials(self):
        with pytest.raises(ValueError):
            McPlan(trials=9999, seed=1)

    def test_seed_range(self):
        with pytest.raises(ValueError):
            McPlan(trials=10**4, seed=-1)
        with pytest.raises(ValueError):
            McPlan(trials=10**4, seed=2**64)

    def test_block_partition_covers_trials(self):
        plan = McPlan(trials=10**5 + 3, seed=0, block_size=2**12)
        blocks = plan.blocks()
        assert sum(size for _, size in blocks) == plan.trials
        assert [i for i, _ in blocks] == list(range(len(blocks)))
