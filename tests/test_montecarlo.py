"""Monte Carlo estimator: determinism, block structure and cost handling."""

import contextvars
import threading
from dataclasses import replace

import numpy as np
import pytest

import ehrelay.montecarlo as mc
from ehrelay import cli
from ehrelay.lognormal import ChannelSpec, sample_sq_gain
from ehrelay.model import FadeSample, Scenario, SystemConfig, outage_indicator
from ehrelay.montecarlo import McPlan, estimate_outage

CFG = SystemConfig()
TSR = Scenario("hd", "df", "tsr", tau=0.5)


def test_zero_threshold_gives_degenerate_zero():
    est = estimate_outage(replace(CFG, cth=0.0), TSR, McPlan(trials=10**4, seed=1))
    assert est.value == 0.0 and est.stderr == 0.0


def test_same_plan_is_bit_identical():
    plan = McPlan(trials=2 * 10**5, seed=99)
    a = estimate_outage(CFG, TSR, plan)
    b = estimate_outage(CFG, TSR, plan)
    assert a.value == b.value and a.stderr == b.stderr and a.trials == b.trials


def test_thread_count_does_not_change_estimate(monkeypatch):
    monkeypatch.setattr(mc, "BLOCK_SIZE", 1 << 14)
    plan = McPlan(trials=3 * 10**5 + 17, seed=5150)
    serial = estimate_outage(CFG, TSR, plan, threads=1)
    for threads in (2, 4):
        assert estimate_outage(CFG, TSR, plan, threads=threads) == serial


def test_fd_estimate_independent_of_threads_and_buffer_reuse(monkeypatch):
    # short last block; per-thread arrays must leak nothing between blocks,
    # calls or threads
    monkeypatch.setattr(mc, "BLOCK_SIZE", 2**12)
    s = Scenario("fd", "df", "tsr", tau=0.3)
    cfg = replace(CFG, ps_watts=10.0, cth=1.0)
    plan = McPlan(trials=5 * 2**12 + 123, seed=424242)
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
    monkeypatch.setattr(mc, "BLOCK_SIZE", 2**12)
    plan = McPlan(trials=6 * 2**12 + 5, seed=77)
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

    def test_block_partition_covers_trials(self, monkeypatch):
        monkeypatch.setattr(mc, "BLOCK_SIZE", 2**12)
        plan = McPlan(trials=10**5 + 3, seed=0)
        blocks = plan.blocks()
        assert sum(size for _, size in blocks) == plan.trials
        assert [i for i, _ in blocks] == list(range(len(blocks)))
        assert [size for _, size in blocks[:-1]] == [2**12] * (len(blocks) - 1)


# ---------------------------------------------------------------------------
# shared_fades: blocks drawn once per scope, estimates unchanged

def _selftest_batch():
    """Every variant at one grid value each, in selftest order: per relay HD
    TSR, PSR, IRR, then FD at loop-back spreads sg2 = 2 and 5, so the
    loop-back channel alternates and HD rows sit between FD ones."""
    return [p for p in cli.selftest_points(CFG) if p.axis_value in (0.0, 0.3)]


# three blocks of 2**13 trials (see small_blocks), the last one short
SHORT_LAST = McPlan(trials=2 * 2**13 + 123, seed=8675309)


@pytest.fixture
def small_blocks(monkeypatch):
    monkeypatch.setattr(mc, "BLOCK_SIZE", 2**13)


def _alone(points, plan):
    return [estimate_outage(p.cfg, p.scenario, plan) for p in points]


def _mc_columns(rows):
    return [(r.mc, r.mc_stderr, r.trials, r.seed) for r in rows]


def _expected_columns(estimates, plan):
    return [(e.value, e.stderr, e.trials, plan.seed) for e in estimates]


@pytest.mark.usefixtures("small_blocks")
@pytest.mark.parametrize("threads", [1, 2])
def test_run_points_equals_per_call_estimates(threads):
    points = _selftest_batch()
    assert len({p.scenario.label() for p in points}) == 8
    rows, _ = cli.run_points(points, SHORT_LAST, threads)
    assert _mc_columns(rows) == _expected_columns(_alone(points, SHORT_LAST), SHORT_LAST)


@pytest.mark.usefixtures("small_blocks")
def test_plan_over_budget_draws_per_call_and_matches(monkeypatch):
    points = _selftest_batch()
    expected = _expected_columns(_alone(points, SHORT_LAST), SHORT_LAST)
    kept = []

    def recorded(*args):
        kept.append(args[-1] is not None)
        return block(*args)

    block = mc._block_outages
    monkeypatch.setattr(mc, "_block_outages", recorded)
    # room for the HD plans' two slots but not the FD plans' three
    monkeypatch.setattr(mc, "_SHARED_BYTES", 8 * SHORT_LAST.trials * 2)
    rows, _ = cli.run_points(points, SHORT_LAST, 1)
    assert _mc_columns(rows) == expected
    hd_rows = sum(p.scenario.duplex == "hd" for p in points)
    assert sum(kept) == 3 * hd_rows and len(kept) == 3 * len(points)


@pytest.mark.usefixtures("small_blocks")
def test_scopes_share_nothing():
    plan_a, plan_b = SHORT_LAST, replace(SHORT_LAST, seed=4)
    points = _selftest_batch()
    cli.run_points(points, plan_a, 1)
    rows, _ = cli.run_points(points, plan_b, 1)
    assert _mc_columns(rows) == _expected_columns(_alone(points, plan_b), plan_b)
    assert mc._active.get() is None


@pytest.mark.usefixtures("small_blocks")
def test_scope_keeps_nothing_for_another_thread():
    """A thread that runs in a copy of the scope's context draws per call,
    so no kept array is ever redrawn under a block of the owning thread."""
    point = _selftest_batch()[-1]
    with mc.shared_fades():
        fades = mc._active.get()
        result = []
        t = threading.Thread(target=contextvars.copy_context().run, args=(
            lambda: result.append(estimate_outage(point.cfg, point.scenario, SHORT_LAST)),))
        t.start()
        t.join()
        assert fades.kept == {} and fades.plan is None
    assert result == _alone([point], SHORT_LAST)


def test_scopes_do_not_nest_in_one_thread():
    # both would keep their gains under the same (block index, slot) keys
    with mc.shared_fades():
        with pytest.raises(RuntimeError, match="do not nest"):
            with mc.shared_fades():
                pass
    with mc.shared_fades():
        pass


@pytest.mark.usefixtures("small_blocks")
def test_redrawn_slot_is_checked_again():
    # a loop-back gain of 10^-700 underflows to 0.0, which FadeSample rejects
    point = _selftest_batch()[-1]
    dead = replace(point.cfg, chg=ChannelSpec(-3500.0, 1.0))
    with pytest.raises(ValueError, match="w must be strictly positive"):
        estimate_outage(dead, point.scenario, SHORT_LAST)
    with mc.shared_fades():
        estimate_outage(point.cfg, point.scenario, SHORT_LAST)
        with pytest.raises(ValueError, match="w must be strictly positive"):
            estimate_outage(dead, point.scenario, SHORT_LAST)


def _kept_arrays():
    # the calling thread's store, (block index, slot) keys only
    return {key: id(arr) for key, arr in vars(mc._local).items() if isinstance(key, tuple)}


@pytest.mark.usefixtures("small_blocks")
def test_next_scope_reuses_the_arrays_of_the_last(monkeypatch):
    monkeypatch.setattr(mc, "_local", threading.local())
    points = _selftest_batch()
    cli.run_points(points, SHORT_LAST, 1)
    arrays = _kept_arrays()
    assert set(arrays) == {(index, slot) for index, _ in SHORT_LAST.blocks()
                           for slot in range(3)}
    cli.run_points(points, SHORT_LAST, 1)
    assert _kept_arrays() == arrays
