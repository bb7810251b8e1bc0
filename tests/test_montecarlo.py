"""Monte Carlo estimator: determinism, block structure and cost handling."""

import itertools
import signal
import sys
import threading
import time
from dataclasses import replace

import numpy as np
import pytest

import ehrelay.montecarlo as mc
from ehrelay import cli
from ehrelay.lognormal import ChannelSpec, sample_sq_gain
from ehrelay.model import FadeRangeError, FadeSample, Scenario, SystemConfig, outage_indicator
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
# the memo of block gains: each block drawn once per thread, estimates unchanged

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


@pytest.fixture
def empty_stores(monkeypatch):
    # every thread's store starts empty, whatever earlier tests kept
    monkeypatch.setattr(mc, "_local", threading.local())


def _in_fresh_thread(fn):
    """fn() run in a new thread, whose store starts empty, so every block is drawn afresh."""
    result = []
    t = threading.Thread(target=lambda: result.append(fn()))
    t.start()
    t.join(timeout=60)
    assert not t.is_alive() and len(result) == 1
    return result[0]


def _fresh(points, plan):
    return _in_fresh_thread(lambda: [estimate_outage(p.cfg, p.scenario, plan) for p in points])


def _mc_columns(rows):
    return [(r.mc, r.mc_stderr, r.trials, r.seed) for r in rows]


def _expected_columns(estimates, plan):
    return [(e.value, e.stderr, e.trials, plan.seed) for e in estimates]


def _tags(store):
    """(entry, slot) -> tag of every kept slot in `store`."""
    return {(key[1], slot): kept[0] for key, value in store.items() if key[0] == "kept"
            for slot, kept in value.items()}


@pytest.fixture
def short_switches():
    # more workers than cores, switching often, so a lost update would show
    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        yield
    finally:
        sys.setswitchinterval(interval)


@pytest.mark.usefixtures("small_blocks", "empty_stores", "short_switches")
@pytest.mark.parametrize("threads", [1, 2, 4])
def test_run_points_equals_per_call_estimates(threads):
    points = _selftest_batch()
    assert len({p.scenario.label() for p in points}) == 8
    rows, _ = cli.run_points(points, SHORT_LAST, threads)
    assert _mc_columns(rows) == _expected_columns(_fresh(points, SHORT_LAST), SHORT_LAST)
    # a plan that fits the memo keeps its gains in the caller's store, even on the pool
    assert {index for index, _ in _tags(vars(mc._local))} == {0, 1, 2}


@pytest.mark.usefixtures("small_blocks", "empty_stores", "short_switches")
def test_plan_over_budget_draws_per_call_and_matches(monkeypatch):
    """A plan whose gains exceed the budget keeps none: every thread draws each
    of its blocks into entry 0 of its own store, and every estimate still
    matches. A budget between the HD and FD sizes keeps only HD gains."""
    points = _selftest_batch()
    expected = _expected_columns(_fresh(points, SHORT_LAST), SHORT_LAST)
    draws, stores = [], []
    fade = mc._block_fade

    def counted(*args, **kwargs):
        draws.append(None)
        return sample_sq_gain(*args, **kwargs)

    def recorded(*args):
        stores.append(vars(mc._local) if args[-1] is None else args[-1])
        return fade(*args)

    monkeypatch.setattr(mc, "sample_sq_gain", counted)
    monkeypatch.setattr(mc, "_block_fade", recorded)
    hd_bytes = 8 * SHORT_LAST.trials * 2
    for budget, threads in itertools.product((0, hd_bytes), (1, 2, 4)):
        monkeypatch.setattr(mc, "_KEPT_BYTES", budget)
        draws.clear()
        rows, _ = cli.run_points(points, SHORT_LAST, threads)
        assert _mc_columns(rows) == expected
        if budget == 0:  # no store keeps more than one entry
            assert {index for store in stores for index, _ in _tags(store)} == {0}
        if budget == 0 and threads == 1:  # each block finds the last block's gains
            slots = {"hd": 2, "fd": 3}
            assert len(draws) == 3 * sum(slots[p.scenario.duplex] for p in points)
    # at the last budget the caller's store keeps HD gains in entries 0-2, FD ones in entry 0
    assert set(_tags(vars(mc._local))) == {(i, s) for i in range(3) for s in range(2)} | {(0, 2)}


@pytest.mark.usefixtures("small_blocks")
def test_scopes_share_nothing():
    """Two seeds interleaved row by row: neither reuses the other's gains."""
    plan_a, plan_b = SHORT_LAST, replace(SHORT_LAST, seed=4)
    points = _selftest_batch()
    got = [[estimate_outage(p.cfg, p.scenario, plan) for plan in (plan_a, plan_b)]
           for p in points]
    assert got == [list(pair) for pair in zip(_fresh(points, plan_a), _fresh(points, plan_b))]


@pytest.mark.usefixtures("small_blocks", "empty_stores")
def test_scope_keeps_nothing_for_another_thread():
    """Another thread's estimate draws into its own store and leaves the
    calling thread's tags as they were."""
    point = _selftest_batch()[-1]
    mine = estimate_outage(point.cfg, point.scenario, SHORT_LAST)
    tags = _tags(vars(mc._local))
    assert len(tags) == 3 * 3
    other = replace(SHORT_LAST, seed=5)
    theirs = _in_fresh_thread(lambda: estimate_outage(point.cfg, point.scenario, other))
    assert _tags(vars(mc._local)) == tags
    assert [theirs] == _fresh([point], other) and [mine] == _fresh([point], SHORT_LAST)


@pytest.mark.usefixtures("small_blocks")
def test_redrawn_slot_is_checked_again():
    # a loop-back gain of 10^-700 underflows to 0.0, which FadeSample rejects
    point = _selftest_batch()[-1]
    dead = replace(point.cfg, chg=ChannelSpec(-3500.0, 1.0))
    estimate_outage(point.cfg, point.scenario, SHORT_LAST)
    for _ in range(2):  # redrawn, then kept but still checked
        with pytest.raises(FadeRangeError, match="w must be strictly positive"):
            estimate_outage(dead, point.scenario, SHORT_LAST)
    assert [estimate_outage(point.cfg, point.scenario, SHORT_LAST)] == \
        _fresh([point], SHORT_LAST)


@pytest.mark.usefixtures("small_blocks")
def test_interrupted_draw_leaves_no_stale_tag(monkeypatch):
    """A draw that writes its array and then raises must not leave the
    array's old tag behind: asking for that tag again draws afresh."""
    point = _selftest_batch()[-1]
    estimate_outage(point.cfg, point.scenario, SHORT_LAST)

    def interrupted(ch, rng, size=None, out=None):
        out.fill(1.0)
        raise KeyboardInterrupt

    with monkeypatch.context() as patched, pytest.raises(KeyboardInterrupt):
        patched.setattr(mc, "sample_sq_gain", interrupted)
        estimate_outage(point.cfg, point.scenario, replace(SHORT_LAST, seed=6))
    assert [estimate_outage(point.cfg, point.scenario, SHORT_LAST)] == \
        _fresh([point], SHORT_LAST)


@pytest.mark.usefixtures("small_blocks", "empty_stores")
def test_interrupted_call_lets_no_block_outlive_it(monkeypatch):
    """A caller interrupted while its blocks run on the pool raises only once
    none of them can still write its store."""
    point = _selftest_batch()[-1]
    finished = []
    block = mc._block_outages

    def interrupting(*args):
        if args[4] == 0:  # interrupts the caller waiting for the results, then draws
            time.sleep(0.05)
            signal.pthread_kill(threading.main_thread().ident, signal.SIGINT)
            time.sleep(0.2)
        count = block(*args)
        finished.append(args[4])
        return count

    handler = signal.signal(signal.SIGINT, signal.default_int_handler)
    try:
        with monkeypatch.context() as patched, pytest.raises(KeyboardInterrupt):
            patched.setattr(mc, "_block_outages", interrupting)
            estimate_outage(point.cfg, point.scenario, SHORT_LAST, threads=2)
        assert 0 in finished
    finally:
        signal.signal(signal.SIGINT, handler)
    assert [estimate_outage(point.cfg, point.scenario, SHORT_LAST, threads=2)] == \
        _fresh([point], SHORT_LAST)


def _arrays():
    # the calling thread's store, arrays only
    return {key: id(arr) for key, arr in vars(mc._local).items() if isinstance(arr, np.ndarray)}


@pytest.mark.usefixtures("small_blocks", "empty_stores")
def test_next_scope_reuses_the_arrays_of_the_last():
    """A second run, at another seed, redraws every block in place and
    allocates no array."""
    points = _selftest_batch()
    cli.run_points(points, SHORT_LAST, 1)
    arrays = _arrays()
    assert {key for key in arrays if key[0] == "gains"} == {
        ("gains", index, slot) for index, _ in SHORT_LAST.blocks() for slot in range(3)}
    cli.run_points(points, replace(SHORT_LAST, seed=9), 1)
    assert _arrays() == arrays
    assert {tag[0] for tag in _tags(vars(mc._local)).values()} == {9}
