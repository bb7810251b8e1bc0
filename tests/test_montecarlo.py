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
from ehrelay.model import (FadeRangeError, FadeSample, OutageEstimate, Scenario, SystemConfig,
                           outage_indicator)
from ehrelay.montecarlo import McPlan, estimate_outage

CFG = SystemConfig()
TSR = Scenario("hd", "df", "tsr", tau=0.5)


@pytest.fixture(autouse=True)
def empty_memo():
    # the memo is shared by the whole process: every test starts and ends with
    # it empty, so no draw count depends on gains another test kept
    mc._memo.clear()
    yield
    mc._memo.clear()


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

    @pytest.mark.parametrize("field,trials,seed", [
        ("trials", 20000.0, 1),
        ("seed", 20000, 1.5),
        ("seed", 20000, 1.0),
        ("seed", 20000, "1"),
    ])
    def test_non_integral_field_rejected(self, field, trials, seed):
        # a float would pass the range checks and fail later, inside the estimate
        with pytest.raises(ValueError, match=f"^{field} must be an integer"):
            McPlan(trials=trials, seed=seed)

    def test_numpy_integers_accepted(self):
        plan = McPlan(trials=np.int64(20000), seed=np.uint64(2**63))
        assert plan.blocks() == [(0, 20000)]

    def test_block_partition_covers_trials(self, monkeypatch):
        monkeypatch.setattr(mc, "BLOCK_SIZE", 2**12)
        plan = McPlan(trials=10**5 + 3, seed=0)
        blocks = plan.blocks()
        assert sum(size for _, size in blocks) == plan.trials
        assert [i for i, _ in blocks] == list(range(len(blocks)))
        assert [size for _, size in blocks[:-1]] == [2**12] * (len(blocks) - 1)


# ---------------------------------------------------------------------------
# the memo of block gains: each block drawn once per process, estimates unchanged

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


def _in_fresh_thread(fn):
    """fn() run in a new thread."""
    result = []
    t = threading.Thread(target=lambda: result.append(fn()))
    t.start()
    t.join(timeout=60)
    assert not t.is_alive() and len(result) == 1
    return result[0]


def _channels(point):
    cfg = point.cfg
    return (cfg.ch1, cfg.ch2, cfg.chg) if point.scenario.duplex == "fd" else (cfg.ch1, cfg.ch2)


def _fresh(points, plan):
    """Each point's estimate from blocks drawn afresh, without the memo: block
    i draws its channels in order from the substream (plan.seed, i)."""
    estimates = []
    for p in points:
        failures = 0
        for index, size in plan.blocks():
            rng = np.random.default_rng(np.random.SeedSequence(entropy=plan.seed,
                                                               spawn_key=(index,)))
            fade = FadeSample(*(sample_sq_gain(ch, rng, size) for ch in _channels(p)))
            failures += int(np.count_nonzero(outage_indicator(p.cfg, p.scenario, fade)))
        p_hat = failures / plan.trials
        stderr = float(np.sqrt(p_hat * (1.0 - p_hat) / plan.trials))
        estimates.append(OutageEstimate(p_hat, "monte_carlo", stderr, plan.trials))
    return estimates


def _mc_columns(rows):
    return [(r.mc, r.mc_stderr, r.trials, r.seed) for r in rows]


def _expected_columns(estimates, plan):
    return [(e.value, e.stderr, e.trials, plan.seed) for e in estimates]


def _kept_fades():
    """(seed, index, size) -> the channels of every fade the memo keeps for that block."""
    fades = {}
    for key in mc._memo:
        fades.setdefault(key[:3], set()).add(key[3])
    return fades


def _kept_arrays():
    """The distinct gain arrays the memo refers to, by id."""
    return {id(a): a for _, fade in mc._memo.values()
            for a in (fade.x, fade.y, fade.w) if a is not None}


def _held_bytes():
    return sum(a.nbytes for a in _kept_arrays().values())


@pytest.fixture
def draws(monkeypatch):
    """The spec of every draw the estimator makes, in order."""
    specs = []

    def counted(ch, *args, **kwargs):
        specs.append(ch)
        return sample_sq_gain(ch, *args, **kwargs)

    monkeypatch.setattr(mc, "sample_sq_gain", counted)
    return specs


@pytest.fixture
def short_switches():
    # more workers than cores, switching often, so a lost update would show
    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        yield
    finally:
        sys.setswitchinterval(interval)


@pytest.mark.usefixtures("small_blocks", "short_switches")
@pytest.mark.parametrize("threads", [1, 2, 4])
def test_run_points_equals_per_call_estimates(threads, draws):
    """A plan that fits the memo keeps every block's HD fade and both FD fades
    (one per loop-back spread) side by side, even on the pool, so a second
    run draws no slot, not even a loop-back one."""
    points = _selftest_batch()
    assert len({p.scenario.label() for p in points}) == 8
    rows, _ = cli.run_points(points, SHORT_LAST, threads)
    assert _mc_columns(rows) == _expected_columns(_fresh(points, SHORT_LAST), SHORT_LAST)
    assert len(draws) == 3 * (2 + 2)  # per block: slots 0 and 1, then slot 2 per spread
    loop_backs = {p.cfg.chg for p in points if p.scenario.duplex == "fd"}
    assert len(loop_backs) == 2
    hd = (CFG.ch1, CFG.ch2)
    assert _kept_fades() == {(SHORT_LAST.seed, *block): {hd, *(hd + (g,) for g in loop_backs)}
                             for block in SHORT_LAST.blocks()}
    draws.clear()
    again, _ = cli.run_points(points, SHORT_LAST, threads)
    assert draws == [] and again == rows


@pytest.mark.usefixtures("small_blocks", "short_switches")
def test_plan_over_budget_draws_per_call_and_matches(monkeypatch, draws):
    """A plan whose gains exceed the budget keeps none: every call draws each
    of its blocks into its thread's arrays, and every estimate still matches.
    A budget between the HD and FD sizes keeps only HD gains."""
    points = _selftest_batch()
    expected = _expected_columns(_fresh(points, SHORT_LAST), SHORT_LAST)
    slots = sum(len(_channels(p)) for p in points)
    hd_bytes = 8 * SHORT_LAST.trials * 2
    for budget, threads in itertools.product((0, hd_bytes), (1, 2, 4)):
        monkeypatch.setattr(mc, "_KEPT_BYTES", budget)
        draws.clear()
        rows, _ = cli.run_points(points, SHORT_LAST, threads)
        assert _mc_columns(rows) == expected
        if budget == 0:  # nothing is kept, so every call draws every slot of every block
            assert not mc._memo and len(draws) == 3 * slots
    # at the last budget the memo keeps the HD fades only
    assert _kept_fades() == {(SHORT_LAST.seed, *block): {(CFG.ch1, CFG.ch2)}
                             for block in SHORT_LAST.blocks()}


@pytest.mark.usefixtures("small_blocks")
def test_over_budget_fd_plan_draws_only_its_loop_back_slot(monkeypatch, draws):
    monkeypatch.setattr(mc, "_KEPT_BYTES", 8 * SHORT_LAST.trials * 2)
    hd, fd = _selftest_batch()[0], _selftest_batch()[-1]
    assert (hd.scenario.duplex, fd.scenario.duplex) == ("hd", "fd")
    estimate_outage(hd.cfg, hd.scenario, SHORT_LAST)
    draws.clear()
    got = [estimate_outage(fd.cfg, fd.scenario, SHORT_LAST, threads=threads)
           for threads in (1, 2)]
    assert draws == [fd.cfg.chg] * 2 * len(SHORT_LAST.blocks())
    assert got == _fresh([fd], SHORT_LAST) * 2


@pytest.mark.usefixtures("small_blocks")
def test_fd_fade_extends_its_hd_fade(draws):
    """An FD row estimated before any HD row keeps its blocks' HD fades too:
    a later HD row draws nothing, and each FD fade's x and y are the arrays
    of its block's HD fade."""
    hd, fd = _selftest_batch()[0], _selftest_batch()[-1]
    assert (hd.scenario.duplex, fd.scenario.duplex) == ("hd", "fd")
    estimate_outage(fd.cfg, fd.scenario, SHORT_LAST)
    draws.clear()
    assert [estimate_outage(hd.cfg, hd.scenario, SHORT_LAST)] == _fresh([hd], SHORT_LAST)
    assert draws == []
    blocks = [(SHORT_LAST.seed, *block) for block in SHORT_LAST.blocks()]
    for block in blocks:
        fd_fade = mc._memo[(*block, (fd.cfg.ch1, fd.cfg.ch2, fd.cfg.chg))][1]
        hd_fade = mc._memo[(*block, (hd.cfg.ch1, hd.cfg.ch2))][1]
        assert fd_fade.x is hd_fade.x and fd_fade.y is hd_fade.y
    assert len(mc._memo) == 2 * len(blocks)


@pytest.mark.usefixtures("small_blocks")
def test_fd_fade_over_budget_drops_only_its_blocks_fd_fades(monkeypatch, draws):
    """Past the budget, a new FD fade drops the other FD fades of its own block,
    not those of other blocks. The budget holds one FD plan and one block's
    loop-back gains more, so spread b's block 0 still fits beside spread a's."""
    monkeypatch.setattr(mc, "_KEPT_BYTES", 8 * (SHORT_LAST.trials * 3 + 2**13))
    a, b = [p for p in _selftest_batch() if p.scenario.duplex == "fd"][:2]
    assert a.cfg.chg != b.cfg.chg
    for point in (a, b):
        estimate_outage(point.cfg, point.scenario, SHORT_LAST)
    hd = (CFG.ch1, CFG.ch2)
    blocks = [(SHORT_LAST.seed, *block) for block in SHORT_LAST.blocks()]
    assert _kept_fades() == {blocks[0]: {hd, hd + (a.cfg.chg,), hd + (b.cfg.chg,)},
                             blocks[1]: {hd, hd + (b.cfg.chg,)}, blocks[2]: {hd, hd + (b.cfg.chg,)}}
    draws.clear()
    assert [estimate_outage(a.cfg, a.scenario, SHORT_LAST)] == _fresh([a], SHORT_LAST)
    assert draws == [a.cfg.chg] * 2 and _held_bytes() <= mc._KEPT_BYTES


@pytest.mark.usefixtures("small_blocks")
def test_fd_fade_that_empties_the_memo_keeps_its_hd_fade(monkeypatch, draws):
    """An FD fade that must empty the memo keeps the HD fade it extends: a later
    HD row draws nothing, and the memo stays within its budget."""
    monkeypatch.setattr(mc, "_KEPT_BYTES", 8 * SHORT_LAST.trials * 3)
    hd, fd = _selftest_batch()[0], _selftest_batch()[-1]
    other = replace(SHORT_LAST, seed=4)
    estimate_outage(hd.cfg, hd.scenario, other)  # two thirds of the budget
    estimate_outage(fd.cfg, fd.scenario, SHORT_LAST)  # block 0's HD fade fits, its FD one not
    assert {key[0] for key in mc._memo} == {SHORT_LAST.seed}
    draws.clear()
    assert [estimate_outage(hd.cfg, hd.scenario, SHORT_LAST)] == _fresh([hd], SHORT_LAST)
    assert draws == [] and _held_bytes() <= mc._KEPT_BYTES


@pytest.mark.usefixtures("small_blocks")
def test_scopes_share_nothing():
    """Two seeds interleaved row by row: neither reuses the other's gains."""
    plan_a, plan_b = SHORT_LAST, replace(SHORT_LAST, seed=4)
    points = _selftest_batch()
    got = [[estimate_outage(p.cfg, p.scenario, plan) for plan in (plan_a, plan_b)]
           for p in points]
    assert got == [list(pair) for pair in zip(_fresh(points, plan_a), _fresh(points, plan_b))]


@pytest.mark.usefixtures("small_blocks", "short_switches")
def test_other_threads_reuse_kept_gains(draws):
    """Gains one thread keeps serve an estimate in another thread and on the
    pool at 2 and 4 threads, without a draw."""
    point = _selftest_batch()[-1]
    mine = estimate_outage(point.cfg, point.scenario, SHORT_LAST)
    assert len(draws) == 3 * 3
    draws.clear()
    theirs = _in_fresh_thread(lambda: estimate_outage(point.cfg, point.scenario, SHORT_LAST))
    pooled = [estimate_outage(point.cfg, point.scenario, SHORT_LAST, threads=threads)
              for threads in (2, 4)]
    assert draws == []
    assert [mine, theirs, *pooled] == _fresh([point], SHORT_LAST) * 4


@pytest.mark.usefixtures("small_blocks")
def test_kept_fade_is_never_replaced(monkeypatch):
    """A fade that another thread keeps while this one draws the same block
    stays in the memo: this call's own draw of that block is not kept."""
    point = _selftest_batch()[0]
    kept = {}

    def racing(ch, *args, **kwargs):
        if not kept and threading.current_thread() is threading.main_thread():
            # at this call's first draw, another thread keeps the whole plan
            _in_fresh_thread(lambda: estimate_outage(point.cfg, point.scenario, SHORT_LAST))
            kept.update(mc._memo)
        return sample_sq_gain(ch, *args, **kwargs)

    monkeypatch.setattr(mc, "sample_sq_gain", racing)
    assert [estimate_outage(point.cfg, point.scenario, SHORT_LAST)] == \
        _fresh([point], SHORT_LAST)
    assert mc._memo.keys() == kept.keys() and len(kept) == len(SHORT_LAST.blocks())
    assert all(mc._memo[key] is entry for key, entry in kept.items())


@pytest.mark.usefixtures("small_blocks")
def test_kept_arrays_are_read_only():
    point = _selftest_batch()[-1]
    estimate_outage(point.cfg, point.scenario, SHORT_LAST)
    kept = _kept_arrays().values()
    assert len(kept) == 3 * 3
    for gains in kept:
        with pytest.raises(ValueError, match="read-only"):
            gains[0] = 1.0


@pytest.mark.usefixtures("small_blocks")
def test_fades_are_kept_only_with_their_gains(monkeypatch):
    """When another thread empties the memo while a block checks its FD fade,
    the block keeps no FD fade, whose x and y would be gains the memo no
    longer counts against its budget."""
    point = _selftest_batch()[-1]
    checked = mc.FadeSample

    def emptied_meanwhile(*gains):
        mc._memo.clear()
        return checked(*gains)

    monkeypatch.setattr(mc, "FadeSample", emptied_meanwhile)
    assert [estimate_outage(point.cfg, point.scenario, SHORT_LAST)] == \
        _fresh([point], SHORT_LAST)
    assert _kept_fades() == {}


@pytest.mark.usefixtures("small_blocks")
def test_redrawn_slot_is_checked_again():
    # a loop-back gain of 10^-700 underflows to 0.0, which FadeSample rejects
    point = _selftest_batch()[-1]
    dead = replace(point.cfg, chg=ChannelSpec(-3500.0, 1.0))
    estimate_outage(point.cfg, point.scenario, SHORT_LAST)
    for _ in range(2):  # a fade that fails its check is never kept, so drawn again
        with pytest.raises(FadeRangeError, match="w must be strictly positive"):
            estimate_outage(dead, point.scenario, SHORT_LAST)
    assert [estimate_outage(point.cfg, point.scenario, SHORT_LAST)] == \
        _fresh([point], SHORT_LAST)


@pytest.mark.usefixtures("small_blocks")
@pytest.mark.parametrize("budget", [mc._KEPT_BYTES, 0], ids=["kept", "over-budget"])
def test_interrupted_draw_keeps_nothing(monkeypatch, budget):
    """A draw that writes its array and then raises, midway through a block,
    keeps nothing: the memo holds what it held, not even the slot drawn
    before, and the next call equals a fresh draw."""
    monkeypatch.setattr(mc, "_KEPT_BYTES", budget)
    point = _selftest_batch()[-1]
    estimate_outage(point.cfg, point.scenario, SHORT_LAST)
    before = dict(mc._memo)
    calls = []

    def interrupted(ch, rng, size=None, out=None):
        calls.append(ch)
        if len(calls) == 2:  # slot 1 of block 0
            (np.empty(size) if out is None else out).fill(1.0)
            raise KeyboardInterrupt
        return sample_sq_gain(ch, rng, size, out=out)

    other = replace(SHORT_LAST, seed=6)
    with monkeypatch.context() as patched, pytest.raises(KeyboardInterrupt):
        patched.setattr(mc, "sample_sq_gain", interrupted)
        estimate_outage(point.cfg, point.scenario, other)
    assert mc._memo.keys() == before.keys()
    assert all(mc._memo[key] is entry for key, entry in before.items())
    for plan in (other, SHORT_LAST):
        assert [estimate_outage(point.cfg, point.scenario, plan)] == _fresh([point], plan)


@pytest.mark.usefixtures("small_blocks")
def test_interrupted_pooled_call_cancels_queued_blocks(monkeypatch):
    """A caller interrupted while its blocks run on the pool cancels those
    still queued, and what the blocks that ran keep is what a fresh draw gives."""
    point = _selftest_batch()[-1]
    plan = replace(SHORT_LAST, trials=20 * 2**13)
    started, release = [], threading.Event()
    block = mc._block_outages

    def interrupting(*args):
        started.append(args[5])
        if args[5] == 0:  # interrupts the caller waiting for the results
            time.sleep(0.05)
            signal.pthread_kill(threading.main_thread().ident, signal.SIGINT)
        else:
            release.wait(10)
        return block(*args)

    handler = signal.signal(signal.SIGINT, signal.default_int_handler)
    try:
        with monkeypatch.context() as patched, pytest.raises(KeyboardInterrupt):
            patched.setattr(mc, "_block_outages", interrupting)
            estimate_outage(point.cfg, point.scenario, plan, threads=2)
    finally:
        release.set()
        signal.signal(signal.SIGINT, handler)
    mc._pool(2).submit(lambda: None).result()  # both workers are free again
    mc._pool(2).submit(lambda: None).result()
    assert 0 in started and len(started) < len(plan.blocks())
    assert [estimate_outage(point.cfg, point.scenario, plan, threads=2)] == \
        _fresh([point], plan)


@pytest.mark.usefixtures("small_blocks")
def test_memo_stays_within_budget(monkeypatch, draws):
    """Across seeds and loop-back specs, after every estimate, the distinct
    arrays the memo refers to total at most its budget. A budget of one FD
    plan keeps the HD fades throughout: a new loop-back spec drops its
    block's other FD fade, not the whole memo."""
    budget = 8 * SHORT_LAST.trials * 3
    monkeypatch.setattr(mc, "_KEPT_BYTES", budget)
    held = []
    estimate = cli.estimate_outage

    def checked(*args, **kwargs):
        result = estimate(*args, **kwargs)
        held.append(_held_bytes())
        return result

    monkeypatch.setattr(cli, "estimate_outage", checked)
    points = _selftest_batch()
    for _ in range(2):
        rows, _ = cli.run_points(points, SHORT_LAST, 1)
        assert _mc_columns(rows) == _expected_columns(_fresh(points, SHORT_LAST), SHORT_LAST)
    assert len([ch for ch in draws if ch == CFG.ch1]) == 3 * 2  # slots 0 and 1, drawn once
    for seed in (4, 5, 6):
        plan = replace(SHORT_LAST, seed=seed)
        rows, _ = cli.run_points(points, plan, 1)
        assert _mc_columns(rows) == _expected_columns(_fresh(points, plan), plan)
    assert len(held) == 5 * len(points) and max(held) <= budget
