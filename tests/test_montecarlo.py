"""Monte Carlo estimator: determinism, block structure and cost handling."""

import itertools
import signal
import sys
import threading
import time
import tracemalloc
from dataclasses import replace

import numpy as np
import pytest

import ehrelay.montecarlo as mc
from conftest import curve_rows, subset
from ehrelay import cli
from ehrelay.lognormal import ChannelSpec, sample_sq_gain
from ehrelay.model import FadeRangeError, FadeSample, OutageEstimate, Scenario, SystemConfig
from ehrelay.montecarlo import McPlan, estimate_outage, outage_indicator

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


@pytest.mark.parametrize("threads,block_size,trials", [(1, 2**12, 5 * 2**12 + 123),
                                                      (4, 2**14, 10**4)],
                         ids=["one-thread", "one-block"])
def test_serial_loop_decides_each_block_once(monkeypatch, threads, block_size, trials):
    """On one thread, or for a one-block plan, each call decides every block
    of the BLOCK_SIZE it reads at call time once, in order, the short last
    block included, in the calling thread and without the pool."""
    decided, block = [], mc._block_outages

    def recorded(*args):
        decided.append((threading.current_thread(), args[5:]))
        return block(*args)

    monkeypatch.setattr(mc, "_block_outages", recorded)
    monkeypatch.setattr(mc, "_pool", lambda threads: pytest.fail("the pool was started"))
    monkeypatch.setattr(mc, "BLOCK_SIZE", block_size)
    plan = McPlan(trials=trials, seed=31)
    assert plan.blocks()[-1][1] < block_size
    point = _selftest_batch()[0]
    for _ in range(2):  # the second call finds the blocks kept
        decided.clear()
        got = estimate_outage(point.cfg, point.scenario, plan, threads=threads)
        assert decided == [(threading.main_thread(), b) for b in plan.blocks()]
        assert [got] == _fresh([point], plan)


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

def _selftest_curves():
    """Every variant at one grid value each, in selftest order: per relay HD
    TSR, PSR, IRR, then FD at loop-back spreads sg2 = 2 and 5, so the
    loop-back channel alternates and HD rows sit between FD ones."""
    return subset(cli.selftest_points(CFG), (0.0, 0.3))


def _selftest_batch():
    """The rows of _selftest_curves."""
    return curve_rows(_selftest_curves())


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
    rows, _ = cli.run_points(_selftest_curves(), SHORT_LAST, threads)
    assert _mc_columns(rows) == _expected_columns(_fresh(points, SHORT_LAST), SHORT_LAST)
    assert len(draws) == 3 * (2 + 2)  # per block: slots 0 and 1, then slot 2 per spread
    loop_backs = {p.cfg.chg for p in points if p.scenario.duplex == "fd"}
    assert len(loop_backs) == 2
    hd = (CFG.ch1, CFG.ch2)
    assert _kept_fades() == {(SHORT_LAST.seed, *block): {hd, *(hd + (g,) for g in loop_backs)}
                             for block in SHORT_LAST.blocks()}
    draws.clear()
    again, _ = cli.run_points(_selftest_curves(), SHORT_LAST, threads)
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
        rows, _ = cli.run_points(_selftest_curves(), SHORT_LAST, threads)
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
def test_over_budget_plan_keeps_its_products_in_thread_arrays(monkeypatch):
    """An over-budget FD-AF plan computes each block's products z = x*y into the
    thread's one array, shared by the FD fade, keeps no reciprocals (the AF
    decision computes them into the thread's scratch arrays) and allocates no
    block-sized array per block once the thread's arrays exist."""
    monkeypatch.setattr(mc, "_KEPT_BYTES", 0)
    point = _selftest_batch()[-1]
    entries, block_fade = [], mc._block_fade
    monkeypatch.setattr(mc, "_block_fade",
                        lambda *args: entries.append(block_fade(*args)) or entries[-1])
    estimate_outage(point.cfg, point.scenario, SHORT_LAST)  # creates the thread's arrays
    tracemalloc.start()
    try:
        got = estimate_outage(point.cfg, point.scenario, SHORT_LAST)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert [got] == _fresh([point], SHORT_LAST)
    assert mc._memo == {} and len(entries) == 2 * 2 * len(SHORT_LAST.blocks())
    for _, fade in entries:
        assert np.shares_memory(fade.z, vars(mc._local)["z"]) and fade.z.flags.writeable
        assert fade.rx is None and fade.rz is None
    assert point.scenario.relay == "af" and peak < 8 * mc.BLOCK_SIZE  # one block's float64s


@pytest.mark.usefixtures("small_blocks")
@pytest.mark.parametrize("budget", ["none", "hd"])
def test_over_budget_plan_computes_reciprocals_for_af_rows_only(monkeypatch, budget):
    """Over budget, an AF row computes the reciprocals 1/x and 1/z that its
    fades do not keep into the thread's scratch arrays, and a DF row computes
    none. Where the memo keeps only HD fades, an FD fade over budget shares
    its HD fade's kept reciprocals, and no row computes any."""
    monkeypatch.setattr(mc, "_KEPT_BYTES", 0 if budget == "none" else 8 * SHORT_LAST.trials * 2)
    computed, reciprocal = [], mc._reciprocal

    def counted(kept, gains, out):
        if kept is None:
            computed.append(out)
        return reciprocal(kept, gains, out)

    monkeypatch.setattr(mc, "_reciprocal", counted)
    entries, block_fade = [], mc._block_fade
    monkeypatch.setattr(mc, "_block_fade",
                        lambda *args: entries.append(block_fade(*args)) or entries[-1])
    for point in _selftest_batch():
        computed.clear()
        entries.clear()
        got = estimate_outage(point.cfg, point.scenario, SHORT_LAST)
        scratch = vars(mc._local)["scratch"]
        if point.scenario.relay == "df" or budget == "hd":
            assert not computed
        else:
            assert computed and all(any(np.shares_memory(out, arr) for arr in scratch)
                                    for out in computed)
        kept = {id(fade.x): fade for _, fade in mc._memo.values()}
        for _, fade in entries:
            assert (fade.rx, fade.rz) == (None, None) if budget == "none" else (
                fade.rx is kept[id(fade.x)].rx and fade.rz is kept[id(fade.x)].rz)
        assert [got] == _fresh([point], SHORT_LAST)
    assert len(mc._memo) == (0 if budget == "none" else len(SHORT_LAST.blocks()))


@pytest.mark.usefixtures("small_blocks")
def test_fd_fade_extends_its_hd_fade(draws):
    """An FD row estimated before any HD row keeps its blocks' HD fades too:
    a later HD row draws nothing, and each FD fade's x, y and products z are
    the arrays of its block's HD fade."""
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
        assert fd_fade.x is hd_fade.x and fd_fade.y is hd_fade.y and fd_fade.z is hd_fade.z
        assert fd_fade.rx is hd_fade.rx and fd_fade.rz is hd_fade.rz
        assert np.array_equal(hd_fade.z, hd_fade.x * hd_fade.y)
        assert np.array_equal(hd_fade.rx, 1.0 / hd_fade.x)
        assert np.array_equal(hd_fade.rz, 1.0 / hd_fade.z)
    assert len(mc._memo) == 2 * len(blocks)


@pytest.mark.usefixtures("small_blocks")
def test_kept_fades_get_reciprocals_from_their_first_af_row(monkeypatch):
    """The DF rows, first in selftest order, leave every kept fade without its
    reciprocals 1/x and 1/z; the first AF row to read a kept fade attaches
    them, read-only, to its HD fade, which every FD fade extending it shares,
    and no AF row computes them into its thread's arrays."""
    computed, reciprocal = [], mc._reciprocal
    monkeypatch.setattr(mc, "_reciprocal", lambda kept, gains, out: (
        kept is None and computed.append(out)) or reciprocal(kept, gains, out))
    points = _selftest_batch()
    for point in points:
        computed.clear()
        got = estimate_outage(point.cfg, point.scenario, SHORT_LAST)
        assert not computed
        if point.scenario.relay == "df":
            assert all(fade.rx is fade.rz is None for _, fade in mc._memo.values())
        assert [got] == _fresh([point], SHORT_LAST)
    assert len(mc._memo) == 3 * 3
    for key, (_, fade) in mc._memo.items():
        hd = mc._memo[(*key[:3], key[3][:2])][1]
        assert fade.rx is hd.rx and fade.rz is hd.rz
        assert np.array_equal(fade.rx, 1.0 / fade.x) and np.array_equal(fade.rz, 1.0 / fade.z)
        assert not (fade.rx.flags.writeable or fade.rz.flags.writeable)


@pytest.mark.usefixtures("small_blocks", "short_switches")
def test_concurrent_af_rows_attach_one_pair_of_reciprocals():
    """AF rows of both duplex modes, estimated at once by more threads than
    cores on the fades the DF rows kept, attach one pair of reciprocals per
    HD fade, which every fade of its block shares."""
    points = _selftest_batch()
    af = [p for p in points if p.scenario.relay == "af"] * 4
    for seed in range(3):
        plan, got = replace(SHORT_LAST, seed=seed), [None] * len(af)
        for point in points:
            if point.scenario.relay == "df":
                estimate_outage(point.cfg, point.scenario, plan)

        def estimate(i):
            got[i] = estimate_outage(af[i].cfg, af[i].scenario, plan, threads=2)

        workers = [threading.Thread(target=estimate, args=(i,)) for i in range(len(af))]
        for t in workers:
            t.start()
        for t in workers:
            t.join(timeout=60)
        assert not any(t.is_alive() for t in workers)
        assert got == _fresh(af[:len(af) // 4], plan) * 4
    for key, (_, fade) in mc._memo.items():
        hd = mc._memo[(*key[:3], key[3][:2])][1]
        assert fade.rx is hd.rx and fade.rz is hd.rz
        assert np.array_equal(fade.rx, 1.0 / fade.x) and np.array_equal(fade.rz, 1.0 / fade.z)


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
    products = {id(a): a for _, fade in mc._memo.values()
                for a in (fade.z, fade.rx, fade.rz)}.values()
    assert len(products) == 3 * 3
    for arr in (*kept, *products):
        with pytest.raises(ValueError, match="read-only"):
            arr[0] = 1.0


@pytest.mark.usefixtures("small_blocks")
def test_fades_are_kept_only_with_their_gains(monkeypatch):
    """When another thread empties the memo while a block checks its FD fade,
    the block keeps no FD fade, whose x and y would be gains the memo no
    longer counts against its budget."""
    point = _selftest_batch()[-1]
    checked = mc.FadeSample

    def emptied_meanwhile(*gains, **products):
        mc._memo.clear()
        return checked(*gains, **products)

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
        with pytest.raises(FadeRangeError, match=r"^system\.chg: gains left the float64 range "
                           r"\(a squared gain is not strictly positive\)$"):
            estimate_outage(dead, point.scenario, SHORT_LAST)
    assert [estimate_outage(point.cfg, point.scenario, SHORT_LAST)] == \
        _fresh([point], SHORT_LAST)


@pytest.mark.parametrize("channel,problem", [
    ("ch1", "strictly positive"), ("ch2", "finite"), ("chg", "strictly positive")])
@pytest.mark.parametrize("threads", [1, 2])
def test_gains_out_of_range_name_their_channel(channel, problem, threads):
    # the fade names its gain (x, y or w); the estimate names the channel it was drawn from
    point = _selftest_batch()[-1]
    mu_db = -3500.0 if problem == "strictly positive" else 3500.0
    cfg = replace(point.cfg, **{channel: ChannelSpec(mu_db, 1.0)})
    with pytest.raises(FadeRangeError, match=rf"^system\.{channel}: gains left the float64 "
                       rf"range \(a squared gain is not {problem}\)$"):
        estimate_outage(cfg, point.scenario, McPlan(2 * mc.BLOCK_SIZE, 5), threads=threads)


@pytest.mark.usefixtures("small_blocks")
@pytest.mark.parametrize("budget",[mc._KEPT_BYTES, 0], ids=["kept", "over-budget"])
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
        rows, _ = cli.run_points(_selftest_curves(), SHORT_LAST, 1)
        assert _mc_columns(rows) == _expected_columns(_fresh(points, SHORT_LAST), SHORT_LAST)
    assert len([ch for ch in draws if ch == CFG.ch1]) == 3 * 2  # slots 0 and 1, drawn once
    for seed in (4, 5, 6):
        plan = replace(SHORT_LAST, seed=seed)
        rows, _ = cli.run_points(_selftest_curves(), plan, 1)
        assert _mc_columns(rows) == _expected_columns(_fresh(points, plan), plan)
    assert len(held) == 5 * len(points) and max(held) <= budget


def deciding_on(monkeypatch, mark):
    """Patch the two steps that read a block's trials, DF's compare on the gains
    (mc._any_past) and AF's iota (mc._iota), to call mark(scenario) first."""
    any_past, iota = mc._any_past, mc._iota
    monkeypatch.setattr(mc, "_any_past",
                        lambda duplex, *args: mark(f"{duplex}-df") or any_past(duplex, *args))
    monkeypatch.setattr(mc, "_iota",
                        lambda duplex, *args: mark(f"{duplex}-af") or iota(duplex, *args))


def test_selftest_decides_its_saturated_blocks_at_the_edge(monkeypatch, capsys):
    """`selftest --trials 131072 --seed 1` decides 148 blocks of 65,536 trials,
    and 54 of them lie wholly past the certain-outage edge: those come back all
    in outage without a look at their trials (neither mc._any_past nor
    mc._iota runs). The count is a function of the seed alone."""
    at_edge = []
    indicator = mc.outage_indicator

    def watched(cfg, scenario, fade, scratch):
        at_edge.append(True)
        out = indicator(cfg, scenario, fade, scratch=scratch)
        assert out.all() or not at_edge[-1]
        return out

    monkeypatch.setattr(mc, "outage_indicator", watched)
    deciding_on(monkeypatch, lambda path: at_edge.__setitem__(-1, False))
    assert cli.main(["selftest", "--trials", "131072", "--seed", "1"]) == 0
    capsys.readouterr()
    assert len(at_edge) == 148 and sum(at_edge) == 54


def test_selftest_decision_paths_give_one_flag_per_trial(monkeypatch, capsys):
    """Every block of `selftest --trials 131072 --seed 1` is decided on one
    path: at the certain-outage edge; by a DF block's two gain edges, with no
    SNR computed and its scratch arrays untouched; or by an AF block's iota,
    compared with its edge, which writes the scratch arrays. Each path gives
    one flag per trial, which is what the benchmark counts as a row's trials.
    The counts are a function of the seed alone."""
    paths, path = [], []
    indicator = mc.outage_indicator

    def watched(cfg, scenario, fade, scratch):
        for arr in scratch:
            arr.fill(np.nan)
        path[:] = ["edge"]
        out = indicator(cfg, scenario, fade, scratch=scratch)
        assert out.dtype == bool and out.shape == fade.x.shape == (mc.BLOCK_SIZE,)
        untouched = all(np.isnan(arr).all() for arr in scratch)
        assert untouched == (path[0] in ("edge", "hd-df", "fd-df"))
        paths.append(path[0])
        return out

    monkeypatch.setattr(mc, "outage_indicator", watched)
    deciding_on(monkeypatch, lambda name: path.__setitem__(0, name))
    assert cli.main(["selftest", "--trials", "131072", "--seed", "1"]) == 0
    capsys.readouterr()
    assert {p: paths.count(p) for p in paths} == {
        "edge": 54, "hd-df": 32, "fd-df": 15, "hd-af": 32, "fd-af": 15}
