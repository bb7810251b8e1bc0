"""Harvesting-parameter optimization: brackets, orderings and fallbacks."""

from dataclasses import replace

import numpy as np
import pytest

import ehrelay.optimize as opt
from conftest import columns, curve_rows, field_rows
from ehrelay.analytic import outage, outages
from ehrelay.grids import preset_fig5
from ehrelay.model import Scenario, SystemConfig
from ehrelay.optimize import OptResult, minimize_many, minimize_over_eh_param

CFG = SystemConfig()
TSR = Scenario("hd", "df", "tsr", tau=0.5)
PSR = Scenario("hd", "df", "psr", rho=0.5)


def test_never_worse_than_midpoint():
    result = minimize_over_eh_param(CFG, TSR)
    assert result.value_opt <= outage(CFG, replace(TSR, tau=0.5)).value


def test_endpoints_are_worse():
    result = minimize_over_eh_param(CFG, TSR)
    for tau in (0.001, 0.999):
        assert outage(CFG, replace(TSR, tau=tau)).value > result.value_opt


def test_refinement_never_worse_than_coarse_grid():
    result = minimize_over_eh_param(CFG, PSR)
    coarse = min(
        outage(CFG, replace(PSR, rho=float(p))).value for p in np.linspace(0.02, 0.98, 49)
    )
    assert result.value_opt <= coarse + 1e-15


def test_bracket_meets_tolerance():
    result = minimize_over_eh_param(CFG, TSR, tol=1e-3)
    assert result.bracket <= 1e-3
    assert 0 < result.arg_opt < 1
    assert 0 <= result.value_opt <= 1


# tolerances below 1e-12 that the bracket never reaches are tested through a
# subprocess with a timeout (test_cli), since without the check they loop forever
@pytest.mark.parametrize("tol", [float("nan"), float("inf"), 1.0])
def test_tolerance_outside_range_is_rejected(tol):
    with pytest.raises(ValueError, match="tol must be in"):
        minimize_many(columns([(CFG, TSR)]), tol)


def test_tighter_tolerance_is_stable():
    base = minimize_over_eh_param(CFG, TSR, tol=1e-3)
    fine = minimize_over_eh_param(CFG, TSR, tol=1e-4)
    assert abs(base.arg_opt - fine.arg_opt) <= 1e-3
    assert abs(base.value_opt - fine.value_opt) <= 1e-6


def test_protocol_ordering_at_defaults():
    # unconstrained receiver lower-bounds both optimized schemes, and power
    # splitting beats time switching once each is tuned
    for relay in ("df", "af"):
        irr = outage(CFG, Scenario("hd", relay, "irr")).value
        psr = minimize_over_eh_param(CFG, Scenario("hd", relay, "psr", rho=0.5))
        tsr = minimize_over_eh_param(CFG, Scenario("hd", relay, "tsr", tau=0.5))
        assert irr <= psr.value_opt + 1e-3
        assert psr.value_opt <= tsr.value_opt + 1e-3


def test_irr_is_rejected():
    with pytest.raises(ValueError):
        minimize_over_eh_param(CFG, Scenario("hd", "df", "irr"))


def test_multimodal_objective_falls_back_to_dense_grid(monkeypatch):
    # two separated wells; the dense scan must find the deeper one at 0.7
    class FakeEstimate:
        def __init__(self, value):
            self.value = value

    def fake_outage(cfg, scenario):
        p = scenario.tau
        return FakeEstimate(0.5 - 0.3 * np.exp(-((p - 0.2) ** 2) / 0.002)
                            - 0.4 * np.exp(-((p - 0.7) ** 2) / 0.002))

    monkeypatch.setattr(opt, "outage", fake_outage)
    monkeypatch.setattr(opt, "outages", lambda sets, params: np.array(
        [[fake_outage(CFG, TSR.with_eh_param(p)).value for p in row]
         for row in params]).reshape(params.shape))
    result = minimize_over_eh_param(CFG, TSR)
    assert result.non_unimodal
    assert result.arg_opt == pytest.approx(0.7, abs=2e-3)
    assert result.bracket == pytest.approx(1e-3)


# fig5's 48 optimize points as (curve, sigma_db, arg_opt, value_opt, evaluations,
# bracket, non_unimodal), captured from the one-pair-at-a-time golden-section
# optimizer that preceded minimize_many. When the integrand's Q became numpy's
# q_vector, 11 value_opt moved by 1 or 2 ulp (every other field stayed) and
# were captured again; when the quadrature started from 6 panels instead of 8,
# 32 value_opt moved by at most 4.5e-12 relative and were captured again; when
# starting panels followed each window and HD tails stopped at the head's cut,
# 36 value_opt moved by at most 6.1e-11 relative and were captured again; when
# the quadrature moved to the weight's standardized coordinate, 19 value_opt moved
# by at most 4.5e-16 relative and were captured again; when the rule summed each
# panel down its nodes in order, 17 value_opt moved by at most 3.0e-16 relative
# and were captured again
FIG5_OPTIMA = [
    ('hd-df-tsr ps=1', 0.5, 0.4283902697002776, 0.9999999990158784, 59, 0.0008514494500883596, False),
    ('hd-df-tsr ps=1', 1.0, 0.2602631123499285, 0.9999167897302939, 59, 0.0008514494500883596, False),
    ('hd-df-tsr ps=1', 1.5, 0.2561300899000925, 0.9940391092153327, 59, 0.0008514494500883596, False),
    ('hd-df-tsr ps=1', 2.0, 0.24865338205020607, 0.9711285064839739, 59, 0.0008514494500882763, False),
    ('hd-df-tsr ps=1', 2.5, 0.24006211240030284, 0.9376426672769073, 59, 0.0008514494500883041, False),
    ('hd-df-tsr ps=1', 3.0, 0.23199706745025658, 0.903094602625264, 59, 0.0008514494500883041, False),
    ('hd-df-psr ps=1', 0.5, 0.8422912360003365, 0.9999563425434375, 59, 0.0008514494500884151, False),
    ('hd-df-psr ps=1', 1.0, 0.8175077640500379, 0.9796738495266877, 59, 0.0008514494500883041, False),
    ('hd-df-psr ps=1', 1.5, 0.7941019662496847, 0.9235045898266259, 59, 0.0008514494500884151, False),
    ('hd-df-psr ps=1', 2.0, 0.7727242920997393, 0.8696120398829907, 59, 0.0008514494500883041, False),
    ('hd-df-psr ps=1', 2.5, 0.7535757415498275, 0.8276370748260133, 59, 0.0008514494500884151, False),
    ('hd-df-psr ps=1', 3.0, 0.7366563145999496, 0.7959254843908767, 59, 0.0008514494500884151, False),
    ('hd-af-tsr ps=1', 0.5, 0.4283902697002776, 0.9999999990158784, 59, 0.0008514494500883596, False),
    ('hd-af-tsr ps=1', 1.0, 0.2383592135001262, 0.9999551229769158, 59, 0.0008514494500883041, False),
    ('hd-af-tsr ps=1', 1.5, 0.2366563145999495, 0.9957281339404606, 59, 0.0008514494500883041, False),
    ('hd-af-tsr ps=1', 2.0, 0.23410196624968455, 0.9768066108632067, 59, 0.0008514494500883318, False),
    ('hd-af-tsr ps=1', 2.5, 0.23134661794979391, 0.946671115873387, 59, 0.0008514494500883318, False),
    ('hd-af-tsr ps=1', 3.0, 0.22832815729997474, 0.9137943285026984, 59, 0.0008514494500883041, False),
    ('hd-af-psr ps=1', 0.5, 0.7100310562001515, 0.9999999968445479, 59, 0.0008514494500884151, False),
    ('hd-af-psr ps=1', 1.0, 0.7072757079002608, 0.9982778067076248, 59, 0.0008514494500883041, False),
    ('hd-af-psr ps=1', 1.5, 0.7033436854000505, 0.9757491583043079, 59, 0.0008514494500883041, False),
    ('hd-af-psr ps=1', 2.0, 0.6980339887498949, 0.9336276549013349, 59, 0.0008514494500883041, False),
    ('hd-af-psr ps=1', 2.5, 0.6919970674502567, 0.8899793720511026, 59, 0.0008514494500883041, False),
    ('hd-af-psr ps=1', 3.0, 0.6857738089497099, 0.8520862395855564, 59, 0.0008514494500884151, False),
    ('hd-df-tsr ps=5', 0.5, 0.26058833710015983, 0.9951661341741075, 59, 0.0008514494500883041, False),
    ('hd-df-tsr ps=5', 1.0, 0.26058833710015983, 0.9021234536091304, 59, 0.0008514494500883041, False),
    ('hd-df-tsr ps=5', 1.5, 0.2602631123499285, 0.8058011717374178, 59, 0.0008514494500883596, False),
    ('hd-df-tsr ps=5', 2.0, 0.25941166289984013, 0.7414034254334054, 59, 0.0008514494500883596, False),
    ('hd-df-tsr ps=5', 2.5, 0.2561300899000925, 0.6990243749649055, 59, 0.0008514494500883596, False),
    ('hd-df-tsr ps=5', 3.0, 0.2508203932499369, 0.670658036792733, 59, 0.0008514494500883596, False),
    ('hd-df-psr ps=5', 0.5, 0.9141019662496846, 0.09372522579535733, 59, 0.0008514494500884151, False),
    ('hd-df-psr ps=5', 1.0, 0.8925232921501136, 0.27254739842676456, 59, 0.0008514494500883041, False),
    ('hd-df-psr ps=5', 1.5, 0.8705572809000084, 0.35928545984550736, 59, 0.0008514494500884151, False),
    ('hd-df-psr ps=5', 2.0, 0.8486533820502061, 0.4079071960345835, 59, 0.0008514494500883041, False),
    ('hd-df-psr ps=5', 2.5, 0.8278019326001178, 0.43931100050182653, 59, 0.0008514494500883041, False),
    ('hd-df-psr ps=5', 3.0, 0.8081271573503491, 0.46159692053655854, 59, 0.0008514494500884151, False),
    ('hd-af-tsr ps=5', 0.5, 0.2674767078498865, 0.9882387720516507, 59, 0.0008514494500883596, False),
    ('hd-af-tsr ps=5', 1.0, 0.26609903369994115, 0.8737436207069101, 59, 0.0008514494500883596, False),
    ('hd-af-tsr ps=5', 1.5, 0.2641951348501388, 0.7812160602136489, 59, 0.0008514494500883596, False),
    ('hd-af-tsr ps=5', 2.0, 0.2613155617496425, 0.7246633104800653, 59, 0.0008514494500883596, False),
    ('hd-af-tsr ps=5', 2.5, 0.25783298880026917, 0.6888938568104968, 59, 0.0008514494500883596, False),
    ('hd-af-tsr ps=5', 3.0, 0.2539009663000589, 0.6651230557114729, 59, 0.0008514494500883596, False),
    ('hd-af-psr ps=5', 0.5, 0.7780339887498948, 0.5314163534051314, 59, 0.0008514494500883041, False),
    ('hd-af-psr ps=5', 1.0, 0.7747524157501473, 0.522547667953868, 59, 0.0008514494500884151, False),
    ('hd-af-psr ps=5', 1.5, 0.7695048315002944, 0.5226565905988874, 59, 0.0008514494500884151, False),
    ('hd-af-psr ps=5', 2.0, 0.7628174607001935, 0.5250003346716225, 59, 0.0008514494500883041, False),
    ('hd-af-psr ps=5', 2.5, 0.7549534156997728, 0.5281782669734062, 59, 0.0008514494500884151, False),
    ('hd-af-psr ps=5', 3.0, 0.7466252583997981, 0.5316827457711717, 59, 0.0008514494500883041, False),
]


def fig5_curves():
    curves, _ = preset_fig5(CFG)
    return [c for c in curves if c.optimize]


def test_minimize_many_reproduces_fig5_optima_bit_for_bit():
    curves = fig5_curves()
    results = minimize_many([c.columns() for c in curves])
    assert len(results) == len(curve_rows(curves)) == len(FIG5_OPTIMA)
    for p, result, expected in zip(curve_rows(curves), results, FIG5_OPTIMA):
        assert (p.curve, p.axis_value) == expected[:2]
        assert result == OptResult(*expected[2:])
        assert minimize_over_eh_param(p.cfg, p.scenario) == result


def two_wells(p):
    # separated wells at 0.2 and 0.7; the deeper one is at 0.7
    return 0.5 - 0.3 * np.exp(-((p - 0.2) ** 2) / 0.002) - 0.4 * np.exp(-((p - 0.7) ** 2) / 0.002)


# at tol = 8.5e-4 a bracket of 0.04 (an interior grid cell) takes one golden-section
# step more than the 0.0399 of the first cell, (1e-4, 0.04)
@pytest.mark.parametrize("tol,evaluations", [(1e-3, [59, 1048, 59, 59, 59]),
                                             (8.5e-4, [60, 1048, 60, 60, 59])])
def test_mixed_batch_equals_batches_of_one(monkeypatch, tol, evaluations):
    # one pair sees the two-well objective and one an increasing line; the others the real one
    walled, sloped = replace(CFG, cth=1.25), replace(CFG, cth=1.5)
    fakes = {walled.cth: two_wells, sloped.cth: lambda p: p}  # rows known by their cth

    def mixed_outages(sets, params):
        values = outages(sets, params)
        for i, cth in enumerate(field_rows(sets, "system.cth")):
            if cth in fakes:
                values[i] = fakes[cth](params[i])
        return values

    monkeypatch.setattr(opt, "outages", mixed_outages)
    pairs = [(CFG, TSR), (walled, TSR), (CFG, PSR), (replace(CFG, ps_watts=5.0), TSR),
             (sloped, PSR)]
    results = minimize_many(columns(pairs), tol)
    assert results == [minimize_many(columns([pair]), tol)[0] for pair in pairs]
    assert [r.non_unimodal for r in results] == [False, True, False, False, False]
    assert [r.evaluations for r in results] == evaluations
    assert results[1].arg_opt == pytest.approx(0.7, abs=2e-3)
    assert results[4].arg_opt < 0.02


def reference_minimum(f, tol):
    """The golden-section optimizer for one objective, one value at a time: the
    scan, the multi-minimum check, the dense fallback and one probe per step, with
    the lock-step optimizer's comparisons and bracket arithmetic; returns the
    fields of its OptResult."""
    grid, dense = np.linspace(0.02, 0.98, 49), np.arange(1, 1000) / 1000.0
    values = f(grid)
    inner = values[1:-1]
    multi = np.count_nonzero((inner < values[:-2] - opt._NOISE_FLOOR)
                             & (inner < values[2:] - opt._NOISE_FLOOR)) > 1
    i = int(np.argmin(values))
    best_arg, best_val = grid[i], values[i]
    if multi:
        dense_vals = f(dense)
        j = int(np.argmin(dense_vals))
        if dense_vals[j] < best_val:
            best_arg, best_val = dense[j], dense_vals[j]
        return best_arg, best_val, grid.size + dense.size, 1e-3, True

    def probe(p):
        return f(np.array([p]))[0]

    edges = [opt._PARAM_LO, *grid, opt._PARAM_HI]
    lo, hi = edges[i], edges[i + 2]
    c, d = hi - opt._INV_PHI * (hi - lo), lo + opt._INV_PHI * (hi - lo)
    fc, fd, evaluations = probe(c), probe(d), grid.size + 2
    while hi - lo > tol:
        if fc < fd:
            hi, d, fd = d, c, fc
            c = hi - opt._INV_PHI * (hi - lo)
            fc = probe(c)
        else:
            lo, c, fc = c, d, fd
            d = lo + opt._INV_PHI * (hi - lo)
            fd = probe(d)
        evaluations += 1
        arg, val = (c, fc) if fc < fd else (d, fd)
        if val < best_val:
            best_arg, best_val = arg, val
    return best_arg, best_val, evaluations, hi - lo, False


REFERENCE_OBJECTIVES = [
    lambda p: np.full(p.shape, 0.25),        # constant: fc == fd at every step
    lambda p: np.where(p < 0.3775, 0.9, 0.1),  # a step between the first two probes
    lambda p: (p - 0.4137) ** 2,             # minimum inside an interior grid cell
    lambda p: (p - 0.011) ** 2,              # ... in the first cell, (1e-4, 0.04)
    lambda p: (p - 0.9893) ** 2,             # ... in the last cell, (0.96, 1 - 1e-4)
    two_wells,                               # the dense fallback
    lambda p: p,                             # the line: minimum at the lower end
]


# 1e-12 takes 51 steps (an odd count); at 8.5e-4 an interior cell takes 9 steps and
# an edge cell 8, so pairs leave in mid-round; at 0.5 no step runs
@pytest.mark.parametrize("tol", [1e-12, 8.5e-4, 1e-3, 0.5])
def test_rounds_equal_one_probe_per_step(monkeypatch, tol):
    cfgs = [replace(CFG, cth=1.0 + k / 16) for k in range(len(REFERENCE_OBJECTIVES))]
    fakes = {c.cth: f for c, f in zip(cfgs, REFERENCE_OBJECTIVES)}  # rows known by their cth

    def fake_outages(sets, params):
        return np.array([fakes[cth](row) for cth, row in zip(field_rows(sets, "system.cth"), params)]
                        ).reshape(params.shape)

    monkeypatch.setattr(opt, "outages", fake_outages)
    results = minimize_many(columns([(c, TSR) for c in cfgs]), tol)
    for result, f in zip(results, REFERENCE_OBJECTIVES):
        arg, val, evaluations, bracket, flag = reference_minimum(f, tol)
        assert [float.hex(result.arg_opt), float.hex(result.value_opt),
                float.hex(result.bracket)] == [float.hex(float(x)) for x in (arg, val, bracket)]
        assert (result.evaluations, result.non_unimodal) == (evaluations, flag)


def test_stage_without_pairs_makes_no_call(monkeypatch):
    # fig5's optimizer: the scan, the first probes and four rounds of two steps, with
    # no dense call since no pair falls back; a lone optimization makes the same calls
    walled, widths = replace(CFG, cth=1.25), []

    def recorded(sets, params):
        widths.append(np.shape(params)[1])
        walls = sets and field_rows(sets, "system.cth")[0] == walled.cth
        return two_wells(params) if walls else outages(sets, params)

    monkeypatch.setattr(opt, "outages", recorded)
    minimize_many([c.columns() for c in fig5_curves()])
    assert widths == [49, 2, 3, 3, 3, 3]
    widths.clear()
    minimize_over_eh_param(CFG, TSR)
    assert widths == [49, 2, 3, 3, 3, 3]
    widths.clear()  # a batch whose every pair falls back makes no probe call
    assert minimize_over_eh_param(walled, TSR).non_unimodal
    assert widths == [49, 999]


def test_each_stage_passes_each_pair_once(monkeypatch):
    # a mixed TSR/PSR/FD batch with one two-well pair, so every stage runs
    walled = replace(CFG, cth=1.25)
    calls = []

    def recorded(sets, params):
        # a pair is known by its variant, source power and cth
        rows = [(s.variant, ps, cth) for s in sets for ps, cth in
                zip(field_rows([s], "system.ps_watts"), field_rows([s], "system.cth"))]
        calls.append((len(set(rows)), len(rows), np.shape(params)))
        values = outages(sets, params)
        for i, (_, _, cth) in enumerate(rows):
            if cth == walled.cth:
                values[i] = two_wells(params[i])
        return values

    monkeypatch.setattr(opt, "outages", recorded)
    pairs = [(CFG, TSR), (walled, PSR), (CFG, PSR), (replace(CFG, ps_watts=5.0), TSR),
             (CFG, Scenario("fd", "df", "tsr", tau=0.5)),
             (CFG, Scenario("fd", "af", "tsr", tau=0.5))]
    results = minimize_many(columns(pairs))
    assert [r.non_unimodal for r in results] == [False, True, False, False, False, False]
    for distinct, n, shape in calls:
        assert distinct == n and shape[0] == n and len(shape) == 2
    widths = [shape[1] for _, _, shape in calls]
    assert widths[:3] == [49, 999, 2] and set(widths[3:]) == {3}
    assert [n for _, n, _ in calls[:3]] == [6, 1, 5]


def test_empty_batch():
    assert minimize_many([]) == []


@pytest.mark.parametrize("where", [0, 1, 2])
def test_irr_anywhere_in_batch_is_rejected(where):
    pairs = [(CFG, TSR), (CFG, PSR)]
    pairs.insert(where, (CFG, Scenario("hd", "af", "irr")))
    with pytest.raises(ValueError):
        minimize_many(columns(pairs))
