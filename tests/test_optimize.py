"""Harvesting-parameter optimization: brackets, orderings and fallbacks."""

from dataclasses import replace

import numpy as np
import pytest

import ehrelay.optimize as opt
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
        minimize_many([(CFG, TSR)], tol)


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
    monkeypatch.setattr(opt, "outages", lambda pairs, params: np.array(
        [[fake_outage(c, s.with_eh_param(p)).value for p in row]
         for (c, s), row in zip(pairs, params)]).reshape(params.shape))
    result = minimize_over_eh_param(CFG, TSR)
    assert result.non_unimodal
    assert result.arg_opt == pytest.approx(0.7, abs=2e-3)
    assert result.bracket == pytest.approx(1e-3)


# fig5's 48 optimize points as (curve, sigma_db, arg_opt, value_opt, evaluations,
# bracket, non_unimodal), captured from the one-pair-at-a-time golden-section
# optimizer that preceded minimize_many. When the integrand's Q became numpy's
# q_vector, 11 value_opt moved by 1 or 2 ulp (every other field stayed) and
# were captured again
FIG5_OPTIMA = [
    ('hd-df-tsr ps=1', 0.5, 0.4283902697002776, 0.9999999990158784, 59, 0.0008514494500883596, False),
    ('hd-df-tsr ps=1', 1.0, 0.2602631123499285, 0.9999167897302945, 59, 0.0008514494500883596, False),
    ('hd-df-tsr ps=1', 1.5, 0.2561300899000925, 0.9940391092153327, 59, 0.0008514494500883596, False),
    ('hd-df-tsr ps=1', 2.0, 0.24865338205020607, 0.971128506483974, 59, 0.0008514494500882763, False),
    ('hd-df-tsr ps=1', 2.5, 0.24006211240030284, 0.9376426672769073, 59, 0.0008514494500883041, False),
    ('hd-df-tsr ps=1', 3.0, 0.23199706745025658, 0.903094602625264, 59, 0.0008514494500883041, False),
    ('hd-df-psr ps=1', 0.5, 0.8422912360003365, 0.9999563425434383, 59, 0.0008514494500884151, False),
    ('hd-df-psr ps=1', 1.0, 0.8175077640500379, 0.9796738495266877, 59, 0.0008514494500883041, False),
    ('hd-df-psr ps=1', 1.5, 0.7941019662496847, 0.9235045898266259, 59, 0.0008514494500884151, False),
    ('hd-df-psr ps=1', 2.0, 0.7727242920997393, 0.8696120398829907, 59, 0.0008514494500883041, False),
    ('hd-df-psr ps=1', 2.5, 0.7535757415498275, 0.8276370748260133, 59, 0.0008514494500884151, False),
    ('hd-df-psr ps=1', 3.0, 0.7366563145999496, 0.7959254843908767, 59, 0.0008514494500884151, False),
    ('hd-af-tsr ps=1', 0.5, 0.4283902697002776, 0.9999999990158784, 59, 0.0008514494500883596, False),
    ('hd-af-tsr ps=1', 1.0, 0.2383592135001262, 0.9999551229769159, 59, 0.0008514494500883041, False),
    ('hd-af-tsr ps=1', 1.5, 0.2366563145999495, 0.9957281339404607, 59, 0.0008514494500883041, False),
    ('hd-af-tsr ps=1', 2.0, 0.23410196624968455, 0.9768066108634893, 59, 0.0008514494500883318, False),
    ('hd-af-tsr ps=1', 2.5, 0.23134661794979391, 0.9466711158733923, 59, 0.0008514494500883318, False),
    ('hd-af-tsr ps=1', 3.0, 0.22832815729997474, 0.9137943285026984, 59, 0.0008514494500883041, False),
    ('hd-af-psr ps=1', 0.5, 0.7100310562001515, 0.9999999968445563, 59, 0.0008514494500884151, False),
    ('hd-af-psr ps=1', 1.0, 0.7072757079002608, 0.9982778067076249, 59, 0.0008514494500883041, False),
    ('hd-af-psr ps=1', 1.5, 0.7033436854000505, 0.9757491583043096, 59, 0.0008514494500883041, False),
    ('hd-af-psr ps=1', 2.0, 0.6980339887498949, 0.9336276549013376, 59, 0.0008514494500883041, False),
    ('hd-af-psr ps=1', 2.5, 0.6919970674502567, 0.8899793720510962, 59, 0.0008514494500883041, False),
    ('hd-af-psr ps=1', 3.0, 0.6857738089497099, 0.8520862395855726, 59, 0.0008514494500884151, False),
    ('hd-df-tsr ps=5', 0.5, 0.26058833710015983, 0.9951661341741075, 59, 0.0008514494500883041, False),
    ('hd-df-tsr ps=5', 1.0, 0.26058833710015983, 0.9021234536091303, 59, 0.0008514494500883041, False),
    ('hd-df-tsr ps=5', 1.5, 0.2602631123499285, 0.8058011717374178, 59, 0.0008514494500883596, False),
    ('hd-df-tsr ps=5', 2.0, 0.25941166289984013, 0.7414034254334054, 59, 0.0008514494500883596, False),
    ('hd-df-tsr ps=5', 2.5, 0.2561300899000925, 0.6990243749649057, 59, 0.0008514494500883596, False),
    ('hd-df-tsr ps=5', 3.0, 0.2508203932499369, 0.670658036792733, 59, 0.0008514494500883596, False),
    ('hd-df-psr ps=5', 0.5, 0.9141019662496846, 0.09372522579535733, 59, 0.0008514494500884151, False),
    ('hd-df-psr ps=5', 1.0, 0.8925232921501136, 0.2725473984267646, 59, 0.0008514494500883041, False),
    ('hd-df-psr ps=5', 1.5, 0.8705572809000084, 0.3592854598455074, 59, 0.0008514494500884151, False),
    ('hd-df-psr ps=5', 2.0, 0.8486533820502061, 0.4079071960345835, 59, 0.0008514494500883041, False),
    ('hd-df-psr ps=5', 2.5, 0.8278019326001178, 0.4393110005018266, 59, 0.0008514494500883041, False),
    ('hd-df-psr ps=5', 3.0, 0.8081271573503491, 0.46159692053655854, 59, 0.0008514494500884151, False),
    ('hd-af-tsr ps=5', 0.5, 0.2674767078498865, 0.9882387720516509, 59, 0.0008514494500883596, False),
    ('hd-af-tsr ps=5', 1.0, 0.26609903369994115, 0.87374362070691, 59, 0.0008514494500883596, False),
    ('hd-af-tsr ps=5', 1.5, 0.2641951348501388, 0.7812160602136486, 59, 0.0008514494500883596, False),
    ('hd-af-tsr ps=5', 2.0, 0.2613155617496425, 0.7246633104800682, 59, 0.0008514494500883596, False),
    ('hd-af-tsr ps=5', 2.5, 0.25783298880026917, 0.6888938568104737, 59, 0.0008514494500883596, False),
    ('hd-af-tsr ps=5', 3.0, 0.2539009663000589, 0.665123055712011, 59, 0.0008514494500883596, False),
    ('hd-af-psr ps=5', 0.5, 0.7780339887498948, 0.5314163534051312, 59, 0.0008514494500883041, False),
    ('hd-af-psr ps=5', 1.0, 0.7747524157501473, 0.522547667953868, 59, 0.0008514494500884151, False),
    ('hd-af-psr ps=5', 1.5, 0.7695048315002944, 0.5226565905990335, 59, 0.0008514494500884151, False),
    ('hd-af-psr ps=5', 2.0, 0.7628174607001935, 0.5250003346400209, 59, 0.0008514494500883041, False),
    ('hd-af-psr ps=5', 2.5, 0.7549534156997728, 0.5281782669733933, 59, 0.0008514494500884151, False),
    ('hd-af-psr ps=5', 3.0, 0.7466252583997981, 0.5316827457714441, 59, 0.0008514494500883041, False),
]


def fig5_pairs():
    points, _ = preset_fig5(CFG)
    return [p for p in points if p.optimize]


def test_minimize_many_reproduces_fig5_optima_bit_for_bit():
    points = fig5_pairs()
    results = minimize_many([(p.cfg, p.scenario) for p in points])
    assert len(results) == len(points) == len(FIG5_OPTIMA)
    for p, result, expected in zip(points, results, FIG5_OPTIMA):
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
    fakes = {id(walled): two_wells, id(sloped): lambda p: p}

    def mixed_outages(pairs, params):
        kept = [i for i, (c, _) in enumerate(pairs) if id(c) not in fakes]
        values = np.empty(params.shape)
        values[kept] = outages([pairs[i] for i in kept], params[kept])
        for i, (c, _) in enumerate(pairs):
            if id(c) in fakes:
                values[i] = fakes[id(c)](params[i])
        return values

    monkeypatch.setattr(opt, "outages", mixed_outages)
    pairs = [(CFG, TSR), (walled, TSR), (CFG, PSR), (replace(CFG, ps_watts=5.0), TSR),
             (sloped, PSR)]
    results = minimize_many(pairs, tol)
    assert results == [minimize_many([pair], tol)[0] for pair in pairs]
    assert [r.non_unimodal for r in results] == [False, True, False, False, False]
    assert [r.evaluations for r in results] == evaluations
    assert results[1].arg_opt == pytest.approx(0.7, abs=2e-3)
    assert results[4].arg_opt < 0.02


def test_each_stage_passes_each_pair_once(monkeypatch):
    # a mixed TSR/PSR/FD batch with one two-well pair, so every stage runs
    walled = replace(CFG, cth=1.25)
    calls = []

    def recorded(pairs, params):
        calls.append((len({id(pair) for pair in pairs}), len(pairs), np.shape(params)))
        values = outages(pairs, params)
        for i, (c, _) in enumerate(pairs):
            if c is walled:
                values[i] = two_wells(params[i])
        return values

    monkeypatch.setattr(opt, "outages", recorded)
    pairs = [(CFG, TSR), (walled, PSR), (CFG, PSR), (replace(CFG, ps_watts=5.0), TSR),
             (CFG, Scenario("fd", "df", "tsr", tau=0.5)),
             (CFG, Scenario("fd", "af", "tsr", tau=0.5))]
    results = minimize_many(pairs)
    assert [r.non_unimodal for r in results] == [False, True, False, False, False, False]
    for distinct, n, shape in calls:
        assert distinct == n and shape[0] == n and len(shape) == 2
    widths = [shape[1] for _, _, shape in calls]
    assert widths[:3] == [49, 999, 2] and set(widths[3:]) == {1}
    assert [n for _, n, _ in calls[:3]] == [6, 1, 5]


def test_empty_batch():
    assert minimize_many([]) == []


@pytest.mark.parametrize("where", [0, 1, 2])
def test_irr_anywhere_in_batch_is_rejected(where):
    pairs = [(CFG, TSR), (CFG, PSR)]
    pairs.insert(where, (CFG, Scenario("hd", "af", "irr")))
    with pytest.raises(ValueError):
        minimize_many(pairs)
