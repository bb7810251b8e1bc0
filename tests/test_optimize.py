"""Harvesting-parameter optimization: brackets, orderings and fallbacks."""

from dataclasses import replace

import numpy as np
import pytest

import ehrelay.optimize as opt
from ehrelay.analytic import outage
from ehrelay.model import Scenario, SystemConfig
from ehrelay.optimize import minimize_over_eh_param

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

    def fake_outage(cfg, scenario, quad):
        p = scenario.tau
        return FakeEstimate(0.5 - 0.3 * np.exp(-((p - 0.2) ** 2) / 0.002)
                            - 0.4 * np.exp(-((p - 0.7) ** 2) / 0.002))

    monkeypatch.setattr(opt, "outage", fake_outage)
    monkeypatch.setattr(opt, "outages",
                        lambda pairs, quad: [fake_outage(c, s, quad).value for c, s in pairs])
    result = minimize_over_eh_param(CFG, TSR)
    assert result.non_unimodal
    assert result.arg_opt == pytest.approx(0.7, abs=2e-3)
    assert result.bracket == pytest.approx(1e-3)
