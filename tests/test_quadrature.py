"""Adaptive log-normal-weighted integration against a brute-force oracle."""

import math
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

from ehrelay import quadrature
from ehrelay.lognormal import XI, ChannelSpec, q_function
from ehrelay.model import SystemConfig
from ehrelay.quadrature import (
    REL_TOL,
    QuadratureError,
    integrate_lognormal_batch,
    integrate_lognormal_weighted,
)

CH = ChannelSpec(mu_db=3.0, sigma_db=2.0)


def trapezoid_oracle(f, weight, lower, upper, n=10**6, pad=14.0):
    """Dense trapezoid rule on the dB coordinate; independent of the
    adaptive path it cross-checks."""
    mean, std = 2 * weight.mu_db, 2 * weight.sigma_db
    t_lo = mean - pad * std
    t_hi = mean + pad * std
    if lower > 0:
        t_lo = max(t_lo, XI * math.log(lower))
    if math.isfinite(upper):
        t_hi = min(t_hi, XI * math.log(upper))
    ts = np.linspace(t_lo, t_hi, n + 1)
    gauss = np.exp(-0.5 * ((ts - mean) / std) ** 2) / (std * math.sqrt(2 * math.pi))
    vals = f(np.exp(ts / XI)) * gauss
    return float(np.trapezoid(vals, ts))


def test_weight_normalization():
    assert integrate_lognormal_weighted(lambda z: 1.0, CH) == pytest.approx(1.0, abs=1e-9)


def test_half_mass_above_median():
    got = integrate_lognormal_weighted(lambda z: 1.0, CH, lower=10 ** (2 * CH.mu_db / 10))
    assert got == pytest.approx(0.5, abs=1e-9)


def test_ccdf_shaped_integrand_against_trapezoid():
    other = ChannelSpec(1.0, 1.5)

    def f(z):
        return q_function((XI * np.log(z) - 2 * other.mu_db) / (2 * other.sigma_db))

    got = integrate_lognormal_weighted(f, CH)
    ref = trapezoid_oracle(f, CH, 0.0, math.inf)
    assert got == pytest.approx(ref, rel=1e-6)


def test_finite_window_against_trapezoid():
    f = lambda z: 1.0 / (1.0 + z)
    got = integrate_lognormal_weighted(f, CH, lower=2.0, upper=40.0)
    ref = trapezoid_oracle(f, CH, 2.0, 40.0)
    assert got == pytest.approx(ref, rel=1e-6)


def test_narrow_peak_needs_bisection():
    # a 0.05 dB wide peak: the 8 initial panels are 10 dB wide, so only
    # bisection driven by the error estimate resolves it
    f = lambda z: 1.0 / (1.0 + ((XI * np.log(z) - 7.0) / 0.05) ** 2)
    got = integrate_lognormal_weighted(f, CH)
    ref = trapezoid_oracle(f, CH, 0.0, math.inf)
    assert got == pytest.approx(ref, rel=1e-6)


def test_tail_truncation_insensitive(monkeypatch):
    f = lambda z: z / (1.0 + z)
    base = integrate_lognormal_weighted(f, CH)
    monkeypatch.setattr(quadrature, "TAIL_SIGMAS", 14.0)
    wide = integrate_lognormal_weighted(f, CH)
    assert wide == pytest.approx(base, rel=REL_TOL)


def test_subdivision_cap_insensitive(monkeypatch):
    f = lambda z: np.exp(-z / 10.0)
    base = integrate_lognormal_weighted(f, CH)
    monkeypatch.setattr(quadrature, "MAX_SUBDIVISIONS", 4000)
    more = integrate_lognormal_weighted(f, CH)
    assert more == pytest.approx(base, rel=REL_TOL)


def test_linearity():
    f = lambda z: 1.0 / (1.0 + z)
    g = lambda z: z / (25.0 + z)
    a, b = 3.0, -0.5
    combined = integrate_lognormal_weighted(lambda z: a * f(z) + b * g(z), CH)
    parts = a * integrate_lognormal_weighted(f, CH) + b * integrate_lognormal_weighted(g, CH)
    assert combined == pytest.approx(parts, rel=2 * REL_TOL)


def test_empty_window_is_zero():
    # lower bound beyond the truncated tail support
    far = math.exp((2 * CH.mu_db + 11 * 2 * CH.sigma_db) / XI)
    assert integrate_lognormal_weighted(lambda z: 1.0, CH, lower=far) == 0.0


def test_nonconvergence_is_reported(monkeypatch):
    wild = lambda z: np.sin(1e6 * np.log(z))
    monkeypatch.setattr(quadrature, "MAX_SUBDIVISIONS", 8)
    with pytest.raises(QuadratureError):
        integrate_lognormal_weighted(wild, CH)


def test_bound_validation():
    with pytest.raises(ValueError):
        integrate_lognormal_weighted(lambda z: 1.0, CH, lower=-1.0)
    with pytest.raises(ValueError):
        integrate_lognormal_weighted(lambda z: 1.0, CH, lower=5.0, upper=5.0)


def test_batch_matches_each_integral_alone():
    # mixed weights and windows; the fourth window misses its weight's
    # truncated support
    far = math.exp((2 * CH.mu_db + 11 * 2 * CH.sigma_db) / XI)
    weights = [CH, ChannelSpec(1.0, 1.5), ChannelSpec(-2.0, 3.0), CH, ChannelSpec(0.0, 0.5)]
    lower = [0.0, 2.0, 0.0, far, 0.3]
    upper = [math.inf, 40.0, 5.0, math.inf, math.inf]
    shift = np.array([1.0, 2.0, 25.0, 1.0, 0.5])
    batch = integrate_lognormal_batch(lambda z, k: z / (shift[k] + z),
                                      [w.mu_db for w in weights],
                                      [w.sigma_db for w in weights], lower, upper)
    for k in range(len(weights)):
        alone = integrate_lognormal_weighted(lambda z: z / (shift[k] + z),
                                             weights[k], lower[k], upper[k])
        assert abs(batch[k] - alone) <= 1e-13
    assert batch[3] == 0.0


def test_one_nonconverging_integral_fails_the_batch():
    mixed = lambda z, k: np.where(k == 1, np.sin(1e6 * np.log(z)), 1.0 / (1.0 + z))
    with pytest.raises(QuadratureError):
        integrate_lognormal_batch(mixed, [CH.mu_db] * 3, [CH.sigma_db] * 3, [0.0] * 3,
                                  [math.inf] * 3)


def assert_tails_match_scipy_quad(points, rel=0.0):
    """Every integral that the pairs of `points` need, each integrated alone
    by QUADPACK on the same t window, added to its head term, equals the
    pair's outage to max(1e-10, rel * integral); returns the integrand kinds
    seen."""
    integrate = pytest.importorskip("scipy.integrate")
    from ehrelay.analytic import _KINDS, _Columns, _reduce, outages

    pairs = [(p.cfg, p.scenario) for p in points]
    got = outages(pairs)
    kinds = set()
    for (cfg, scenario), value in zip(pairs, got):
        head, kind, pending, tail = _reduce(_Columns([cfg]), _Columns([scenario]))
        if kind is None or not pending[0]:
            continue
        mu_db, sigma_db, lower, upper, m, s, _, *coefs = (float(np.broadcast_to(c, 1)[0])
                                                          for c in tail)
        threshold = _KINDS[kind]
        kinds.add(kind)
        mean, std = 2 * mu_db, 2 * sigma_db
        t_lo = max(mean - 10 * std, XI * math.log(lower) if lower > 0 else -math.inf)
        t_hi = min(mean + 10 * std, XI * math.log(upper) if math.isfinite(upper) else math.inf)

        def integrand(t):
            with np.errstate(divide="ignore"):
                x = float(threshold(math.exp(t / XI), *coefs))
            u = (t - mean) / std
            return (q_function(-(XI * math.log(x) - m) / s)
                    * math.exp(-0.5 * u * u) / (std * math.sqrt(2 * math.pi)))

        tail = integrate.quad(integrand, t_lo, t_hi, epsabs=1e-12, epsrel=1e-9, limit=2000)[0]
        assert abs(value - (head[0] + tail)) <= max(1e-10, rel * tail), (scenario.label(), cfg)
    return kinds


def test_tails_match_scipy_quad_on_the_selftest_grid():
    # the HD-DF, HD-AF and FD-AF tails of the selftest grid
    from ehrelay.analytic import _KINDS
    from ehrelay.grids import selftest_points

    assert assert_tails_match_scipy_quad(selftest_points(SystemConfig())) == set(_KINDS)


def test_tails_match_scipy_quad_on_fig6_and_fig7():
    # pc_fraction > 0 (fig6), FD at ps = 10 W and the C_th sweep (fig7). Both
    # rules converge to REL_TOL of the integral, so they may differ by twice that:
    # FD-AF at ps = 10 W, sg2 = 5, cth = 2 integrates to 0.92 and differs by 4.2e-10.
    from ehrelay.analytic import _KINDS
    from ehrelay.grids import preset_fig6, preset_fig7

    points = preset_fig6(SystemConfig())[0] + preset_fig7(SystemConfig())[0]
    assert {p.scenario.pc_fraction for p in points} == {0.0, 0.01, 0.02}
    assert assert_tails_match_scipy_quad(points, 2 * REL_TOL) == set(_KINDS)


def test_cli_import_leaves_scipy_unloaded():
    import ehrelay

    src = str(Path(ehrelay.__file__).resolve().parents[1])
    env = {**os.environ, "PYTHONPATH": os.pathsep.join([src, os.environ.get("PYTHONPATH", "")])}
    code = "import sys, ehrelay.cli; print([m for m in sys.modules if m.split('.')[0] == 'scipy'])"
    out = subprocess.run([sys.executable, "-c", code], env=env, capture_output=True,
                         text=True, check=True).stdout
    assert out.strip() == "[]"


def test_nan_integrand_is_reported_not_converged():
    with pytest.raises(QuadratureError):
        integrate_lognormal_weighted(lambda z: np.where(z > 5.0, np.nan, 1.0), CH)
