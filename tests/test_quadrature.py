"""Adaptive log-normal-weighted integration against a brute-force oracle."""

import math
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

from ehrelay.lognormal import XI, ChannelSpec, q_array, q_function
from ehrelay.quadrature import (
    DEFAULT_QUAD,
    QuadratureError,
    QuadSpec,
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
    got = integrate_lognormal_weighted(lambda z: 1.0, CH, lower=CH.median_sq_gain())
    assert got == pytest.approx(0.5, abs=1e-9)


def test_ccdf_shaped_integrand_against_trapezoid():
    other = ChannelSpec(1.0, 1.5)

    def f(z):
        return q_array((XI * np.log(z) - 2 * other.mu_db) / (2 * other.sigma_db))

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


def test_tail_truncation_insensitive():
    f = lambda z: z / (1.0 + z)
    base = integrate_lognormal_weighted(f, CH, spec=QuadSpec(tail_sigmas=10))
    wide = integrate_lognormal_weighted(f, CH, spec=QuadSpec(tail_sigmas=14))
    assert wide == pytest.approx(base, rel=DEFAULT_QUAD.rel_tol)


def test_subdivision_cap_insensitive():
    f = lambda z: np.exp(-z / 10.0)
    base = integrate_lognormal_weighted(f, CH, spec=QuadSpec(max_subdivisions=2000))
    more = integrate_lognormal_weighted(f, CH, spec=QuadSpec(max_subdivisions=4000))
    assert more == pytest.approx(base, rel=DEFAULT_QUAD.rel_tol)


def test_linearity():
    f = lambda z: 1.0 / (1.0 + z)
    g = lambda z: z / (25.0 + z)
    a, b = 3.0, -0.5
    combined = integrate_lognormal_weighted(lambda z: a * f(z) + b * g(z), CH)
    parts = a * integrate_lognormal_weighted(f, CH) + b * integrate_lognormal_weighted(g, CH)
    assert combined == pytest.approx(parts, rel=2 * DEFAULT_QUAD.rel_tol)


def test_empty_window_is_zero():
    # lower bound beyond the truncated tail support
    far = math.exp((2 * CH.mu_db + 11 * 2 * CH.sigma_db) / XI)
    assert integrate_lognormal_weighted(lambda z: 1.0, CH, lower=far) == 0.0


def test_nonconvergence_is_reported():
    wild = lambda z: np.sin(1e6 * np.log(z))
    with pytest.raises(QuadratureError):
        integrate_lognormal_weighted(
            wild, CH, spec=QuadSpec(rel_tol=1e-12, abs_tol=1e-14, max_subdivisions=8)
        )


def test_bound_validation():
    with pytest.raises(ValueError):
        integrate_lognormal_weighted(lambda z: 1.0, CH, lower=-1.0)
    with pytest.raises(ValueError):
        integrate_lognormal_weighted(lambda z: 1.0, CH, lower=5.0, upper=5.0)


@pytest.mark.parametrize(
    "kwargs",
    [
        {"rel_tol": 0.0},
        {"abs_tol": -1.0},
        {"max_subdivisions": 4},
        {"tail_sigmas": 5.0},
    ],
)
def test_quadspec_validation(kwargs):
    with pytest.raises(ValueError):
        QuadSpec(**kwargs)


def test_batch_matches_each_integral_alone():
    # mixed weights, windows and tolerances; the fourth window misses its
    # weight's truncated support
    far = math.exp((2 * CH.mu_db + 11 * 2 * CH.sigma_db) / XI)
    weights = [CH, ChannelSpec(1.0, 1.5), ChannelSpec(-2.0, 3.0), CH, ChannelSpec(0.0, 0.5)]
    lower = [0.0, 2.0, 0.0, far, 0.3]
    upper = [math.inf, 40.0, 5.0, math.inf, math.inf]
    specs = [DEFAULT_QUAD, QuadSpec(rel_tol=1e-11), DEFAULT_QUAD, DEFAULT_QUAD,
             QuadSpec(tail_sigmas=12)]
    shift = np.array([1.0, 2.0, 25.0, 1.0, 0.5])
    batch = integrate_lognormal_batch(lambda z, k: z / (shift[k] + z),
                                      weights, lower, upper, specs)
    for k in range(len(weights)):
        alone = integrate_lognormal_weighted(lambda z: z / (shift[k] + z),
                                             weights[k], lower[k], upper[k], specs[k])
        assert abs(batch[k] - alone) <= 1e-13
    assert batch[3] == 0.0


def test_one_nonconverging_integral_fails_the_batch():
    mixed = lambda z, k: np.where(k == 1, np.sin(1e6 * np.log(z)), 1.0 / (1.0 + z))
    with pytest.raises(QuadratureError):
        integrate_lognormal_batch(mixed, [CH] * 3, [0.0] * 3, [math.inf] * 3, [DEFAULT_QUAD] * 3)


def test_tails_match_scipy_quad_on_the_selftest_grid():
    # every integral the selftest grid needs (HD-DF, HD-AF and FD-AF tails),
    # each integrated alone by QUADPACK on the same t window
    integrate = pytest.importorskip("scipy.integrate")
    from ehrelay.analytic import _KINDS, _reduce, outages
    from ehrelay.cli import selftest_points
    from ehrelay.model import SystemConfig

    pairs = [(p.cfg, p.scenario) for p in selftest_points(SystemConfig())]
    got = outages(pairs)
    kinds = set()
    for (cfg, scenario), value in zip(pairs, got):
        reduced = _reduce(cfg, scenario)
        if not isinstance(reduced, tuple):
            continue
        kind, head, weight, lower, upper, (m, s, *coefs) = reduced
        threshold, sign = _KINDS[kind]
        kinds.add(kind)
        mean, std = 2 * weight.mu_db, 2 * weight.sigma_db
        t_lo = max(mean - 10 * std, XI * math.log(lower) if lower > 0 else -math.inf)
        t_hi = min(mean + 10 * std, XI * math.log(upper) if math.isfinite(upper) else math.inf)

        def integrand(t):
            with np.errstate(divide="ignore"):
                x = float(threshold(math.exp(t / XI), *coefs))
            u = (t - mean) / std
            return (q_function(-sign * (XI * math.log(x) - m) / s)
                    * math.exp(-0.5 * u * u) / (std * math.sqrt(2 * math.pi)))

        tail = integrate.quad(integrand, t_lo, t_hi, epsabs=1e-12, epsrel=1e-9, limit=2000)[0]
        assert abs(value - (head + sign * tail)) <= 1e-10, (scenario.label(), cfg.chg)
    assert kinds == set(_KINDS)


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
