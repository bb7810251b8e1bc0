"""Adaptive log-normal-weighted integration against a brute-force oracle."""

import ast
import math
import os
from pathlib import Path

import numpy as np
import pytest

import reference
from conftest import curve_rows, run_python
from ehrelay import quadrature
from ehrelay.analytic import outages
from ehrelay.grids import preset_fig6, preset_fig7, selftest_points
from ehrelay.lognormal import XI, ChannelSpec, _standardize, q_function
from ehrelay.model import SystemConfig
from ehrelay.quadrature import (
    REL_TOL,
    TAIL_SIGMAS,
    QuadratureError,
    integrate_lognormal_weighted,
    integrate_normal_batch,
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
    # a 0.05 dB wide peak: the 6 initial panels are about 13 dB wide, so only
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


def first_round_panels(windows):
    """The values of f = 1/(1 + e^s) against the standard normal density over
    each (lo, hi) window of one batch, and the panels each integral starts
    from: the panels (columns) of the first integrand call, counted per
    integral."""
    rows = []

    def f(s, k):
        rows.append(k.copy())
        return 1.0 / (1.0 + np.exp(s))

    values = integrate_normal_batch(f, *zip(*windows))
    return np.bincount(rows[0], minlength=len(windows)).tolist(), values


# shares r of the uncut +-TAIL_SIGMAS window that a window keeps: ceil(6r) is 1 to 6
CUT_SHARES = (0.05, 0.3, 0.45, 0.6, 0.75, 0.95)


def test_starting_panels_scale_with_the_window():
    # an uncut window starts from 6 panels, one cut to r of it (from below, from
    # above or from both sides) from ceil(6r); a batch gives each window's
    # integral alone bit for bit
    def at(share):  # the point at `share` of the uncut window
        return -TAIL_SIGMAS + share * 2 * TAIL_SIGMAS

    windows = [(-math.inf, math.inf)]
    for r in CUT_SHARES:
        windows += [(at(1 - r), math.inf), (-math.inf, at(r)), (at(0.02), at(0.02 + r))]
    panels, batch = first_round_panels(windows)
    assert panels == [6] + [math.ceil(6 * r) for r in CUT_SHARES for _ in range(3)]
    alone = [first_round_panels([window])[1][0] for window in windows]
    assert list(map(float.hex, batch)) == list(map(float.hex, alone))


def test_a_lone_panel_in_the_last_chunk_keeps_its_integral_alone():
    # 85 windows of 6 starting panels and one of 3 make _CHUNK + 1 panels, so the
    # first round's last chunk holds one panel: numpy would sum its lone column
    # pairwise, not in node order as in the 3-panel chunk of that integral alone
    windows = [(-TAIL_SIGMAS + 0.01 * i, math.inf) for i in range(85)] + [(-math.inf, -1.0)]
    alone = [first_round_panels([window]) for window in windows]
    assert [panels for (panels,), _ in alone] == [6] * 85 + [3]
    assert 6 * 85 + 3 == quadrature._CHUNK + 1
    batch = first_round_panels(windows)[1]
    assert list(map(float.hex, batch)) == [value.hex() for _, (value,) in alone]


def test_batch_matches_each_integral_alone():
    # mixed weights, windows and absolute tolerances; the fourth window misses
    # its weight's truncated support
    far = math.exp((2 * CH.mu_db + 11 * 2 * CH.sigma_db) / XI)
    weights = [CH, ChannelSpec(1.0, 1.5), ChannelSpec(-2.0, 3.0), CH, ChannelSpec(0.0, 0.5)]
    lower = [0.0, 2.0, 0.0, far, 0.3]
    upper = [math.inf, 40.0, 5.0, math.inf, math.inf]
    shift = np.array([1.0, 2.0, 25.0, 1.0, 0.5])
    atol = np.array([1e-12, 1e-20, 1e-6, 1e-12, 0.0])
    mean = np.array([2 * w.mu_db for w in weights])
    std = np.array([2 * w.sigma_db for w in weights])

    def f(s, k):
        z = np.exp((mean[k] + std[k] * s) / XI)
        return z / (shift[k] + z)

    lo = [_standardize(x, 2 * w.mu_db, 2 * w.sigma_db) for x, w in zip(lower, weights)]
    hi = [_standardize(x, 2 * w.mu_db, 2 * w.sigma_db) for x, w in zip(upper, weights)]
    batch = integrate_normal_batch(f, lo, hi, atol)
    for k in range(len(weights)):
        alone = integrate_normal_batch(lambda s, _: f(s, k), lo[k:k + 1], hi[k:k + 1], atol[k])
        assert batch[k].hex() == alone[0].hex()
        if atol[k] == quadrature.ABS_TOL:  # the scalar wrapper's tolerance
            wrapped = integrate_lognormal_weighted(lambda z: z / (shift[k] + z),
                                                   weights[k], lower[k], upper[k])
            assert abs(batch[k] - wrapped) <= 1e-13
    assert batch[3] == 0.0
    # an integral of 1.13e-6 with a kink: ABS_TOL = 1e-12 leaves it 4e-9 off
    # (relative), a tight tolerance meets REL_TOL
    c = 4.4
    want = math.exp(-c * c / 2) / math.sqrt(2 * math.pi) - c * q_function(c)
    kink = integrate_normal_batch(lambda s, k: np.maximum(s - c, 0.0), [-math.inf], [math.inf],
                                  [1e-20])
    assert kink[0] == pytest.approx(want, rel=REL_TOL, abs=0.0)


def test_one_nonconverging_integral_fails_the_batch():
    mixed = lambda s, k: np.where(k == 1, np.sin(1e6 * s), 1.0 / (1.0 + np.exp(s)))
    with pytest.raises(QuadratureError):
        integrate_normal_batch(mixed, [-math.inf] * 3, [math.inf] * 3)


@pytest.mark.parametrize("lo,hi", [(math.nan, 1.0), (-1.0, math.nan), (math.nan, math.nan)])
def test_nan_bound_is_reported_not_zero(lo, hi):
    # a window that a weight out of float range makes (inf - inf) is not empty
    with pytest.raises(QuadratureError, match=r"over s in \[.*nan"):
        integrate_normal_batch(lambda s, k: 1.0 / (1.0 + np.exp(s)), [0.0, lo], [1.0, hi])


# the variants whose outage has an integral tail: HD-DF and HD-AF share one integrand
TAILED_VARIANTS = {"hd-df", "hd-af", "fd-af"}


def check_tails(curves, rel=0.0):
    """Every integral that the rows of `curves` need, by reference.tail, added
    to its head term, equals the row's outage to max(1e-10, rel * integral);
    returns the duplex-relay prefixes of the variants whose tails it saw."""
    pairs = [(p.cfg, p.scenario) for p in curve_rows(curves)]
    variants = set()
    for (cfg, scenario), value in zip(pairs, outages([c.columns() for c in curves])):
        if (split := reference.tail(cfg, scenario)) is not None:
            head, tail = split
            variants.add(scenario.label()[:5])
            assert abs(value - (head + tail)) <= max(1e-10, rel * tail), (scenario.label(), cfg)
    return variants


def test_tails_match_mpmath_on_the_selftest_grid():
    # the HD-DF, HD-AF and FD-AF tails of the selftest grid
    assert check_tails(selftest_points(SystemConfig())) == TAILED_VARIANTS


def test_tails_match_mpmath_on_fig6_and_fig7():
    # pc_fraction > 0 (fig6), FD at ps = 10 W and the C_th sweep (fig7). Both
    # rules converge to REL_TOL of the integral, so they may differ by twice that.
    curves = preset_fig6(SystemConfig())[0] + preset_fig7(SystemConfig())[0]
    assert {c.scenario.pc_fraction for c in curves} == {0.0, 0.01, 0.02}
    assert check_tails(curves, 2 * REL_TOL) == TAILED_VARIANTS


def test_cli_import_leaves_scipy_unloaded():
    code = "import sys, ehrelay.cli; print([m for m in sys.modules if m.split('.')[0] == 'scipy'])"
    done = run_python(["-c", code])
    assert done.returncode == 0, done.stderr
    assert done.stdout.strip() == "[]"


def test_cli_import_leaves_json_and_the_thread_pool_unloaded():
    # JSON output imports json, and a run of plans of several blocks on more than one
    # thread concurrent.futures; a run on one thread, or of one-block plans, loads neither
    runs = [["selftest", "--trials", "10000", "--threads", "1"],
            ["point", "--trials", "20000", "--threads", "4"]]
    code = ("import contextlib, io, sys, ehrelay.cli\n"
            "def loaded():\n"
            "    print([m for m in sys.modules if m.split('.')[0] in ('json', 'concurrent')])\n"
            "loaded()\n"
            f"for args in {runs!r}:\n"
            "    with contextlib.redirect_stdout(io.StringIO()):\n"
            "        assert ehrelay.cli.main(args) == 0\n"
            "    loaded()\n")
    done = run_python(["-c", code])
    assert done.returncode == 0, done.stderr
    assert done.stdout.splitlines() == ["[]"] * (1 + len(runs))


@pytest.mark.skipif(not os.path.isdir("/proc/self/task") or (os.cpu_count() or 1) < 2,
                    reason="counts the threads in /proc/self/task of a multi-core machine")
@pytest.mark.parametrize("caller,threads", [(None, 1), ("2", 2)], ids=["unset", "caller-set"])
def test_cli_import_starts_no_blas_pool_unless_the_caller_asks(caller, threads):
    # numpy's bundled OpenBLAS starts one worker per extra core unless the
    # variable is set when numpy loads; ehrelay sets it for that load only
    env = {k: v for k, v in os.environ.items() if k != "OPENBLAS_NUM_THREADS"}
    if caller is not None:
        env["OPENBLAS_NUM_THREADS"] = caller
    code = ("import os, ehrelay.cli; "
            "print(len(os.listdir('/proc/self/task')), os.environ.get('OPENBLAS_NUM_THREADS'))")
    done = run_python(["-c", code], env=env)
    assert done.returncode == 0, done.stderr
    assert done.stdout.split() == [str(threads), str(caller)]


BLAS_NAMES = {"dot", "matmul", "einsum", "tensordot", "inner", "outer", "vdot", "linalg"}


def test_package_makes_no_blas_call():
    # an attribute such as np.dot, an imported name such as `from numpy import
    # dot`, or the @ operator; a local variable may still be called `inner`
    found = []
    for path in sorted(Path(quadrature.__file__).parent.glob("*.py")):
        for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
            if isinstance(node, ast.MatMult):
                found.append(f"{path.name}: the @ operator")
            elif isinstance(node, ast.Attribute) and node.attr in BLAS_NAMES:
                found.append(f"{path.name}:{node.lineno}: .{node.attr}")
            elif isinstance(node, (ast.alias, ast.ImportFrom)):
                dotted = node.name if isinstance(node, ast.alias) else node.module or ""
                if BLAS_NAMES & set(dotted.split(".")):
                    found.append(f"{path.name}:{node.lineno}: imports {dotted}")
    assert not found, (f"possible BLAS calls {found}: ehrelay/__init__.py loads numpy with "
                       "OPENBLAS_NUM_THREADS=1 because the package makes none; a BLAS call "
                       "must revisit that setting")


def test_nan_integrand_is_reported_not_converged():
    with pytest.raises(QuadratureError):
        integrate_lognormal_weighted(lambda z: np.where(z > 5.0, np.nan, 1.0), CH)
