"""Acceptance suite: one test per shipped claim, one PASS/FAIL line each.

Run `pytest tests/test_acceptance.py -v -s` to see the per-criterion lines
as they complete. The Monte Carlo budgets keep the whole module at desk
scale (around a minute).
"""

import math
from dataclasses import replace

import mpmath
import pytest

from conftest import columns, curve_rows
from ehrelay.analytic import outage, outages
from ehrelay.cli import boundary_points, run_points, selftest_points
from ehrelay.cli import main as cli_main
from ehrelay.grids import FIGURE_PRESETS, fmt_value
from ehrelay.lognormal import ChannelSpec
from ehrelay.model import Scenario, SystemConfig
from ehrelay.montecarlo import McPlan, estimate_outage
from ehrelay.optimize import minimize_many, minimize_over_eh_param
from reference import binomial_tail

CFG = SystemConfig()
GRID = [round(0.1 * i, 1) for i in range(1, 10)]
TRIALS = 10**6
SEED = 20260809


def report(criterion: str, ok: bool, detail: str) -> bool:
    print(f"{'PASS' if ok else 'FAIL'} {criterion}: {detail}")
    return ok


def tsr(duplex, relay, tau, pc=0.0):
    return Scenario(duplex, relay, "tsr", tau=tau, pc_fraction=pc)


def psr(relay, rho):
    return Scenario("hd", relay, "psr", rho=rho)


def test_criterion_1_analytic_matches_monte_carlo():
    worst = 0.0
    failures = []
    # the selftest's eight-scenario grid: every parameterized point to cross-check
    for i, point in enumerate(curve_rows(selftest_points(CFG))):
        analytic = outage(point.cfg, point.scenario).value
        mc = estimate_outage(point.cfg, point.scenario, McPlan(trials=TRIALS, seed=SEED + i))
        diff = abs(analytic - mc.value)
        tol = max(3 * mc.stderr, 1e-3)
        worst = max(worst, diff / tol)
        if diff > tol:
            failures.append(f"{point.curve} {point.axis_value}: "
                            f"|{analytic:.5f}-{mc.value:.5f}|>{tol:.1e}")
    ok = report(
        "criterion 1 (analytic = Monte Carlo on the 8-scenario grid)",
        not failures,
        f"74 points, worst |diff|/tol = {worst:.3f}" + ("; " + "; ".join(failures) if failures else ""),
    )
    assert ok


def test_criterion_2_boundary_limits():
    bad = []
    # the selftest's probes: saturation at extreme tau/rho, zero outage at cth=0
    for point in curve_rows(boundary_points(CFG)):
        v = outage(point.cfg, point.scenario).value
        ok = v <= 1e-12 if point.axis == "cth" else v >= 0.999
        if not ok:
            bad.append(f"{point.curve} {point.axis}={point.axis_value:g} -> {v:.6g}")
    ok = report(
        "criterion 2 (saturation at extreme tau/rho; zero outage at cth=0)",
        not bad,
        "all 20 boundary probes in bounds" if not bad else "; ".join(bad),
    )
    assert ok


def test_criterion_3_df_at_most_af():
    worst = -math.inf
    for relay_pair in (("tsr", GRID), ("psr", GRID)):
        eh, grid = relay_pair
        for p in grid:
            kw = {"tau": p} if eh == "tsr" else {"rho": p}
            df = outage(CFG, Scenario("hd", "df", eh, **kw)).value
            af = outage(CFG, Scenario("hd", "af", eh, **kw)).value
            worst = max(worst, df - af)
    ok = report(
        "criterion 3 (DF no worse than AF pointwise at zero processing cost)",
        worst <= 3e-3,
        f"max(DF - AF) = {worst:.2e} <= 3e-3",
    )
    assert ok


def test_criterion_4_optimization_orderings():
    bad = []
    for ps in (1.0, 5.0):
        cfg = replace(CFG, ps_watts=ps)
        for relay in ("df", "af"):
            irr = outage(cfg, Scenario("hd", relay, "irr")).value
            best_psr = minimize_over_eh_param(cfg, psr(relay, 0.5)).value_opt
            best_tsr = minimize_over_eh_param(cfg, tsr("hd", relay, 0.5)).value_opt
            if irr > best_psr + 1e-3:
                bad.append(f"{relay} Ps={ps}: irr {irr:.5f} > psr* {best_psr:.5f}")
            if best_psr > best_tsr + 1e-3:
                bad.append(f"{relay} Ps={ps}: psr* {best_psr:.5f} > tsr* {best_tsr:.5f}")
    ok = report(
        "criterion 4 (IRR <= optimized PSR <= optimized TSR)",
        not bad,
        "holds for df/af at Ps in {1, 5} W" if not bad else "; ".join(bad),
    )
    assert ok


def test_criterion_5_variance_degradation():
    """Minimum achievable outage must be non-decreasing in the channel
    spread for every HD configuration at Ps in {1, 5} W.

    Implemented exactly as stated. Note: wherever the tuned outage exceeds
    one half, widening the fading spread moves tail mass across the
    threshold and provably lowers the outage, so a monotone-non-decreasing
    curve is not attainable there; the Monte Carlo oracle confirms the
    decreasing analytic values. The check is kept faithful rather than
    weakened, and the full table is printed for inspection.
    """
    sigmas = (0.5, 1.0, 1.5, 2.0, 2.5, 3.0)
    violations = []
    for ps in (1.0, 5.0):
        for relay in ("df", "af"):
            for eh in ("tsr", "psr", "irr"):
                curve = []
                for sigma in sigmas:
                    cfg = replace(
                        CFG, ps_watts=ps,
                        ch1=ChannelSpec(3.0, sigma), ch2=ChannelSpec(3.0, sigma),
                    )
                    if eh == "irr":
                        val = outage(cfg, Scenario("hd", relay, "irr")).value
                    elif eh == "tsr":
                        val = minimize_over_eh_param(cfg, tsr("hd", relay, 0.5)).value_opt
                    else:
                        val = minimize_over_eh_param(cfg, psr(relay, 0.5)).value_opt
                    curve.append(val)
                name = f"hd-{relay}-{eh} Ps={ps:g}"
                print(f"  {name}: " + " ".join(f"{v:.5f}" for v in curve))
                drops = [
                    f"sigma {sigmas[i]}->{sigmas[i + 1]}: {curve[i]:.5f}->{curve[i + 1]:.5f}"
                    for i in range(len(curve) - 1)
                    if curve[i + 1] < curve[i] - 1e-9
                ]
                if drops:
                    violations.append(f"{name} ({'; '.join(drops)})")
    ok = report(
        "criterion 5 (minimum outage non-decreasing in channel spread)",
        not violations,
        "monotone for all 12 curves" if not violations
        else f"{len(violations)} of 12 curves decrease with spread: "
             + " | ".join(violations),
    )
    assert ok


@pytest.fixture(scope="module")
def relay_position_study():
    """Monte Carlo d1 sweep with d1 + d2 = 30 m for the IRR systems."""
    d1_values = [float(d) for d in range(3, 28, 2)]
    rows = {}
    idx = 0
    for pc in (0.0, 0.01, 0.02):
        for d1 in d1_values:
            cfg = replace(CFG, d1_m=d1, d2_m=30.0 - d1)
            plan = McPlan(trials=TRIALS, seed=SEED + 1000 + idx)
            idx += 1
            rows[("df", pc, d1)] = estimate_outage(
                cfg, Scenario("hd", "df", "irr", pc_fraction=pc), plan
            )
    for d1 in d1_values:
        cfg = replace(CFG, d1_m=d1, d2_m=30.0 - d1)
        plan = McPlan(trials=TRIALS, seed=SEED + 2000 + int(d1))
        rows[("af", 0.0, d1)] = estimate_outage(cfg, Scenario("hd", "af", "irr"), plan)
    return d1_values, rows


def test_criterion_6_midpoint_is_worst_placement(relay_position_study):
    d1_values, rows = relay_position_study
    bad = []
    for relay, pcs in (("df", (0.0, 0.01, 0.02)), ("af", (0.0,))):
        for pc in pcs:
            mid = rows[(relay, pc, 15.0)]
            for edge in (5.0, 25.0):
                other = rows[(relay, pc, edge)]
                margin = mid.value - other.value
                allowed = -3.0 * math.hypot(mid.stderr, other.stderr)
                if margin < allowed:
                    bad.append(
                        f"hd-{relay}-irr pc={pc}: outage(15m)={mid.value:.5f} "
                        f"< outage({edge:g}m)={other.value:.5f} beyond {allowed:.1e}"
                    )
    ok = report(
        "criterion 6 (midpoint placement is worst for both relays, all Pc)",
        not bad,
        "outage(d1=15) >= outage(d1=5, 25) within MC margin" if not bad else "; ".join(bad),
    )
    assert ok


def test_criterion_7_processing_cost_crossover(relay_position_study):
    d1_values, rows = relay_position_study
    # hard half: with no processing cost DF is never worse than AF anywhere
    bad = []
    for d1 in d1_values:
        df = rows[("df", 0.0, d1)]
        af = rows[("af", 0.0, d1)]
        allowed = 3.0 * math.hypot(df.stderr, af.stderr)
        if df.value > af.value + allowed:
            bad.append(f"d1={d1:g}: df {df.value:.5f} > af {af.value:.5f} + {allowed:.1e}")
    # reported half: where does costed DF fall behind AF?
    crossover = [
        d1 for d1 in d1_values
        if rows[("df", 0.02, d1)].value
        > rows[("af", 0.0, d1)].value
        + 3.0 * math.hypot(rows[("df", 0.02, d1)].stderr, rows[("af", 0.0, d1)].stderr)
    ]
    if crossover:
        print(f"  recorded: AF beats DF at Pc=0.02 for d1 in {crossover}")
    else:
        print("  recorded: no significant AF-over-DF crossover at Pc=0.02 "
              "(saturated outage at 30 m masks the 2% power loss)")
    ok = report(
        "criterion 7 (cost-free DF dominates AF on the distance sweep; "
        "crossover at Pc=0.02 recorded)",
        not bad,
        "DF <= AF at Pc=0 everywhere" if not bad else "; ".join(bad),
    )
    assert ok


def test_criterion_8_full_duplex_rate_sweep():
    cth_grid = [0.5 + 0.5 * i for i in range(8)]
    tau = 0.01
    failures = []
    orderings = {}
    idx = 0
    for ps in (1.0, 10.0):
        for sg2 in (2.0, 5.0):
            for relay in ("df", "af"):
                fd_wins = hd_wins = 0
                for cth in cth_grid:
                    cfg = replace(
                        CFG, ps_watts=ps, cth=cth,
                        chg=ChannelSpec(3.0, math.sqrt(sg2)),
                    )
                    fd = Scenario("fd", relay, "tsr", tau=tau)
                    analytic = outage(cfg, fd).value
                    mc = estimate_outage(cfg, fd, McPlan(trials=TRIALS, seed=SEED + 3000 + idx))
                    idx += 1
                    diff = abs(analytic - mc.value)
                    tol = max(3 * mc.stderr, 1e-3)
                    if diff > tol:
                        failures.append(
                            f"fd-{relay} ps={ps:g} sg2={sg2:g} cth={cth:g}: |diff|={diff:.1e}>{tol:.1e}"
                        )
                    hd_val = outage(cfg, Scenario("hd", relay, "tsr", tau=tau)).value
                    if analytic < hd_val - 1e-9:
                        fd_wins += 1
                    elif hd_val < analytic - 1e-9:
                        hd_wins += 1
                orderings[(relay, sg2, ps)] = (fd_wins, hd_wins)
    # expected directions: full duplex ahead at the wider loop-back spread,
    # half duplex ahead at the narrower one
    for (relay, sg2, ps), (fd_wins, hd_wins) in sorted(orderings.items()):
        direction = "fd" if fd_wins and not hd_wins else "hd" if hd_wins and not fd_wins else "mixed"
        expected = "fd" if sg2 == 5.0 else "hd"
        flag = "" if direction == expected else "  DISCREPANCY vs expected direction"
        print(f"  recorded: {relay} sg2={sg2:g} ps={ps:g}: fd_wins={fd_wins} "
              f"hd_wins={hd_wins} -> {direction}{flag}")
    ok = report(
        "criterion 8 (FD analytic = MC on the rate sweep; FD/HD ordering recorded)",
        not failures,
        "all 64 FD points within tolerance" if not failures else "; ".join(failures),
    )
    assert ok


def test_criterion_9_dataset_determinism(tmp_path):
    paths = [tmp_path / name for name in ("a.csv", "b.csv", "c.csv")]
    base = ["figure", "fig4", "--trials", "10000", "--seed", "31415"]
    assert cli_main(base + ["--out", str(paths[0])]) == 0
    assert cli_main(base + ["--out", str(paths[1])]) == 0
    assert cli_main(base + ["--threads", "8", "--out", str(paths[2])]) == 0
    blobs = [p.read_bytes() for p in paths]
    ok = report(
        "criterion 9 (figure dataset byte-identical across runs and thread counts)",
        blobs[0] == blobs[1] == blobs[2],
        f"{len(blobs[0])} bytes, repeat run and 8-thread run identical",
    )
    assert ok


def test_criterion_10_variance_degradation_at_low_outage():
    """Criterion 5's claim where it holds: at Ps in {20, 50} W every tuned
    HD outage is below one half, and each of the 12 curves strictly rises
    with the spread of both hops."""
    sigmas = (0.5, 1.0, 1.5, 2.0, 2.5, 3.0)
    bad = []
    for ps in (20.0, 50.0):
        cfgs = [replace(CFG, ps_watts=ps, ch1=ChannelSpec(3.0, s), ch2=ChannelSpec(3.0, s))
                for s in sigmas]
        for relay in ("df", "af"):
            tuned = minimize_many(columns([(cfg, tsr("hd", relay, 0.5)) for cfg in cfgs]
                                          + [(cfg, psr(relay, 0.5)) for cfg in cfgs]))
            irr = outages(columns([(cfg, Scenario("hd", relay, "irr")) for cfg in cfgs])).tolist()
            for eh, curve in (("tsr", [r.value_opt for r in tuned[:len(sigmas)]]),
                              ("psr", [r.value_opt for r in tuned[len(sigmas):]]),
                              ("irr", irr)):
                name = f"hd-{relay}-{eh} Ps={ps:g}"
                print(f"  {name}: " + " ".join(f"{v:.3e}" for v in curve))
                if not all(a < b for a, b in zip(curve, curve[1:])):
                    bad.append(name)
    ok = report(
        "criterion 10 (minimum outage increasing in channel spread at Ps in {20, 50} W)",
        not bad,
        "all 12 curves strictly increase" if not bad else "not increasing: " + ", ".join(bad),
    )
    assert ok


def test_criterion_11_processing_cost_crossover_at_midpoint():
    """With the relay midway (d1 = d2 = 15 m), cost-free HD-IRR DF beats AF,
    and DF falls behind AF once its processing cost passes a point that
    shrinks as Ps grows: between the two pc values given per power."""
    bad = []
    for ps, below, above in ((20.0, 0.05, 0.1), (200.0, 0.02, 0.05), (2000.0, 0.0, 0.01)):
        cfg = replace(CFG, ps_watts=ps, d1_m=15.0, d2_m=15.0)
        af, *df = outages(columns([(cfg, Scenario("hd", "af", "irr"))]
                                  + [(cfg, Scenario("hd", "df", "irr", pc_fraction=pc))
                                     for pc in (0.0, below, above)])).tolist()
        print(f"  Ps={ps:g}: af {af:.6g}, df at pc 0/{below:g}/{above:g}: "
              + " ".join(f"{v:.6g}" for v in df))
        if not df[0] < af:
            bad.append(f"Ps={ps:g}: cost-free df {df[0]:.6g} >= af {af:.6g}")
        if not df[1] < af < df[2]:
            bad.append(f"Ps={ps:g}: af {af:.6g} not between df at pc {below:g} and {above:g}")
    ok = report(
        "criterion 11 (costed DF falls behind AF at d1 = d2 = 15 m)",
        not bad,
        "crossover within the stated pc interval at 20 W, 200 W and 2 kW" if not bad
        else "; ".join(bad),
    )
    assert ok


def test_criterion_12_full_duplex_beats_half_duplex_at_small_loop_back():
    """At the optimized tau of each mode, FD-TSR is strictly below HD-TSR
    while the loop-back mean is at most -5 dB, and strictly above it from
    3 dB up, for DF and AF at Ps in {1, 10, 100} W."""
    below, above = (-30.0, -20.0, -10.0, -5.0), (3.0, 5.0, 10.0)
    links = [(ps, relay) for ps in (1.0, 10.0, 100.0) for relay in ("df", "af")]
    pairs = []
    for ps, relay in links:
        cfg = replace(CFG, ps_watts=ps)
        pairs.append((cfg, tsr("hd", relay, 0.5)))
        pairs += [(replace(cfg, chg=ChannelSpec(mu, CFG.chg.sigma_db)), tsr("fd", relay, 0.5))
                  for mu in below + above]
    tuned = iter(r.value_opt for r in minimize_many(columns(pairs)))
    bad = []
    for ps, relay in links:
        hd, *fd = (next(tuned) for _ in range(1 + len(below + above)))
        print(f"  {relay} Ps={ps:g}: hd {hd:.4g}, fd at chg.mu_db "
              + " ".join(f"{mu:g}: {v:.4g}" for mu, v in zip(below + above, fd)))
        bad += [f"{relay} Ps={ps:g} mu={mu:g}: fd {v:.4g} vs hd {hd:.4g}"
                for mu, v in zip(below + above, fd) if not (v < hd if mu in below else v > hd)]
    ok = report(
        "criterion 12 (tuned FD beats tuned HD only while the loop-back gain is small)",
        not bad,
        "FD below HD up to -5 dB and above it from 3 dB at 1, 10 and 100 W" if not bad
        else "; ".join(bad),
    )
    assert ok


@pytest.mark.parametrize("p", [0.0, 1e-9, 0.03, 0.5, 0.97, 1.0 - 2.0**-40, 1.0])
def test_binomial_tail_matches_exact_sums(p):
    n = 60
    pmf = [math.comb(n, j) * p**j * (1.0 - p) ** (n - j) for j in range(n + 1)]
    for k in range(n + 1):
        want = min(1.0, 2.0 * min(math.fsum(pmf[:k + 1]), math.fsum(pmf[k:])))
        assert binomial_tail(k, n, p) == pytest.approx(want, rel=1e-9, abs=1e-300)


def _summed_tail(k, n, p):
    """binomial_tail's value from Binomial(n, p)'s pmf in mpmath at 40 digits: the tail on
    k's side of the mode is summed from k outward until its terms, which fall from there
    on, no longer count; the other is 1 minus it plus the pmf at k."""
    with mpmath.workdps(40):
        p = mpmath.mpf(p)
        q = 1 - p
        first = term = mpmath.exp(mpmath.loggamma(n + 1) - mpmath.loggamma(k + 1)
                                  - mpmath.loggamma(n - k + 1) + k * mpmath.log(p)
                                  + (n - k) * mpmath.log(q))
        down = k <= (n + 1) * p
        total, j = 0, k
        while 0 <= j <= n and term > total * mpmath.mpf(10) ** -35:
            total += term
            term *= j / (n - j + 1) * q / p if down else (n - j) / (j + 1) * p / q
            j += -1 if down else 1
        other = 1 - total + first
        return float(min(1, 2 * min(total, other)))


@pytest.mark.parametrize("p", [1e-4, 0.003, 0.2, 0.5, 0.9, 0.9999])
def test_binomial_tail_matches_exact_sums_at_criterion_13_trials(p):
    """At criterion 13's 10^5 trials, where binomial_tail's series runs to thousands of
    terms, at counts from the far tails through the mode."""
    n = 10**5
    sigma = math.sqrt(n * p * (1 - p))
    counts = {min(n, max(0, round(n * p + z * sigma))) for z in (-9, -5, -3, -1, 0, 1, 3, 5, 9)}
    for k in sorted(counts):
        assert binomial_tail(k, n, p) == pytest.approx(_summed_tail(k, n, p), rel=1e-10,
                                                       abs=1e-300), k


def test_criterion_13_figure_rows_match_monte_carlo():
    """Like the paper's figures, every fig4-fig7 row's Monte Carlo count at 10^5
    trials is checked against its analytic value p: under p the count is
    Binomial(N, p), and its exact two-sided tail must not fall below alpha/R over
    the R rows (Bonferroni, alpha = 1e-3 for the whole gate). Unlike criterion 1's
    max(3 sigma, 1e-3), the rule keeps its false-failure chance at any p, also on
    saturated rows and those of stderr 0."""
    plan = McPlan(trials=10**5, seed=99)
    checked = []
    for figure, preset in FIGURE_PRESETS.items():
        rows, _ = run_points(preset(CFG)[0], plan, 1)
        checked += [(binomial_tail(round(row.mc * plan.trials), plan.trials, row.analytic),
                     f"{figure} {row.scenario} {row.axis}={fmt_value(row.axis_value)}")
                    for row in rows]
    worst, where = min(checked)
    bound = 1e-3 / len(checked)
    ok = report(
        "criterion 13 (every figure row's Monte Carlo count within its binomial tail)",
        worst >= bound and len(checked) == 380,
        f"{len(checked)} rows at {plan.trials} trials, worst two-sided tail {worst:.3g} "
        f"({where}) against alpha/R = {bound:.2g}",
    )
    assert ok
