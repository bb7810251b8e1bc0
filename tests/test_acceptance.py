"""Acceptance suite: one test per shipped claim, one PASS/FAIL line each.

Run `pytest tests/test_acceptance.py -v -s` to see the per-criterion lines
as they complete. The Monte Carlo budgets keep the whole module at desk
scale (around a minute).
"""

import math
from dataclasses import replace

import pytest

from ehrelay.analytic import outage, outages
from ehrelay.cli import boundary_points, selftest_points
from ehrelay.cli import main as cli_main
from ehrelay.lognormal import ChannelSpec
from ehrelay.model import Scenario, SystemConfig
from ehrelay.montecarlo import McPlan, estimate_outage
from ehrelay.optimize import minimize_many, minimize_over_eh_param

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
    for i, point in enumerate(selftest_points(CFG)):
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
    for point in boundary_points(CFG):
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
            tuned = minimize_many([(cfg, tsr("hd", relay, 0.5)) for cfg in cfgs]
                                  + [(cfg, psr(relay, 0.5)) for cfg in cfgs])
            irr = outages([(cfg, Scenario("hd", relay, "irr")) for cfg in cfgs]).tolist()
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
        af, *df = outages([(cfg, Scenario("hd", "af", "irr"))]
                          + [(cfg, Scenario("hd", "df", "irr", pc_fraction=pc))
                             for pc in (0.0, below, above)]).tolist()
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
