"""The benchmark's three workloads: the CLI commands one pass runs, and the
check every output of a pass must pass.

A workload is a list of `ehrelay.cli.main` argument vectors built from the
benchmark seed. A pass runs them all in order. Its outputs (stdout of each
call) are checked point by point against `reference.json`:

- analytic values within `ANALYTIC_TOL` of the captured reference;
- Monte Carlo values within `max(MC_Z * sigma, MC_FLOOR)` of the reference
  analytic value, sigma being the binomial standard error at that value;
  on the sweep, each printed MC value times the trial count must also be a
  whole number (run.py separately counts the trials each estimate decides);
- every pass of one run prints the same bytes as the first (fixed seed).
"""

from __future__ import annotations

import math
import re
from dataclasses import dataclass
from typing import Callable

ANALYTIC_TOL = 1e-9
# The selftest prints analytic values with 6 decimals.
PRINTED_TOL = 5e-7 + ANALYTIC_TOL
# The selftest's own rule is max(3 sigma, 1e-3) per point. Over the 74-150
# MC points of one run that rule fires by chance in 7-22 % of seeds, so the
# benchmark widens the multiplier to the smallest one, in steps of 0.1, that
# keeps the chance of a false failure per run at or below MC_FALSE_FAILURE on
# every MC workload (exact binomial, see mc_false_failure_chance), and keeps
# the 1e-3 floor.
MC_Z = 5.7
MC_FLOOR = 1e-3
MC_FALSE_FAILURE = 1e-4
# the library's McPlan block size
MC_BLOCK = 1 << 16

SELFTEST_TRIALS = 1 << 17  # two full 65,536-trial blocks per point
SELFTEST_TRIALS_TINY = 10_000
SWEEP_TRIALS = 10_000
SWEEP_PS = tuple(f"{50.0 * 100.0 ** (i / 24):.10g}" for i in range(25))  # 50..5000 W
SWEEP_VARIANTS = (
    ("hd-df-tsr", ("--tau", "0.3")),
    ("hd-af-tsr", ("--tau", "0.3")),
    ("hd-df-psr", ("--rho", "0.5")),
    ("hd-af-psr", ("--rho", "0.5")),
    ("hd-df-irr", ()),
    ("hd-af-irr", ()),
)
FIGURES = ("fig4", "fig5", "fig6", "fig7")


def acceptance_grid():
    """The 74-point grid of acceptance criterion 1 and of `selftest`:
    (curve, axis, value, label, tau, rho, loop-back sigma^2 or None)."""
    grid = [round(0.1 * i, 1) for i in range(1, 10)]
    points = []
    for relay in ("df", "af"):
        points += [(f"hd-{relay}-tsr", "tau", p, f"hd-{relay}-tsr", p, None, None) for p in grid]
        points += [(f"hd-{relay}-psr", "rho", p, f"hd-{relay}-psr", None, p, None) for p in grid]
        points.append((f"hd-{relay}-irr", "none", 0.0, f"hd-{relay}-irr", None, None, None))
        for sg2 in (2.0, 5.0):
            points += [(f"fd-{relay}-tsr sg2={sg2:g}", "tau", p, f"fd-{relay}-tsr", p, None, sg2)
                       for p in grid]
    return points


def grid_analytic(point) -> float:
    """Analytic outage of one acceptance-grid point through the public API."""
    from ehrelay import ChannelSpec, Scenario, SystemConfig, outage

    _, _, _, label, tau, rho, sg2 = point
    cfg = SystemConfig()
    if sg2 is not None:
        cfg = SystemConfig(chg=ChannelSpec(cfg.chg.mu_db, math.sqrt(sg2)))
    return outage(cfg, Scenario.from_label(label, tau=tau, rho=rho)).value


def mc_tol(p_ref: float, trials: int, z: float = MC_Z) -> float:
    return max(z * math.sqrt(p_ref * (1.0 - p_ref) / trials), MC_FLOOR)


def mc_ok(p_ref: float, mc: float, trials: int) -> bool:
    return abs(mc - p_ref) <= mc_tol(p_ref, trials)


def mc_false_failure_chance(z: float, p_refs, trials: int) -> float:
    """Chance that correct code fails the MC check at multiplier z on at
    least one of the points, each an independent binomial(trials, p_ref)
    count, computed exactly."""
    from scipy.stats import binom

    log_pass = 0.0
    for p in p_refs:
        tol = mc_tol(p, trials, z)
        hi = math.floor(trials * (p + tol) + 1e-9)  # largest passing count
        lo = math.ceil(trials * (p - tol) - 1e-9)  # smallest passing count
        q = binom.sf(hi, trials, p) + (binom.cdf(lo - 1, trials, p) if lo > 0 else 0.0)
        log_pass += math.log1p(-q)
    return -math.expm1(log_pass)


@dataclass
class Point:
    """One checked output point: its printed row, verdict and, for MC
    points, whether it also passed the selftest's own 3-sigma rule."""

    row: str
    ok: bool
    selftest_rule_ok: bool = True


@dataclass(frozen=True)
class Workload:
    """One workload; BENCHMARK.json says why each was chosen."""

    name: str
    commands: Callable[[int, bool], list[list[str]]]
    check: Callable[[list[str], list[int], dict, bool], list[Point]]
    points_per_pass: int
    mc_points: int = 0  # MC estimates per pass
    mc_trials: Callable[[bool], int] = lambda tiny: 0  # trials per MC estimate
    mc_block: int | None = None  # trials per MC block at full size

    def trials_per_pass(self, tiny: bool) -> int:
        return self.mc_points * self.mc_trials(tiny)


# ---------------------------------------------------------------------------
# dataset rows (figure, sweep)

def _csv_rows(text: str) -> list[list[str]]:
    lines = [ln for ln in text.splitlines() if ln and not ln.startswith("#")]
    return [ln.split(",") for ln in lines[1:]]  # lines[0] is the header


def _check_dataset(text: str, rc: int, expected: list, trials: int | None) -> list[Point]:
    """Row-by-row check of one CSV dataset against its reference rows
    [(scenario, axis, axis_value, analytic), ...]."""
    rows = _csv_rows(text) if rc == 0 else []
    points = []
    for i, ref in enumerate(expected):
        if i >= len(rows):
            points.append(Point("<missing>", False))
            continue
        cols = rows[i]
        try:
            same_key = (cols[0], cols[1], float(cols[2])) == (ref[0], ref[1], ref[2])
            ok = same_key and abs(float(cols[3]) - ref[3]) <= ANALYTIC_TOL
            rule_ok = True
            if trials is None:
                ok = ok and cols[4] == ""
            else:
                mc, stderr = float(cols[4]), float(cols[5])
                count = mc * trials  # the printed value must be a whole count
                ok = (ok and int(cols[6]) == trials and mc_ok(ref[3], mc, trials)
                      and abs(count - round(count)) <= 1e-6)
                rule_ok = abs(mc - ref[3]) <= max(3.0 * stderr, MC_FLOOR)
        except (IndexError, ValueError):
            ok, rule_ok = False, True
        points.append(Point(",".join(cols), ok, rule_ok))
    points += [Point(",".join(cols), False) for cols in rows[len(expected):]]
    return points


def figure_commands(seed: int, tiny: bool) -> list[list[str]]:
    return [["figure", fig, "--no-mc", "--seed", str(seed), "--threads", "1"]
            for fig in FIGURES]


def check_figures(texts, rcs, reference, tiny) -> list[Point]:
    ref = reference["figures-analytic"]
    points = []
    for fig, text, rc in zip(FIGURES, texts, rcs):
        points += _check_dataset(text, rc, ref[fig], None)
    return points


def sweep_commands(seed: int, tiny: bool) -> list[list[str]]:
    return [["sweep", "--axis", "ps", "--values", ",".join(SWEEP_PS), "--scenario", label,
             *extra, "--trials", str(SWEEP_TRIALS), "--seed", str(seed), "--threads", "1"]
            for label, extra in SWEEP_VARIANTS]


def check_sweep(texts, rcs, reference, tiny) -> list[Point]:
    ref = reference["sweep-lowoutage"]
    points = []
    for (label, _), text, rc in zip(SWEEP_VARIANTS, texts, rcs):
        points += _check_dataset(text, rc, ref[label], SWEEP_TRIALS)
    return points


# ---------------------------------------------------------------------------
# selftest

_MC_LINE = re.compile(r"^(PASS|FAIL) (.+) (\w+)=(\S+): analytic=(\S+) mc=(\S+) ")
_LIMIT_LINE = re.compile(r"^(PASS|FAIL) (\S+) (tau|rho|cth)=(\S+): ")
SELFTEST_LIMIT_CHECKS = 20


def selftest_trials(tiny: bool) -> int:
    return SELFTEST_TRIALS_TINY if tiny else SELFTEST_TRIALS


def selftest_commands(seed: int, tiny: bool) -> list[list[str]]:
    return [["selftest", "--trials", str(selftest_trials(tiny)), "--seed", str(seed),
             "--threads", "1"]]


def check_selftest(texts, rcs, reference, tiny) -> list[Point]:
    """74 MC points against the acceptance-grid reference, then the 20
    boundary-limit checks, which must print PASS. Exit code 4 (a selftest
    failure) is accepted here; the points themselves decide. selftest
    prints 6 decimals, so the 1e-9 gate on the grid is checked by calling
    the library's outage() directly."""
    ref = reference["acceptance-grid"]
    trials = selftest_trials(tiny)
    lines = texts[0].splitlines() if rcs[0] in (0, 4) else []
    mc_lines = [m for m in map(_MC_LINE.match, lines) if m]
    limit_lines = [m for m in map(_LIMIT_LINE.match, lines)
                   if m and not _MC_LINE.match(m.string)]
    points = []
    for i, (curve, axis, value, *_rest, analytic) in enumerate(ref):
        if i >= len(mc_lines):
            points.append(Point("<missing>", False))
            continue
        m = mc_lines[i]
        try:
            same_key = (m[2], m[3], float(m[4])) == (curve, axis, value)
            mc = float(m[6])
            ok = (same_key and abs(float(m[5]) - analytic) <= PRINTED_TOL
                  and mc_ok(analytic, mc, trials))
        except ValueError:
            ok = False
        points.append(Point(m.string, ok, m[1] == "PASS"))
    points += [Point(m.string, m[1] == "PASS") for m in limit_lines]
    points += [Point("<missing>", False)] * (SELFTEST_LIMIT_CHECKS - len(limit_lines))
    for point in ref:
        try:
            value = grid_analytic(point[:7])
            points.append(Point(repr(value), abs(value - point[7]) <= ANALYTIC_TOL))
        except (ValueError, ArithmeticError, RuntimeError) as exc:
            points.append(Point(repr(exc), False))
    return points


WORKLOADS = {
    w.name: w
    for w in (
        Workload("figures-analytic", figure_commands, check_figures, 380),
        Workload("selftest-mc", selftest_commands, check_selftest, 74 + SELFTEST_LIMIT_CHECKS,
                 74, selftest_trials, min(SELFTEST_TRIALS, MC_BLOCK)),
        Workload("sweep-lowoutage", sweep_commands, check_sweep, 150,
                 150, lambda tiny: SWEEP_TRIALS, min(SWEEP_TRIALS, MC_BLOCK)),
    )
}
