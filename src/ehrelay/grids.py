"""The points the experiments evaluate: sweep axes, figure presets and the
selftest grids. `cli.run_points` turns points into dataset rows. A bad
value is a ValueError naming its axis; callers add where it came from."""

from __future__ import annotations

import math
from dataclasses import dataclass, replace

from .lognormal import ChannelSpec
from .model import Scenario, SystemConfig

SWEEP_AXES = ("tau", "rho", "cth", "d1", "sigma_db", "ps", "sigma_g_db")


def fmt_value(value) -> str:
    """A curve-name or dataset cell: floats to 12 significant digits, None as empty."""
    if value is None:
        return ""
    if isinstance(value, float):
        return f"{value:.12g}"
    return str(value)


@dataclass(frozen=True)
class SweepPoint:
    """One dataset row waiting to be evaluated."""

    curve: str
    axis: str
    axis_value: float
    cfg: SystemConfig
    scenario: Scenario
    optimize: bool = False


def apply_axis(cfg: SystemConfig, scenario: Scenario, total: float | None,
               axis: str, value: float) -> tuple[SystemConfig, Scenario]:
    """(cfg, scenario) with `axis` set to `value`. A d1 sweep with a
    `total` distance other than None keeps d1 + d2 equal to it."""
    if axis not in SWEEP_AXES:
        raise ValueError(f"axis must be one of {SWEEP_AXES}, got {axis!r}")
    if axis in ("tau", "rho") and scenario.eh_param_name != axis:
        raise ValueError(f"{axis} sweeps need a {'tsr' if axis == 'tau' else 'psr'} scenario")
    if axis == "d1" and total is not None and not total - value > 0:
        raise ValueError(f"d1 = {value} leaves no room under total {total}")
    try:
        if axis in ("tau", "rho"):
            return cfg, scenario.with_eh_param(value)
        if axis == "cth":
            return replace(cfg, cth=value), scenario
        if axis == "d1":
            d2 = cfg.d2_m if total is None else total - value
            return replace(cfg, d1_m=value, d2_m=d2), scenario
        if axis == "sigma_db":
            return replace(cfg,
                           ch1=ChannelSpec(cfg.ch1.mu_db, value),
                           ch2=ChannelSpec(cfg.ch2.mu_db, value)), scenario
        if axis == "ps":
            return replace(cfg, ps_watts=value), scenario
        return replace(cfg, chg=ChannelSpec(cfg.chg.mu_db, value)), scenario
    except ValueError as exc:
        raise ValueError(f"{axis} = {value}: {exc}") from exc


def axis_points(cfg: SystemConfig, base: Scenario, axis: str, values, curve: str = "",
                total: float | None = None, optimize: bool = False) -> list[SweepPoint]:
    """One curve: `base` on `cfg` with `axis` set to each value in turn (see
    apply_axis), named `curve` or else after the scenario."""
    points = []
    for value in values:
        c, s = apply_axis(cfg, base, total, axis, value)
        points.append(SweepPoint(curve or s.label(), axis, value, c, s, optimize))
    return points


def base_scenario(label: str) -> Scenario:
    """The scenario named `label` with its harvesting parameter, if any, at 0.5."""
    return Scenario.from_label(label, tau=0.5, rho=0.5)


def hd_param_curves(cfg: SystemConfig, relay: str, grid) -> list[SweepPoint]:
    """The HD TSR curve over tau, then the HD PSR curve over rho, of one relay."""
    return (axis_points(cfg, base_scenario(f"hd-{relay}-tsr"), "tau", grid)
            + axis_points(cfg, base_scenario(f"hd-{relay}-psr"), "rho", grid))


# ---------------------------------------------------------------------------
# figure presets: each returns (points, dataset notes)

def preset_fig4(cfg: SystemConfig):
    """Outage versus tau/rho for the four parameterized HD systems."""
    grid = [round(0.05 * i, 2) for i in range(1, 20)]
    return hd_param_curves(cfg, "df", grid) + hd_param_curves(cfg, "af", grid), []


def preset_fig5(cfg: SystemConfig):
    """Minimum achievable outage versus channel spread for the six HD systems."""
    sigmas = [0.5, 1.0, 1.5, 2.0, 2.5, 3.0]
    points = []
    for ps in (1.0, 5.0):
        for relay in ("df", "af"):
            for eh in ("tsr", "psr", "irr"):
                base = base_scenario(f"hd-{relay}-{eh}")
                cfg_ps, _ = apply_axis(cfg, base, None, "ps", ps)
                points += axis_points(cfg_ps, base, "sigma_db", sigmas,
                                      f"{base.label()} ps={fmt_value(ps)}", optimize=eh != "irr")
    return points, ["sigma_db sweep values are implementation-chosen"]


def preset_fig6(cfg: SystemConfig):
    """Outage versus relay position under a fixed 30 m end-to-end distance."""
    d1_values = [float(d) for d in range(3, 28, 2)]
    points = []
    for pc in (0.0, 0.01, 0.02):
        points += axis_points(cfg, Scenario("hd", "df", "irr", pc_fraction=pc), "d1",
                              d1_values, f"hd-df-irr pc={fmt_value(pc)}", total=30.0)
    points += axis_points(cfg, Scenario("hd", "af", "irr"), "d1", d1_values, total=30.0)
    return points, ["d1 + d2 fixed at 30 m"]


def preset_fig7(cfg: SystemConfig):
    """Outage versus threshold rate for FD and HD TSR systems at tau = 0.01."""
    cth_values = [round(0.5 + 0.25 * i, 2) for i in range(15)]
    points = []
    for ps in (1.0, 10.0):
        for relay in ("df", "af"):
            fd = Scenario("fd", relay, "tsr", tau=0.01)
            cfg_ps, _ = apply_axis(cfg, fd, None, "ps", ps)
            for sg2 in (2.0, 5.0):
                c, _ = apply_axis(cfg_ps, fd, None, "sigma_g_db", math.sqrt(sg2))
                points += axis_points(c, fd, "cth", cth_values,
                                      f"fd-{relay}-tsr ps={fmt_value(ps)} sg2={fmt_value(sg2)}")
            points += axis_points(cfg_ps, Scenario("hd", relay, "tsr", tau=0.01), "cth",
                                  cth_values, f"hd-{relay}-tsr ps={fmt_value(ps)}")
    return points, ["tau fixed at 0.01; loop-back spread per-curve via sg2"]


FIGURE_PRESETS = {
    "fig4": preset_fig4,
    "fig5": preset_fig5,
    "fig6": preset_fig6,
    "fig7": preset_fig7,
}


# ---------------------------------------------------------------------------
# selftest: the grids of acceptance criteria 1 and 2

def selftest_points(cfg: SystemConfig) -> list[SweepPoint]:
    """The 74 analytic-vs-MC points: per relay, HD TSR over tau, HD PSR over
    rho, HD IRR, then FD TSR over tau at loop-back spreads sg2 = 2 and 5."""
    grid = [round(0.1 * i, 1) for i in range(1, 10)]
    points = []
    for relay in ("df", "af"):
        points += hd_param_curves(cfg, relay, grid)
        points.append(SweepPoint(f"hd-{relay}-irr", "none", 0.0, cfg,
                                 Scenario("hd", relay, "irr")))
        fd = base_scenario(f"fd-{relay}-tsr")
        for sg2 in (2.0, 5.0):
            c, _ = apply_axis(cfg, fd, None, "sigma_g_db", math.sqrt(sg2))
            points += axis_points(c, fd, "tau", grid, f"fd-{relay}-tsr sg2={fmt_value(sg2)}")
    return points


def boundary_points(cfg: SystemConfig) -> list[SweepPoint]:
    """The 20 boundary probes: outage saturates (>= 0.999) at tau or rho of
    1e-4 and 1 - 1e-4, and vanishes (<= 1e-12) on the cth axis, at cth = 0."""
    edges = (1e-4, 1.0 - 1e-4)
    points = []
    for label in ("hd-df-tsr", "hd-af-tsr", "fd-df-tsr", "fd-af-tsr"):
        points += axis_points(cfg, base_scenario(label), "tau", edges)
    for label in ("hd-df-psr", "hd-af-psr"):
        points += axis_points(cfg, base_scenario(label), "rho", edges)
    for label in ("hd-df-tsr", "hd-df-psr", "hd-df-irr", "hd-af-tsr", "hd-af-psr",
                  "hd-af-irr", "fd-df-tsr", "fd-af-tsr"):
        points += axis_points(cfg, base_scenario(label), "cth", [0.0])
    return points
