"""The curves the experiments evaluate: sweep axes, figure presets and the
selftest grids. A curve is one (cfg, scenario) pair with one axis set to
each of its values in turn; `cli.run_points` turns curves into dataset rows,
reading each curve as columns (see model.Columns). A bad value is a
ValueError naming its axis; callers add where it came from."""

from __future__ import annotations

import math
import numbers
from dataclasses import dataclass

import numpy as np

from .lognormal import holds
from .model import Columns, Scenario, SystemConfig, replaced, updated

SWEEP_AXES = ("tau", "rho", "cth", "d1", "sigma_db", "ps", "sigma_g_db")
# the fields each axis sets, by dotted name (see model.flat_fields); a d1 curve
# with a total distance also sets d2; "none" is a curve of one unchanged row
AXIS_FIELDS = {"tau": ("scenario.tau",), "rho": ("scenario.rho",), "cth": ("system.cth",),
               "d1": ("system.d1_m",), "sigma_db": ("system.ch1.sigma_db", "system.ch2.sigma_db"),
               "ps": ("system.ps_watts",), "sigma_g_db": ("system.chg.sigma_db",), "none": ()}
# AXIS_FIELDS split once, each name past its owner: [field], or [field, leaf] for a ChannelSpec's
_AXIS_PATHS = {axis: [name.split(".")[1:] for name in names] for axis, names in AXIS_FIELDS.items()}


def fmt_value(value) -> str:
    """A value as a dataset cell shows it (see cli.Row.csv): floats to 12 digits, None empty."""
    if value is None:
        return ""
    if isinstance(value, float):
        return f"{value:.12g}"
    return str(value)


@dataclass(frozen=True)
class Curve:
    """Dataset rows named `name`: (cfg, scenario) with `axis` set to each of
    `values` in turn. A d1 curve with a `total` distance other than None
    keeps d1 + d2 equal to it. With `optimize`, each row is minimized over
    its tau or rho."""

    name: str
    axis: str
    values: tuple
    cfg: SystemConfig
    scenario: Scenario
    total: float | None = None
    optimize: bool = False

    def fields(self, value) -> dict:
        """The fields, by dotted name, that set the axis to `value`: a float or an array."""
        fields = dict.fromkeys(AXIS_FIELDS[self.axis], value)
        if self.axis == "d1" and self.total is not None:
            fields["system.d2_m"] = self.total - value
        return fields

    def columns(self) -> Columns:
        """The curve's rows as columns: its base fields, with the axis values in place."""
        values = np.array(self.values, float)
        return Columns(self.cfg, self.scenario, self.fields(values), values.size)

    def valid(self) -> bool:
        """Whether every row passes the checks of row, evaluated once on the
        curve's columns (see model.Columns.valid) and building no row."""
        values = np.array(self.values, float)
        try:
            self._check(values)
        except ValueError:
            return False
        return Columns(self.cfg, self.scenario, self.fields(values), values.size).valid()

    def pair(self, i: int) -> tuple[SystemConfig, Scenario]:
        """Row i as its (cfg, scenario) pair, not checked again: axis_curve has
        checked the curve (a curve on axis none is its base pair)."""
        return self._pair(self.values[i], updated)

    def row(self, i: int) -> tuple[SystemConfig, Scenario]:
        """Row i as a (cfg, scenario) pair, each checked by its class."""
        value = self.values[i]
        self._check(value)
        try:
            return self._pair(value, replaced)
        except ValueError as exc:
            raise ValueError(f"{self.axis} = {value}: {exc}") from exc

    def _check(self, values) -> None:
        # row's own checks, before its classes': of one axis value, or (valid) of
        # every row at once, values then being a float64 array
        axis = self.axis
        if axis in ("tau", "rho") and self.scenario.eh_param_name != axis:
            raise ValueError(f"{axis} sweeps need a {'tsr' if axis == 'tau' else 'psr'} scenario")
        if axis == "d1" and self.total is not None and not holds(self.total - values > 0):
            raise ValueError(f"d1 = {values} leaves no room under total {self.total}")

    def _pair(self, value, make) -> tuple[SystemConfig, Scenario]:
        # the row at `value`, each object that the axis changes made by make(obj, **changes)
        if self.axis in ("tau", "rho"):  # the one scenario field an axis sets
            return self.cfg, make(self.scenario, **{self.axis: value})
        changes = {}
        for field, *leaf in _AXIS_PATHS[self.axis]:
            changes[field] = (make(getattr(self.cfg, field), **{leaf[0]: value})
                              if leaf else value)  # a nested ChannelSpec's field
        if self.axis == "d1" and self.total is not None:  # as in fields
            changes["d2_m"] = self.total - value
        return (make(self.cfg, **changes) if changes else self.cfg), self.scenario


def axis_curve(cfg: SystemConfig, base: Scenario, axis: str, values, name: str = "",
               total: float | None = None, optimize: bool = False) -> Curve:
    """The curve of `base` on `cfg` with `axis` set to each value in turn,
    named `name` or else after the scenario. The curve is checked once on its
    columns; if that fails, the first bad row raises its own error (see
    Curve.row)."""
    if axis not in SWEEP_AXES:
        raise ValueError(f"axis must be one of {SWEEP_AXES}, got {axis!r}")
    values = tuple(values)
    for value in values:  # numpy would read "2" as 2.0 and build an unchecked row
        if type(value) is not float and not isinstance(value, numbers.Real):
            raise ValueError(f"{axis} values must be real numbers, got {value!r}")
    curve = Curve(name or base.label(), axis, values, cfg, base, total, optimize)
    if not curve.valid():
        for i in range(len(curve.values)):
            curve.row(i)
    return curve


def base_scenario(label: str) -> Scenario:
    """The scenario named `label` with its harvesting parameter, if any, at 0.5."""
    return Scenario.from_label(label, tau=0.5, rho=0.5)


def apply_axis(cfg: SystemConfig, scenario: Scenario, axis: str, value: float):
    """(cfg, scenario) with `axis` set to `value` (see Curve.row)."""
    return Curve("", axis, (value,), cfg, scenario).row(0)


def hd_param_curves(cfg: SystemConfig, relay: str, grid) -> list[Curve]:
    """The HD TSR curve over tau, then the HD PSR curve over rho, of one relay."""
    return [axis_curve(cfg, base_scenario(f"hd-{relay}-tsr"), "tau", grid),
            axis_curve(cfg, base_scenario(f"hd-{relay}-psr"), "rho", grid)]


# ---------------------------------------------------------------------------
# figure presets: each returns (curves, dataset notes)

def preset_fig4(cfg: SystemConfig):
    """Outage versus tau/rho for the four parameterized HD systems."""
    grid = [round(0.05 * i, 2) for i in range(1, 20)]
    return hd_param_curves(cfg, "df", grid) + hd_param_curves(cfg, "af", grid), []


def preset_fig5(cfg: SystemConfig):
    """Minimum achievable outage versus channel spread for the six HD systems."""
    sigmas = [0.5, 1.0, 1.5, 2.0, 2.5, 3.0]
    curves = []
    for ps in (1.0, 5.0):
        for relay in ("df", "af"):
            for eh in ("tsr", "psr", "irr"):
                base = base_scenario(f"hd-{relay}-{eh}")
                cfg_ps, _ = apply_axis(cfg, base, "ps", ps)
                curves.append(axis_curve(cfg_ps, base, "sigma_db", sigmas,
                                         f"{base.label()} ps={fmt_value(ps)}", optimize=eh != "irr"))
    return curves, ["sigma_db sweep values are implementation-chosen"]


def preset_fig6(cfg: SystemConfig):
    """Outage versus relay position under a fixed 30 m end-to-end distance."""
    d1_values = [float(d) for d in range(3, 28, 2)]
    curves = [axis_curve(cfg, Scenario("hd", "df", "irr", pc_fraction=pc), "d1", d1_values,
                         f"hd-df-irr pc={fmt_value(pc)}", total=30.0) for pc in (0.0, 0.01, 0.02)]
    curves.append(axis_curve(cfg, Scenario("hd", "af", "irr"), "d1", d1_values, total=30.0))
    return curves, ["d1 + d2 fixed at 30 m"]


def preset_fig7(cfg: SystemConfig):
    """Outage versus threshold rate for FD and HD TSR systems at tau = 0.01."""
    cth_values = [round(0.5 + 0.25 * i, 2) for i in range(15)]
    curves = []
    for ps in (1.0, 10.0):
        for relay in ("df", "af"):
            fd = Scenario("fd", relay, "tsr", tau=0.01)
            cfg_ps, _ = apply_axis(cfg, fd, "ps", ps)
            for sg2 in (2.0, 5.0):
                c, _ = apply_axis(cfg_ps, fd, "sigma_g_db", math.sqrt(sg2))
                curves.append(axis_curve(c, fd, "cth", cth_values,
                                         f"fd-{relay}-tsr ps={fmt_value(ps)} sg2={fmt_value(sg2)}"))
            curves.append(axis_curve(cfg_ps, Scenario("hd", relay, "tsr", tau=0.01), "cth",
                                     cth_values, f"hd-{relay}-tsr ps={fmt_value(ps)}"))
    return curves, ["tau fixed at 0.01; loop-back spread per-curve via sg2"]


FIGURE_PRESETS = {
    "fig4": preset_fig4,
    "fig5": preset_fig5,
    "fig6": preset_fig6,
    "fig7": preset_fig7,
}


# ---------------------------------------------------------------------------
# selftest: the grids of acceptance criteria 1 and 2

def selftest_points(cfg: SystemConfig) -> list[Curve]:
    """The curves of the 74 analytic-vs-MC points: per relay, HD TSR over tau,
    HD PSR over rho, HD IRR, then FD TSR over tau at loop-back spreads sg2 =
    2 and 5."""
    grid = [round(0.1 * i, 1) for i in range(1, 10)]
    curves = []
    for relay in ("df", "af"):
        curves += hd_param_curves(cfg, relay, grid)
        curves.append(Curve(f"hd-{relay}-irr", "none", (0.0,), cfg, Scenario("hd", relay, "irr")))
        fd = base_scenario(f"fd-{relay}-tsr")
        for sg2 in (2.0, 5.0):
            c, _ = apply_axis(cfg, fd, "sigma_g_db", math.sqrt(sg2))
            curves.append(axis_curve(c, fd, "tau", grid, f"fd-{relay}-tsr sg2={fmt_value(sg2)}"))
    return curves


def boundary_points(cfg: SystemConfig) -> list[Curve]:
    """The curves of the 20 boundary probes: outage saturates (>= 0.999) at tau
    or rho of 1e-4 and 1 - 1e-4, and vanishes (<= 1e-12) on the cth axis, at cth = 0."""
    edges = (1e-4, 1.0 - 1e-4)
    curves = [axis_curve(cfg, base_scenario(label), "tau", edges)
              for label in ("hd-df-tsr", "hd-af-tsr", "fd-df-tsr", "fd-af-tsr")]
    curves += [axis_curve(cfg, base_scenario(label), "rho", edges)
               for label in ("hd-df-psr", "hd-af-psr")]
    curves += [axis_curve(cfg, base_scenario(label), "cth", [0.0])
               for label in ("hd-df-tsr", "hd-df-psr", "hd-df-irr", "hd-af-tsr", "hd-af-psr",
                             "hd-af-irr", "fd-df-tsr", "fd-af-tsr")]
    return curves
