"""Experiment command line.

Subcommands: `point` (single evaluation), `sweep` (one axis), `optimize`
(best tau/rho), `figure fig4|fig5|fig6|fig7` (bundled datasets) and
`selftest` (analytic-vs-Monte-Carlo grid plus boundary checks).

Configuration is a flat dotted-key space (system.*, scenario.*, sweep.*,
mc.*, output.*) loadable from a key=value text file; command-line flags
and --override pairs take precedence over file values. Datasets echo the
effective configuration as comment lines so every file is reproducible
from its own header.
"""

from __future__ import annotations

import argparse
import json
import math
import sys
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass, replace

import numpy as np

from .analytic import outage
from .lognormal import ChannelSpec
from .model import Scenario, SystemConfig
from .montecarlo import McPlan, estimate_outage
from .optimize import minimize_over_eh_param
from .quadrature import QuadratureError

SWEEP_AXES = ("tau", "rho", "cth", "d1", "sigma_db", "ps", "sigma_g_db")

CSV_HEADER = "scenario,axis,axis_value,analytic,mc,mc_stderr,trials,seed"

EXIT_OK = 0
EXIT_CONFIG = 2
EXIT_NUMERICAL = 3
EXIT_SELFTEST = 4


class ConfigError(Exception):
    """User-facing configuration problem; message names the offending key."""


def default_settings() -> dict:
    return {
        "system.ps_watts": 1.0,
        "system.eta": 1.0,
        "system.path_loss_exp": 2.0,
        "system.d1_m": 5.0,
        "system.d2_m": 5.0,
        "system.sigma_a2_w": 0.0025,
        "system.sigma_c2_w": 0.0025,
        "system.sigma_d2_w": 0.005,
        "system.cth": 2.0,
        "system.ch1.mu_db": 3.0,
        "system.ch1.sigma_db": 2.0,
        "system.ch2.mu_db": 3.0,
        "system.ch2.sigma_db": 2.0,
        "system.chg.mu_db": 3.0,
        "system.chg.sigma_db": math.sqrt(5.0),
        "scenario.duplex": "hd",
        "scenario.relay": "df",
        "scenario.eh": "tsr",
        "scenario.tau": 0.5,
        "scenario.rho": 0.5,
        "scenario.pc_fraction": 0.0,
        "sweep.axis": "",
        "sweep.values": "",
        "sweep.total_distance": "",
        "mc.trials": 100_000,
        "mc.seed": 12345,
        "mc.block_size": 1 << 16,
        "output.path": "",
        "output.format": "csv",
    }


def load_config_file(path: str) -> dict[str, str]:
    entries: dict[str, str] = {}
    try:
        with open(path, encoding="utf-8") as fh:
            for lineno, raw in enumerate(fh, 1):
                line = raw.split("#", 1)[0].strip()
                if not line:
                    continue
                if "=" not in line:
                    raise ConfigError(f"{path}:{lineno}: expected 'key = value', got {raw.strip()!r}")
                key, _, value = line.partition("=")
                entries[key.strip()] = value.strip()
    except OSError as exc:
        raise ConfigError(f"cannot read config file {path}: {exc}") from exc
    return entries


def _coerce(key: str, raw: str, template) -> object:
    try:
        if isinstance(template, bool):
            return raw.lower() in ("1", "true", "yes")
        if isinstance(template, int):
            return int(raw)
        if isinstance(template, float):
            return float(raw)
    except ValueError as exc:
        raise ConfigError(f"{key}: expected a number, got {raw!r}") from exc
    return raw


def apply_entries(settings: dict, entries: dict[str, str], source: str) -> None:
    for key, raw in entries.items():
        if key not in settings:
            raise ConfigError(f"{key}: unknown key (from {source})")
        settings[key] = _coerce(key, raw, settings[key])


def build_system(settings: dict) -> SystemConfig:
    try:
        return SystemConfig(
            ps_watts=settings["system.ps_watts"],
            eta=settings["system.eta"],
            path_loss_exp=settings["system.path_loss_exp"],
            d1_m=settings["system.d1_m"],
            d2_m=settings["system.d2_m"],
            sigma_a2_w=settings["system.sigma_a2_w"],
            sigma_c2_w=settings["system.sigma_c2_w"],
            sigma_d2_w=settings["system.sigma_d2_w"],
            cth=settings["system.cth"],
            ch1=ChannelSpec(settings["system.ch1.mu_db"], settings["system.ch1.sigma_db"]),
            ch2=ChannelSpec(settings["system.ch2.mu_db"], settings["system.ch2.sigma_db"]),
            chg=ChannelSpec(settings["system.chg.mu_db"], settings["system.chg.sigma_db"]),
        )
    except ValueError as exc:
        raise ConfigError(f"system: {exc}") from exc


def build_scenario(settings: dict) -> Scenario:
    eh = settings["scenario.eh"]
    try:
        return Scenario(
            duplex=settings["scenario.duplex"],
            relay=settings["scenario.relay"],
            eh=eh,
            tau=settings["scenario.tau"] if eh == "tsr" else None,
            rho=settings["scenario.rho"] if eh == "psr" else None,
            pc_fraction=settings["scenario.pc_fraction"],
        )
    except ValueError as exc:
        raise ConfigError(f"scenario: {exc}") from exc


def build_plan(settings: dict) -> McPlan:
    try:
        return McPlan(
            trials=settings["mc.trials"],
            seed=settings["mc.seed"],
            block_size=settings["mc.block_size"],
        )
    except ValueError as exc:
        raise ConfigError(f"mc: {exc}") from exc


def _fmt(value) -> str:
    if value is None or value == "":
        return ""
    if isinstance(value, float):
        return f"{value:.12g}"
    return str(value)


def row_seed(base_seed: int, index: int) -> int:
    """Per-row 64-bit substream seed, independent of worker scheduling."""
    seq = np.random.SeedSequence(entropy=base_seed, spawn_key=(index,))
    return int(seq.generate_state(1, np.uint64)[0])


@dataclass(frozen=True)
class SweepPoint:
    """One dataset row waiting to be evaluated."""

    curve: str
    axis: str
    axis_value: float
    cfg: SystemConfig
    scenario: Scenario
    optimize: bool = False


@dataclass(frozen=True)
class Row:
    curve: str
    axis: str
    axis_value: float
    analytic: float
    mc: float | None
    mc_stderr: float | None
    trials: int | None
    seed: int | None

    def csv(self) -> str:
        return ",".join(
            [
                self.curve,
                self.axis,
                _fmt(self.axis_value),
                _fmt(self.analytic),
                _fmt(self.mc),
                _fmt(self.mc_stderr),
                _fmt(self.trials),
                _fmt(self.seed),
            ]
        )

    def as_dict(self) -> dict:
        return {
            "scenario": self.curve,
            "axis": self.axis,
            "axis_value": self.axis_value,
            "analytic": self.analytic,
            "mc": self.mc,
            "mc_stderr": self.mc_stderr,
            "trials": self.trials,
            "seed": self.seed,
        }


def evaluate_point(point: SweepPoint, plan_template: McPlan | None, seed: int | None) -> Row:
    scenario = point.scenario
    if point.optimize:
        result = minimize_over_eh_param(point.cfg, scenario)
        param = "tau" if scenario.eh == "tsr" else "rho"
        scenario = replace(scenario, **{param: result.arg_opt})
        analytic = result.value_opt
    else:
        analytic = outage(point.cfg, scenario).value
    mc = stderr = trials = None
    if plan_template is not None:
        plan = replace(plan_template, seed=seed)
        est = estimate_outage(point.cfg, scenario, plan)
        mc, stderr, trials = est.value, est.stderr, est.trials
    return Row(point.curve, point.axis, point.axis_value, analytic, mc, stderr, trials, seed)


def run_points(points, plan_template, base_seed, threads) -> list[Row]:
    """Evaluate sweep points on a worker pool; rows come back in sweep order."""
    seeds = [None if plan_template is None else row_seed(base_seed, i)
             for i in range(len(points))]
    if threads > 1:
        with ThreadPoolExecutor(max_workers=threads) as pool:
            return list(pool.map(lambda ps: evaluate_point(ps[0], plan_template, ps[1]),
                                 zip(points, seeds)))
    return [evaluate_point(p, plan_template, s) for p, s in zip(points, seeds)]


def dataset_text(settings: dict, rows: list[Row], fmt: str, notes: list[str]) -> str:
    if fmt == "json":
        payload = {
            "settings": {k: settings[k] for k in sorted(settings) if k != "output.path"},
            "notes": notes,
            "rows": [r.as_dict() for r in rows],
        }
        return json.dumps(payload, indent=2, sort_keys=True) + "\n"
    # output.path names the file being written; echoing it would make
    # otherwise-identical datasets differ byte-wise
    lines = [f"# {key} = {_fmt(settings[key])}"
             for key in sorted(settings) if key != "output.path"]
    lines += [f"# note: {n}" for n in notes]
    lines.append(CSV_HEADER)
    lines += [r.csv() for r in rows]
    return "\n".join(lines) + "\n"


def emit(text: str, path: str) -> None:
    if path:
        with open(path, "w", encoding="utf-8", newline="") as fh:
            fh.write(text)
    else:
        sys.stdout.write(text)


# ---------------------------------------------------------------------------
# axis application

def apply_axis(cfg: SystemConfig, scenario: Scenario, settings: dict,
               axis: str, value: float) -> tuple[SystemConfig, Scenario]:
    try:
        if axis == "tau":
            if scenario.eh != "tsr":
                raise ConfigError("sweep.axis: tau sweeps need a tsr scenario")
            return cfg, replace(scenario, tau=value)
        if axis == "rho":
            if scenario.eh != "psr":
                raise ConfigError("sweep.axis: rho sweeps need a psr scenario")
            return cfg, replace(scenario, rho=value)
        if axis == "cth":
            return replace(cfg, cth=value), scenario
        if axis == "d1":
            total = settings["sweep.total_distance"]
            if total != "":
                d2 = float(total) - value
                if not d2 > 0:
                    raise ConfigError(
                        f"sweep.values: d1 = {value} leaves no room under total {total}")
                return replace(cfg, d1_m=value, d2_m=d2), scenario
            return replace(cfg, d1_m=value), scenario
        if axis == "sigma_db":
            return replace(cfg,
                           ch1=ChannelSpec(cfg.ch1.mu_db, value),
                           ch2=ChannelSpec(cfg.ch2.mu_db, value)), scenario
        if axis == "ps":
            return replace(cfg, ps_watts=value), scenario
        if axis == "sigma_g_db":
            return replace(cfg, chg=ChannelSpec(cfg.chg.mu_db, value)), scenario
    except ValueError as exc:
        raise ConfigError(f"sweep.values: {axis} = {value}: {exc}") from exc
    raise ConfigError(f"sweep.axis: must be one of {SWEEP_AXES}, got {axis!r}")


# ---------------------------------------------------------------------------
# figure presets

def preset_fig4(cfg: SystemConfig, settings: dict):
    """Outage versus tau/rho for the four parameterized HD systems."""
    grid = [round(0.05 * i, 2) for i in range(1, 20)]
    points = []
    for relay in ("df", "af"):
        for eh, axis in (("tsr", "tau"), ("psr", "rho")):
            base = Scenario("hd", relay, eh,
                            tau=0.5 if eh == "tsr" else None,
                            rho=0.5 if eh == "psr" else None)
            for value in grid:
                c, s = apply_axis(cfg, base, settings, axis, value)
                points.append(SweepPoint(s.label(), axis, value, c, s))
    return points, []


def preset_fig5(cfg: SystemConfig, settings: dict):
    """Minimum achievable outage versus channel spread for the six HD systems."""
    sigmas = [0.5, 1.0, 1.5, 2.0, 2.5, 3.0]
    points = []
    for ps in (1.0, 5.0):
        cfg_ps = replace(cfg, ps_watts=ps)
        for relay in ("df", "af"):
            for eh in ("tsr", "psr", "irr"):
                base = Scenario("hd", relay, eh,
                                tau=0.5 if eh == "tsr" else None,
                                rho=0.5 if eh == "psr" else None)
                curve = f"{base.label()} ps={_fmt(ps)}"
                for sigma in sigmas:
                    c, s = apply_axis(cfg_ps, base, settings, "sigma_db", sigma)
                    points.append(SweepPoint(curve, "sigma_db", sigma, c, s,
                                             optimize=eh != "irr"))
    return points, ["sigma_db sweep values are implementation-chosen"]


def preset_fig6(cfg: SystemConfig, settings: dict):
    """Outage versus relay position under a fixed 30 m end-to-end distance."""
    d1_values = [float(d) for d in range(3, 28, 2)]
    total = 30.0
    points = []
    for pc in (0.0, 0.01, 0.02):
        for d1 in d1_values:
            c = replace(cfg, d1_m=d1, d2_m=total - d1)
            s = Scenario("hd", "df", "irr", pc_fraction=pc)
            points.append(SweepPoint(f"hd-df-irr pc={_fmt(pc)}", "d1", d1, c, s))
    for d1 in d1_values:
        c = replace(cfg, d1_m=d1, d2_m=total - d1)
        points.append(SweepPoint("hd-af-irr", "d1", d1, c, Scenario("hd", "af", "irr")))
    return points, ["d1 + d2 fixed at 30 m"]


def preset_fig7(cfg: SystemConfig, settings: dict):
    """Outage versus threshold rate for FD and HD TSR systems at tau = 0.01."""
    cth_values = [round(0.5 + 0.25 * i, 2) for i in range(15)]
    tau = 0.01
    points = []
    for ps in (1.0, 10.0):
        for relay in ("df", "af"):
            for sg2 in (2.0, 5.0):
                c0 = replace(cfg, ps_watts=ps, chg=ChannelSpec(cfg.chg.mu_db, math.sqrt(sg2)))
                s = Scenario("fd", relay, "tsr", tau=tau)
                curve = f"fd-{relay}-tsr ps={_fmt(ps)} sg2={_fmt(sg2)}"
                for cth in cth_values:
                    points.append(SweepPoint(curve, "cth", cth, replace(c0, cth=cth), s))
            s = Scenario("hd", relay, "tsr", tau=tau)
            curve = f"hd-{relay}-tsr ps={_fmt(ps)}"
            for cth in cth_values:
                c = replace(cfg, ps_watts=ps, cth=cth)
                points.append(SweepPoint(curve, "cth", cth, c, s))
    return points, ["tau fixed at 0.01; loop-back spread per-curve via sg2"]


FIGURE_PRESETS = {
    "fig4": preset_fig4,
    "fig5": preset_fig5,
    "fig6": preset_fig6,
    "fig7": preset_fig7,
}


# ---------------------------------------------------------------------------
# selftest grid

def selftest_points(cfg: SystemConfig, settings: dict) -> list[SweepPoint]:
    grid = [round(0.1 * i, 1) for i in range(1, 10)]
    points = []
    for relay in ("df", "af"):
        for eh, axis in (("tsr", "tau"), ("psr", "rho")):
            base = Scenario("hd", relay, eh,
                            tau=0.5 if eh == "tsr" else None,
                            rho=0.5 if eh == "psr" else None)
            for value in grid:
                c, s = apply_axis(cfg, base, settings, axis, value)
                points.append(SweepPoint(s.label(), axis, value, c, s))
        points.append(SweepPoint(f"hd-{relay}-irr", "none", 0.0, cfg,
                                 Scenario("hd", relay, "irr")))
        for sg2 in (2.0, 5.0):
            c0 = replace(cfg, chg=ChannelSpec(cfg.chg.mu_db, math.sqrt(sg2)))
            for value in grid:
                s = Scenario("fd", relay, "tsr", tau=value)
                points.append(SweepPoint(f"fd-{relay}-tsr sg2={_fmt(sg2)}", "tau",
                                         value, c0, s))
    return points


def run_selftest(settings: dict, threads: int) -> int:
    cfg = build_system(settings)
    plan = build_plan(settings)
    points = selftest_points(cfg, settings)
    rows = run_points(points, plan, settings["mc.seed"], threads)
    failures = 0
    for row in rows:
        tol = max(3.0 * row.mc_stderr, 1e-3)
        ok = abs(row.analytic - row.mc) <= tol
        status = "PASS" if ok else "FAIL"
        failures += not ok
        print(f"{status} {row.curve} {row.axis}={_fmt(row.axis_value)}: "
              f"analytic={row.analytic:.6f} mc={row.mc:.6f} "
              f"|diff|={abs(row.analytic - row.mc):.2e} tol={tol:.2e}")
    # boundary limits: saturation at extreme tau/rho, zero outage at cth=0
    for label in ("hd-df-tsr", "hd-af-tsr", "fd-df-tsr", "fd-af-tsr"):
        for tau in (1e-4, 1.0 - 1e-4):
            val = outage(cfg, Scenario.from_label(label, tau=tau)).value
            ok = val >= 0.999
            failures += not ok
            print(f"{'PASS' if ok else 'FAIL'} {label} tau={tau:g}: {val:.6f} >= 0.999")
    for label in ("hd-df-psr", "hd-af-psr"):
        for rho in (1e-4, 1.0 - 1e-4):
            val = outage(cfg, Scenario.from_label(label, rho=rho)).value
            ok = val >= 0.999
            failures += not ok
            print(f"{'PASS' if ok else 'FAIL'} {label} rho={rho:g}: {val:.6f} >= 0.999")
    cfg0 = replace(cfg, cth=0.0)
    for label, kwargs in (
        ("hd-df-tsr", {"tau": 0.5}), ("hd-df-psr", {"rho": 0.5}), ("hd-df-irr", {}),
        ("hd-af-tsr", {"tau": 0.5}), ("hd-af-psr", {"rho": 0.5}), ("hd-af-irr", {}),
        ("fd-df-tsr", {"tau": 0.5}), ("fd-af-tsr", {"tau": 0.5}),
    ):
        val = outage(cfg0, Scenario.from_label(label, **kwargs)).value
        ok = val <= 1e-12
        failures += not ok
        print(f"{'PASS' if ok else 'FAIL'} {label} cth=0: {val:.3e} <= 1e-12")
    print(f"selftest: {failures} failure(s)")
    return failures


# ---------------------------------------------------------------------------
# commands

def _settings_from_args(args) -> dict:
    settings = default_settings()
    if args.config:
        apply_entries(settings, load_config_file(args.config), args.config)
    for pair in args.override or []:
        if "=" not in pair:
            raise ConfigError(f"--override {pair!r}: expected key=value")
        key, _, value = pair.partition("=")
        apply_entries(settings, {key.strip(): value.strip()}, "--override")
    if args.trials is not None:
        settings["mc.trials"] = args.trials
    if args.seed is not None:
        settings["mc.seed"] = args.seed
    if args.out is not None:
        settings["output.path"] = args.out
    if args.format is not None:
        settings["output.format"] = args.format
    if getattr(args, "scenario", None):
        parts = args.scenario.lower().split("-")
        if len(parts) != 3:
            raise ConfigError(f"--scenario {args.scenario!r}: expected duplex-relay-eh")
        settings["scenario.duplex"], settings["scenario.relay"], settings["scenario.eh"] = parts
    for flag, key in (("tau", "scenario.tau"), ("rho", "scenario.rho"),
                      ("pc", "scenario.pc_fraction")):
        value = getattr(args, flag, None)
        if value is not None:
            settings[key] = value
    return settings


def cmd_point(args) -> int:
    settings = _settings_from_args(args)
    cfg = build_system(settings)
    scenario = build_scenario(settings)
    analytic = outage(cfg, scenario)
    print(f"scenario           {scenario.label()}")
    print(f"analytic outage    {analytic.value:.9f}")
    rows = [Row(scenario.label(), "none", 0.0, analytic.value, None, None, None, None)]
    if not args.no_mc:
        plan = build_plan(settings)
        mc = estimate_outage(cfg, scenario, plan, threads=args.threads)
        print(f"monte carlo        {mc.value:.9f}")
        print(f"difference         {abs(analytic.value - mc.value):.3e}")
        print(f"mc stderr          {mc.stderr:.3e}  (trials {mc.trials}, seed {settings['mc.seed']})")
        rows = [Row(scenario.label(), "none", 0.0, analytic.value,
                    mc.value, mc.stderr, mc.trials, settings["mc.seed"])]
    if settings["output.path"]:
        emit(dataset_text(settings, rows, settings["output.format"], []),
             settings["output.path"])
    return EXIT_OK


def cmd_sweep(args) -> int:
    settings = _settings_from_args(args)
    if args.axis:
        settings["sweep.axis"] = args.axis
    if args.values:
        settings["sweep.values"] = args.values
    axis = settings["sweep.axis"]
    if axis not in SWEEP_AXES:
        raise ConfigError(f"sweep.axis: must be one of {SWEEP_AXES}, got {axis!r}")
    raw_values = str(settings["sweep.values"])
    if not raw_values.strip():
        raise ConfigError("sweep.values: no values given")
    try:
        values = [float(tok) for tok in raw_values.replace(";", ",").split(",") if tok.strip()]
    except ValueError as exc:
        raise ConfigError(f"sweep.values: {exc}") from exc
    cfg = build_system(settings)
    scenario = build_scenario(settings)
    points = []
    for value in values:
        c, s = apply_axis(cfg, scenario, settings, axis, value)
        points.append(SweepPoint(s.label(), axis, value, c, s))
    plan = None if args.no_mc else build_plan(settings)
    rows = run_points(points, plan, settings["mc.seed"], args.threads)
    emit(dataset_text(settings, rows, settings["output.format"], []),
         settings["output.path"])
    return EXIT_OK


def cmd_optimize(args) -> int:
    settings = _settings_from_args(args)
    cfg = build_system(settings)
    scenario = build_scenario(settings)
    if scenario.eh not in ("tsr", "psr"):
        raise ConfigError("scenario.eh: optimize needs a tsr or psr scenario")
    result = minimize_over_eh_param(cfg, scenario, tol=args.tol)
    param = "tau" if scenario.eh == "tsr" else "rho"
    print(f"scenario           {scenario.label()}")
    print(f"optimal {param}        {result.arg_opt:.6f}")
    print(f"outage at optimum  {result.value_opt:.9f}")
    print(f"evaluations        {result.evaluations}")
    print(f"bracket width      {result.bracket:.2e}")
    if result.non_unimodal:
        print("warning: multiple grid minima seen; dense-scan fallback used")
    if settings["output.path"]:
        rows = [Row(scenario.label(), param, result.arg_opt, result.value_opt,
                    None, None, None, None)]
        emit(dataset_text(settings, rows, settings["output.format"], []),
             settings["output.path"])
    return EXIT_OK


def cmd_figure(args) -> int:
    settings = _settings_from_args(args)
    cfg = build_system(settings)
    points, notes = FIGURE_PRESETS[args.which](cfg, settings)
    plan = None if args.no_mc else build_plan(settings)
    rows = run_points(points, plan, settings["mc.seed"], args.threads)
    notes = [f"figure = {args.which}"] + notes
    emit(dataset_text(settings, rows, settings["output.format"], notes),
         settings["output.path"])
    return EXIT_OK


def cmd_selftest(args) -> int:
    settings = _settings_from_args(args)
    failures = run_selftest(settings, args.threads)
    return EXIT_SELFTEST if failures else EXIT_OK


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="ehrelay",
        description="Ergodic outage of energy-harvesting dual-hop relays "
                    "in log-normal shadowing.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    def common(p, scenario_flags=True):
        p.add_argument("--config", help="key = value configuration file")
        p.add_argument("--trials", type=int, help="Monte Carlo trials per point")
        p.add_argument("--seed", type=int, help="master random seed")
        p.add_argument("--out", help="output path (default: stdout for datasets)")
        p.add_argument("--format", choices=("csv", "json"), help="output format")
        p.add_argument("--no-mc", action="store_true", help="skip Monte Carlo")
        p.add_argument("--override", action="append", metavar="KEY=VALUE",
                       help="set any config key; repeatable")
        p.add_argument("--threads", type=int, default=1, help="worker threads")
        if scenario_flags:
            p.add_argument("--scenario", help="label like hd-df-tsr")
            p.add_argument("--tau", type=float, help="TSR harvesting time factor")
            p.add_argument("--rho", type=float, help="PSR power-splitting factor")
            p.add_argument("--pc", type=float, help="DF processing-cost fraction")

    p_point = sub.add_parser("point", help="evaluate one configuration")
    common(p_point)
    p_point.set_defaults(func=cmd_point)

    p_sweep = sub.add_parser("sweep", help="sweep one axis")
    common(p_sweep)
    p_sweep.add_argument("--axis", choices=SWEEP_AXES)
    p_sweep.add_argument("--values", help="comma-separated axis values")
    p_sweep.set_defaults(func=cmd_sweep)

    p_opt = sub.add_parser("optimize", help="minimize outage over tau or rho")
    common(p_opt)
    p_opt.add_argument("--tol", type=float, default=1e-3, help="parameter tolerance")
    p_opt.set_defaults(func=cmd_optimize)

    p_fig = sub.add_parser("figure", help="emit a bundled dataset")
    p_fig.add_argument("which", choices=sorted(FIGURE_PRESETS))
    common(p_fig, scenario_flags=False)
    p_fig.set_defaults(func=cmd_figure)

    p_self = sub.add_parser("selftest", help="run the analytic-vs-MC grid")
    common(p_self, scenario_flags=False)
    p_self.set_defaults(func=cmd_selftest)

    return parser


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    try:
        if args.threads < 1:
            raise ConfigError(f"--threads: must be >= 1, got {args.threads}")
        return args.func(args)
    except ConfigError as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return EXIT_CONFIG
    except QuadratureError as exc:
        print(f"numerical error: {exc}", file=sys.stderr)
        return EXIT_NUMERICAL


def console_main() -> None:
    sys.exit(main())


if __name__ == "__main__":
    console_main()
