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
from dataclasses import asdict, astuple, dataclass, fields, is_dataclass, replace

from .analytic import outage, outages
from .lognormal import ChannelSpec
from .model import FadeRangeError, Scenario, SystemConfig
from .montecarlo import McPlan, estimate_outage
# minimize_over_eh_param stays importable here: bench/spans.py hooks this name
from .optimize import minimize_many, minimize_over_eh_param
from .quadrature import QuadratureError

SWEEP_AXES = ("tau", "rho", "cth", "d1", "sigma_db", "ps", "sigma_g_db")

OUTPUT_FORMATS = ("csv", "json")

EXIT_OK = 0
EXIT_CONFIG = 2
EXIT_NUMERICAL = 3
EXIT_SELFTEST = 4


class ConfigError(Exception):
    """User-facing configuration problem; message names the offending key."""


def _flatten(obj, prefix: str) -> dict:
    """Dotted keys and values of a dataclass; a nested one adds a key level."""
    out = {}
    for f in fields(obj):
        value = getattr(obj, f.name)
        if is_dataclass(value):
            out.update(_flatten(value, f"{prefix}{f.name}."))
        else:
            out[prefix + f.name] = value
    return out


def _from_settings(cls, settings: dict, prefix: str):
    """The inverse of _flatten: construct cls from its dotted keys."""
    kwargs = {}
    for f in fields(cls):
        if is_dataclass(f.default):
            kwargs[f.name] = _from_settings(type(f.default), settings, f"{prefix}{f.name}.")
        else:
            kwargs[f.name] = settings[prefix + f.name]
    return cls(**kwargs)


def _construct(section: str, build, *args, **kwargs):
    """build(*args, **kwargs), with a rejected value as ConfigError(section)."""
    try:
        return build(*args, **kwargs)
    except ValueError as exc:
        raise ConfigError(f"{section}: {exc}") from exc


def default_settings() -> dict:
    return {
        **_flatten(SystemConfig(), "system."),
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
    return _construct("system", _from_settings, SystemConfig, settings, "system.")


def build_scenario(settings: dict) -> Scenario:
    eh = settings["scenario.eh"]
    return _construct(
        "scenario", Scenario,
        duplex=settings["scenario.duplex"],
        relay=settings["scenario.relay"],
        eh=eh,
        tau=settings["scenario.tau"] if eh == "tsr" else None,
        rho=settings["scenario.rho"] if eh == "psr" else None,
        pc_fraction=settings["scenario.pc_fraction"],
    )


def build_plan(settings: dict) -> McPlan:
    return _construct("mc", _from_settings, McPlan, settings, "mc.")


def _fmt(value) -> str:
    if value is None or value == "":
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


@dataclass(frozen=True)
class Row:
    """One dataset row; the fields are the CSV columns and JSON row keys."""

    scenario: str
    axis: str
    axis_value: float
    analytic: float
    mc: float | None = None
    mc_stderr: float | None = None
    trials: int | None = None
    seed: int | None = None

    def csv(self) -> str:
        return ",".join(_fmt(value) for value in astuple(self))


CSV_HEADER = ",".join(f.name for f in fields(Row))


def evaluate_point(point: SweepPoint, scenario: Scenario, analytic: float,
                   plan: McPlan | None, threads: int) -> Row:
    """The row of one point, with its MC estimate at `scenario` (the point's own or its optimum)."""
    if plan is None:
        return Row(point.curve, point.axis, point.axis_value, analytic)
    est = estimate_outage(point.cfg, scenario, plan, threads=threads)
    return Row(point.curve, point.axis, point.axis_value, analytic,
               est.value, est.stderr, est.trials, plan.seed)


def run_points(points, plan, threads) -> tuple[list[Row], list[str]]:
    """Sweep-ordered rows (analytic values from one `outages` and one `minimize_many` call) and
    dataset notes: one names every optimize point that fell back to the dense grid. Every MC
    estimate uses `plan` as it is, so rows share their fades (see montecarlo._block_fade)."""
    plain = iter(outages([(p.cfg, p.scenario) for p in points if not p.optimize]))
    optima = iter(minimize_many([(p.cfg, p.scenario) for p in points if p.optimize]))
    scenarios, values, fallbacks = [], [], []
    for p in points:
        if p.optimize:
            result = next(optima)
            scenarios.append(p.scenario.with_eh_param(result.arg_opt))
            values.append(result.value_opt)
            if result.non_unimodal:
                fallbacks.append(f"{p.curve} {p.axis}={_fmt(p.axis_value)}")
        else:
            scenarios.append(p.scenario)
            values.append(next(plain))
    rows = [evaluate_point(p, s, v, plan, threads) for p, s, v in zip(points, scenarios, values)]
    notes = [f"dense-grid fallback (several local minima): {'; '.join(fallbacks)}"]
    return rows, (notes if fallbacks else [])


def dataset_text(settings: dict, rows: list[Row], fmt: str, notes: list[str]) -> str:
    # output.path names the file being written; echoing it would make
    # otherwise-identical datasets differ byte-wise
    echoed = {key: settings[key] for key in sorted(settings) if key != "output.path"}
    if fmt == "json":
        payload = {"settings": echoed, "notes": notes, "rows": [asdict(r) for r in rows]}
        return json.dumps(payload, indent=2, sort_keys=True) + "\n"
    lines = [f"# {key} = {_fmt(value)}" for key, value in echoed.items()]
    lines += [f"# note: {n}" for n in notes]
    lines.append(CSV_HEADER)
    lines += [r.csv() for r in rows]
    return "\n".join(lines) + "\n"


def emit(settings: dict, rows: list[Row], notes: list[str]) -> None:
    """Write the dataset in output.format to output.path, or to stdout."""
    text = dataset_text(settings, rows, settings["output.format"], notes)
    if settings["output.path"]:
        with open(settings["output.path"], "w", encoding="utf-8", newline="") as fh:
            fh.write(text)
    else:
        sys.stdout.write(text)


# ---------------------------------------------------------------------------
# axis application and curves

def apply_axis(cfg: SystemConfig, scenario: Scenario, total: str | float,
               axis: str, value: float) -> tuple[SystemConfig, Scenario]:
    """(cfg, scenario) with `axis` set to `value`. A d1 sweep with a
    `total` distance other than "" keeps d1 + d2 equal to it."""
    try:
        if axis in ("tau", "rho"):
            if scenario.eh_param_name != axis:
                eh = "tsr" if axis == "tau" else "psr"
                raise ConfigError(f"sweep.axis: {axis} sweeps need a {eh} scenario")
            return cfg, scenario.with_eh_param(value)
        if axis == "cth":
            return replace(cfg, cth=value), scenario
        if axis == "d1":
            if total != "":
                d2 = total - value
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


def axis_points(cfg: SystemConfig, base: Scenario, axis: str, values, curve: str = "",
                total: str | float = "", optimize: bool = False) -> list[SweepPoint]:
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
# figure presets

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
                cfg_ps, _ = apply_axis(cfg, base, "", "ps", ps)
                points += axis_points(cfg_ps, base, "sigma_db", sigmas,
                                      f"{base.label()} ps={_fmt(ps)}", optimize=eh != "irr")
    return points, ["sigma_db sweep values are implementation-chosen"]


def preset_fig6(cfg: SystemConfig):
    """Outage versus relay position under a fixed 30 m end-to-end distance."""
    d1_values = [float(d) for d in range(3, 28, 2)]
    points = []
    for pc in (0.0, 0.01, 0.02):
        points += axis_points(cfg, Scenario("hd", "df", "irr", pc_fraction=pc), "d1",
                              d1_values, f"hd-df-irr pc={_fmt(pc)}", total=30.0)
    points += axis_points(cfg, Scenario("hd", "af", "irr"), "d1", d1_values, total=30.0)
    return points, ["d1 + d2 fixed at 30 m"]


def preset_fig7(cfg: SystemConfig):
    """Outage versus threshold rate for FD and HD TSR systems at tau = 0.01."""
    cth_values = [round(0.5 + 0.25 * i, 2) for i in range(15)]
    points = []
    for ps in (1.0, 10.0):
        for relay in ("df", "af"):
            fd = Scenario("fd", relay, "tsr", tau=0.01)
            cfg_ps, _ = apply_axis(cfg, fd, "", "ps", ps)
            for sg2 in (2.0, 5.0):
                c, _ = apply_axis(cfg_ps, fd, "", "sigma_g_db", math.sqrt(sg2))
                points += axis_points(c, fd, "cth", cth_values,
                                      f"fd-{relay}-tsr ps={_fmt(ps)} sg2={_fmt(sg2)}")
            points += axis_points(cfg_ps, Scenario("hd", relay, "tsr", tau=0.01), "cth",
                                  cth_values, f"hd-{relay}-tsr ps={_fmt(ps)}")
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
            c, _ = apply_axis(cfg, fd, "", "sigma_g_db", math.sqrt(sg2))
            points += axis_points(c, fd, "tau", grid, f"fd-{relay}-tsr sg2={_fmt(sg2)}")
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


# ---------------------------------------------------------------------------
# commands

# command-line flags (argparse dest) and the settings key each one sets
FLAG_KEYS = (("trials", "mc.trials"), ("seed", "mc.seed"), ("out", "output.path"),
             ("format", "output.format"), ("tau", "scenario.tau"), ("rho", "scenario.rho"),
             ("pc", "scenario.pc_fraction"), ("axis", "sweep.axis"), ("values", "sweep.values"))


def _settings_from_args(args) -> dict:
    settings = default_settings()
    if args.config:
        apply_entries(settings, load_config_file(args.config), args.config)
    for pair in args.override or []:
        if "=" not in pair:
            raise ConfigError(f"--override {pair!r}: expected key=value")
        key, _, value = pair.partition("=")
        apply_entries(settings, {key.strip(): value.strip()}, "--override")
    for flag, key in FLAG_KEYS:
        value = getattr(args, flag, None)
        if value is not None:
            settings[key] = value
    if getattr(args, "scenario", None):
        parts = args.scenario.lower().split("-")
        if len(parts) != 3:
            raise ConfigError(f"--scenario {args.scenario!r}: expected duplex-relay-eh")
        settings["scenario.duplex"], settings["scenario.relay"], settings["scenario.eh"] = parts
    if settings["output.format"] not in OUTPUT_FORMATS:
        raise ConfigError(f"output.format: must be one of {OUTPUT_FORMATS}, "
                          f"got {settings['output.format']!r}")
    return settings


def cmd_point(args) -> int:
    settings = _settings_from_args(args)
    cfg = build_system(settings)
    scenario = build_scenario(settings)
    analytic = outage(cfg, scenario)
    print(f"scenario           {scenario.label()}")
    print(f"analytic outage    {analytic.value:.9g}")
    plan = None if args.no_mc else build_plan(settings)
    row = evaluate_point(SweepPoint(scenario.label(), "none", 0.0, cfg, scenario), scenario,
                         analytic.value, plan, args.threads)
    if plan is not None:
        print(f"monte carlo        {row.mc:.9g}")
        print(f"difference         {abs(row.analytic - row.mc):.3e}")
        print(f"mc stderr          {row.mc_stderr:.3e}  (trials {row.trials}, seed {row.seed})")
    if settings["output.path"]:
        emit(settings, [row], [])
    return EXIT_OK


def cmd_sweep(args) -> int:
    settings = _settings_from_args(args)
    axis = settings["sweep.axis"]
    raw_values = str(settings["sweep.values"])
    try:
        values = [float(tok) for tok in raw_values.replace(";", ",").split(",") if tok.strip()]
    except ValueError as exc:
        raise ConfigError(f"sweep.values: {exc}") from exc
    if not values:
        raise ConfigError("sweep.values: no values given")
    total = settings["sweep.total_distance"]
    if total != "":
        total = _coerce("sweep.total_distance", total, 0.0)
        if not 0 < total < math.inf:
            raise ConfigError(f"sweep.total_distance: must be empty or finite and > 0, got {total}")
    cfg = build_system(settings)
    scenario = build_scenario(settings)
    points = axis_points(cfg, scenario, axis, values, total=total)
    plan = None if args.no_mc else build_plan(settings)
    emit(settings, *run_points(points, plan, args.threads))
    return EXIT_OK


def cmd_optimize(args) -> int:
    settings = _settings_from_args(args)
    cfg = build_system(settings)
    scenario = build_scenario(settings)
    param = scenario.eh_param_name
    if param is None:
        raise ConfigError("scenario.eh: optimize needs a tsr or psr scenario")
    result = _construct("--tol", minimize_over_eh_param, cfg, scenario, tol=args.tol)
    print(f"scenario           {scenario.label()}")
    print(f"optimal {param}        {result.arg_opt:.6f}")
    print(f"outage at optimum  {result.value_opt:.9g}")
    print(f"evaluations        {result.evaluations}")
    print(f"bracket width      {result.bracket:.2e}")
    if result.non_unimodal:
        print("warning: multiple grid minima seen; dense-scan fallback used")
    if settings["output.path"]:
        emit(settings, [Row(scenario.label(), param, result.arg_opt, result.value_opt)], [])
    return EXIT_OK


def cmd_figure(args) -> int:
    settings = _settings_from_args(args)
    cfg = build_system(settings)
    points, notes = FIGURE_PRESETS[args.which](cfg)
    plan = None if args.no_mc else build_plan(settings)
    rows, fallbacks = run_points(points, plan, args.threads)
    emit(settings, rows, [f"figure = {args.which}", *notes, *fallbacks])
    return EXIT_OK


def cmd_selftest(args) -> int:
    settings = _settings_from_args(args)
    cfg = build_system(settings)
    plan = build_plan(settings)
    rows, _ = run_points(selftest_points(cfg), plan, args.threads)
    # every row replays alone with `point --seed S --trials N`
    print(f"selftest: seed {plan.seed}, {plan.trials} trials per point")
    failures = 0
    for row in rows:
        tol = max(3.0 * row.mc_stderr, 1e-3)
        ok = abs(row.analytic - row.mc) <= tol
        failures += not ok
        print(f"{'PASS' if ok else 'FAIL'} {row.scenario} {row.axis}={_fmt(row.axis_value)}: "
              f"analytic={row.analytic:.6f} mc={row.mc:.6f} "
              f"|diff|={abs(row.analytic - row.mc):.2e} tol={tol:.2e}")
    for point in boundary_points(cfg):
        val = outage(point.cfg, point.scenario).value
        if point.axis == "cth":
            ok, check = val <= 1e-12, f"{val:.3e} <= 1e-12"
        else:
            ok, check = val >= 0.999, f"{val:.6f} >= 0.999"
        failures += not ok
        print(f"{'PASS' if ok else 'FAIL'} {point.curve} {point.axis}={point.axis_value:g}: "
              f"{check}")
    print(f"selftest: {failures} failure(s)")
    return EXIT_SELFTEST if failures else EXIT_OK


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="ehrelay",
        description="Ergodic outage of energy-harvesting dual-hop relays "
                    "in log-normal shadowing.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    def common(p, scenario_flags=True, mc=True, output=True):
        p.set_defaults(parser=p)  # main reports a flag p does not take with p's usage
        p.add_argument("--config", help="key = value configuration file")
        p.add_argument("--override", action="append", metavar="KEY=VALUE",
                       help="set any config key; repeatable")
        if mc:
            p.add_argument("--trials", type=int, help="Monte Carlo trials per point")
            p.add_argument("--seed", type=int, help="master random seed")
            p.add_argument("--threads", type=int, default=1, help="worker threads")
        if output:
            p.add_argument("--out", help="output path (default: stdout for datasets)")
            p.add_argument("--format", choices=OUTPUT_FORMATS, help="output format")
        if mc and output:  # a dataset's MC columns are optional; selftest always runs MC
            p.add_argument("--no-mc", action="store_true", help="skip Monte Carlo")
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
    common(p_opt, mc=False)
    p_opt.add_argument("--tol", type=float, default=1e-3,
                       help="parameter tolerance, in [1e-12, 1)")
    p_opt.set_defaults(func=cmd_optimize)

    p_fig = sub.add_parser("figure", help="emit a bundled dataset")
    p_fig.add_argument("which", choices=sorted(FIGURE_PRESETS))
    common(p_fig, scenario_flags=False)
    p_fig.set_defaults(func=cmd_figure)

    p_self = sub.add_parser("selftest", help="run the analytic-vs-MC grid")
    common(p_self, scenario_flags=False, output=False)
    p_self.set_defaults(func=cmd_selftest)

    return parser


def main(argv=None) -> int:
    args, unknown = build_parser().parse_known_args(argv)
    if unknown:
        args.parser.error(f"unrecognized arguments: {' '.join(unknown)}")
    try:
        if getattr(args, "threads", 1) < 1:
            raise ConfigError(f"--threads: must be >= 1, got {args.threads}")
        return args.func(args)
    except ConfigError as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return EXIT_CONFIG
    except (QuadratureError, FadeRangeError) as exc:  # MC gains outside the float64 range
        print(f"numerical error: {exc}", file=sys.stderr)
        return EXIT_NUMERICAL


def console_main() -> None:
    sys.exit(main())


if __name__ == "__main__":
    console_main()
