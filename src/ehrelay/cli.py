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
import functools
import json
import math
import os
import sys
from dataclasses import dataclass, fields, is_dataclass

# outage stays importable here: bench/spans.py hooks this name
from .analytic import outage, outages  # noqa: F401
from .grids import (FIGURE_PRESETS, SWEEP_AXES, SweepPoint, axis_points, boundary_points,
                    fmt_value, selftest_points)
from .model import FadeRangeError, Scenario, SystemConfig
from .montecarlo import McPlan, estimate_outage
# minimize_over_eh_param stays importable here: bench/spans.py hooks this name
from .optimize import minimize_many, minimize_over_eh_param
from .quadrature import QuadratureError

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
    except (OSError, UnicodeDecodeError) as exc:
        raise ConfigError(f"cannot read config file {path}: {exc}") from exc
    return entries


def _coerce(key: str, raw: str, template) -> object:
    if not isinstance(template, (int, float)):
        return raw
    kind = int if isinstance(template, int) else float
    try:
        return kind(raw)
    except ValueError as exc:
        what = "an integer" if kind is int else "a number"
        raise ConfigError(f"{key}: expected {what}, got {raw!r}") from exc


def apply_entries(settings: dict, entries: dict[str, str], source: str) -> None:
    for key, raw in entries.items():
        if key not in settings:
            raise ConfigError(f"{key}: unknown key (from {source})")
        settings[key] = _coerce(key, raw, settings[key])


def build_system(settings: dict) -> SystemConfig:
    return _construct("system", _from_settings, SystemConfig, settings, "system.")


def build_scenario(settings: dict) -> Scenario:
    label = "-".join(settings[f"scenario.{part}"] for part in ("duplex", "relay", "eh"))
    return _construct("scenario", Scenario.from_label, label, settings["scenario.tau"],
                      settings["scenario.rho"], settings["scenario.pc_fraction"])


def build_plan(settings: dict) -> McPlan:
    return _construct("mc", _from_settings, McPlan, settings, "mc.")


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
        return ",".join(fmt_value(value) for value in vars(self).values())


CSV_HEADER = ",".join(f.name for f in fields(Row))


def run_points(points, plan, threads) -> tuple[list[Row], list[str]]:
    """Sweep-ordered rows (analytic values from one `outages` and one `minimize_many` call) and
    dataset notes: one names every optimize point that fell back to the dense grid. With a
    `plan`, each row makes one `estimate_outage` call at `plan` as it is (at its optimum for an
    optimize point), so rows share their fades through the process's read-only memo of whole
    block fades, one per (block, channels) (see montecarlo._block_fade)."""
    plain = iter(outages([(p.cfg, p.scenario) for p in points if not p.optimize]).tolist())
    optima = iter(minimize_many([(p.cfg, p.scenario) for p in points if p.optimize]))
    rows, fallbacks = [], []
    for p in points:
        scenario = p.scenario
        if p.optimize:
            result = next(optima)
            scenario, value = scenario.with_eh_param(result.arg_opt), result.value_opt
            if result.non_unimodal:
                fallbacks.append(f"{p.curve} {p.axis}={fmt_value(p.axis_value)}")
        else:
            value = next(plain)
        mc = ()
        if plan is not None:
            est = estimate_outage(p.cfg, scenario, plan, threads=threads)
            mc = (est.value, est.stderr, est.trials, plan.seed)
        rows.append(Row(p.curve, p.axis, p.axis_value, value, *mc))
    notes = [f"dense-grid fallback (several local minima): {'; '.join(fallbacks)}"]
    return rows, (notes if fallbacks else [])


def dataset_text(settings: dict, rows: list[Row], fmt: str, notes: list[str]) -> str:
    # output.path names the file being written; echoing it would make
    # otherwise-identical datasets differ byte-wise
    echoed = {key: settings[key] for key in sorted(settings) if key != "output.path"}
    if fmt == "json":
        payload = {"settings": echoed, "notes": notes, "rows": [vars(r) for r in rows]}
        return json.dumps(payload, indent=2, sort_keys=True) + "\n"
    lines = [f"# {key} = {fmt_value(value)}" for key, value in echoed.items()]
    lines += [f"# note: {n}" for n in notes]
    lines.append(CSV_HEADER)
    lines += [r.csv() for r in rows]
    return "\n".join(lines) + "\n"


def _output_error(path: str, exc: OSError) -> ConfigError:
    return ConfigError(f"output.path: cannot write {path}: {exc.strerror or exc}")


def emit(settings: dict, rows: list[Row], notes: list[str]) -> None:
    """Write the dataset in output.format to output.path, or to stdout."""
    text = dataset_text(settings, rows, settings["output.format"], notes)
    path = settings["output.path"]
    if path:
        try:
            with open(path, "w", encoding="utf-8", newline="") as fh:
                fh.write(text)
        except OSError as exc:
            raise _output_error(path, exc) from exc
    else:
        sys.stdout.write(text)


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
    path = settings["output.path"]
    if path and hasattr(args, "out"):  # a command that writes a dataset (not selftest)
        # fail before evaluating anything, and leave what is at the path as it was
        existed = os.path.lexists(path)
        try:
            open(path, "a", encoding="utf-8").close()
        except OSError as exc:
            raise _output_error(path, exc) from exc
        if not existed:
            os.remove(path)
    return settings


def cmd_point(args, settings, cfg, plan) -> int:
    scenario = build_scenario(settings)
    (row,), _ = run_points([SweepPoint(scenario.label(), "none", 0.0, cfg, scenario)], plan,
                           args.threads)
    print(f"scenario           {scenario.label()}")
    print(f"analytic outage    {row.analytic:.9g}")
    if row.mc is not None:
        print(f"monte carlo        {row.mc:.9g}")
        print(f"difference         {abs(row.analytic - row.mc):.3e}")
        print(f"mc stderr          {row.mc_stderr:.3e}  (trials {row.trials}, seed {row.seed})")
    if settings["output.path"]:
        emit(settings, [row], [])
    return EXIT_OK


def cmd_sweep(args, settings, cfg, plan) -> int:
    tokens = settings["sweep.values"].replace(";", ",").split(",")
    values = [_coerce("sweep.values", tok.strip(), 0.0) for tok in tokens if tok.strip()]
    if not values:
        raise ConfigError("sweep.values: no values given")
    total = None
    if settings["sweep.total_distance"] != "":
        total = _coerce("sweep.total_distance", settings["sweep.total_distance"], 0.0)
        if not 0 < total < math.inf:
            raise ConfigError(f"sweep.total_distance: must be empty or finite and > 0, got {total}")
    points = _construct("sweep", axis_points, cfg, build_scenario(settings),
                        settings["sweep.axis"], values, total=total)
    emit(settings, *run_points(points, plan, args.threads))
    return EXIT_OK


def cmd_optimize(args, settings, cfg, plan) -> int:
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


def cmd_figure(args, settings, cfg, plan) -> int:
    points, notes = _construct(f"figure {args.which}", FIGURE_PRESETS[args.which], cfg)
    rows, fallbacks = run_points(points, plan, args.threads)
    emit(settings, rows, [f"figure = {args.which}", *notes, *fallbacks])
    return EXIT_OK


def cmd_selftest(args, settings, cfg, plan) -> int:
    rows, _ = run_points(selftest_points(cfg), plan, args.threads)
    # every row replays alone with `point --seed S --trials N`
    print(f"selftest: seed {plan.seed}, {plan.trials} trials per point")
    failures = 0
    for row in rows:
        tol = max(3.0 * row.mc_stderr, 1e-3)
        ok = abs(row.analytic - row.mc) <= tol
        failures += not ok
        print(f"{'PASS' if ok else 'FAIL'} {row.scenario} {row.axis}={fmt_value(row.axis_value)}: "
              f"analytic={row.analytic:.6f} mc={row.mc:.6f} "
              f"|diff|={abs(row.analytic - row.mc):.2e} tol={tol:.2e}")
    probes, _ = run_points(boundary_points(cfg), None, args.threads)
    for row in probes:
        val = row.analytic
        if row.axis == "cth":
            ok, check = val <= 1e-12, f"{val:.3e} <= 1e-12"
        else:
            ok, check = val >= 0.999, f"{val:.6f} >= 0.999"
        failures += not ok
        print(f"{'PASS' if ok else 'FAIL'} {row.scenario} {row.axis}={row.axis_value:g}: "
              f"{check}")
    print(f"selftest: {failures} failure(s)")
    return EXIT_SELFTEST if failures else EXIT_OK


@functools.cache  # parsing never changes the parser
def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="ehrelay",
        description="Ergodic outage of energy-harvesting dual-hop relays "
                    "in log-normal shadowing.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    def common(p, scenario_flags=True, mc=True, output=True):
        # main reports a flag p does not take with p's usage, and builds a plan unless no_mc
        p.set_defaults(parser=p, no_mc=not mc)
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
        settings = _settings_from_args(args)
        cfg = build_system(settings)
        plan = None if args.no_mc else build_plan(settings)
        return args.func(args, settings, cfg, plan)
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
