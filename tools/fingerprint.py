#!/usr/bin/env python3
"""Print SHA-256 fingerprints of ehrelay's numerical results. From the
repository root:

    PYTHONPATH=src python3 tools/fingerprint.py > tools/fingerprint.txt

Each line is a name and the SHA-256 of that result's bytes:

- fig4..fig7: the `figure <name> --no-mc` CSV;
- selftest: the `selftest --trials 20000` stdout;
- selftest_bench: the stdout of the benchmark's selftest-mc command,
  `selftest --trials 131072 --seed 1 --threads 1`;
- sweep_bench: the stdout of the benchmark's six sweep-lowoutage commands,
  a `sweep --axis ps` over 25 powers from 50 to 5000 W per HD variant at
  10^4 trials, seed 1 and `--threads 1`, one after the other;
- outages: the float.hex of `analytic.outages` over a fixed seeded batch
  of pairs of all eight variants, each pair one row of columns, then of
  each pair as a batch of one;
- minimize_many: every field of `optimize.minimize_many` on the batch's
  TSR and PSR pairs;
- estimate_outage: eight MC estimates (one per variant) at 2^17 trials;
- estimate_outage_pairs: the MC estimate of every pair of the batch at
  10^4 trials, one block each;
- snr_pair: `montecarlo.snr_pair` per variant on 4,096 seeded fades and on
  one scalar fade: DF's destination SNR is `a*(x*y)`, AF's `1/(beta*iota)`
  (see `montecarlo._inverse_form`);
- mc_memo: the stdout of MEMO_RUNS, one after the other in this process,
  which read and fill its memo of block fades: a kept plan cold and then
  warm on the pool, a plan whose FD fades evict each other, an FD plan over
  the memo's budget and an MC figure;
- figures_mc: the stdout of `figure fig4`..`fig7` at 10^5 trials and seed
  99, first at `--threads 1`, then at `--threads 2`: fig5's MC rows at their
  optima and the pool path;
- checks: the exception type and message (or `ok`) of constructing
  `ChannelSpec`, `SystemConfig` and `Scenario`, and of `grids.axis_curve`
  on every axis, over edge and bad inputs (see `check_outcomes`); a
  TypeError's text is the interpreter's.

tools/fingerprint.txt holds the output of the current code, and
tests/test_tools.py compares each line with it, so a change that moves any
bit of these results fails that test. A change that moves numbers on purpose
regenerates the file with the command above and says which lines moved. Like
the figure pins, the digests depend on numpy's generator and the platform's
libm. The package never imports this file.
"""

from __future__ import annotations

import contextlib
import hashlib
import io
import math

import numpy as np

from ehrelay import cli
from ehrelay.analytic import outages
from ehrelay.grids import SWEEP_AXES, axis_curve, base_scenario
from ehrelay.lognormal import ChannelSpec, sample_sq_gain
from ehrelay.model import Columns, FadeSample, Scenario, SystemConfig
from ehrelay.montecarlo import McPlan, estimate_outage, snr_pair
from ehrelay.optimize import minimize_many

LABELS = ("hd-df-tsr", "hd-df-psr", "hd-df-irr", "hd-af-tsr", "hd-af-psr", "hd-af-irr",
          "fd-df-tsr", "fd-af-tsr")
PAIRS_PER_LABEL = 100
BENCH_SELFTEST = "selftest --trials 131072 --seed 1 --threads 1"
BENCH_SWEEP_PS = ",".join(f"{50.0 * 100.0 ** (i / 24):.10g}" for i in range(25))
BENCH_SWEEPS = tuple(f"sweep --axis ps --values {BENCH_SWEEP_PS} --scenario {variant} "
                     "--trials 10000 --seed 1 --threads 1"
                     for variant in ("hd-df-tsr --tau 0.3", "hd-af-tsr --tau 0.3",
                                     "hd-df-psr --rho 0.5", "hd-af-psr --rho 0.5", "hd-df-irr",
                                     "hd-af-irr"))
MEMO_RUNS = ("selftest --trials 131072 --seed 7 --threads 1",
             "selftest --trials 131072 --seed 7 --threads 2",
             "selftest --trials 600000 --seed 3",
             "point --scenario fd-af-tsr --trials 1000000 --seed 11",
             "figure fig7 --trials 100000 --seed 99")
# the inputs of the checks line: numbers at and past every bound a check compares
# with, and values of the wrong type
EDGES = (math.nan, math.inf, -math.inf, 0.0, -0.0, 5e-324, 2.0**-1030, 1e-300, 1e-150, 1e150,
         1e200, 1e308, -1e308, -1.0, 0.5, 1.0, 2.0, "x", "2", None)
NAMES = ("hd", "fd", "df", "af", "tsr", "psr", "irr", "HD", "x", "", None)
CHECK_DRAWS = 3000
FIGURES_MC = tuple(f"figure {name} --trials 100000 --seed 99 --threads {threads}"
                   for threads in (1, 2) for name in ("fig4", "fig5", "fig6", "fig7"))


def digest(text: str) -> str:
    return hashlib.sha256(text.encode()).hexdigest()


def hexes(values) -> str:
    return " ".join(float(v).hex() for v in np.ravel(values))


def cli_stdout(argv) -> str:
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        cli.main(argv)
    return out.getvalue()


def random_pairs(rng: np.random.Generator):
    """PAIRS_PER_LABEL seeded (cfg, scenario) pairs per variant, spread over
    links from nearly certain to nearly impossible outage."""
    pairs = []
    for label in LABELS:
        for _ in range(PAIRS_PER_LABEL):
            cfg = SystemConfig(
                ps_watts=10 ** rng.uniform(0.0, 4.0), eta=rng.uniform(0.1, 1.0),
                path_loss_exp=rng.uniform(1.5, 3.0),
                d1_m=rng.uniform(1.0, 10.0), d2_m=rng.uniform(1.0, 10.0),
                sigma_a2_w=10 ** rng.uniform(-4.0, -1.0), sigma_c2_w=10 ** rng.uniform(-4.0, -1.0),
                sigma_d2_w=10 ** rng.uniform(-4.0, -1.0), cth=rng.uniform(0.0, 2.0),
                ch1=ChannelSpec(rng.uniform(-5.0, 5.0), rng.uniform(0.5, 4.0)),
                ch2=ChannelSpec(rng.uniform(-5.0, 5.0), rng.uniform(0.5, 4.0)),
                chg=ChannelSpec(rng.uniform(-20.0, 3.0), rng.uniform(0.5, 4.0)))
            param = rng.uniform(0.01, 0.99)
            pc = rng.uniform(0.0, 0.3) if "-df-" in label else 0.0
            pairs.append((cfg, Scenario.from_label(label, tau=param, rho=param, pc_fraction=pc)))
    return pairs


def snr_lines(pairs, rng: np.random.Generator) -> str:
    lines = []
    for cfg, scenario in pairs[::PAIRS_PER_LABEL]:
        gains = [sample_sq_gain(ch, rng, 4096) for ch in (cfg.ch1, cfg.ch2, cfg.chg)]
        if scenario.duplex == "hd":
            gains[2] = None
        scalars = (None if g is None else float(g[0]) for g in gains)
        for fade in (FadeSample(*gains), FadeSample(*scalars)):
            lines += [hexes(v) for v in snr_pair(cfg, scenario, fade) if v is not None]
    return "\n".join(lines)


def outcome(make) -> str:
    """The type and message of the exception that make() raises, or ok."""
    try:
        make()
    except Exception as exc:  # the type is part of the outcome
        return f"{type(exc).__name__}: {exc}"
    return "ok"


def check_outcomes(rng: np.random.Generator) -> str:
    """The outcome of each constructor and of axis_curve on EDGES (and, for
    Scenario's strings and the axis names, on NAMES): first each field set
    alone to each input, then CHECK_DRAWS seeded draws per kind in which each
    field takes an input with probability 1/4. Curve values are the numeric
    EDGES and None."""
    def draw(good, bad):
        return bad[rng.integers(len(bad))] if rng.random() < 0.25 else good

    makes = [lambda mu=mu, sigma=sigma: ChannelSpec(mu, sigma) for mu in EDGES for sigma in EDGES]
    system = {name: value for name, value in vars(SystemConfig()).items() if type(value) is float}
    makes += [lambda kw={name: v}: SystemConfig(**kw) for name in system for v in EDGES]
    makes += [lambda kw={k: draw(v, EDGES) for k, v in system.items()}: SystemConfig(**kw)
              for _ in range(CHECK_DRAWS)]
    bases = [vars(base_scenario(label)) for label in LABELS]
    bad = {name: NAMES if name in ("duplex", "relay", "eh") else EDGES for name in bases[0]}
    makes += [lambda kw={**base, name: v}: Scenario(**kw)
              for base in bases for name in bad for v in bad[name]]
    makes += [lambda kw={k: draw(v, bad[k]) for k, v in bases[rng.integers(len(bases))].items()}:
              Scenario(**kw) for _ in range(CHECK_DRAWS)]
    values = [v for v in EDGES if not isinstance(v, str)]
    cfgs = (SystemConfig(), SystemConfig(path_loss_exp=140.0), SystemConfig(d1_m=1e150))
    makes += [lambda axis=axis: axis_curve(cfgs[0], base_scenario(LABELS[0]), axis, [0.5])
              for axis in ("none", "TAU", "x", None)]
    makes += [lambda a=(cfg, base_scenario(label), axis, [v], "", total): axis_curve(*a)
              for cfg in cfgs for label in LABELS for axis in SWEEP_AXES for v in values
              for total in ((None, 30.0) if axis == "d1" else (None,))]
    for _ in range(CHECK_DRAWS):
        cfg, label = cfgs[rng.integers(len(cfgs))], LABELS[rng.integers(len(LABELS))]
        axis = SWEEP_AXES[rng.integers(len(SWEEP_AXES))]
        chosen = [draw(float(rng.uniform(0.05, 0.95)), values) for _ in range(rng.integers(1, 4))]
        total = 30.0 if rng.random() < 0.5 else None
        makes.append(lambda a=(cfg, base_scenario(label), axis, chosen, "", total): axis_curve(*a))
    return "\n".join(outcome(make) for make in makes)


def main() -> None:
    for name in ("fig4", "fig5", "fig6", "fig7"):
        print(name, digest(cli_stdout(["figure", name, "--no-mc"])))
    print("selftest", digest(cli_stdout(["selftest", "--trials", "20000"])))
    print("selftest_bench", digest(cli_stdout(BENCH_SELFTEST.split())))
    print("sweep_bench", digest("".join(cli_stdout(run.split()) for run in BENCH_SWEEPS)))
    rng = np.random.default_rng(20181)
    pairs = random_pairs(rng)
    rows = [Columns(*pair) for pair in pairs]
    alone = [outages([row])[0] for row in rows]
    print("outages", digest(hexes(outages(rows)) + "\n" + hexes(alone)))
    tunable = [row for row, (_, s) in zip(rows, pairs) if s.eh_param_name is not None]
    print("minimize_many", digest("\n".join(
        f"{r.arg_opt.hex()} {r.value_opt.hex()} {r.evaluations} {r.bracket.hex()} "
        f"{r.non_unimodal}" for r in minimize_many(tunable))))
    plan = McPlan(trials=1 << 17, seed=314159)
    print("estimate_outage", digest("\n".join(
        f"{e.value.hex()} {float(e.stderr).hex()}"
        for e in (estimate_outage(cfg, s, plan) for cfg, s in pairs[::PAIRS_PER_LABEL]))))
    plan = McPlan(trials=10_000, seed=314159)
    print("estimate_outage_pairs", digest("\n".join(
        f"{e.value.hex()} {float(e.stderr).hex()}"
        for e in (estimate_outage(cfg, s, plan) for cfg, s in pairs))))
    print("snr_pair", digest(snr_lines(pairs, rng)))
    print("mc_memo", digest("".join(cli_stdout(run.split()) for run in MEMO_RUNS)))
    print("figures_mc", digest("".join(cli_stdout(run.split()) for run in FIGURES_MC)))
    print("checks", digest(check_outcomes(np.random.default_rng(4207))))


if __name__ == "__main__":
    main()
