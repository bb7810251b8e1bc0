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
- snr_pair: `model.snr_pair` per variant on 4,096 seeded fades and on
  one scalar fade: DF's destination SNR is `a*(x*y)`, AF's `1/(beta*iota)`
  (see `model._inverse_form`);
- mc_memo: the stdout of MEMO_RUNS, one after the other in this process,
  which read and fill its memo of block fades: a kept plan cold and then
  warm on the pool, a plan whose FD fades evict each other, an FD plan over
  the memo's budget and an MC figure;
- figures_mc: the stdout of `figure fig4`..`fig7` at 10^5 trials and seed
  99, first at `--threads 1`, then at `--threads 2`: fig5's MC rows at their
  optima and the pool path.

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

import numpy as np

from ehrelay import cli
from ehrelay.analytic import outages
from ehrelay.lognormal import ChannelSpec, sample_sq_gain
from ehrelay.model import Columns, FadeSample, Scenario, SystemConfig, snr_pair
from ehrelay.montecarlo import McPlan, estimate_outage
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


if __name__ == "__main__":
    main()
