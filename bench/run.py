#!/usr/bin/env python3
"""Benchmark of the ehrelay command line, run in one process.

    python3 bench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the repository root; the package is imported from ./src.
Workloads: figures-analytic, selftest-mc, sweep-lowoutage (see
bench/README.md). With --trace 0 the run measures the end-to-end metrics:
set-up time (CPU seconds of a fresh interpreter running `import
ehrelay.cli`, median over several subprocesses), the lower quartile of
the calibrated CPU seconds of one pass after a warm-up pass, the points
per second that gives, and the process's peak RSS. CPU time, not wall
time, because on a shared VM the wall time also holds CPU steal;
calibrated by a fixed kernel timed around each pass, because the host's
speed drifts; the lower quartile, because interference only ever slows a
pass and the kernel does not cancel all of it. With --trace 1 it
alternates plain and traced passes and runs the layer harness, and reports
the per-layer metrics. Every pass is checked against bench/reference.json,
and the untimed warm-up pass, run under the trace hooks, also counts the
trials each Monte Carlo estimate decides.

The last line of stdout is one JSON object: correct, attempted, failed and
metrics ({name: {value, unit}}). The line before it is a JSON summary with
the environment, pass times, checks, and the metrics that are 0 on some
workload ({name: {value, unit}}).
"""

from __future__ import annotations

import argparse
import contextlib
import gc
import io
import json
import math
import os
import resource
import statistics
import subprocess
import sys
import time
import traceback

import layers
import spans
from workloads import WORKLOADS

BENCH_DIR = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(BENCH_DIR)
SRC = os.path.join(ROOT, "src")
REFERENCE = os.path.join(BENCH_DIR, "reference.json")
OUT_DIR = os.path.join(BENCH_DIR, "out")

SETUP_RUNS = 5
MIN_PASSES = 3  # at least 2: pass_s is a quartile
# pass_s is given in seconds of a machine on which calibration_cpu() takes
# this long (about its time on the machine used to define the benchmark)
CALIBRATION_REF_S = 0.020

END_TO_END_UNITS = {"setup_s": "s", "pass_s": "s", "points_per_s": "1/s", "peak_rss_mb": "MB"}
PER_LAYER_UNITS = {
    "cli.self.s": "s", "cli.run_points.s": "s",
    "analytic.self.s": "s", "analytic.calls": "count", "analytic.us_per_call": "us",
    **{f"analytic.{label}.us_per_call": "us" for label in layers.LABELS},
    "quadrature.self.s": "s", "quadrature.calls": "count", "quadrature.us_per_call": "us",
    "quadrature.integrand_evals_per_call": "count", "quadrature.share_of_analytic": "ratio",
    "optimize.ms_per_call": "ms", "optimize.evals_per_call": "count",
    "optimize.scan.s": "s", "optimize.refine.s": "s",
    "lognormal.sq_gain_cdf.ns_per_call": "ns",
    "lognormal.product_ccdf.ns_per_call": "ns", "lognormal.sample_sq_gain.ns_per_sample": "ns",
    "model.outage_indicator.ns_per_trial": "ns",
    "montecarlo.self.s": "s",
    "montecarlo.draw.ns_per_trial": "ns", "montecarlo.decide.ns_per_trial": "ns",
    "montecarlo.mtrials_per_s.t1": "Mtrial/s", "montecarlo.mtrials_per_s.t2": "Mtrial/s",
    "montecarlo.mtrials_per_s.short": "Mtrial/s", "montecarlo.thread_speedup": "ratio",
    "setup.scipy_share": "ratio", "trace.overhead": "ratio",
}
# Metrics that are 0 on some workload or on correct code. BENCHMARK.json
# admits none of them, so the summary line prints them: these two under
# "metrics", the traced-pass numbers under "traced_pass", each with its unit.
SUMMARY_UNITS = {"error_rate": "ratio", "mtrials_per_s": "Mtrial/s"}
TRACED_ONLY_UNITS = {
    "cli.dataset_text.s": "s", "quadrature.errors": "count", "analytic.quad_free_ratio": "ratio",
    "optimize.calls": "count", "optimize.non_unimodal": "count", "montecarlo.blocks": "count",
    **{f"{layer}.self.s": "s" for layer in ("optimize", "model", "lognormal")},
}


def measure_setup(runs: int) -> tuple[list[float], list[float]]:
    """CPU and wall seconds of fresh interpreters running `import
    ehrelay.cli`. One extra run first fills the file cache and the bytecode
    cache. CPU time (user + sys of the child) is the metric: on a shared VM
    the wall time also holds CPU steal, which moved whole sets of runs by
    over 25 %."""
    env = dict(os.environ, PYTHONPATH=SRC)
    argv = [sys.executable, "-c", "import ehrelay.cli"]
    cpu, wall = [], []
    for i in range(runs + 1):
        r0 = resource.getrusage(resource.RUSAGE_CHILDREN)
        t0 = time.perf_counter()
        subprocess.run(argv, env=env, check=True, timeout=120)
        t1 = time.perf_counter()
        r1 = resource.getrusage(resource.RUSAGE_CHILDREN)
        if i:
            cpu.append(r1.ru_utime - r0.ru_utime + r1.ru_stime - r0.ru_stime)
            wall.append(t1 - t0)
    return cpu, wall


def calibration_cpu() -> float:
    """CPU seconds of a fixed kernel that touches no ehrelay code: scalar
    float math in the interpreter, like the analytic path, then numpy
    vector math on 65,536 values, like the MC path. Pass times are divided
    by it, so that changes in the host's speed cancel out."""
    import numpy as np

    a = np.linspace(1.0, 2.0, 1 << 16)
    c0 = time.process_time()
    acc = 0.0
    for i in range(30_000):
        acc += math.erfc(i * 1e-4) * math.exp(-i * 1e-5)
    for _ in range(20):
        acc += float(np.count_nonzero(np.log2(1.0 + a * a) < 1.5))
    return time.process_time() - c0


def run_pass(commands, tracer=None):
    """Run every command through ehrelay.cli.main; return the pass's CPU and
    wall seconds, the stdout of each call and each exit code (None when it
    raised)."""
    from ehrelay import cli

    texts, rcs = [], []
    gc.collect()
    c0, t0 = time.process_time(), time.perf_counter()
    for argv in commands:
        out, err = io.StringIO(), io.StringIO()
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            try:
                rc = (tracer.call("cli.main", "cli", cli.main, argv) if tracer
                      else cli.main(argv))
            except Exception:  # the program failed; its points count as failed
                rc = None
                err.write(traceback.format_exc())
        texts.append(out.getvalue())
        rcs.append(rc)
        if rc not in (0, 4):
            sys.stderr.write(f"{' '.join(argv)}: exit {rc}\n{err.getvalue()}")
    return time.process_time() - c0, time.perf_counter() - t0, texts, rcs


class Checker:
    """Checks each pass's points and that every pass prints the same rows.
    Points outside the selftest's own 3-sigma rule are counted on the first
    pass only (later passes print the same rows). Each MC estimate whose
    trial count is checked counts as one more point."""

    def __init__(self, workload, reference, tiny):
        self.workload, self.reference, self.tiny = workload, reference, tiny
        self.first_rows = None
        self.attempted = self.failed = self.rule_exceedances = 0

    def add_pass(self, texts, rcs) -> None:
        points = self.workload.check(texts, rcs, self.reference, self.tiny)
        rows = [p.row for p in points]
        if self.first_rows is None:
            self.first_rows = rows
            self.rule_exceedances = sum(not p.selftest_rule_ok for p in points)
        for i, p in enumerate(points):
            same = i < len(self.first_rows) and rows[i] == self.first_rows[i]
            self.attempted += 1
            self.failed += not (p.ok and same)

    def add_trial_counts(self, counted: list[int], expected: list[int]) -> None:
        for i in range(max(len(counted), len(expected))):
            self.attempted += 1
            self.failed += counted[i:i + 1] != expected[i:i + 1]


def _median_metrics(samples: list[dict]) -> dict:
    keys = {k for s in samples for k in s}
    return {k: statistics.median(s[k] for s in samples if k in s) for k in keys}


def run(workload_name: str, seed: int, seconds: float, trace: bool,
        tiny: bool = False, reference: dict | None = None) -> tuple[dict, dict]:
    """One benchmark run; returns (result, summary)."""
    workload = WORKLOADS[workload_name]
    if reference is None:
        with open(REFERENCE, encoding="utf-8") as fh:
            reference = json.load(fh)
    commands = workload.commands(seed, tiny)
    checker = Checker(workload, reference, tiny)
    summary: dict = {"workload": workload_name, "seed": seed, "tiny": tiny}
    metrics: dict[str, float] = {}
    notes: list[str] = []

    if not trace:
        cpu, wall = measure_setup(1 if tiny else SETUP_RUNS)
        summary.update(setup_cpu_s=cpu, setup_wall_s=wall)
        metrics["setup_s"] = statistics.median(cpu)

    # warm-up, untimed, under the trace hooks so that the trials each MC
    # estimate really decides can be counted
    tracer = spans.Tracer()
    with spans.installed(tracer):
        _, _, texts, rcs = run_pass(commands, tracer)
    checker.add_pass(texts, rcs)
    counted = spans.mc_trials_per_call(tracer)
    if counted is None:
        notes.append("MC trial count not checked: hook missing")
    else:
        checker.add_trial_counts(counted, [workload.mc_trials(tiny)] * workload.mc_points)

    plain, plain_wall, calibration, traced, layer_samples = [], [], [], [], []
    first_tracer = None
    min_passes = 2 if tiny else MIN_PASSES
    start = time.perf_counter()
    while time.perf_counter() - start < seconds or len(plain) < min_passes:
        k0 = calibration_cpu()
        cpu, wall, texts, rcs = run_pass(commands)
        calibration.append(0.5 * (k0 + calibration_cpu()))
        checker.add_pass(texts, rcs)
        plain.append(cpu)
        plain_wall.append(wall)
        if trace:
            tracer = spans.Tracer()
            with spans.installed(tracer):
                cpu, _, texts, rcs = run_pass(commands, tracer)
            checker.add_pass(texts, rcs)
            traced.append(cpu)
            layer_samples.append(spans.layer_metrics(tracer))
            first_tracer = first_tracer or tracer

    pass_cpu = statistics.median(plain)
    ratios = [c / k for c, k in zip(plain, calibration)]
    pass_s = CALIBRATION_REF_S * statistics.quantiles(ratios, n=4)[0]
    trials = workload.trials_per_pass(tiny)
    summary.update(passes=len(plain), pass_cpu_s=plain, pass_wall_s=plain_wall,
                   calibration_cpu_s=calibration, points_per_pass=workload.points_per_pass,
                   trials_per_pass=trials)
    extra: dict[str, float] = {}
    if trials:
        extra["mtrials_per_s"] = trials / pass_s / 1e6
    else:
        notes.append("absent: mtrials_per_s (no Monte Carlo on this workload)")
    if trace:
        # The traced pass's self times of layers a workload does not reach
        # are 0, so the per-layer list takes those layers' numbers from the
        # harness; the summary keeps every traced-pass number.
        traced_metrics = _median_metrics(layer_samples)
        traced_units = {**PER_LAYER_UNITS, **TRACED_ONLY_UNITS}
        summary["traced_pass"] = {k: {"value": v, "unit": traced_units[k]}
                                  for k, v in sorted(traced_metrics.items())}
        harness_metrics, harness_notes = layers.harness(tiny)
        metrics.update((k, v) for k, v in traced_metrics.items() if k in PER_LAYER_UNITS)
        metrics.update(harness_metrics)
        metrics["trace.overhead"] = statistics.median(traced) / pass_cpu - 1.0
        notes += harness_notes
        share = layers.scipy_import_share(SRC)
        if share is not None:
            metrics["setup.scipy_share"] = share
        notes += [f"hook missing: {h}" for h in first_tracer.missing]
        os.makedirs(OUT_DIR, exist_ok=True)
        spans_path = os.path.join(OUT_DIR, f"spans-{workload_name}.jsonl")
        first_tracer.write(spans_path)
        summary.update(traced_pass_s=traced, spans=os.path.relpath(spans_path, ROOT))
        units = PER_LAYER_UNITS
    else:
        metrics["pass_s"] = pass_s
        metrics["points_per_s"] = workload.points_per_pass / pass_s
        metrics["peak_rss_mb"] = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
        units = END_TO_END_UNITS

    absent = sorted(set(units) - set(metrics))
    notes += [f"absent: {name} (hook or harness item missing)" for name in absent]
    extra["error_rate"] = checker.failed / checker.attempted
    summary.update(
        metrics={k: {"value": extra[k], "unit": u} for k, u in SUMMARY_UNITS.items()
                 if k in extra},
        selftest_rule_exceedances=checker.rule_exceedances,
        notes=notes,
        env=layers.environment(ROOT),
        mc_block_working_set=_working_set(workload.mc_block),
    )
    result = {
        "correct": checker.failed == 0,
        "attempted": checker.attempted,
        "failed": checker.failed,
        "metrics": {k: {"value": metrics[k], "unit": u} for k, u in units.items() if k in metrics},
    }
    return result, summary


def _working_set(block: int | None) -> dict | None:
    """Bytes of fade arrays per MC block: block trials x 8 B x arrays
    (2 for half duplex, 3 for full duplex); compare with the L2 size."""
    if block is None:
        return None
    return {"block_trials": block, "bytes_per_array": 8 * block,
            "fade_bytes_hd": 2 * 8 * block, "fade_bytes_fd": 3 * 8 * block}


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    if not os.path.isfile(os.path.join(SRC, "ehrelay", "cli.py")):
        print(f"bench: no ehrelay sources under {SRC}", file=sys.stderr)
        return 2
    if not os.path.isfile(REFERENCE):
        print(f"bench: missing {REFERENCE}; run bench/capture_reference.py", file=sys.stderr)
        return 2
    sys.path.insert(0, SRC)
    import ehrelay

    if not os.path.abspath(ehrelay.__file__).startswith(SRC + os.sep):
        print(f"bench: imported ehrelay from {ehrelay.__file__}, not {SRC}", file=sys.stderr)
        return 2
    if args.workload not in WORKLOADS:
        print(f"bench: unknown workload {args.workload!r}; one of {sorted(WORKLOADS)}",
              file=sys.stderr)
        return 2
    result, summary = run(args.workload, args.seed, args.seconds, bool(args.trace))
    print(json.dumps(summary))
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
