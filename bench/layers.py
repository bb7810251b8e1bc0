"""Layer harness: direct calls to each module's public functions at fixed
inputs, timed from outside, plus the environment record.

Every timing is the median over repeats, in CPU seconds of the process
except the MC throughputs, which are wall time so that 1 and 2 threads
compare. A harness item whose function no longer exists is left out (its
metrics become absent) instead of failing.
"""

from __future__ import annotations

import os
import platform
import re
import statistics
import subprocess
import sys
import time

import spans
from workloads import MC_BLOCK

LABELS = ("hd-df-tsr", "hd-df-psr", "hd-df-irr", "hd-af-tsr",
          "hd-af-psr", "hd-af-irr", "fd-df-tsr", "fd-af-tsr")
MC_SEED = 20260809


def _per_call(fn, inner: int, repeats: int, clock=time.process_time) -> float:
    """Median seconds per call of fn over `repeats` loops of `inner` calls."""
    times = []
    for _ in range(repeats):
        t0 = clock()
        for _ in range(inner):
            fn()
        times.append((clock() - t0) / inner)
    return statistics.median(times)


def _lognormal(m: dict, repeats: int) -> None:
    import numpy as np
    from ehrelay.lognormal import ChannelSpec, product_ccdf, sample_sq_gain, sq_gain_cdf

    ch = ChannelSpec(3.0, 2.0)
    xs = [float(x) for x in np.logspace(-3, 3, 200)]
    m["lognormal.sq_gain_cdf.ns_per_call"] = 1e9 * _per_call(
        lambda: [sq_gain_cdf(x, ch) for x in xs], 5, repeats) / len(xs)
    m["lognormal.product_ccdf.ns_per_call"] = 1e9 * _per_call(
        lambda: [product_ccdf(x, ch, ch) for x in xs], 5, repeats) / len(xs)
    rng = np.random.default_rng(MC_SEED)
    m["lognormal.sample_sq_gain.ns_per_sample"] = 1e9 * _per_call(
        lambda: sample_sq_gain(ch, rng, MC_BLOCK), 3, repeats) / MC_BLOCK


def _analytic(m: dict, repeats: int) -> None:
    from ehrelay import Scenario, SystemConfig, outage

    cfg = SystemConfig()
    for label in LABELS:
        scenario = Scenario.from_label(label, tau=0.5, rho=0.5)
        inner = 200 if label == "fd-df-tsr" else 10
        m[f"analytic.{label}.us_per_call"] = 1e6 * _per_call(
            lambda: outage(cfg, scenario), inner, repeats)


def _traced_call(name: str, layer: str, fn, repeats: int) -> dict[str, float]:
    """Per-layer numbers of one call made under the trace hooks, as the
    median over repeats."""
    samples = []
    for _ in range(repeats):
        tracer = spans.Tracer()
        with spans.installed(tracer):
            tracer.call(name, layer, fn)
        samples.append(spans.layer_metrics(tracer))
    return {k: statistics.median(s[k] for s in samples) for k in samples[0]}


def _optimize(m: dict, repeats: int) -> None:
    from ehrelay import Scenario, SystemConfig
    from ehrelay.optimize import minimize_over_eh_param

    cfg, scenario = SystemConfig(), Scenario.from_label("hd-df-tsr", tau=0.5)
    evals = []
    m["optimize.ms_per_call"] = 1e3 * _per_call(
        lambda: evals.append(minimize_over_eh_param(cfg, scenario).evaluations), 1, repeats)
    m["optimize.evals_per_call"] = statistics.median(evals)
    traced = _traced_call("optimize.minimize", "optimize",
                          lambda: minimize_over_eh_param(cfg, scenario), repeats)
    m["optimize.scan.s"] = traced["optimize.scan.s"]
    m["optimize.refine.s"] = traced["optimize.refine.s"]


def _montecarlo(m: dict, repeats: int, tiny: bool) -> None:
    import numpy as np
    from ehrelay import FadeSample, Scenario, SystemConfig, outage_indicator, sample_sq_gain
    from ehrelay.montecarlo import McPlan, estimate_outage

    cfg, scenario = SystemConfig(), Scenario.from_label("hd-df-tsr", tau=0.5)

    def draw(index=0):
        rng = np.random.default_rng(np.random.SeedSequence(entropy=MC_SEED, spawn_key=(index,)))
        return sample_sq_gain(cfg.ch1, rng, MC_BLOCK), sample_sq_gain(cfg.ch2, rng, MC_BLOCK)

    x, y = draw()
    fade = FadeSample(x, y)
    m["montecarlo.draw.ns_per_trial"] = 1e9 * _per_call(draw, 3, repeats) / MC_BLOCK
    m["montecarlo.decide.ns_per_trial"] = 1e9 * _per_call(
        lambda: np.count_nonzero(outage_indicator(cfg, scenario, FadeSample(x, y))),
        3, repeats) / MC_BLOCK
    m["model.outage_indicator.ns_per_trial"] = 1e9 * _per_call(
        lambda: outage_indicator(cfg, scenario, fade), 3, repeats) / MC_BLOCK

    full = McPlan(trials=(1 if tiny else 4) * MC_BLOCK, seed=MC_SEED)
    short = McPlan(trials=10_000, seed=MC_SEED)
    wall = time.perf_counter
    t1 = _per_call(lambda: estimate_outage(cfg, scenario, full, threads=1), 1, repeats, wall)
    t2 = _per_call(lambda: estimate_outage(cfg, scenario, full, threads=2), 1, repeats, wall)
    ts = _per_call(lambda: estimate_outage(cfg, scenario, short, threads=1), 10, repeats, wall)
    m["montecarlo.mtrials_per_s.t1"] = full.trials / t1 / 1e6
    m["montecarlo.mtrials_per_s.t2"] = full.trials / t2 / 1e6
    m["montecarlo.mtrials_per_s.short"] = short.trials / ts / 1e6
    m["montecarlo.thread_speedup"] = t1 / t2
    traced = _traced_call("montecarlo.estimate_outage", "montecarlo",
                          lambda: estimate_outage(cfg, scenario, short), repeats)
    m["montecarlo.self.s"] = traced["montecarlo.self.s"]


def harness(tiny: bool = False) -> tuple[dict[str, float], list[str]]:
    """Run every harness item; return (metrics, notes on absent items)."""
    repeats = 2 if tiny else 7
    metrics: dict[str, float] = {}
    notes = []
    for name, item in (("lognormal", lambda: _lognormal(metrics, repeats)),
                       ("analytic", lambda: _analytic(metrics, repeats)),
                       ("optimize", lambda: _optimize(metrics, repeats)),
                       ("montecarlo", lambda: _montecarlo(metrics, repeats, tiny))):
        try:
            item()
        except (ImportError, AttributeError, TypeError, KeyError) as exc:
            notes.append(f"harness {name}: {type(exc).__name__}: {exc}")
    return metrics, notes


def scipy_import_share(src: str) -> float | None:
    """Share of the `import ehrelay.cli` time spent importing scipy, from
    `python -X importtime` in a fresh interpreter: cumulative time of the
    outermost scipy imports over that of ehrelay.cli."""
    env = dict(os.environ, PYTHONPATH=src)
    proc = subprocess.run([sys.executable, "-X", "importtime", "-c", "import ehrelay.cli"],
                          env=env, capture_output=True, text=True, timeout=120)
    lines = re.findall(r"^import time:\s+\d+ \|\s+(\d+) \|( *)(\S+)$", proc.stderr, re.M)
    total = scipy = 0
    stack: list[tuple[int, bool]] = []  # (depth, inside scipy); the output lists children first
    for cumulative, indent, name in reversed(lines):
        depth = len(indent) // 2
        while stack and stack[-1][0] >= depth:
            stack.pop()
        inside = bool(stack) and stack[-1][1]
        is_scipy = name.split(".")[0] == "scipy"
        if is_scipy and not inside:
            scipy += int(cumulative)
        if depth == 0 and name == "ehrelay.cli":
            total = int(cumulative)
        stack.append((depth, inside or is_scipy))
    return scipy / total if proc.returncode == 0 and total else None


def _read(path: str) -> str | None:
    try:
        with open(path, encoding="utf-8") as fh:
            return fh.read().strip()
    except OSError:
        return None


def environment(root: str) -> dict:
    """nproc, CPU model, cache sizes, library versions and git commit."""
    import numpy

    env: dict = {"nproc": len(os.sched_getaffinity(0)), "cpu": None,
                 "python": platform.python_version(), "numpy": numpy.__version__}
    try:
        import scipy
        env["scipy"] = scipy.__version__
    except ImportError:
        env["scipy"] = None
    cpuinfo = _read("/proc/cpuinfo") or ""
    model = re.search(r"^model name\s*:\s*(.+)$", cpuinfo, re.M)
    env["cpu"] = model[1] if model else platform.processor() or None
    cache = "/sys/devices/system/cpu/cpu0/cache"
    for index in sorted(os.listdir(cache)) if os.path.isdir(cache) else []:
        level = _read(f"{cache}/{index}/level")
        if level in ("2", "3"):
            env[f"l{level}"] = _read(f"{cache}/{index}/size")
    env["commit"] = None
    if os.path.exists(os.path.join(root, ".git")):
        try:
            env["commit"] = subprocess.run(["git", "-C", root, "rev-parse", "HEAD"],
                                           capture_output=True, text=True,
                                           timeout=10).stdout.strip() or None
        except OSError:
            pass
    return env
