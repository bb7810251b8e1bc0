"""Smoke tests of the benchmark itself, at the smallest sizes.

    python3 -m pytest bench/tests -q

They check that every workload prints every named metric with its unit,
that the correctness check can fail (a corrupted reference value, a
tampered MC count, a 2 % MC bias or an estimate that decides fewer trials
than it reports makes error_rate > 0), that the MC multiplier is the
smallest that meets its false-failure target, that a missing trace hook
makes its metrics absent instead of failing, and that the benchmark
refuses to run without the sources.
"""

import copy
import json
import math
import os
import shutil
import subprocess
import sys

import pytest

BENCH_DIR = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
ROOT = os.path.dirname(BENCH_DIR)
sys.path[:0] = [BENCH_DIR, os.path.join(ROOT, "src")]

import run as bench  # noqa: E402
import spans  # noqa: E402
from workloads import (  # noqa: E402
    MC_FALSE_FAILURE,
    MC_Z,
    SELFTEST_TRIALS,
    SWEEP_TRIALS,
    WORKLOADS,
    mc_false_failure_chance,
    mc_ok,
)

import numpy as np  # noqa: E402
from ehrelay import cli, montecarlo  # noqa: E402
from ehrelay.model import FadeSample, OutageEstimate  # noqa: E402

with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as fh:
    SPEC = json.load(fh)
with open(bench.REFERENCE, encoding="utf-8") as fh:
    REFERENCE = json.load(fh)


def tiny_run(workload, trace=False, reference=None):
    result, summary = bench.run(workload, seed=3, seconds=0, trace=trace, tiny=True,
                                reference=reference)
    json.dumps(result)  # the result line must serialize
    return result, summary


def error_rate(summary):
    return summary["metrics"]["error_rate"]["value"]


# reference outage and trial count of every MC point of a full-size pass
MC_POINTS = {
    "selftest-mc": ([row[-1] for row in REFERENCE["acceptance-grid"]], SELFTEST_TRIALS),
    "sweep-lowoutage": ([row[3] for rows in REFERENCE["sweep-lowoutage"].values()
                         for row in rows], SWEEP_TRIALS),
}


def test_spec_matches_workloads_and_units():
    assert [w["name"] for w in SPEC["workloads"]] == list(WORKLOADS)
    assert {m["name"]: m["unit"] for m in SPEC["end_to_end"]} == bench.END_TO_END_UNITS
    assert {m["name"]: m["unit"] for m in SPEC["per_layer"]} == bench.PER_LAYER_UNITS


@pytest.mark.parametrize("trace", [False, True], ids=["e2e", "traced"])
@pytest.mark.parametrize("workload", list(WORKLOADS))
def test_smoke_prints_every_metric(workload, trace):
    result, summary = tiny_run(workload, trace)
    assert result["correct"] and result["failed"] == 0 and result["attempted"] >= 1
    units = bench.PER_LAYER_UNITS if trace else bench.END_TO_END_UNITS
    assert {k: v["unit"] for k, v in result["metrics"].items()} == units
    assert all(isinstance(v["value"], (int, float)) for v in result["metrics"].values())
    assert error_rate(summary) == 0.0
    mc = WORKLOADS[workload].mc_points > 0
    assert summary["notes"] == ([] if mc else
                                ["absent: mtrials_per_s (no Monte Carlo on this workload)"])
    assert {k: v["unit"] for k, v in summary["metrics"].items()} == (
        bench.SUMMARY_UNITS if mc else {"error_rate": "ratio"})
    if trace:
        # one rule for every metric in BENCHMARK.json: never 0 on any workload
        assert all(v["value"] != 0 for v in result["metrics"].values())
        traced = summary["traced_pass"]
        assert {f"{layer}.self.s" for layer in spans.LAYERS} <= set(traced)
        assert set(bench.TRACED_ONLY_UNITS) <= set(traced)
        assert all(traced[k]["unit"] == u for k, u in bench.TRACED_ONLY_UNITS.items())
    else:
        assert all(result["metrics"][k]["value"] > 0 for k in units)


@pytest.mark.parametrize("workload,path", [
    ("figures-analytic", ("figures-analytic", "fig6", 4)),
    ("sweep-lowoutage", ("sweep-lowoutage", "hd-af-psr", 24)),
    ("selftest-mc", ("acceptance-grid", 40)),
])
def test_corrupted_reference_value_is_caught(workload, path):
    ref = copy.deepcopy(REFERENCE)
    row = ref
    for key in path:
        row = row[key]
    row[-1] += 2e-9
    result, summary = tiny_run(workload, reference=ref)
    assert not result["correct"] and result["failed"] >= 1
    assert error_rate(summary) > 0


@pytest.mark.parametrize("workload", ["selftest-mc", "sweep-lowoutage"])
def test_tampered_mc_count_is_caught(workload, monkeypatch):
    honest = cli.estimate_outage

    def tampered(cfg, scenario, plan, threads=1):
        est = honest(cfg, scenario, plan, threads=threads)
        count = max(round(est.value * est.trials) - est.trials // 20, 0)
        return OutageEstimate(count / est.trials, "monte_carlo", est.stderr, est.trials)

    monkeypatch.setattr(cli, "estimate_outage", tampered)
    result, summary = tiny_run(workload)
    assert result["failed"] > 0 and error_rate(summary) > 0


@pytest.mark.parametrize("workload", list(MC_POINTS))
def test_mc_multiplier_is_smallest_meeting_target(workload):
    p_refs, trials = MC_POINTS[workload]
    assert mc_false_failure_chance(MC_Z, p_refs, trials) <= MC_FALSE_FAILURE
    assert max(mc_false_failure_chance(MC_Z - 0.1, ps, n) for ps, n in MC_POINTS.values()) \
        > MC_FALSE_FAILURE


@pytest.mark.parametrize("workload", list(MC_POINTS))
def test_two_percent_mc_bias_fails_every_point(workload):
    p_refs, trials = MC_POINTS[workload]
    assert not any(mc_ok(p, p + 0.02, trials) or mc_ok(p, p - 0.02, trials) for p in p_refs)


@pytest.mark.parametrize("workload", list(MC_POINTS))
def test_fewer_trials_than_reported_is_caught(workload, monkeypatch):
    def half(cfg, scenario, plan, threads=1):
        """Decides half the trials asked for and reports the full count."""
        n = plan.trials // 2
        rng = np.random.default_rng(plan.seed)
        draws = [montecarlo.sample_sq_gain(ch, rng, n) for ch in (cfg.ch1, cfg.ch2)]
        if scenario.duplex == "fd":
            draws.append(montecarlo.sample_sq_gain(cfg.chg, rng, n))
        count = int(np.count_nonzero(montecarlo.outage_indicator(cfg, scenario,
                                                                 FadeSample(*draws))))
        p = 2 * count / plan.trials
        return OutageEstimate(p, "monte_carlo", math.sqrt(p * (1 - p) / plan.trials),
                              plan.trials)

    monkeypatch.setattr(cli, "estimate_outage", half)
    result, summary = tiny_run(workload)
    assert result["failed"] >= WORKLOADS[workload].mc_points
    assert "MC trial count not checked: hook missing" not in summary["notes"]


def test_missing_hook_makes_its_metrics_absent(monkeypatch):
    hooks = tuple(h if h[3] != "quadrature" else ("ehrelay.analytic", "no_such_function", *h[2:])
                  for h in spans.HOOKS)
    monkeypatch.setattr(spans, "HOOKS", hooks)
    result, summary = tiny_run("sweep-lowoutage", trace=True)
    assert result["correct"]
    assert not any(k.startswith("quadrature.") for k in result["metrics"])
    assert "analytic.quad_free_ratio" not in summary["traced_pass"]
    assert "cli.self.s" in result["metrics"]
    assert "hook missing: ehrelay.analytic.no_such_function" in summary["notes"]


def test_exits_nonzero_without_sources(tmp_path):
    shutil.copy(os.path.join(ROOT, "BENCHMARK.json"), tmp_path)
    shutil.copytree(BENCH_DIR, tmp_path / "bench",
                    ignore=shutil.ignore_patterns("out", "__pycache__", ".pytest_cache"))
    proc = subprocess.run([sys.executable, "bench/run.py", "--workload", "sweep-lowoutage",
                           "--seed", "1", "--seconds", "1", "--trace", "0"],
                          cwd=tmp_path, capture_output=True, text=True, timeout=180)
    assert proc.returncode != 0 and proc.stdout == ""
