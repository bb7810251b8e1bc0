"""Every library name the benchmark hooks or imports still exists.

bench/spans.py skips a hook whose target is gone and only notes it, so a
deleted or renamed function would quietly turn the benchmark's per-layer
metrics and its MC trial-count check into a "hook missing" note.
bench/layers.py likewise turns an ImportError, AttributeError or TypeError
into a note and drops that layer's metrics.
"""

import ast
import importlib
import importlib.util
import math
import sys
from pathlib import Path

import pytest

import ehrelay.montecarlo as mc
from conftest import curve_rows, subset
from ehrelay import ChannelSpec, SystemConfig, cli, grids
from ehrelay.montecarlo import McPlan

BENCH = Path(__file__).resolve().parents[1] / "bench"
SPANS = BENCH / "spans.py"


def _load(name, path):
    spec = importlib.util.spec_from_file_location(name, path)
    module = importlib.util.module_from_spec(spec)
    sys.modules[name] = module  # a @dataclass with string annotations looks up its module
    spec.loader.exec_module(module)
    return module


def _hooks():
    return _load("bench_spans", SPANS).HOOKS


@pytest.mark.parametrize("module,attr", [(m, a) for m, a, _, _ in _hooks()],
                         ids=lambda x: x)
def test_hook_target_is_callable(module, attr):
    assert callable(getattr(importlib.import_module(module), attr, None))


def _bench_imports():
    """(module, name) of every `from ehrelay... import name` in the
    benchmark's files, its own tests included: a name they import that its
    module lost fails here, and not only in the bench suite."""
    found = set()
    for path in sorted(BENCH.rglob("*.py")):
        for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
            if isinstance(node, ast.ImportFrom) and (node.module or "").split(".")[0] == "ehrelay":
                found.update((node.module, alias.name) for alias in node.names)
    return sorted(found)


def test_bench_imports_are_found():
    assert ("ehrelay.montecarlo", "McPlan") in _bench_imports()


@pytest.mark.parametrize("module,name", _bench_imports(), ids=lambda x: x)
def test_bench_import_resolves(module, name):
    assert hasattr(importlib.import_module(module), name)


def _bench_workloads():
    return _load("bench_workloads", BENCH / "workloads.py").WORKLOADS


@pytest.mark.parametrize("tiny", [False, True], ids=["full", "tiny"])
@pytest.mark.parametrize("name", sorted(_bench_workloads()))
def test_bench_command_lines_parse(name, tiny):
    # a renamed or dropped flag would otherwise show only as a failed benchmark run
    for argv in _bench_workloads()[name].commands(1, tiny):
        args, unknown = cli.build_parser().parse_known_args(argv)
        assert not unknown and callable(args.func), argv


def test_bench_plan_arguments_bind():
    # bench/layers.py builds its plans by keyword
    assert McPlan(trials=10_000, seed=1) == McPlan(10_000, 1)


# three MC blocks per row at a block size of 2**13, the last one short
MC_PLAN = McPlan(trials=2 * 2**13 + 123, seed=11)


@pytest.fixture
def decisions(monkeypatch):
    """Per `cli.estimate_outage` call, in order: the size of each outage decision.
    The benchmark counts each row's trials from the outage-indicator calls below
    its `cli.estimate_outage` call, so a dataset run must make one call per MC row
    with the benchmark's signature, each deciding plan.trials trials."""
    decided = []
    estimate, indicator = cli.estimate_outage, mc.outage_indicator

    def fake_estimate(cfg, scenario, plan, threads=1):
        decided.append([])
        return estimate(cfg, scenario, plan, threads=threads)

    def counted_indicator(cfg, scenario, fade, **kwargs):
        out = indicator(cfg, scenario, fade, **kwargs)
        decided[-1].append(out.size)
        return out

    monkeypatch.setattr(cli, "estimate_outage", fake_estimate)
    monkeypatch.setattr(mc, "outage_indicator", counted_indicator)
    monkeypatch.setattr(mc, "BLOCK_SIZE", 2**13)
    return decided


def assert_one_call_per_row(decided, rows):
    assert len(decided) == rows
    assert [sum(sizes) for sizes in decided] == [MC_PLAN.trials] * rows
    assert all(len(sizes) == len(MC_PLAN.blocks()) for sizes in decided)


@pytest.mark.parametrize("threads", [1, 2])
def test_every_mc_row_is_one_estimate_call_deciding_its_trials(decisions, threads):
    decided = decisions
    # at tau 0.9 whole blocks lie past the certain-outage edge and are decided
    # without their arrays; they still count their trials
    curves = subset(cli.selftest_points(SystemConfig()), (0.0, 0.3, 0.9))
    for _ in range(2):  # the second run finds every block's gains kept
        decided.clear()
        cli.run_points(curves, MC_PLAN, threads)
        assert_one_call_per_row(decided, len(curve_rows(curves)))


@pytest.mark.parametrize("threads", ["1", "2"])
@pytest.mark.parametrize("command", [
    ["sweep", "--scenario", "fd-af-tsr", "--axis", "tau", "--values", "0.1,0.3,0.9"],
    ["figure", "fig5"]], ids=["sweep", "figure"])
def test_every_cli_mc_row_is_one_estimate_call_deciding_its_trials(decisions, command, threads,
                                                                    tmp_path):
    """The same for the dataset commands: fig5's rows are tuned over tau or rho,
    except the IRR curves', and each runs MC at its optimum."""
    out = tmp_path / "rows.csv"
    assert cli.main([*command, "--trials", str(MC_PLAN.trials), "--seed", str(MC_PLAN.seed),
                     "--threads", threads, "--out", str(out)]) == cli.EXIT_OK
    rows = [line for line in out.read_text().splitlines() if not line.startswith("#")][1:]
    assert len(rows) == (3 if command[0] == "sweep" else 72)
    assert_one_call_per_row(decisions, len(rows))


def test_bench_acceptance_grid_matches_selftest_points():
    """bench/workloads.acceptance_grid() keeps its own copy of the 74 selftest
    points, and its captured reference values hold only while both agree."""
    def bench_point(curve, axis, value, label, tau, rho, sg2):
        cfg = SystemConfig()
        if sg2 is not None:  # the benchmark's loop-back variance, in dB^2
            cfg = SystemConfig(chg=ChannelSpec(cfg.chg.mu_db, math.sqrt(sg2)))
        return curve, axis, value, label, tau, rho, cfg

    grid = _load("bench_workloads", BENCH / "workloads.py").acceptance_grid()
    points = curve_rows(grids.selftest_points(SystemConfig()))
    assert len(points) == 74
    assert [bench_point(*point) for point in grid] == [
        (p.curve, p.axis, p.axis_value, p.scenario.label(), p.scenario.tau, p.scenario.rho, p.cfg)
        for p in points]
