"""Spans around calls into each ehrelay module, installed from outside.

`installed(tracer)` replaces the module attributes that callers look up
(for example `ehrelay.cli.outage`) with wrappers that record a span per
call: name, layer, start, end and parent. Spans stay in memory; the
benchmark derives per-layer numbers from them and writes them once at the
end. A hook whose attribute no longer exists is skipped and listed in
`tracer.missing`, so the metrics that need it become absent.

Runs are single-threaded (`--threads 1`), so a plain stack gives parents,
and span times are CPU seconds of the process, which leave out the CPU
steal of a shared host.
"""

from __future__ import annotations

import contextlib
import importlib
import json
import time

LAYERS = ("cli", "analytic", "quadrature", "optimize", "montecarlo", "model", "lognormal")

# (module, attribute, span name, layer)
HOOKS = (
    ("ehrelay.cli", "run_points", "cli.run_points", "cli"),
    ("ehrelay.cli", "dataset_text", "cli.dataset_text", "cli"),
    ("ehrelay.cli", "outage", "analytic.outage", "analytic"),
    ("ehrelay.cli", "minimize_over_eh_param", "optimize.minimize", "optimize"),
    ("ehrelay.cli", "estimate_outage", "montecarlo.estimate_outage", "montecarlo"),
    ("ehrelay.optimize", "outage", "analytic.outage", "analytic"),
    ("ehrelay.analytic", "integrate_lognormal_weighted", "quadrature.integrate", "quadrature"),
    ("ehrelay.montecarlo", "sample_sq_gain", "lognormal.sample_sq_gain", "lognormal"),
    ("ehrelay.montecarlo", "outage_indicator", "model.outage_indicator", "model"),
)

# the optimizer's coarse scan is its first 49 objective calls
OPT_SCAN_CALLS = 49


class Tracer:
    def __init__(self):
        # each span: [name, layer, start, end, parent index, attrs]
        self.spans: list[list] = []
        self._stack: list[int] = []
        self.missing: list[str] = []

    def begin(self, name: str, layer: str) -> int:
        idx = len(self.spans)
        parent = self._stack[-1] if self._stack else -1
        self.spans.append([name, layer, time.process_time(), 0.0, parent, None])
        self._stack.append(idx)
        return idx

    def end(self, idx: int, attrs: dict | None = None) -> None:
        self._stack.pop()
        span = self.spans[idx]
        span[3] = time.process_time()
        span[5] = attrs

    def call(self, name: str, layer: str, fn, *args, **kwargs):
        """Run fn inside a span: the CLI entry point, or a harness call."""
        idx = self.begin(name, layer)
        try:
            return fn(*args, **kwargs)
        finally:
            self.end(idx)

    def write(self, path: str) -> None:
        with open(path, "w", encoding="utf-8") as fh:
            for name, layer, start, end, parent, attrs in self.spans:
                fh.write(json.dumps({"name": name, "layer": layer, "start": start,
                                     "end": end, "parent": parent, "attrs": attrs}) + "\n")


def _result_attrs(name: str, out) -> dict | None:
    if name == "optimize.minimize":
        return {"evals": out.evaluations, "non_unimodal": bool(out.non_unimodal)}
    if name == "model.outage_indicator":
        return {"trials": int(getattr(out, "size", 1))}
    return None


def _wrap(tracer: Tracer, fn, name: str, layer: str):
    def wrapper(*args, **kwargs):
        idx = tracer.begin(name, layer)
        try:
            out = fn(*args, **kwargs)
        except BaseException as exc:
            tracer.end(idx, {"error": type(exc).__name__})
            raise
        tracer.end(idx, _result_attrs(name, out))
        return out
    return wrapper


def _wrap_quadrature(tracer: Tracer, fn, name: str, layer: str):
    """Also counts integrand evaluations by wrapping the integrand."""
    def wrapper(f, *args, **kwargs):
        evals = 0

        def counted(z):
            nonlocal evals
            evals += 1
            return f(z)

        idx = tracer.begin(name, layer)
        try:
            out = fn(counted, *args, **kwargs)
        except BaseException as exc:
            tracer.end(idx, {"evals": evals, "error": type(exc).__name__})
            raise
        tracer.end(idx, {"evals": evals})
        return out
    return wrapper


@contextlib.contextmanager
def installed(tracer: Tracer):
    """Install every hook that still exists; restore the originals on exit."""
    restore = []
    try:
        for module_name, attr, name, layer in HOOKS:
            module = importlib.import_module(module_name)
            fn = getattr(module, attr, None)
            if not callable(fn):
                tracer.missing.append(f"{module_name}.{attr}")
                continue
            make = _wrap_quadrature if layer == "quadrature" else _wrap
            restore.append((module, attr, fn))
            setattr(module, attr, make(tracer, fn, name, layer))
        yield tracer
    finally:
        for module, attr, fn in reversed(restore):
            setattr(module, attr, fn)


def _layer_hooked(tracer: Tracer, layer: str) -> bool:
    needed = {f"{m}.{a}" for m, a, _, lay in HOOKS if lay == layer}
    return not needed & set(tracer.missing)


def mc_trials_per_call(tracer: Tracer) -> list[int] | None:
    """Trials decided under each MC estimate, in call order: the sizes of
    the outage-indicator results below each `estimate_outage` span. None
    when a hook it needs is missing."""
    if not (_layer_hooked(tracer, "montecarlo") and _layer_hooked(tracer, "model")):
        return None
    spans = tracer.spans
    trials = {i: 0 for i, s in enumerate(spans) if s[0] == "montecarlo.estimate_outage"}
    for s in spans:
        if s[0] != "model.outage_indicator":
            continue
        parent = s[4]
        while parent >= 0 and parent not in trials:
            parent = spans[parent][4]
        if parent >= 0:
            trials[parent] += (s[5] or {}).get("trials", 0)
    return list(trials.values())


def layer_metrics(tracer: Tracer) -> dict[str, float]:
    """Per-layer numbers for one traced pass. Self time of a span is its
    duration minus that of its direct children; a layer's self time sums
    its spans'. Metrics of a layer with a missing hook are left out."""
    spans = tracer.spans
    dur = [s[3] - s[2] for s in spans]
    child_time = [0.0] * len(spans)
    children: list[list[int]] = [[] for _ in spans]
    for i, s in enumerate(spans):
        if s[4] >= 0:
            child_time[s[4]] += dur[i]
            children[s[4]].append(i)

    def named(name):
        return [i for i, s in enumerate(spans) if s[0] == name]

    m: dict[str, float] = {}
    self_time = dict.fromkeys(LAYERS, 0.0)
    for i, s in enumerate(spans):
        self_time[s[1]] += dur[i] - child_time[i]
    for layer in LAYERS:
        if _layer_hooked(tracer, layer):
            m[f"{layer}.self.s"] = self_time[layer]

    if _layer_hooked(tracer, "cli"):
        m["cli.run_points.s"] = sum(dur[i] for i in named("cli.run_points"))
        m["cli.dataset_text.s"] = sum(dur[i] for i in named("cli.dataset_text"))

    quad = named("quadrature.integrate")
    ana = named("analytic.outage")
    if _layer_hooked(tracer, "quadrature"):
        evals = sum(spans[i][5]["evals"] for i in quad)
        m["quadrature.calls"] = len(quad)
        m["quadrature.us_per_call"] = 1e6 * sum(dur[i] for i in quad) / len(quad) if quad else 0.0
        m["quadrature.integrand_evals_per_call"] = evals / len(quad) if quad else 0.0
        m["quadrature.errors"] = sum("error" in spans[i][5] for i in quad)
        ana_time = sum(dur[i] for i in ana)
        m["quadrature.share_of_analytic"] = (sum(dur[i] for i in quad) / ana_time
                                             if ana_time else 0.0)
    if _layer_hooked(tracer, "analytic"):
        m["analytic.calls"] = len(ana)
        m["analytic.us_per_call"] = 1e6 * sum(dur[i] for i in ana) / len(ana) if ana else 0.0
        if _layer_hooked(tracer, "quadrature"):
            quad_free = sum(not any(spans[c][0] == "quadrature.integrate" for c in children[i])
                            for i in ana)
            m["analytic.quad_free_ratio"] = quad_free / len(ana) if ana else 0.0

    if _layer_hooked(tracer, "optimize"):
        opt = named("optimize.minimize")
        scan = refine = 0.0
        for i in opt:
            calls = [c for c in children[i] if spans[c][0] == "analytic.outage"]
            split = spans[calls[OPT_SCAN_CALLS - 1]][3] if len(calls) >= OPT_SCAN_CALLS \
                else spans[i][3]
            scan += split - spans[i][2]
            refine += spans[i][3] - split
        m["optimize.calls"] = len(opt)
        m["optimize.scan.s"] = scan
        m["optimize.refine.s"] = refine
        m["optimize.non_unimodal"] = sum(bool((spans[i][5] or {}).get("non_unimodal"))
                                         for i in opt)
    if _layer_hooked(tracer, "model"):
        m["montecarlo.blocks"] = len(named("model.outage_indicator"))
    return m
