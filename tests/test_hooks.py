"""Every library name the benchmark's trace hooks patch still exists.

bench/spans.py skips a hook whose target is gone and only notes it, so a
deleted or renamed function would quietly turn the benchmark's per-layer
metrics and its MC trial-count check into a "hook missing" note.
"""

import importlib
import importlib.util
from pathlib import Path

import pytest

SPANS = Path(__file__).resolve().parents[1] / "bench" / "spans.py"


def _hooks():
    spec = importlib.util.spec_from_file_location("bench_spans", SPANS)
    spans = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(spans)
    return spans.HOOKS


@pytest.mark.parametrize("module,attr", [(m, a) for m, a, _, _ in _hooks()],
                         ids=lambda x: x)
def test_hook_target_is_callable(module, attr):
    assert callable(getattr(importlib.import_module(module), attr, None))
