"""Helpers shared by the test modules."""

import importlib.util
import os
import subprocess
import sys
from pathlib import Path

SRC = str(Path(__file__).resolve().parents[1] / "src")
TOOLS = Path(__file__).resolve().parents[1] / "tools"


def run_python(args, env=None, timeout=60):
    """Run `python *args` in a fresh interpreter that imports ehrelay from
    this checkout's src, with output captured as text. `env` replaces
    os.environ as the base environment; src is put first on its PYTHONPATH."""
    env = dict(os.environ if env is None else env)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [SRC, env.get("PYTHONPATH")]))
    return subprocess.run([sys.executable, *args], env=env, capture_output=True, text=True,
                          timeout=timeout)


def load_tool(name):
    """The script tools/<name>.py, loaded as a module (the package never imports it)."""
    spec = importlib.util.spec_from_file_location(name, TOOLS / f"{name}.py")
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def columns(pairs):
    """Each (cfg, scenario) pair as one row of columns, as `outages` and
    `minimize_many` take them."""
    from ehrelay.model import Columns

    return [Columns(cfg, scenario) for cfg, scenario in pairs]


def curve_rows(curves):
    """Each row of `curves` in order: its curve's name, axis and optimize flag,
    its axis value and its checked (cfg, scenario) pair (see Curve.row)."""
    from types import SimpleNamespace

    return [SimpleNamespace(curve=c.name, axis=c.axis, axis_value=value, optimize=c.optimize,
                            cfg=cfg, scenario=scenario)
            for c in curves for i, value in enumerate(c.values) for cfg, scenario in [c.row(i)]]


def field_rows(sets, name):
    """The value of field `name` (dotted) on every row of the Columns `sets`."""
    import numpy as np

    return np.concatenate([np.broadcast_to(s.value(name), s.size) for s in sets])


def subset(curves, values):
    """`curves` with only their rows at axis values in `values`; a curve left
    without rows is dropped."""
    from dataclasses import replace

    kept = [replace(c, values=tuple(v for v in c.values if v in values)) for c in curves]
    return [c for c in kept if c.values]
