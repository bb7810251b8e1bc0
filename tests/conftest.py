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
