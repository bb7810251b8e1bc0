"""The scripts under tools/ still run against the package's API, and the names
README.md gives still resolve in it."""

import ast
import importlib
import inspect
import pkgutil
import re

import ehrelay

import ehrelay.montecarlo as mc
from conftest import TOOLS, load_tool
from ehrelay import lognormal


def test_fingerprint_prints_every_line(capsys):
    """tools/fingerprint.py prints each line of tools/fingerprint.txt: every bit
    of the results it digests is as committed. A change that moves numbers on
    purpose regenerates that file."""
    load_tool("fingerprint").main()
    mc._memo.clear()  # the runs filled the process's memo; free it for the other tests
    lines = capsys.readouterr().out.splitlines()
    golden = (TOOLS / "fingerprint.txt").read_text().splitlines()
    assert lines == golden


def test_fit_q_prints_the_coefficients_that_q_vector_holds(capsys):
    """tools/fit_q.py refits q_vector's rational: the _Q_NUM and _Q_DEN tuples it
    prints are lognormal's, bit for bit."""
    load_tool("fit_q").main()
    printed = dict(line.split(" = ") for line in capsys.readouterr().out.splitlines()
                   if line.startswith("_Q_"))
    assert ast.literal_eval(printed["_Q_NUM"]) == lognormal._Q_NUM
    assert ast.literal_eval(printed["_Q_DEN"]) == lognormal._Q_DEN


def test_readme_names_resolve():
    """Every backticked dotted name in README.md that starts at an ehrelay module
    (with or without `ehrelay.`) or at a class defined in one resolves by getattr,
    call arguments dropped: `Curve.pair(i)` is Curve.pair. Settings keys (mc.seed)
    and numpy names start elsewhere and are skipped."""
    roots = {}
    for info in pkgutil.iter_modules(ehrelay.__path__):
        module = importlib.import_module(f"ehrelay.{info.name}")
        roots[info.name] = module
        roots.update((name, obj) for name, obj in vars(module).items()
                     if inspect.isclass(obj) and obj.__module__ == module.__name__)
    readme = (TOOLS.parent / "README.md").read_text()
    checked = []
    for span in re.findall(r"`([^`\n]+)`", readme):
        name = re.match(r"(?:ehrelay\.)?(\w*(?:\.\w+)*)", span)[1]
        first, *rest = name.split(".")
        if first in roots:
            obj = roots[first]
            for part in rest:
                assert hasattr(obj, part), f"README names {name}, which does not resolve"
                obj = getattr(obj, part)
            checked.append(name)
    assert "Curve.pair" in checked and "model.Columns" in checked
