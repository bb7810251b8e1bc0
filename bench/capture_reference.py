#!/usr/bin/env python3
"""Capture the analytic reference that the benchmark checks against.

    python3 bench/capture_reference.py

Writes bench/reference.json. It records, for the current source tree, the
analytic column of every row of every workload (figures fig4-fig7 and the
low-outage ps sweep, at full float precision through `--format json`) and
the analytic outage of the 74-point acceptance grid, together with the git
commit and the hash of its src/ tree. Run it on the commit whose values later changes must
reproduce within 1e-9, before switching the quadrature.
"""

from __future__ import annotations

import contextlib
import io
import json
import os
import re
import subprocess
import sys

BENCH_DIR = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(BENCH_DIR)
OUT = os.path.join(BENCH_DIR, "reference.json")
sys.path.insert(0, os.path.join(ROOT, "src"))

from ehrelay import cli  # noqa: E402

from workloads import (  # noqa: E402
    FIGURES,
    SWEEP_VARIANTS,
    acceptance_grid,
    figure_commands,
    grid_analytic,
    sweep_commands,
)


def _git(*args: str) -> str:
    return subprocess.run(["git", "-C", ROOT, *args], capture_output=True, text=True,
                          check=True).stdout.strip()


def _analytic_rows(argv: list[str]) -> list:
    argv = [a for a in argv if a != "--no-mc"] + ["--no-mc", "--format", "json"]
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        rc = cli.main(argv)
    if rc != 0:
        raise SystemExit(f"{' '.join(argv)}: exit {rc}")
    rows = json.loads(out.getvalue())["rows"]
    return [[r["scenario"], r["axis"], r["axis_value"], r["analytic"]] for r in rows]


def capture() -> dict:
    return {
        "commit": _git("rev-parse", "HEAD"),
        "src_tree": _git("rev-parse", "HEAD:src"),
        "src_dirty": bool(_git("status", "--porcelain", "--", "src")),
        "figures-analytic": {fig: _analytic_rows(argv)
                             for fig, argv in zip(FIGURES, figure_commands(0, False))},
        "sweep-lowoutage": {label: _analytic_rows(argv)
                            for (label, _), argv in zip(SWEEP_VARIANTS, sweep_commands(0, False))},
        "acceptance-grid": [[*p, grid_analytic(p)] for p in acceptance_grid()],
    }


def main() -> int:
    ref = capture()
    text = json.dumps(ref, indent=1)
    # one row per line
    text = re.sub(r"\[\n\s+([^\[\]{}]*?)\n\s+\]",
                  lambda m: "[" + re.sub(r"\n\s+", " ", m[1]) + "]", text)
    with open(OUT, "w", encoding="utf-8") as fh:
        fh.write(text + "\n")
    rows = sum(map(len, ref["figures-analytic"].values())) + sum(
        map(len, ref["sweep-lowoutage"].values()))
    print(f"wrote {OUT}: {rows} workload rows, {len(ref['acceptance-grid'])} grid points, "
          f"commit {ref['commit'][:12]}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
