"""Minimization of outage over the harvesting parameter (tau or rho).

A coarse grid scan locates the best cell before golden-section refinement;
the scan guards against the possibility of multiple local minima, which
unimodality of the outage curves would rule out but nothing proves. When
the scan does see several interior minima the result falls back to a dense
grid and is flagged. All pairs of a batch advance in lock-step.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

# outage stays importable here: bench/spans.py hooks this name
from .analytic import outage, outages  # noqa: F401
from .model import Scenario, SystemConfig

_INV_PHI = (math.sqrt(5.0) - 1.0) / 2.0

# grid-value differences below this are treated as quadrature noise, not
# genuine local structure (outage plateaus near 1 wiggle at ~1e-12)
_NOISE_FLOOR = 1e-6

_PARAM_LO = 1e-4
_PARAM_HI = 1.0 - 1e-4


@dataclass(frozen=True)
class OptResult:
    """Minimizer, minimum, work spent and final bracket width."""

    arg_opt: float
    value_opt: float
    evaluations: int
    bracket: float
    non_unimodal: bool = False


def minimize_many(pairs, tol: float = 1e-3) -> list[OptResult]:
    """Minimize the analytic outage of each (cfg, scenario) pair over tau
    (TSR) or rho (PSR); an IRR pair raises ValueError.

    Per pair: a coarse scan over 0.02..0.98 in steps of 0.02, then
    golden-section refinement of the best cell until the bracket is
    narrower than tol. The pairs advance in lock-step: each stage is one
    `outages` call with a row of params per pair still in it (49 trial
    values for the scan, 999 for the dense fallback, 2 first probes, then 1
    per golden-section step), and each result equals that of the pair's
    batch of one. A tol outside [1e-12, 1) raises ValueError.
    """
    if not 1e-12 <= tol < 1:
        raise ValueError(f"tol must be in [1e-12, 1), got {tol}")
    pairs = list(pairs)
    if not pairs:
        return []

    def objective(index, params) -> np.ndarray:
        return outages([pairs[i] for i in index.tolist()], params)

    n, grid, dense = len(pairs), np.linspace(0.02, 0.98, 49), np.arange(1, 1000) / 1000.0
    values = objective(np.arange(n), np.broadcast_to(grid, (n, grid.size)))
    inner = values[:, 1:-1]
    multi = np.count_nonzero((inner < values[:, :-2] - _NOISE_FLOOR)
                             & (inner < values[:, 2:] - _NOISE_FLOOR), axis=1) > 1
    best_i = np.argmin(values, axis=1)
    best_arg, best_val = grid[best_i], values[np.arange(n), best_i]
    evaluations = np.where(multi, grid.size + dense.size, grid.size + 2)

    m = np.flatnonzero(multi)
    dense_vals = objective(m, np.broadcast_to(dense, (m.size, dense.size)))
    j = np.argmin(dense_vals, axis=1)
    take = dense_vals[np.arange(m.size), j] < best_val[m]
    best_arg[m[take]], best_val[m[take]] = dense[j[take]], dense_vals[take, j[take]]

    uni = np.flatnonzero(~multi)
    edges = np.concatenate([[_PARAM_LO], grid, [_PARAM_HI]])
    lo, hi = edges[best_i], edges[best_i + 2]
    c, d = hi - _INV_PHI * (hi - lo), lo + _INV_PHI * (hi - lo)
    fc, fd = np.full(n, np.nan), np.full(n, np.nan)
    fc[uni], fd[uni] = objective(uni, np.stack([c[uni], d[uni]], axis=1)).T
    active = uni[hi[uni] - lo[uni] > tol]
    while active.size:
        left = fc[active] < fd[active]
        l, r = active[left], active[~left]
        hi[l], d[l], fd[l] = d[l], c[l], fc[l]
        lo[r], c[r], fc[r] = c[r], d[r], fd[r]
        c[l] = hi[l] - _INV_PHI * (hi[l] - lo[l])
        d[r] = lo[r] + _INV_PHI * (hi[r] - lo[r])
        step = objective(active, np.where(left, c[active], d[active])[:, None])[:, 0]
        fc[l], fd[r] = step[left], step[~left]
        evaluations[active] += 1
        c_wins = fc < fd
        inner_arg, inner_val = np.where(c_wins, c, d), np.where(c_wins, fc, fd)
        better = active[inner_val[active] < best_val[active]]
        best_arg[better], best_val[better] = inner_arg[better], inner_val[better]
        active = active[hi[active] - lo[active] > tol]

    return [OptResult(float(a), float(v), int(e), float(b), bool(f)) for a, v, e, b, f
            in zip(best_arg, best_val, evaluations, np.where(multi, 1e-3, hi - lo), multi)]


def minimize_over_eh_param(cfg: SystemConfig, scenario: Scenario,
                           tol: float = 1e-3) -> OptResult:
    """minimize_many of the one pair (cfg, scenario)."""
    return minimize_many([(cfg, scenario)], tol)[0]
