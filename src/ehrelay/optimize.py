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
from .model import Columns, Scenario, SystemConfig, by_variant

_INV_PHI = (math.sqrt(5.0) - 1.0) / 2.0

# grid-value differences below this are treated as quadrature noise, not
# genuine local structure (outage plateaus near 1 wiggle at ~1e-12)
_NOISE_FLOOR = 1e-6

_PARAM_LO = 1e-4
_PARAM_HI = 1.0 - 1e-4


@dataclass(frozen=True)
class OptResult:
    """Minimizer, minimum, work spent and final bracket width.

    evaluations counts the objective values the search used: a candidate
    probe evaluated ahead of a comparison that picked the other is not
    counted."""

    arg_opt: float
    value_opt: float
    evaluations: int
    bracket: float
    non_unimodal: bool = False


def _golden_step(state, index, left) -> np.ndarray:
    """Advance the brackets (lo, hi, c, d, fc, fd) of pairs index by one golden-
    section step in place, keeping [lo, d] where left and [c, hi] elsewhere;
    return the new probe of each pair (its value is left to the caller)."""
    lo, hi, c, d, fc, fd = state
    l, r = index[left], index[~left]
    hi[l], d[l], fd[l] = d[l], c[l], fc[l]
    lo[r], c[r], fc[r] = c[r], d[r], fd[r]
    c[l] = hi[l] - _INV_PHI * (hi[l] - lo[l])
    d[r] = lo[r] + _INV_PHI * (hi[r] - lo[r])
    return np.where(left, c[index], d[index])


def minimize_many(sets, tol: float = 1e-3) -> list[OptResult]:
    """Minimize the analytic outage of each row of the Columns `sets` over
    tau (TSR) or rho (PSR); an IRR row raises ValueError.

    Per row: a coarse scan over 0.02..0.98 in steps of 0.02, then
    golden-section refinement of the best cell until the bracket is
    narrower than tol. The rows advance in lock-step: each stage is one
    `outages` call with a row of params per row still in it (49 trial
    values for the scan, 999 for the dense fallback, 2 first probes, then 3
    per round of two golden-section steps: the first step's probe and the
    two the second could need), a stage with no rows makes no call, and
    each result equals that of the row's batch of one. The sets of each
    variant are joined once, and each stage takes its rows from those
    columns. A tol outside [1e-12, 1) raises ValueError.
    """
    if not 1e-12 <= tol < 1:
        raise ValueError(f"tol must be in [1e-12, 1), got {tol}")
    groups = by_variant(sets)  # every stage takes its rows from these columns
    if not sum(columns.size for columns, _ in groups):
        return []
    order = np.concatenate([rows for _, rows in groups])  # the rows in variant order
    bounds = np.cumsum([0] + [columns.size for columns, _ in groups])

    def objective(index, params) -> np.ndarray:
        # index: ascending positions in variant order
        if not index.size:
            return np.empty(params.shape)
        cuts = np.searchsorted(index, bounds)
        return outages([columns.take(index[lo:hi] - first) for (columns, _), first, lo, hi
                        in zip(groups, bounds, cuts, cuts[1:]) if hi > lo], params)

    n, grid, dense = order.size, np.linspace(0.02, 0.98, 49), np.arange(1, 1000) / 1000.0
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
    state = lo, hi, c, d, fc, fd

    def advance(index, left, value):
        """Step pairs index with their new probes' values; True where still wider than tol."""
        _golden_step(state, index, left)
        fc[index[left]], fd[index[~left]] = value[left], value[~left]
        evaluations[index] += 1
        c_wins = fc < fd
        inner_arg, inner_val = np.where(c_wins, c, d), np.where(c_wins, fc, fd)
        better = index[inner_val[index] < best_val[index]]
        best_arg[better], best_val[better] = inner_arg[better], inner_val[better]
        return hi[index] - lo[index] > tol

    # rounds of two steps: the first step's comparison is known, so one call evaluates
    # its probe and both probes the second step could need (after a c win and after a
    # d win); the second comparison picks one of them and the other is discarded
    active = uni[hi[uni] - lo[uni] > tol]
    while active.size:
        left = fc[active] < fd[active]
        ahead = [a.copy() for a in state]
        probes = [_golden_step(ahead, active, left)]
        probes += [_golden_step([a.copy() for a in ahead], active, np.full(active.size, side))
                   for side in (True, False)]
        values = objective(active, np.stack(probes, axis=1))
        going = advance(active, left, values[:, 0])
        active, values = active[going], values[going]
        left = fc[active] < fd[active]
        active = active[advance(active, left, np.where(left, values[:, 1], values[:, 2]))]

    results = [OptResult(float(a), float(v), int(e), float(b), bool(f)) for a, v, e, b, f
               in zip(best_arg, best_val, evaluations, np.where(multi, 1e-3, hi - lo), multi)]
    return [results[i] for i in np.argsort(order)]


def minimize_over_eh_param(cfg: SystemConfig, scenario: Scenario,
                           tol: float = 1e-3) -> OptResult:
    """minimize_many of the one pair (cfg, scenario)."""
    return minimize_many([Columns(cfg, scenario)], tol)[0]
