"""Minimization of outage over the harvesting parameter (tau or rho).

A coarse grid scan locates the best cell before golden-section refinement;
the scan guards against the possibility of multiple local minima, which
unimodality of the outage curves would rule out but nothing proves. When
the scan does see several interior minima the result falls back to a dense
grid and is flagged.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .analytic import outage, outages
from .model import Scenario, SystemConfig
from .quadrature import DEFAULT_QUAD, QuadSpec

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


def minimize_over_eh_param(cfg: SystemConfig, scenario: Scenario,
                           tol: float = 1e-3,
                           quad: QuadSpec = DEFAULT_QUAD) -> OptResult:
    """Minimize the analytic outage over tau (TSR) or rho (PSR); IRR raises ValueError.

    Coarse scan over 0.02..0.98 in steps of 0.02 (one batched `outages`
    call), then golden-section refinement of the best cell until the
    bracket is narrower than tol.
    """
    grid = np.linspace(0.02, 0.98, 49)
    evaluations = len(grid)

    def objective(p: float) -> float:
        nonlocal evaluations
        evaluations += 1
        return outage(cfg, scenario.with_eh_param(p), quad).value

    values = outages([(cfg, scenario.with_eh_param(p)) for p in grid], quad)
    best_i = int(np.argmin(values))
    best_arg, best_val = float(grid[best_i]), values[best_i]

    interior_minima = [
        i for i in range(1, len(grid) - 1)
        if values[i] < values[i - 1] - _NOISE_FLOOR
        and values[i] < values[i + 1] - _NOISE_FLOOR
    ]
    if len(interior_minima) > 1:
        dense = np.arange(1, 1000) / 1000.0
        dense_vals = outages([(cfg, scenario.with_eh_param(p)) for p in dense], quad)
        evaluations += len(dense)
        j = int(np.argmin(dense_vals))
        if dense_vals[j] < best_val:
            best_arg, best_val = float(dense[j]), dense_vals[j]
        return OptResult(best_arg, best_val, evaluations, 1e-3, non_unimodal=True)

    lo = grid[best_i - 1] if best_i > 0 else _PARAM_LO
    hi = grid[best_i + 1] if best_i < len(grid) - 1 else _PARAM_HI

    c = hi - _INV_PHI * (hi - lo)
    d = lo + _INV_PHI * (hi - lo)
    fc, fd = objective(c), objective(d)
    while hi - lo > tol:
        if fc < fd:
            hi, d, fd = d, c, fc
            c = hi - _INV_PHI * (hi - lo)
            fc = objective(c)
        else:
            lo, c, fc = c, d, fd
            d = lo + _INV_PHI * (hi - lo)
            fd = objective(d)
        inner_arg, inner_val = (c, fc) if fc < fd else (d, fd)
        if inner_val < best_val:
            best_arg, best_val = float(inner_arg), inner_val

    return OptResult(best_arg, best_val, evaluations, float(hi - lo))
