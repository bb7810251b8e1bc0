"""Outage analysis of energy-harvesting dual-hop relay links in log-normal
shadowing: analytic evaluators cross-validated by a seeded Monte Carlo
channel simulator, plus a scalar optimizer for the harvesting parameter
and a command-line experiment runner (`ehrelay`)."""

import os

# ehrelay makes no BLAS call (tests/test_quadrature.py guards that), yet
# numpy's bundled OpenBLAS starts one busy-waiting worker per extra core when
# numpy loads, which about doubles the CPU a short CLI run takes. OpenBLAS
# reads the variable only at that load, so numpy is loaded with one BLAS
# thread and the variable is dropped again: child processes inherit nothing,
# a value the caller set wins, and a numpy imported earlier keeps its pool.
if "OPENBLAS_NUM_THREADS" not in os.environ:
    os.environ["OPENBLAS_NUM_THREADS"] = "1"
    try:
        import numpy  # noqa: F401
    finally:
        del os.environ["OPENBLAS_NUM_THREADS"]

from .analytic import outage
from .lognormal import (
    XI,
    ChannelSpec,
    product_ccdf,
    q_function,
    sample_sq_gain,
    sq_gain_cdf,
    sq_gain_pdf,
)
from .model import (
    FadeSample,
    OutageEstimate,
    Scenario,
    SystemConfig,
    threshold_snr,
)
from .montecarlo import McPlan, capacities, estimate_outage, outage_indicator, snr_pair
from .optimize import OptResult, minimize_over_eh_param
from .quadrature import QuadratureError, integrate_lognormal_weighted

__version__ = "0.1.0"

__all__ = [
    "XI",
    "ChannelSpec",
    "FadeSample",
    "McPlan",
    "OptResult",
    "OutageEstimate",
    "QuadratureError",
    "Scenario",
    "SystemConfig",
    "capacities",
    "estimate_outage",
    "integrate_lognormal_weighted",
    "minimize_over_eh_param",
    "outage",
    "outage_indicator",
    "product_ccdf",
    "q_function",
    "sample_sq_gain",
    "snr_pair",
    "sq_gain_cdf",
    "sq_gain_pdf",
    "threshold_snr",
]
