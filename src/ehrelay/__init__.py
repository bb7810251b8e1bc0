"""Outage analysis of energy-harvesting dual-hop relay links in log-normal
shadowing: analytic evaluators cross-validated by a seeded Monte Carlo
channel simulator, plus a scalar optimizer for the harvesting parameter
and a command-line experiment runner (`ehrelay`)."""

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
    capacities,
    outage_indicator,
    snr_pair,
    threshold_snr,
)
from .montecarlo import McPlan, estimate_outage
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
