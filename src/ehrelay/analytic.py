"""Ergodic-outage evaluators for the eight duplex/relay/harvesting variants.

Each scenario reduces to a threshold SNR v and a weight gain whose values
below an edge make outage certain: the half-duplex first hop X, or the
full-duplex inverse loop-back gain R = 1/W. The outage is that head term
plus the chance that the other gains fail above the edge: closed form for
full-duplex DF, and one integral of one integrand for the six half-duplex
variants and full-duplex AF (DF is AF with a noiseless relay). `outages`
evaluates column sets (model.Columns: a curve, or one pair a set): it
reduces the rows of each variant together and then integrates every tail in
one batched quadrature; `outage` is a batch of one.
"""

from __future__ import annotations

import numpy as np

from .lognormal import XI, _log, _standardize, product_db_moments, q_function, q_vector
from .model import (EH_PARAMS, Columns, OutageEstimate, Scenario, SystemConfig, by_variant,
                    snr_coefficients, threshold_snr)
# integrate_lognormal_weighted stays importable here: bench/spans.py hooks this name
from .quadrature import (ABS_TOL, REL_TOL, integrate_lognormal_weighted,  # noqa: F401
                         integrate_normal_batch)


def _clamp01(p):
    # quadrature roundoff can leave the sum a few ulp outside [0, 1]
    return np.minimum(1.0, np.maximum(0.0, p))


# The threshold that a squared gain must clear given the integration variable z (a
# zero denominator is where it diverges). The outage adds the integral of the lower
# tail Q(-u) to a head term, with u the dB value of the threshold standardized by
# (m, s). HD integrates the second hop Y over the first hop X, with gamma_d =
# A*X*Y/(B*Y + C) (DF's k2*X*Y is B = 0, C = 1) and d = 0. FD-AF integrates Z = X*Y
# over the inverse loop-back gain R = 1/W: Z must clear v*c*(k1 + W)/(a - v*b*W),
# which is d + v*c*(1 + v)/(a*R - v*b) with d = v*c*k1/a, as b/a = 1/k1. A tail
# whose provable bound (integrand <= 1 times the weight mass of its window) is at
# most REL_TOL times the head is dropped instead of integrated: the adaptive rule
# cannot resolve a super-exponential ramp spanning 30 decades, and dropping the
# tail moves the outage by at most REL_TOL relative.
def _threshold(z, a, b, c, v, d):
    # d + v*c/max(a*z - v*b, 0), in place in the float64 array z
    np.multiply(a, z, out=z)
    np.subtract(z, v * b, out=z)
    np.maximum(z, 0.0, out=z)
    np.divide(v * c, z, out=z)
    return np.add(d, z, out=z)


def _reduce(columns: Columns):
    """The outages of the rows of one variant's Columns: (value, pending, tail),
    each an array of a value per row. Row i's outage is value[i], or, where
    pending[i], value[i] (the head term) plus the integral of _threshold
    described by row i of tail = (mean, std, lo, hi, m, s, atol, a, b, c, v,
    d): the dB moments of the weight's squared gain, the window in their
    standardized coordinate, the threshold's dB moments, the absolute
    tolerance and _threshold's coefficients. tail is () for the closed form.

    The head Pr{weight < lower} is where outage is certain: HD's first hop X
    misses `lower` (DF: k1*X < v; AF: X <= v*B/A), or FD's R = 1/W is below v/k1,
    past the loop-back cutoff W = k1/v (DF's relay SNR k1/W misses v, AF's relay
    swamps the signal with amplified interference). Above it FD-DF fails where Z
    = X*Y < v/a, independently of W, and the others integrate _threshold."""
    cfg, scenario = columns.pair()

    def rows(*values):  # a shared value (a float, or np.where's 0-d array) broadcast to a column
        return [x if isinstance(x, np.ndarray) and x.ndim else np.full(columns.size, x)
                for x in values]

    v = threshold_snr(scenario, cfg.cth)
    settled = (v == 0.0) | np.isinf(v)
    value = np.where(v == 0.0, 0.0, 1.0)  # the outage of a settled row
    v = np.where(settled, 1.0, v)  # a stand-in keeps the formulas below finite on those rows
    k1, a, b, c = snr_coefficients(cfg, scenario)
    lower = v * b / a if k1 is None else v / k1
    # where A is 0 the relay sends nothing, and where `lower` overflows no weight clears it
    settled |= (a == 0.0) | np.isinf(lower)
    lower = np.where(settled, 1.0, lower)
    if scenario.duplex == "fd":
        weight = (-2.0 * cfg.chg.mu_db, 2.0 * cfg.chg.sigma_db)
        hop = product_db_moments(cfg.ch1, cfg.ch2)
    else:
        weight, hop = ((2.0 * ch.mu_db, 2.0 * ch.sigma_db) for ch in (cfg.ch1, cfg.ch2))
    u = _standardize(lower, *weight)
    head = q_function(-u)
    if scenario.duplex == "fd" and scenario.relay == "df":
        # summing the failures, not subtracting success from 1, keeps the
        # relative precision of a tiny outage
        p_z = q_function(-_standardize(v / a, *hop))
        return rows(np.where(settled, value, _clamp01(head + p_z - head * p_z)))[0], None, ()
    pending = ~(settled | (q_function(u) <= REL_TOL * head))
    # Every tail stops `top` standard deviations above the weight's mean, where the weight
    # mass above, Q(top) <= exp(-top**2/2)/2 <= ABS_TOL*head/2, bounds the part dropped (the
    # integrand is at most 1). A pending row's Q(u) > REL_TOL*head exceeds Q(top), so u <
    # top: the window is not empty. HD's tail is converged within ABS_TOL*head.
    atol = ABS_TOL * head
    top = np.sqrt(-2.0 * _log(atol))
    d = 0.0
    if scenario.duplex == "fd":
        d, c = v * c / a * k1, c * (1.0 + v)
        # FD-AF's integrand is at least its limit as R grows, Pr{Z < d}: a tolerance
        # in proportion to that floor is a relative one where the outage is tiny
        atol = ABS_TOL * q_function(-_standardize(d, *hop))
    value, pending, *tail = rows(np.where(settled, value, head), pending, *weight, u, top, *hop,
                                 atol, a, b, c, v, d)
    return value, pending, tail


def outages(sets, params=None) -> np.ndarray:
    """Analytic outage of every row of the Columns `sets`, in order, as a
    float64 array. With `params` of shape (rows, m), the result has that
    shape and entry [i, j] is row i with its tau (TSR) or rho (PSR) set to
    params[i, j], which must lie in (0, 1) (an IRR row raises ValueError).
    The sets of each variant are joined and reduced together, and all their
    integrals form one quadrature batch; every value equals that of its
    row's batch of one."""
    n = sum(s.size for s in sets)
    width = 1
    if params is not None:
        params = np.asarray(params, float)
        if params.ndim != 2 or params.shape[0] != n:
            raise ValueError(f"need a row of harvesting parameters per row, got {params.shape}")
        if not ((params > 0.0) & (params < 1.0)).all():
            raise ValueError("harvesting parameters must lie in (0, 1)")
        width = params.shape[1]
    values = np.empty(n * width)
    tails = []  # per group with a tail: pending, the rows, then the tail's columns
    with np.errstate(all="ignore"):  # like Python floats, columns overflow without a warning
        for columns, rows in by_variant(sets):
            if params is not None:
                name = EH_PARAMS.get(columns.variant[2])
                if name is None:
                    raise ValueError(f"{columns.variant[2]} has no harvesting parameter")
                columns = columns.take(np.arange(columns.size).repeat(width))
                columns.changes[f"scenario.{name}"] = params[rows].ravel()
            rows = (rows[:, None] * width + np.arange(width)).ravel()
            values[rows], pending, tail = _reduce(columns)
            if tail:
                tails.append([pending, rows, *tail])
    if tails:
        pending, *columns = map(np.concatenate, zip(*tails))
        if pending.any():
            rows, mean, std, lo, hi, m, s, atol, *coefs = (c[pending] for c in columns)

            def integrand(u, k):
                # -((XI*log(x) - m)/s) at x = _threshold(exp((mean + std*u)/XI)), in one
                # node-sized buffer
                x = np.multiply(std[k], u)
                np.add(mean[k], x, out=x)
                np.divide(x, XI, out=x)
                x = _threshold(np.exp(x, out=x), *(col[k] for col in coefs))
                np.log(x, out=x)
                np.multiply(XI, x, out=x)
                np.subtract(x, m[k], out=x)
                np.divide(x, s[k], out=x)
                return q_vector(np.negative(x, out=x))

            values[rows] = _clamp01(values[rows] + integrate_normal_batch(integrand, lo, hi, atol))
    return values if params is None else values.reshape(params.shape)


def outage(cfg: SystemConfig, scenario: Scenario) -> OutageEstimate:
    """Analytic outage of one scenario, any variant."""
    return OutageEstimate(float(outages([Columns(cfg, scenario)])[0]), "analytic")
