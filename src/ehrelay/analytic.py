"""Ergodic-outage evaluators for the eight duplex/relay/harvesting variants.

Each scenario reduces to a threshold SNR v and then either to a closed
value or to a head term plus one integral over a fading distribution: the
six half-duplex variants share two integrands (one DF, one AF), the
full-duplex DF case is closed form and the full-duplex AF case is a single
finite-interval integral. `outages` evaluates many (cfg, scenario) pairs:
it reduces the pairs of each variant as columns of float64 arrays and then
runs one batched quadrature per integrand kind; `outage` is a batch of one.
"""

from __future__ import annotations

import math

import numpy as np

from .lognormal import (XI, _standardize, _standardize_product, elementwise, product_db_moments,
                        q_function, q_vector)
from .model import (OutageEstimate, Scenario, SystemConfig, af_snr_coefficients,
                    df_snr_coefficients, eh_time_gain, hop_losses, relay_noise_w, threshold_snr)
# integrate_lognormal_weighted stays importable here: bench/spans.py hooks this name
from .quadrature import integrate_lognormal_batch, integrate_lognormal_weighted  # noqa: F401


def _clamp01(p):
    # quadrature roundoff can leave the sum a few ulp outside [0, 1]
    return np.minimum(1.0, np.maximum(0.0, p))


# Tail terms whose provable bound (integrand <= 1 times remaining weight
# mass) falls below this are dropped instead of integrated: the adaptive
# rule cannot resolve a super-exponential ramp spanning 30 decades, and
# every tolerance downstream is at least four orders of magnitude larger.
_NEGLIGIBLE_TAIL = 1e-9

# Per integrand kind, the threshold x(z, *coefs) that a squared gain must
# clear given the integration variable z (a zero denominator is where it
# diverges). The outage adds the integral of the lower tail Q(-u) to a head
# term, with u the dB value of x standardized by (m, s): HD integrates the
# second hop Y over the first hop X, FD-AF the product X*Y over the
# loop-back W.
_KINDS = {
    "hd-df": lambda z, v, k2: v / (k2 * z),
    "hd-af": lambda z, a, b, c, v: v * c / np.maximum(a * z - v * b, 0.0),
    "fd-af": lambda w, k, v, scale: scale * (1.0 / k + w) / np.maximum(1.0 - k * v * w, 0.0),
}


class _Columns:
    """The fields of same-typed dataclass instances (rows) as attributes:
    numbers as float64 arrays that hold each row's value `repeat` times in
    succession, a nested instance's numbers as a nested _Columns, and a str
    or None (the same on every row of one variant) as itself."""

    def __init__(self, rows=(), repeat=1):
        if not rows:
            return  # a nested _Columns, filled by its parent
        numbers, nested = [], []
        for name, value in vars(rows[0]).items():
            if value is None or isinstance(value, str):
                setattr(self, name, value)
            elif isinstance(value, (int, float)):
                numbers.append(name)
            else:
                nested.append((name, list(vars(value))))
        table = np.array([[getattr(row, name) for name in numbers]
                          + [getattr(getattr(row, name), inner)
                             for name, inners in nested for inner in inners]
                          for row in rows], float)
        columns = iter(np.repeat(table, repeat, axis=0).T)
        vars(self).update(zip(numbers, columns))
        for name, inners in nested:
            setattr(self, name, _Columns())
            vars(getattr(self, name)).update(zip(inners, columns))


def _reduce(cfg, scenario):
    """The outages of one variant's rows, given as _Columns: (value, kind,
    pending, tail). Row i's outage is value[i], or, where pending[i], value[i]
    (the head term) plus unit * the integral of kind (see _KINDS) described by
    row i of tail = (mu_db, sigma_db, lower, upper, m, s, unit, *coefs): the
    weight's channel, the gain window, the threshold's dB moments and the
    integrand's unit and coefficients. kind is None for the closed form."""
    v = threshold_snr(scenario, cfg.cth)
    settled = (v == 0.0) | np.isinf(v)
    value = np.where(v == 0.0, 0.0, 1.0)  # the outage of a settled row or one past a cutoff
    v = np.where(settled, 1.0, v)  # a stand-in keeps the formulas below finite on those rows
    if scenario.duplex == "fd" and scenario.relay == "df":
        # The relay link is loop-back limited (gamma_r = k1/W) and the
        # destination sees Z = X*Y, so the link fails when W > k1/v (p_w) or
        # Z < v/k2 (p_z), independently. Both are tails Q(-u) on standardized
        # dB coordinates, and p_w + p_z - p_w*p_z keeps their relative
        # precision where 1 - (1 - p_w)(1 - p_z) would round to 0.
        k1, k2 = df_snr_coefficients(cfg, scenario)
        p_w = q_function(-(XI * elementwise(math.log, v / k1) + 2.0 * cfg.chg.mu_db)
                         / (2.0 * cfg.chg.sigma_db))
        p_z = q_function(-_standardize_product(v / k2, cfg.ch1, cfg.ch2))
        return np.where(settled, value, _clamp01(p_w + p_z - p_w * p_z)), None, None, ()
    if scenario.duplex == "fd":
        # Beyond W = 1/(k*v) the amplified interference makes outage certain
        # (the head Pr{W > upper}); below it Z = X*Y must clear a W-dependent
        # threshold. Summing both failure events, not subtracting success from
        # 1, keeps the relative precision of a tiny outage. Where essentially
        # no loop-back realization survives the cutoff the outage is 1.
        k = eh_time_gain(cfg, scenario)
        upper = 1.0 / (k * v)
        # where k*v overflows the cutoff is 0: no loop-back realization survives it
        settled |= upper == 0.0
        upper = np.where(settled, 1.0, upper)
        u = _standardize(upper, cfg.chg)
        pending = ~settled & ~(q_function(-u) <= _NEGLIGIBLE_TAIL)
        lp1, lp2 = hop_losses(cfg)
        scale = lp1 * lp2 * v * relay_noise_w(cfg, scenario) / cfg.ps_watts
        # The integrand is at least its value at W = 0, Pr{Z < scale/k}.
        # Integrated in units of that floor, the fixed absolute tolerance
        # acts as a relative one where the outage is tiny.
        unit = np.maximum(q_function(-_standardize_product(scale / k, cfg.ch1, cfg.ch2)), 1e-300)
        return (np.where(pending, q_function(u), value), "fd-af", pending,
                (cfg.chg.mu_db, cfg.chg.sigma_db, 0.0, upper,
                 *product_db_moments(cfg.ch1, cfg.ch2), unit, k, v, scale))
    # HD: outage is certain when the first hop X misses `lower` (DF: k1*X < v;
    # AF, with gamma_d = A*X*Y/(B*Y + C): X <= v*B/A), otherwise the second
    # hop Y must miss the threshold given X. A tail whose bound is negligible
    # leaves the head alone.
    if scenario.relay == "df":
        k1, k2 = df_snr_coefficients(cfg, scenario)
        lower, coefs = v / k1, (v, k2)
    else:
        a, b, c = af_snr_coefficients(cfg, scenario)
        lower, coefs = v * b / a, (a, b, c, v)
    u = _standardize(lower, cfg.ch1)
    pending = ~settled & ~(q_function(u) <= _NEGLIGIBLE_TAIL)
    return (np.where(settled, value, q_function(-u)), f"hd-{scenario.relay}", pending,
            (cfg.ch1.mu_db, cfg.ch1.sigma_db, lower, math.inf,
             2.0 * cfg.ch2.mu_db, 2.0 * cfg.ch2.sigma_db, 1.0, *coefs))


def outages(pairs, params=None) -> np.ndarray:
    """Analytic outage of every (cfg, scenario) pair as a float64 array. With
    `params` of shape (len(pairs), m), the result has that shape and entry
    [i, j] is pair i with its tau (TSR) or rho (PSR) set to params[i, j],
    which must lie in (0, 1) (an IRR pair raises ValueError). The pairs of
    each variant are reduced together as columns, and the integrals of each
    kind form one quadrature batch; every value equals that of the pair's
    batch of one."""
    width = 1
    if params is not None:
        params = np.asarray(params, float)
        if params.ndim != 2 or params.shape[0] != len(pairs):
            raise ValueError(f"need a row of harvesting parameters per pair, got {params.shape}")
        if not ((params > 0.0) & (params < 1.0)).all():
            raise ValueError("harvesting parameters must lie in (0, 1)")
        width = params.shape[1]
    groups: dict[tuple, list[int]] = {}
    for i, (_, scenario) in enumerate(pairs):
        groups.setdefault((scenario.duplex, scenario.relay, scenario.eh), []).append(i)
    values = np.empty(len(pairs) * width)
    tails: dict[str, list] = {kind: [] for kind in _KINDS}
    with np.errstate(all="ignore"):  # like Python floats, columns overflow without a warning
        for rows in groups.values():
            first = pairs[rows[0]][1]
            cfg = _Columns([pairs[i][0] for i in rows], width)
            scenario = _Columns([pairs[i][1] for i in rows], width)
            if params is not None:
                if first.eh_param_name is None:
                    raise ValueError(f"{first.eh} has no harvesting parameter")
                setattr(scenario, first.eh_param_name, params[rows].ravel())
            rows = (np.array(rows)[:, None] * width + np.arange(width)).ravel()
            values[rows], kind, pending, tail = _reduce(cfg, scenario)
            if kind is not None:
                tails[kind].append([pending, rows, *(np.full(rows.size, c) if isinstance(c, float)
                                                     else c for c in tail)])
    for kind, threshold in _KINDS.items():
        if not tails[kind]:
            continue
        pending, *columns = map(np.concatenate, zip(*tails[kind]))
        if not pending.any():
            continue
        rows, mu_db, sigma_db, lower, upper, m, s, unit, *coefs = (c[pending] for c in columns)

        def integrand(z, k):
            x = threshold(z, *(col[k] for col in coefs))
            return q_vector(-((XI * np.log(x) - m[k]) / s[k])) / unit[k]

        tail = integrate_lognormal_batch(integrand, mu_db, sigma_db, lower, upper)
        values[rows] = _clamp01(values[rows] + unit * tail)
    return values if params is None else values.reshape(params.shape)


def outage(cfg: SystemConfig, scenario: Scenario) -> OutageEstimate:
    """Analytic outage of one scenario, any variant."""
    return OutageEstimate(float(outages([(cfg, scenario)])[0]), "analytic")
