"""Ergodic-outage evaluators for the eight duplex/relay/harvesting variants.

Each scenario reduces to a threshold SNR v and then either to a closed
value or to a head term plus one integral over a fading distribution: the
six half-duplex variants share one integrand (DF is AF with a noiseless
relay), the full-duplex DF case is closed form and the full-duplex AF case
is a single finite-interval integral. `outages` evaluates many (cfg,
scenario) pairs: it reduces the pairs of each variant as columns of float64
arrays and then runs one batched quadrature per integrand kind (HD, FD-AF);
`outage` is a batch of one.
"""

from __future__ import annotations

import numpy as np

from .lognormal import (XI, _log, _standardize, _standardize_product, elementwise,
                        product_db_moments, q_function, q_vector)
from .model import OutageEstimate, Scenario, SystemConfig, snr_coefficients, threshold_snr
# integrate_lognormal_weighted stays importable here: bench/spans.py hooks this name
from .quadrature import (ABS_TOL, REL_TOL, integrate_lognormal_weighted,  # noqa: F401
                         integrate_normal_batch)


def _clamp01(p):
    # quadrature roundoff can leave the sum a few ulp outside [0, 1]
    return np.minimum(1.0, np.maximum(0.0, p))


# Per integrand kind, the threshold x(z, *coefs) that a squared gain must
# clear given the integration variable z (a zero denominator is where it
# diverges). The outage adds the integral of the lower tail Q(-u) to a head
# term, with u the dB value of x standardized by (m, s): HD integrates the
# second hop Y over the first hop X, with gamma_d = A*X*Y/(B*Y + C) (DF's
# k2*X*Y is B = 0, C = 1), and FD-AF the product X*Y over the loop-back W.
# A tail whose provable bound (integrand <= 1 times the weight mass of its
# window) is at most REL_TOL times the head is dropped instead of integrated:
# the adaptive rule cannot resolve a super-exponential ramp spanning 30
# decades, and dropping the tail moves the outage by at most REL_TOL relative.
_KINDS = {
    "hd": lambda z, a, b, c, v: v * c / np.maximum(a * z - v * b, 0.0),
    "fd-af": lambda w, k1, vb_a, scale: scale * (k1 + w) / np.maximum(1.0 - vb_a * w, 0.0),
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
    (the head term) plus the integral of kind (see _KINDS) described by row i
    of tail = (mean, std, lo, hi, m, s, atol, *coefs): the dB moments of the
    weight's squared gain, the window in their standardized coordinate, the
    threshold's dB moments, the absolute tolerance (ABS_TOL times HD's head or
    FD-AF's floor) and the integrand's coefficients. kind is None for the
    closed form. An HD window ends where the weight mass above it is at most
    atol/2; an FD-AF window at the loop-back cutoff."""
    v = threshold_snr(scenario, cfg.cth)
    settled = (v == 0.0) | np.isinf(v)
    value = np.where(v == 0.0, 0.0, 1.0)  # the outage of a settled row or one past a cutoff
    v = np.where(settled, 1.0, v)  # a stand-in keeps the formulas below finite on those rows
    k1, a, b, c = snr_coefficients(cfg, scenario)
    if scenario.duplex == "fd":
        # Past the loop-back cutoff W = k1/v the relay fails (the head Pr{W >
        # k1/v}): DF's relay SNR k1/W misses v, and AF's amplified interference
        # swamps the signal. Where k1/v underflows no loop-back gain survives it.
        upper = k1 / v
        settled |= upper == 0.0
        upper = np.where(settled, 1.0, upper)
        u = _standardize(upper, cfg.chg)
        head = q_function(u)
        if scenario.relay == "df":
            # the destination fails where Z = X*Y < v/a (p_z), independently of W;
            # summing the failures, not subtracting success from 1, keeps the
            # relative precision of a tiny outage
            p_z = q_function(-_standardize_product(v / a, cfg.ch1, cfg.ch2))
            return np.where(settled, value, _clamp01(head + p_z - head * p_z)), None, None, ()
        # AF: below the cutoff Z must clear a W-dependent threshold. Where
        # essentially no loop-back gain survives the cutoff the outage is 1.
        pending = ~settled & ~(q_function(-u) <= REL_TOL * head)
        scale = v * c / a
        # The integrand is at least its value at W = 0, Pr{Z < scale*k1}: a tolerance
        # in proportion to that floor is a relative one where the outage is tiny.
        floor = q_function(-_standardize_product(scale * k1, cfg.ch1, cfg.ch2))
        return (np.where(pending, head, value), "fd-af", pending,
                (2.0 * cfg.chg.mu_db, 2.0 * cfg.chg.sigma_db, -np.inf, u,
                 *product_db_moments(cfg.ch1, cfg.ch2), ABS_TOL * floor, k1, v * b / a, scale))
    # HD: outage is certain when the first hop X misses `lower` (DF: k1*X < v;
    # AF: X <= v*B/A), otherwise the second hop Y must miss the threshold given
    # X. Where A is 0 the relay sends nothing and the outage is settled.
    lower = v * b / a if k1 is None else v / k1
    settled |= a == 0.0
    u = _standardize(lower, cfg.ch1)
    head = q_function(-u)
    pending = ~settled & ~(q_function(u) <= REL_TOL * head)
    # The tail is converged within atol = ABS_TOL*head and stops `sigmas` standard deviations
    # above X's mean, where the weight mass above, Q(sigmas) <= exp(-sigmas**2/2)/2 <=
    # atol/2, bounds the part dropped (the integrand is at most 1). A pending row's
    # Q(u) > REL_TOL*head exceeds Q(sigmas), so u < sigmas: the window is not empty.
    atol = ABS_TOL * head
    sigmas = np.sqrt(-2.0 * elementwise(_log, atol))
    return (np.where(settled, value, head), "hd", pending,
            (2.0 * cfg.ch1.mu_db, 2.0 * cfg.ch1.sigma_db, u, sigmas,
             2.0 * cfg.ch2.mu_db, 2.0 * cfg.ch2.sigma_db, atol, a, b, c, v))


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
        rows, mean, std, lo, hi, m, s, atol, *coefs = (c[pending] for c in columns)

        def integrand(u, k):
            x = threshold(np.exp((mean[k] + std[k] * u) / XI), *(col[k] for col in coefs))
            return q_vector(-((XI * np.log(x) - m[k]) / s[k]))

        values[rows] = _clamp01(values[rows] + integrate_normal_batch(integrand, lo, hi, atol))
    return values if params is None else values.reshape(params.shape)


def outage(cfg: SystemConfig, scenario: Scenario) -> OutageEstimate:
    """Analytic outage of one scenario, any variant."""
    return OutageEstimate(float(outages([(cfg, scenario)])[0]), "analytic")
