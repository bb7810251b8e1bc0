"""Adaptive integration of log-normal-weighted integrands, many at once.

Evaluates integrals of the form  int f(z) * w(z) dz  over (lower, upper),
where w is the squared-gain density of a ChannelSpec. Substituting
t = XI*ln(z) turns w into a plain Gaussian density in t, so integrands
that span many decades in z become smooth and effectively compact in t.
The Gaussian tail is cut at TAIL_SIGMAS standard deviations (mass below
1e-23 at 10) and the finite interval is handled by adaptive
Gauss-Kronrod 10/21 bisection (Piessens et al., QUADPACK, 1983), written
in numpy so that a whole batch of integrals shares each integrand call.
"""

from __future__ import annotations

import math
from typing import Callable

import numpy as np

from .lognormal import XI, ChannelSpec

# every integral is converged to max(ABS_TOL, REL_TOL * |value|), in at most
# MAX_SUBDIVISIONS panels, over TAIL_SIGMAS standard deviations of its weight
REL_TOL = 1e-9
ABS_TOL = 1e-12
MAX_SUBDIVISIONS = 2000
TAIL_SIGMAS = 10.0


class QuadratureError(RuntimeError):
    """The adaptive rule hit its subdivision cap above tolerance."""


# QUADPACK's qk21: Kronrod nodes on [0, 1], their weights, and the weights
# of the 10-point Gauss rule on every second node
_XGK = np.array([0.9956571630258081, 0.9739065285171717, 0.9301574913557082, 0.8650633666889845,
                 0.7808177265864169, 0.6794095682990244, 0.5627571346686047, 0.4333953941292472,
                 0.2943928627014602, 0.14887433898163122, 0.0])
_WGK = np.array([0.011694638867371874, 0.032558162307964725, 0.054755896574351995,
                 0.07503967481091996, 0.0931254545836976, 0.10938715880229764, 0.12349197626206584,
                 0.13470921731147334, 0.14277593857706009, 0.14773910490133849, 0.1494455540029169])
_WG = np.zeros(11)
_WG[1::2] = (0.06667134430868814, 0.1494513491505806, 0.21908636251598204,
             0.26926671930999635, 0.29552422471475287)
_NODES = np.concatenate((-_XGK, _XGK[-2::-1]))
_WEIGHTS = np.array([np.concatenate((w, w[-2::-1])) for w in (_WGK, _WG)])  # Kronrod, Gauss

_PANELS = 8  # equal panels every integral starts from
# panels evaluated per integrand call: node arrays stay below glibc's
# 128 KiB mmap threshold, so they come from the heap and never move it
_CHUNK = 512


def _panel_rule(f, a, b, k, mean, std):
    """Kronrod value and QUADPACK error estimate of panels (a, b) of integrals k."""
    c, h = 0.5 * (a + b), 0.5 * (b - a)
    t, k = c[:, None] + h[:, None] * _NODES, k[:, None]
    u = (t - mean[k]) / std[k]
    # a gain or integrand out of range shows as a NaN error estimate (QuadratureError)
    with np.errstate(all="ignore"):
        g = (f(np.exp(t / XI), k) * (1.0 / (std[k] * math.sqrt(2.0 * math.pi)))
             * np.exp(-0.5 * u * u))
    # row sums, not BLAS products: a panel's numbers must not depend on its batch
    resk, resg = (g[:, None] * _WEIGHTS).sum(axis=2).T
    err = np.abs((resk - resg) * h)
    resabs = (np.abs(g) * _WEIGHTS[0]).sum(axis=1) * h
    resasc = (np.abs(g - 0.5 * resk[:, None]) * _WEIGHTS[0]).sum(axis=1) * h
    scaled = resasc * np.minimum(1.0, (200.0 * err / np.where(resasc > 0, resasc, 1.0)) ** 1.5)
    err = np.where(resasc > 0, scaled, err)
    return resk * h, np.maximum(50 * np.finfo(float).eps * resabs, err)


def integrate_lognormal_batch(f, mu_db, sigma_db, lower, upper) -> np.ndarray:
    """Integral k of f( . , k) against the squared-gain density of
    ChannelSpec(mu_db[k], sigma_db[k]) over gains (lower[k], upper[k]), for
    every k.

    f(z, k) gives integrand k at gain z, elementwise over arrays that
    broadcast together (k is a column of integral indexes). Each
    integral starts as 8 equal panels in t; each round calls f once on the
    21 nodes of all new panels, then bisects the panels whose error exceeds
    their width's share of their integral's tolerance. An empty window gives
    0.0, a rule that is still above tolerance at MAX_SUBDIVISIONS panels
    raises QuadratureError (never a silently low-accuracy value).
    """
    lower, upper = np.asarray(lower, float), np.asarray(upper, float)
    if not ((lower >= 0).all() and (upper > lower).all()):
        raise ValueError(f"bounds must satisfy 0 <= lower < upper, got {lower} and {upper}")
    mean, std = 2.0 * np.asarray(mu_db, float), 2.0 * np.asarray(sigma_db, float)
    with np.errstate(divide="ignore"):
        t_lo = np.maximum(mean - TAIL_SIGMAS * std, XI * np.log(lower))
        t_hi = np.minimum(mean + TAIL_SIGMAS * std, XI * np.log(upper))
    total, active = np.zeros(mean.size), t_hi > t_lo
    panels = np.where(active, _PANELS, 0)
    live = np.flatnonzero(active)
    edges = t_lo[live, None] + (t_hi - t_lo)[live, None] * np.arange(_PANELS + 1) / _PANELS
    edges[:, -1] = t_hi[live]
    a, b, k = edges[:, :-1].ravel(), edges[:, 1:].ravel(), np.repeat(live, _PANELS)
    kept = (a[:0], b[:0], k[:0], a[:0], a[:0])  # panels that stay: a, b, k, value, error
    while a.size:
        fresh = ((a,), (b,), (k,), *zip(*(
            _panel_rule(f, a[i:i + _CHUNK], b[i:i + _CHUNK], k[i:i + _CHUNK], mean, std)
            for i in range(0, a.size, _CHUNK))))
        a, b, k, val, err = (np.concatenate((old, *new)) for old, new in zip(kept, fresh))
        est = np.bincount(k, val, total.size)
        tol = np.maximum(ABS_TOL, REL_TOL * np.abs(est))
        bad = ~(err <= tol[k] * (b - a) / (t_hi - t_lo)[k])  # a NaN error is never good
        n_bad = np.bincount(k[bad], minlength=total.size)
        done = active & ((np.bincount(k, err, total.size) <= tol) | (n_bad == 0))
        total[done] = est[done]
        active &= ~done
        if not active.any():
            break
        stuck = np.flatnonzero(active & (panels + n_bad > MAX_SUBDIVISIONS))
        if stuck.size:
            i = stuck[0]
            raise QuadratureError(
                f"integral over t in [{t_lo[i]:.6g}, {t_hi[i]:.6g}] did not converge: "
                f"error above tolerance {tol[i]:.3g} at the cap of {MAX_SUBDIVISIONS} subdivisions")
        panels += n_bad
        kept = tuple(x[active[k] & ~bad] for x in (a, b, k, val, err))
        split = active[k] & bad
        a, b, k, mid = a[split], b[split], k[split], 0.5 * (a[split] + b[split])
        a, b, k = np.concatenate((a, mid)), np.concatenate((mid, b)), np.tile(k, 2)
    return total


def integrate_lognormal_weighted(f: Callable, weight: ChannelSpec, lower: float = 0.0,
                                 upper: float = math.inf) -> float:
    """Integrate f(z), vectorized in z, against the squared-gain density of
    `weight` over gains 0 <= lower < upper <= inf: integrate_lognormal_batch
    with a batch of one."""
    batch = integrate_lognormal_batch(lambda z, k: f(z), [weight.mu_db], [weight.sigma_db],
                                      [lower], [upper])
    return float(batch[0])
