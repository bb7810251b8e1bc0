"""Adaptive integration of Gaussian-weighted integrands, many at once.

Evaluates integrals of the form  int f(s) * phi(s) ds  over (lo, hi), with
phi the standard normal density: a squared gain's log-normal density, in
the standardized coordinate s of its dB value, so integrands that span many
decades of gain are smooth and effectively compact in s, whatever the
spread. The tail is cut at TAIL_SIGMAS (mass below 1e-23 at 10) and the
finite interval is handled by adaptive Gauss-Kronrod 10/21 bisection
(Piessens et al., QUADPACK, 1983), written in numpy so that a whole batch
of integrals shares each integrand call.
"""

from __future__ import annotations

import math
from typing import Callable

import numpy as np

from .lognormal import XI, ChannelSpec, _standardize

# integral k is converged to max(atol[k], REL_TOL * |value|), atol ABS_TOL by default,
# in at most MAX_SUBDIVISIONS panels, over TAIL_SIGMAS standard deviations of its weight
REL_TOL = 1e-9
ABS_TOL = 1e-12
MAX_SUBDIVISIONS = 2000
TAIL_SIGMAS = 10.0


class QuadratureError(RuntimeError):
    """The adaptive rule hit its subdivision cap above tolerance."""


# QUADPACK's qk21: Kronrod nodes on [0, 1], their weights, and the weights
# of the 10-point Gauss rule on every second node (1, 3, .., 9)
_XGK = np.array([0.9956571630258081, 0.9739065285171717, 0.9301574913557082, 0.8650633666889845,
                 0.7808177265864169, 0.6794095682990244, 0.5627571346686047, 0.4333953941292472,
                 0.2943928627014602, 0.14887433898163122, 0.0])
_WGK = np.array([0.011694638867371874, 0.032558162307964725, 0.054755896574351995,
                 0.07503967481091996, 0.0931254545836976, 0.10938715880229764, 0.12349197626206584,
                 0.13470921731147334, 0.14277593857706009, 0.14773910490133849, 0.1494455540029169])
_WG = np.array([0.06667134430868814, 0.1494513491505806, 0.21908636251598204,
                0.26926671930999635, 0.29552422471475287])
# the rule as columns over its 21 nodes on [-1, 1]: a chunk holds node j of
# panel i at [j, i], and the Gauss nodes are rows 1, 3, .., 19
_NODES = np.concatenate((-_XGK, _XGK[-2::-1]))[:, None]
_KRONROD = np.concatenate((_WGK, _WGK[-2::-1]))[:, None]
_GAUSS = np.concatenate((_WG, _WG[::-1]))[:, None]

_PANELS = 6  # equal panels an uncut window starts from
# panels evaluated per integrand call. A chunk's (21, 512) node arrays, 86,016
# bytes, are the rule's largest temporaries: they stay below glibc's initial
# 128 KiB mmap threshold, whose first crossing would raise it
_CHUNK = 512


def _panel_rule(f, a, b, k):
    """Kronrod value and QUADPACK error estimate of panels (a, b) of integrals k."""
    if a.size == 1:  # numpy sums a lone (21, 1) column pairwise, not in node order
        return tuple(x[:1] for x in _panel_rule(f, *(np.repeat(x, 2) for x in (a, b, k))))
    c, h = 0.5 * (a + b), 0.5 * (b - a)
    s = _NODES * h
    s += c
    g = f(s, k) * (1.0 / math.sqrt(2.0 * math.pi))
    s *= s
    s *= -0.5  # -0.5 * s * s, as halving is exact
    g = np.multiply(g, np.exp(s, out=s), out=s)
    # sums down the node axis, not BLAS products: a panel's numbers must not
    # depend on its batch, and numpy adds the rows of a (21, n >= 2) array in order
    work = g * _KRONROD
    resk = work.sum(axis=0)
    resg = np.multiply(g[1::2], _GAUSS, out=work[:10]).sum(axis=0)
    err = np.abs((resk - resg) * h)
    resabs = np.multiply(np.abs(g, out=work), _KRONROD, out=work).sum(axis=0) * h
    work = np.abs(np.subtract(g, 0.5 * resk, out=work), out=work)
    resasc = np.multiply(work, _KRONROD, out=work).sum(axis=0) * h
    scaled = resasc * np.minimum(1.0, (200.0 * err / np.where(resasc > 0, resasc, 1.0)) ** 1.5)
    err = np.where(resasc > 0, scaled, err)
    return resk * h, np.maximum(50 * np.finfo(float).eps * resabs, err)


# a node or integrand out of float range shows as a NaN error estimate
# (QuadratureError) or a saturated value, never as a numpy warning
@np.errstate(all="ignore")
def integrate_normal_batch(f, lo, hi, atol=ABS_TOL) -> np.ndarray:
    """Integral k of f( . , k) against the standard normal density over
    (lo[k], hi[k]) cut to +-TAIL_SIGMAS, within max(atol[k], REL_TOL * |value|),
    for every k; atol is one tolerance or one per integral.

    f(s, k) gives integrand k at s, elementwise, without writing to s: s is
    a (21, n) array whose column i holds the nodes of a panel of integral
    k[i], k a row of n integral indexes, so k's gathered columns broadcast
    along s's rows. Each integral starts as ceil(6*w/(2*TAIL_SIGMAS)) equal
    panels, at least 1, w being the width of its cut window, so no starting
    panel is wider than 3.33. Each round calls f on the 21 nodes of all new
    panels, up to _CHUNK panels a call, then bisects the panels whose error
    exceeds their width's share of their integral's tolerance.
    An integral's value depends on its own row only, never on the rest of
    the batch. An empty window gives 0.0; a NaN bound, or a rule that is
    still above tolerance at MAX_SUBDIVISIONS panels, raises QuadratureError
    (never a silently low-accuracy value).
    """
    s_lo = np.maximum(-TAIL_SIGMAS, np.asarray(lo, float))
    s_hi = np.minimum(TAIL_SIGMAS, np.asarray(hi, float))
    width = s_hi - s_lo
    # a NaN bound makes an active 1-panel integral, whose NaN error raises below
    total, active = np.zeros(width.size), ~(s_hi <= s_lo)
    share = width / (2.0 * TAIL_SIGMAS)  # exactly 1.0 (6 panels) for an uncut window
    panels = np.where(active, np.fmax(np.ceil(_PANELS * share), 1.0), 0.0).astype(int)
    k = np.repeat(np.arange(width.size), panels)
    j = np.arange(k.size) - np.repeat(np.cumsum(panels) - panels, panels)  # panel j of integral k
    start, step, n = s_lo[k], width[k], panels[k]
    a = start + step * j / n
    b = np.where(j + 1 < n, start + step * (j + 1) / n, s_hi[k])
    kept = ()  # after the first round, the panels that stay: a, b, k, value, error
    while a.size:
        fresh = (a, b, k, *map(np.concatenate, zip(*(
            _panel_rule(f, a[i:i + _CHUNK], b[i:i + _CHUNK], k[i:i + _CHUNK])
            for i in range(0, a.size, _CHUNK)))))
        a, b, k, val, err = map(np.concatenate, zip(kept, fresh)) if kept else fresh
        est = np.bincount(k, val, total.size)
        tol = np.maximum(atol, REL_TOL * np.abs(est))
        bad = ~(err <= tol[k] * (b - a) / width[k])  # a NaN error is never good
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
                f"integral over s in [{s_lo[i]:.6g}, {s_hi[i]:.6g}] did not converge: "
                f"error above tolerance {tol[i]:.3g} at the cap of {MAX_SUBDIVISIONS} subdivisions")
        panels += n_bad
        live = active[k]
        kept = tuple(x[live & ~bad] for x in (a, b, k, val, err))
        split = live & bad
        a, b, k, mid = a[split], b[split], k[split], 0.5 * (a[split] + b[split])
        a, b, k = np.concatenate((a, mid)), np.concatenate((mid, b)), np.tile(k, 2)
    return total


def integrate_lognormal_weighted(f: Callable, weight: ChannelSpec, lower: float = 0.0,
                                 upper: float = math.inf) -> float:
    """Integrate f(z), vectorized in z, against the squared-gain density of
    `weight` over gains 0 <= lower < upper <= inf: integrate_normal_batch
    with a batch of one, in the standardized dB coordinate of `weight`."""
    if not 0.0 <= lower < upper:
        raise ValueError(f"bounds must satisfy 0 <= lower < upper, got {lower} and {upper}")
    mean, std = 2.0 * weight.mu_db, 2.0 * weight.sigma_db
    lo, hi = (_standardize(x, mean, std) for x in (lower, upper))
    batch = integrate_normal_batch(lambda s, k: f(np.exp((mean + std * s) / XI)), [lo], [hi])
    return float(batch[0])
