#!/usr/bin/env python3
"""Fit the rational that `ehrelay.lognormal.q_vector` evaluates.

    python3 tools/fit_q.py

For y = x/sqrt(2) >= 0, q_vector computes Q(x) = erfc(y)/2 as

    exp(-y^2) * N(t) / (D(t) * (1 + y)),    t = y / (y + 2),

so the rational N/D approximates R(t) = erfcx(y) * (1 + y) / 2, which is smooth on
t in [0, 1): it falls from 1/2 at y = 0 to 1/(2 sqrt(pi)) as y grows. The
fit covers t in [0, 28/30], that is y in [0, 28]; from y = 27.3 on,
exp(-y^2) is below the smallest float64.

Method: linearized least squares in the relative error, with Loeb's
reweighting (each pass divides row i by the previous denominator at t_i,
so the linear residual N - R*D approaches the true one, R - N/D), on
NODES Chebyshev nodes, in mpmath at 50 digits. The constant terms are
fixed, 1 for D and R(0) = 1/2 for N, so that Q(0) is exactly 1/2. The
script prints the coefficients, rounded to float64, as the Python
literals that lognormal.py holds, and the largest relative error of N/D
evaluated in float64 (Horner, highest degree first, as q_vector does)
against mpmath on a dense grid of t. The package never imports this
file; mpmath is a test dependency.
"""

from __future__ import annotations

import mpmath

DEGREE = 9  # of both N and D
NODES = 120
T_MAX = mpmath.mpf(28) / 30
PASSES = 12
HALF = mpmath.mpf(1) / 2
CHECK_POINTS = 20000


def target(t):
    """R(t) = erfcx(y) * (1 + y) / 2 with y = 2t / (1 - t)."""
    y = 2 * t / (1 - t)
    return mpmath.exp(y * y) * mpmath.erfc(y) * (1 + y) / 2


def fit():
    """Coefficients (n, d) of N and D, lowest degree first, n[0] == 1/2, d[0] == 1."""
    ts = [T_MAX * (1 - mpmath.cos(mpmath.pi * (i + mpmath.mpf(1) / 2) / NODES)) / 2
          for i in range(NODES)]
    rs = [target(t) for t in ts]
    denom = [mpmath.mpf(1)] * NODES
    for _ in range(PASSES):
        a = mpmath.matrix(NODES, 2 * DEGREE)
        b = mpmath.matrix(NODES, 1)
        for i, (t, r, prev) in enumerate(zip(ts, rs, denom)):
            w = 1 / (r * prev)  # relative error, Loeb's weight
            for j in range(1, DEGREE + 1):
                a[i, j - 1] = w * t**j
                a[i, DEGREE + j - 1] = -w * r * t**j
            b[i] = w * (r - HALF)
        x, _ = mpmath.qr_solve(a, b)
        n = [HALF] + [x[j] for j in range(DEGREE)]
        d = [mpmath.mpf(1)] + [x[DEGREE + j] for j in range(DEGREE)]
        denom = [mpmath.polyval(d[::-1], t) for t in ts]
    return n, d


def horner(coefs, t):
    # float64 Horner, highest degree first: the order q_vector uses
    acc = coefs[-1]
    for c in coefs[-2::-1]:
        acc = acc * t + c
    return acc


def main():
    with mpmath.workdps(50):
        n, d = fit()
        n, d = [float(c) for c in n], [float(c) for c in d]
        worst, where = 0.0, 0.0
        for i in range(CHECK_POINTS + 1):
            t = float(T_MAX) * i / CHECK_POINTS
            ref = target(mpmath.mpf(t))
            err = float(abs(horner(n, t) / horner(d, t) - ref) / ref)
            if err > worst:
                worst, where = err, t
    print(f"_Q_NUM = ({', '.join(repr(c) for c in n)})")
    print(f"_Q_DEN = ({', '.join(repr(c) for c in d)})")
    print(f"# max relative error of N/D in float64: {worst:.3g} at t = {where:.6g}"
          f" ({CHECK_POINTS + 1} points on [0, {float(T_MAX):.6g}])")


if __name__ == "__main__":
    main()
