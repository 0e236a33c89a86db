"""Adaptive Gauss-Legendre quadrature of many integrand columns at once.

The one adaptive routine, gauss_adaptive, refines the panels between
given nodes with vectorized integrand calls at 15 Gauss points per panel,
and keeps, per accepted panel, each column's Gauss polynomial; the tail
of its Legendre series is both the error estimate and the acceptance
test.  Cumulative tables built from these panels are read between their
nodes through that polynomial (_INT15), and inverted through
interpolants sampled at Chebyshev points (_CHEB).
"""

from __future__ import annotations

import numpy as np


def _gauss(n):
    """Gauss-Legendre nodes and weights, by Newton on P_n in long double from
    numpy's (whose 15-point weights are up to 38 ulps off)."""
    x = np.polynomial.legendre.leggauss(n)[0].astype(np.longdouble)
    for _ in range(3):
        p0, p1 = 1.0, x
        for k in range(2, n + 1):
            p0, p1 = p1, ((2 * k - 1) * x * p1 - (k - 1) * p0) / k
        dp = n * (x * p1 - p0) / (x * x - 1.0)
        x = x - p1 / dp
    return x.astype(float), (2.0 / ((1.0 - x * x) * dp * dp)).astype(float)


_X15, _W15 = _gauss(15)
# Legendre coefficients, from the 15 Gauss values on [-1, 1], of the integral
# from -1 of the polynomial through them; at 1 it is the GL15 sum
_INT15 = np.polynomial.legendre.legint(
    (np.arange(15) + 0.5)[:, None]
    * np.polynomial.legendre.legvander(_X15, 14).T * _W15, lbnd=-1)
# Legendre coefficients of the derivative: c @ _LEG_D.T, degree 15 to 14
_LEG_D = np.polynomial.legendre.legder(np.eye(16))
# Chebyshev points of the second kind on [-1, 1], ascending (the middle one
# exactly 0)
_CHEB = np.sin(np.pi * np.arange(-8, 9) / 16.0)


def legval_rows(c, x):
    """Legendre series at x, with its own coefficients per point: column j
    of c (degree along axis 0) belongs to x[j].  Clenshaw's recurrence."""
    b1 = b2 = 0.0
    for k in range(c.shape[0] - 1, -1, -1):
        b1, b2 = c[k] + ((2 * k + 1) / (k + 1)) * x * b1 - ((k + 1) / (k + 2)) * b2, b1
    return b1


def gauss_adaptive(f, nodes, tol: float):
    """Integrate the columns of f over each interval between ascending nodes.

    f(t) takes a flat array and returns the integrand columns, shaped
    (k, t.size).  Each round evaluates f once, at the 15 Gauss points of
    every open panel.  A panel is accepted when, for every column, its
    cumulative polynomial's two highest Legendre coefficients, times the
    half width, are within tol (the Legendre tail, as Aurentz & Trefethen
    chop a Chebyshev series); otherwise it is split at its midpoint.  A
    panel narrower than 1e-6 or 40 levels deep is accepted as it is.
    Returns the accepted panels in order: their edges (every node among
    them), the Legendre coefficients on [-1, 1] of each column's
    cumulative polynomial (k, panels, 16), the GL15 panel sums (k, panels)
    and the first column's tail.
    """
    nodes = np.asarray(nodes, dtype=float)
    a, b = nodes[:-1], nodes[1:]
    done = []
    for level in range(41):
        mid, half = 0.5 * (a + b), 0.5 * (b - a)
        y15 = f((mid[:, None] + half[:, None] * _X15[None, :]).ravel())
        y15 = y15.reshape(y15.shape[0], a.size, 15)
        coef = y15 @ _INT15.T
        err = half * np.abs(coef[..., 14:]).max(axis=-1)
        split = (err > tol).any(axis=0) & ((b - a) > 1e-6) & (level < 40)
        sums = half * (y15 @ _W15)
        done.append((a[~split], coef[:, ~split], sums[:, ~split], err[0, ~split]))
        if not split.any():
            break
        mid = mid[split]
        a, b = np.concatenate([a[split], mid]), np.concatenate([mid, b[split]])

    a, coef, sums, err = zip(*done)
    order = np.argsort(a := np.concatenate(a))
    return (np.append(a[order], nodes[-1]), np.concatenate(coef, axis=1)[:, order],
            np.concatenate(sums, axis=1)[:, order], np.concatenate(err)[order])
