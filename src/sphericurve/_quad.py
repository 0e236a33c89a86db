"""Adaptive Gauss-Legendre quadrature of many integrand columns at once.

The one adaptive routine, gauss_adaptive, refines the panels between
given nodes with vectorized integrand calls and keeps, per accepted
panel, each column's Gauss polynomial.  Cumulative tables built from
these panels are read between their nodes through that polynomial
(_INT15), and inverted through interpolants at Chebyshev points (_CHEB,
_CHEB_LEG).
"""

from __future__ import annotations

import numpy as np

_X7, _W7 = np.polynomial.legendre.leggauss(7)
_X15, _W15 = np.polynomial.legendre.leggauss(15)
# Legendre coefficients, from the 15 Gauss values on [-1, 1], of the integral
# from -1 of the polynomial through them; at 1 it is the GL15 sum
_INT15 = np.polynomial.legendre.legint(
    (np.arange(15) + 0.5)[:, None]
    * np.polynomial.legendre.legvander(_X15, 14).T * _W15, lbnd=-1)
_INT15_MID = np.polynomial.legendre.legvander(0.0, 15)[0]
# Legendre coefficients of the derivative: c @ _LEG_D.T, degree 15 to 14
_LEG_D = np.polynomial.legendre.legder(np.eye(16))
# Chebyshev points of the second kind on [-1, 1], ascending (the middle one
# exactly 0), and the matrix taking values there to the Legendre
# coefficients of their interpolant
_CHEB = np.sin(np.pi * np.arange(-8, 9) / 16.0)
_CHEB_LEG = np.linalg.inv(np.polynomial.legendre.legvander(_CHEB, 16))


def legval_rows(c, x):
    """Legendre series at x, with its own coefficients per point: column j
    of c (degree along axis 0) belongs to x[j].  Clenshaw's recurrence."""
    b1 = b2 = 0.0
    for k in range(c.shape[0] - 1, -1, -1):
        b1, b2 = c[k] + ((2 * k + 1) / (k + 1)) * x * b1 - ((k + 1) / (k + 2)) * b2, b1
    return b1


def hermite(x, h, y0, d0, y1, d1):
    """Cubic Hermite at local x in [0, 1] of a panel of width h.

    y0, y1 are the values and d0, d1 the slopes at the panel ends.
    """
    h00 = (1.0 + 2.0 * x) * (1.0 - x) ** 2
    h10 = x * (1.0 - x) ** 2
    h01 = x * x * (3.0 - 2.0 * x)
    h11 = x * x * (x - 1.0)
    return h00 * y0 + h10 * h * d0 + h01 * y1 + h11 * h * d1


def gauss_adaptive(f, nodes, tol: float):
    """Integrate the columns of f over each interval between ascending nodes.

    f(t) takes a flat array and returns the integrand columns, shaped
    (k, t.size), and each point's roundoff share.  Panels are split at
    their midpoints, all new ones evaluated in one call, until every
    column passes |GL15 - GL7| and its Gauss polynomial's left-half
    integral matches the left half's GL15, against tol or, where larger,
    the roundoff the shares explain; a panel narrower than 1e-6 or 40
    levels deep is accepted as it is.  Returns the accepted panels in
    order: their edges (every node among them), the Legendre coefficients
    on [-1, 1] of each column's cumulative polynomial (k, panels, 16),
    the panel sums (k, panels) and the first column's |GL15 - GL7|.
    """
    nodes = np.asarray(nodes, dtype=float)
    a, b = nodes[:-1], nodes[1:]
    done = []
    for level in range(41):
        n, mid, half = a.size, 0.5 * (a + b), 0.5 * (b - a)
        cols, share = f(np.concatenate([
            (mid[:, None] + half[:, None] * _X15[None, :]).ravel(),
            (mid[:, None] + half[:, None] * _X7[None, :]).ravel(),
            (0.5 * (a + mid)[:, None] + 0.5 * half[:, None] * _X15[None, :]).ravel()]))
        k = cols.shape[0]
        y15, y7, y15l = (cols[:, i * n:j * n].reshape(k, n, j - i)
                         for i, j in ((0, 15), (15, 22), (22, 37)))
        i15, i7 = half * (y15 @ _W15), half * (y7 @ _W7)
        i15l = 0.5 * half * (y15l @ _W15)
        coef = y15 @ _INT15.T
        err = np.abs(i15 - i7)
        # refinement cannot resolve below the roundoff carried by the
        # integrand; estimate that noise per panel and accept once it dominates
        tol_eff = np.maximum(tol, 4.0 * np.abs(half) * (
            (np.abs(y15) * share[:15 * n].reshape(n, 15)) @ _W15))
        miss = (err > tol_eff) | (np.abs(half * (coef @ _INT15_MID) - i15l) > tol_eff)
        split = miss.any(axis=0) & ((b - a) > 1e-6) & (level < 40)
        done.append((a[~split], coef[:, ~split], i15[:, ~split], err[0, ~split]))
        if not split.any():
            break
        mid = mid[split]
        a, b = np.concatenate([a[split], mid]), np.concatenate([mid, b[split]])

    a, coef, sums, err = zip(*done)
    order = np.argsort(a := np.concatenate(a))
    return (np.append(a[order], nodes[-1]), np.concatenate(coef, axis=1)[:, order],
            np.concatenate(sums, axis=1)[:, order], np.concatenate(err)[order])
