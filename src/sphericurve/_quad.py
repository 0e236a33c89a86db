"""Adaptive Gauss-Legendre quadrature, scalar and batched.

The error estimate on a panel is |GL15 - GL7|; a panel is accepted when
that is below the local tolerance and split otherwise.  The batched
variant drives many panels at once through vectorized integrand calls.
Cumulative tables built from these panels are read between their nodes
through the Gauss polynomial (_INT15), and inverted through interpolants
at Chebyshev points (_CHEB, _CHEB_LEG).
"""

from __future__ import annotations

import math

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

_MAX_DEPTH = 48


def _noise_floor(half, y15):
    """Smallest |GL15 - GL7| a panel can honestly achieve.

    Two effects bound refinement from below: summation roundoff, scaling
    with the L1 node mass, and jitter in the integrand values themselves
    (positions fed through root-finding carry ~1e-12 of arc noise), whose
    quadrature impact scales with the value spread across the panel.
    Splitting shrinks both bounds at the same rate as the error they
    cause, so panels below this floor would split without progress.
    """
    along = y15.ndim - 1
    spread = np.max(y15, axis=along) - np.min(y15, axis=along)
    return 4e-15 * np.abs(half) * (np.abs(y15) @ _W15) + 2e-12 * spread


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


def gauss_adaptive(f, a: float, b: float, tol: float) -> float:
    """Integrate over [a, b] to absolute tolerance a vectorized f returning
    the integrand and each value's roundoff share; a panel whose |GL15 -
    GL7| that roundoff can explain is accepted."""
    if a == b:
        return 0.0
    total = 0.0
    stack = [(float(a), float(b), float(tol), 0)]
    while stack:
        lo, hi, t, depth = stack.pop()
        mid = 0.5 * (lo + hi)
        half = 0.5 * (hi - lo)
        y7 = f(mid + half * _X7)[0]
        y15, share = f(mid + half * _X15)
        i7 = half * float(np.dot(_W7, y7))
        i15 = half * float(np.dot(_W15, y15))
        err = abs(i15 - i7)
        noise = max(_noise_floor(half, y15),
                    4.0 * abs(half) * float(np.dot(_W15, np.abs(y15) * share)))
        if err <= t or (math.isfinite(err) and err <= noise) or depth >= _MAX_DEPTH:
            total += i15
        else:
            stack.append((lo, mid, t, depth + 1))
            stack.append((mid, hi, t, depth + 1))
    return total


def gauss_batch(f, a: np.ndarray, b: np.ndarray, tol: float) -> np.ndarray:
    """Integrate f over many intervals [a_i, b_i] at once.

    f must accept a flat array and return values elementwise.  Returns
    the per-interval integrals.  Intervals are refined independently;
    each round evaluates every still-active panel in one call.
    """
    a = np.asarray(a, dtype=float)
    b = np.asarray(b, dtype=float)
    out = np.zeros_like(a)
    owner = np.arange(a.size)
    lo, hi = a.copy(), b.copy()
    t = np.full(a.size, float(tol))
    live = lo != hi
    owner, lo, hi, t = owner[live], lo[live], hi[live], t[live]

    for depth in range(_MAX_DEPTH + 1):
        if owner.size == 0:
            break
        mid = 0.5 * (lo + hi)
        half = 0.5 * (hi - lo)
        pts7 = mid[:, None] + half[:, None] * _X7[None, :]
        pts15 = mid[:, None] + half[:, None] * _X15[None, :]
        y7 = f(pts7.ravel()).reshape(pts7.shape)
        y15 = f(pts15.ravel()).reshape(pts15.shape)
        i7 = half * (y7 @ _W7)
        i15 = half * (y15 @ _W15)
        err = np.abs(i15 - i7)
        noise = _noise_floor(half, y15)
        done = (err <= t) | (np.isfinite(err) & (err <= noise))
        done |= depth == _MAX_DEPTH
        np.add.at(out, owner[done], i15[done])
        keep = ~done
        owner, lo, hi, t = owner[keep], lo[keep], hi[keep], t[keep]
        mid = mid[keep]
        owner = np.concatenate([owner, owner])
        lo, hi = np.concatenate([lo, mid]), np.concatenate([mid, hi])
        t = np.concatenate([t, t])
    return out
