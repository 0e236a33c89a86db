"""Elliptic integrals and Jacobi functions via arithmetic-geometric means.

Everything here uses the modulus convention: ``p`` is the modulus itself,
so complete_K(p) = int_0^{pi/2} dt / sqrt(1 - p^2 sin^2 t).  Callers that
carry a parameter m = p^2 must take the square root themselves.

All routines are scalar, except that jacobi also takes an array of
arguments.  They propagate NaN inputs to NaN outputs and raise ValueError
on domain violations (p outside [0, 1], or an incomplete integral of the
first kind evaluated at or beyond its p = 1 divergence).
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

_AGM_REL_TOL = 1e-15
_AGM_MAX_ITER = 60


@dataclass(frozen=True)
class EllipticModulus:
    """Modulus p together with the complementary modulus sqrt(1 - p^2)."""

    p: float
    p_prime: float

    @classmethod
    def of(cls, p: float) -> "EllipticModulus":
        p = float(p)
        if math.isnan(p):
            return cls(p, p)
        if not 0.0 <= p <= 1.0:
            raise ValueError(f"modulus must lie in [0, 1], got {p}")
        # (1-p)(1+p) avoids cancellation for p near 1
        return cls(p, math.sqrt((1.0 - p) * (1.0 + p)))


@dataclass(frozen=True)
class JacobiTriple:
    """Values sn, cn, dn and the amplitude am at a common argument."""

    sn: float
    cn: float
    dn: float
    am: float


def _as_modulus(p) -> EllipticModulus:
    if isinstance(p, EllipticModulus):
        return p
    return EllipticModulus.of(p)


def _agm_chain(p: float, p_prime: float):
    """Descending AGM scale chain (a_n, b_n, c_n) starting from (1, p', p)."""
    a = [1.0]
    b = [p_prime]
    c = [p]
    while abs(c[-1]) > _AGM_REL_TOL * a[-1] and len(a) < _AGM_MAX_ITER:
        a0, b0 = a[-1], b[-1]
        a.append(0.5 * (a0 + b0))
        b.append(math.sqrt(a0 * b0))
        c.append(0.5 * (a0 - b0))
    return a, b, c


def complete_K(p) -> float:
    """Complete elliptic integral of the first kind, modulus convention.

    Diverges as p -> 1; p = 1 (and anything outside [0, 1]) raises.
    """
    m = _as_modulus(p)
    if math.isnan(m.p):
        return math.nan
    if m.p == 1.0:
        raise ValueError("complete_K diverges at p = 1")
    a, _, _ = _agm_chain(m.p, m.p_prime)
    return math.pi / (2.0 * a[-1])


def _incomplete_FE(phi: float, m: EllipticModulus):
    """Shared ascending-amplitude worker.

    Returns (F, E, K, E_complete).  Uses the quasi-periodicity
    F(phi + pi) = F(phi) + 2K to reduce phi into [-pi/2, pi/2], then runs
    the amplitude recursion phi_{k} = phi_{k-1} + atan2(b sin, a cos) + br*pi
    along the AGM chain.
    """
    p, pp = m.p, m.p_prime
    a, b, c = _agm_chain(p, pp)
    n_levels = len(a) - 1

    K = math.pi / (2.0 * a[-1])

    # reduce to the fundamental branch; n may be negative
    n = round(phi / math.pi)
    phi0 = phi - n * math.pi
    sign = 1.0
    if phi0 < 0.0:
        phi0 = -phi0
        sign = -1.0

    ph = phi0
    csum = 0.5 * c[0] * c[0]
    ssum = 0.0
    for k in range(1, n_levels + 1):
        d = math.atan2(b[k - 1] * math.sin(ph), a[k - 1] * math.cos(ph))
        br = round((ph - d) / math.pi)
        ph = ph + d + br * math.pi
        csum += (2.0 ** (k - 1)) * c[k] * c[k]
        ssum += c[k] * math.sin(ph)

    F0 = ph / ((2.0 ** n_levels) * a[-1])
    E0 = F0 * (1.0 - csum) + ssum
    E_comp = K * (1.0 - csum)

    F = sign * F0 + 2.0 * n * K
    E = sign * E0 + 2.0 * n * E_comp
    return F, E, K, E_comp


def incomplete_F(phi: float, p) -> float:
    """Incomplete elliptic integral of the first kind F(phi, p).

    Odd in phi and quasi-periodic: F(phi + pi, p) = F(phi, p) + 2 K(p).
    At p = 1 it equals artanh(sin phi) and diverges for |phi| >= pi/2,
    which raises ValueError.
    """
    m = _as_modulus(p)
    phi = float(phi)
    if math.isnan(phi) or math.isnan(m.p):
        return math.nan
    if m.p == 0.0:
        return phi
    if m.p == 1.0:
        if abs(phi) >= math.pi / 2.0:
            raise ValueError("incomplete_F diverges for |phi| >= pi/2 at p = 1")
        return math.atanh(math.sin(phi))
    F, _, _, _ = _incomplete_FE(phi, m)
    return F


def incomplete_E(phi: float, p) -> float:
    """Incomplete elliptic integral of the second kind E(phi, p).

    Odd in phi and quasi-periodic: E(phi + pi, p) = E(phi, p) + 2 E(p).
    Finite for every phi including p = 1, where E(phi, 1) reduces to
    sin(phi0) + 2n on the branch phi = phi0 + n*pi.
    """
    m = _as_modulus(p)
    phi = float(phi)
    if math.isnan(phi) or math.isnan(m.p):
        return math.nan
    if m.p == 0.0:
        return phi
    if m.p == 1.0:
        n = round(phi / math.pi)
        return math.sin(phi - n * math.pi) + 2.0 * n
    _, E, _, _ = _incomplete_FE(phi, m)
    return E


def jacobi(u, p) -> JacobiTriple:
    """Jacobi elliptic functions sn, cn, dn and amplitude am at argument u.

    Computed by the descending AGM transformation; the amplitude is
    recovered by back-substitution, so am(F(phi, p), p) = phi on the
    fundamental branch and sn = sin(am), cn = cos(am) hold identically.
    dn is evaluated as sqrt(cn^2 + p'^2 sn^2), which keeps
    dn^2 + p^2 sn^2 = 1 exact near dn's minimum.  u may be an array: the
    AGM chain is built once for the modulus and the recursion runs
    elementwise, giving arrays shaped like u; a scalar u gives floats.
    """
    m = _as_modulus(p)
    x = np.asarray(u, dtype=float)
    if math.isnan(m.p):
        x = np.full(x.shape, math.nan)
    if m.p == 0.0:
        out = (np.sin(x), np.cos(x), 1.0 + 0.0 * x, x)
    elif m.p == 1.0:
        sech = 1.0 / np.cosh(x)
        out = (np.tanh(x), sech, sech, np.arctan(np.sinh(x)))
    else:
        a, b, c = _agm_chain(m.p, m.p_prime)
        n_levels = len(a) - 1
        K = math.pi / (2.0 * a[-1])

        # reduce modulo the 4K period of sn/cn; am gains 2*pi per period
        cycles = np.floor((x + 2.0 * K) / (4.0 * K))
        ph = (2.0 ** n_levels) * a[-1] * (x - 4.0 * K * cycles)
        for k in range(n_levels, 0, -1):
            ph = 0.5 * (ph + np.arcsin(np.clip(c[k] / a[k] * np.sin(ph), -1.0, 1.0)))

        sn = np.sin(ph)
        cn = np.cos(ph)
        dn = np.sqrt(cn * cn + (m.p_prime * sn) * (m.p_prime * sn))
        out = (sn, cn, dn, ph + 2.0 * math.pi * cycles)
    if x.ndim == 0:
        return JacobiTriple(*(float(v) for v in out))
    return JacobiTriple(*out)
