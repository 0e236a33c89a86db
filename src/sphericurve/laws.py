"""Curvature laws kappa(z), their momentum antiderivatives, and admissible bands.

A law prescribes geodesic curvature as a function of height z on the unit
sphere.  Its antiderivative K(z) = c + int kappa dz is the conserved
angular momentum of the curve around the z-axis, and the quartic-like
profile P(z) = 1 - z^2 - K(z)^2 controls where motion can happen: the
curve lives where P > 0, turns where P hits a simple zero, passes through
a pole where the zero sits at |z| = 1 with K(z) = 0, and runs off to an
asymptotic height where the zero is double.

Phi-form helpers (momentum_phi, curvature_phi, lambda_rate_phi) evaluate
the same quantities as functions of the extended latitude, which stays
single-valued when a curve passes through a pole onto the far sheet.
Each family is one CurvatureLaw subclass stating K and kappa once in
(sin phi, cos phi); MomentumLaw derives every other form from them.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field, replace
from fractions import Fraction
from functools import partial
from typing import Callable, Optional

import numpy as np
from numpy.polynomial import Chebyshev, Polynomial
from numpy.polynomial.chebyshev import chebdiv, chebtrim
from numpy.polynomial.polynomial import polydiv, polyval

from ._fd import check_uniform, deriv1
from ._quad import gauss_adaptive, legval_rows

TURNING_POINT = "turning-point"
POLE_PASSAGE = "pole-passage"
OPEN_BOUNDARY = "open-boundary"

# relative slack when matching polynomial roots: momentum roots at u = +-1,
# and roots of P's numerator between which it stays within this share of
# its summed terms (one root of their joint multiplicity)
_CONTACT_COEF_TOL = 1e-12


def _poly(*coefs):
    """Power series in z with exact (Fraction) coefficients, ascending."""
    return Polynomial(np.array([Fraction(x) for x in coefs], dtype=object))


_W2 = _poly(1, 0, -1)  # 1 - z^2
_ONE = _poly(1)
# Gauss-Legendre on [0, 1]
_X8, _W8 = np.polynomial.legendre.leggauss(8)
_X8, _W8 = 0.5 * (_X8 + 1.0), 0.5 * _W8


def _at_z(z, fn, *c):
    """fn(u, w, *c) at heights z, with u = z and w = sqrt(1 - z^2)."""
    z = np.asarray(z, dtype=float)
    with np.errstate(invalid="ignore", divide="ignore"):
        out = fn(z, (1.0 - z * z) ** 0.5, *c)
    if np.ndim(z) == 0:
        return float(out)
    return out


def _at_phi(phi, fn, *c):
    """fn(u, w, *c) at extended latitudes phi, with (u, w) = (sin, cos)."""
    phi = np.asarray(phi, dtype=float)
    with np.errstate(invalid="ignore", divide="ignore"):
        out = fn(np.sin(phi), np.cos(phi), *c)
    if np.ndim(phi) == 0:
        return float(out)
    return out


@dataclass(frozen=True)
class CurvatureLaw:
    """A prescribed geodesic curvature kappa(z).

    kind        one of the built-in family tags or "custom"
    params      family parameters by name
    domain      open z-interval on which kappa is finite
    singular_z  interior heights where kappa blows up (splits the domain
                into smooth pieces)

    Each family is a subclass that states its momentum K and curvature
    kappa once, as functions of (u, w) = (sin phi, cos phi) of the
    extended latitude; w keeps its sign on the far sheet after a pole
    passage, and the z-forms take w = +sqrt(1 - z^2).  Square roots are
    written ** 0.5 so one formula serves numpy arrays and plain floats.
    Each also states its profile exactly, P = N / D with N and D
    polynomials in z and D > 0 on every smooth piece.
    """

    kind: str
    params: dict
    domain: tuple = (-1.0, 1.0)
    singular_z: tuple = ()
    kappa_fn: Optional[Callable] = field(default=None, repr=False)

    # True where the closed form pins the momentum offset c to 0
    baked_c = False

    def _K(self, u, w, c):
        """Momentum with offset c."""
        raise NotImplementedError

    def _kap(self, u, w):
        raise NotImplementedError

    def _rate(self, u, w, c):
        """Longitude rate -K / w^2.  On the half toward a pole where K
        vanishes, K = (z - pole) Q with Q the mean of kappa over [pole, z]
        (8-point Gauss), and the factor of w^2 = (1 - z)(1 + z) cancels."""
        z = np.atleast_1d(u)
        rate = np.atleast_1d(-self._K(u, w, c) / (w * w)).astype(float)
        for pole in (-1.0, 1.0):
            if self._touches(pole, c):
                on = z * pole >= 0.0
                q = _W8 @ self._kap(pole + _X8[:, None] * (z[on] - pole), None)
                rate[on] = pole * q / (1.0 + pole * z[on])
        return rate.reshape(np.shape(u))

    def _profile(self, c):
        """(N, D), exact power series in z (_poly) with P = N / D."""
        raise NotImplementedError

    def _touches(self, pole, c):
        """Whether K vanishes at the pole z = +-1, an end of the domain."""
        return pole in self.domain and abs(self._K(pole, 0.0, c)) <= _CONTACT_COEF_TOL

    def _pieces(self, c):
        """Per smooth piece of the domain (lo, hi, N, D, panels): P = N / D
        there, and the panels (za, zb, series of N in z) cover the piece."""
        N, D = self._profile(c)
        Nf, Df = Polynomial(N.coef.astype(float)), partial(_horner, D.coef.astype(float)[::-1])
        edges = self._edges()
        return [(a, b, Nf, Df, [(a, b, N)]) for a, b in zip(edges[:-1], edges[1:])]

    def _edges(self):
        """Domain ends (within [-1, 1]) and interior singular heights, ascending."""
        lo, hi = max(self.domain[0], -1.0), min(self.domain[1], 1.0)
        return [lo, *(z for z in self.singular_z if lo < z < hi), hi]

    def kappa(self, z):
        """Evaluate kappa at z (array-valued); NaN outside the domain."""
        lo, hi = self.domain
        return _at_z(z, lambda z, w: np.where((z < lo) | (z > hi), np.nan,
                                              self._kap(z, w)))

    def scalar_kappa(self):
        """A plain-float evaluator, cheap enough for inner ODE loops."""
        lo, hi = self.domain
        kap = self._kap

        def f(z):
            if not lo <= z <= hi:
                return math.nan
            try:
                return float(kap(z, (1.0 - z * z) ** 0.5))
            except (ZeroDivisionError, TypeError):
                # plain floats raise at a pole and turn complex past a
                # rounded domain edge; numpy gives the IEEE inf or NaN
                return self.kappa(z)
        return f


def _horner(coefs, u):
    """Polynomial with descending coefficients at u, shaped like u."""
    out = coefs[0] + 0.0 * u
    for a in coefs[1:]:
        out = out * u + a
    return out


class _PolynomialLaw(CurvatureLaw):
    """Momentum polynomial in u with the free offset c as constant term."""

    def _coefs(self, c):
        raise NotImplementedError

    def _K(self, u, w, c):
        return _horner(self._coefs(c), u)

    def _profile(self, c):
        K = _poly(*self._coefs(c)[::-1])
        return _W2 - K * K, _ONE

    def _touches(self, pole, c):
        coefs = self._coefs(c)
        return abs(_horner(coefs, pole)) <= _CONTACT_COEF_TOL * (
            1.0 + sum(abs(x) for x in coefs))


class _ConstantLaw(_PolynomialLaw):
    def _coefs(self, c):
        return (self.params["k0"], c)

    def _kap(self, u, w):
        return self.params["k0"] + 0.0 * u


class _ElasticaLaw(_PolynomialLaw):
    def _coefs(self, c):
        return (self.params["a"], self.params["b"], c)

    def _kap(self, u, w):
        return 2.0 * self.params["a"] * u + self.params["b"]


class _LoxodromeLaw(CurvatureLaw):
    baked_c = True

    def _K(self, u, w, c):
        return -self.params["a"] * w

    def _kap(self, u, w):
        return self.params["a"] * u / w

    def _rate(self, u, w, c):
        return self.params["a"] / w

    def _profile(self, c):
        a = Fraction(self.params["a"])
        return (1 - a * a) * _W2, _ONE


class _LoxoOneLaw(CurvatureLaw):
    baked_c = True

    def _K(self, u, w, c):
        return -(self.params["a"] - u * u) ** 0.5

    def _kap(self, u, w):
        return u / (self.params["a"] - u * u) ** 0.5

    def _profile(self, c):
        return _poly(1 - Fraction(self.params["a"])), _ONE


class _LoxoSuperLaw(CurvatureLaw):
    baked_c = True

    def _K(self, u, w, c):
        return -(1.0 - self.params["a"] * u * u) ** 0.5

    def _kap(self, u, w):
        return self.params["a"] * u / (1.0 - self.params["a"] * u * u) ** 0.5

    def _profile(self, c):
        return _poly(0, 0, Fraction(self.params["a"]) - 1), _ONE


class _CatenaryLaw(CurvatureLaw):
    baked_c = True

    def _K(self, u, w, c):
        return -self.params["a"] / u

    def _kap(self, u, w):
        return self.params["a"] / (u * u)

    def _profile(self, c):
        a = Fraction(self.params["a"])
        return _poly(-a * a, 0, 1, 0, -1), _poly(0, 0, 1)


class _SnFamilyLaw(CurvatureLaw):
    baked_c = True

    def _K(self, u, w, c):
        return self.params["p"] * u * w

    def _kap(self, u, w):
        return self.params["p"] * (1.0 - 2.0 * u * u) / w

    def _rate(self, u, w, c):
        return -self.params["p"] * u / w

    def _profile(self, c):
        return _W2 * _poly(1, 0, -Fraction(self.params["p"]) ** 2), _ONE


class _CleliaLaw(CurvatureLaw):
    """Viviani (n = 1) and the other Clelias, phi = n lambda."""

    baked_c = True

    def _K(self, u, w, c):
        return -w * w / (self.params["n"] ** 2 + w * w) ** 0.5

    def _kap(self, u, w):
        n2 = self.params["n"] ** 2
        g = n2 + w * w
        return u * (2.0 * n2 + w * w) / (g * g ** 0.5)

    def _rate(self, u, w, c):
        return 1.0 / (self.params["n"] ** 2 + w * w) ** 0.5

    def _profile(self, c):
        n2 = Fraction(self.params["n"]) ** 2
        return n2 * _W2, _poly(n2 + 1, 0, -1)


# Chebyshev points on [-1, 1] (ends included) where a custom panel's P, of
# degree 30 in the local variable, is sampled, the matrix taking those values
# to its Chebyshev coefficients, and the panel's K (Legendre) at the points
_CHEB31 = np.cos(np.pi * np.arange(31) / 30.0)
_CHEB31_COEF = np.linalg.inv(np.polynomial.chebyshev.chebvander(_CHEB31, 30))
_LEG_CHEB31 = np.polynomial.legendre.legvander(_CHEB31, 15)


@dataclass(frozen=True)
class _CustomLaw(CurvatureLaw):
    """A user kappa.  K integrates it with gauss_adaptive, anchored as
    custom_law says, so K and P are one polynomial per panel."""

    def __post_init__(self):
        edges = self._edges()

        def col(z):
            kv = np.broadcast_to(np.asarray(self.kappa(z), dtype=float), z.shape)
            if not np.isfinite(kv).all():
                raise ValueError("custom law must be finite on the interior of its domain")
            return kv[None]

        # K to 1e-14 from 64 equal panels per smooth piece (fewer would let
        # a narrow kappa feature slip between the first round's Gauss
        # points), its panel rises summed outward from each piece's anchor
        start = np.unique(np.concatenate([np.linspace(x, y, 65)
                                          for x, y in zip(edges[:-1], edges[1:])]))
        t, coef, sums, _ = gauss_adaptive(col, start, 1e-14)
        base = np.zeros(t.size - 1)
        object.__setattr__(self, "_table", (t, base, coef[0], tuple(zip(edges[:-1], edges[1:]))))
        for plo, phi_ in self._table[3]:
            z = min(max(0.0, plo), phi_)
            if z in self.singular_z:
                z = phi_ if z == plo else plo
            on = np.flatnonzero((t[:-1] >= plo) & (t[1:] <= phi_))
            i, part = self._local(np.array([z]))
            k, rise = int(np.searchsorted(on, i[0])), sums[0, on]
            base[on] = np.concatenate([-np.cumsum(rise[:k][::-1])[::-1], [0.0],
                                       np.cumsum(rise[k:-1])]) - part[0]

    def _local(self, z):
        """Panel of each height z (flat) and K's rise across it up to z."""
        t, _, coef, _ = self._table
        i = np.clip(np.searchsorted(t, z) - 1, 0, t.size - 2)
        half = 0.5 * (t[i + 1] - t[i])
        return i, half * legval_rows(coef[i].T, (z - t[i]) / half - 1.0)

    def _K(self, u, w, c):
        z = np.asarray(u, dtype=float)
        i, part = self._local(z.ravel())
        K = np.where((z.ravel() < self.domain[0]) | (z.ravel() > self.domain[1]),
                     np.nan, self._table[1][i] + part + c)
        return K.reshape(z.shape)

    def _kap(self, u, w):
        u = np.asarray(u, dtype=float)  # kappa_fn may return a scalar
        kv = np.asarray(self.kappa_fn(u.ravel()), dtype=float)
        return np.broadcast_to(kv, (u.size,)).reshape(u.shape)

    def _touches(self, pole, c):
        # relative to the end panel's K polynomial, as for polynomial laws
        t, base, coef, _ = self._table
        i = 0 if pole < 0.0 else t.size - 2
        terms = np.append(0.5 * (t[i + 1] - t[i]) * coef[i] * pole ** np.arange(16), base[i] + c)
        return pole in self.domain and abs(terms.sum()) <= _CONTACT_COEF_TOL * (
            1.0 + np.abs(terms).sum())

    def _pieces(self, c):
        t, base, coef, pieces = self._table
        a, b = t[:-1], t[1:]
        half = 0.5 * (b - a)
        z = (a + half)[:, None] + half[:, None] * _CHEB31
        K = base[:, None] + c + half[:, None] * (coef @ _LEG_CHEB31.T)
        w2, K2 = (1.0 - z) * (1.0 + z), K * K
        cheb = (w2 - K2) @ _CHEB31_COEF.T
        # coefficients below the rounding of the sampled values are dropped
        trim = 8e-16 * (np.abs(w2) + K2).max(axis=1)
        return [(plo, phi_, lambda z: 1.0 - z * z - self._K(z, None, c) ** 2, Polynomial([1.0]), [
            (a[i], b[i], Chebyshev(chebtrim(cheb[i], trim[i]), domain=[a[i], b[i]]))
            for i in np.flatnonzero((a >= plo) & (b <= phi_))])
            for plo, phi_ in pieces]


def _finite(name, value):
    value = float(value)
    if not math.isfinite(value):
        raise ValueError(f"{name} must be finite, got {value}")
    return value


def constant_law(k0: float) -> CurvatureLaw:
    """kappa(z) = k0.  Circles: small circles for k0 != 0, great for k0 = 0."""
    return _ConstantLaw("constant", {"k0": _finite("k0", k0)})


def linear_elastica_law(a: float, b: float = 0.0) -> CurvatureLaw:
    """kappa(z) = 2 a z + b, the spherical elastica profile.  Needs a != 0."""
    a = _finite("a", a)
    if a == 0.0:
        raise ValueError("linear elastica needs a != 0; use constant_law")
    return _ElasticaLaw("linear-elastica", {"a": a, "b": _finite("b", b)})


def loxodrome_law(a: float) -> CurvatureLaw:
    """kappa(z) = a z / sqrt(1 - z^2) with 0 < a < 1 (constant bearing)."""
    a = _finite("a", a)
    if not 0.0 < a < 1.0:
        raise ValueError("loxodrome parameter must satisfy 0 < a < 1")
    return _LoxodromeLaw("loxodrome", {"a": a})


def loxo_one_law(a: float) -> CurvatureLaw:
    """kappa(z) = z / sqrt(a - z^2) with 0 < a < 1 (linear-height spiral)."""
    a = _finite("a", a)
    if not 0.0 < a < 1.0:
        raise ValueError("loxo-one parameter must satisfy 0 < a < 1")
    r = math.sqrt(a)
    return _LoxoOneLaw("loxo-one", {"a": a}, domain=(-r, r))


def loxo_super_law(a: float) -> CurvatureLaw:
    """kappa(z) = a z / sqrt(1 - a z^2) with a > 1 (exponential-height spiral)."""
    a = _finite("a", a)
    if not a > 1.0:
        raise ValueError("loxo-super parameter must satisfy a > 1")
    r = 1.0 / math.sqrt(a)
    return _LoxoSuperLaw("loxo-super", {"a": a}, domain=(-r, r))


def catenary_law(a: float) -> CurvatureLaw:
    """kappa(z) = a / z^2 with 0 < a < 1/2."""
    a = _finite("a", a)
    if not 0.0 < a < 0.5:
        raise ValueError("catenary parameter must satisfy 0 < a < 1/2")
    return _CatenaryLaw("catenary", {"a": a}, singular_z=(0.0,))


def sn_family_law(p: float) -> CurvatureLaw:
    """kappa(z) = p (1 - 2 z^2) / sqrt(1 - z^2) with 0 < p < 1."""
    p = _finite("p", p)
    if not 0.0 < p < 1.0:
        raise ValueError("sn-family parameter must satisfy 0 < p < 1")
    return _SnFamilyLaw("sn-family", {"p": p})


def viviani_law() -> CurvatureLaw:
    """kappa(z) = z (3 - z^2) / (2 - z^2)^(3/2), the phi = lambda curve."""
    return _CleliaLaw("viviani", {"n": 1.0})


def clelia_law(n: float) -> CurvatureLaw:
    """kappa(z) = z (2 n^2 + 1 - z^2) / (n^2 + 1 - z^2)^(3/2); phi = n lambda."""
    n = _finite("n", n)
    if not n > 0.0:
        raise ValueError("clelia parameter must satisfy n > 0")
    return _CleliaLaw("clelia", {"n": n})


def custom_law(kappa, domain=(-1.0, 1.0), singular_z=()) -> CurvatureLaw:
    """Wrap an arbitrary callable kappa(z) (must accept numpy arrays).

    K = c at each smooth piece's point nearest 0 (the pieces lie between
    the domain ends and singular_z), or at its far end if that is singular.
    """
    lo, hi = float(domain[0]), float(domain[1])
    if not -1.0 <= lo < hi <= 1.0:
        raise ValueError("domain must be a subinterval of [-1, 1]")
    probe = 0.5 * (lo + hi)
    try:
        np.asarray(kappa(np.array([probe, probe])), dtype=float)
        fn = kappa
    except Exception:
        fn = np.vectorize(kappa, otypes=[float])
    return _CustomLaw(
        "custom", {}, domain=(lo, hi),
        singular_z=tuple(sorted(float(x) for x in singular_z)), kappa_fn=fn,
    )


class MomentumLaw:
    """Momentum antiderivative K(z) of a curvature law, with offset c.

    Construct through antiderivative().  Families whose K is pinned by
    the closed form (every kind except constant, linear-elastica and
    custom) reject a nonzero c.
    """

    def __init__(self, law: CurvatureLaw, c: float = 0.0):
        c = _finite("c", c)
        if law.baked_c and c != 0.0:
            raise ValueError(
                f"{law.kind} has its momentum offset baked in; c must be 0"
            )
        self.law = law
        self.c = c

    # -- z-form -----------------------------------------------------------

    def value(self, z):
        """K(z)."""
        return _at_z(z, self.law._K, self.c)

    __call__ = value

    def deriv(self, z):
        """K'(z) = kappa(z)."""
        return self.law.kappa(z)

    def P(self, z):
        """Admissibility profile 1 - z^2 - K(z)^2."""
        return _at_z(z, lambda u, w, c: 1.0 - u * u - self.law._K(u, w, c) ** 2, self.c)

    # -- phi-form ---------------------------------------------------------

    def momentum_phi(self, phi):
        """Momentum as a function of extended latitude.

        Agrees with K(sin phi) on the principal sheet and continues
        smoothly through pole passages (where sqrt branches would flip).
        """
        return _at_phi(phi, self.law._K, self.c)

    def curvature_phi(self, phi):
        """Curvature along the curve as a function of extended latitude."""
        return _at_phi(phi, self.law._kap)

    def lambda_rate_phi(self, phi):
        """Longitude rate -M(phi) / cos^2(phi), cancellation-free at contacts.

        Where the momentum vanishes at a touched pole the matching factor
        of cos^2 is divided out (CurvatureLaw._rate), so smooth pole
        passages get a finite rate; spiraling contacts evaluate to +-inf
        exactly at the pole, which is the honest limit.
        """
        return _at_phi(phi, self.law._rate, self.c)


def antiderivative(law: CurvatureLaw, c: float = 0.0) -> MomentumLaw:
    """Momentum law K with K' = kappa and K(0) offset by c where allowed."""
    return MomentumLaw(law, c)


@dataclass(frozen=True)
class AdmissibleInterval:
    """Maximal z-interval where P > 0, with endpoint classification.

    Endpoint kinds: turning-point (simple zero of P strictly inside the
    sphere), pole-passage (zero at |z| = 1 with vanishing momentum, the
    curve passes onto the far sheet), open-boundary (the motion leaves the
    law's domain at finite arc length, or approaches a double zero of P
    asymptotically).  period_s is the z-oscillation period when both ends
    reflect or pass, else None.

    Its arc integrand reads P with the end roots divided out (private, from
    admissible_intervals); an interval built by hand takes that of the
    law's interval with its ends and kinds, or is rejected.
    """

    z_lo: float
    z_hi: float
    lo_kind: str
    hi_kind: str
    period_s: Optional[float] = None
    _deflated: Optional[_Deflated] = field(default=None, repr=False, compare=False)

    @property
    def width(self) -> float:
        return self.z_hi - self.z_lo

    def contains(self, z: float, tol: float = 0.0) -> bool:
        return self.z_lo - tol <= z <= self.z_hi + tol

    def closed(self) -> bool:
        return (self.lo_kind != OPEN_BOUNDARY) and (self.hi_kind != OPEN_BOUNDARY)


@dataclass(frozen=True)
class _Deflated:
    """P = N / D over an admissible interval, N = (z - z_lo)^m_lo (z_hi - z)^m_hi Q.

    m: each end's multiplicity as a root of N (0 at a domain edge); delta:
    1 + z_lo and 1 - z_hi of the exact ends (1 -+ z is exact for |z| >= 1/2,
    a Newton offset adds the rest); panels: (upper edge, Q, k) for a built-in
    law's one panel or a custom law's K panels, Q > 0 evaluating a float series,
    (ds/dt)^2 = (z - z_lo)^k_lo (z_hi - z)^k_hi D(z) / Q(z) on the panel."""

    z_lo: float
    z_hi: float
    m: tuple
    delta: tuple
    D: Callable
    panels: tuple

    def arc_rate(self, t):
        """ds/dt = r cos t / sqrt(P) at z = m + r sin t, z and cos^2(phi), from Q,
        the pole distances and up = z - z_lo = 2 r sin^2(pi/4 + t/2), dn = z_hi -
        z = 2 r sin^2(pi/4 - t/2), exact at either end: nothing cancels near an
        end or a pole."""
        m, r = 0.5 * (self.z_lo + self.z_hi), 0.5 * (self.z_hi - self.z_lo)
        c, s = np.sin(0.25 * np.pi + 0.5 * t), np.sin(0.25 * np.pi - 0.5 * t)
        up, dn, z = r * (2.0 * c * c), r * (2.0 * s * s), m + r * ((c - s) * (c + s))
        x = self.D(z)
        i = np.searchsorted([p[0] for p in self.panels[:-1]], z) if len(self.panels) > 1 else 0
        with np.errstate(invalid="ignore", divide="ignore"):
            for j, (_, Q, (k_lo, k_hi)) in enumerate(self.panels):
                on = slice(None) if len(self.panels) == 1 else i == j
                x[on] *= up[on] ** k_lo * dn[on] ** k_hi / Q(z[on])
            return np.sqrt(x), z, (self.delta[0] + up) * (self.delta[1] + dn)

    def arc(self, tol, t_a=-0.5 * math.pi, t_b=0.5 * math.pi):
        """The arc length from t_a up to t_b, by gauss_adaptive to tol."""
        return float(gauss_adaptive(lambda t: self.arc_rate(t)[0][None], [t_a, t_b], tol)[2].sum())


def _deflate(lo, hi, D, panels):
    """The _Deflated profile between the cuts lo and hi ([z, kind, m, exact
    root - z]): each panel's series divided, in its own variable off + scl
    z, by the factor of every end root it holds; the rounding remainder goes."""
    out = []
    for za, zb, S in panels:
        if za < hi[0] and zb > lo[0]:
            c, k, (off, scl) = S.coef.astype(float), [1, 1], S.mapparms()
            div = chebdiv if isinstance(S, Chebyshev) else polydiv
            for e, (end, sign) in enumerate(((lo, scl), (hi, -scl))):
                if za - 1e-15 * (zb - za) <= end[0] <= zb + 1e-15 * (zb - za):
                    for _ in range(end[2]):
                        c = sign * div(c, [-(off + scl * end[0]), 1.0])[0]
                        k[e] -= 1
            Q = type(S)(c, domain=S.domain) if div is chebdiv else partial(_horner, c[::-1])
            out.append((zb, Q, tuple(k)))
    delta = (max(0.0, 1.0 + lo[0] + lo[3]), max(0.0, 1.0 - hi[0] - hi[3]))
    return _Deflated(lo[0], hi[0], (lo[2], hi[2]), delta, D, tuple(out))


def _same_root(N, a, b):
    """Whether N stays within its rounding between a and b: |N| at their
    midpoint against the relative slack times the sum of its |terms|."""
    m = 0.5 * (a + b)
    c = np.abs(N.coef)
    return abs(N(m)) <= _CONTACT_COEF_TOL * (
        polyval(abs(m), c) if isinstance(N, Polynomial) else c.sum())


def _roots(N, za, zb):
    """Real roots of the series N in [za, zb] as ascending [z, multiplicity,
    N in floats, exact root - z].  A power series' exactly-zero low
    coefficients give z = 0 its multiplicity; roots (or a complex pair's
    real part) with N within rounding between them merge into one at their
    mean, and a simple root is polished once by Newton, on the exact N if
    its coefficients are Fractions; -N/N' there is the offset."""
    if isinstance(N, Chebyshev) and abs(N.coef[0]) > np.abs(N.coef[1:]).sum():
        return []  # |c0| > sum |ck| keeps a Chebyshev series off zero on its panel
    Nf = type(N)(N.coef.astype(float), domain=N.domain)
    k = 0
    while isinstance(N, Polynomial) and k < N.coef.size - 1 and N.coef[k] == 0:
        k += 1
    r = type(N)(Nf.coef[k:], domain=N.domain).roots()
    # polyval, as N(x) would take x through floats
    at = (lambda x: float(polyval(Fraction(x), N.coef))) if N.coef.dtype == object else Nf

    def polish(x):
        nx, dN = at(x), Nf.deriv()
        with np.errstate(all="ignore"):
            y = x - nx / dN(x)
            if math.isfinite(y) and abs(ny := at(y)) < abs(nx):
                x, nx = y, ny
            off = float(-nx / dN(x))
        return [float(x), 1, Nf, off if math.isfinite(off) else 0.0]

    pair = [x for x in r.real[r.imag > 0.0] if _same_root(Nf, x, x)]
    groups = []
    for x in sorted([0.0] * k + r.real[r.imag == 0.0].tolist() + pair + pair):
        if groups and _same_root(Nf, groups[-1][-1], x):
            groups[-1].append(x)
        else:
            groups.append([x])
    out = [polish(g[0]) if len(g) == 1 else [sum(g) / len(g), len(g), Nf, 0.0] for g in groups]
    slack = 1e-15 * (zb - za)
    return [x for x in out if za - slack <= x[0] <= zb + slack]


def _spiral_ends(K: MomentumLaw, iv: AdmissibleInterval):
    """Whether the (lo, hi) ends of iv are pole contacts where the longitude
    diverges, as kappa does (a 1/sqrt-or-worse blowup jumps ~1e3 in probes)."""
    def spirals(pole):
        k_in, k_near = K.deriv(pole * (1.0 - 1e-3)), K.deriv(pole * (1.0 - 1e-9))
        return not math.isfinite(k_near) or abs(k_near) > 1e2 * (1.0 + abs(k_in))
    return (iv.lo_kind == POLE_PASSAGE and spirals(-1.0),
            iv.hi_kind == POLE_PASSAGE and spirals(1.0))


def _deflated(K: MomentumLaw, iv: AdmissibleInterval) -> _Deflated:
    """iv's profile, else (built by hand) the law's interval's with iv's ends and kinds."""
    if iv._deflated is None or (iv._deflated.z_lo, iv._deflated.z_hi) != (iv.z_lo, iv.z_hi):
        iv = next((s for s in admissible_intervals(K, with_period=False)
                   if replace(s, period_s=iv.period_s) == iv), None)
        if iv is None:
            raise ValueError("interval is not one of the law's admissible intervals")
    return iv._deflated


def admissible_intervals(K: MomentumLaw, with_period: bool = True):
    """All maximal z-intervals where the law admits motion, ascending.

    On each smooth piece of the domain (split at the law's interior
    singularities) the ends come from the real roots of P's numerator N:
    a simple root is a turning point, a multiple one an asymptotic open
    boundary, a pole where K vanishes a pole passage, and a piece edge
    with P > 0 an open boundary.  Fills in the oscillation period for
    fully reflecting intervals.
    """
    result = []
    for plo, phi_, N, D, panels in K.law._pieces(K.c):
        roots = []
        for r in sorted((r for za, zb, S in panels for r in _roots(S, za, zb)),
                        key=lambda r: r[0]):
            if roots and _same_root(roots[-1][2], roots[-1][0], r[0]):
                roots[-1][1] = max(roots[-1][1], r[1])  # found from both panels
            else:
                roots.append(r)
        # [z, kind, multiplicity as a root of N, exact root - z]
        cuts = [[plo, OPEN_BOUNDARY, 0, 0.0],
                *([z, TURNING_POINT if m == 1 else OPEN_BOUNDARY, m, off]
                  for z, m, _, off in roots),
                [phi_, OPEN_BOUNDARY, 0, 0.0]]
        for e, j in ((0, 1), (-1, -2)):  # a root rounding away from an edge is the edge's
            if len(cuts) > 2 and abs(cuts[j][0] - cuts[e][0]) <= 8.0 * np.spacing(1.0):
                z, kind, m, off = cuts.pop(j)
                cuts[e][1:] = kind, m, off + (z - cuts[e][0])
            if abs(cuts[e][0]) == 1.0 and K.law._touches(cuts[e][0], K.c):
                cuts[e][1] = POLE_PASSAGE
        pos = np.asarray(N(np.array([0.5 * (a[0] + b[0]) for a, b in zip(cuts, cuts[1:])]))) > 0.0
        result += [AdmissibleInterval(a[0], b[0], a[1], b[1], _deflated=_deflate(a, b, D, panels))
                   for a, b, p in zip(cuts, cuts[1:], pos) if p]
    if with_period:
        result = [replace(iv, period_s=2.0 * iv._deflated.arc(1e-12)) if iv.closed() else iv
                  for iv in result]
    return result


def momentum_from_trace(trace) -> np.ndarray:
    """Angular momentum x' y - x y' sampled along a trace, by differencing.

    Five-point stencils in the interior, three-point one sample in from
    each end, NaN at the two ends themselves.  Needs at least 3 samples.
    """
    s = np.asarray(trace.s, dtype=float)
    xi = np.asarray(trace.xi, dtype=float)
    if s.size < 3:
        raise ValueError("momentum_from_trace needs at least 3 samples")
    h = check_uniform(s)
    x, y = xi[:, 0], xi[:, 1]
    if s.size >= 5:
        dx = deriv1(x, h)
        dy = deriv1(y, h)
    else:
        dx = np.full_like(x, np.nan)
        dy = np.full_like(y, np.nan)
    # fill the second sample from each end with the three-point stencil
    for arr, src in ((dx, x), (dy, y)):
        arr[1] = (src[2] - src[0]) / (2.0 * h)
        arr[-2] = (src[-1] - src[-3]) / (2.0 * h)
    return y * dx - x * dy
