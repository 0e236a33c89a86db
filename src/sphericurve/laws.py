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
from dataclasses import dataclass, field
from typing import Callable, Optional

import numpy as np

from ._fd import check_uniform, deriv1
from ._quad import _W7, _X7, gauss_adaptive, hermite

TURNING_POINT = "turning-point"
POLE_PASSAGE = "pole-passage"
OPEN_BOUNDARY = "open-boundary"

# |K(+-1)| at or below this counts as a genuine pole contact
_POLE_MOMENTUM_TOL = 1e-10
# relative slack when matching polynomial momentum roots at u = +-1
_CONTACT_COEF_TOL = 1e-12


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
    singular_z  interior heights where kappa blows up (splits scanning)

    Each family is a subclass that states its momentum K and curvature
    kappa once, as functions of (u, w) = (sin phi, cos phi) of the
    extended latitude; w keeps its sign on the far sheet after a pole
    passage, and the z-forms take w = +sqrt(1 - z^2).  Square roots are
    written ** 0.5 so one formula serves numpy arrays and plain floats.
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

    def _KdK(self, u, w, c):
        """K kappa; a family whose product cancels states it directly."""
        return self._K(u, w, c) * self._kap(u, w)

    def _rate(self, u, w, c):
        """Longitude rate -K / w^2."""
        return -self._K(u, w, c) / (w * w)

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


def _syndiv(coefs, root):
    """Divide a descending-coefficient polynomial by (u - root), drop remainder."""
    out = [coefs[0]]
    for c in coefs[1:-1]:
        out.append(c + root * out[-1])
    return out


def _contact_reduced(coefs):
    """Numerator with the factors (u -+ 1) of touched poles divided out."""
    tol = _CONTACT_COEF_TOL * (1.0 + sum(abs(x) for x in coefs))
    north = abs(_horner(coefs, 1.0)) <= tol
    if north:
        coefs = _syndiv(coefs, 1.0)
    south = abs(_horner(coefs, -1.0)) <= tol
    if south and len(coefs) > 1:
        coefs = _syndiv(coefs, -1.0)
    elif south:
        # a constant left after the north division vanishes at both poles
        coefs = [0.0]
    return coefs, north, south


class _PolynomialLaw(CurvatureLaw):
    """Momentum polynomial in u with the free offset c as constant term."""

    def _coefs(self, c):
        raise NotImplementedError

    def _K(self, u, w, c):
        return _horner(self._coefs(c), u)

    def _rate(self, u, w, c):
        # where the momentum vanishes at a touched pole, the matching
        # factor of w^2 = (1 - u)(1 + u) cancels exactly
        coefs, north, south = _contact_reduced(self._coefs(c))
        q = _horner(coefs, u)
        if north and south:
            return q
        if north:
            return q / (1.0 + u)
        if south:
            return -q / (1.0 - u)
        return -q / (w * w)


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

    def _KdK(self, u, w, c):
        return -self.params["a"] ** 2 * u

    def _rate(self, u, w, c):
        return self.params["a"] / w


class _LoxoOneLaw(CurvatureLaw):
    baked_c = True

    def _K(self, u, w, c):
        return -(self.params["a"] - u * u) ** 0.5

    def _kap(self, u, w):
        return u / (self.params["a"] - u * u) ** 0.5

    def _KdK(self, u, w, c):
        return -u


class _LoxoSuperLaw(CurvatureLaw):
    baked_c = True

    def _K(self, u, w, c):
        return -(1.0 - self.params["a"] * u * u) ** 0.5

    def _kap(self, u, w):
        return self.params["a"] * u / (1.0 - self.params["a"] * u * u) ** 0.5

    def _KdK(self, u, w, c):
        return -self.params["a"] * u


class _CatenaryLaw(CurvatureLaw):
    baked_c = True

    def _K(self, u, w, c):
        return -self.params["a"] / u

    def _kap(self, u, w):
        return self.params["a"] / (u * u)

    def _KdK(self, u, w, c):
        return -self.params["a"] ** 2 / u**3


class _SnFamilyLaw(CurvatureLaw):
    baked_c = True

    def _K(self, u, w, c):
        return self.params["p"] * u * w

    def _kap(self, u, w):
        return self.params["p"] * (1.0 - 2.0 * u * u) / w

    def _KdK(self, u, w, c):
        return self.params["p"] ** 2 * u * (1.0 - 2.0 * u * u)

    def _rate(self, u, w, c):
        return -self.params["p"] * u / w


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


@dataclass(frozen=True)
class _CustomLaw(CurvatureLaw):
    """A user kappa; K interpolates its cumulative integral from z = 0."""

    _N = 4097

    def __post_init__(self):
        lo, hi = self.domain
        nodes = np.linspace(lo, hi, self._N)
        kv = np.asarray(self.kappa(nodes), dtype=float)
        bad = ~np.isfinite(kv)
        if bad.any():
            span = hi - lo
            nodes = nodes.copy()
            nodes[0] = nodes[0] + 1e-9 * span if bad[0] else nodes[0]
            nodes[-1] = nodes[-1] - 1e-9 * span if bad[-1] else nodes[-1]
            kv = np.asarray(self.kappa(nodes), dtype=float)
            if not np.isfinite(kv).all():
                raise ValueError(
                    "custom law must be finite on the interior of its domain"
                )
        # integrate node to node with 7-point panels, then re-anchor at z = 0
        h = np.diff(nodes)
        mid = 0.5 * (nodes[:-1] + nodes[1:])
        pts = mid[:, None] + 0.5 * h[:, None] * _X7[None, :]
        pv = np.asarray(self.kappa(pts.ravel()), dtype=float).reshape(pts.shape)
        panels = 0.5 * h * (pv @ _W7)
        vals = np.empty_like(nodes)
        vals[0] = 0.0
        vals[1:] = np.cumsum(panels)
        object.__setattr__(self, "_table", (nodes, vals, kv))
        anchor = float(self._K(min(max(0.0, lo), hi), None, 0.0))
        object.__setattr__(self, "_table", (nodes, vals - anchor, kv))

    def _K(self, u, w, c):
        nodes, vals, kv = self._table
        z = np.atleast_1d(np.asarray(u, dtype=float))
        i = np.clip(np.searchsorted(nodes, z) - 1, 0, nodes.size - 2)
        h = nodes[i + 1] - nodes[i]
        t = np.clip((z - nodes[i]) / h, 0.0, 1.0)
        out = hermite(t, h, vals[i], kv[i], vals[i + 1], kv[i + 1])
        out = np.where((z < nodes[0]) | (z > nodes[-1]), np.nan, out)
        return (out if out.size > 1 else out.reshape(())) + c

    def _kap(self, u, w):
        return self.kappa_fn(u)


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
    """Wrap an arbitrary callable kappa(z) (must accept numpy arrays)."""
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
        z = np.asarray(z, dtype=float)
        K = self.value(z)
        out = 1.0 - z * z - np.square(K)
        if np.ndim(z) == 0:
            return float(out)
        return out

    def dP(self, z):
        """P'(z) = -2 z - 2 K kappa, with the product kept cancellation-free."""
        return _at_z(z, lambda u, w, c: -2.0 * u - 2.0 * self.law._KdK(u, w, c),
                     self.c)

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
        of cos^2 is divided out analytically, so smooth pole passages get
        a finite rate; spiraling contacts evaluate to +-inf exactly at
        the pole, which is the honest limit.
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
    """

    z_lo: float
    z_hi: float
    lo_kind: str
    hi_kind: str
    period_s: Optional[float] = None

    @property
    def width(self) -> float:
        return self.z_hi - self.z_lo

    def contains(self, z: float, tol: float = 0.0) -> bool:
        return self.z_lo - tol <= z <= self.z_hi + tol

    def closed(self) -> bool:
        return (self.lo_kind != OPEN_BOUNDARY) and (self.hi_kind != OPEN_BOUNDARY)


def _bisect_root(P, lo, hi, f_lo_pos):
    """Root of P in (lo, hi) where the P > 0 flag flips; NaN counts negative."""
    for _ in range(200):
        mid = 0.5 * (lo + hi)
        if mid == lo or mid == hi:
            break
        v = P(mid)
        mid_pos = math.isfinite(v) and v > 0.0
        if mid_pos == f_lo_pos:
            lo = mid
        else:
            hi = mid
        if hi - lo <= 1e-14 * max(1.0, abs(lo)):
            break
    return 0.5 * (lo + hi)


def _newton_polish(K, x, lo, hi):
    for _ in range(8):
        p = K.P(x)
        d = K.dP(x)
        if not (math.isfinite(p) and math.isfinite(d)) or d == 0.0:
            break
        step = p / d
        x2 = x - step
        if not lo <= x2 <= hi:
            break
        x = x2
        if abs(step) <= 1e-16 * max(1.0, abs(x)):
            break
    return x


def _double_roots(K, grid, Pv, pos):
    """Interior double zeros of P inside positive runs, via dP bisection."""
    found = []
    n = grid.size
    if n < 5:
        return found
    Pmax = float(np.nanmax(np.where(pos, Pv, -np.inf)))
    if not math.isfinite(Pmax) or Pmax <= 0.0:
        return found
    with np.errstate(all="ignore"):
        dPv = np.asarray(K.dP(grid), dtype=float)
    # a double zero is a local minimum of P, so P' turns from negative to
    # positive across the grid neighbours; this holds however small P is
    # near it, and a law with P' = 0 throughout offers no candidates
    cand = np.zeros(n, dtype=bool)
    cand[1:-1] = (pos[1:-1] & pos[:-2] & pos[2:]
                  & (Pv[1:-1] <= Pv[:-2]) & (Pv[1:-1] <= Pv[2:])
                  & (dPv[:-2] < 0.0) & (dPv[2:] > 0.0))
    for i in np.flatnonzero(cand):
        a, b = grid[i - 1], grid[i + 1]
        fa = dPv[i - 1]
        for _ in range(120):
            m = 0.5 * (a + b)
            fm = K.dP(m)
            if not math.isfinite(fm):
                break
            if fa * fm <= 0.0:
                b = m
            else:
                a, fa = m, fm
            if b - a <= 1e-15 * max(1.0, abs(m)):
                break
        x = 0.5 * (a + b)
        if abs(K.P(x)) <= 1e-12 * max(1.0, Pmax):
            found.append(float(x))
    return found


def _scan_piece(K: MomentumLaw, plo: float, phi_: float, n_grid: int):
    grid = np.linspace(plo, phi_, n_grid)
    with np.errstate(all="ignore"):
        Pv = np.asarray(K.P(grid), dtype=float)
    Pv = np.where(np.isfinite(Pv), Pv, -np.inf)
    pos = Pv > 0.0
    if not pos.any():
        return []

    dbl = _double_roots(K, grid, Pv, pos)

    # breakpoints: piece edges, sign-change roots, interior double zeros
    cuts = []  # (z, kind) with kind one of the endpoint tags
    trans = np.flatnonzero(pos[:-1] != pos[1:])

    def classify_edge(e, inward):
        if abs(e) == 1.0:
            if abs(K.value(e)) <= _POLE_MOMENTUM_TOL:
                return (e, POLE_PASSAGE)
            return None  # P(e) < 0 strictly; a turning root lies inside
        v = K.P(e)
        if not math.isfinite(v):
            # the declared edge can sit a rounding ulp outside the
            # representable domain; probe just inside instead
            v = K.P(e + inward * 1e-12 * (1.0 + abs(e)))
        if math.isfinite(v) and v > 0.0:
            return (e, OPEN_BOUNDARY)
        if math.isfinite(v) and v == 0.0:
            return (e, TURNING_POINT)
        return None

    for i in trans:
        root = _bisect_root(K.P, float(grid[i]), float(grid[i + 1]), bool(pos[i]))
        root = _newton_polish(K, root, float(grid[i]), float(grid[i + 1]))
        cuts.append((float(root), TURNING_POINT))
    for x in dbl:
        cuts.append((x, OPEN_BOUNDARY))
    for e, inward in ((plo, 1.0), (phi_, -1.0)):
        tagged = classify_edge(e, inward)
        if tagged is not None:
            cuts.append(tagged)

    cuts.sort(key=lambda t: t[0])
    # merge near-duplicate cuts: a turning root bisected into a pole or
    # domain edge is the same feature, and the edge classification wins
    rank = {POLE_PASSAGE: 2, OPEN_BOUNDARY: 1, TURNING_POINT: 0}
    merged = []
    for z, kind in cuts:
        if merged and z - merged[-1][0] <= 1e-9:
            zp, kp = merged[-1]
            if rank[kind] > rank[kp]:
                merged[-1] = (z, kind)
            continue
        merged.append((z, kind))
    # walk consecutive cut pairs; keep those with P > 0 in between
    out = []
    for (za, ka), (zb, kb) in zip(merged[:-1], merged[1:]):
        mid = 0.5 * (za + zb)
        v = K.P(mid)
        if math.isfinite(v) and v > 0.0:
            out.append(AdmissibleInterval(za, zb, ka, kb))
    return out


def _spiral_ends(K: MomentumLaw, iv: AdmissibleInterval):
    """Whether the (lo, hi) ends of iv are pole contacts where the longitude
    diverges, as kappa does (a 1/sqrt-or-worse blowup jumps ~1e3 in probes)."""
    def spirals(pole):
        k_in, k_near = K.deriv(pole * (1.0 - 1e-3)), K.deriv(pole * (1.0 - 1e-9))
        return not math.isfinite(k_near) or abs(k_near) > 1e2 * (1.0 + abs(k_in))
    return (iv.lo_kind == POLE_PASSAGE and spirals(-1.0),
            iv.hi_kind == POLE_PASSAGE and spirals(1.0))


def _arc_rate(K: MomentumLaw, iv: AdmissibleInterval, t, spiral: bool):
    """The arc integrand ds/dt = r cos t / sqrt(P) at z = m + r sin t over
    iv, the share of P that is roundoff, z, and cos^2(phi) = 1 - z^2 (from
    the half-angle form of 1 -+ sin t, relative accurate next to a pole).
    With spiral (an end of iv is a spiral contact, where K ~ cos(phi)) K is
    computed from z and that cos(phi), so P = cos^2 - K^2 keeps its accuracy."""
    m = 0.5 * (iv.z_lo + iv.z_hi)
    r = 0.5 * (iv.z_hi - iv.z_lo)
    q = 0.25 * np.pi - 0.5 * t
    omz = r * (2.0 * np.sin(q) ** 2) + (1.0 - m - r)
    opz = r * (2.0 * np.cos(q) ** 2) + (1.0 + m - r)
    z = m + r * np.sin(t)
    w2 = omz * opz
    noise = 5e-16 * w2 if spiral else 5e-16
    with np.errstate(invalid="ignore", divide="ignore"):
        Kv = K.law._K(z, np.sqrt(w2), K.c) if spiral else K.value(z)
        # P carries this roundoff from the K^2 cancellation; flooring
        # there keeps g bounded near the roots
        P = np.maximum(w2 - Kv * Kv, noise)
        return r * np.cos(t) / np.sqrt(P), np.minimum(0.5 * noise / P, 1.0), z, w2


def _interval_period(K: MomentumLaw, iv: AdmissibleInterval) -> float:
    spiral = any(_spiral_ends(K, iv))
    return 2.0 * gauss_adaptive(lambda t: _arc_rate(K, iv, t, spiral)[:2],
                                -math.pi / 2.0, math.pi / 2.0, 1e-12)


def admissible_intervals(K: MomentumLaw, n_grid: int = 4096,
                         with_period: bool = True):
    """All maximal z-intervals where the law admits motion, ascending.

    Scans P on a uniform grid per smooth piece of the domain (split at
    the law's interior singularities), refines once dyadically if any
    feature looks under-resolved, classifies every endpoint, and fills
    in the oscillation period for fully reflecting intervals.
    """
    lo = max(K.law.domain[0], -1.0)
    hi = min(K.law.domain[1], 1.0)
    edges = [lo] + [z for z in K.law.singular_z if lo < z < hi] + [hi]
    result = []
    for plo, phi_ in zip(edges[:-1], edges[1:]):
        ivs = _scan_piece(K, plo, phi_, n_grid)
        narrow = any(iv.width < 3.0 * (phi_ - plo) / n_grid for iv in ivs)
        if narrow:
            ivs = _scan_piece(K, plo, phi_, 2 * n_grid)
        result.extend(ivs)
    result.sort(key=lambda iv: iv.z_lo)
    if with_period:
        result = [
            AdmissibleInterval(
                iv.z_lo, iv.z_hi, iv.lo_kind, iv.hi_kind,
                _interval_period(K, iv) if iv.closed() else None,
            )
            for iv in result
        ]
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
