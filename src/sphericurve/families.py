"""Closed-form spherical curves used as analytic references.

Each catalog entry evaluates extended latitude, unwrapped longitude and
Cartesian points directly from formulas, with no quadrature (the
catenary longitude is the one exception).  These are the ground truth
the reconstruction is checked against.  One registry entry per
command-line family holds its parameter defaults, its law builder and
its closed form; family_names, family_law and closed_form all read it.

Longitudes built from arctan of a tangent-linear expression are
unwrapped analytically: arctan((R + beta*tan(theta))/gamma) jumps by
-pi*sign(beta/gamma) at every pole of the tangent, so adding
pi*sign(beta/gamma) times the number of poles crossed restores the
continuous branch.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import Callable, Optional

import numpy as np

from ._fd import deriv2
from ._quad import gauss_adaptive
from .laws import (
    MomentumLaw,
    antiderivative,
    catenary_law,
    clelia_law,
    constant_law,
    linear_elastica_law,
    loxo_one_law,
    loxo_super_law,
    loxodrome_law,
    sn_family_law,
    viviani_law,
)
from .reconstruct import CurveTrace, _phi_extended
from .specfun import incomplete_E, jacobi


@dataclass(frozen=True)
class ElasticaParams:
    """Coefficients of the quadratic momentum K(z) = a z^2 + b z + c."""

    a: float
    b: float = 0.0
    c: float = 0.0

    @property
    def sigma(self) -> float:
        return -4.0 * self.a * self.c

    @property
    def lambda_rest(self) -> float:
        return -self.b

    @property
    def energy_E(self) -> float:
        d = self.b * self.b - 4.0 * self.a * self.c
        return 4.0 * self.a * self.a - self.b * self.b - 0.25 * d * d


def el_residual(kappa, params: ElasticaParams, ds: float) -> float:
    """Sup-norm defect of the curvature Euler-Lagrange equation.

    kappa must be uniform samples with spacing ds; at least 5 are needed
    for the second-derivative stencil.
    """
    kappa = np.asarray(kappa, dtype=float)
    if kappa.size < 5:
        raise ValueError("el_residual needs at least 5 samples")
    kdd = deriv2(kappa, float(ds))
    d = params.b * params.b - 4.0 * params.a * params.c
    r = 2.0 * kdd + kappa ** 3 + (2.0 - d) * kappa - 2.0 * params.b
    r = r[np.isfinite(r)]
    return float(np.max(np.abs(r))) if r.size else math.inf


def energy_residual(kappa, kappa_dot, params: ElasticaParams) -> float:
    """Sup-norm defect of the conserved energy of the curvature equation."""
    kappa = np.asarray(kappa, dtype=float)
    kd = np.asarray(kappa_dot, dtype=float)
    d = params.b * params.b - 4.0 * params.a * params.c
    r = (kd * kd + 0.25 * kappa ** 4 + (1.0 - 0.5 * d) * kappa ** 2
         - 2.0 * params.b * kappa - params.energy_E)
    r = r[np.isfinite(r)]
    return float(np.max(np.abs(r))) if r.size else math.inf


@dataclass(frozen=True)
class ClosedFormCurve:
    """One analytic curve: callable s -> (phi, lam, xi).

    phi is the extended latitude, lam the unwrapped longitude, xi the
    (n, 3) unit points.  Evaluation outside [s_lo, s_hi] raises.
    kappa(s) gives the geodesic curvature along the curve.
    """

    tag: str
    params: dict
    s_lo: float
    s_hi: float
    _eval: Callable = field(repr=False)
    _kappa: Optional[Callable] = field(default=None, repr=False)

    def _check(self, s):
        s = np.asarray(s, dtype=float)
        scale = 1.0 + min(abs(self.s_lo), 1e6) + min(abs(self.s_hi), 1e6)
        slack = 1e-9 * scale
        if s.size and (np.min(s) < self.s_lo - slack
                       or np.max(s) > self.s_hi + slack):
            raise ValueError(
                f"arc length outside [{self.s_lo}, {self.s_hi}] for "
                f"family '{self.tag}'"
            )
        return s

    def __call__(self, s):
        return self._eval(self._check(s))

    def kappa(self, s):
        if self._kappa is None:
            raise ValueError(f"family '{self.tag}' has no curvature formula")
        return self._kappa(self._check(s))

    def trace(self, s):
        phi, lam, xi = self(s)
        return CurveTrace(
            s=np.asarray(s, dtype=float), z=xi[:, 2], phi=phi, lam=lam,
            xi=xi, meta={"closed_form": self.tag, "params": dict(self.params)},
        )


def _xi_from(phi, lam):
    w = np.cos(phi)
    lam_f = np.where(np.isfinite(lam), lam, 0.0)
    return np.column_stack([w * np.cos(lam_f), w * np.sin(lam_f), np.sin(phi)])


def _tan_breaks(theta):
    """Number of poles of tan crossed on the way from 0 to theta."""
    th = np.asarray(theta, dtype=float)
    q = (th - 0.5 * np.pi) / np.pi
    k = np.ceil(q)
    exact = q == np.floor(q)
    if np.any(exact):
        # a float theta landing exactly on a pole belongs to the side its
        # tangent value points to
        k = k + np.where(exact & (np.tan(th) < 0.0), 1.0, 0.0)
    return k


# -- catalog builders -------------------------------------------------------
# Each takes the registry's full float parameter dict q, whose ranges the
# family's law builder has already checked; only curve-specific limits
# (a small circle's k0 and c, a great circle's c) are checked here.


def _make_small_circle(q):
    k0, c = q["k0"], q["c"]
    if k0 == 0.0:
        raise ValueError("small-circle needs k0 != 0; use great-circle")
    w = math.sqrt(1.0 + k0 * k0)
    if not abs(c) < w:
        raise ValueError("small-circle needs |c| < sqrt(1 + k0^2)")
    R = math.sqrt(1.0 - c * c + k0 * k0)
    scale = abs(c) + abs(k0)
    degen_s = abs(c - k0) <= 1e-12 * scale  # touches the south pole
    degen_n = abs(c + k0) <= 1e-12 * scale  # touches the north pole

    def ev(s):
        ws = w * s
        z = np.clip((R * np.sin(ws) - c * k0) / (w * w), -1.0, 1.0)
        th = 0.5 * ws
        T = np.tan(th)
        cnt = _tan_breaks(th)
        if c == 0.0:
            lam = np.arctan(np.cos(ws) / k0)
        elif degen_s:
            lam = (np.arctan((1.0 - (1.0 + 2.0 * k0 * k0) * T)
                             / (2.0 * k0 * w))
                   - np.pi * np.copysign(1.0, k0) * cnt)
        elif degen_n:
            lam = (np.arctan((1.0 + (1.0 + 2.0 * k0 * k0) * T)
                             / (2.0 * k0 * w))
                   + np.pi * np.copysign(1.0, k0) * cnt)
        else:
            b1 = 1.0 - c * k0 + k0 * k0
            g1 = (k0 - c) * w
            b2 = -(1.0 + c * k0 + k0 * k0)
            g2 = (k0 + c) * w
            lam = (np.arctan((R + b1 * T) / g1)
                   + np.pi * np.copysign(1.0, b1 / g1) * cnt
                   + np.arctan((R + b2 * T) / g2)
                   + np.pi * np.copysign(1.0, b2 / g2) * cnt)
        if degen_s:
            # contacts where sin(ws) = -1; the sheet toggles at each
            f = np.floor((ws + 0.5 * np.pi) / (2.0 * np.pi))
            sheet = -(np.abs(f).astype(int) % 2)
            phi = _phi_extended(sheet, z)
        elif degen_n:
            f = np.floor((ws + 1.5 * np.pi) / (2.0 * np.pi))
            sheet = np.abs(f).astype(int) % 2
            phi = _phi_extended(sheet, z)
        else:
            phi = np.arcsin(z)
        return phi, lam, _xi_from(phi, lam)

    def kap(s):
        return np.full(np.asarray(s, dtype=float).shape, k0)

    return ClosedFormCurve("small-circle", {"k0": k0, "c": c},
                           -math.inf, math.inf, ev, kap)


def _make_great_circle(q):
    c = q["c"]
    if not abs(c) <= 1.0:
        raise ValueError("great-circle needs |c| <= 1")
    nu = math.sqrt(max(1.0 - c * c, 0.0))

    def ev(s):
        s = np.asarray(s, dtype=float)
        z = nu * np.sin(s)
        if c == 0.0:
            phi = s
            lam = np.zeros_like(s)
        else:
            phi = np.arcsin(np.clip(z, -1.0, 1.0))
            lam = -(np.arctan(c * np.tan(s))
                    + np.pi * np.copysign(1.0, c) * _tan_breaks(s))
        return phi, lam, _xi_from(phi, lam)

    def kap(s):
        return np.zeros(np.asarray(s, dtype=float).shape)

    return ClosedFormCurve("great-circle", {"c": c},
                           -math.inf, math.inf, ev, kap)


def _make_seiffert(q):
    p = q["p"]

    def ev(s):
        j = jacobi(np.asarray(s, dtype=float), p)
        phi = 0.5 * np.pi - j.am
        lam = p * np.asarray(s, dtype=float)
        xi = np.column_stack([j.sn * np.cos(lam), j.sn * np.sin(lam), j.cn])
        return phi, lam, xi

    def kap(s):
        return 2.0 * p * jacobi(np.asarray(s, dtype=float), p).cn

    return ClosedFormCurve("seiffert", {"p": p}, -math.inf, math.inf, ev, kap)


def _make_borderline(q):
    a = q["a"]
    beta = math.sqrt(2.0 * a - 1.0)
    amp = beta / a
    unit = abs(a - 1.0) <= 1e-12

    def ev(s):
        s = np.asarray(s, dtype=float)
        if unit:
            z = 1.0 / np.cosh(s)
            lam = s.copy()
            phi = 0.5 * np.pi - np.arctan(np.sinh(s))
        else:
            z = amp / np.cosh(beta * s)
            lam = s + np.arctan((beta / (1.0 - a)) * np.tanh(beta * s))
            phi = np.arcsin(np.clip(z, -1.0, 1.0))
        return phi, lam, _xi_from(phi, lam)

    def kap(s):
        s = np.asarray(s, dtype=float)
        z = (1.0 / np.cosh(s)) if unit else (amp / np.cosh(beta * s))
        return 2.0 * a * z

    return ClosedFormCurve("borderline", {"a": a}, -math.inf, math.inf, ev, kap)


def _make_loxodrome(q):
    a = q["a"]
    nu = math.sqrt(1.0 - a * a)
    s_max = 0.5 * np.pi / nu

    def ev(s):
        s = np.asarray(s, dtype=float)
        u = np.clip(np.sin(nu * s), -1.0, 1.0)
        phi = nu * s
        with np.errstate(divide="ignore"):
            lam = (a / nu) * np.arctanh(u)
        return phi, lam, _xi_from(phi, lam)

    def kap(s):
        return a * np.tan(nu * np.asarray(s, dtype=float))

    return ClosedFormCurve("loxodrome", {"a": a}, -s_max, s_max, ev, kap)


def _make_loxo_one(q):
    a = q["a"]
    ca = math.sqrt(1.0 - a)
    sa = math.sqrt(a)
    s_max = sa / ca

    def ev(s):
        s = np.asarray(s, dtype=float)
        u = ca * s
        root = np.sqrt(np.maximum(a - u * u, 0.0))
        with np.errstate(divide="ignore", invalid="ignore"):
            lam = ((1.0 / ca) * np.arctan(u / root)
                   - 0.5 * np.arctan((u + a) / (ca * root))
                   - 0.5 * np.arctan((u - a) / (ca * root)))
        phi = np.arcsin(np.clip(u, -1.0, 1.0))
        return phi, lam, _xi_from(phi, lam)

    def kap(s):
        s = np.asarray(s, dtype=float)
        u = ca * s
        return u / np.sqrt(np.maximum(a - u * u, 0.0))

    return ClosedFormCurve("loxo-one", {"a": a}, -s_max, s_max, ev, kap)


def _make_loxo_super(q):
    a = q["a"]
    beta = math.sqrt(a - 1.0)
    s_edge = -math.log(a) / (2.0 * beta)

    def ev(s):
        s = np.asarray(s, dtype=float)
        z = np.exp(beta * s)
        w = np.sqrt(np.maximum(1.0 - a * z * z, 0.0))
        with np.errstate(divide="ignore"):
            lam = -np.arctanh(np.clip(w, 0.0, 1.0)) / beta + np.arctan(w / beta)
        phi = np.arcsin(np.clip(z, -1.0, 1.0))
        return phi, lam, _xi_from(phi, lam)

    def kap(s):
        s = np.asarray(s, dtype=float)
        z = np.exp(beta * s)
        return a * z / np.sqrt(np.maximum(1.0 - a * z * z, 1e-300))

    return ClosedFormCurve("loxo-super", {"a": a}, -math.inf, s_edge, ev, kap)


def _make_catenary(q):
    a = q["a"]
    q = math.sqrt(1.0 - 4.0 * a * a)

    def z_of(s):
        return np.sqrt((1.0 + q * np.sin(2.0 * s)) / 2.0)

    def rate(sig):
        zz = z_of(sig)
        return 2.0 * a / (zz * (1.0 - q * np.sin(2.0 * sig)))

    def ev(s):
        s = np.asarray(s, dtype=float)
        flat = s.ravel()
        grid = np.unique(np.concatenate([flat, [0.0]]))
        edges, _, sums, _ = gauss_adaptive(lambda t: rate(t)[None], grid, 1e-13)
        cum = np.concatenate([[0.0], np.cumsum(sums[0])])
        cum = cum - cum[np.searchsorted(edges, 0.0)]
        lam = cum[np.searchsorted(edges, flat)].reshape(s.shape)
        z = z_of(s)
        phi = np.arcsin(np.clip(z, -1.0, 1.0))
        return phi, lam, _xi_from(phi, lam)

    def kap(s):
        s = np.asarray(s, dtype=float)
        return 2.0 * a / (1.0 + q * np.sin(2.0 * s))

    return ClosedFormCurve("catenary", {"a": a}, -math.inf, math.inf, ev, kap)


def _make_sn_family(q):
    p = q["p"]
    pp = math.sqrt((1.0 - p) * (1.0 + p))

    def ev(s):
        j = jacobi(np.asarray(s, dtype=float), p)
        # dn^2 - pp^2 = p^2 cn^2, so log((dn + pp) / (dn - pp)) is
        # 2 log((dn + pp) / (p |cn|)), with no cancellation next to a contact
        with np.errstate(divide="ignore"):
            lam = (p / pp) * np.log((1.0 + pp) * np.abs(j.cn) / (j.dn + pp))
        phi = j.am
        # at a pole contact lam diverges but cn is 0; emit the pole point
        lam_f = np.where(np.isfinite(lam), lam, 0.0)
        xi = np.column_stack([j.cn * np.cos(lam_f), j.cn * np.sin(lam_f), j.sn])
        return phi, lam, xi

    def kap(s):
        cn = jacobi(np.asarray(s, dtype=float), p).cn
        with np.errstate(divide="ignore"):
            return p * (2.0 * cn - 1.0 / cn)

    return ClosedFormCurve("sn-family", {"p": p}, -math.inf, math.inf, ev, kap)


def _make_clelia(tag, n):
    p = 1.0 / math.sqrt(n * n + 1.0)
    A = math.sqrt(n * n + 1.0) / n

    def phi_of_s(s):
        s = np.asarray(s, dtype=float)
        ph = s / A
        for _ in range(60):
            f = np.array([A * incomplete_E(float(x), p) for x in ph.ravel()])
            f = f.reshape(ph.shape) - s
            fp = A * np.sqrt(1.0 - (p * np.sin(ph)) ** 2)
            step = f / fp
            ph = ph - step
            if np.all(np.abs(step) <= 1e-14 * (1.0 + np.abs(ph))):
                break
        return ph

    def ev(s):
        phi = phi_of_s(s)
        lam = phi / n
        return phi, lam, _xi_from(phi, lam)

    def kap(s):
        phi = phi_of_s(s)
        w2 = np.cos(phi) ** 2
        return np.sin(phi) * (2.0 * n * n + w2) / (n * n + w2) ** 1.5

    return ClosedFormCurve(tag, {"n": n}, -math.inf, math.inf, ev, kap)


# -- the family registry ----------------------------------------------------


def _seiffert_law(q):
    p = q["p"]
    if not 0.0 < p < 1.0:
        raise ValueError("seiffert needs 0 < p < 1")
    return antiderivative(linear_elastica_law(p, 0.0), -p)


def _borderline_law(q):
    a = q["a"]
    if not a > 0.5:
        raise ValueError("borderline needs a > 1/2")
    return antiderivative(linear_elastica_law(a, 0.0), -1.0)


@dataclass(frozen=True)
class _Family:
    """One command-line family name.

    defaults  every parameter the family takes, with its default; the
              momentum offset c is free exactly where it is one of them
    law       full parameter dict -> MomentumLaw; checks the ranges
    curve     full parameter dict -> ClosedFormCurve, or None
    """

    defaults: dict
    law: Callable
    curve: Optional[Callable] = None

    def resolve(self, name: str, params: dict) -> dict:
        unknown = set(params) - set(self.defaults)
        if unknown:
            raise ValueError(
                f"unknown parameters for '{name}': {sorted(unknown)}"
            )
        return {k: float(v) for k, v in {**self.defaults, **params}.items()}


_FAMILIES = {
    "constant": _Family(
        {"k0": 1.0, "c": 0.0},
        lambda q: antiderivative(constant_law(q["k0"]), q["c"])),
    "small-circle": _Family(
        {"k0": 1.0, "c": 0.0},
        lambda q: antiderivative(constant_law(q["k0"]), q["c"]),
        _make_small_circle),
    "great-circle": _Family(
        {"c": 0.0},
        lambda q: antiderivative(constant_law(0.0), q["c"]),
        _make_great_circle),
    "elastica": _Family(
        {"a": 1.0, "b": 0.0, "c": 0.0},
        lambda q: antiderivative(linear_elastica_law(q["a"], q["b"]), q["c"])),
    "seiffert": _Family({"p": 0.5}, _seiffert_law, _make_seiffert),
    "borderline": _Family({"a": 1.0}, _borderline_law, _make_borderline),
    "loxodrome": _Family(
        {"a": math.cos(math.pi / 4.0)},
        lambda q: antiderivative(loxodrome_law(q["a"])), _make_loxodrome),
    "loxo-one": _Family(
        {"a": 0.5}, lambda q: antiderivative(loxo_one_law(q["a"])),
        _make_loxo_one),
    "loxo-super": _Family(
        {"a": 2.0}, lambda q: antiderivative(loxo_super_law(q["a"])),
        _make_loxo_super),
    "catenary": _Family(
        {"a": 0.3}, lambda q: antiderivative(catenary_law(q["a"])),
        _make_catenary),
    "sn-family": _Family(
        {"p": 0.5}, lambda q: antiderivative(sn_family_law(q["p"])),
        _make_sn_family),
    "viviani": _Family(
        {}, lambda q: antiderivative(viviani_law()),
        lambda q: _make_clelia("viviani", 1.0)),
    "clelia": _Family(
        {"n": 1.0}, lambda q: antiderivative(clelia_law(q["n"])),
        lambda q: _make_clelia("clelia", q["n"])),
}


def closed_form(tag: str, params: Optional[dict] = None) -> ClosedFormCurve:
    """Look up an analytic curve by family name."""
    fam = _FAMILIES.get(tag)
    if fam is None or fam.curve is None:
        known = sorted(n for n, f in _FAMILIES.items() if f.curve is not None)
        raise ValueError(f"no closed form for '{tag}'; known: {known}")
    q = fam.resolve(tag, dict(params or {}))
    fam.law(q)  # the law builder owns the parameter range checks
    return fam.curve(q)


def family_names() -> list:
    """Every family the command line accepts, closed-form or law-only."""
    return sorted(_FAMILIES)


def family_law(name: str, params: Optional[dict] = None,
               c: Optional[float] = None) -> MomentumLaw:
    """Build the momentum law matching a named family.

    Families with a baked-in momentum constant reject an explicit c;
    constant, small-circle, great-circle and elastica accept one.
    """
    fam = _FAMILIES.get(name)
    if fam is None:
        raise ValueError(f"unknown family '{name}'; known: {family_names()}")
    params = dict(params or {})
    if c is not None and "c" in fam.defaults:
        params.setdefault("c", c)
    q = fam.resolve(name, params)
    if c is not None and c != 0.0 and "c" not in fam.defaults:
        raise ValueError(f"family '{name}' has a fixed momentum constant")
    return fam.law(q)
