"""Curve reconstruction from a momentum law by three quadratures.

The height motion satisfies (dz/ds)^2 = P(z) inside an admissible
interval.  Substituting z = m + r sin t (m, r the interval midpoint and
half-width) makes the arc-length integrand r cos t / sqrt(P) analytic at
simple-root endpoints, so a cumulative table s(t) built on t in
[-pi/2, pi/2] can be inverted to give z(s) to near machine accuracy.
Reflections at turning points, sheet changes at pole passages, truncation
at domain edges and asymptotic approach to double roots are all handled
by folding the arc-length coordinate.

The same table carries the longitude rate d(lambda)/ds = -M(phi)/cos^2(phi)
integrated over t, one column per sheet parity: between two events of the
height motion lambda depends on the height alone, so each sample costs one
table lookup and each whole leg adds +-Lam(L).  Across a spiraling pole
contact the finite part continues by the mirror rule
lambda(s* + u) = lambda(s* - u).
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import Optional

import numpy as np

from ._quad import _CHEB, _CHEB_LEG, _LEG_D, _W7, _X7, gauss_adaptive, legval_rows
from .laws import (
    OPEN_BOUNDARY,
    POLE_PASSAGE,
    AdmissibleInterval,
    MomentumLaw,
    _arc_column,
    _arc_rate,
    _spiral_ends,
    admissible_intervals,
)

# P at an open endpoint at or below this marks a double root (asymptote)
_ASYMPTOTE_P_TOL = 1e-10

# longitude tail within this arc distance of a spiraling pole contact is
# integrated analytically from the 1/(s - s*) residue
_POLE_CUT = 1e-4
# reported longitude at a contact sample is the value this far before it
_POLE_OFF = 1e-9


@dataclass(frozen=True)
class ReconstructionConfig:
    """Gauge and discretization for reconstruct().

    s_span      total arc length; samples cover [-s_span/2, +s_span/2]
    n_samples   number of samples (>= 16)
    quad_tol    absolute tolerance of the leg table's quadratures
    z0          height at s = 0; defaults to the interval midpoint and
                must lie strictly inside the interval
    lambda0     longitude at s = 0
    dz_sign0    initial sign of dz/ds, +1 or -1
    lambda_cap  optional bound on |lambda - lambda0|; when a spiraling
                contact drives the longitude past it the trace is cut
    """

    s_span: float
    n_samples: int
    quad_tol: float = 1e-10
    z0: Optional[float] = None
    lambda0: float = 0.0
    dz_sign0: int = 1
    lambda_cap: Optional[float] = None

    def __post_init__(self):
        if not (math.isfinite(self.s_span) and self.s_span > 0.0):
            raise ValueError("s_span must be positive and finite")
        if self.n_samples < 16:
            raise ValueError("n_samples must be at least 16")
        if not (math.isfinite(self.quad_tol) and self.quad_tol > 0.0):
            raise ValueError("quad_tol must be positive")
        if self.dz_sign0 not in (1, -1):
            raise ValueError("dz_sign0 must be +1 or -1")
        if self.lambda_cap is not None and not self.lambda_cap > 0.0:
            raise ValueError("lambda_cap must be positive when given")


@dataclass
class CurveTrace:
    """Sampled curve: arc length, height, extended latitude, longitude, points.

    phi is the extended latitude: it runs past +-pi/2 when the curve
    passes through a pole, so it stays smooth where arcsin(z) would fold.
    lam is unwrapped.  xi rows are unit vectors with xi[:, 2] identical
    to z.  meta records the law, gauge, events and truncation flags.
    """

    s: np.ndarray
    z: np.ndarray
    phi: np.ndarray
    lam: np.ndarray
    xi: np.ndarray
    meta: dict = field(default_factory=dict)

    def __len__(self):
        return self.s.size


def _t_of_z(iv: AdmissibleInterval, z: float) -> float:
    """Table parameter t of height z = m + r sin t over iv, exact at both
    ends: (z - z_lo)(z_hi - z) = r^2 cos^2 t carries no cancellation."""
    return math.atan2(z - 0.5 * (iv.z_lo + iv.z_hi),
                      math.sqrt(max(0.0, (z - iv.z_lo) * (iv.z_hi - z))))


def _phi_extended(sheet: np.ndarray, z: np.ndarray) -> np.ndarray:
    sgn = 1 - 2 * (np.asarray(sheet) % 2)
    return sheet * np.pi + sgn * np.arcsin(np.clip(z, -1.0, 1.0))


class _Leg:
    """Cumulative arc and longitude table over one admissible interval.

    Over t: the arc s(t) = int g dt, g = ds/dt, and per sheet parity p the
    longitude Lam_p(t) = int rate_p g dt (rate_p: the rate where cos(phi)
    has sign (-1)^p), between the nodes t the integrals of the polynomial
    through each panel's Gauss values; the inverse t(s), per panel, the
    interpolant of that arc polynomial's inverse, built once.  At a
    spiraling pole contact the longitude stops _POLE_CUT of arc short of
    the end, continuing as A log(distance) with A read off the cut.
    """

    def __init__(self, K: MomentumLaw, iv: AdmissibleInterval,
                 quad_tol: float, t0: float, need_arc: float):
        self.K = K
        self.iv = iv
        self.m = 0.5 * (iv.z_lo + iv.z_hi)
        self.r = 0.5 * (iv.z_hi - iv.z_lo)
        self.asym_lo = (iv.lo_kind == OPEN_BOUNDARY
                        and K.P(iv.z_lo) <= _ASYMPTOTE_P_TOL)
        self.asym_hi = (iv.hi_kind == OPEN_BOUNDARY
                        and K.P(iv.z_hi) <= _ASYMPTOTE_P_TOL)
        self.spiral = _spiral_ends(K, iv)
        self.trunc = (iv.lo_kind == OPEN_BOUNDARY and not self.asym_lo,
                      iv.hi_kind == OPEN_BOUNDARY and not self.asym_hi)
        # odd sheets (cos(phi) < 0) are only reached through a pole
        # passage, and need a column of their own only where the rate
        # depends on the sign of cos(phi)
        even, odd = K.lambda_rate_phi(np.array([0.3, np.pi - 0.3]))
        self.parities = 1 + (POLE_PASSAGE in (iv.lo_kind, iv.hi_kind)
                             and abs(odd - even) > 1e-12 * abs(even))
        self.rate_points = self.newton_iters_max = 0
        half_pi = math.pi / 2.0
        t_lo = -half_pi + (min(0.01, 0.5 * (t0 + half_pi)) if self.asym_lo else 0.0)
        t_hi = half_pi - (min(0.01, 0.5 * (half_pi - t0)) if self.asym_hi else 0.0)
        nodes = list(np.linspace(t_lo, t_hi, 65))
        # rough extension toward excluded double-root ends until the table
        # spans need_arc of arc on each side of t0
        for low, asym in ((True, self.asym_lo), (False, self.asym_hi)):
            if asym:
                self._extend(nodes, t0, need_arc, low)
        # longitude cuts at spiral ends, where s ~ sqrt(2 r / |P'|) t to
        # O(cut^3); each is a node, so no panel straddles one
        self.cut = [-math.inf, math.inf]
        for e, pole in ((0, -1.0), (1, 1.0)):
            if self.spiral[e]:
                g_end = math.sqrt(2.0 * self.r / max(abs(K.dP(pole)), 1e-12))
                self.cut[e] = pole * (half_pi - _POLE_CUT / g_end)
                nodes.append(self.cut[e])

        self._refine(np.sort(nodes), max(quad_tol / 64.0, 1e-14), t0)
        self.total = float(self.s[-1])
        self._invert()
        self._ends()

    # -- construction ------------------------------------------------------

    def _columns(self, t):
        """g, the longitude rate per parity (rows; 0 past a spiral cut) and
        P's noise share."""
        g, frac, z, w2 = _arc_rate(self.K, self.iv, t, any(self.spiral))
        # latitude from the cancellation-free cos, so 1/cos(phi) in a rate
        # keeps its relative accuracy next to a pole; pi - phi for the far
        # sheet would add pi's rounding there, 1e-16 / cos(phi) of one sign
        w = np.sqrt(w2)
        phi = np.arctan2(z, w)
        if self.parities == 2:
            phi = np.concatenate([phi, np.arctan2(z, -w)])
        self.rate_points += phi.size
        rate = self.K.lambda_rate_phi(phi).reshape(self.parities, -1)
        rate[:, (t < self.cut[0]) | (t > self.cut[1])] = 0.0
        return g, rate, frac

    def _extend(self, nodes, t0, need_arc, low: bool):
        end = -math.pi / 2.0 if low else math.pi / 2.0

        def g(t):
            return _arc_rate(self.K, self.iv, t, any(self.spiral))[0]

        # rough arc from t0 to the current inner edge
        probe = np.linspace(nodes[0] if low else nodes[-1], t0, 33)
        gv = g(probe)
        arc = abs(float(np.sum(0.5 * (gv[1:] + gv[:-1]) * np.diff(probe))))
        for _ in range(80):
            edge = nodes[0] if low else nodes[-1]
            new_t = 0.5 * (end + edge)
            if arc >= need_arc or new_t in (edge, end):
                break
            mid, half = 0.5 * (new_t + edge), 0.5 * abs(edge - new_t)
            arc += abs(half * float(np.dot(_W7, g(mid + half * _X7))))
            nodes.insert(0 if low else len(nodes), new_t)

    def _refine(self, t, tol, t0):
        """The arc and longitude columns through gauss_adaptive."""
        def cols(x):
            g, rate, frac = self._columns(x)
            return np.vstack([g, rate * g]), frac

        self.t, coef, sums, self.arc_err = gauss_adaptive(cols, t, tol)
        # degree first, so a gather per sample reads contiguous rows
        self.arc_coef = coef[0]
        self.coef = coef[1:].transpose(2, 0, 1).copy()
        ds, dlam = sums[0], sums[1:]
        self.s = np.concatenate([[0.0], np.cumsum(ds)])
        # summed outward from the gauge point's node, so values near the
        # window stay small and carry a small rounding error
        k = int(np.searchsorted(self.t, t0))
        self.lam = np.concatenate([
            -np.cumsum(dlam[:, :k][:, ::-1], axis=1)[:, ::-1],
            np.zeros((self.parities, 1)), np.cumsum(dlam[:, k:], axis=1)], axis=1)

    def _zeta(self, tau, inverse=False):
        """The coordinate the inverse is interpolated in: tau, or next to a
        truncating end (open, not asymptotic: ds/dt = 0, t analytic in the
        root of the arc distance) sqrt(tau) and/or -sqrt(total - tau)."""
        S, (lo, hi) = self.total, self.trunc
        if not inverse:
            return ((np.sqrt(tau) if lo else 0.0 if hi else tau)
                    - (np.sqrt(S - tau) if hi else 0.0))
        if lo and hi:  # zeta = a - b with a^2 + b^2 = S
            return (0.5 * (tau + np.sqrt(2.0 * S - tau * tau))) ** 2
        return tau * tau if lo else S - tau * tau if hi else tau

    def _invert(self):
        """Per inverse panel i (zeta in [iz[i], iz[i+1]], in arc panel ij[i]):
        inv_coef[:, i], Legendre coefficients of the interpolant at Chebyshev
        points in zeta of the local t (in [-1, 1]) where that arc polynomial
        takes the arc; halved while its tail times max ds/dt exceeds roundoff."""
        zeta = self._zeta(self.s)
        # no finer than roundoff, nor than the arc panel's own accuracy
        tol = np.maximum(4e-15 * (1.0 + self.total), self.arc_err)
        j, done = np.arange(self.t.size - 1), []
        za, zb, ya, yb = zeta[:-1], zeta[1:], -np.ones(j.size), np.ones(j.size)
        for level in range(9):
            y, slope = self._solve(j, za, zb)
            coef = _CHEB_LEG @ np.column_stack([ya, y, yb]).T
            bad = (np.abs(coef[-2:]).max(axis=0) * slope > tol[j]) & (level < 8)
            done.append((za[~bad], j[~bad], coef[:, ~bad]))
            if not bad.any():
                break
            zm, ym = 0.5 * (za + zb)[bad], y[bad, 7]  # at _CHEB[8] = 0
            j = np.tile(j[bad], 2)
            za, zb = np.concatenate([za[bad], zm]), np.concatenate([zm, zb[bad]])
            ya, yb = np.concatenate([ya[bad], ym]), np.concatenate([ym, yb[bad]])
        za, j, coef = (np.concatenate(v, axis=-1) for v in zip(*done))
        order = np.argsort(za)
        self.iz, self.ij = np.append(za[order], zeta[-1]), j[order]
        self.inv_coef = coef[:, order]

    def _solve(self, j, za, zb):
        """Local t (in [-1, 1]) where arc panel j[k]'s polynomial, s = s_j +
        h/2 F_j(t), takes the arc at the inner Chebyshev points of zeta in
        [za[k], zb[k]] (safeguarded Newton), and the largest ds/dt there."""
        legvander = np.polynomial.legendre.legvander
        x, n, m = _CHEB[1:-1], j.size, _CHEB.size - 2
        s0, s1 = self.s[j, None], self.s[j + 1, None]
        h = (self.t[j + 1] - self.t[j])[:, None]
        zeta = 0.5 * (za + zb)[:, None] + 0.5 * (zb - za)[:, None] * x
        target = (np.clip(self._zeta(zeta, inverse=True), s0, s1) - s0) * (2.0 / h)
        c = self.arc_coef[j]
        dc = c @ _LEG_D.T
        # the rounding of the arc and of F's sum (that of t goes with F')
        tol = np.broadcast_to(1e-16 * (1.0 + s1) * (2.0 / h) + 4e-16
                              * np.abs(c).sum(axis=1)[:, None], zeta.shape).ravel()
        target, row, on = target.ravel(), np.repeat(np.arange(n), m), np.arange(n * m)
        # the guess is the same x on every panel: F is a product there
        v = legvander(x, 15)
        y, F, dF = np.tile(x, n), (c @ v.T).ravel(), (dc @ v[:, :15].T).ravel()
        slope, lo, hi = dF.copy(), -np.ones(n * m), np.ones(n * m)
        for it in range(41):
            err = F - target[on]
            keep = np.abs(err) > tol[on] + 4e-16 * np.abs(dF)
            on, err, dF, yo = on[keep], err[keep], dF[keep], y[on[keep]]
            if not on.size:
                break
            lo[on] = np.where(err > 0.0, lo[on], yo)
            hi[on] = np.where(err > 0.0, yo, hi[on])
            with np.errstate(divide="ignore", invalid="ignore"):
                nxt = yo - err / dF
            y[on] = np.where((nxt >= lo[on]) & (nxt <= hi[on]),
                             nxt, 0.5 * (lo[on] + hi[on]))
            v = legvander(y[on], 15)
            F = np.einsum("mk,mk->m", v, c[row[on]])
            slope[on] = dF = np.einsum("mk,mk->m", v[:, :15], dc[row[on]])
        self.newton_iters_max = max(self.newton_iters_max, it)
        return y.reshape(n, m), 0.5 * h[:, 0] * np.abs(slope).reshape(n, m).max(axis=1)

    def _ends(self):
        """join[p, e]: Lam_p where end e (lo 0, hi 1) joins the next leg,
        at the cut for a spiral end, cut_dist arc away, where the residue
        A[p, e] of rate ~ A / (tau - tau_end) (odd corrections only) is
        read; slope[p, e]: the rate at an asymptotic end, which holds for
        arc past the table, where the height freezes."""
        idx = [0, self.t.size - 1]
        self.cut_dist = [0.0, 0.0]
        self.A = np.zeros((self.parities, 2))
        self.slope = np.zeros((self.parities, 2))
        for e, asym, tau_end in ((0, self.asym_lo, 0.0),
                                 (1, self.asym_hi, self.total)):
            if self.spiral[e]:
                idx[e] = int(np.searchsorted(self.t, self.cut[e]))
                off = float(self.s_of_t(np.array([self.cut[e]]))[0]) - tau_end
                self.cut_dist[e] = abs(off)
                self.A[:, e] = self._columns(np.array([self.cut[e]]))[1][:, 0] * off
            elif asym:
                self.slope[:, e] = self._columns(self.t[idx[e]:idx[e] + 1])[1][:, 0]
        self.join = self.lam[:, idx]

    # -- evaluation --------------------------------------------------------

    @staticmethod
    def _panel(nodes, t):
        i = np.clip(np.searchsorted(nodes, t) - 1, 0, nodes.size - 2)
        h = nodes[i + 1] - nodes[i]
        return i, h, np.clip((t - nodes[i]) / h, 0.0, 1.0)

    def s_of_t(self, t):
        i, h, x = self._panel(self.t, np.asarray(t, dtype=float))
        return self.s[i] + 0.5 * h * legval_rows(self.arc_coef[i].T, 2.0 * x - 1.0)

    def lam_of(self, tau, t, p):
        """Lam_p at table positions tau (arc) and t, per-point parity p."""
        i, h, x = self._panel(self.t, t)
        lam = self.lam[p, i] + 0.5 * h * legval_rows(self.coef[:, p, i], 2.0 * x - 1.0)
        lam += (self.slope[p, 0] * np.minimum(tau, 0.0)
                + self.slope[p, 1] * np.maximum(tau - self.total, 0.0))
        for e, dist in ((0, tau), (1, self.total - tau)):
            if self.spiral[e]:
                near = np.flatnonzero(dist < self.cut_dist[e])
                with np.errstate(divide="ignore"):
                    lam[near] = self.join[p[near], e] + self.A[p[near], e] * np.log(
                        dist[near] / self.cut_dist[e])
        return lam

    def t_of_s(self, tau):
        tau = np.clip(np.asarray(tau, dtype=float), 0.0, self.total)
        i, _, u = self._panel(self.iz, self._zeta(tau))
        j = self.ij[i]
        y = legval_rows(self.inv_coef[:, i], 2.0 * u - 1.0)
        return self.t[j] + 0.5 * (self.t[j + 1] - self.t[j]) * (1.0 + y)

    def z_of_t(self, t):
        z = self.m + self.r * np.sin(np.asarray(t, dtype=float))
        return np.clip(z, self.iv.z_lo, self.iv.z_hi)


class _Motion:
    """Folded height motion over one leg table, plus sheet bookkeeping."""

    def __init__(self, K: MomentumLaw, iv: AdmissibleInterval,
                 half_span: float, quad_tol: float,
                 z0: Optional[float] = None, dz_sign0: int = 1):
        self.iv = iv
        z0 = z0 if z0 is not None else 0.5 * (iv.z_lo + iv.z_hi)
        if not iv.z_lo < z0 < iv.z_hi:
            raise ValueError(
                f"z0 = {z0} must lie strictly inside ({iv.z_lo}, {iv.z_hi})"
            )
        self.z0 = float(z0)
        self.t0 = _t_of_z(iv, self.z0)
        self.leg = _Leg(K, iv, quad_tol, self.t0, need_arc=half_span + 1.0)
        self.S0 = float(self.leg.s_of_t(np.array([self.t0]))[0])
        self.d0 = int(dz_sign0)
        self.lo_closed = iv.lo_kind != OPEN_BOUNDARY
        self.hi_closed = iv.hi_kind != OPEN_BOUNDARY
        self.L = self.leg.total

    # -- folding -----------------------------------------------------------

    def _fold(self, u):
        """Table coordinate tau for unfolded arc coordinate u."""
        L = self.L
        if self.lo_closed and self.hi_closed:
            v = np.mod(u, 2.0 * L)
            return np.minimum(v, 2.0 * L - v)
        if self.hi_closed:
            return np.where(u > L, 2.0 * L - u, u)
        if self.lo_closed:
            return np.abs(u)
        return u

    def _attainable_u(self):
        """Unfolded arc range of the motion; a truncating open end stops it."""
        L, asym_lo, asym_hi = self.L, self.leg.asym_lo, self.leg.asym_hi
        if self.lo_closed and self.hi_closed:
            return -math.inf, math.inf
        if self.hi_closed:
            return (-math.inf, math.inf) if asym_lo else (0.0, 2.0 * L)
        if self.lo_closed:
            return (-math.inf, math.inf) if asym_hi else (-L, L)
        return (-math.inf if asym_lo else 0.0), (math.inf if asym_hi else L)

    def _build_events(self, half_span, n_samples):
        """Reflection events inside the working window, and sheet states."""
        L = self.L
        lo_u, hi_u = self._attainable_u()
        pad = 2.0 * half_span / max(n_samples - 1, 1) + 1e-12
        u_min = max(self.S0 - half_span - pad, lo_u)
        u_max = min(self.S0 + half_span + pad, hi_u)

        # leg ends sit at u = k L, the hi end for odd k
        if self.lo_closed and self.hi_closed:
            k = np.arange(math.floor(u_min / L) - 1, math.ceil(u_max / L) + 2)
        else:
            k = np.array([1] if self.hi_closed else [0] if self.lo_closed else [],
                         dtype=int)
        u_e = k * L
        keep = (u_min - 1e-12 <= u_e) & (u_e <= u_max + 1e-12) & (u_e != self.S0)
        s_e = (u_e[keep] - self.S0) / self.d0
        order = np.argsort(s_e)
        self.ev_s = s_e[order]
        self.ev_hi = (k[keep] % 2 == 1)[order]
        self.ev_kind = [self.iv.hi_kind if h else self.iv.lo_kind for h in self.ev_hi]
        self.ev_contact = np.where(self.ev_hi, self.iv.hi_kind == POLE_PASSAGE,
                                   self.iv.lo_kind == POLE_PASSAGE)
        self.ev_spiral = self.ev_contact & np.take(self.leg.spiral, 1 * self.ev_hi)

        # per segment between events: dz/ds flips sign at every event; the
        # direction of phi, (-1)^sheet dz/ds, flips at turning points only,
        # and carries the sheet one step on through each pole passage
        self.i0 = int(np.searchsorted(self.ev_s, 0.0, side="right"))
        self.seg_dz = self.d0 * (-1) ** np.abs(np.arange(self.ev_s.size + 1) - self.i0)
        flips = np.cumprod(np.concatenate([[1], np.where(self.ev_contact, 1, -1)]))
        step = np.where(self.ev_contact, self.d0 * flips[:-1] * flips[self.i0], 0)
        self.seg_m = np.concatenate([[0], np.cumsum(step)])
        self.seg_m -= self.seg_m[self.i0]
        self.s_att_lo, self.s_att_hi = sorted(((lo_u - self.S0) / self.d0,
                                               (hi_u - self.S0) / self.d0))

    # -- sampling ----------------------------------------------------------

    def state_of_s(self, s):
        """Table parameter, segment, height and extended latitude at s."""
        s = np.asarray(s, dtype=float)
        t = self.leg.t_of_s(self._fold(self.S0 + self.d0 * s))
        z = self.leg.z_of_t(t)
        seg = np.searchsorted(self.ev_s, s, side="right")
        return t, seg, z, _phi_extended(self.seg_m[seg], z)

    def longitude(self, s, t, seg, lambda0):
        """Longitude at sorted attainable arc values s, and the indices of
        samples sitting on a spiral contact.

        On a segment between events lambda = c + sigma Lam_p(tau) with
        sigma = dtau/ds; c carries over each event by continuity at the
        leg end (at a spiral contact: at the cut, which continues the
        finite part by the mirror rule lambda(s* + u) = lambda(s* - u)).
        """
        leg = self.leg
        par = self.seg_m % leg.parities
        sig = self.seg_dz.astype(float)
        star_i = np.flatnonzero(self.ev_spiral)
        star = self.ev_s[star_i]

        def slack(x):  # event positions carry arc-table error
            return 1e-9 * (1.0 + np.abs(x))

        pts = np.sort(np.append(s, 0.0))
        if star.size and (np.searchsorted(star, pts[1:] + slack(pts[1:]), "right")
                          - np.searchsorted(star, pts[:-1] - slack(pts[:-1]))
                          > 1).any():
            raise ValueError(
                "sample spacing too coarse: multiple spiral contacts "
                "inside one step"
            )
        e = self.ev_hi.astype(int)
        c = np.concatenate([[0.0], np.cumsum(sig[:-1] * leg.join[par[:-1], e]
                                             - sig[1:] * leg.join[par[1:], e])])
        c += lambda0 - c[self.i0] - sig[self.i0] * leg.lam_of(
            np.array([self.S0]), np.array([self.t0]), np.zeros(1, dtype=int))[0]
        lam = c[seg] + sig[seg] * leg.lam_of(
            self._fold(self.S0 + self.d0 * s), t, par[seg])
        on = []
        for j, sj in zip(star_i, star):
            # a sample on the contact reports the finite approach value a
            # hair before it, on the side the walk from s = 0 comes from
            near = np.arange(*np.searchsorted(s, [sj - 2.0 * slack(sj),
                                                  sj + 2.0 * slack(sj)]))
            near = near[np.abs(s[near] - sj) <= slack(s[near])]
            k = j if sj > 0.0 else j + 1
            lam[near] = c[k] + sig[k] * (leg.join[par[k], e[j]] + leg.A[par[k], e[j]]
                                         * math.log(_POLE_OFF / leg.cut_dist[e[j]]))
            on.extend(near.tolist())
        return lam, sorted(on)


def _widest(ivs):
    """The default interval: the widest, and of near-equal widths (a
    double root halving a band, where rounding would decide) the highest."""
    if not ivs:
        raise ValueError("law admits no motion: P(z) <= 0 everywhere")
    top = max(iv.width for iv in ivs)
    return max((iv for iv in ivs if iv.width >= top * (1.0 - 1e-12)),
               key=lambda iv: iv.z_lo)


def _pick_interval(K: MomentumLaw, interval):
    return interval if interval is not None else _widest(admissible_intervals(K))


def arc_length_of_z(K: MomentumLaw, z_from: float, z_to: float,
                    interval: Optional[AdmissibleInterval] = None,
                    quad_tol: float = 1e-12) -> float:
    """Signed arc length along the height motion from z_from to z_to.

    Both heights must lie in the closure of one admissible interval.
    Finite at turning points and pole passages; infinite when an endpoint
    sits at a double root of P (the motion only reaches it asymptotically).
    """
    z_from = float(z_from)
    z_to = float(z_to)

    def holds(iv):
        return iv.contains(z_from, 1e-12) and iv.contains(z_to, 1e-12)

    iv = interval or next(filter(holds, admissible_intervals(K, with_period=False)), None)
    if iv is None:
        raise ValueError(
            "z_from and z_to must lie in the closure of one admissible interval")
    if not holds(iv):
        raise ValueError("height outside the interval closure")
    for z_end, kind in ((iv.z_lo, iv.lo_kind), (iv.z_hi, iv.hi_kind)):
        if (kind == OPEN_BOUNDARY and min(abs(z_from - z_end), abs(z_to - z_end)) <= 1e-12
                and K.P(z_end) <= _ASYMPTOTE_P_TOL):
            return math.copysign(math.inf, z_to - z_from)
    t_a, t_b = _t_of_z(iv, z_from), _t_of_z(iv, z_to)
    if t_a == t_b:  # the integrand can be 0/0 on a pole
        return 0.0
    sums = gauss_adaptive(_arc_column(K, iv), sorted((t_a, t_b)), quad_tol)[2]
    return math.copysign(float(sums.sum()), t_b - t_a)


def z_of_s(K: MomentumLaw, s, interval: Optional[AdmissibleInterval] = None,
           z0: Optional[float] = None, dz_sign0: int = 1,
           quad_tol: float = 1e-10) -> np.ndarray:
    """Height z(s) of the reconstructed motion at arbitrary arc values.

    Gauge: z(0) = z0 (interval midpoint by default) with initial height
    rate sign dz_sign0.  Values beyond a truncating domain edge are held
    at the edge height.
    """
    if dz_sign0 not in (1, -1) or not (math.isfinite(quad_tol) and quad_tol > 0.0):
        raise ValueError("dz_sign0 must be +1 or -1 and quad_tol positive")
    s = np.asarray(s, dtype=float)
    iv = _pick_interval(K, interval)
    half = float(np.max(np.abs(s))) if s.size else 0.5
    motion = _Motion(K, iv, max(half, 5e-7), quad_tol, z0, dz_sign0)
    return motion.leg.z_of_t(motion.leg.t_of_s(motion._fold(motion.S0 + motion.d0 * s)))


def reconstruct(K: MomentumLaw, config: ReconstructionConfig,
                interval: Optional[AdmissibleInterval] = None) -> CurveTrace:
    """Reconstruct a unit-speed spherical curve from its momentum law.

    Samples the curve on n_samples points spanning [-s_span/2, s_span/2]
    around the gauge point.  If the motion leaves the law's domain at a
    finite arc (open boundary), the trace ends there and meta records the
    truncation.  Returns a CurveTrace; meta carries the interval, gauge,
    events and period.
    """
    iv = _pick_interval(K, interval)
    half = 0.5 * config.s_span
    motion = _Motion(K, iv, half, config.quad_tol, config.z0, config.dz_sign0)
    motion._build_events(half, config.n_samples)

    s_all = np.linspace(-0.5 * config.s_span, 0.5 * config.s_span,
                        config.n_samples)
    slack = 1e-9 * (1.0 + config.s_span)
    keep = (s_all >= motion.s_att_lo - slack) & (s_all <= motion.s_att_hi + slack)
    s = s_all[keep]
    truncated_lo = bool((~keep)[: np.argmax(keep)].any()) if keep.any() else True
    truncated_hi = bool((~keep)[np.argmax(keep):].any()) if keep.any() else True

    t, seg, z, phi = motion.state_of_s(s)
    lam, spiral_samples = motion.longitude(s, t, seg, config.lambda0)
    dz = motion.seg_dz[seg]

    if config.lambda_cap is not None:
        over = np.abs(lam - config.lambda0) > config.lambda_cap
        if over.any():
            pos_bad = over & (s > 0.0)
            neg_bad = over & (s < 0.0)
            hi_cut = s[pos_bad].min() if pos_bad.any() else math.inf
            lo_cut = s[neg_bad].max() if neg_bad.any() else -math.inf
            keep2 = (s > lo_cut - 1e-15) & (s < hi_cut + 1e-15) & ~over
            s, z, phi, dz, lam = s[keep2], z[keep2], phi[keep2], dz[keep2], lam[keep2]

    w = np.cos(phi)
    zc = np.sin(phi)
    xi = np.column_stack([w * np.cos(lam), w * np.sin(lam), zc])

    meta = {
        "law_kind": K.law.kind,
        "params": dict(K.law.params),
        "c": K.c,
        "interval": {
            "z_lo": iv.z_lo, "z_hi": iv.z_hi,
            "lo_kind": iv.lo_kind, "hi_kind": iv.hi_kind,
        },
        "period_s": iv.period_s,
        "gauge": {"z0": motion.z0, "lambda0": config.lambda0,
                  "dz_sign0": config.dz_sign0},
        "events": [
            {"s": float(se), "endpoint": "hi" if hi_ else "lo", "kind": k,
             "spiral": bool(sp)}
            for se, hi_, k, sp in zip(motion.ev_s, motion.ev_hi,
                                      motion.ev_kind, motion.ev_spiral)
        ],
        "s_attainable": (motion.s_att_lo, motion.s_att_hi),
        "truncated": {"lo": truncated_lo, "hi": truncated_hi},
        "spiral_samples": spiral_samples,
        "dz_sign": dz,
        # work counters: table panels and longitude-rate evaluations do
        # not grow with n_samples; Newton iterations of the z(s) inversion
        "stats": {"leg_panels": motion.leg.t.size - 1,
                  "newton_iters_max": motion.leg.newton_iters_max,
                  "rate_points": motion.leg.rate_points,
                  "arc_err_max": float(motion.leg.arc_err.max())},
    }
    return CurveTrace(s=s, z=zc, phi=phi, lam=lam, xi=xi, meta=meta)
