"""Curve reconstruction from a momentum law by three quadratures.

The height motion satisfies (dz/ds)^2 = P(z) inside an admissible
interval.  Substituting z = m + r sin t (m, r the interval midpoint and
half-width) makes the arc-length integrand r cos t / sqrt(P) analytic at
simple-root endpoints, so a cumulative table s(t) built on t in
[-pi/2, pi/2] can be inverted to give z(s) to near machine accuracy.
Reflections at turning points, sheet changes at pole passages, truncation
at domain edges and asymptotic approach to double roots are all handled
by folding the arc-length coordinate.

Longitude follows by integrating d(lambda)/ds = -M(phi)/cos^2(phi) along
the folded motion; across a spiraling pole contact the finite part
continues by the mirror rule lambda(s* + u) = lambda(s* - u).
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import Optional

import numpy as np

from ._quad import gauss_adaptive, gauss_batch, hermite
from .laws import (
    _POLE_MOMENTUM_TOL,
    OPEN_BOUNDARY,
    POLE_PASSAGE,
    AdmissibleInterval,
    MomentumLaw,
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
    quad_tol    absolute tolerance for the longitude quadratures
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


def _phi_extended(sheet: np.ndarray, z: np.ndarray) -> np.ndarray:
    sgn = 1 - 2 * (np.asarray(sheet) % 2)
    return sheet * np.pi + sgn * np.arcsin(np.clip(z, -1.0, 1.0))


class _Leg:
    """Cumulative arc table s(t) over one admissible interval."""

    def __init__(self, K: MomentumLaw, iv: AdmissibleInterval,
                 quad_tol: float, t0: float, need_arc: float):
        self.K = K
        self.iv = iv
        self.m = 0.5 * (iv.z_lo + iv.z_hi)
        self.r = 0.5 * (iv.z_hi - iv.z_lo)
        self.asym_lo = iv.lo_kind == OPEN_BOUNDARY and (
            K.P(iv.z_lo) <= _ASYMPTOTE_P_TOL
        )
        self.asym_hi = iv.hi_kind == OPEN_BOUNDARY and (
            K.P(iv.z_hi) <= _ASYMPTOTE_P_TOL
        )
        half_pi = math.pi / 2.0
        t_lo = -half_pi
        t_hi = half_pi
        if self.asym_lo:
            t_lo = -half_pi + min(0.01, 0.5 * (t0 + half_pi))
        if self.asym_hi:
            t_hi = half_pi - min(0.01, 0.5 * (half_pi - t0))

        nodes = list(np.linspace(t_lo, t_hi, 65))
        # rough extension toward excluded double-root ends until the table
        # spans need_arc of arc on each side of t0
        if self.asym_lo:
            nodes = self._extend(nodes, t0, need_arc, low=True)
        if self.asym_hi:
            nodes = self._extend(nodes, t0, need_arc, low=False)

        tol = max(quad_tol / 64.0, 1e-14)
        t_arr, panels, g_nodes = self._refine(np.asarray(nodes), tol)
        self.t = t_arr
        self.g = g_nodes
        self.s = np.concatenate([[0.0], np.cumsum(panels)])
        self.total = float(self.s[-1])

    # -- integrand ---------------------------------------------------------

    def _p_of_t(self, t):
        """P(m + r sin t) with 1 - z^2 assembled free of cancellation.

        1 -+ sin t has an exact half-angle form, so 1 -+ z stays relative
        accurate however close the interval endpoint sits to a pole.
        """
        q = 0.25 * np.pi - 0.5 * t
        one_m = 2.0 * np.sin(q) ** 2
        one_p = 2.0 * np.cos(q) ** 2
        omz = self.r * one_m + (1.0 - self.m - self.r)
        opz = self.r * one_p + (1.0 + self.m - self.r)
        z = self.m + self.r * np.sin(t)
        with np.errstate(invalid="ignore"):
            Kv = self.K.value(z)
        return omz * opz - Kv * Kv

    def _g_and_p(self, t):
        # P carries ~5e-16 of absolute roundoff from the K^2 cancellation;
        # flooring there keeps g bounded near the roots instead of spiking
        with np.errstate(invalid="ignore"):
            P = np.maximum(self._p_of_t(t), 5e-16)
        return self.r * np.cos(t) / np.sqrt(P), P

    def _g_raw(self, t):
        return self._g_and_p(t)[0]

    def _g_limit(self, z_end: float, kind: str) -> float:
        if kind == OPEN_BOUNDARY:
            return 0.0
        d = abs(self.K.dP(z_end))
        return math.sqrt(2.0 * self.r / max(d, 1e-12))

    def _g_at_nodes(self, t):
        g = self._g_raw(t)
        half_pi = math.pi / 2.0
        g = np.where(t == -half_pi, self._g_limit(self.iv.z_lo, self.iv.lo_kind), g)
        g = np.where(t == half_pi, self._g_limit(self.iv.z_hi, self.iv.hi_kind), g)
        return g

    # -- construction ------------------------------------------------------

    def _extend(self, nodes, t0, need_arc, low: bool):
        from ._quad import _W7, _X7

        half_pi = math.pi / 2.0
        end = -half_pi if low else half_pi
        # rough arc from t0 to the current inner edge
        probe = np.linspace(nodes[0] if low else nodes[-1], t0, 33)
        gv = self._g_raw(probe)
        arc = abs(float(np.sum(0.5 * (gv[1:] + gv[:-1]) * np.diff(probe))))
        for _ in range(80):
            if arc >= need_arc:
                break
            edge = nodes[0] if low else nodes[-1]
            new_t = 0.5 * (end + edge)
            if new_t == edge or new_t == end:
                break
            a, b = (new_t, edge) if low else (edge, new_t)
            mid = 0.5 * (a + b)
            half = 0.5 * (b - a)
            piece = half * float(np.dot(_W7, self._g_raw(mid + half * _X7)))
            arc += abs(piece)
            if low:
                nodes.insert(0, new_t)
            else:
                nodes.append(new_t)
        return nodes

    def _refine(self, t, tol):
        from ._quad import _W15, _X15, _W7, _X7

        for it in range(41):
            a, b = t[:-1], t[1:]
            mid = 0.5 * (a + b)
            half = 0.5 * (b - a)
            g_n = self._g_at_nodes(t)
            p15 = mid[:, None] + half[:, None] * _X15[None, :]
            p7 = mid[:, None] + half[:, None] * _X7[None, :]
            y15, P15 = self._g_and_p(p15.ravel())
            y15 = y15.reshape(p15.shape)
            P15 = P15.reshape(p15.shape)
            y7 = self._g_raw(p7.ravel()).reshape(p7.shape)
            i15 = half * (y15 @ _W15)
            i7 = half * (y7 @ _W7)
            # left half-panel integral for the Hermite midpoint check
            midl = 0.5 * (a + mid)
            halfl = 0.25 * (b - a)
            y15l = self._g_raw(
                (midl[:, None] + halfl[:, None] * _X15[None, :]).ravel()
            ).reshape(p15.shape)
            i15l = halfl * (y15l @ _W15)
            pred = 0.5 * i15 + (b - a) * (g_n[:-1] - g_n[1:]) / 8.0
            # refinement cannot resolve below the roundoff carried by P;
            # estimate that noise per panel and accept once it dominates
            frac = np.minimum(0.5 * 5e-16 / P15, 1.0)
            noise = np.abs(half) * ((y15 * frac) @ _W15)
            tol_eff = np.maximum(tol, 4.0 * np.abs(noise))
            bad = (np.abs(i15 - i7) > tol_eff) | (np.abs(pred - i15l) > tol_eff)
            bad &= (b - a) > 1e-6
            if not bad.any() or it == 40:
                return t, i15, g_n
            t = np.sort(np.concatenate([t, mid[bad]]))

    # -- evaluation --------------------------------------------------------

    def _locate(self, tau):
        i = np.clip(np.searchsorted(self.s, tau) - 1, 0, self.s.size - 2)
        return i

    def s_of_t(self, t):
        t = np.asarray(t, dtype=float)
        i = np.clip(np.searchsorted(self.t, t) - 1, 0, self.t.size - 2)
        t0, t1 = self.t[i], self.t[i + 1]
        h = t1 - t0
        x = np.clip((t - t0) / h, 0.0, 1.0)
        return hermite(x, h, self.s[i], self.g[i], self.s[i + 1], self.g[i + 1])

    def t_of_s(self, tau):
        tau = np.clip(np.asarray(tau, dtype=float), 0.0, self.total)
        i = self._locate(tau)
        lo = self.t[i].copy()
        hi = self.t[i + 1].copy()
        t0, t1 = self.t[i], self.t[i + 1]
        h = t1 - t0
        s0, s1 = self.s[i], self.s[i + 1]
        g0, g1 = self.g[i], self.g[i + 1]
        # start from linear inverse, then safeguarded Newton on the cubic
        with np.errstate(divide="ignore", invalid="ignore"):
            cur = np.where(s1 > s0, t0 + h * (tau - s0) / (s1 - s0),
                           0.5 * (t0 + t1))
        cur = np.clip(cur, lo, hi)
        for _ in range(80):
            x = (cur - t0) / h
            # kept bound: freed at once, it let the allocator return pages
            # that each iteration then faulted in again (t_of_s 25% slower)
            val = hermite(x, h, s0, g0, s1, g1)
            err = val - tau
            done = np.abs(err) <= 1e-14 * (1.0 + np.abs(tau))
            if done.all():
                break
            high = err > 0.0
            hi = np.where(high, cur, hi)
            lo = np.where(high, lo, cur)
            d00 = (6.0 * x * x - 6.0 * x) / h
            slope = (d00 * (s0 - s1)
                     + (3.0 * x * x - 4.0 * x + 1.0) * g0
                     + (3.0 * x * x - 2.0 * x) * g1)
            with np.errstate(divide="ignore", invalid="ignore"):
                nxt = cur - err / slope
            ok = np.isfinite(nxt) & (nxt > lo) & (nxt < hi)
            cur = np.where(ok, nxt, 0.5 * (lo + hi))
        return cur

    def z_of_t(self, t):
        z = self.m + self.r * np.sin(np.asarray(t, dtype=float))
        return np.clip(z, self.iv.z_lo, self.iv.z_hi)


class _Motion:
    """Folded height motion plus sheet and longitude bookkeeping."""

    def __init__(self, K: MomentumLaw, iv: AdmissibleInterval,
                 cfg: ReconstructionConfig):
        self.K = K
        self.iv = iv
        self.cfg = cfg
        m = 0.5 * (iv.z_lo + iv.z_hi)
        r = 0.5 * (iv.z_hi - iv.z_lo)
        z0 = cfg.z0 if cfg.z0 is not None else m
        if not iv.z_lo < z0 < iv.z_hi:
            raise ValueError(
                f"z0 = {z0} must lie strictly inside ({iv.z_lo}, {iv.z_hi})"
            )
        self.z0 = float(z0)
        t0 = math.asin(min(1.0, max(-1.0, (z0 - m) / r)))
        half = 0.5 * cfg.s_span
        self.leg = _Leg(K, iv, cfg.quad_tol, t0, need_arc=half + 1.0)
        self.S0 = float(self.leg.s_of_t(np.array([t0]))[0])
        self.d0 = int(cfg.dz_sign0)
        self.lo_closed = iv.lo_kind != OPEN_BOUNDARY
        self.hi_closed = iv.hi_kind != OPEN_BOUNDARY
        self.L = self.leg.total
        self._build_events(half)

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
        L = self.L
        lo_stop = -math.inf
        hi_stop = math.inf
        if self.lo_closed and self.hi_closed:
            return lo_stop, hi_stop
        if self.hi_closed:
            if not self.leg.asym_lo:
                lo_stop, hi_stop = 0.0, 2.0 * L
        elif self.lo_closed:
            if not self.leg.asym_hi:
                lo_stop, hi_stop = -L, L
        else:
            if not self.leg.asym_lo:
                lo_stop = 0.0
            if not self.leg.asym_hi:
                hi_stop = L
        return lo_stop, hi_stop

    def _build_events(self, half_span):
        """Reflection events inside the working window, and sheet states."""
        L = self.L
        lo_u, hi_u = self._attainable_u()
        pad = 2.0 * half_span / max(self.cfg.n_samples - 1, 1) + 1e-12
        u_min = max(self.S0 - half_span - pad, lo_u)
        u_max = min(self.S0 + half_span + pad, hi_u)

        events = []  # (s, endpoint_hi?, kind)
        if self.lo_closed or self.hi_closed:
            if self.lo_closed and self.hi_closed:
                ks = range(int(math.floor(u_min / L)) - 1,
                           int(math.ceil(u_max / L)) + 2)
                coords = [(k * L, k % 2 == 1) for k in ks if k * L != self.S0]
            elif self.hi_closed:
                coords = [(L, True)]
            else:
                coords = [(0.0, False)]
            for u_e, is_hi in coords:
                if not (u_min - 1e-12 <= u_e <= u_max + 1e-12):
                    continue
                s_e = (u_e - self.S0) / self.d0
                kind = self.iv.hi_kind if is_hi else self.iv.lo_kind
                events.append((s_e, is_hi, kind))
        events.sort(key=lambda e: e[0])

        self.ev_s = np.array([e[0] for e in events])
        self.ev_hi = np.array([e[1] for e in events], dtype=bool)
        self.ev_kind = [e[2] for e in events]
        self.ev_contact = np.array(
            [k == POLE_PASSAGE for k in self.ev_kind], dtype=bool
        )
        spiral = []
        for is_hi, k in zip(self.ev_hi, self.ev_kind):
            if k != POLE_PASSAGE:
                spiral.append(False)
                continue
            # the longitude stays bounded through a contact iff kappa does;
            # a 1/sqrt-or-worse blowup shows as a ~1e3 jump between probes
            sgn = 1.0 if is_hi else -1.0
            k_in = self.K.deriv(sgn * (1.0 - 1e-3))
            k_near = self.K.deriv(sgn * (1.0 - 1e-9))
            spiral.append(
                not math.isfinite(k_near)
                or abs(k_near) > 1e2 * (1.0 + abs(k_in))
            )
        self.ev_spiral = np.array(spiral, dtype=bool)

        # sheet and dz sign per segment between events
        n_ev = self.ev_s.size
        seg_m = np.zeros(n_ev + 1, dtype=int)
        seg_dz = np.zeros(n_ev + 1, dtype=int)
        i0 = int(np.searchsorted(self.ev_s, 0.0, side="right"))
        seg_m[i0] = 0
        seg_dz[i0] = self.d0
        mm, dd = 0, self.d0
        for j in range(i0, n_ev):
            if self.ev_contact[j]:
                mm = mm + 1 if ((-1) ** mm) * dd > 0 else mm - 1
            dd = -dd
            seg_m[j + 1] = mm
            seg_dz[j + 1] = dd
        mm, dd = 0, self.d0
        for j in range(i0 - 1, -1, -1):
            # walking left across an event: invert the forward rules
            if self.ev_contact[j]:
                mm = mm - 1 if ((-1) ** mm) * dd > 0 else mm + 1
            dd = -dd
            seg_m[j] = mm
            seg_dz[j] = dd
        self.seg_m = seg_m
        self.seg_dz = seg_dz

        s_lo_u, s_hi_u = lo_u, hi_u
        bounds = sorted(((s_lo_u - self.S0) / self.d0,
                         (s_hi_u - self.S0) / self.d0))
        self.s_att_lo, self.s_att_hi = bounds

    # -- sampling ----------------------------------------------------------

    def state_of_s(self, s):
        """Height, extended latitude and dz sign at arbitrary arc values."""
        s = np.asarray(s, dtype=float)
        u = self.S0 + self.d0 * s
        tau = self._fold(u)
        t = self.leg.t_of_s(tau)
        z = self.leg.z_of_t(t)
        seg = np.searchsorted(self.ev_s, s, side="right")
        sheet = self.seg_m[seg]
        phi = _phi_extended(sheet, z)
        dz = self.seg_dz[seg]
        return z, phi, dz

    def rate_of_s(self, s):
        _, phi, _ = self.state_of_s(s)
        return self.K.lambda_rate_phi(phi)

    def longitude(self, samples: np.ndarray) -> np.ndarray:
        """Longitude at the given (sorted, attainable) arc values."""
        cfg = self.cfg
        n = samples.size
        lam = np.full(n, cfg.lambda0, dtype=float)
        if n == 0:
            return lam
        spans = []
        for side in (1, -1):
            if side == 1:
                idx = np.flatnonzero(samples > 0.0)
            else:
                idx = np.flatnonzero(samples < 0.0)[::-1]
            prev = 0.0
            for i in idx:
                spans.append((prev, float(samples[i]), i))
                prev = float(samples[i])
        if not spans:
            lam[samples == 0.0] = cfg.lambda0
            return lam

        a = np.array([p[0] for p in spans])
        b = np.array([p[1] for p in spans])
        tgt = b.copy()
        extra = np.zeros(a.size)
        spiral_note = []
        spiral_idx = np.flatnonzero(self.ev_spiral)
        spiral_s = self.ev_s[spiral_idx]
        # rate(s) ~ A / (s - s*) near a spiraling contact, with only odd
        # corrections; inside _POLE_CUT of s* the tail integrates to
        # A log-ratios exactly, and quadrature never touches the wall
        coefs = {}

        def residue(k):
            if k not in coefs:
                jev = int(spiral_idx[k])
                m = int(self.seg_m[jev])
                z_star = 1.0 if self.ev_hi[jev] else -1.0
                phi_star = _phi_extended(m, z_star)
                h = 1e-5
                dK = (self.K.momentum_phi(phi_star + h)
                      - self.K.momentum_phi(phi_star - h)) / (2.0 * h)
                rate = (self.seg_dz[jev] * (1 - 2 * (m % 2))
                        * math.sqrt(abs(self.K.dP(z_star)) / 2.0))
                coefs[k] = -dK / rate
            return coefs[k]

        for j in range(a.size):
            lo, hi = min(a[j], b[j]), max(a[j], b[j])
            dirj = 1.0 if b[j] >= a[j] else -1.0
            # event positions carry arc-table error near the quadrature
            # tolerance, so hits are matched loosely; a sample this close
            # to a contact gets the approach-value convention anyway
            at_a = np.abs(spiral_s - a[j]) <= 1e-9 * (1.0 + abs(a[j]))
            at_b = np.abs(spiral_s - b[j]) <= 1e-9 * (1.0 + abs(b[j]))
            ins = (spiral_s > lo) & (spiral_s < hi) & ~at_a & ~at_b
            if int(at_a.sum() + at_b.sum() + ins.sum()) > 1:
                raise ValueError(
                    "sample spacing too coarse: multiple spiral contacts "
                    "inside one step"
                )
            if at_b.any():
                # sample sits on the contact: report the finite approach
                # value a hair before it
                k = int(np.flatnonzero(at_b)[0])
                star = float(spiral_s[k])
                tgt[j] = star - _POLE_CUT * dirj
                extra[j] += residue(k) * math.log(_POLE_OFF / _POLE_CUT)
                spiral_note.append(int(spans[j][2]))
            elif at_a.any():
                # previous sample sat on the contact: resume from its
                # approach point and mirror the target onto this side
                # (the crossing itself cancels by odd symmetry)
                k = int(np.flatnonzero(at_a)[0])
                star = float(spiral_s[k])
                a[j] = star - _POLE_CUT * dirj
                extra[j] += residue(k) * math.log(_POLE_CUT / _POLE_OFF)
                mirror = 2.0 * star - b[j]
                gap = abs(mirror - star)
                if gap < _POLE_CUT:
                    tgt[j] = star - _POLE_CUT * dirj
                    extra[j] += residue(k) * math.log(gap / _POLE_CUT)
                else:
                    tgt[j] = mirror
            elif ins.any():
                k = int(np.flatnonzero(ins)[0])
                star = float(spiral_s[k])
                mirror = 2.0 * star - b[j]
                gap = abs(mirror - star)
                if gap < _POLE_CUT:
                    tgt[j] = star - _POLE_CUT * dirj
                    extra[j] += residue(k) * math.log(gap / _POLE_CUT)
                else:
                    tgt[j] = mirror

        tol = max(cfg.quad_tol * 1e-2 / max(a.size, 1) ** 0.5, 1e-14)
        deltas = gauss_batch(self.rate_of_s, a, tgt, tol) + extra

        # accumulate along each walk
        acc = {}
        prev_val = {1: cfg.lambda0, -1: cfg.lambda0}
        for j, (pa, pb, i) in enumerate(spans):
            side = 1 if pb > 0 else -1
            val = prev_val[side] + float(deltas[j])
            prev_val[side] = val
            acc[i] = val
        for i, v in acc.items():
            lam[i] = v
        self._spiral_samples = spiral_note
        return lam


def _pick_interval(K: MomentumLaw, interval):
    if interval is not None:
        return interval
    ivs = admissible_intervals(K)
    if not ivs:
        raise ValueError("law admits no motion: P(z) <= 0 everywhere")
    return max(ivs, key=lambda iv: iv.width)


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
    if interval is None:
        ivs = admissible_intervals(K, with_period=False)
        slack = 1e-12
        cands = [iv for iv in ivs
                 if iv.contains(z_from, slack) and iv.contains(z_to, slack)]
        if not cands:
            raise ValueError(
                "z_from and z_to must lie in the closure of one admissible "
                "interval"
            )
        interval = cands[0]
    iv = interval
    if not (iv.contains(z_from, 1e-12) and iv.contains(z_to, 1e-12)):
        raise ValueError("height outside the interval closure")
    sign = 1.0 if z_to >= z_from else -1.0
    for z_end in (z_from, z_to):
        at_lo = abs(z_end - iv.z_lo) <= 1e-12
        at_hi = abs(z_end - iv.z_hi) <= 1e-12
        if at_lo and iv.lo_kind == OPEN_BOUNDARY and K.P(iv.z_lo) <= _ASYMPTOTE_P_TOL:
            return sign * math.inf
        if at_hi and iv.hi_kind == OPEN_BOUNDARY and K.P(iv.z_hi) <= _ASYMPTOTE_P_TOL:
            return sign * math.inf
    m = 0.5 * (iv.z_lo + iv.z_hi)
    r = 0.5 * (iv.z_hi - iv.z_lo)

    def g(t):
        z = m + r * np.sin(t)
        with np.errstate(invalid="ignore"):
            P = np.maximum(K.P(z), 1e-300)
        return r * np.cos(t) / np.sqrt(P)

    t_a = math.asin(min(1.0, max(-1.0, (z_from - m) / r)))
    t_b = math.asin(min(1.0, max(-1.0, (z_to - m) / r)))
    return gauss_adaptive(g, t_a, t_b, quad_tol)


def z_of_s(K: MomentumLaw, s, interval: Optional[AdmissibleInterval] = None,
           z0: Optional[float] = None, dz_sign0: int = 1,
           quad_tol: float = 1e-10) -> np.ndarray:
    """Height z(s) of the reconstructed motion at arbitrary arc values.

    Gauge: z(0) = z0 (interval midpoint by default) with initial height
    rate sign dz_sign0.  Values beyond a truncating domain edge are held
    at the edge height.
    """
    s = np.asarray(s, dtype=float)
    iv = _pick_interval(K, interval)
    span = 2.0 * float(np.max(np.abs(s))) if s.size else 1.0
    cfg = ReconstructionConfig(
        s_span=max(span, 1e-6), n_samples=16, quad_tol=quad_tol,
        z0=z0, dz_sign0=dz_sign0,
    )
    motion = _Motion(K, iv, cfg)
    z, _, _ = motion.state_of_s(s)
    return z


def longitude_of_s(K: MomentumLaw, s, z, lambda0: float = 0.0) -> np.ndarray:
    """Longitude along a sampled height history, by composite quadrature.

    s must be uniform and z the matching height samples of a single
    reconstructed motion.  The longitude is anchored at the first sample:
    lambda(s[0]) = lambda0.  Pole contacts are detected from the samples;
    smooth passages integrate straight through, while a spiraling contact
    landing between samples makes the neighboring longitude values blow
    up honestly (the true longitude diverges there).
    """
    s = np.asarray(s, dtype=float)
    z = np.asarray(z, dtype=float)
    if s.shape != z.shape or s.ndim != 1:
        raise ValueError("s and z must be 1-d arrays of equal length")
    if s.size < 2:
        return np.full_like(s, lambda0)
    from ._fd import check_uniform

    h = check_uniform(s)

    n = s.size
    contact_n = (K.law.domain[1] >= 1.0
                 and abs(K.value(1.0)) <= _POLE_MOMENTUM_TOL)
    contact_s = (K.law.domain[0] <= -1.0
                 and abs(K.value(-1.0)) <= _POLE_MOMENTUM_TOL)
    sheet = np.zeros(n, dtype=int)
    mm = 0
    for i in range(1, n - 1):
        second = abs(z[i - 1] - 2.0 * z[i] + z[i + 1])
        if (contact_n and z[i] >= z[i - 1] and z[i] >= z[i + 1]
                and 1.0 - z[i] <= 4.0 * second + 1e-12):
            rising = 1.0
            mm = mm + 1 if ((-1) ** mm) * rising > 0 else mm - 1
        elif (contact_s and z[i] <= z[i - 1] and z[i] <= z[i + 1]
                and 1.0 + z[i] <= 4.0 * second + 1e-12):
            falling = -1.0
            mm = mm + 1 if ((-1) ** mm) * falling > 0 else mm - 1
        sheet[i] = mm
    if n > 1:
        sheet[-1] = mm
    phi = _phi_extended(sheet, z)
    rate = K.lambda_rate_phi(phi)

    # four-point midpoint heights, three-point at the ends
    zm = np.empty(n - 1)
    if n >= 4:
        zm[1:-1] = (-z[:-3] + 9.0 * z[1:-2] + 9.0 * z[2:-1] - z[3:]) / 16.0
        zm[0] = (3.0 * z[0] + 6.0 * z[1] - z[2]) / 8.0
        zm[-1] = (3.0 * z[-1] + 6.0 * z[-2] - z[-3]) / 8.0
    else:
        zm[:] = 0.5 * (z[:-1] + z[1:])
    phim = _phi_extended(sheet[:-1], np.clip(zm, -1.0, 1.0))
    ratem = K.lambda_rate_phi(phim)

    steps = (h / 6.0) * (rate[:-1] + 4.0 * ratem + rate[1:])
    lam = np.empty(n)
    lam[0] = lambda0
    lam[1:] = lambda0 + np.cumsum(steps)
    return lam


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
    motion = _Motion(K, iv, config)

    s_all = np.linspace(-0.5 * config.s_span, 0.5 * config.s_span,
                        config.n_samples)
    slack = 1e-9 * (1.0 + config.s_span)
    keep = (s_all >= motion.s_att_lo - slack) & (s_all <= motion.s_att_hi + slack)
    s = s_all[keep]
    truncated_lo = bool((~keep)[: np.argmax(keep)].any()) if keep.any() else True
    truncated_hi = bool((~keep)[np.argmax(keep):].any()) if keep.any() else True

    z, phi, dz = motion.state_of_s(s)
    lam = motion.longitude(s)

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
        "spiral_samples": sorted(getattr(motion, "_spiral_samples", [])),
        "dz_sign": dz,
    }
    return CurveTrace(s=s, z=zc, phi=phi, lam=lam, xi=xi, meta=meta)
