"""Independent check of reconstructed curves by direct ODE integration.

A unit-speed spherical curve satisfies xi'' = -xi + kappa (xi x xi'),
so integrating (xi, T) forward with the curvature law evaluated along
the way rebuilds the curve without any of the quadrature machinery.
Agreement between the two routes validates both.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Optional

import numpy as np

from ._fd import check_uniform, deriv1, deriv2
from .laws import CurvatureLaw, MomentumLaw
from .reconstruct import CurveTrace, _pick_interval

_ORTHO_TOL = 1e-10


@dataclass(frozen=True)
class FrenetState:
    """Point on the sphere plus unit tangent, the ODE initial data."""

    xi: np.ndarray
    t: np.ndarray

    @classmethod
    def from_vectors(cls, xi, t) -> "FrenetState":
        xi = np.asarray(xi, dtype=float).reshape(3)
        t = np.asarray(t, dtype=float).reshape(3)
        n_xi = float(np.linalg.norm(xi))
        n_t = float(np.linalg.norm(t))
        if abs(n_xi - 1.0) > _ORTHO_TOL:
            raise ValueError("xi must be a unit vector")
        if abs(n_t - 1.0) > _ORTHO_TOL:
            raise ValueError("t must be a unit vector")
        xi = xi / n_xi
        if abs(float(xi @ t)) > _ORTHO_TOL:
            raise ValueError("t must be orthogonal to xi")
        t = t - (xi @ t) * xi
        t = t / np.linalg.norm(t)
        return cls(xi=xi, t=t)


def initial_state(K: MomentumLaw, z0: Optional[float] = None,
                  lambda0: float = 0.0, dz_sign0: int = 1,
                  interval=None) -> FrenetState:
    """Frenet initial data matching the reconstruction gauge.

    The tangent combines the height rate dz_sign*sqrt(P) with the
    longitude rate -K/cos^2(phi); the two always compose to unit speed.
    """
    iv = _pick_interval(K, interval)
    if z0 is None:
        z0 = 0.5 * (iv.z_lo + iv.z_hi)
    if not iv.z_lo < z0 < iv.z_hi:
        raise ValueError("z0 must lie strictly inside the interval")
    if dz_sign0 not in (1, -1):
        raise ValueError("dz_sign0 must be +1 or -1")
    phi = math.asin(z0)
    w = math.cos(phi)
    P = max(K.P(z0), 0.0)
    Kv = K.value(z0)
    phi_dot = dz_sign0 * math.sqrt(P) / w
    lam_dot = -Kv / (w * w)
    cl, sl = math.cos(lambda0), math.sin(lambda0)
    e_phi = np.array([-z0 * cl, -z0 * sl, w])
    e_lam = np.array([-sl, cl, 0.0])
    xi = np.array([w * cl, w * sl, z0])
    t = phi_dot * e_phi + lam_dot * w * e_lam
    return FrenetState.from_vectors(xi, t / np.linalg.norm(t))


def _rk4_step(state, h, kfun):
    """One RK4 step on the 6-vector (xi, T); None when kappa blows up.

    Straight-line form of the stage map (xi, T) -> (T, -xi + kappa xi x T)
    in its plain floating-point order: hoisting 0.5*h and h/6 changes no
    bit.  Stage points sit off the sphere by O(h^2), so the height is
    clamped to [-1, 1] (NaN to -1, as min/max would) lest a smooth pole
    crossing be mistaken for a curvature blow-up.
    """
    x0, x1, x2, t0, t1, t2 = state
    hh = 0.5 * h
    k = kfun(x2 if -1.0 <= x2 <= 1.0 else (1.0 if x2 > 1.0 else -1.0))
    if not math.isfinite(k):
        return None
    a0 = -x0 + k * (x1 * t2 - x2 * t1)
    a1 = -x1 + k * (x2 * t0 - x0 * t2)
    a2 = -x2 + k * (x0 * t1 - x1 * t0)
    y0, y1, y2 = x0 + hh * t0, x1 + hh * t1, x2 + hh * t2
    u0, u1, u2 = t0 + hh * a0, t1 + hh * a1, t2 + hh * a2
    k = kfun(y2 if -1.0 <= y2 <= 1.0 else (1.0 if y2 > 1.0 else -1.0))
    if not math.isfinite(k):
        return None
    b0 = -y0 + k * (y1 * u2 - y2 * u1)
    b1 = -y1 + k * (y2 * u0 - y0 * u2)
    b2 = -y2 + k * (y0 * u1 - y1 * u0)
    y0, y1, y2 = x0 + hh * u0, x1 + hh * u1, x2 + hh * u2
    v0, v1, v2 = t0 + hh * b0, t1 + hh * b1, t2 + hh * b2
    k = kfun(y2 if -1.0 <= y2 <= 1.0 else (1.0 if y2 > 1.0 else -1.0))
    if not math.isfinite(k):
        return None
    c0 = -y0 + k * (y1 * v2 - y2 * v1)
    c1 = -y1 + k * (y2 * v0 - y0 * v2)
    c2 = -y2 + k * (y0 * v1 - y1 * v0)
    y0, y1, y2 = x0 + h * v0, x1 + h * v1, x2 + h * v2
    w0, w1, w2 = t0 + h * c0, t1 + h * c1, t2 + h * c2
    k = kfun(y2 if -1.0 <= y2 <= 1.0 else (1.0 if y2 > 1.0 else -1.0))
    if not math.isfinite(k):
        return None
    d0 = -y0 + k * (y1 * w2 - y2 * w1)
    d1 = -y1 + k * (y2 * w0 - y0 * w2)
    d2 = -y2 + k * (y0 * w1 - y1 * w0)
    h6 = h / 6.0
    x0 = x0 + h6 * (t0 + 2.0 * u0 + 2.0 * v0 + w0)
    x1 = x1 + h6 * (t1 + 2.0 * u1 + 2.0 * v1 + w1)
    x2 = x2 + h6 * (t2 + 2.0 * u2 + 2.0 * v2 + w2)
    t0 = t0 + h6 * (a0 + 2.0 * b0 + 2.0 * c0 + d0)
    t1 = t1 + h6 * (a1 + 2.0 * b1 + 2.0 * c1 + d1)
    t2 = t2 + h6 * (a2 + 2.0 * b2 + 2.0 * c2 + d2)
    # reproject: keep xi on the sphere and T unit and tangent
    nx = math.sqrt(x0 * x0 + x1 * x1 + x2 * x2)
    x0, x1, x2 = x0 / nx, x1 / nx, x2 / nx
    dot = x0 * t0 + x1 * t1 + x2 * t2
    t0, t1, t2 = t0 - dot * x0, t1 - dot * x1, t2 - dot * x2
    nt = math.sqrt(t0 * t0 + t1 * t1 + t2 * t2)
    return (x0, x1, x2, t0 / nt, t1 / nt, t2 / nt)


def frenet_integrate(law: CurvatureLaw, init: FrenetState, s_span: float,
                     ds: float, n_samples: Optional[int] = None) -> CurveTrace:
    """Integrate the Frenet system over [-s_span/2, s_span/2] from s = 0.

    ds bounds the RK4 substep; samples land exactly on their grid points.
    Callers wanting oracle-grade accuracy should keep ds at 1e-3 or
    below.  If the curvature law turns non-finite mid-flight the trace
    stops at the last committed sample and meta records where and why.
    meta["stats"]["rk4_steps"] counts the steps taken, failed ones too.
    """
    if not (math.isfinite(s_span) and s_span > 0.0):
        raise ValueError("s_span must be positive and finite")
    if not (math.isfinite(ds) and ds > 0.0):
        raise ValueError("ds must be positive and finite")
    kfun = law.scalar_kappa()
    if n_samples is None:
        n_samples = max(int(round(s_span / ds)) + 1, 2)
    grid = np.linspace(-0.5 * s_span, 0.5 * s_span, n_samples)
    state0 = (float(init.xi[0]), float(init.xi[1]), float(init.xi[2]),
              float(init.t[0]), float(init.t[1]), float(init.t[2]))

    halt = {"halted": False, "halt_s": None, "halt_reason": None}
    rk4_steps = 0

    def walk(targets):
        nonlocal rk4_steps
        out = []
        state = state0
        cur = 0.0
        for st in targets:
            seg = st - cur
            n_sub = max(1, int(math.ceil(abs(seg) / ds - 1e-12)))
            h = seg / n_sub
            failed = False
            for i in range(n_sub):
                nxt = _rk4_step(state, h, kfun)
                if nxt is None:
                    failed = True
                    break
                state = nxt
            rk4_steps += i + 1
            if failed:
                halt["halted"] = True
                halt["halt_s"] = cur
                halt["halt_reason"] = "curvature law returned a non-finite value"
                break
            cur = st
            out.append((st, state))
        return out

    pos = walk([float(v) for v in grid[grid > 0.0]])
    neg = walk([float(v) for v in grid[grid < 0.0][::-1]])
    rows = neg[::-1]
    if np.any(grid == 0.0):
        rows = rows + [(0.0, state0)]
    rows = rows + pos

    s = np.array([r[0] for r in rows])
    xi = np.array([[r[1][0], r[1][1], r[1][2]] for r in rows])
    z = xi[:, 2]
    phi = np.arcsin(np.clip(z, -1.0, 1.0))
    lam = np.unwrap(np.arctan2(xi[:, 1], xi[:, 0])) if len(rows) else np.array([])
    meta = {
        "law_kind": law.kind,
        "params": dict(law.params),
        "ds": ds,
        "principal_phi": True,
        **halt,
        "stats": {"rk4_steps": rk4_steps},
    }
    return CurveTrace(s=s, z=z, phi=phi, lam=lam, xi=xi, meta=meta)


def curvature_from_trace(trace) -> np.ndarray:
    """Geodesic curvature det(xi, xi', xi'') from uniform samples.

    Five-point stencils; the outer two samples on each side come back
    NaN.  Raises on a non-uniform grid.
    """
    s = np.asarray(trace.s, dtype=float)
    xi = np.asarray(trace.xi, dtype=float)
    if s.size < 5:
        raise ValueError("curvature_from_trace needs at least 5 samples")
    h = check_uniform(s)
    d1 = deriv1(xi, h)
    d2 = deriv2(xi, h)
    cross = np.cross(d1, d2)
    return np.einsum("ij,ij->i", xi, cross)
