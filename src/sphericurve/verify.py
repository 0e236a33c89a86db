"""Diagnostics for sampled curves: invariant residuals and trace comparison.

verify_trace never raises; anything that cannot be computed shows up as
an infinite residual with a note, so a report is always produced and a
NaN in the data can only make the verdict fail, not crash the caller.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from functools import cache
from typing import Optional

import numpy as np

from ._fd import check_uniform, deriv1, interior
from .families import ElasticaParams, el_residual, energy_residual
from .laws import MomentumLaw, _momentum
from .oracle import _curvature


@dataclass(frozen=True)
class Thresholds:
    """Pass/fail bounds for each residual."""

    sphere: float = 1e-9
    speed: float = 1e-6
    curvature: float = 1e-5
    momentum: float = 1e-6
    el: float = 1e-4
    energy: float = 1e-4


@dataclass
class DiagnosticsReport:
    """Residuals, sample count and the overall verdict."""

    residuals: dict
    n_samples: int
    verdict: str
    notes: list = field(default_factory=list)

    def to_dict(self) -> dict:
        return {
            "residuals": {k: float(v) for k, v in self.residuals.items()},
            "n_samples": self.n_samples,
            "verdict": self.verdict,
            "notes": list(self.notes),
        }


def _sup_finite_required(vals, window=None) -> float:
    """Sup of |vals| treating NaN inside the window as failure."""
    vals = np.asarray(vals, dtype=float)
    if window is not None:
        vals = vals[window]
    if vals.size == 0:
        return math.inf
    if not np.all(np.isfinite(vals)):
        return math.inf
    return float(np.max(np.abs(vals)))


def verify_trace(trace, K: Optional[MomentumLaw] = None,
                 thresholds: Optional[Thresholds] = None) -> DiagnosticsReport:
    """Check a sampled curve against its invariants.

    Always computes the sphere and unit-speed residuals.  With a
    momentum law, also checks curvature and momentum along the trace,
    and for quadratic momenta the curvature equation and its energy.
    """
    th = thresholds or Thresholds()
    residuals = {}
    notes = []

    def attempt(name, fn):
        try:
            residuals[name] = float(fn())
        except Exception as exc:  # noqa: BLE001 - diagnostics must not raise
            residuals[name] = math.inf
            notes.append(f"{name}: {exc}")

    xi = np.asarray(getattr(trace, "xi", np.empty((0, 3))), dtype=float)
    s = np.asarray(getattr(trace, "s", np.empty(0)), dtype=float)
    n = s.size

    @cache
    def step():  # the grid's common step, checked once it passes
        return check_uniform(s)

    @cache
    def xi_dot():  # xi', differentiated once for every check
        return deriv1(xi, step())

    attempt("sphere", lambda: _sup_finite_required(
        np.linalg.norm(xi, axis=1) - 1.0))
    attempt("speed", lambda: _sup_finite_required(
        np.linalg.norm(xi_dot(), axis=1) - 1.0, interior(n)))

    if K is not None:
        @cache
        def phi():  # read inside the checks, which report a trace without it
            return np.asarray(trace.phi, dtype=float)

        @cache
        def kap():  # the law's curvature along the trace
            return K.curvature_phi(phi())

        def curvature_res():
            if n < 5:
                raise ValueError("curvature_from_trace needs at least 5 samples")
            kap_fd = _curvature(xi, step(), xi_dot())
            return _sup_finite_required(kap_fd - kap(), interior(n))

        attempt("curvature", curvature_res)

        def momentum_res():
            if n < 3:
                raise ValueError("momentum_from_trace needs at least 3 samples")
            K_fd = _momentum(xi, step(), xi_dot())
            return _sup_finite_required(K_fd - K.momentum_phi(phi()), interior(n))

        attempt("momentum", momentum_res)

        if K.law.kind == "linear-elastica":
            pars = ElasticaParams(a=K.law.params["a"], b=K.law.params["b"],
                                  c=K.c)

            def el_res():
                h = step()
                return el_residual(kap(), pars, h)

            def energy_res():
                h, win = step(), interior(n)
                return energy_residual(kap()[win], deriv1(kap(), h)[win], pars)

            attempt("el", el_res)
            attempt("energy", energy_res)

    ok = all(
        residuals[name] <= getattr(th, name)
        for name in residuals
    )
    verdict = "pass" if ok and residuals else "fail"
    return DiagnosticsReport(residuals=residuals, n_samples=int(n),
                             verdict=verdict, notes=notes)


def compare_traces(a, b) -> float:
    """Largest pointwise distance between two traces, after aligning them.

    Both traces must be sampled on the same arc-length grid.  The free
    rotation about the polar axis (the longitude gauge) is fitted out
    before taking the sup of the chordal distance.
    """
    sa = np.asarray(a.s, dtype=float)
    sb = np.asarray(b.s, dtype=float)
    if sa.shape != sb.shape or not np.allclose(sa, sb, rtol=0.0, atol=1e-12):
        raise ValueError("traces must share the same arc-length grid")
    xa = np.asarray(a.xi, dtype=float)
    xb = np.asarray(b.xi, dtype=float)
    C = float(xa[:, 0] @ xb[:, 0] + xa[:, 1] @ xb[:, 1])
    S = float(xa[:, 1] @ xb[:, 0] - xa[:, 0] @ xb[:, 1])
    theta = math.atan2(S, C)
    ct, st = math.cos(theta), math.sin(theta)
    rx = ct * xb[:, 0] - st * xb[:, 1]
    ry = st * xb[:, 0] + ct * xb[:, 1]
    diff = np.column_stack([rx - xa[:, 0], ry - xa[:, 1], xb[:, 2] - xa[:, 2]])
    return float(np.max(np.linalg.norm(diff, axis=1)))
