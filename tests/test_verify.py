"""Diagnostics report behaviour and trace comparison."""

import math
from types import SimpleNamespace

import numpy as np
import pytest

from sphericurve import verify
from sphericurve.families import closed_form, family_law
from sphericurve.laws import admissible_intervals, momentum_from_trace
from sphericurve.oracle import curvature_from_trace
from sphericurve.reconstruct import (
    CurveTrace,
    ReconstructionConfig,
    reconstruct,
)
from sphericurve.verify import DiagnosticsReport, Thresholds, compare_traces, verify_trace


def _circle_trace(n=401, lam0=0.0):
    s = np.linspace(-1.0, 1.0, n)
    xi = np.column_stack(
        [np.cos(s + lam0), np.sin(s + lam0), np.zeros_like(s)])
    return CurveTrace(s=s, z=xi[:, 2], phi=np.zeros_like(s),
                      lam=s + lam0, xi=xi, meta={})


class TestVerifyTrace:
    def test_equator_passes_geometry_checks(self):
        rep = verify_trace(_circle_trace())
        assert rep.verdict == "pass"
        assert set(rep.residuals) == {"sphere", "speed"}
        assert rep.residuals["sphere"] < 1e-12
        assert rep.residuals["speed"] < 1e-8

    def test_never_raises_on_garbage(self):
        s = np.linspace(0.0, 1.0, 32)
        xi = np.full((32, 3), np.nan)
        tr = CurveTrace(s=s, z=xi[:, 2], phi=xi[:, 2], lam=xi[:, 2],
                        xi=xi, meta={})
        rep = verify_trace(tr, K=family_law("great-circle", {"c": 0.0}))
        assert rep.verdict == "fail"
        assert all(not math.isfinite(v) for v in rep.residuals.values())

    def test_never_raises_without_phi(self):
        tr = _circle_trace()
        bare = SimpleNamespace(s=tr.s, xi=tr.xi)
        rep = verify_trace(bare, K=family_law("viviani"))
        assert rep.verdict == "fail"
        assert rep.residuals["curvature"] == rep.residuals["momentum"] == math.inf
        assert [note.split(":")[0] for note in rep.notes] == ["curvature", "momentum"]
        assert all("attribute 'phi'" in note for note in rep.notes)

    def test_single_interior_nan_fails(self):
        tr = _circle_trace()
        tr.xi[200, 1] = np.nan
        rep = verify_trace(tr)
        assert rep.verdict == "fail"
        assert rep.residuals["sphere"] == math.inf

    def test_full_pipeline_with_law(self):
        K = family_law("viviani")
        cfg = ReconstructionConfig(s_span=4.0, n_samples=1601, z0=0.2)
        rep = verify_trace(reconstruct(K, cfg), K=K)
        assert rep.verdict == "pass", rep.to_dict()
        assert set(rep.residuals) == {"sphere", "speed",
                                      "curvature", "momentum"}

    def test_quadratic_momentum_adds_equation_checks(self):
        K = family_law("borderline", {"a": 0.75})
        cfg = ReconstructionConfig(s_span=4.0, n_samples=1601, z0=0.5)
        rep = verify_trace(reconstruct(K, cfg), K=K)
        assert rep.verdict == "pass", rep.to_dict()
        assert "el" in rep.residuals and "energy" in rep.residuals
        assert rep.residuals["el"] < 1e-4
        assert rep.residuals["energy"] < 1e-4

    def test_thresholds_drive_verdict(self):
        tr = _circle_trace()
        tight = Thresholds(speed=1e-18)
        assert verify_trace(tr, thresholds=tight).verdict == "fail"
        loose = Thresholds(speed=1.0)
        assert verify_trace(tr, thresholds=loose).verdict == "pass"

    def test_wrong_law_fails_with_finite_residual(self):
        cf = closed_form("catenary", {"a": 0.3})
        tr = cf.trace(np.linspace(-1.0, 1.0, 801))
        K = family_law("borderline", {"a": 0.75})
        rep = verify_trace(tr, K=K)
        assert rep.verdict == "fail"
        assert rep.residuals["curvature"] > 1e-2

    def test_report_to_dict(self):
        rep = verify_trace(_circle_trace())
        d = rep.to_dict()
        assert set(d) == {"residuals", "n_samples", "verdict", "notes"}
        assert d["n_samples"] == 401
        assert isinstance(d["notes"], list)
        assert all(isinstance(v, float) for v in d["residuals"].values())

    def test_notes_name_the_failed_check(self):
        s = np.concatenate([np.linspace(0.0, 1.0, 16),
                            np.linspace(1.3, 2.0, 16)])
        xi = np.column_stack([np.cos(s), np.sin(s), np.zeros_like(s)])
        tr = CurveTrace(s=s, z=xi[:, 2], phi=np.zeros_like(s), lam=s,
                        xi=xi, meta={})
        rep = verify_trace(tr)
        assert rep.verdict == "fail"
        assert rep.residuals["speed"] == math.inf
        assert any(note.startswith("speed") for note in rep.notes)


    def test_non_uniform_grid_notes_every_grid_check(self):
        K = family_law("borderline", {"a": 0.75})
        tr = reconstruct(K, ReconstructionConfig(s_span=4.0, n_samples=101, z0=0.5))
        tr.s[50:] += 0.3
        rep = verify_trace(tr, K=K)
        grid = ("speed", "curvature", "momentum", "el", "energy")
        assert all(rep.residuals[name] == math.inf for name in grid)
        assert rep.notes == [f"{name}: grid must be uniformly spaced" for name in grid]
        assert rep.verdict == "fail"

    def test_four_samples_never_raise(self):
        K = family_law("borderline", {"a": 0.75})
        tr = reconstruct(K, ReconstructionConfig(s_span=4.0, n_samples=101, z0=0.5))
        short = CurveTrace(s=tr.s[:4], z=tr.z[:4], phi=tr.phi[:4], lam=tr.lam[:4],
                           xi=tr.xi[:4], meta={})
        rep = verify_trace(short, K=K)
        assert rep.verdict == "fail"
        assert rep.residuals["sphere"] < 1e-12
        assert all(rep.residuals[name] == math.inf
                   for name in ("speed", "curvature", "momentum", "el", "energy"))
        assert rep.notes == ["curvature: curvature_from_trace needs at least 5 samples",
                             "el: el_residual needs at least 5 samples"]

    def test_residuals_are_the_public_derivatives(self):
        # one grid check and one xi' feed every residual, with the bits of
        # the public curvature_from_trace and momentum_from_trace
        K = family_law("borderline", {"a": 0.75})
        tr = reconstruct(K, ReconstructionConfig(s_span=4.0, n_samples=401, z0=0.5))
        rep = verify_trace(tr, K=K)
        win = slice(2, -2)
        assert rep.residuals["curvature"] == np.max(np.abs(
            curvature_from_trace(tr) - K.curvature_phi(tr.phi))[win])
        assert rep.residuals["momentum"] == np.max(np.abs(
            momentum_from_trace(tr) - K.momentum_phi(tr.phi))[win])

    def test_grid_checked_once(self, monkeypatch):
        calls = {"check_uniform": 0, "deriv1": 0}

        def counted(name):
            fn = getattr(verify, name)

            def wrapper(*args):
                calls[name] += 1
                return fn(*args)
            return wrapper

        for name in calls:
            monkeypatch.setattr(verify, name, counted(name))
        K = family_law("borderline", {"a": 0.75})
        tr = reconstruct(K, ReconstructionConfig(s_span=4.0, n_samples=401, z0=0.5))
        assert verify_trace(tr, K=K).verdict == "pass"
        # xi' once, and the law's curvature once for the energy
        assert calls == {"check_uniform": 1, "deriv1": 2}


class TestCompareTraces:
    def test_rotation_gauge_is_fitted_out(self):
        a = _circle_trace()
        b = _circle_trace(lam0=0.8)
        assert compare_traces(a, b) < 1e-12

    def test_grid_mismatch_rejected(self):
        a = _circle_trace(n=401)
        b = _circle_trace(n=402)
        with pytest.raises(ValueError, match="same arc-length grid"):
            compare_traces(a, b)

    def test_nearby_parameters_are_distinguished(self):
        s = np.linspace(-2.0, 2.0, 801)
        a = closed_form("seiffert", {"p": 0.30}).trace(s)
        b = closed_form("seiffert", {"p": 0.31}).trace(s)
        assert compare_traces(a, b) > 1e-3

    def test_matches_reconstruction_to_closed_form(self):
        K = family_law("catenary", {"a": 0.3})
        iv = [v for v in admissible_intervals(K) if v.z_lo > 0.0][0]
        cfg = ReconstructionConfig(s_span=3.0, n_samples=1201,
                                   z0=math.sqrt(0.5), lambda0=0.0)
        tr = reconstruct(K, cfg, interval=iv)
        cf = closed_form("catenary", {"a": 0.3})
        assert compare_traces(tr, cf.trace(tr.s)) < 1e-8
