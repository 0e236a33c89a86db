"""Reconstruction pipeline: height motion, longitude, gauges, truncation."""

import dataclasses
import functools
import importlib.util
import math
import sys
from pathlib import Path

import numpy as np
import pytest

from sphericurve._quad import _W7, _W15, _X7, _X15
from sphericurve.families import closed_form, family_law, family_names
from sphericurve.laws import (
    _arc_rate,
    admissible_intervals,
    antiderivative,
    catenary_law,
    constant_law,
    linear_elastica_law,
    loxo_one_law,
    loxo_super_law,
    momentum_from_trace,
    sn_family_law,
    viviani_law,
)
from sphericurve.reconstruct import (
    ReconstructionConfig,
    _Leg,
    _pick_interval,
    _t_of_z,
    _widest,
    arc_length_of_z,
    reconstruct,
    z_of_s,
)
from sphericurve.specfun import complete_K, incomplete_F, jacobi


def _cfg(span, n=801, **kw):
    return ReconstructionConfig(s_span=span, n_samples=n, **kw)


def _pos_interval(K):
    return [iv for iv in admissible_intervals(K) if iv.z_hi > 0][-1]


class _Midpoint:
    """An rng stand-in drawing the middle of every uniform range."""

    def uniform(self, lo, hi):
        return 0.5 * (lo + hi)


@functools.lru_cache(maxsize=None)
def _workloads():
    path = Path(__file__).resolve().parents[1] / "perfbench" / "workloads.py"
    spec = importlib.util.spec_from_file_location("perfbench_workloads", path)
    mod = importlib.util.module_from_spec(spec)
    sys.modules[spec.name] = mod  # its dataclasses look themselves up there
    spec.loader.exec_module(mod)
    return mod


def _sweep_gauge(name):
    """The benchmark's sweep case for a family at the middle of its
    parameter box: law, interval (None: the default) and config."""
    wl = _workloads()
    params, span, z0, dz = wl._sweep_case(_Midpoint(), name)
    K = family_law(name, params)
    iv = None if z0 is None else next(
        iv for iv in admissible_intervals(K) if iv.z_lo < z0 < iv.z_hi)
    return K, iv, _cfg(span, n=wl.SWEEP_N, z0=z0, dz_sign0=dz)


class TestHeightClosedForms:
    def test_constant_offset_sinusoid(self):
        c = 0.3
        K = antiderivative(constant_law(0.0), c)
        tr = reconstruct(K, _cfg(6.0, z0=0.0))
        ref = math.sqrt(1.0 - c * c) * np.sin(tr.s)
        assert np.max(np.abs(tr.z - ref)) < 1e-9

    def test_borderline_sech(self):
        K = antiderivative(linear_elastica_law(1.0, 0.0), -1.0)
        iv = _pos_interval(K)
        z0 = 1.0 / math.cosh(1.0)
        tr = reconstruct(K, _cfg(6.0, z0=z0, dz_sign0=-1), interval=iv)
        ref = 1.0 / np.cosh(tr.s + 1.0)
        assert np.max(np.abs(tr.z - ref)) < 1e-9

    def test_catenary_height(self):
        a = 0.3
        q = math.sqrt(1.0 - 4.0 * a * a)
        K = antiderivative(catenary_law(a))
        iv = _pos_interval(K)
        tr = reconstruct(K, _cfg(6.0, z0=math.sqrt(0.5)), interval=iv)
        ref = np.sqrt((1.0 + q * np.sin(2.0 * tr.s)) / 2.0)
        assert np.max(np.abs(tr.z - ref)) < 1e-9

    def test_seiffert_cn(self):
        p = 0.7
        K1 = complete_K(p)
        K = antiderivative(linear_elastica_law(p, 0.0), -p)
        tr = reconstruct(K, _cfg(4.0 * K1, z0=0.0, dz_sign0=-1))
        ref = np.array([jacobi(float(u) + K1, p).cn for u in tr.s])
        assert np.max(np.abs(tr.z - ref)) < 1e-9

    def test_sn_family_height(self):
        p = 0.7
        K = antiderivative(sn_family_law(p))
        tr = reconstruct(K, _cfg(4.0 * complete_K(p), n=1201, z0=0.0))
        ref = np.array([jacobi(float(u), p).sn for u in tr.s])
        assert np.max(np.abs(tr.z - ref)) < 1e-9


class TestGauge:
    def test_lambda0_shifts_longitude_only(self):
        K = antiderivative(constant_law(1.0), 0.2)
        a = reconstruct(K, _cfg(5.0, z0=0.1, lambda0=0.0))
        b = reconstruct(K, _cfg(5.0, z0=0.1, lambda0=0.7))
        assert np.max(np.abs((b.lam - a.lam) - 0.7)) < 1e-12
        assert np.max(np.abs(b.z - a.z)) < 1e-12
        rot = np.array([
            [math.cos(0.7), -math.sin(0.7), 0.0],
            [math.sin(0.7), math.cos(0.7), 0.0],
            [0.0, 0.0, 1.0],
        ])
        assert np.max(np.abs(b.xi - a.xi @ rot.T)) < 1e-12

    def test_dz_sign_mirrors_height(self):
        K = antiderivative(constant_law(0.0), 0.3)
        up = reconstruct(K, _cfg(4.0, z0=0.0, dz_sign0=1))
        dn = reconstruct(K, _cfg(4.0, z0=0.0, dz_sign0=-1))
        assert up.z.shape == dn.z.shape
        assert np.max(np.abs(dn.z + up.z)) < 1e-12

    def test_arc_shift_covariance(self):
        # moving the anchor along the curve reparameterizes, same geometry
        K = antiderivative(constant_law(0.0), 0.3)
        nu = math.sqrt(1.0 - 0.09)
        s_off = 0.4
        a = reconstruct(K, _cfg(3.0, n=301, z0=0.0))
        b = reconstruct(K, _cfg(3.0, n=301, z0=nu * math.sin(s_off)))
        ref = nu * np.sin(b.s + s_off)
        assert np.max(np.abs(b.z - ref)) < 1e-10
        assert np.max(np.abs(a.z - nu * np.sin(a.s))) < 1e-10


class TestInvariants:
    def test_momentum_conserved_along_trace(self):
        for K in (antiderivative(constant_law(1.5), 0.3),
                  antiderivative(sn_family_law(0.5)),
                  antiderivative(viviani_law())):
            tr = reconstruct(K, _cfg(5.0, n=2001, z0=0.2))
            got = momentum_from_trace(tr)
            ref = K.momentum_phi(tr.phi)  # sheet-aware on pole crossings
            ok = np.isfinite(got)
            ok[:2] = ok[-2:] = False
            # stencil cannot follow the divergent swing right at a spiral
            # contact; the check is about generic samples
            for ev in tr.meta["events"]:
                if ev["spiral"]:
                    ok &= np.abs(tr.s - ev["s"]) > 0.1
            assert np.max(np.abs(got[ok] - ref[ok])) < 1e-6, K.law.kind

    def test_unit_sphere_and_speed(self):
        K = antiderivative(catenary_law(0.3))
        tr = reconstruct(K, _cfg(4.0, n=3201, z0=math.sqrt(0.5)),
                         interval=_pos_interval(K))
        assert np.max(np.abs(np.linalg.norm(tr.xi, axis=1) - 1.0)) < 1e-12
        h = tr.s[1] - tr.s[0]
        d1 = np.gradient(tr.xi, h, axis=0, edge_order=2)
        speed = np.linalg.norm(d1, axis=1)
        assert np.max(np.abs(speed[2:-2] - 1.0)) < 1e-5

    def test_period_metadata(self):
        K = antiderivative(constant_law(0.0), 0.3)
        tr = reconstruct(K, _cfg(3.0, z0=0.0))
        assert tr.meta["period_s"] == pytest.approx(2.0 * math.pi, abs=1e-8)
        Kc = antiderivative(catenary_law(0.3))
        tr = reconstruct(Kc, _cfg(3.0, z0=math.sqrt(0.5)),
                         interval=_pos_interval(Kc))
        assert tr.meta["period_s"] == pytest.approx(math.pi, abs=1e-8)
        Ksn = antiderivative(sn_family_law(0.6))
        tr = reconstruct(Ksn, _cfg(3.0, z0=0.0))
        assert tr.meta["period_s"] == pytest.approx(4.0 * complete_K(0.6), abs=1e-8)


class TestArcLength:
    def test_meridian_arcsin(self):
        K = antiderivative(constant_law(0.0))
        for zt in (0.2, 0.8, -0.6):
            got = arc_length_of_z(K, 0.0, zt)
            assert got == pytest.approx(math.asin(zt), abs=1e-10)

    def test_linear_height_family(self):
        K = antiderivative(loxo_one_law(0.5))
        got = arc_length_of_z(K, 0.0, 0.6)
        assert got == pytest.approx(0.6 / math.sqrt(0.5), abs=1e-10)

    def test_sn_family_incomplete_F(self):
        p = 0.7
        K = antiderivative(sn_family_law(p))
        for zt in (0.3, 0.9):
            got = arc_length_of_z(K, 0.0, zt)
            assert got == pytest.approx(incomplete_F(math.asin(zt), p), abs=1e-10)

    @pytest.mark.parametrize("a", [0.3, 0.45])
    def test_catenary_turning_point_to_turning_point(self, a):
        # z^2 = (1 + q sin 2s) / 2 climbs from z_lo to z_hi in s = pi/2; the
        # height map is exact at both ends, so no sliver of arc is lost there
        # and the quadrature is the period's own, over t in [-pi/2, pi/2]
        K = antiderivative(catenary_law(a))
        for iv in admissible_intervals(K):
            got = arc_length_of_z(K, iv.z_lo, iv.z_hi, interval=iv)
            assert got == 0.5 * iv.period_s
            assert got == pytest.approx(math.pi / 2.0, rel=0.0, abs=1e-12)

    def test_asymptote_is_infinite(self):
        K = antiderivative(loxo_super_law(2.0))
        iv = _pos_interval(K)
        assert arc_length_of_z(K, 0.25, 0.0, interval=iv) == -math.inf
        assert arc_length_of_z(K, 0.1, iv.z_hi, interval=iv) < math.inf

    def test_heights_must_share_interval(self):
        K = antiderivative(catenary_law(0.3))
        with pytest.raises(ValueError):
            arc_length_of_z(K, -0.6, 0.6)


class TestWrappers:
    def test_z_of_s_meridian(self):
        K = antiderivative(constant_law(0.0))
        s = np.linspace(-2.0, 2.0, 41)
        assert np.max(np.abs(z_of_s(K, s, z0=0.0) - np.sin(s))) < 1e-10


class TestTruncation:
    def test_domain_edge_cuts_trace(self):
        K = antiderivative(loxo_one_law(0.5))
        tr = reconstruct(K, _cfg(2.4, z0=0.0))
        lo, hi = tr.meta["s_attainable"]
        assert lo == pytest.approx(-1.0, abs=1e-9)
        assert hi == pytest.approx(1.0, abs=1e-9)
        assert tr.meta["truncated"] == {"lo": True, "hi": True}
        assert tr.s.min() >= -1.0 - 1e-8 and tr.s.max() <= 1.0 + 1e-8
        assert len(tr) < 801

    def test_asymptote_side_never_truncates(self):
        K = antiderivative(loxo_super_law(2.0))
        z0 = 0.5 / math.sqrt(2.0)
        tr = reconstruct(K, _cfg(4.0, z0=z0), interval=_pos_interval(K))
        lo, hi = tr.meta["s_attainable"]
        assert lo == -math.inf
        assert hi == pytest.approx(math.log(2.0), abs=1e-9)
        assert tr.meta["truncated"] == {"lo": False, "hi": True}

    def test_lambda_cap_stops_spiral(self):
        K = antiderivative(sn_family_law(0.7))
        span = 4.0 * complete_K(0.7)
        full = reconstruct(K, _cfg(span, n=1201, z0=0.0))
        capped = reconstruct(K, _cfg(span, n=1201, z0=0.0, lambda_cap=2.0))
        assert len(capped) < len(full)
        assert np.max(np.abs(capped.lam)) <= 2.0 + 1e-9


class TestSpiralContacts:
    def test_contact_samples_flagged(self):
        p = 0.7
        K1 = complete_K(p)
        K = antiderivative(sn_family_law(p))
        tr = reconstruct(K, _cfg(8.0 * K1, n=1601, z0=0.0))
        assert tr.meta["spiral_samples"] == [200, 600, 1000, 1400]
        ev = tr.meta["events"]
        assert [e["spiral"] for e in ev] == [True] * 4
        assert [e["kind"] for e in ev] == ["pole-passage"] * 4

    def test_longitude_even_across_contact(self):
        # lam(s* + x) = lam(s* - x): the divergence cancels symmetrically
        p = 0.6
        K1 = complete_K(p)
        K = antiderivative(sn_family_law(p))
        n = 1601
        tr = reconstruct(K, _cfg(4.0 * K1, n=n, z0=0.0))
        mid = (n - 1) // 2
        quarter = (n - 1) // 4
        i_star = mid + quarter  # sample on the contact at s = +K
        for d in (1, 2, 5, 40):
            a = tr.lam[i_star - d]
            b = tr.lam[i_star + d]
            assert abs(a - b) < 1e-7, d

    def test_smooth_pole_passage_not_flagged(self):
        K = antiderivative(viviani_law())
        tr = reconstruct(K, _cfg(9.0, n=901, z0=0.0))
        assert tr.meta["spiral_samples"] == []
        assert all(not e["spiral"] for e in tr.meta["events"])
        assert np.all(np.isfinite(tr.lam))


class TestErrors:
    def test_z0_outside_interval(self):
        K = antiderivative(constant_law(0.0), 0.3)
        with pytest.raises(ValueError):
            reconstruct(K, _cfg(2.0, z0=0.99))

    def test_no_admissible_motion(self):
        K = antiderivative(constant_law(0.0), 1.5)
        with pytest.raises(ValueError):
            reconstruct(K, _cfg(2.0))

    def test_config_validation(self):
        with pytest.raises(ValueError):
            ReconstructionConfig(s_span=-1.0, n_samples=100)
        with pytest.raises(ValueError):
            ReconstructionConfig(s_span=1.0, n_samples=8)
        with pytest.raises(ValueError):
            ReconstructionConfig(s_span=1.0, n_samples=100, dz_sign0=0)
        with pytest.raises(ValueError):
            ReconstructionConfig(s_span=1.0, n_samples=100, lambda_cap=-2.0)

    def test_coarse_grid_over_spiral_contacts_rejected(self):
        # step must exceed the contact spacing 2K so two contacts share one step
        p = 0.7
        K = antiderivative(sn_family_law(p))
        with pytest.raises(ValueError):
            reconstruct(K, _cfg(40.0 * complete_K(p), n=16, z0=0.0))


class TestLegTable:
    def test_inversion_needs_few_newton_steps(self):
        # a Newton step landing on a panel end is accepted, not bisected
        rng = np.random.default_rng(3)
        for name, p in (("seiffert", 0.7), ("sn-family", 0.999)):
            K = family_law(name, {"p": p})
            iv = admissible_intervals(K, with_period=False)[0]
            leg = _Leg(K, iv, 1e-10, 0.0, need_arc=4.0)
            tau = rng.uniform(0.0, leg.total, 26000)
            t = leg.t_of_s(tau)
            assert leg.newton_iters_max <= 8, name
            assert np.max(np.abs(leg.s_of_t(t) - tau)) <= 1e-13, name

    def test_longitude_carries_no_inversion_error(self):
        # Seiffert's longitude rate is the constant p, so lambda - lambda0
        # is p s exactly: reading the longitude at the t inverted from the
        # Hermite arc table must not add that table's interpolation error
        p = 0.7
        K = family_law("seiffert", {"p": p})
        tr = reconstruct(K, _cfg(4.0 * complete_K(p), n=1601, z0=0.0,
                                 dz_sign0=-1))
        assert np.max(np.abs(tr.lam - p * tr.s)) < 1e-13

    def test_work_counters_do_not_grow_with_samples(self):
        # O(table) + O(n): the table and its rate evaluations depend on
        # the window, not on how densely it is sampled
        K = family_law("seiffert", {"p": 0.7})
        a, b = (reconstruct(K, _cfg(200.0, n=n, z0=0.0, dz_sign0=-1)).meta["stats"]
                for n in (1201, 40001))
        assert a["leg_panels"] == b["leg_panels"] > 0
        assert a["rate_points"] == b["rate_points"] > 0
        assert max(a["newton_iters_max"], b["newton_iters_max"]) <= 8

    @pytest.mark.parametrize("name", family_names())
    def test_panels_at_the_sweep_gauge(self, name):
        # the arc is read through each panel's own Gauss polynomial, so
        # short windows stay near the initial 64 panels; a table split by
        # a lower-order reading of s(t) would need hundreds to thousands
        K, iv, cfg = _sweep_gauge(name)
        assert reconstruct(K, cfg, interval=iv).meta["stats"]["leg_panels"] <= 128

    @pytest.mark.parametrize("name", ["seiffert", "sn-family", "borderline",
                                      "loxo-super", "clelia", "catenary"])
    def test_arc_err_max_is_the_worst_accepted_panel(self, name):
        # recomputed panel by panel from the arc nodes: each accepted
        # |GL15 - GL7| is within the table tolerance or the panel's own
        # roundoff floor, and the largest is the reported one
        K, iv, cfg = _sweep_gauge(name)
        tr = reconstruct(K, cfg, interval=iv)
        iv = iv if iv is not None else _pick_interval(K, None)
        t0 = _t_of_z(iv, tr.meta["gauge"]["z0"])
        leg = _Leg(K, iv, cfg.quad_tol, t0, need_arc=0.5 * cfg.s_span + 1.0)
        spiral = any(leg.spiral)
        a, b = leg.t[:-1, None], leg.t[1:, None]
        mid, half = 0.5 * (a + b), 0.5 * (b - a)
        g15, frac, _, _ = _arc_rate(K, iv, mid + half * _X15, spiral)
        g7 = _arc_rate(K, iv, mid + half * _X7, spiral)[0]
        err = np.abs(half[:, 0] * (g15 @ _W15 - g7 @ _W7))
        floor = 4.0 * half[:, 0] * ((g15 * frac) @ _W15)
        tol = max(cfg.quad_tol / 64.0, 1e-14)
        assert np.all(err <= np.maximum(tol, floor))
        got = tr.meta["stats"]["arc_err_max"]
        assert got == leg.arc_err.max() == pytest.approx(err.max(), rel=1e-6)
        assert got > 0.0

    def test_arc_err_max_does_not_grow_with_samples(self):
        K = family_law("seiffert", {"p": 0.7})
        a, b = (reconstruct(K, _cfg(200.0, n=n, z0=0.0, dz_sign0=-1)).meta["stats"]
                for n in (1201, 40001))
        assert a["arc_err_max"] == b["arc_err_max"] > 0.0
        assert a["arc_err_max"] <= 1e-10 / 64.0


class TestWholeLegs:
    """Windows spanning many legs, against the acceptance bounds."""

    def test_viviani_many_pole_passages(self):
        K = family_law("viviani")
        iv = admissible_intervals(K)[0]
        tr = reconstruct(K, _cfg(200.0, n=40001, z0=0.0), interval=iv)
        assert len(tr.meta["events"]) == 52
        sheets = np.floor(tr.phi / np.pi + 0.5).astype(int)
        assert set(sheets % 2) == {0, 1}
        assert np.max(np.abs(tr.phi - tr.lam)) < 1e-6  # criterion 9

    def test_catenary_many_reflections(self):
        a = 0.3
        q = math.sqrt(1.0 - 4.0 * a * a)
        K = family_law("catenary", {"a": a})
        z0 = math.sqrt(0.5)
        tr = reconstruct(K, _cfg(200.0, n=40001, z0=z0), interval=_pos_interval(K))
        assert len(tr.meta["events"]) == 128
        want = 0.5 * (1.0 + q * np.sin(2.0 * tr.s))
        assert np.max(np.abs(tr.z ** 2 - want)) < 1e-6  # criterion 7

    def test_sn_family_many_spiral_contacts(self):
        p = 0.6
        K = family_law("sn-family", {"p": p})
        tr = reconstruct(K, _cfg(12.0 * complete_K(p), n=2401, z0=0.0))
        assert sum(e["spiral"] for e in tr.meta["events"]) == 6
        _, lam_cf, xi_cf = closed_form("sn-family", {"p": p})(tr.s)
        ok = np.ones(tr.s.size, dtype=bool)
        ok[tr.meta["spiral_samples"]] = False
        # criterion 8
        assert np.max(np.abs(tr.z[ok] - xi_cf[ok, 2])) < 1e-6
        assert np.max(np.abs(tr.lam[ok] - lam_cf[ok])) < 1e-5

    def test_seiffert_long_window(self):
        p = 0.7
        K0 = complete_K(p)
        K = family_law("seiffert", {"p": p})
        tr = reconstruct(K, _cfg(500.0, n=100001, z0=0.0, lambda0=p * K0,
                                 dz_sign0=-1))
        _, lam_cf, xi_cf = closed_form("seiffert", {"p": p})(tr.s + K0)
        # criterion 3
        assert np.max(np.abs(tr.z - xi_cf[:, 2])) < 1e-6
        assert np.max(np.abs(tr.lam - lam_cf)) < 1e-6


class TestDefaultInterval:
    def test_double_root_tie_is_not_decided_by_rounding(self):
        # the halves a double root at z = 0 splits off have equal widths
        # up to rounding; the pick must not move with the root
        for K in (family_law("borderline", {"a": 1.0}),
                  antiderivative(linear_elastica_law(1.0, 0.0), -1.0)):
            lo, hi = admissible_intervals(K)
            assert lo.z_hi == pytest.approx(0.0, abs=1e-12)
            for d in (-4e-15, 0.0, 4e-15):
                got = _widest([dataclasses.replace(lo, z_hi=lo.z_hi + d),
                               dataclasses.replace(hi, z_lo=hi.z_lo + d)])
                assert got.z_hi == hi.z_hi

    def test_exact_tie_takes_the_highest(self):
        K = family_law("catenary", {"a": 0.3})
        assert _pick_interval(K, None) == admissible_intervals(K)[-1]
