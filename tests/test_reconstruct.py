"""Reconstruction pipeline: height motion, longitude, gauges, truncation."""

import dataclasses
import functools
import importlib.util
import math
import sys
from pathlib import Path

import mpmath
import numpy as np
import pytest

from sphericurve._quad import _INT15, _W15, _X15
from sphericurve.families import closed_form, family_law, family_names
from sphericurve.laws import (
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
from sphericurve.oracle import frenet_integrate, initial_state
from sphericurve.reconstruct import (
    ReconstructionConfig,
    _Leg,
    _Motion,
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


# near-degenerate laws on the sweep window: the borderline of sweep seed
# 210, turning 5.8e-9 below the pole, and the hard case a = 0.5001
_NEAR_DEGENERATE = {"borderline a=0.999892": ("borderline", {"a": 0.999892}, 0.5),
                    "borderline a=0.5001": ("borderline", {"a": 0.5001}, None)}
# legs built over a law's first interval at t0 = 0: the sn-family cliff at
# the benchmark's quad_tol, and clelia n = 0.05, whose end panels halve
_ROUND_TRIP = {"seiffert p=0.7": ("seiffert", {"p": 0.7}, 1e-10),
               "sn-family p=0.999": ("sn-family", {"p": 0.999}, 1e-10),
               "sn-family p=0.999 quad_tol=1e-8": ("sn-family", {"p": 0.999}, 1e-8),
               "clelia n=0.05": ("clelia", {"n": 0.05}, 1e-10)}


def _sweep_gauge(name):
    """The benchmark's sweep case for a family at the middle of its
    parameter box, or for a _NEAR_DEGENERATE law: law, interval (None:
    the default) and config."""
    wl = _workloads()
    if name in _NEAR_DEGENERATE:
        name, params, z0 = _NEAR_DEGENERATE[name]
        span, dz = 4.0, 1
    else:
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

    @pytest.mark.parametrize("a", [0.1, 0.3, 0.45, 0.499])
    def test_catenary_turning_point_to_turning_point(self, a):
        # z^2 = (1 + q sin 2s) / 2 climbs from z_lo to z_hi in s = pi/2; the
        # height map is exact at both ends, so no sliver of arc is lost there
        # and the quadrature is the period's own, over t in [-pi/2, pi/2];
        # with both roots divided out of P the integrand is smooth there
        K = antiderivative(catenary_law(a))
        for iv in admissible_intervals(K):
            got = arc_length_of_z(K, iv.z_lo, iv.z_hi, interval=iv)
            assert got == 0.5 * iv.period_s
            assert got == pytest.approx(math.pi / 2.0, rel=0.0, abs=1e-15)

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
            assert abs(a - b) < 3e-14, d

    @pytest.mark.parametrize("p", [0.4, 0.6, 0.8])
    def test_longitude_next_to_a_contact(self, p):
        # within 1e-4 of arc of a contact (samples 4.1e-5 to 1e-4 from it)
        # the longitude is the closed form's, as it is farther out
        K1 = complete_K(p)
        tr = reconstruct(family_law("sn-family", {"p": p}),
                         _cfg(4.0 * K1, n=160001, z0=0.0))
        _, lam_cf, _ = closed_form("sn-family", {"p": p})(tr.s)
        near = np.min(np.abs(np.abs(tr.s[:, None]) - K1), axis=1) < 1e-4
        near[tr.meta["spiral_samples"]] = False
        assert near.sum() == 8
        assert np.max(np.abs(tr.lam[near] - lam_cf[near])) <= 1e-11

    @pytest.mark.parametrize("name,key,v", [("sn-family", "p", 0.4), ("sn-family", "p", 0.8),
                                            ("sn-family", "p", 0.999), ("loxodrome", "a", 0.5),
                                            ("loxodrome", "a", 0.999)])
    def test_residues_in_closed_form(self, name, key, v):
        # rate ds/dt ~ A / (t - t_e) at each pole, per sheet parity (row),
        # |A| = v / sqrt(1 - v^2); the sign follows cos(phi) and, for the
        # sn-family, whether the pole is north or south
        K = family_law(name, {key: v})
        leg = _Leg(K, admissible_intervals(K)[0], 1e-10, 0.0, need_arc=1.0)
        sign = np.array([[1.0, 1.0], [-1.0, -1.0]] if name == "sn-family"
                        else [[1.0, -1.0], [-1.0, 1.0]])
        assert leg.spiral == (True, True)
        np.testing.assert_allclose(leg.A, sign * v / math.sqrt(1.0 - v * v), rtol=1e-13)

    @pytest.mark.parametrize("name,key,v,bound", [
        ("sn-family", "p", 0.4, 64), ("sn-family", "p", 0.6, 64),
        ("sn-family", "p", 0.8, 64), ("sn-family", "p", 0.9, 64),
        ("sn-family", "p", 0.99, 64), ("sn-family", "p", 0.999, 68),
        ("loxodrome", "a", 0.5, 64), ("loxodrome", "a", 0.9, 64),
        ("loxodrome", "a", 0.999, 64)])
    def test_spiral_legs_need_few_panels(self, name, key, v, bound):
        # the remainder left by the subtracted residue is smooth, so a
        # spiral leg refines little beyond the initial 64 panels (p = 0.999
        # splits next to the poles, where the remainder is a difference of
        # values near 2e7 and carries their rounding)
        K = family_law(name, {key: v})
        span = (4.0 * complete_K(v) if name == "sn-family"
                else 0.9 * math.pi / math.sqrt(1.0 - v * v))
        tr = reconstruct(K, _cfg(span, n=1601, z0=0.0))
        assert tr.meta["stats"]["leg_panels"] <= bound

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
    @pytest.mark.parametrize("name", family_names() + list(_NEAR_DEGENERATE)
                             + list(_ROUND_TRIP))
    def test_inverse_round_trip(self, name):
        # t(s) is interpolated through the arc polynomial's own values, so
        # reading the arc back at it loses no more than the halving's
        # tolerance, at random arcs and next to both ends
        if name in _ROUND_TRIP:
            family, params, tol = _ROUND_TRIP[name]
            K = family_law(family, params)
            leg = _Leg(K, admissible_intervals(K, with_period=False)[0], tol, 0.0,
                       need_arc=4.0)
        else:
            K, iv, cfg = _sweep_gauge(name)
            leg = _Motion(K, _pick_interval(K, iv), 0.5 * cfg.s_span, cfg.quad_tol,
                          cfg.z0, cfg.dz_sign0).leg
        tau = np.concatenate([
            np.random.default_rng(3).uniform(0.0, leg.total, 50000),
            leg.total * np.array([0.0, 1e-14, 1e-10, 1e-6, 1.0 - 1e-6, 1.0 - 1e-10, 1.0])])
        err = np.max(np.abs(leg.s_of_t(leg.t_of_s(tau)) - tau))
        assert err <= max(4e-15 * (1.0 + leg.total), leg.arc_err.max())

    def test_inverse_stops_at_the_halving_cap(self):
        # an arc s = 1 + y^3 over one panel: t(s) is a cube root at the
        # middle, so the panels next to it halve 8 times and stop there;
        # no solve sees repeated nodes (it would be singular) and the
        # panels stay ordered
        leg = object.__new__(_Leg)
        leg.t, leg.s, leg.total = np.array([0.0, 2.0]), np.array([0.0, 2.0]), 2.0
        leg.arc_coef = np.zeros((1, 16))
        leg.arc_coef[0, [0, 1, 3]] = 1.0, 0.6, 0.4
        leg.arc_err, leg.trunc = np.zeros(1), (False, False)
        leg._invert()
        width = np.diff(leg.iz)
        assert width.min() == pytest.approx(2.0 ** -21) and np.all(width > 0.0)
        tau = np.linspace(0.0, 2.0, 20001)
        assert np.all(np.diff(leg.t_of_s(tau)) >= 0.0)

    def test_gauss_rule_exact_to_the_ulp(self):
        # GL15 integrates the monomials up to degree 29 to the ulp, so a
        # table's arc carries no bias (numpy's 15-point weights sum to
        # 2 - 2.2e-16, which put a sn-family contact an ulp off)
        for k in range(30):
            assert abs(math.fsum(_W15 * _X15 ** k) - (k % 2 == 0) * 2.0 / (k + 1)) <= 1e-16, k

    @pytest.mark.parametrize("p", [0.4, 0.6, 0.8])
    def test_leg_arc_to_the_ulp(self, p):
        # pole to pole is 2 K(p); summed in doubles, the 64 panel sums drift
        # by up to 4 ulps, which moves a spiral contact as far
        K = family_law("sn-family", {"p": p})
        leg = _Leg(K, admissible_intervals(K)[0], 1e-10, 0.0, need_arc=1.0)
        want = 2.0 * float(mpmath.ellipk(mpmath.mpf(p) ** 2))
        assert abs(leg.total - want) <= math.ulp(want)

    def test_fold_is_exact_next_to_the_lo_end(self):
        # just before a lo end the folded arc is the distance to it, with
        # no rounding at 2L's ulp
        K = family_law("sn-family", {"p": 0.6})
        motion = _Motion(K, admissible_intervals(K)[0], 4.0, 1e-10, z0=0.0)
        u = -np.logspace(-12, -1, 12)
        assert np.array_equal(motion._fold(u), -u)

    def test_longitude_carries_no_inversion_error(self):
        # Seiffert's longitude rate is the constant p, so lambda - lambda0
        # is p s exactly: reading the longitude at the t inverted from the
        # arc table must not add the inverse's interpolation error
        p = 0.7
        K = family_law("seiffert", {"p": p})
        tr = reconstruct(K, _cfg(4.0 * complete_K(p), n=1601, z0=0.0,
                                 dz_sign0=-1))
        assert np.max(np.abs(tr.lam - p * tr.s)) < 1e-13

    def test_work_counters_do_not_grow_with_samples(self):
        # O(table) + O(n): the table, its inverse and its rate evaluations
        # depend on the window, not on how densely it is sampled
        K = family_law("seiffert", {"p": 0.7})
        a, b = (reconstruct(K, _cfg(200.0, n=n, z0=0.0, dz_sign0=-1)).meta["stats"]
                for n in (1201, 40001))
        assert a["leg_panels"] == b["leg_panels"] > 0
        assert a["rate_points"] == b["rate_points"] > 0
        assert a["inv_panels"] == b["inv_panels"] > 0

    @pytest.mark.parametrize("name", family_names())
    def test_arc_read_between_nodes(self, name):
        # each panel is accepted on its own Gauss polynomial's tail; read at
        # the panel's middle, that polynomial matches a GL15 sum over the
        # left half
        K, iv, cfg = _sweep_gauge(name)
        leg = _Motion(K, _pick_interval(K, iv), 0.5 * cfg.s_span, cfg.quad_tol,
                      cfg.z0, cfg.dz_sign0).leg
        a, b = leg.t[:-1], leg.t[1:]
        mid, q = 0.5 * (a + b), 0.25 * (b - a)
        left = q * (leg.prof.arc_rate(0.5 * (a + mid)[:, None] + q[:, None] * _X15)[0] @ _W15)
        err = np.abs(leg.s_of_t(mid) - leg.s[:-1] - left)
        assert err.max() <= max(cfg.quad_tol / 64.0, 1e-14)

    @pytest.mark.parametrize("name,points", [("seiffert", 960), ("sn-family", 1924)])
    def test_rate_points_at_the_sweep_gauge(self, name, points):
        # 64 panels at 15 points each, the sn-family's two parities, plus
        # its two spiral residues: one integrand call per Gauss point
        K, iv, cfg = _sweep_gauge(name)
        assert reconstruct(K, cfg, interval=iv).meta["stats"]["rate_points"] == points

    @pytest.mark.parametrize("name", family_names() + list(_NEAR_DEGENERATE))
    def test_panels_at_the_sweep_gauge(self, name):
        # the arc is read through each panel's own Gauss polynomial, so
        # short windows stay near the initial 64 panels; a table split by
        # a lower-order reading of s(t) would need hundreds to thousands
        K, iv, cfg = _sweep_gauge(name)
        assert reconstruct(K, cfg, interval=iv).meta["stats"]["leg_panels"] <= 128

    @pytest.mark.parametrize("name", ["seiffert", "sn-family", "borderline",
                                      "loxo-super", "clelia", "catenary"])
    def test_arc_err_max_is_the_worst_accepted_panel(self, name):
        # recomputed panel by panel from the arc nodes: each accepted tail
        # (the two top Legendre coefficients of the arc's cumulative
        # polynomial, times the half width) is within the table tolerance,
        # and the largest is the reported one
        K, iv, cfg = _sweep_gauge(name)
        tr = reconstruct(K, cfg, interval=iv)
        iv = iv if iv is not None else _pick_interval(K, None)
        t0 = _t_of_z(iv, tr.meta["gauge"]["z0"])
        leg = _Leg(K, iv, cfg.quad_tol, t0, need_arc=0.5 * cfg.s_span + 1.0)
        a, b = leg.t[:-1, None], leg.t[1:, None]
        mid, half = 0.5 * (a + b), 0.5 * (b - a)
        g15 = leg.prof.arc_rate(mid + half * _X15)[0]
        err = half[:, 0] * np.abs((g15 @ _INT15.T)[:, 14:]).max(axis=1)
        assert np.all(err <= max(cfg.quad_tol / 64.0, 1e-14))
        got = tr.meta["stats"]["arc_err_max"]
        assert got == leg.arc_err.max() == pytest.approx(err.max(), rel=1e-6, abs=0.0)
        assert got > 0.0

    @pytest.mark.parametrize("name", family_names())
    def test_arc_err_max_within_the_table_tolerance(self, name):
        # no panel is accepted on a roundoff floor, double-root ends included
        K, iv, cfg = _sweep_gauge(name)
        stats = reconstruct(K, cfg, interval=iv).meta["stats"]
        assert stats["arc_err_max"] <= cfg.quad_tol / 64.0

    def test_arc_err_max_does_not_grow_with_samples(self):
        K = family_law("seiffert", {"p": 0.7})
        a, b = (reconstruct(K, _cfg(200.0, n=n, z0=0.0, dz_sign0=-1)).meta["stats"]
                for n in (1201, 40001))
        assert a["arc_err_max"] == b["arc_err_max"] > 0.0
        assert a["arc_err_max"] <= 1e-10 / 64.0


def _lam_to_hi(K, iv, z0):
    """The longitude the leg table gains from z0 up to the turning point z_hi."""
    t0 = _t_of_z(iv, z0)
    leg = _Leg(K, iv, 1e-10, t0, need_arc=1.0)
    p = np.zeros(1, dtype=int)
    return (leg.lam_of(np.array([leg.total]), np.array([math.pi / 2.0]), p)[0]
            - leg.lam_of(leg.s_of_t(np.array([t0])), np.array([t0]), p)[0])


def _mp_lam_to_hi(K, z_hi, root, z0):
    """The same longitude at 40 digits: the rate -K / (1 - z^2) over
    dz / sqrt(P), with z = z_hi - u^2 and sqrt(P) = u root(z), smooth in u."""
    with mpmath.workdps(40):
        def f(u):
            z = z_hi - u * u
            return -2 * K(z) / ((1 - z * z) * root(z))
        return mpmath.quad(f, [0, mpmath.sqrt(z_hi - mpmath.mpf(z0))])


class TestNearPoleTurningPoints:
    """Turning points a hair below the north pole: P is divided by its
    root there, and 1 - z_hi is carried to relative accuracy."""

    def test_sweep_seed_210(self):
        # sweep seed 210's borderline, turning 5.8e-9 below the pole; the
        # reference is _mp_lam_to_hi for this law
        K, iv, cfg = _sweep_gauge("borderline a=0.999892")
        assert _lam_to_hi(K, iv, 0.5) == pytest.approx(2.887771750353478693, abs=1e-12)
        tr = reconstruct(K, cfg, interval=iv)
        orc = frenet_integrate(K.law, initial_state(K, z0=0.5, interval=iv),
                               cfg.s_span, 5e-4, n_samples=cfg.n_samples)
        assert np.max(np.linalg.norm(orc.xi - tr.xi, axis=1)) <= 1e-9

    @pytest.mark.parametrize("delta", [1e-4, 1e-6, 1e-9, 1e-12])
    def test_borderline_toward_the_pole(self, delta):
        # 1 - z_hi is about delta; P = a^2 z^2 (z_hi - z)(z_hi + z)
        a = 1.0 - math.sqrt(2.0 * delta)
        K = family_law("borderline", {"a": a})
        iv = next(iv for iv in admissible_intervals(K) if iv.z_lo < 0.5 < iv.z_hi)
        A = mpmath.mpf(a)
        with mpmath.workdps(40):
            z_hi = mpmath.sqrt(2 * A - 1) / A
        want = _mp_lam_to_hi(lambda z: A * z * z - 1, z_hi,
                             lambda z: A * z * mpmath.sqrt(z_hi + z), 0.5)
        assert abs(_lam_to_hi(K, iv, 0.5) - want) <= 1e-10

    @pytest.mark.parametrize("eps", [1e-2, 1e-4, 1e-6])
    def test_constant_law_toward_the_pole(self, eps):
        # K = z + c with K(1) = eps: P = 2 (z - z_lo)(z_hi - z), and
        # 1 - z_hi is about eps^2 / 2
        c = eps - 1.0
        K = antiderivative(constant_law(1.0), c)
        (iv,) = admissible_intervals(K)
        z0 = 0.5 * (iv.z_lo + iv.z_hi)
        C = mpmath.mpf(c)
        with mpmath.workdps(40):
            z_lo, z_hi = ((-C + sgn * mpmath.sqrt(2 - C * C)) / 2 for sgn in (-1, 1))
        want = _mp_lam_to_hi(lambda z: z + C, z_hi, lambda z: mpmath.sqrt(2 * (z - z_lo)), z0)
        assert abs(_lam_to_hi(K, iv, z0) - want) <= 1e-10


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

    def test_longitude_does_not_drift_on_a_long_window(self):
        # Seiffert lambda - lambda0 = p s exactly; 80 000 z-periods into the
        # window the longitude is still within a few ulps of it
        p = 0.7
        tr = reconstruct(family_law("seiffert", {"p": p}),
                         _cfg(6e5, n=2001, z0=0.0, dz_sign0=-1))
        assert np.max(np.abs(tr.lam - p * tr.s)) <= 4.0 * np.spacing(np.max(np.abs(tr.lam)))


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
