"""Momentum law algebra: derivatives, admissibility, interval classification."""

import dataclasses
import math
import warnings

import mpmath
import numpy as np
import pytest

from sphericurve.laws import (
    OPEN_BOUNDARY,
    POLE_PASSAGE,
    TURNING_POINT,
    AdmissibleInterval,
    admissible_intervals,
    antiderivative,
    catenary_law,
    clelia_law,
    constant_law,
    custom_law,
    linear_elastica_law,
    loxo_one_law,
    loxo_super_law,
    loxodrome_law,
    momentum_from_trace,
    sn_family_law,
    viviani_law,
)
from sphericurve.families import closed_form, family_law, family_names
from sphericurve.oracle import frenet_integrate, initial_state
from sphericurve.reconstruct import ReconstructionConfig, arc_length_of_z, reconstruct


def _all_laws():
    return [
        antiderivative(constant_law(1.2), 0.4),
        antiderivative(linear_elastica_law(0.8, 0.3), 0.1),
        antiderivative(loxodrome_law(0.6)),
        antiderivative(loxo_one_law(0.5)),
        antiderivative(loxo_super_law(2.0)),
        antiderivative(catenary_law(0.3)),
        antiderivative(sn_family_law(0.7)),
        antiderivative(viviani_law()),
        antiderivative(clelia_law(2.5)),
    ]


def _interior_points(K, n=25, seed=0):
    rng = np.random.default_rng(seed)
    pts = []
    for iv in admissible_intervals(K, with_period=False):
        lo = max(iv.z_lo, -0.999)
        hi = min(iv.z_hi, 0.999)
        if hi - lo < 1e-3:
            continue
        pad = 0.05 * (hi - lo)
        pts.append(rng.uniform(lo + pad, hi - pad, n))
    return np.concatenate(pts) if pts else np.array([])


class TestDerivativeConsistency:
    def test_deriv_matches_value_differences(self):
        h = 1e-5
        for K in _all_laws():
            z = _interior_points(K)
            fd = (K.value(z + h) - K.value(z - h)) / (2.0 * h)
            assert np.max(np.abs(fd - K.deriv(z))) < 1e-7, K.law.kind

    def test_P_definition(self):
        for K in _all_laws():
            z = _interior_points(K)
            direct = 1.0 - z * z - K.value(z) ** 2
            assert np.max(np.abs(K.P(z) - direct)) < 1e-12, K.law.kind


class TestGeographicForms:
    def test_momentum_phi_matches_value(self):
        for K in _all_laws():
            z = _interior_points(K)
            phi = np.arcsin(z)
            assert np.max(np.abs(K.momentum_phi(phi) - K.value(z))) < 1e-12

    def test_lambda_rate_identity(self):
        # dlambda/ds = K / (z^2 - 1) away from the poles
        for K in _all_laws():
            z = _interior_points(K)
            phi = np.arcsin(z)
            ref = K.value(z) / (z * z - 1.0)
            assert np.max(np.abs(K.lambda_rate_phi(phi) - ref)) < 1e-6, K.law.kind

    def test_curvature_phi_matches_deriv(self):
        for K in _all_laws():
            z = _interior_points(K)
            phi = np.arcsin(z)
            assert np.max(np.abs(K.curvature_phi(phi) - K.deriv(z))) < 1e-9

    def test_lambda_rate_finite_at_smooth_pole(self):
        # viviani reaches z = 1 with K(1) = 0 and a finite longitude rate
        K = antiderivative(viviani_law())
        rate = K.lambda_rate_phi(0.5 * math.pi)
        assert rate == pytest.approx(1.0, abs=1e-9)
        Kem = antiderivative(clelia_law(2.0))
        assert Kem.lambda_rate_phi(0.5 * math.pi) == pytest.approx(0.5, abs=1e-9)


class TestBakedConstant:
    def test_pinned_families_reject_c(self):
        for law in (loxodrome_law(0.6), loxo_one_law(0.5), loxo_super_law(2.0),
                    catenary_law(0.3), sn_family_law(0.7), viviani_law(),
                    clelia_law(2.0)):
            with pytest.raises(ValueError):
                antiderivative(law, 0.5)
            antiderivative(law, 0.0)

    def test_free_families_accept_c(self):
        assert antiderivative(constant_law(1.0), -1.0).c == -1.0
        assert antiderivative(linear_elastica_law(1.0, 0.0), 0.7).c == 0.7


class TestAdmissibleIntervals:
    def test_constant_zero_is_meridian(self):
        K = antiderivative(constant_law(0.0))
        (iv,) = admissible_intervals(K)
        assert iv.z_lo == pytest.approx(-1.0, abs=1e-12)
        assert iv.z_hi == pytest.approx(1.0, abs=1e-12)
        assert iv.lo_kind == POLE_PASSAGE and iv.hi_kind == POLE_PASSAGE

    def test_constant_with_offset_turns(self):
        c = 0.3
        K = antiderivative(constant_law(0.0), c)
        (iv,) = admissible_intervals(K)
        nu = math.sqrt(1.0 - c * c)
        assert iv.z_lo == pytest.approx(-nu, abs=1e-9)
        assert iv.z_hi == pytest.approx(nu, abs=1e-9)
        assert iv.lo_kind == TURNING_POINT and iv.hi_kind == TURNING_POINT
        assert iv.period_s == pytest.approx(2.0 * math.pi, rel=1e-9)

    def test_borderline_split_at_double_root(self):
        a = 0.75
        K = antiderivative(linear_elastica_law(a, 0.0), -1.0)
        ivs = admissible_intervals(K, with_period=False)
        amp = math.sqrt(2.0 * a - 1.0) / a
        assert len(ivs) == 2
        lo, hi = ivs
        assert hi.z_lo == pytest.approx(0.0, abs=1e-9)
        assert hi.z_hi == pytest.approx(amp, abs=1e-9)
        assert hi.lo_kind == OPEN_BOUNDARY  # double root, asymptotic
        assert hi.hi_kind == TURNING_POINT
        assert lo.z_lo == pytest.approx(-amp, abs=1e-9)
        assert lo.z_hi == pytest.approx(0.0, abs=1e-9)

    def test_loxo_super_open_edges(self):
        a = 2.0
        K = antiderivative(loxo_super_law(a))
        ivs = admissible_intervals(K, with_period=False)
        r = 1.0 / math.sqrt(a)
        assert len(ivs) == 2
        assert ivs[1].z_lo == pytest.approx(0.0, abs=1e-9)
        assert ivs[1].z_hi == pytest.approx(r, abs=1e-9)
        assert ivs[1].lo_kind == OPEN_BOUNDARY
        assert ivs[1].hi_kind == OPEN_BOUNDARY
        assert ivs[0].z_lo == pytest.approx(-r, abs=1e-9)

    def test_loxo_one_domain_edges(self):
        K = antiderivative(loxo_one_law(0.5))
        (iv,) = admissible_intervals(K, with_period=False)
        r = math.sqrt(0.5)
        assert iv.z_lo == pytest.approx(-r, abs=1e-9)
        assert iv.z_hi == pytest.approx(r, abs=1e-9)
        assert iv.lo_kind == OPEN_BOUNDARY and iv.hi_kind == OPEN_BOUNDARY

    def test_catenary_two_branches(self):
        a = 0.3
        K = antiderivative(catenary_law(a))
        ivs = admissible_intervals(K)
        assert len(ivs) == 2
        q = math.sqrt(1.0 - 4.0 * a * a)
        z_lo = math.sqrt((1.0 - q) / 2.0)
        z_hi = math.sqrt((1.0 + q) / 2.0)
        pos = ivs[1]
        assert pos.z_lo == pytest.approx(z_lo, abs=1e-9)
        assert pos.z_hi == pytest.approx(z_hi, abs=1e-9)
        assert pos.lo_kind == TURNING_POINT and pos.hi_kind == TURNING_POINT
        assert pos.period_s == pytest.approx(math.pi, rel=1e-9)

    def test_sn_family_pole_to_pole(self):
        K = antiderivative(sn_family_law(0.7))
        (iv,) = admissible_intervals(K)
        assert iv.lo_kind == POLE_PASSAGE and iv.hi_kind == POLE_PASSAGE
        assert iv.z_lo == pytest.approx(-1.0, abs=1e-12)
        assert iv.z_hi == pytest.approx(1.0, abs=1e-12)

    def test_sn_near_one_period_without_warning(self):
        # P vanishes at the poles, where its z-form loses its accuracy; the
        # period comes out at 4K(p) and without a warning
        p = 0.999
        K = family_law("sn-family", {"p": p})
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            (iv,) = admissible_intervals(K)
        want = 4.0 * float(mpmath.ellipk(p * p))
        assert iv.period_s == pytest.approx(want, rel=1e-12, abs=0.0)

    @pytest.mark.parametrize("name", ["sn-family", "seiffert"])
    @pytest.mark.parametrize("p", [0.4, 0.7, 0.9, 0.99, 0.999])
    def test_period_is_four_K(self, name, p):
        (iv,) = admissible_intervals(family_law(name, {"p": p}))
        want = 4.0 * float(mpmath.ellipk(p * p))
        assert iv.period_s == pytest.approx(want, rel=1e-12, abs=0.0)

    @pytest.mark.parametrize("a", [0.1, 0.3, 0.45, 0.499])
    def test_catenary_period_is_pi(self, a):
        # z^2 = (1 + q sin 2s) / 2 on both branches
        ivs = admissible_intervals(family_law("catenary", {"a": a}))
        assert len(ivs) == 2
        for iv in ivs:
            assert iv.period_s == pytest.approx(math.pi, rel=0.0, abs=4e-15)

    @pytest.mark.parametrize("n", [0.05, 1.0 / 3.0, 1.0, 3.0, 20.0])
    def test_clelia_period_is_four_A_E(self, n):
        # phi = n lambda: pole to pole is 2 A E(p), A = sqrt(n^2 + 1) / n,
        # p = 1 / sqrt(n^2 + 1)
        (iv,) = admissible_intervals(family_law("clelia", {"n": n}))
        want = 4.0 * math.sqrt(n * n + 1.0) / n * float(mpmath.ellipe(1.0 / (n * n + 1.0)))
        assert iv.period_s == pytest.approx(want, rel=1e-12, abs=0.0)

    def test_viviani_P_closed_form(self):
        n = 1.0
        K = antiderivative(viviani_law())
        z = np.linspace(-0.95, 0.95, 41)
        ref = (1.0 - z * z) * n * n / (n * n + 1.0 - z * z)
        assert np.max(np.abs(K.P(z) - ref)) < 1e-12

    def test_inadmissible_law_has_no_intervals(self):
        K = antiderivative(constant_law(0.0), 1.5)
        assert admissible_intervals(K) == []

    def test_custom_law_matches_named_equivalent(self):
        K_named = antiderivative(constant_law(0.0), 0.3)
        K_cust = antiderivative(custom_law(lambda z: 0.0 * z), 0.3)
        z = np.linspace(-0.9, 0.9, 21)
        assert np.max(np.abs(K_cust.value(z) - K_named.value(z))) < 1e-10
        (iv,) = admissible_intervals(K_cust, with_period=False)
        nu = math.sqrt(1.0 - 0.09)
        assert iv.z_lo == pytest.approx(-nu, abs=1e-8)
        assert iv.z_hi == pytest.approx(nu, abs=1e-8)


class TestNearDegenerateDoubleRoot:
    def test_borderline_just_above_half(self):
        # P > 0 only on |z| < amp, where Pmax ~ 1e-8..1e-10, with a double
        # zero at z = 0 that splits the band into two asymptotic halves
        for a in (0.5001, 0.50001):
            K = antiderivative(linear_elastica_law(a, 0.0), -1.0)
            lo, hi = admissible_intervals(K, with_period=False)
            amp = math.sqrt(2.0 * a - 1.0) / a
            assert lo.z_lo == pytest.approx(-amp, abs=1e-9)
            assert lo.z_hi == pytest.approx(0.0, abs=1e-9)
            assert lo.hi_kind == OPEN_BOUNDARY
            assert hi.z_lo == pytest.approx(0.0, abs=1e-9)
            assert hi.z_hi == pytest.approx(amp, abs=1e-9)
            assert hi.lo_kind == OPEN_BOUNDARY

            tr = reconstruct(K, ReconstructionConfig(s_span=20.0, n_samples=401),
                             interval=hi)
            init = initial_state(K, interval=hi)
            orc = frenet_integrate(K.law, init, 20.0, 1e-3, n_samples=401)
            gap = np.linalg.norm(orc.xi - tr.xi, axis=1)
            assert np.max(gap) < 1e-6, a


class TestExactProfile:
    """P = N / D from each law's polynomials, and the scan built on them."""

    def test_N_over_D_is_P(self):
        for name in family_names():
            K = family_law(name)
            N, D = K.law._profile(K.c)
            N = np.polynomial.Polynomial(N.coef.astype(float))
            D = np.polynomial.Polynomial(D.coef.astype(float))
            lo, hi = K.law.domain
            z = np.linspace(lo, hi, 41)[1:-1]
            z = z[np.abs(z) > 1e-3]  # the catenary's D vanishes at z = 0
            assert np.all(D(z) > 0.0), name
            assert np.max(np.abs(N(z) / D(z) - K.P(z))) < 1e-13, name

    def test_scan_evaluates_K_at_few_points(self, monkeypatch):
        # the ends come from N's roots, not from a grid of K values
        for name in family_names():
            K = family_law(name)
            law_cls = type(K.law)
            orig = law_cls._K
            seen = []

            def counting(self, u, w, c, orig=orig, seen=seen):
                seen.append(np.size(u))
                return orig(self, u, w, c)
            monkeypatch.setattr(law_cls, "_K", counting)
            admissible_intervals(K, with_period=False)
            monkeypatch.undo()
            assert sum(seen) <= 64, (name, sum(seen))

    @pytest.mark.parametrize("tau", [1e-6, 1e-8, 1e-10])
    def test_arc_rate_symmetric_at_both_ends(self, tau):
        # sn-family's interval [-1, 1] is symmetric: at t and -t the arc
        # rate and cos^2(phi) agree, the lo pole as exact as the hi one
        prof = admissible_intervals(family_law("sn-family", {"p": 0.6}))[0]._deflated
        t = np.array([0.5 * math.pi - tau])
        g_hi, _, w2_hi = prof.arc_rate(t)
        g_lo, _, w2_lo = prof.arc_rate(-t)
        assert abs(g_lo[0] - g_hi[0]) <= 2.0 * math.ulp(g_hi[0])
        assert abs(w2_lo[0] - w2_hi[0]) <= 2.0 * math.ulp(w2_hi[0])

    @pytest.mark.parametrize("a", [0.5001, 0.501])
    def test_borderline_ends_to_the_ulp(self, a):
        lo, hi = admissible_intervals(family_law("borderline", {"a": a}),
                                      with_period=False)
        amp = math.sqrt(2.0 * a - 1.0) / a
        assert abs(lo.z_lo + amp) <= 2.0 * math.ulp(amp)
        assert abs(hi.z_hi - amp) <= 2.0 * math.ulp(amp)
        assert lo.z_hi == 0.0 and hi.z_lo == 0.0


def _custom_copies():
    """(name, built-in K, custom copy with matching c, z0, s_span)."""
    a, r = 0.857, math.sqrt(0.5)
    return [
        ("constant", antiderivative(constant_law(1.2), 0.4),
         antiderivative(custom_law(lambda z: 1.2 + 0.0 * z), 0.4), 0.0, 4.0),
        ("elastica", antiderivative(linear_elastica_law(0.8, 0.3), 0.1),
         antiderivative(custom_law(lambda z: 1.6 * z + 0.3), 0.1), 0.0, 4.0),
        ("borderline", family_law("borderline", {"a": a}),
         antiderivative(custom_law(lambda z: 2.0 * a * z), -1.0), 0.5, 4.0),
        # one c anchors each catenary branch: K(1) = -a above, K(-1) = a below
        ("catenary upper", family_law("catenary", {"a": 0.3}),
         antiderivative(custom_law(lambda z: 0.3 / z ** 2, singular_z=(0.0,)), -0.3),
         r, 3.0),
        ("catenary lower", family_law("catenary", {"a": 0.3}),
         antiderivative(custom_law(lambda z: 0.3 / z ** 2, singular_z=(0.0,)), 0.3),
         -r, 3.0),
        ("loxo-one", family_law("loxo-one", {"a": 0.5}),
         antiderivative(custom_law(lambda z: z / np.sqrt(0.5 - z * z), domain=(-r, r)), -r),
         0.0, 1.6),
        # K(1) = 1e-2: a turning point 5e-5 below the pole
        ("near-pole", antiderivative(constant_law(1.0), 1e-2 - 1.0),
         antiderivative(custom_law(lambda z: 1.0 + 0.0 * z), 1e-2 - 1.0), 0.5, 4.0),
    ]


class TestCustomLaw:
    @pytest.mark.parametrize("name,K_law,K_cust,z0,span",
                             [pytest.param(*row, id=row[0]) for row in _custom_copies()])
    def test_copy_matches_built_in(self, name, K_law, K_cust, z0, span):
        with np.errstate(divide="ignore"):
            want = admissible_intervals(K_law, with_period=False)
            got = admissible_intervals(K_cust, with_period=False)
        if name.startswith("catenary"):
            # only the anchored branch is the built-in's
            want, got = ([iv for iv in ivs if iv.z_lo < z0 < iv.z_hi] for ivs in (want, got))
        assert [(iv.lo_kind, iv.hi_kind) for iv in got] == \
            [(iv.lo_kind, iv.hi_kind) for iv in want]
        for w, g in zip(want, got):
            assert abs(g.z_lo - w.z_lo) <= 1e-12 and abs(g.z_hi - w.z_hi) <= 1e-12
        cfg = ReconstructionConfig(s_span=span, n_samples=801, z0=z0)
        tw = reconstruct(K_law, cfg, interval=next(iv for iv in want if iv.z_lo < z0 < iv.z_hi))
        tg = reconstruct(K_cust, cfg, interval=next(iv for iv in got if iv.z_lo < z0 < iv.z_hi))
        assert np.max(np.abs(tg.xi - tw.xi)) <= 1e-10

    def test_momentum_of_a_quadratic(self):
        c = -0.1
        K = antiderivative(custom_law(lambda z: 0.3 + 0.2 * z * z), c)
        z = np.linspace(-1.0, 1.0, 201)
        assert np.max(np.abs(K.value(z) - (c + 0.3 * z + 0.2 * z ** 3 / 3.0))) <= 5.6e-15

    @pytest.mark.parametrize("w", [0.01, 0.005])
    def test_momentum_of_a_narrow_bump(self, w):
        # a Gaussian bump far narrower than the piece: each piece starts
        # from 64 panels, so the first round's Gauss points see it
        K = antiderivative(custom_law(lambda z: np.exp(-(((z - 0.3) / w) ** 2))))
        z = np.linspace(-1.0, 1.0, 201)
        want = 0.5 * math.sqrt(math.pi) * w * np.array(
            [math.erf((x - 0.3) / w) + math.erf(0.3 / w) for x in z])
        assert np.max(np.abs(K.value(z) - want)) <= 1e-15

    def test_through_a_pole(self):
        # K = 0.3 (z - 1) vanishes at the north pole; the longitude rate
        # there is 0.3 / (1 + z), with the factor 1 - z divided out
        for law in (custom_law(lambda z: 0.3), constant_law(0.3)):
            K = antiderivative(law, -0.3)
            assert K.lambda_rate_phi(math.pi / 2.0) == pytest.approx(0.15, rel=1e-14)
            iv = next(iv for iv in admissible_intervals(K) if iv.z_lo < 0.0 < iv.z_hi)
            assert iv.hi_kind == POLE_PASSAGE and iv.z_hi == 1.0
            tr = reconstruct(K, ReconstructionConfig(s_span=9.0, n_samples=901, z0=0.0),
                             interval=iv)
            orc = frenet_integrate(K.law, initial_state(K, z0=0.0, interval=iv),
                                   9.0, 1e-3, n_samples=901)
            assert np.max(np.linalg.norm(orc.xi - tr.xi, axis=1)) <= 1e-10, law.kind


class TestHandBuiltInterval:
    """An interval not from admissible_intervals carries no deflated
    profile: it takes that of the law's interval with its ends and kinds."""

    def _law(self):
        K = family_law("borderline", {"a": 0.857})
        return K, next(iv for iv in admissible_intervals(K) if iv.z_lo < 0.5 < iv.z_hi)

    def test_copy_of_a_scan_interval_reconstructs_identically(self):
        K, iv = self._law()
        copy = AdmissibleInterval(iv.z_lo, iv.z_hi, iv.lo_kind, iv.hi_kind, iv.period_s)
        cfg = ReconstructionConfig(s_span=4.0, n_samples=801, z0=0.5)
        want, got = (reconstruct(K, cfg, interval=v) for v in (iv, copy))
        for field in ("s", "z", "phi", "lam", "xi"):
            assert np.array_equal(getattr(got, field), getattr(want, field)), field
        assert (arc_length_of_z(K, 0.5, iv.z_hi, interval=copy)
                == arc_length_of_z(K, 0.5, iv.z_hi, interval=iv))

    def test_copy_with_shifted_ends_is_rejected(self):
        K, iv = self._law()
        cfg = ReconstructionConfig(s_span=4.0, n_samples=801, z0=0.5)
        for shifted in (AdmissibleInterval(iv.z_lo, iv.z_hi - 1e-9, iv.lo_kind, iv.hi_kind),
                        dataclasses.replace(iv, z_hi=np.nextafter(iv.z_hi, 0.0))):
            with pytest.raises(ValueError):
                reconstruct(K, cfg, interval=shifted)
            with pytest.raises(ValueError):
                arc_length_of_z(K, 0.5, 0.6, interval=shifted)


class TestScalarKappa:
    def test_matches_array_kappa(self):
        laws = [K.law for K in _all_laws()]
        laws.append(custom_law(lambda z: 0.4 + z / (2.0 - z), domain=(-0.8, 0.9)))
        rng = np.random.default_rng(7)
        for law in laws:
            lo, hi = law.domain
            # both edges, just outside them (kappa is NaN there), z = 0 (the
            # catenary's pole) and z = +-1 (loxodrome and sn-family blow up)
            zs = np.concatenate([rng.uniform(lo, hi, 50),
                                 [lo, hi, lo - 1e-3, hi + 1e-3, 0.0, -1.0, 1.0]])
            f = law.scalar_kappa()
            for z in zs.tolist():
                got, want = f(z), law.kappa(z)
                if math.isnan(want):
                    assert math.isnan(got), (law.kind, z)
                elif math.isinf(want):
                    assert got == want, (law.kind, z)
                else:
                    assert abs(got - want) <= 4.0 * np.spacing(abs(want)), (
                        law.kind, z, got, want)


class TestMomentumFromTrace:
    def test_matches_law_on_closed_form(self):
        cf = closed_form("seiffert", {"p": 0.7})
        s = np.linspace(-1.5, 1.5, 601)
        tr = cf.trace(s)
        K = antiderivative(linear_elastica_law(0.7, 0.0), -0.7)
        got = momentum_from_trace(tr)
        ref = K.value(tr.z)
        ok = slice(2, -2)
        assert np.max(np.abs(got[ok] - ref[ok])) < 1e-6

    def test_constant_momentum_on_small_circle(self):
        cf = closed_form("small-circle", {"k0": 1.0, "c": 0.2})
        s = np.linspace(0.0, 3.0, 401)
        tr = cf.trace(s)
        got = momentum_from_trace(tr)
        ref = 1.0 * tr.z + 0.2
        ok = slice(2, -2)
        assert np.max(np.abs(got[ok] - ref[ok])) < 1e-6

    def test_needs_three_samples(self):
        cf = closed_form("great-circle", {"c": 0.0})
        tr = cf.trace(np.array([0.0, 0.1]))
        with pytest.raises(ValueError):
            momentum_from_trace(tr)
