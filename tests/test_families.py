"""Catalog curves: geometric invariants and agreement with their laws."""

import math

import numpy as np
import pytest

from sphericurve.families import (
    ElasticaParams,
    closed_form,
    el_residual,
    energy_residual,
    family_law,
    family_names,
)
from sphericurve.laws import momentum_from_trace
from sphericurve.oracle import curvature_from_trace
from sphericurve._fd import deriv1

# windows stay clear of curvature blow-ups so difference stencils behave
_CASES = [
    ("small-circle", {"k0": 1.2, "c": 0.4}, (-3.0, 3.0)),
    ("small-circle", {"k0": 1.0, "c": 1.0}, (-3.0, 3.0)),
    ("great-circle", {"c": 0.3}, (-3.0, 3.0)),
    ("seiffert", {"p": 0.7}, (-7.0, 7.0)),
    ("borderline", {"a": 0.75}, (-4.0, 4.0)),
    ("borderline", {"a": 1.0}, (-4.0, 4.0)),
    ("borderline", {"a": 2.0}, (-4.0, 4.0)),
    ("loxodrome", {"a": 0.6}, (-1.5, 1.5)),
    ("loxo-one", {"a": 0.5}, (-0.9, 0.9)),
    ("loxo-super", {"a": 2.0}, (-3.0, -0.6)),
    ("catenary", {"a": 0.3}, (-3.0, 3.0)),
    ("sn-family", {"p": 0.5}, (-1.4, 1.4)),
    ("viviani", {}, (-4.0, 4.0)),
    ("clelia", {"n": 2.5}, (-4.0, 4.0)),
]

_IDS = [f"{tag}-{'-'.join(f'{v:g}' for v in p.values()) or 'default'}"
        for tag, p, _ in _CASES]


def _grid(win, n=2001):
    return np.linspace(win[0], win[1], n)


@pytest.mark.parametrize("tag,params,win", _CASES, ids=_IDS)
class TestCatalogInvariants:
    def test_points_on_unit_sphere(self, tag, params, win):
        cf = closed_form(tag, params)
        _, _, xi = cf(_grid(win))
        assert np.max(np.abs(np.linalg.norm(xi, axis=1) - 1.0)) < 1e-12

    def test_unit_speed(self, tag, params, win):
        cf = closed_form(tag, params)
        h = 1e-5
        s = _grid((win[0] + h, win[1] - h), 401)
        _, _, xp = cf(s + h)
        _, _, xm = cf(s - h)
        speed = np.linalg.norm((xp - xm) / (2.0 * h), axis=1)
        assert np.max(np.abs(speed - 1.0)) < 1e-8

    def test_coordinates_consistent_with_points(self, tag, params, win):
        cf = closed_form(tag, params)
        s = _grid(win, 801)
        phi, lam, xi = cf(s)
        w = np.cos(phi)
        want = np.column_stack([w * np.cos(lam), w * np.sin(lam), np.sin(phi)])
        assert np.max(np.abs(xi - want)) < 1e-9

    def test_curvature_formula_matches_trace(self, tag, params, win):
        cf = closed_form(tag, params)
        s = _grid(win)
        tr = cf.trace(s)
        got = curvature_from_trace(tr)
        want = cf.kappa(s)
        ok = np.isfinite(got)
        assert np.max(np.abs(got[ok] - want[ok])) < 1e-5

    def test_longitude_rate_matches_law(self, tag, params, win):
        # validates each closed-form longitude against K / (z^2 - 1)
        cf = closed_form(tag, params)
        K = family_law(tag, params)
        h = 1e-5
        s = _grid((win[0] + h, win[1] - h), 401)
        phi, _, _ = cf(s)
        _, lp, _ = cf(s + h)
        _, lm, _ = cf(s - h)
        rate = (lp - lm) / (2.0 * h)
        z = np.sin(phi)
        ok = np.abs(z) < 0.9
        want = K.momentum_phi(phi[ok]) / (z[ok] ** 2 - 1.0)
        assert np.max(np.abs(rate[ok] - want)) < 1e-6

    def test_momentum_along_trace(self, tag, params, win):
        cf = closed_form(tag, params)
        K = family_law(tag, params)
        tr = cf.trace(_grid(win))
        got = momentum_from_trace(tr)
        want = K.momentum_phi(tr.phi)
        ok = np.isfinite(got)
        # second-from-end samples fall back to a lower-order stencil
        ok[:2] = ok[-2:] = False
        assert np.max(np.abs(got[ok] - want[ok])) < 1e-6

    def test_height_stays_admissible(self, tag, params, win):
        cf = closed_form(tag, params)
        K = family_law(tag, params)
        _, _, xi = cf(_grid(win))
        z = np.clip(xi[:, 2], -1.0, 1.0)
        assert np.min(K.P(z)[np.abs(z) < 1.0 - 1e-12]) > -1e-9

    def test_trace_metadata(self, tag, params, win):
        cf = closed_form(tag, params)
        tr = cf.trace(_grid(win, 17))
        assert tr.meta["closed_form"] == tag
        # defaults may be filled in; the given values must survive
        for k, v in params.items():
            assert tr.meta["params"][k] == v


class TestElasticaResiduals:
    def test_seiffert_solves_curvature_equation(self):
        p = 0.7
        cf = closed_form("seiffert", {"p": p})
        ds = 1e-3
        s = np.arange(-2.0, 2.0 + 0.5 * ds, ds)
        kap = cf.kappa(s)
        assert el_residual(kap, ElasticaParams(p, 0.0, -p), ds) < 1e-5

    def test_catenary_fails_curvature_equation(self):
        a = 0.3
        cf = closed_form("catenary", {"a": a})
        ds = 1e-3
        s = np.arange(-2.0, 2.0 + 0.5 * ds, ds)
        kap = cf.kappa(s)
        assert el_residual(kap, ElasticaParams(a, 0.0, -1.0), ds) > 1e-2

    def test_borderline_energy_is_zero(self):
        ds = 1e-3
        s = np.arange(-2.0, 2.0 + 0.5 * ds, ds)
        for a in (0.75, 1.0, 2.0):
            pr = ElasticaParams(a, 0.0, -1.0)
            assert abs(pr.energy_E) < 1e-12
            kap = closed_form("borderline", {"a": a}).kappa(s)
            assert energy_residual(kap, deriv1(kap, ds), pr) < 1e-6

    def test_el_residual_needs_enough_samples(self):
        with pytest.raises(ValueError):
            el_residual(np.ones(4), ElasticaParams(1.0), 0.1)


class TestLoxodromeAngle:
    def test_constant_angle_with_parallels(self):
        rng = np.random.default_rng(20260819)
        for alpha in (math.pi / 6, math.pi / 4, math.pi / 3):
            a = math.cos(alpha)
            cf = closed_form("loxodrome", {"a": a})
            h = 1e-5
            s = rng.uniform(cf.s_lo + 0.3, cf.s_hi - 0.3, 50)
            pp, lp, _ = cf(s + h)
            pm, lm, _ = cf(s - h)
            phi, _, _ = cf(s)
            ang = np.arctan2((pp - pm) / (2 * h),
                             np.cos(phi) * (lp - lm) / (2 * h))
            assert np.max(np.abs(ang - alpha)) < 1e-8


class TestDefaults:
    def test_sample_and_reconstruct_share_defaults(self):
        for name in ("loxodrome", "loxo-one", "loxo-super", "catenary",
                     "sn-family", "clelia"):
            cf = closed_form(name)
            law = family_law(name).law
            assert cf.params, name
            for k, v in cf.params.items():
                assert law.params[k] == v, (name, k)


class TestFactory:
    def test_unknown_family(self):
        with pytest.raises(ValueError, match="no closed form"):
            closed_form("ellipse")

    def test_unknown_parameter(self):
        with pytest.raises(ValueError, match="unknown parameters"):
            closed_form("seiffert", {"q": 1.0})

    def test_parameter_range_checks(self):
        with pytest.raises(ValueError, match="seiffert"):
            closed_form("seiffert", {"p": 1.2})
        with pytest.raises(ValueError, match="catenary"):
            closed_form("catenary", {"a": 0.6})

    def test_evaluation_outside_range(self):
        cf = closed_form("loxodrome", {"a": 0.6})
        with pytest.raises(ValueError, match="arc length outside"):
            cf(np.array([2.5]))

    def test_law_rejects_offset_when_baked(self):
        with pytest.raises(ValueError, match="fixed momentum"):
            family_law("seiffert", {"p": 0.7}, c=0.5)

    def test_law_rejects_unknown_parameter(self):
        with pytest.raises(ValueError, match="unknown parameters"):
            family_law("viviani", {"n": 2.0})

    def test_law_rejects_unknown_family(self):
        with pytest.raises(ValueError, match="unknown family"):
            family_law("bogus")

    def test_family_names_cover_catalog_and_law_only(self):
        names = family_names()
        assert names == sorted(names)
        for t in ("constant", "elastica", "seiffert", "viviani", "clelia"):
            assert t in names
