"""End-to-end acceptance checks, one numbered criterion per test.

Each test emits one pass/fail line and then asserts, so a failure is
both visible in the end-of-run summary block and reported by pytest
itself.
"""

import math
import warnings
from types import SimpleNamespace

import conftest
import numpy as np
from scipy.integrate import IntegrationWarning, quad

from sphericurve.families import (
    ElasticaParams,
    closed_form,
    el_residual,
    energy_residual,
    family_law,
)
from sphericurve.laws import (
    admissible_intervals,
    antiderivative,
    linear_elastica_law,
)
from sphericurve.oracle import (
    curvature_from_trace,
    frenet_integrate,
    initial_state,
)
from sphericurve.reconstruct import (
    ReconstructionConfig,
    arc_length_of_z,
    reconstruct,
)
from sphericurve.specfun import complete_K, incomplete_E, incomplete_F, jacobi
from sphericurve.verify import compare_traces, verify_trace
from sphericurve._fd import deriv1


def _report(num, vals):
    """vals: (label, got, bound) entries; emits one line, then asserts."""
    bad = [f"{label}: {got:.3e} > {bound:.1e}"
           for label, got, bound in vals if not got <= bound]
    if bad:
        line = f"criterion {num:2d}: FAIL  " + "; ".join(bad)
    else:
        worst = max((got / bound for _, got, bound in vals), default=0.0)
        line = f"criterion {num:2d}: PASS  (worst margin {worst:.2e})"
    print(line)
    conftest.acceptance_lines.append(line)
    assert not bad, line


def _iv_for(K, z0):
    for iv in admissible_intervals(K):
        if iv.z_lo < z0 < iv.z_hi:
            return iv
    raise AssertionError(f"no admissible interval contains z0={z0}")


def _cfg(span, n=801, **kw):
    return ReconstructionConfig(s_span=span, n_samples=n, **kw)


def _sup(x):
    return float(np.max(np.abs(np.asarray(x))))


def test_criterion_01_great_circles():
    vals = []
    for c in (0.0, 0.3, 0.9):
        K = family_law("great-circle", {"c": c})
        tr = reconstruct(K, _cfg(2.0 * math.pi))
        cf = closed_form("great-circle", {"c": c})
        vals.append((f"c={c}", compare_traces(tr, cf.trace(tr.s)), 1e-6))
    _report(1, vals)


def test_criterion_02_small_circles():
    vals = []
    for k0, c in ((1.0, 0.0), (1.0, 1.0), (2.0, 1.5)):
        K = family_law("small-circle", {"k0": k0, "c": c})
        w2 = 1.0 + k0 * k0
        R = math.sqrt(1.0 + k0 * k0 - c * c)
        tr = reconstruct(K, _cfg(2.0 * math.pi, z0=-c * k0 / w2))
        want = (R * np.sin(math.sqrt(w2) * tr.s) - c * k0) / w2
        vals.append((f"z k0={k0},c={c}", _sup(tr.z - want), 1e-6))
        if c == 0.0:
            w = math.sqrt(w2)
            xi = np.column_stack([np.full_like(tr.s, k0),
                                  np.cos(w * tr.s), np.sin(w * tr.s)]) / w
            d = compare_traces(tr, SimpleNamespace(s=tr.s, xi=xi))
            vals.append((f"curve k0={k0}", d, 1e-6))
    _report(2, vals)


def test_criterion_03_seiffert():
    vals = []
    for p in (0.3, 0.7, 0.95):
        K0 = complete_K(p)
        K = family_law("seiffert", {"p": p})
        tr = reconstruct(K, _cfg(4.0 * K0, n=1601, z0=0.0,
                                 lambda0=p * K0, dz_sign0=-1))
        _, lam_cf, xi_cf = closed_form("seiffert", {"p": p})(tr.s + K0)
        vals.append((f"z p={p}", _sup(tr.z - xi_cf[:, 2]), 1e-6))
        vals.append((f"lam p={p}", _sup(tr.lam - lam_cf), 1e-6))
    _report(3, vals)


def test_criterion_04_borderline():
    vals = []
    for a in (0.75, 1.0, 2.0):
        K = family_law("borderline", {"a": a})
        beta = math.sqrt(2.0 * a - 1.0)
        z0 = (beta / a) / math.cosh(beta)  # closed form one unit past its peak
        tr = reconstruct(K, _cfg(8.0, n=1601, z0=z0, dz_sign0=-1),
                         interval=_iv_for(K, z0))
        _, _, xi_cf = closed_form("borderline", {"a": a})(tr.s + 1.0)
        d = compare_traces(tr, SimpleNamespace(s=tr.s, xi=xi_cf))
        vals.append((f"trace a={a}", d, 1e-6))
        pars = ElasticaParams(a, 0.0, -1.0)
        assert pars.energy_E == 0.0
        kap = K.curvature_phi(tr.phi)
        kd = deriv1(kap, tr.s[1] - tr.s[0])
        vals.append((f"energy a={a}", energy_residual(kap, kd, pars), 1e-5))
    _report(4, vals)


def test_criterion_05_loxodromes():
    vals = []
    for alpha in (math.pi / 6, math.pi / 4, math.pi / 3):
        a, nu = math.cos(alpha), math.sin(alpha)
        K = family_law("loxodrome", {"a": a})
        tr = reconstruct(K, _cfg(0.9 * math.pi / nu, n=3201, z0=0.0))
        h = tr.s[1] - tr.s[0]
        vals.append((f"phi α={alpha:.3f}", _sup(tr.phi - nu * tr.s), 1e-8))
        ang = np.arctan2(deriv1(tr.phi, h),
                         np.cos(tr.phi) * deriv1(tr.lam, h))
        win = (np.abs(tr.s) <= 0.3 * math.pi / nu) & np.isfinite(ang)
        vals.append((f"angle α={alpha:.3f}", _sup(ang[win] - alpha), 1e-8))
        kap = curvature_from_trace(tr)
        want = a * np.tan(nu * tr.s)
        vals.append((f"kappa α={alpha:.3f}",
                     _sup(kap[win] - want[win]), 1e-5))
    _report(5, vals)


def test_criterion_06_loxodromic_one_and_super():
    vals = []
    a = 0.5
    K = family_law("loxo-one", {"a": a})
    ca = math.sqrt(1.0 - a)
    s_max = math.sqrt(a) / ca
    tr = reconstruct(K, _cfg(1.8 * s_max, z0=0.0))
    vals.append(("z linear", _sup(tr.z - ca * tr.s), 1e-7))
    _, lam_cf, _ = closed_form("loxo-one", {"a": a})(tr.s)
    dl = tr.lam - lam_cf
    vals.append(("lam linear", _sup(dl - dl[len(dl) // 2]), 1e-5))

    a = 2.0
    beta = math.sqrt(a - 1.0)
    K = family_law("loxo-super", {"a": a})
    z0 = 0.2
    tr = reconstruct(K, _cfg(2.0, z0=z0), interval=_iv_for(K, z0))
    vals.append(("z exponential",
                 _sup(tr.z / z0 - np.exp(beta * tr.s)), 1e-7))
    _, lam_cf, _ = closed_form("loxo-super", {"a": a})(
        tr.s + math.log(z0) / beta)
    dl = tr.lam - lam_cf
    vals.append(("lam exponential", _sup(dl - dl[len(dl) // 2]), 1e-5))
    _report(6, vals)


def test_criterion_07_catenary():
    vals = []
    for a in (0.1, 0.3, 0.45):
        q = math.sqrt(1.0 - 4.0 * a * a)
        K = family_law("catenary", {"a": a})
        z0 = math.sqrt(0.5)
        tr = reconstruct(K, _cfg(4.0, n=3201, z0=z0),
                         interval=_iv_for(K, z0))
        want = 0.5 * (1.0 + q * np.sin(2.0 * tr.s))
        vals.append((f"z² a={a}", _sup(tr.z ** 2 - want), 1e-6))
        kap = curvature_from_trace(tr)
        ok = np.isfinite(kap)
        want_k = 2.0 * a / (1.0 + q * np.sin(2.0 * tr.s))
        vals.append((f"kappa a={a}", _sup(kap[ok] - want_k[ok]), 1e-5))
    _report(7, vals)


def test_criterion_08_sn_family():
    vals = []
    for p in (0.4, 0.8):
        K0 = complete_K(p)
        K = family_law("sn-family", {"p": p})
        tr = reconstruct(K, _cfg(4.0 * K0, n=1601, z0=0.0))
        _, lam_cf, xi_cf = closed_form("sn-family", {"p": p})(tr.s)
        ok = np.ones(tr.s.size, dtype=bool)
        ok[tr.meta["spiral_samples"]] = False
        vals.append((f"z p={p}", _sup(tr.z[ok] - xi_cf[ok, 2]), 1e-6))
        vals.append((f"lam p={p}", _sup(tr.lam[ok] - lam_cf[ok]), 1e-5))
        tr2 = reconstruct(K, _cfg(8.0 * K0, n=1601, z0=0.0))
        gap = np.linalg.norm(tr2.xi[800:] - tr2.xi[:801], axis=1)
        vals.append((f"closure p={p}", _sup(gap), 1e-6))
    _report(8, vals)


def test_criterion_09_clelias():
    vals = []
    for n_par in (1.0, 1.0 / 3.0, 3.0):
        K = (family_law("viviani") if n_par == 1.0
             else family_law("clelia", {"n": n_par}))
        iv = admissible_intervals(K)[0]
        tr = reconstruct(K, _cfg(0.9 * iv.period_s, n=1601, z0=0.0),
                         interval=iv)
        vals.append((f"phi=n·lam n={n_par:.3g}",
                     _sup(tr.phi - n_par * tr.lam), 1e-6))
    K = family_law("viviani")
    zs = np.linspace(0.0, 0.95, 20)
    got = np.array([arc_length_of_z(K, 0.0, z) for z in zs])
    want = np.array([math.sqrt(2.0) * incomplete_E(math.asin(z),
                                                   1.0 / math.sqrt(2.0))
                     for z in zs])
    vals.append(("arc length", _sup(got - want), 1e-8))
    _report(9, vals)


def test_criterion_10_elastica_residuals():
    vals = []
    for a, b, c in ((1.0, 0.0, -1.0), (0.8, 0.3, 0.1), (1.5, -0.4, 0.0)):
        K = antiderivative(linear_elastica_law(a, b), c)
        tr = reconstruct(K, _cfg(3.0, n=1601))
        rep = verify_trace(tr, K)
        tag = f"(a,b,c)=({a},{b},{c})"
        vals.append((f"el {tag}", rep.residuals["el"], 1e-4))
        vals.append((f"energy {tag}", rep.residuals["energy"], 1e-4))
    ds = 1e-3
    s = np.arange(-2.0, 2.0 + 0.5 * ds, ds)
    kap = closed_form("catenary", {"a": 0.3}).kappa(s)
    res = el_residual(kap, ElasticaParams(0.3, 0.0, -1.0), ds)
    vals.append(("negative control margin", 1e-2 / res, 1.0))
    _report(10, vals)


def test_criterion_11_oracle_equivalence():
    fixtures = [
        ("great-circle", {"c": 0.3}, 4.0, None, 1),
        ("small-circle", {"k0": 2.0, "c": 1.5}, 4.0, None, 1),
        ("seiffert", {"p": 0.7}, 6.0, 0.0, -1),
        ("borderline", {"a": 0.75}, 4.0, 0.5, 1),
        ("loxodrome", {"a": math.cos(math.pi / 4)},
         0.9 * math.pi / math.sin(math.pi / 4), 0.0, 1),
        ("loxo-one", {"a": 0.5}, 1.6, 0.0, 1),
        ("loxo-super", {"a": 2.0}, 2.0, 0.2, 1),
        ("catenary", {"a": 0.3}, 3.0, math.sqrt(0.5), 1),
        ("sn-family", {"p": 0.4}, 2.8, 0.0, 1),
        ("viviani", {}, 4.0, 0.2, 1),
        ("clelia", {"n": 3.0}, 3.0, 0.1, 1),
    ]
    n = 401
    vals = []
    for name, params, span, z0, dz in fixtures:
        K = family_law(name, params)
        iv = None if z0 is None else _iv_for(K, z0)
        tr = reconstruct(K, _cfg(span, n=n, z0=z0, dz_sign0=dz),
                         interval=iv)
        init = initial_state(K, z0=z0, dz_sign0=dz, interval=iv)
        orc = frenet_integrate(K.law, init, span, 1e-4, n_samples=n)
        assert not orc.meta["halted"]
        assert np.allclose(orc.s, tr.s, atol=1e-12)
        gap = np.linalg.norm(orc.xi - tr.xi, axis=1)
        vals.append((name, _sup(gap), 1e-6))

    # step halving must shrink the integrator error about 16-fold; the
    # substep never exceeds the sample spacing, so ds must stay below it.
    # Both errors are against the closed form in the oracle's gauge (z0 the
    # interval midpoint, rising, lambda0 = 0), so no reconstruction error
    # enters the ratio
    params = {"k0": 2.0, "c": 1.5}
    K = family_law("small-circle", params)
    init = initial_state(K)
    cf = closed_form("small-circle", params)
    s = np.linspace(-2.0, 2.0, n)
    phi, lam, _ = cf(s)
    lam = lam - cf(np.zeros(1))[1][0]
    xi = np.column_stack([np.cos(phi) * np.cos(lam), np.cos(phi) * np.sin(lam), np.sin(phi)])
    errs = []
    for ds in (1e-2, 5e-3):
        orc = frenet_integrate(K.law, init, 4.0, ds, n_samples=n)
        assert np.allclose(orc.s, s, atol=1e-12)
        errs.append(_sup(np.linalg.norm(orc.xi - xi, axis=1)))
    ratio = errs[0] / errs[1]
    vals.append(("halving ratio high", ratio, 16.0 * 1.2))
    vals.append(("halving ratio low", 16.0 * 0.8 / ratio, 1.0))
    _report(11, vals)


def test_criterion_12_special_functions():
    rng = np.random.default_rng(20260819)
    vals = []
    u = rng.uniform(-8.0, 8.0, 200)
    p = rng.uniform(0.01, 0.99, 200)
    worst_sc = worst_dn = 0.0
    for ui, pi in zip(u, p):
        t = jacobi(ui, pi)
        worst_sc = max(worst_sc, abs(t.sn ** 2 + t.cn ** 2 - 1.0))
        worst_dn = max(worst_dn,
                       abs(t.dn ** 2 + pi ** 2 * t.sn ** 2 - 1.0))
    vals.append(("sn²+cn²=1", worst_sc, 1e-11))
    vals.append(("dn²+p²sn²=1", worst_dn, 1e-11))

    phi = rng.uniform(-1.5, 1.5, 200)
    p2 = rng.uniform(0.01, 0.99, 200)
    worst_am = max(abs(jacobi(incomplete_F(f, q), q).am - f)
                   for f, q in zip(phi, p2))
    vals.append(("am∘F=id", worst_am, 1e-11))
    vals.append(("K(0)=π/2", abs(complete_K(0.0) - 0.5 * math.pi), 1e-11))
    worst_sech = max(abs(jacobi(ui, 1.0).cn - 1.0 / math.cosh(ui))
                     for ui in u)
    vals.append(("cn(·,1)=sech", worst_sech, 1e-11))

    worst_F = worst_E = 0.0
    with warnings.catch_warnings():
        # the reference tolerance sits at the roundoff floor by design
        warnings.simplefilter("ignore", IntegrationWarning)
        for f, q in zip(phi[:100], p2[:100]):
            ref_F = quad(
                lambda t: 1.0 / math.sqrt(1.0 - (q * math.sin(t)) ** 2),
                0.0, f, epsabs=1e-15, epsrel=1e-14)[0]
            ref_E = quad(
                lambda t: math.sqrt(1.0 - (q * math.sin(t)) ** 2),
                0.0, f, epsabs=1e-15, epsrel=1e-14)[0]
            worst_F = max(worst_F, abs(incomplete_F(f, q) - ref_F))
            worst_E = max(worst_E, abs(incomplete_E(f, q) - ref_E))
    vals.append(("F vs quadrature", worst_F, 1e-12))
    vals.append(("E vs quadrature", worst_E, 1e-12))
    _report(12, vals)
