"""Frenet ODE integration as an independent route to the same curves."""

import math

import numpy as np
import pytest

from sphericurve import oracle
from sphericurve.families import closed_form, family_law
from sphericurve.oracle import (
    FrenetState,
    _rk4_step,
    curvature_from_trace,
    frenet_integrate,
    initial_state,
)
from sphericurve.reconstruct import CurveTrace
from sphericurve.specfun import complete_K


class TestInitialState:
    def test_meridian_gauge(self):
        K = family_law("great-circle", {"c": 0.0})
        st = initial_state(K, z0=0.0)
        assert np.allclose(st.xi, [1.0, 0.0, 0.0], atol=1e-14)
        assert np.allclose(st.t, [0.0, 0.0, 1.0], atol=1e-14)

    def test_z0_outside_interval(self):
        K = family_law("small-circle", {"k0": 1.0, "c": 0.3})
        with pytest.raises(ValueError, match="inside the interval"):
            initial_state(K, z0=0.99)

    def test_bad_dz_sign(self):
        K = family_law("great-circle", {"c": 0.0})
        with pytest.raises(ValueError, match="dz_sign0"):
            initial_state(K, z0=0.0, dz_sign0=0)

    def test_from_vectors_validation(self):
        ok = FrenetState.from_vectors([1.0, 0, 0], [0, 1.0, 0])
        assert np.allclose(ok.xi, [1, 0, 0])
        with pytest.raises(ValueError, match="unit"):
            FrenetState.from_vectors([2.0, 0, 0], [0, 1.0, 0])
        with pytest.raises(ValueError, match="unit"):
            FrenetState.from_vectors([1.0, 0, 0], [0, 2.0, 0])
        with pytest.raises(ValueError, match="orthogonal"):
            FrenetState.from_vectors(
                [1.0, 0, 0], [0.1, math.sqrt(1.0 - 0.01), 0])

    @pytest.mark.parametrize("xi,t", [
        ([math.nan, 0, 0], [0, 1.0, 0]),
        ([1.0, 0, 0], [0, math.nan, 0]),
        ([1.0, 0, math.inf], [0, 1.0, 0])])
    def test_from_vectors_rejects_non_finite(self, xi, t):
        # NaN compares False against every tolerance, so it used to pass
        with pytest.raises(ValueError, match="finite"):
            FrenetState.from_vectors(xi, t)

    @pytest.mark.parametrize("lambda0", [math.nan, math.inf])
    def test_non_finite_lambda0_rejected(self, lambda0):
        # it gave an all-NaN trace that reported no halt
        K = family_law("seiffert", {"p": 0.7})
        with pytest.raises(ValueError, match="lambda0 must be finite"):
            initial_state(K, z0=0.0, lambda0=lambda0)


class TestMeridian:
    def test_matches_exact_great_circle(self):
        K = family_law("great-circle", {"c": 0.0})
        init = initial_state(K, z0=0.0)
        tr = frenet_integrate(K.law, init, 2.0 * math.pi, ds=1e-3)
        want = np.column_stack(
            [np.cos(tr.s), np.zeros_like(tr.s), np.sin(tr.s)])
        assert np.max(np.abs(tr.xi - want)) < 1e-9
        assert not tr.meta["halted"]

    def test_curvature_identically_zero(self):
        K = family_law("great-circle", {"c": 0.0})
        tr = frenet_integrate(K.law, initial_state(K, z0=0.0),
                              2.0 * math.pi, ds=1e-3)
        kap = curvature_from_trace(tr)
        assert np.nanmax(np.abs(kap)) < 1e-8


class TestClosedFormAgreement:
    def test_seiffert_through_pole_passages(self):
        p = 0.7
        K0 = complete_K(p)
        K = family_law("seiffert", {"p": p})
        init = initial_state(K, z0=0.0, lambda0=p * K0, dz_sign0=-1)
        tr = frenet_integrate(K.law, init, 6.0, ds=1e-3)
        assert not tr.meta["halted"]
        _, _, want = closed_form("seiffert", {"p": p})(tr.s + K0)
        assert np.max(np.linalg.norm(tr.xi - want, axis=1)) < 1e-6

    def test_small_circle_constant_curvature(self):
        K = family_law("small-circle", {"k0": 2.0, "c": 1.5})
        tr = frenet_integrate(K.law, initial_state(K), 4.0, ds=1e-3)
        kap = curvature_from_trace(tr)
        ok = np.isfinite(kap)
        assert np.max(np.abs(kap[ok] - 2.0)) < 1e-6


class TestHalting:
    def test_stops_at_curvature_blowup(self):
        a = 0.6
        s_star = 0.5 * math.pi / math.sqrt(1.0 - a * a)
        K = family_law("loxodrome", {"a": a})
        tr = frenet_integrate(K.law, initial_state(K, z0=0.0), 6.0, ds=1e-3)
        assert tr.meta["halted"]
        assert "non-finite" in tr.meta["halt_reason"]
        assert abs(tr.meta["halt_s"]) <= s_star
        assert abs(abs(tr.meta["halt_s"]) - s_star) < 0.05
        # committed samples stop just short of the blow-up on both sides
        assert tr.s[-1] <= s_star and s_star - tr.s[-1] < 0.05
        assert tr.s[0] >= -s_star and tr.s[0] + s_star < 0.05

    def test_both_half_walks_report_their_halt(self):
        # halt_s keeps the last walk's value; halts has one per side
        K = family_law("loxodrome", {"a": 0.6})
        tr = frenet_integrate(K.law, initial_state(K, z0=0.0), 6.0, ds=1e-3)
        halts = tr.meta["halts"]
        assert halts["lo"] == pytest.approx(-1.962, abs=1e-12)
        assert halts["hi"] == pytest.approx(1.962, abs=1e-12)
        assert tr.meta["halt_s"] == halts["lo"]
        assert halts["lo"] == tr.s[0] and halts["hi"] == tr.s[-1]

    def test_no_halt_on_either_side(self):
        K = family_law("loxodrome", {"a": 0.6})
        tr = frenet_integrate(K.law, initial_state(K, z0=0.0), 2.0, ds=1e-3)
        assert not tr.meta["halted"]
        assert tr.meta["halts"] == {"lo": None, "hi": None}

    def test_validation(self):
        K = family_law("great-circle", {"c": 0.0})
        init = initial_state(K, z0=0.0)
        with pytest.raises(ValueError, match="s_span"):
            frenet_integrate(K.law, init, -1.0, ds=1e-3)
        with pytest.raises(ValueError, match="ds"):
            frenet_integrate(K.law, init, 1.0, ds=0.0)


class TestCurvatureFromTrace:
    def _trace(self, s):
        xi = np.column_stack([np.cos(s), np.sin(s), np.zeros_like(s)])
        return CurveTrace(s=s, z=xi[:, 2], phi=np.zeros_like(s), lam=s,
                          xi=xi, meta={})

    def test_rejects_nonuniform_grid(self):
        s = np.array([0.0, 0.1, 0.25, 0.3, 0.4])
        with pytest.raises(ValueError, match="uniform"):
            curvature_from_trace(self._trace(s))

    def test_rejects_short_trace(self):
        s = np.linspace(0.0, 0.3, 4)
        with pytest.raises(ValueError, match="at least 5"):
            curvature_from_trace(self._trace(s))

    def test_equator_curvature_zero(self):
        s = np.linspace(-1.0, 1.0, 201)
        kap = curvature_from_trace(self._trace(s))
        assert np.nanmax(np.abs(kap)) < 1e-9
        assert np.all(np.isnan(kap[:2])) and np.all(np.isnan(kap[-2:]))


def _reference_rk4_step(state, h, kfun):
    """The closure-and-generator RK4 step the straight-line one replaced."""

    def f(st):
        x0, x1, x2, t0, t1, t2 = st
        k = kfun(min(1.0, max(-1.0, x2)))
        if not math.isfinite(k):
            return None
        c0 = x1 * t2 - x2 * t1
        c1 = x2 * t0 - x0 * t2
        c2 = x0 * t1 - x1 * t0
        return (t0, t1, t2, -x0 + k * c0, -x1 + k * c1, -x2 + k * c2)

    k1 = f(state)
    if k1 is None:
        return None
    s2 = tuple(state[i] + 0.5 * h * k1[i] for i in range(6))
    k2 = f(s2)
    if k2 is None:
        return None
    s3 = tuple(state[i] + 0.5 * h * k2[i] for i in range(6))
    k3 = f(s3)
    if k3 is None:
        return None
    s4 = tuple(state[i] + h * k3[i] for i in range(6))
    k4 = f(s4)
    if k4 is None:
        return None
    out = tuple(
        state[i] + (h / 6.0) * (k1[i] + 2.0 * k2[i] + 2.0 * k3[i] + k4[i])
        for i in range(6)
    )
    x0, x1, x2, t0, t1, t2 = out
    nx = math.sqrt(x0 * x0 + x1 * x1 + x2 * x2)
    x0, x1, x2 = x0 / nx, x1 / nx, x2 / nx
    dot = x0 * t0 + x1 * t1 + x2 * t2
    t0, t1, t2 = t0 - dot * x0, t1 - dot * x1, t2 - dot * x2
    nt = math.sqrt(t0 * t0 + t1 * t1 + t2 * t2)
    return (x0, x1, x2, t0 / nt, t1 / nt, t2 / nt)


def _bits(out):
    return None if out is None else tuple(float(v).hex() for v in out)


def _random_states(n, seed):
    rng = np.random.default_rng(seed)
    xi = rng.normal(size=(n, 3))
    xi /= np.linalg.norm(xi, axis=1, keepdims=True)
    t = rng.normal(size=(n, 3))
    t -= np.einsum("ij,ij->i", t, xi)[:, None] * xi
    t /= np.linalg.norm(t, axis=1, keepdims=True)
    return [tuple(float(v) for v in row) for row in np.hstack([xi, t])]


def _recording(calls, value=0.5):
    def kfun(z):
        calls.append(z)
        return value
    return kfun


class TestRk4Step:
    @pytest.mark.parametrize("name,params", [
        ("small-circle", {"k0": 2.0, "c": 1.5}),
        ("seiffert", {"p": 0.7}),
        ("loxodrome", {"a": math.cos(math.pi / 4)}),
        ("loxo-super", {"a": 2.0}),
        ("catenary", {"a": 0.3}),
        ("sn-family", {"p": 0.4}),
        ("viviani", {}),
        ("clelia", {"n": 3.0}),
    ])
    def test_bit_identical_to_reference(self, name, params):
        kfun = family_law(name, params).law.scalar_kappa()
        for h in (1e-4, -1e-3, 0.05, -0.3):
            for state in _random_states(300, seed=len(name)):
                want = _bits(_reference_rk4_step(state, h, kfun))
                assert _bits(_rk4_step(state, h, kfun)) == want

    @pytest.mark.parametrize("bad", [math.nan, math.inf, -math.inf])
    @pytest.mark.parametrize("stage", [1, 2, 3, 4])
    def test_none_when_kappa_non_finite_at_any_stage(self, stage, bad):
        calls = []

        def kfun(z):
            calls.append(z)
            return bad if len(calls) == stage else 0.5

        state = _random_states(1, seed=3)[0]
        assert _rk4_step(state, 1e-2, kfun) is None
        assert len(calls) == stage

    @pytest.mark.parametrize("state,h,clamped", [
        ((0.0, 0.0, 1.5, 1.0, 0.0, 0.0), 1e-2, 1.0),
        ((0.0, 0.0, -1.5, 1.0, 0.0, 0.0), 1e-2, -1.0),
        ((0.0, 0.0, math.nan, 1.0, 0.0, 0.0), 1e-2, -1.0),
        ((math.sqrt(1.0 - 0.999 ** 2), 0.0, 0.999,
          -0.999, 0.0, math.sqrt(1.0 - 0.999 ** 2)), 0.2, 1.0),
        ((math.sqrt(1.0 - 0.999 ** 2), 0.0, -0.999,
          0.999, 0.0, math.sqrt(1.0 - 0.999 ** 2)), -0.2, -1.0),
    ])
    def test_stage_heights_clamped_as_min_max(self, state, h, clamped):
        got, want = [], []
        _rk4_step(state, h, _recording(got))
        _reference_rk4_step(state, h, _recording(want))
        assert [float(z).hex() for z in got] == [float(z).hex() for z in want]
        assert len(got) == 4 and clamped in got
        assert all(-1.0 <= z <= 1.0 for z in got)


def _substeps(grid, ds):
    """Substeps per segment of both half-walks, as frenet_integrate cuts them."""
    out = []
    for half in (grid[grid > 0.0], grid[grid < 0.0][::-1]):
        cur = 0.0
        for st in map(float, half):
            out.append(max(1, int(math.ceil(abs(st - cur) / ds - 1e-12))))
            cur = st
    return out


class TestStepCounter:
    def test_counts_every_substep(self):
        K = family_law("seiffert", {"p": 0.7})
        init = initial_state(K, z0=0.0, dz_sign0=-1)
        tr = frenet_integrate(K.law, init, 6.0, 1e-4, n_samples=401)
        want = sum(_substeps(np.linspace(-3.0, 3.0, 401), 1e-4))
        assert tr.meta["stats"] == {"rk4_steps": want}

    def test_stops_at_the_halt(self, monkeypatch):
        calls = []

        def counted(state, h, kfun):
            calls.append(h)
            return _rk4_step(state, h, kfun)

        monkeypatch.setattr(oracle, "_rk4_step", counted)
        K = family_law("loxodrome", {"a": 0.6})
        tr = frenet_integrate(K.law, initial_state(K, z0=0.0), 6.0, 1e-3,
                              n_samples=601)
        assert set(_substeps(np.linspace(-3.0, 3.0, 601), 1e-3)) == {10}
        # both half-walks halt: ten steps per committed sample off s = 0,
        # then part of the next gap, the failed step included
        assert tr.meta["halted"] and -3.0 < tr.s[0] and tr.s[-1] < 3.0
        done = 10 * int(np.count_nonzero(tr.s != 0.0))
        n = tr.meta["stats"]["rk4_steps"]
        assert n == len(calls)
        assert done + 2 <= n <= done + 20
