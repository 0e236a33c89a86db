"""The four benchmark workloads: generated inputs, timed operation, reference.

Each workload turns (seed, pass index) into a list of cases.  A case is
run in three steps: ``prepare`` (untimed: builds what the operation is
handed), ``run`` (timed: calls into sphericurve through module attributes,
so the tracer's wrappers are seen) and ``check`` (untimed: compares the
output with an independent reference and returns the error and whether
it is within the case's bound).

The sphericurve modules are looked up on every call instead of imported
by name, because the traced run replaces their attributes.
"""

from __future__ import annotations

import importlib
import math
import os
from dataclasses import dataclass, field
from typing import Optional

import numpy as np

from sphericurve.specfun import complete_K

# import_module, because the package's own name `reconstruct` is the
# function, which hides the submodule from `import ... as`
sc_cli = importlib.import_module("sphericurve.cli")
sc_families = importlib.import_module("sphericurve.families")
sc_laws = importlib.import_module("sphericurve.laws")
sc_oracle = importlib.import_module("sphericurve.oracle")
sc_reconstruct = importlib.import_module("sphericurve.reconstruct")
sc_verify = importlib.import_module("sphericurve.verify")

REF_DS = 1e-3          # oracle step for the sweep and hard references
ORACLE_DS = 1e-4       # oracle step timed by the oracle workload
ORACLE_N = 401
SWEEP_N = 801
LONG_SPAN, LONG_N = 200.0, 40001
SPIRALS_PER_PASS = 8    # enough that the median falls among them, not at an edge
CURVE_BOUND = 1e-6     # distance to the oracle or to a closed-form relation
SN_LAM_BOUND = 1e-5    # criterion 8's longitude bound on sn-family windows

CSV_HEADER = "s,z,phi,lambda,x,y,zc"


@dataclass
class Case:
    key: str                      # stable name; known failures refer to it
    family: str
    params: dict
    span: float
    n: int
    z0: Optional[float] = None
    dz: int = 1
    quad_tol: float = 1e-10
    ref: str = "oracle"           # which reference check() applies
    argv: list = field(default_factory=list)


@dataclass
class Outcome:
    """What a timed operation hands to the check."""

    trace: object = None
    K: object = None
    interval: object = None
    verdict: Optional[str] = None
    samples: int = 0


def _key(family, params):
    tail = " ".join(f"{k}={v:.6g}" for k, v in sorted(params.items()))
    return f"{family} {tail}".strip()


def _interval_for(K, z0):
    """The admissible interval holding z0, or None to let reconstruct pick."""
    if z0 is None:
        return None
    for iv in sc_laws.admissible_intervals(K):
        if iv.z_lo < z0 < iv.z_hi:
            return iv
    raise ValueError(f"no admissible interval contains z0={z0}")


def _cfg(case):
    return sc_reconstruct.ReconstructionConfig(
        s_span=case.span, n_samples=case.n, quad_tol=case.quad_tol,
        z0=case.z0, dz_sign0=case.dz)


def _oracle_gap(K, iv, case, trace, ds):
    init = sc_oracle.initial_state(K, z0=case.z0, dz_sign0=case.dz,
                                   interval=iv)
    orc = sc_oracle.frenet_integrate(K.law, init, case.span, ds,
                                     n_samples=case.n)
    if orc.meta["halted"] or orc.xi.shape != np.shape(trace.xi):
        return math.inf
    return float(np.max(np.linalg.norm(orc.xi - trace.xi, axis=1)))


def _sn_closed_form_err(case, trace):
    """Criterion 8: z and longitude against the closed form, off contacts."""
    _, lam_cf, xi_cf = sc_families.closed_form("sn-family", case.params)(trace.s)
    ok = np.ones(trace.s.size, dtype=bool)
    ok[trace.meta["spiral_samples"]] = False
    z_err = float(np.max(np.abs(trace.z[ok] - xi_cf[ok, 2])))
    lam_err = float(np.max(np.abs(trace.lam[ok] - lam_cf[ok])))
    return max(z_err, lam_err), z_err <= CURVE_BOUND and lam_err <= SN_LAM_BOUND


# -- sweep: short windows on every family ----------------------------------

# Gauges and spans of acceptance criteria 10 and 11; parameters are drawn
# inside each family's acceptance-test box.
def _sweep_case(rng, name):
    u = rng.uniform
    if name == "great-circle":
        return {"c": u(0.0, 0.9)}, 4.0, None, 1
    if name in ("small-circle", "constant"):
        k0 = u(1.0, 2.0)
        return {"k0": k0, "c": u(0.0, 0.75 * math.sqrt(1.0 + k0 * k0))}, 4.0, None, 1
    if name == "seiffert":
        return {"p": u(0.3, 0.95)}, 6.0, 0.0, -1
    if name == "borderline":
        return {"a": u(0.75, 2.0)}, 4.0, 0.5, 1
    if name == "loxodrome":
        alpha = u(math.pi / 6.0, math.pi / 3.0)
        return {"a": math.cos(alpha)}, 0.9 * math.pi / math.sin(alpha), 0.0, 1
    if name == "loxo-one":
        a = u(0.4, 0.6)
        return {"a": a}, 1.6 * math.sqrt(a / (1.0 - a)), 0.0, 1
    if name == "loxo-super":
        return {"a": u(1.5, 2.0)}, 2.0, 0.2, 1
    if name == "catenary":
        return {"a": u(0.1, 0.45)}, 3.0, math.sqrt(0.5), 1
    if name == "sn-family":
        return {"p": u(0.4, 0.8)}, 2.8, 0.0, 1
    if name == "viviani":
        return {}, 4.0, 0.2, 1
    if name == "clelia":
        return {"n": math.exp(u(math.log(1.0 / 3.0), math.log(3.0)))}, 3.0, 0.1, 1
    if name == "elastica":
        return ({"a": u(0.8, 1.5), "b": u(-0.4, 0.3), "c": u(-1.0, 0.1)},
                3.0, None, 1)
    raise ValueError(f"sweep has no parameter box for family '{name}'")


def sweep_cases(rng):
    cases = []
    for name in sc_families.family_names():
        params, span, z0, dz = _sweep_case(rng, name)
        cases.append(Case(_key(name, params), name, params, span, SWEEP_N,
                          z0=z0, dz=dz))
    return cases


def sweep_run(case, _ctx):
    K = sc_families.family_law(case.family, case.params)
    iv = _interval_for(K, case.z0)
    tr = sc_reconstruct.reconstruct(K, _cfg(case), interval=iv)
    rep = sc_verify.verify_trace(tr, K)
    return Outcome(tr, K, iv, rep.verdict, len(tr))


def oracle_ref_check(case, out):
    gap = _oracle_gap(out.K, out.interval, case, out.trace, REF_DS)
    return gap, gap <= CURVE_BOUND


# -- long: 40 001-sample windows through the CLI ---------------------------

def long_cases(rng):
    p = 0.7
    K0 = complete_K(p)
    z_cat = math.sqrt(0.5)
    # criterion 3, 9 and 7 gauges; the catenary interval is the one that
    # holds z_cat (intervals come back in ascending order)
    cat_iv = next(i for i, iv in enumerate(sc_laws.admissible_intervals(
        sc_families.family_law("catenary", {"a": 0.3}))) if iv.z_lo < z_cat < iv.z_hi)
    common = ["--s-span", repr(LONG_SPAN), "--n", str(LONG_N)]
    cases = [
        Case("seiffert p=0.7", "seiffert", {"p": p}, LONG_SPAN, LONG_N,
             z0=0.0, dz=-1, ref="seiffert",
             argv=["--param", "p=0.7", "--z0", "0", "--dz-sign", "-1",
                   "--lambda0", repr(p * K0)]),
        Case("viviani", "viviani", {}, LONG_SPAN, LONG_N, z0=0.0,
             ref="viviani", argv=["--interval-index", "0", "--z0", "0"]),
        Case("catenary a=0.3", "catenary", {"a": 0.3}, LONG_SPAN, LONG_N,
             z0=z_cat, ref="catenary",
             argv=["--param", "a=0.3", "--interval-index", str(cat_iv),
                   "--z0", repr(z_cat)]),
    ]
    for c in cases:
        c.argv = ["reconstruct", "--family", c.family] + c.argv + common
    return [cases[i] for i in rng.permutation(len(cases))]


def long_prepare(case, out_dir):
    return os.path.join(out_dir, f"long_{os.getpid()}.csv")


def long_run(case, csv_path):
    rc = sc_cli.main(case.argv + ["--output", csv_path])
    if rc != 0:
        raise RuntimeError(f"sphericurve reconstruct exited with {rc}")
    return Outcome(trace=csv_path)


def _read_csv(path):
    with open(path, "r", encoding="utf-8") as fh:
        header = fh.readline().strip()
        if header != CSV_HEADER:
            raise ValueError(f"unexpected CSV header '{header}'")
        data = np.loadtxt(fh, delimiter=",", ndmin=2)
    return data


def long_check(case, out):
    try:
        d = _read_csv(out.trace)
    finally:
        os.remove(out.trace)
    s, z, phi, lam = d[:, 0], d[:, 1], d[:, 2], d[:, 3]
    out.samples = s.size
    if s.size != case.n:
        return math.inf, False
    if case.ref == "seiffert":  # criterion 3
        p = case.params["p"]
        K0 = complete_K(p)
        _, lam_cf, xi_cf = sc_families.closed_form("seiffert", case.params)(s + K0)
        err = max(float(np.max(np.abs(z - xi_cf[:, 2]))),
                  float(np.max(np.abs(lam - lam_cf))))
    elif case.ref == "viviani":  # criterion 9: phi = n * lambda, n = 1
        err = float(np.max(np.abs(phi - lam)))
    else:  # criterion 7: z^2 = (1 + q sin 2s) / 2
        q = math.sqrt(1.0 - 4.0 * case.params["a"] ** 2)
        err = float(np.max(np.abs(z ** 2 - 0.5 * (1.0 + q * np.sin(2.0 * s)))))
    return err, err <= CURVE_BOUND


# -- hard: spiral contacts, the scaled cliff, near-degenerate laws ---------

def hard_cases(rng):
    cases = []
    for p in rng.uniform(0.4, 0.9, SPIRALS_PER_PASS):
        cases.append(Case(f"spiral sn-family p={p:.6g}", "sn-family", {"p": p},
                          4.0 * complete_K(p), 1601, z0=0.0, ref="sn"))
    cases.append(Case("cliff sn-family p=0.999 s_span=10 quad_tol=1e-8",
                      "sn-family", {"p": 0.999}, 10.0, 2001, z0=0.0,
                      quad_tol=1e-8, ref="sn"))
    nu = math.sqrt(1.0 - 0.999 ** 2)
    for family, params, span, z0, dz in (
            ("borderline", {"a": 0.5001}, 4.0, None, 1),
            ("borderline", {"a": 0.501}, 4.0, None, 1),
            ("catenary", {"a": 0.499}, 3.0, math.sqrt(0.5), 1),
            ("seiffert", {"p": 0.999}, 6.0, 0.0, -1),
            ("loxodrome", {"a": 0.999}, 0.9 * math.pi / nu, 0.0, 1),
            ("clelia", {"n": 0.05}, 3.0, 0.1, 1),
            ("clelia", {"n": 20.0}, 3.0, 0.1, 1)):
        cases.append(Case(_key(family, params), family, params, span, SWEEP_N,
                          z0=z0, dz=dz))
    return [cases[i] for i in rng.permutation(len(cases))]


def law_prepare(case, _out_dir):
    return sc_families.family_law(case.family, case.params)


def hard_run(case, K):
    iv = _interval_for(K, case.z0)
    tr = sc_reconstruct.reconstruct(K, _cfg(case), interval=iv)
    rep = sc_verify.verify_trace(tr, K)
    return Outcome(tr, K, iv, rep.verdict, len(tr))


def hard_check(case, out):
    if case.ref == "sn":
        return _sn_closed_form_err(case, out.trace)
    return oracle_ref_check(case, out)


# -- oracle: the RK4 Frenet integrator on criterion 11's fixtures ----------

def oracle_cases(rng):
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
    cases = [Case(_key(f, p), f, p, span, ORACLE_N, z0=z0, dz=dz)
             for f, p, span, z0, dz in fixtures]
    return [cases[i] for i in rng.permutation(len(cases))]


def oracle_prepare(case, _out_dir):
    K = sc_families.family_law(case.family, case.params)
    iv = _interval_for(K, case.z0)
    init = sc_oracle.initial_state(K, z0=case.z0, dz_sign0=case.dz, interval=iv)
    return K, iv, init


def oracle_run(case, ctx):
    K, iv, init = ctx
    orc = sc_oracle.frenet_integrate(K.law, init, case.span, ORACLE_DS,
                                     n_samples=case.n)
    if orc.meta["halted"]:
        raise RuntimeError(f"oracle halted: {orc.meta['halt_reason']}")
    return Outcome(orc, K, iv, None, len(orc))


def oracle_check(case, out):
    tr = sc_reconstruct.reconstruct(out.K, _cfg(case), interval=out.interval)
    if tr.xi.shape != out.trace.xi.shape:
        return math.inf, False
    gap = float(np.max(np.linalg.norm(tr.xi - out.trace.xi, axis=1)))
    return gap, gap <= CURVE_BOUND


@dataclass(frozen=True)
class Workload:
    cases: object      # rng -> [Case]
    prepare: object    # (case, out_dir) -> context handed to run
    run: object        # (case, context) -> Outcome, timed
    check: object      # (case, Outcome) -> (error, within bound)
    has_verdict: bool


WORKLOADS = {
    "sweep": Workload(sweep_cases, lambda case, _d: None, sweep_run,
                      oracle_ref_check, True),
    "long": Workload(long_cases, long_prepare, long_run, long_check, False),
    "hard": Workload(hard_cases, law_prepare, hard_run, hard_check, True),
    "oracle": Workload(oracle_cases, oracle_prepare, oracle_run, oracle_check,
                       False),
}
