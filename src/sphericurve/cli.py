"""Command line interface.

Subcommands: family-list, sample, reconstruct, oracle, verify, compare.
Data (CSV or JSON) goes to stdout or --output; informational messages go
to stderr.  Exit codes: 0 success or verdict pass, 1 verdict fail,
2 usage or domain error.
"""

from __future__ import annotations

import argparse
import contextlib
import json
import math
import sys
from types import SimpleNamespace

import numpy as np

from .families import closed_form, family_law, family_names
from .laws import admissible_intervals
from .oracle import frenet_integrate, initial_state
from .reconstruct import ReconstructionConfig, _widest, reconstruct
from .verify import Thresholds, compare_traces, verify_trace

_CSV_HEADER = "s,z,phi,lambda,x,y,zc"
_CSV_ROW = ",".join(["%.17g"] * 7) + "\n"
_CSV_BLOCK = 4096  # rows formatted per call


def _write_csv(trace, stream) -> None:
    stream.write(_CSV_HEADER + "\n")
    rows = np.column_stack([trace.s, trace.z, trace.phi, trace.lam, trace.xi])
    for i in range(0, len(rows), _CSV_BLOCK):
        block = rows[i:i + _CSV_BLOCK]
        stream.write(_CSV_ROW * len(block) % tuple(block.ravel().tolist()))


def _read_csv(path: str):
    with open(path, "r", encoding="utf-8") as fh:
        header = fh.readline().strip()
        if header != _CSV_HEADER:
            raise ValueError(
                f"{path}: expected header '{_CSV_HEADER}', got '{header}'"
            )
        data = np.loadtxt(fh, delimiter=",", ndmin=2)
    if data.shape[1] != 7:
        raise ValueError(f"{path}: expected 7 columns")
    return SimpleNamespace(
        s=data[:, 0], z=data[:, 1], phi=data[:, 2], lam=data[:, 3],
        xi=data[:, 4:7],
    )


def _parse_params(items) -> dict:
    params = {}
    for item in items or []:
        if "=" not in item:
            raise ValueError(f"--param expects key=value, got '{item}'")
        key, _, val = item.partition("=")
        try:
            params[key.strip()] = float(val)
        except ValueError:
            raise ValueError(f"--param {key}: '{val}' is not a number")
    return params


def _law_from_args(args):
    params = _parse_params(getattr(args, "param", None))
    return family_law(args.family, params, c=getattr(args, "c", None))


def _interval_from_args(K, args):
    ivs = admissible_intervals(K)
    idx = getattr(args, "interval_index", None)
    if idx is None or not ivs:
        return _widest(ivs)
    if not 0 <= idx < len(ivs):
        raise ValueError(
            f"--interval-index {idx} out of range; {len(ivs)} interval(s)"
        )
    return ivs[idx]


def _output(args):
    """The data stream as a context: --output, opened by this call (made
    after the data is computed, so an error leaves no file), else stdout,
    left open."""
    if getattr(args, "output", None):
        return open(args.output, "w", encoding="utf-8")
    return contextlib.nullcontext(sys.stdout)


def _add_family_opts(p, with_c=True):
    p.add_argument("--family", required=True, choices=family_names())
    p.add_argument("--param", action="append", metavar="KEY=VALUE",
                   help="family parameter, repeatable")
    if with_c:
        p.add_argument("--c", type=float, default=None,
                       help="momentum constant (families that admit one)")


def _add_gauge_opts(p):
    p.add_argument("--z0", type=float, default=None,
                   help="height at s=0 (default: interval midpoint)")
    p.add_argument("--lambda0", type=float, default=0.0)
    p.add_argument("--dz-sign", type=int, choices=(1, -1), default=1,
                   dest="dz_sign")


def _build_parser():
    ap = argparse.ArgumentParser(
        prog="sphericurve",
        description="Spherical curves from prescribed geodesic curvature",
    )
    sub = ap.add_subparsers(dest="command", required=True)

    sub.add_parser("family-list", help="list known curve families")

    p = sub.add_parser("sample", help="sample a closed-form curve to CSV")
    _add_family_opts(p)
    p.add_argument("--s-span", type=float, default=2.0 * math.pi)
    p.add_argument("--n", type=int, default=801)
    p.add_argument("--output", default=None)

    p = sub.add_parser("reconstruct",
                       help="reconstruct a curve from its momentum law")
    _add_family_opts(p)
    p.add_argument("--interval-index", type=int, default=None,
                   help="admissible interval (default: the widest, ties upward)")
    _add_gauge_opts(p)
    p.add_argument("--s-span", type=float, default=2.0 * math.pi)
    p.add_argument("--n", type=int, default=801)
    p.add_argument("--quad-tol", type=float, default=1e-10)
    p.add_argument("--lambda-cap", type=float, default=None)
    p.add_argument("--output", default=None)

    p = sub.add_parser("oracle", help="integrate the curvature ODE to CSV")
    _add_family_opts(p)
    p.add_argument("--interval-index", type=int, default=None)
    _add_gauge_opts(p)
    p.add_argument("--s-span", type=float, default=2.0 * math.pi)
    p.add_argument("--ds", type=float, default=1e-3)
    p.add_argument("--n", type=int, default=801)
    p.add_argument("--output", default=None)

    p = sub.add_parser("verify",
                       help="reconstruct, check invariants, report")
    _add_family_opts(p)
    p.add_argument("--interval-index", type=int, default=None)
    _add_gauge_opts(p)
    p.add_argument("--s-span", type=float, default=2.0 * math.pi)
    p.add_argument("--n", type=int, default=801)
    p.add_argument("--quad-tol", type=float, default=1e-10)
    p.add_argument("--format", choices=("json", "text"), default="json")
    p.add_argument("--output", default=None)

    p = sub.add_parser("compare", help="largest distance between two CSVs")
    p.add_argument("csv_a")
    p.add_argument("csv_b")
    p.add_argument("--tol", type=float, default=1e-6)

    return ap


def _cmd_family_list(_args) -> int:
    for name in family_names():
        print(name)
    return 0


def _cmd_sample(args) -> int:
    curve = closed_form(args.family, _parse_params(args.param))
    if getattr(args, "c", None) is not None:
        raise ValueError("sample uses the family's own momentum constant; "
                         "set it through --param")
    s = np.linspace(-0.5 * args.s_span, 0.5 * args.s_span, args.n)
    trace = curve.trace(s)
    with _output(args) as out:
        _write_csv(trace, out)
    return 0


def _cmd_reconstruct(args) -> int:
    K = _law_from_args(args)
    iv = _interval_from_args(K, args)
    cfg = ReconstructionConfig(
        s_span=args.s_span, n_samples=args.n, quad_tol=args.quad_tol,
        z0=args.z0, lambda0=args.lambda0, dz_sign0=args.dz_sign,
        lambda_cap=args.lambda_cap,
    )
    trace = reconstruct(K, cfg, interval=iv)
    print(
        f"interval [{iv.z_lo:.6g}, {iv.z_hi:.6g}] "
        f"({iv.lo_kind} / {iv.hi_kind}), {len(trace)} samples, "
        f"{len(trace.meta['events'])} event(s)",
        file=sys.stderr,
    )
    with _output(args) as out:
        _write_csv(trace, out)
    return 0


def _cmd_oracle(args) -> int:
    K = _law_from_args(args)
    iv = _interval_from_args(K, args)
    init = initial_state(K, z0=args.z0, lambda0=args.lambda0,
                         dz_sign0=args.dz_sign, interval=iv)
    trace = frenet_integrate(K.law, init, args.s_span, args.ds,
                             n_samples=args.n)
    if trace.meta.get("halted"):
        print(
            f"halted at s = {trace.meta['halt_s']:.6g}: "
            f"{trace.meta['halt_reason']}",
            file=sys.stderr,
        )
    with _output(args) as out:
        _write_csv(trace, out)
    return 0


def _cmd_verify(args) -> int:
    K = _law_from_args(args)
    iv = _interval_from_args(K, args)
    cfg = ReconstructionConfig(
        s_span=args.s_span, n_samples=args.n, quad_tol=args.quad_tol,
        z0=args.z0, lambda0=args.lambda0, dz_sign0=args.dz_sign,
    )
    trace = reconstruct(K, cfg, interval=iv)
    report = verify_trace(trace, K, Thresholds())
    payload = {
        "law": K.law.kind,
        "params": {k: float(v) for k, v in K.law.params.items()},
        "c": float(K.c),
        "interval": {
            "z_lo": iv.z_lo, "z_hi": iv.z_hi,
            "lo_kind": iv.lo_kind, "hi_kind": iv.hi_kind,
        },
        "residuals": report.to_dict()["residuals"],
        "verdict": report.verdict,
    }
    with _output(args) as out:
        if args.format == "json":
            out.write(json.dumps(payload, indent=2) + "\n")
        else:
            out.write(f"law       {payload['law']}\n")
            out.write(f"params    {payload['params']}\n")
            out.write(f"c         {payload['c']:.17g}\n")
            out.write(
                f"interval  [{iv.z_lo:.17g}, {iv.z_hi:.17g}] "
                f"{iv.lo_kind}/{iv.hi_kind}\n"
            )
            for name, val in payload["residuals"].items():
                out.write(f"{name:<9} {val:.3e}\n")
            out.write(f"verdict   {payload['verdict']}\n")
    return 0 if report.verdict == "pass" else 1


def _cmd_compare(args) -> int:
    a = _read_csv(args.csv_a)
    b = _read_csv(args.csv_b)
    dist = compare_traces(a, b)
    print("%.17g" % dist)
    return 0 if dist <= args.tol else 1


def main(argv=None) -> int:
    ap = _build_parser()
    args = ap.parse_args(argv)
    handlers = {
        "family-list": _cmd_family_list,
        "sample": _cmd_sample,
        "reconstruct": _cmd_reconstruct,
        "oracle": _cmd_oracle,
        "verify": _cmd_verify,
        "compare": _cmd_compare,
    }
    try:
        return handlers[args.command](args)
    except ValueError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except OSError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
