"""sphericurve benchmark: one workload, one closed-loop client, one process.

    python3 perfbench/run.py --workload sweep --seed 1 --seconds 15 --trace 0
    python3 perfbench/run.py --workload all --seed 1     # each workload in turn

Run from the root of a checkout; the package is imported from ./src.
With --trace 0 it times operations with no wrappers installed and prints
the end-to-end metrics.  With --trace 1 it repeats the seed's first
pass, running every case once plain and once under the tracer, and
prints the per-layer metrics.  Every output is checked against an
independent reference outside the timed region.  Timings are scaled
by calibration loops to cancel CPU speed drift (see CAL_REF_S).  The
last line of standard output is one JSON object; a record of the run,
and in traced runs the spans, are written under perfbench/out/.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import platform
import resource
import signal
import statistics
import subprocess
import sys
import tempfile
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
OUT = HERE / "out"

DEADLINE_S = 30.0      # per operation; the slowest healthy one takes ~5 s
RUN_BUDGET_S = 45.0    # no new case starts after this; keeps a run under 180 s
SETUP_PROBES = 7
WORKLOAD_NAMES = ("sweep", "long", "hard", "oracle")
PANEL_POINTS = 7 + 15  # integrand points per Gauss-Kronrod panel in gauss_batch

# On a shared 2-core virtual machine the CPU speed drifts by 20-30 % over
# tens of seconds (a fixed pure-Python loop timed in 10 s blocks spreads
# that much), which swamps any change worth measuring between runs.  So
# fixed calibration loops are timed before and after every operation and
# set-up probe, and each pass's times (the set-up probes count as one
# pass) are scaled by CAL_REF_S over the median of that pass's loop
# timings: they become seconds of a machine on which the loops take
# CAL_REF_S.  Raw wall times are printed and recorded too.
CAL_ITERATIONS = 20000
CAL_NUMPY_ITERATIONS = 60
CAL_REF_S = 3.3e-3
SCALED = ("setup_s", "ops_per_s", "samples_per_s", "latency_p50_ms",
          "latency_tail_ms")


class Overrun(BaseException):
    """Raised by the alarm; a BaseException so library handlers pass it on."""


def _alarm(_signum, _frame):
    raise Overrun()


def _pin_threads():
    for var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS",
                "NUMEXPR_NUM_THREADS"):
        os.environ[var] = "1"


def _import_package():
    """Import sphericurve from the checkout's src/, and nowhere else."""
    if not (SRC / "sphericurve" / "__init__.py").is_file():
        sys.exit(f"error: no sphericurve package under {SRC}")
    sys.path.insert(0, str(SRC))
    import sphericurve

    if Path(sphericurve.__file__).resolve().parent != SRC / "sphericurve":
        sys.exit(f"error: sphericurve imported from {sphericurve.__file__}")


def _loop_seconds():
    """Geometric mean of one timing each of the two calibration loops: a
    pure-Python float loop and a small NumPy one.  Interpreter-bound and
    array-bound code slow down by different amounts when the host is
    busy; the mean tracks the operations, which mix both."""
    import numpy as np

    t0 = time.perf_counter()
    a, v = 0.3, 0.0
    for _ in range(CAL_ITERATIONS):
        a += 0.001 * (math.sin(a) * v - a)
        v -= 0.001 * a
    t1 = time.perf_counter()
    x = np.linspace(0.0, 1.0, 4096)
    for _ in range(CAL_NUMPY_ITERATIONS):
        np.sqrt(np.sin(x) ** 2 + 1.0).sum()
    return math.sqrt((t1 - t0) * (time.perf_counter() - t1))


def _pass_rng(seed, index):
    import numpy as np

    return np.random.default_rng([seed, index])


def _timed(fn, *args):
    """(seconds, outcome or None, status, message) with a wall deadline."""
    signal.setitimer(signal.ITIMER_REAL, DEADLINE_S)
    t0 = time.perf_counter()
    try:
        out, status, msg = fn(*args), "ok", ""
    except Overrun:
        out, status, msg = None, "overrun", f"over the {DEADLINE_S:g} s deadline"
    except Exception as exc:  # an operation that raises is a failed operation
        out, status, msg = None, "raised", f"{type(exc).__name__}: {exc}"
    finally:
        signal.setitimer(signal.ITIMER_REAL, 0.0)
    dt = time.perf_counter() - t0
    if status == "overrun":
        dt = max(dt, DEADLINE_S)
    return dt, out, status, msg


def _operation(wl, case, tmp, tracer=None):
    """Prepare, run (timed) and check one case; returns its record."""
    before = _loop_seconds()
    ctx = wl.prepare(case, tmp)
    if tracer is not None:
        tracer.install(case.key)
    try:
        dt, out, status, msg = _timed(wl.run, case, ctx)
    finally:
        if tracer is not None:
            tracer.uninstall()
    # a long operation gets more samples after it, so its pass has enough
    cal = [before] + [_loop_seconds() for _ in range(1 + min(7, int(dt / 0.5)))]
    err = None
    if status == "ok":
        _, res, check_status, check_msg = _timed(wl.check, case, out)
        if check_status == "ok":
            err, within = res
        else:  # a reference that cannot be formed counts as a miss
            err, within, msg = math.inf, False, f"check {check_status}: {check_msg}"
        if not within:
            status = "miss"
    return {
        "case": case.key, "wall_s": dt, "cal_s": cal,
        "status": status, "message": msg,
        "error": err, "samples": out.samples if out is not None else 0,
        "verdict": out.verdict if out is not None else None,
    }


def _tail(lat, pct):
    """Nearest-rank percentile pct of the latencies, and how many lie beyond.

    Each workload fixes pct in schema.json as the highest percentile with
    at least ten operations beyond it in a run of --seconds; fixing it,
    instead of deriving it from the count, keeps the value comparable
    between runs that complete different numbers of passes."""
    lat = sorted(lat)
    i = max(0, math.ceil(pct / 100.0 * len(lat)) - 1)
    return lat[i], len(lat) - 1 - i


def _src_lines():
    return sum(len(p.read_text(encoding="utf-8").splitlines())
               for p in sorted((SRC / "sphericurve").glob("*.py")))


def _setup_seconds(args):
    """Wall times of fresh processes from spawn to ready, and calibrations."""
    times, cal = [], []
    cmd = [sys.executable, str(Path(__file__).resolve()), "--probe",
           "--workload", args.workload, "--seed", str(args.seed)]
    for _ in range(SETUP_PROBES):
        cal.append(_loop_seconds())
        t0 = time.perf_counter()
        with subprocess.Popen(cmd, stdout=subprocess.PIPE, cwd=ROOT,
                              text=True) as proc:
            line = proc.stdout.readline().strip()
            times.append(time.perf_counter() - t0)
            proc.stdout.read()
            rc = proc.wait(timeout=60)
        if line != "ready" or rc != 0:
            sys.exit(f"error: set-up probe failed (exit {rc})")
        cal.append(_loop_seconds())
    return times, cal


def _probe(args):
    """Everything a run does before its first timed operation."""
    from workloads import WORKLOADS

    wl = WORKLOADS[args.workload]
    with tempfile.TemporaryDirectory(dir=OUT) as tmp:
        for case in wl.cases(_pass_rng(args.seed, 0)):
            wl.prepare(case, tmp)
    print("ready", flush=True)


def _plain_run(wl, args, tmp):
    """Closed loop over whole passes until --seconds of timed work."""
    ops, timed, index, start = [], 0.0, 0, time.perf_counter()
    while timed < args.seconds:
        for case in wl.cases(_pass_rng(args.seed, index)):
            if time.perf_counter() - start > RUN_BUDGET_S:
                return ops
            rec = _operation(wl, case, tmp)
            rec["pass"] = index
            ops.append(rec)
            timed += rec["wall_s"]
        index += 1
    return ops


def _traced_run(wl, args, tmp, tracer):
    """Rounds over the first pass until --seconds of timed work.

    Each case runs plain and traced back to back, plain first on even
    positions, so the two totals give the tracing overhead.  Counters are
    taken per whole round; a round cut by the run budget is kept only
    when it is the sole one.
    """
    cases = wl.cases(_pass_rng(args.seed, 0))
    plain, traced, rounds = [], [], []
    timed, start = 0.0, time.perf_counter()
    while not rounds or timed < args.seconds:
        for i, case in enumerate(cases):
            if time.perf_counter() - start > RUN_BUDGET_S:
                if not rounds:
                    rounds.append(tracer.take())
                return plain, traced, rounds
            for use in ((None, tracer) if i % 2 == 0 else (tracer, None)):
                rec = _operation(wl, case, tmp, use)
                rec["pass"] = len(rounds)
                (plain if use is None else traced).append(rec)
                timed += rec["wall_s"]
        rounds.append(tracer.take())
    return plain, traced, rounds


def _layer_metrics(rounds, plain, traced, schema):
    """Counters of the first round, self times as medians over rounds."""
    counters = rounds[0][0]
    values = {}
    for m in schema["per_layer"]:
        layer, _, what = m["name"].rpartition(".")
        if what == "self_s":
            values[m["name"]] = statistics.median(r[1].get(layer, 0.0)
                                                  for r in rounds)
        elif m["name"] == "quad.gauss_batch.rounds":
            values[m["name"]] = counters.get("quad.gauss_batch.evals", 0) // 2
        elif m["name"] == "quad.gauss_batch.useful_ratio":
            evaluated = counters.get("quad.gauss_batch.points", 0) / PANEL_POINTS
            live = counters.get("quad.gauss_batch.intervals", 0)
            values[m["name"]] = ((evaluated + live) / (2.0 * evaluated)
                                 if evaluated else 0.0)
        elif m["name"] == "trace.overhead_share":
            base = sum(r["seconds"] for r in plain)
            values[m["name"]] = sum(r["seconds"] for r in traced) / base - 1.0
        else:
            values[m["name"]] = counters.get(m["name"], 0)
    repeat = all(r[0] == counters for r in rounds)
    return values, repeat


def _scale_by_pass(ops, enabled):
    """Scaled time = wall time * CAL_REF_S / median calibration of its pass,
    or the wall time itself for a workload whose speed does not follow the
    calibration loops (schema.json: scale_ops)."""
    cal = {}
    for r in ops:
        cal.setdefault(r["pass"], []).extend(r["cal_s"])
    for r in ops:
        r["scale"] = CAL_REF_S / statistics.median(cal[r["pass"]]) if enabled else 1.0
        r["seconds"] = r["wall_s"] * r["scale"]


def _e2e_metrics(ops, wl, tail_pct, key="seconds"):
    """Rates are medians over passes, so one disturbed pass cannot move them.

    key picks the scaled ("seconds") or the raw ("wall_s") timings."""
    passes = {}
    for r in ops:
        passes.setdefault(r["pass"], []).append(r)
    rates = []
    for group in passes.values():
        timed = sum(r[key] for r in group)
        done = sum(r["status"] in ("ok", "miss") for r in group)
        rates.append((done / timed, sum(r["samples"] for r in group) / timed))
    lat = [r[key] for r in ops]
    tail, beyond = _tail(lat, tail_pct)
    errs = [r["error"] for r in ops if r["error"] is not None]
    out = {
        "ops_per_s": statistics.median(r[0] for r in rates),
        "samples_per_s": statistics.median(r[1] for r in rates),
        "latency_p50_ms": 1e3 * statistics.median(lat),
        "latency_tail_ms": 1e3 * tail,
        "fail_share": sum(r["status"] != "ok" for r in ops) / len(ops),
        "ref_err_max": max(errs) if errs else math.inf,
    }
    if wl.has_verdict:
        out["verify_pass_share"] = sum(r["verdict"] == "pass" for r in ops) / len(ops)
    out["peak_rss_mb"] = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    return out, {"percentile": tail_pct, "ops": len(lat), "beyond": beyond,
                 "passes": len(passes)}


def _write_spans(tracer, path):
    with open(path, "w", encoding="utf-8") as fh:
        for sid, parent, name, op, t0, t1 in tracer.spans:
            fh.write(json.dumps({"id": sid, "parent": parent, "name": name,
                                 "op": op, "start": t0, "end": t1}) + "\n")


def _jsonable(v):
    if isinstance(v, float) and not math.isfinite(v):
        return str(v)
    if isinstance(v, dict):
        return {k: _jsonable(x) for k, x in v.items()}
    if isinstance(v, list):
        return [_jsonable(x) for x in v]
    return v


def main(argv=None):
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True, choices=WORKLOAD_NAMES + ("all",))
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, default=15.0)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--probe", action="store_true", help=argparse.SUPPRESS)
    args = ap.parse_args(argv)
    if args.seed < 0 or not args.seconds > 0.0:
        ap.error("--seed must be >= 0 and --seconds > 0")

    if args.workload == "all":  # each workload in its own process, in turn
        cmd = [sys.executable, str(Path(__file__).resolve()), "--seed",
               str(args.seed), "--seconds", str(args.seconds), "--trace",
               str(args.trace), "--workload"]
        return max(subprocess.run(cmd + [w], cwd=ROOT, check=False).returncode
                   for w in WORKLOAD_NAMES)

    _pin_threads()
    _import_package()
    OUT.mkdir(exist_ok=True)
    if args.probe:
        _probe(args)
        return 0

    import numpy as np
    from tracer import Tracer
    from workloads import WORKLOADS

    schema = json.loads((HERE / "schema.json").read_text(encoding="utf-8"))
    wdoc = schema["workloads"][args.workload]
    known = {k["case"] for k in wdoc.get("known_failures", [])}
    wl = WORKLOADS[args.workload]

    setup_wall, setup_cal = _setup_seconds(args)
    signal.signal(signal.SIGALRM, _alarm)
    record = {
        "workload": args.workload, "seed": args.seed, "seconds": args.seconds,
        "trace": args.trace, "nproc": os.cpu_count(),
        "python": platform.python_version(), "numpy": np.__version__,
        "src_lines": _src_lines(),
        "why": {name: w["why"] for name, w in schema["workloads"].items()},
        "known_failures": wdoc.get("known_failures", []),
        "cal_ref_s": CAL_REF_S, "setup_probes_s": setup_wall,
    }
    tracer = Tracer() if args.trace else None
    with tempfile.TemporaryDirectory(dir=OUT) as tmp:
        if args.trace:
            plain, traced, rounds = _traced_run(wl, args, tmp, tracer)
            ops = plain + traced
        else:
            ops = plain = _plain_run(wl, args, tmp)

    failed = [r for r in ops if r["status"] != "ok"]
    unexpected = sorted({r["case"] for r in failed} - known)
    _scale_by_pass(ops, wdoc["scale_ops"])
    e2e, tail_info = _e2e_metrics(plain, wl, wdoc["tail_percentile"])
    raw, _ = _e2e_metrics(plain, wl, wdoc["tail_percentile"], "wall_s")
    raw["setup_s"] = statistics.median(setup_wall)
    e2e["setup_s"] = raw["setup_s"] * CAL_REF_S / statistics.median(setup_cal)
    units = {m["name"]: m["unit"] for m in schema["end_to_end"] + schema["per_layer"]}
    if args.trace:
        metrics, repeat = _layer_metrics(rounds, plain, traced, schema)
        record.update(rounds=len(rounds), counters_repeat=repeat,
                      absent_hooks=tracer.absent, counters=rounds[0][0])
        _write_spans(tracer, OUT / f"spans_{args.workload}_seed{args.seed}.jsonl")
    else:
        metrics = {m["name"]: e2e[m["name"]] for m in schema["end_to_end"]
                   if m["gated"]}
    record.update(setup_cal_s=setup_cal, end_to_end=e2e, end_to_end_raw=raw,
                  latency_tail=tail_info, metrics=metrics,
                  unexpected_failures=unexpected, operations=ops)
    (OUT / f"BENCH_{args.workload}_seed{args.seed}_trace{args.trace}.json") \
        .write_text(json.dumps(_jsonable(record), indent=1) + "\n", encoding="utf-8")

    print(f"workload {args.workload}  seed {args.seed}  nproc {record['nproc']}  "
          f"python {record['python']}  numpy {record['numpy']}  "
          f"src_lines {record['src_lines']}")
    print(f"why: {wdoc['why']}")
    for r in failed:
        tag = "known" if r["case"] in known else "UNEXPECTED"
        print(f"failed ({tag}): {r['case']}: {r['status']} {r['message']} "
              f"error={r['error']}")
    for name in (m["name"] for m in schema["end_to_end"]):
        if name in e2e:
            wall = f"  [raw wall {raw[name]:.6g}]" if name in SCALED else ""
            note = (f"  (p{tail_info['percentile']:g} of {tail_info['ops']} ops, "
                    f"{tail_info['beyond']} beyond)" if name == "latency_tail_ms" else "")
            print(f"{name:<20} {e2e[name]:.6g} {units[name]}{wall}{note}")
    if args.trace:
        for hook in tracer.absent:
            print(f"absent hook: {hook} (its metrics read 0)")
        print(f"counters repeat across {len(rounds)} round(s): {repeat}")
        for name, v in metrics.items():
            print(f"{name:<36} {v:.6g} {units[name]}")
    print(json.dumps({
        "correct": not unexpected,
        "attempted": len(ops),
        "failed": len(failed),
        "metrics": {k: {"value": v, "unit": units[k]} for k, v in metrics.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
