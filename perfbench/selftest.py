"""Self-test of the benchmark itself, not of sphericurve.

    python3 perfbench/selftest.py [--workloads sweep oracle] [--seed 3]

Checks that BENCHMARK.json and perfbench/schema.json agree, that a hook
whose target is gone is reported by name, and that two traced runs on
the same seed give identical work counters.  Takes about two minutes
for all four workloads.
"""

from __future__ import annotations

import argparse
import json
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent


def check_schema():
    bench = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    schema = json.loads((HERE / "schema.json").read_text(encoding="utf-8"))
    gated = [(m["name"], m["unit"]) for m in schema["end_to_end"] if m["gated"]]
    assert gated == [(m["name"], m["unit"]) for m in bench["end_to_end"]], \
        "gated end_to_end metrics differ from BENCHMARK.json"
    assert ([(m["name"], m["unit"]) for m in schema["per_layer"]]
            == [(m["name"], m["unit"]) for m in bench["per_layer"]]), \
        "per_layer metrics differ from BENCHMARK.json"
    assert ({w["name"] for w in bench["workloads"]}
            == set(schema["workloads"])), "workloads differ from BENCHMARK.json"
    return schema


def check_absent_hook():
    sys.path.insert(0, str(ROOT / "src"))
    from tracer import HOOKS, Tracer

    gone = ("reconstruct.longitude", "sphericurve.reconstruct:_Motion",
            "no_such_stage", "span")
    tr = Tracer(HOOKS + [gone])
    assert tr.absent == ["sphericurve.reconstruct:_Motion.no_such_stage"], tr.absent
    tr.install("selftest")
    tr.uninstall()


def traced_counters(workload, seed):
    cmd = [sys.executable, str(HERE / "run.py"), "--workload", workload,
           "--seed", str(seed), "--seconds", "1", "--trace", "1"]
    res = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True,
                         timeout=170, check=True)
    result = json.loads(res.stdout.strip().splitlines()[-1])
    record = json.loads((HERE / "out" / f"BENCH_{workload}_seed{seed}_trace1.json")
                        .read_text(encoding="utf-8"))
    return result, record["counters"]


def main():
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workloads", nargs="+",
                    default=["sweep", "long", "hard", "oracle"])
    ap.add_argument("--seed", type=int, default=3)
    args = ap.parse_args()

    schema = check_schema()
    print("schema matches BENCHMARK.json")
    check_absent_hook()
    print("absent hook reported by name")
    layer_names = {m["name"] for m in schema["per_layer"]}
    ok = True
    for w in args.workloads:
        (r1, c1), (r2, c2) = (traced_counters(w, args.seed) for _ in range(2))
        same = c1 == c2 and set(r1["metrics"]) == layer_names
        ok &= same and r1["correct"] and r2["correct"]
        print(f"{w}: counters identical across two traced runs: {c1 == c2}; "
              f"correct: {r1['correct'] and r2['correct']}")
    print("selftest", "passed" if ok else "FAILED")
    return 0 if ok else 1


if __name__ == "__main__":
    sys.exit(main())
