"""Steadiness checks for the benchmark.

    python3 perfbench/steady.py spread --workload ball --seeds 1 2 3 --sets 2
    python3 perfbench/steady.py counts --workload ball --seed 1

`spread` runs the benchmark once per seed (per set) and reports, for every
end-to-end metric of BENCHMARK.json, the median and the distance between
the first and third quartile as a share of the median, against the
metric's bound; with two sets it also compares the second median with
the first.  `counts` makes two traced runs of one seed and flags every
per-layer count or ratio that does not repeat exactly.  Exit status 1
means a check failed.
"""

from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent


def bench(workload, seed, seconds, trace):
    cmd = [sys.executable, "perfbench/run.py", "--workload", workload,
           "--seed", str(seed), "--seconds", str(seconds),
           "--trace", str(trace)]
    out = subprocess.run(cmd, cwd=ROOT, check=True, capture_output=True,
                         text=True, timeout=600).stdout
    return json.loads(out.strip().splitlines()[-1])


def spread(values):
    q1, med, q3 = statistics.quantiles(values, n=4)
    return statistics.median(values), (q3 - q1) / statistics.median(values)


def cmd_spread(args, spec):
    bounds = {m["name"]: m["bound"] for m in spec["end_to_end"]}
    sets = []
    for s in range(args.sets):
        runs = []
        for seed in args.seeds:
            res = bench(args.workload, seed, spec["run_seconds"], 0)
            if not res["correct"]:
                print("seed %d: %d of %d units failed" % (
                    seed, res["failed"], res["attempted"]))
            runs.append(res)
            print("set %d seed %d: %s" % (s + 1, seed, " ".join(
                "%s=%.4g" % (k, v["value"]) for k, v in
                res["metrics"].items())), flush=True)
        sets.append(runs)
    ok = all(r["correct"] for runs in sets for r in runs)
    for name, bound in bounds.items():
        meds = []
        for s, runs in enumerate(sets):
            med, iqr = spread([r["metrics"][name]["value"] for r in runs])
            meds.append(med)
            verdict = "ok" if iqr <= bound / 3 else (
                "within bound" if iqr <= bound else "TOO WIDE")
            if iqr > bound:
                ok = False
            print("%-12s set %d median %.6g  IQR/median %.3f  bound %.2f"
                  "  %s" % (name, s + 1, med, iqr, bound, verdict))
        if len(meds) == 2:
            better = next(m["better"] for m in spec["end_to_end"]
                          if m["name"] == name)
            worse = (meds[1] - meds[0]) / meds[0] * (
                1 if better == "lower" else -1)
            print("%-12s second median worse by %.3f of the first (bound"
                  " %.2f)" % (name, worse, bound))
            ok = ok and worse <= bound
    return ok


def cmd_counts(args, spec):
    counted = [m["name"] for m in spec["per_layer"]
               if m["unit"] in ("count", "ratio")]
    first = bench(args.workload, args.seed, spec["run_seconds"], 1)
    second = bench(args.workload, args.seed, spec["run_seconds"], 1)
    ok = first["correct"] and second["correct"]
    for name in counted:
        a = first["metrics"][name]["value"]
        b = second["metrics"][name]["value"]
        if a != b:
            ok = False
            print("NOT REPEATED %-40s %s vs %s" % (name, a, b))
    print("%d counts compared on %s seed %d: %s" % (
        len(counted), args.workload, args.seed,
        "all repeat exactly" if ok else "see above"))
    return ok


def main():
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    sub = ap.add_subparsers(dest="cmd", required=True)
    sp = sub.add_parser("spread")
    sp.add_argument("--workload", required=True)
    sp.add_argument("--seeds", type=int, nargs="+", required=True)
    sp.add_argument("--sets", type=int, choices=(1, 2), default=1)
    cp = sub.add_parser("counts")
    cp.add_argument("--workload", required=True)
    cp.add_argument("--seed", type=int, required=True)
    args = ap.parse_args()
    with open(ROOT / "BENCHMARK.json") as fh:
        spec = json.load(fh)
    ok = (cmd_spread if args.cmd == "spread" else cmd_counts)(args, spec)
    return 0 if ok else 1


if __name__ == "__main__":
    sys.exit(main())
