"""nscurves benchmark: one workload, one seed, one run.

    python3 perfbench/run.py --workload suite --seed 1 --seconds 30 --trace 0

Run from the root of a checkout that holds `src/nscurves`.  The seed
orders the workload's committed population into jobs (perfbench/inputs.py);
every job then runs in a fresh interpreter (perfbench/job.py) with
PYTHONHASHSEED pinned, because the intersection cache and the lru caches of
nscurves live as long as the process and every command-line invocation
pays them cold.  Whole rounds over the jobs repeat while another one fits
in --seconds, between two halves of SETUP_PROBES set-up-only processes,
so that `setup_s` is a median over at least SETUP_PROBES + 1 set-ups
spread over the run.

The speed of a shared host swings by a third within seconds and can stay
off for minutes, and a fixed pure-Python loop slows down with the
benchmark (over runs, raw throughput and the loop's speed correlate at
0.99).  So `units_per_s` counts time in host-speed units: each unit's
latency is scaled by REF_NOMINAL_S over the mean time the calibration loop
took while the unit ran (perfbench/job.py), which makes it the latency
the unit would have had with the loop at its nominal speed.  The raw
throughput is printed and kept in the report.

With --trace 1 the first TRACE_JOBS jobs of the seed's order run twice,
untraced and traced (perfbench/tracing.py), and the per-layer metrics are
printed instead; the difference of the two wall times is the tracing
overhead.

Every line but the last is for people; the last line is the JSON result.
The full result, with per-job details and metadata, is written to
.perfbench_out/results/.
"""

from __future__ import annotations

import argparse
import json
import os
import statistics
import subprocess
import sys
import time
from collections import Counter
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
OUT = ROOT / ".perfbench_out"
HASH_SEED = "0"
TIME_CAP_S = 150            # whole run
REF_NOMINAL_S = 0.003       # the calibration loop at the host's usual speed
SETUP_PROBES = 4            # set-up-only processes, half before and half
                            # after the measured jobs
TRACE_JOBS = {"suite": 1, "ball": 3, "bicorn": 3, "bigpair": 4}
# what one unit of units_per_s is; a unit of latency is one trial, ball,
# triple or pair
UNITS = {"suite": "trials", "ball": "ball vertices", "bicorn": "triples",
         "bigpair": "crossings"}

sys.path.insert(0, str(HERE))
sys.path.insert(0, str(SRC))
import inputs  # noqa: E402
import tracing  # noqa: E402


def run_job(workload, data, job, trace, tag, deadline, setup_only=False):
    """Run one job in a fresh interpreter and return its result dict."""
    work = OUT / "jobs"
    work.mkdir(parents=True, exist_ok=True)
    spec_path = work / ("%s-%d.spec.json" % (tag, os.getpid()))
    out_path = work / ("%s-%d.out.json" % (tag, os.getpid()))
    shared = {k: v for k, v in data.items() if k != "jobs"}
    env = dict(os.environ, PYTHONHASHSEED=HASH_SEED)
    env.pop("PYTHONPATH", None)
    spec = {"workload": workload, "data": shared, "job": job,
            "trace": trace, "setup_only": setup_only, "src": str(SRC),
            "t_spawn": time.perf_counter()}
    with open(spec_path, "w") as fh:
        json.dump(spec, fh)
    proc = subprocess.Popen([sys.executable, str(HERE / "job.py"),
                             str(spec_path), str(out_path)], env=env)
    try:
        code = proc.wait(timeout=max(1.0, deadline - time.monotonic()))
    except subprocess.TimeoutExpired:
        proc.kill()
        proc.wait()
        raise SystemExit("perfbench: job %s exceeded the time cap" % tag)
    if code != 0:
        raise SystemExit("perfbench: job %s exited with %d" % (tag, code))
    with open(out_path) as fh:
        result = json.load(fh)
    spec_path.unlink()
    out_path.unlink()
    return result


def tail(latencies):
    """Highest whole percentile with at least ten samples beyond it."""
    n = len(latencies)
    if n < 11:
        return None
    pct = 100 * (n - 10) // n
    k = n * pct // 100             # k <= n - 10, so ten or more lie beyond
    return {"percentile": pct, "samples": n, "beyond": n - k,
            "value": sorted(latencies)[max(k - 1, 0)]}


def failures(jobs):
    """Number of failed units and the first few notes."""
    bad = [u["error"] for r in jobs for u in r["units"] if u["error"]]
    return len(bad), bad[:5]


def end_to_end(jobs, probes):
    """Gated metrics (value, unit) and the reported-only statistics."""
    units = [u for r in jobs for u in r["units"]]
    lat = [u["s"] for u in units]
    size = sum(u["size"] for u in units)
    return {
        "setup_s": (statistics.median(r["setup_s"] for r in probes + jobs),
                    "s"),
        "units_per_s": (size / sum(u["s"] * REF_NOMINAL_S / u["ref_s"]
                                   for u in units), "1/s"),
        "peak_rss_mb": (statistics.median(r["peak_rss_mb"] for r in jobs),
                        "MB"),
    }, {"raw_units_per_s": size / sum(lat),
        "ref_s": statistics.median(u["ref_s"] for u in units),
        "unit_p50_s": statistics.median(lat),
        "wall_s": statistics.median(r["wall_s"] for r in jobs),
        "unit_tail": tail(lat)}


def per_layer(traced, plain):
    """Per-layer metrics summed over the traced jobs."""
    counts, total, own = Counter(), Counter(), Counter()
    for r in traced:
        tot, slf = tracing.self_times(r["trace"])
        counts.update(r["trace"]["counts"])
        total.update(tot)
        own.update(slf)
    return tracing.layer_metrics(
        counts, total, own, sum(r["distinct_ns"] for r in traced),
        sum(r["wall_s"] for r in traced), sum(r["wall_s"] for r in plain))


def metadata(data):
    import numpy
    sha = "unknown"
    head = ROOT / ".git" / "HEAD"
    if head.is_file():
        ref = head.read_text().strip()
        if ref.startswith("ref: "):
            target = ROOT / ".git" / ref[5:]
            sha = target.read_text().strip() if target.is_file() else ref
        else:
            sha = ref
    lines = sum(len(p.read_text().splitlines())
                for p in sorted((SRC / "nscurves").glob("*.py")))
    return {"git_sha": sha, "python": sys.version.split()[0],
            "numpy": numpy.__version__, "nproc": os.cpu_count(),
            "pythonhashseed": HASH_SEED, "input_digest": data["digest"],
            "src_nscurves_lines": lines}


def main(argv=None):
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True, choices=sorted(UNITS))
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)
    if not (SRC / "nscurves" / "__init__.py").is_file():
        print("perfbench: no src/nscurves under %s; run from the root of an"
              " nscurves checkout" % ROOT, file=sys.stderr)
        return 2
    deadline = time.monotonic() + TIME_CAP_S
    data = inputs.generate(args.workload, args.seed)
    jobs_in = data["jobs"]
    done, plain, probes = [], [], []
    if args.trace:
        for idx, job in enumerate(jobs_in[:TRACE_JOBS[args.workload]]):
            plain.append(run_job(args.workload, data, job, False,
                                 "plain%d" % idx, deadline))
            done.append(run_job(args.workload, data, job, True,
                                "traced%d" % idx, deadline))
    else:
        def probe(count):
            for _ in range(count):
                probes.append(run_job(args.workload, data, jobs_in[0], False,
                                      "setup%d" % len(probes), deadline,
                                      True))
        probe(SETUP_PROBES // 2)
        # whole rounds over the population, while another one fits
        start = time.monotonic()
        rounds = 0
        while True:
            for idx, job in enumerate(jobs_in):
                done.append(run_job(args.workload, data, job, False,
                                    "job%d" % idx, deadline))
            rounds += 1
            spent = time.monotonic() - start
            if spent * (rounds + 1) / rounds > args.seconds:
                break
        probe(SETUP_PROBES - SETUP_PROBES // 2)
    failed, notes = failures(done + plain)
    attempted = sum(len(r["units"]) for r in done + plain)
    meta = metadata(data)
    print("perfbench %s seed=%d trace=%d: %d jobs, %d units, throughput in"
          " %s; input %s;"
          " nscurves %s lines; python %s numpy %s nproc %s PYTHONHASHSEED=%s"
          " sha %s" % (args.workload, args.seed, args.trace, len(done),
                       attempted, UNITS[args.workload], meta["input_digest"],
                       meta["src_nscurves_lines"], meta["python"],
                       meta["numpy"], meta["nproc"], meta["pythonhashseed"],
                       meta["git_sha"][:12]))
    report = {"workload": args.workload, "seed": args.seed,
              "trace": args.trace, "meta": meta, "failed_notes": notes,
              "setup_probes_s": [r["setup_s"] for r in probes],
              "jobs": [{k: v for k, v in r.items() if k != "trace"}
                       for r in done + plain]}
    if args.trace:
        layers = per_layer(done, plain)
        for name, (value, unit, num, den) in layers.items():
            base = "" if num is None else "  (%s / %s)" % (num, den)
            print("  %-42s %14.6g %-6s%s" % (name, value, unit, base))
        metrics = {k: {"value": v[0], "unit": v[1]} for k, v in layers.items()}
    else:
        e2e, extra = end_to_end(done, probes)
        for name, (value, unit) in e2e.items():
            print("  %-14s %12.6g %s" % (name, value, unit))
        print("  raw_units_per_s %11.6g 1/s at calibration %.3g ms"
              " (nominal %.3g ms)" % (extra["raw_units_per_s"],
                                      extra["ref_s"] * 1e3,
                                      REF_NOMINAL_S * 1e3))
        print("  unit_p50_s     %12.6g s" % extra["unit_p50_s"])
        print("  wall_s         %12.6g s   median job" % extra["wall_s"])
        t = extra["unit_tail"]
        if t:
            print("  unit_tail_s    %12.6g s   p%d of %d units (%d beyond)"
                  % (t["value"], t["percentile"], t["samples"], t["beyond"]))
        print("  failed_frac    %12.6g     (%d / %d)" % (
            failed / attempted, failed, attempted))
        report["unit_latency"] = extra
        metrics = {k: {"value": v[0], "unit": v[1]} for k, v in e2e.items()}
    for note in notes:
        print("  failed: %s" % note)
    result = {"correct": failed == 0, "attempted": attempted,
              "failed": failed, "metrics": metrics}
    report["result"] = result
    res_dir = OUT / "results"
    res_dir.mkdir(parents=True, exist_ok=True)
    with open(res_dir / ("%s-s%d-t%d.json" % (args.workload, args.seed,
                                              args.trace)), "w") as fh:
        json.dump(report, fh, indent=1)
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
