"""Self-test of the benchmark's output checks.

    python3 perfbench/selftest.py

For every workload, runs the first units of one job with their committed
inputs and then once per corruption of an expected value: an oracle value
(ball neighbours, the sampled i(a,b), the bigpair determinant) and the
recorded output summary.  The clean run must pass and every corrupted
run must count the corrupted unit as failed.  Exit status 0 means every
check caught its corruption.
"""

from __future__ import annotations

import copy
import sys
import time

import inputs
import run

UNITS = 3                   # units of the job that the test runs


def oracle_ball(unit):
    unit["neighbours"] = unit["neighbours"][1:]


def oracle_bicorn(unit):
    unit["i_ab"] += 1


def oracle_bigpair(unit):
    unit["expected_i"] += 2


def recorded(unit):
    key = sorted(unit["expect"])[0]
    value = unit["expect"][key]
    unit["expect"][key] = value + "x" if isinstance(value, str) else value + 1


CORRUPTIONS = {"suite": [recorded], "ball": [oracle_ball, recorded],
               "bicorn": [oracle_bicorn, recorded],
               "bigpair": [oracle_bigpair, recorded]}


def main():
    deadline = time.monotonic() + 600
    ok = True
    for workload, corruptions in CORRUPTIONS.items():
        data = inputs.generate(workload, 1)
        job = dict(data["jobs"][0], units=data["jobs"][0]["units"][:UNITS])
        good = run.run_job(workload, data, job, False, "selftest", deadline)
        clean, _ = run.failures([good])
        for corrupt in corruptions:
            bad_job = copy.deepcopy(job)
            corrupt(bad_job["units"][0])
            bad = run.run_job(workload, data, bad_job, False, "selftest",
                              deadline)
            caught, notes = run.failures([bad])
            passed = clean == 0 and caught == 1 and bad["units"][0]["error"]
            ok = ok and bool(passed)
            print("%-8s %-15s clean: %d failed; corrupted: %d failed (%s)  %s"
                  % (workload, corrupt.__name__, clean, caught,
                     notes[0] if notes else "-",
                     "ok" if passed else "FAILED"))
    return 0 if ok else 1


if __name__ == "__main__":
    sys.exit(main())
