#!/usr/bin/env python3
"""Run every claim verifier over the standard surfaces and merge reports.

Writes one JSON report per (claim, surface) plus a merged summary; exits
nonzero if any instance failed a bound.  Reports are reproducible from
the seed.
"""

import argparse
import json
import os
import sys

from nscurves.errors import InternalInvariantError, NSCurvesError
from nscurves.verify import run_verifier

SURFACES = ["g1b1", "g1b2", "g2b0", "g2b1"]
CLAIMS = ["lemma22", "claim1", "claim2", "claim3", "separating"]


def main():
    ap = argparse.ArgumentParser(description=__doc__)
    ap.add_argument("--samples", type=int, default=50)
    ap.add_argument("--seed", type=int, default=0)
    ap.add_argument("--out", default=os.environ.get("NSCURVES_OUT", "out"))
    args = ap.parse_args()
    try:
        os.makedirs(args.out, exist_ok=True)
        return run_suite(args)
    except InternalInvariantError as err:
        print("internal error: %s" % err, file=sys.stderr)
        return 3
    except (NSCurvesError, OSError) as err:
        print("error: %s" % err, file=sys.stderr)
        return 2


def run_suite(args):
    failures = 0
    summary = {"schema": "nscurves.suite/1", "seed": args.seed,
               "samples": args.samples, "runs": []}
    for claim in CLAIMS:
        for spec in SURFACES:
            rep = run_verifier(claim, spec, args.samples, args.seed)
            failures += rep.failures
            path = os.path.join(args.out, "%s_%s.json" % (claim, spec))
            with open(path, "w") as fh:
                json.dump(rep.to_json(), fh, indent=2, sort_keys=True)
            print("%-12s %-6s pass=%-4d fail=%-3d %s"
                  % (claim, spec, rep.passes, rep.failures,
                     json.dumps(rep.to_json()["stats"], sort_keys=True)))
            summary["runs"].append({
                "claim": claim, "surface": spec,
                "passes": rep.passes, "failures": rep.failures,
                "stats": rep.to_json()["stats"],
                "branches": rep.branch_counts})
    with open(os.path.join(args.out, "suite_summary.json"), "w") as fh:
        json.dump(summary, fh, indent=2, sort_keys=True)
    print("total failures:", failures)
    return 1 if failures else 0


if __name__ == "__main__":
    sys.exit(main())
