#!/usr/bin/env python3
"""Time the projections of the two g2b1 triples where projection is slow.

For each triple, draws the triple configuration and enumerates its
bicorns (untimed), then projects every distinct nonseparating bicorn to
the sides of d with `project_to_sides` and times that alone.  Prints one
line per triple: its name, the number of projections, their wall time
and the sha256 of `json.dumps([w.to_json() for w in witnesses],
sort_keys=True)`, so that two trees can be compared on the witnesses as
well as on the time:

    PYTHONPATH=src python3 scripts/time_projection_walls.py --triples T1 T2
"""

import argparse
import hashlib
import json
import time

from nscurves import bicorn as B
from nscurves.curve import parse_curve
from nscurves.surface import parse_surface_spec

# (a, b, d) on g2b1.  T1 has i(a, b) = 16 with b of complexity 831; T2
# has i(a, b) = 36 with b of complexity 1,499.
TRIPLES = {
    "T1": ("nc:[0,0,0,0,0,0,0,1,1,1,0]",
           "nc:[280,84,332,52,32,16,16,1,17,1,0]",
           "nc:[2,1,1,1,2,3,1,1,2,1,0]"),
    "T2": ("nc:[0,1,1,1,2,1,1,1,0,1,0]",
           "nc:[0,155,155,155,310,265,111,79,190,79,0]",
           "nc:[0,4,4,4,8,5,5,2,7,2,0]"),
}
SURFACE = "g2b1"


def project_triple(name):
    """(projections, seconds, witness digest) of one named triple."""
    surface = parse_surface_spec(SURFACE)
    a, b, d = (parse_curve(lit, surface) for lit in TRIPLES[name])
    cfg = B.triple_config(a, b, d)
    bicorns, seen = [], set()
    for bc in B.enumerate_bicorns(cfg):
        if not bc.derived.is_separating() and bc.derived not in seen:
            seen.add(bc.derived)
            bicorns.append(bc)
    start = time.perf_counter()
    witnesses = [B.project_to_sides(bc, d, cfg) for bc in bicorns]
    seconds = time.perf_counter() - start
    digest = hashlib.sha256(json.dumps(
        [w.to_json() for w in witnesses], sort_keys=True).encode())
    return len(witnesses), seconds, digest.hexdigest()


def main():
    ap = argparse.ArgumentParser(
        description=__doc__, formatter_class=argparse.RawTextHelpFormatter)
    ap.add_argument("--triples", nargs="+", choices=sorted(TRIPLES),
                    default=sorted(TRIPLES))
    args = ap.parse_args()
    for name in args.triples:
        count, seconds, digest = project_triple(name)
        print("%s projections=%d seconds=%.3f sha256=%s"
              % (name, count, seconds, digest), flush=True)


if __name__ == "__main__":
    main()
