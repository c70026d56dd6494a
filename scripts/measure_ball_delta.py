#!/usr/bin/env python3
"""Grow explored balls of the nonseparating curve graph and measure delta.

For each complexity bound, builds the radius-r ball around a center curve,
prints the vertex/edge counts and the four-point defect of the explored
subgraph (whose distances overestimate the full graph): exact up to
EXACT_DELTA_CAP vertices, a sampled lower bound above it.
"""

import argparse
import sys

from nscurves.curve import parse_curve
from nscurves.errors import InternalInvariantError, NSCurvesError
from nscurves.surface import parse_surface_spec
from nscurves.verify import (EXACT_DELTA_CAP, build_ball, check_ball_counts,
                             four_point_delta)


def main():
    ap = argparse.ArgumentParser(description=__doc__)
    ap.add_argument("--surface", default="g1b1")
    ap.add_argument("--center", default="pq:1/0")
    ap.add_argument("--radius", type=int, default=2)
    ap.add_argument("--flavor", choices=("ns", "nsprime"), default="ns")
    ap.add_argument("--bounds", type=int, nargs="+", default=[18, 22, 26])
    ap.add_argument("--twist-powers", type=int, default=14)
    args = ap.parse_args()

    try:
        surface = parse_surface_spec(args.surface)
        center = parse_curve(args.center, surface)
        # every usage error is reported before the header line is printed
        for bound in args.bounds:
            check_ball_counts(args.radius, bound, args.twist_powers)
        return measure(args, surface, center)
    except InternalInvariantError as err:
        print("internal error: %s" % err, file=sys.stderr)
        return 3
    except NSCurvesError as err:
        print("error: %s" % err, file=sys.stderr)
        return 2


def measure(args, surface, center):
    print("surface %s, center %s, radius %d, flavor %s"
          % (surface.spec_name, args.center, args.radius, args.flavor))
    for bound in args.bounds:
        ball = build_ball(surface, center, args.radius, bound,
                          flavor=args.flavor, twist_powers=args.twist_powers)
        n = len(ball.vertices)
        if n <= EXACT_DELTA_CAP:
            delta = four_point_delta(ball, "exact")
            label = "exact"
        else:
            delta = four_point_delta(ball, "sampled", seed=0, samples=200000)
            label = "sampled lower bound"
        print("  bound %3d: %4d vertices %5d edges   delta = %s (%s,"
              " explored subgraph)" % (bound, n, len(ball.edges),
                                       delta, label))
    return 0


if __name__ == "__main__":
    sys.exit(main())
