#!/usr/bin/env python3
"""Seeded search for two branches that no committed population reaches.

1. The mover guard of `Drawing.plan_bigon_move`: a bigon whose x-arc is
   all of strand x while its y-arc is longer, so x moves although y's arc
   is the longer one.
2. The arc code of `bicorn._build_reroute`: a projection whose second
   stage is nonempty but all separating, so that c is rerouted along d.

Triples (a, b, d) are drawn as claim3 draws them, but with b a composite
twist of a: a twisted one to three times along sampled curves, kept when
5 <= i(a, b) <= 40.  Every nonseparating bicorn of (a, b) is projected
to the sides of d.  Prints, per surface, the triples searched, the
guard's hits and the reroutes by the size of their second stage, then
the literals of the first instances found.  Finds are reported, not
gated on:

    PYTHONPATH=src python3 scripts/search_uncovered_branches.py \\
        --attempts 60 --seed 0
"""

import argparse
import random
import sys
from collections import Counter

from nscurves import bicorn as B, curve as C, pairconfig as PC
from nscurves.drawing import Drawing
from nscurves.surface import parse_surface_spec
from nscurves.verify import sample_curve


# the range of i(a, b) searched, and the complexity bound of the sampled
# curves, as in the closed-surface chain test of the bicorn layer
LO, HI, COMPLEXITY_BOUND = 5, 40, 150
# a larger b makes the closed-surface count draw pairs of thousands of
# crossings, tens of seconds each
B_BOUND = 600


def composite_triple(surface, rng):
    """(a, b, d, i) with b a composite twist of a, or None."""
    a = C.random_nonseparating(surface, rng, max_twists=4,
                               complexity_bound=COMPLEXITY_BOUND)
    b = a
    for _ in range(rng.randrange(1, 4)):
        along = C.random_nonseparating(surface, rng, max_twists=4,
                                       complexity_bound=COMPLEXITY_BOUND)
        b = C.dehn_twist(b, along, rng.choice([-1, 1]))
    d = sample_curve(surface, rng, COMPLEXITY_BOUND)
    if b.complexity > B_BOUND or b.is_separating() or b.peripheral \
            or a == b:
        return None
    i = PC.intersection_number(a, b)
    return (a, b, d, i) if LO <= i <= HI else None


class Watch:
    """Counts the two branches while the search runs."""

    def __init__(self):
        self.context = None
        self.guard = []      # contexts where the mover guard held
        self.reroutes = Counter()   # size of the second stage -> count
        self.rerouted = []   # contexts with a nonempty second stage

    def install(self):
        plan, reroute = Drawing.plan_bigon_move, B._build_reroute

        def watched_plan(drawing, move):
            sid_x, _, _, _, _, int_x, int_y = move
            if len(int_y) > len(int_x) == len(drawing.strands[sid_x].pts):
                self.guard.append(self.context)
            return plan(drawing, move)

        def watched_reroute(config, c, second_bicorns, along_a):
            self.reroutes[len(second_bicorns)] += 1
            if second_bicorns:
                self.rerouted.append(self.context)
            return reroute(config, c, second_bicorns, along_a)
        Drawing.plan_bigon_move = watched_plan
        B._build_reroute = watched_reroute


def project_all(a, b, d):
    cfg = B.triple_config(a, b, d)
    seen = set()
    for bc in B.enumerate_bicorns(cfg):
        if bc.derived.is_separating() or bc.derived in seen:
            continue
        seen.add(bc.derived)
        B.project_to_sides(bc, d, cfg)


def main():
    ap = argparse.ArgumentParser(description=__doc__,
                                 formatter_class=argparse.RawTextHelpFormatter)
    ap.add_argument("--surfaces", nargs="+", default=["g1b2", "g2b0", "g2b1"])
    ap.add_argument("--attempts", type=int, default=60)
    ap.add_argument("--seed", type=int, default=0)
    args = ap.parse_args()
    watch = Watch()
    watch.install()
    for spec in args.surfaces:
        surface = parse_surface_spec(spec)
        rng = random.Random(1_000_003 * args.seed + 17)
        triples = 0
        guard, reroutes = len(watch.guard), Counter(watch.reroutes)
        for attempt in range(args.attempts):
            watch.context = (spec, args.seed, attempt)
            got = composite_triple(surface, rng)
            if got is None:
                continue
            a, b, d, i = got
            watch.context = (spec, args.seed, attempt, i,
                             a.literal(), b.literal(), d.literal())
            project_all(a, b, d)
            triples += 1
        stage = watch.reroutes - reroutes
        print("%-5s seed=%d attempts=%d triples=%d guard=%d "
              "reroutes by second-stage size: %s"
              % (spec, args.seed, args.attempts, triples,
                 len(watch.guard) - guard, dict(sorted(stage.items()))))
        sys.stdout.flush()
    for name, found in (("guard", watch.guard), ("reroute", watch.rerouted)):
        for context in sorted(set(found), key=found.index)[:3]:
            print(name, context)


if __name__ == "__main__":
    main()
