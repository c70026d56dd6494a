"""Workload inputs: committed populations, ordered into jobs by the seed.

`generate(workload, seed)` reads the workload's population from
`populations/<workload>.json` and returns its jobs in the seed's order,
with a digest of the whole input.  The same seed always gives the same
inputs, and every commit measures the same units: the populations were
drawn once and are kept in the benchmark rather than redrawn from the code
under test.  The cost of a unit varies by up to 20x across sampled
populations of the same size (a bicorn triple from 0.05 s to 1.5 s, a
verifier trial from 5 ms to 4 s), so a population drawn per seed would
move the medians by more than the bounds allow.

Curves are `nc:[...]` literals (they round-trip exactly and parse in
milliseconds).  Every unit carries its oracle values (ball neighbours,
bigpair determinants, the sampled i(a,b)) and, under "expect", the
summary of its outputs recorded when the population was written; a unit
whose output differs from either counts as failed.

    python3 perfbench/inputs.py --workload ball --seed 1   # prints the JSON
    python3 perfbench/inputs.py --write                    # redraws all

`--write` redraws every population with the nscurves of the checkout and
records the expected outputs by running each job once (about a minute).
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import random
import sys
from itertools import product
from math import gcd
from pathlib import Path

HERE = Path(__file__).resolve().parent
POPULATIONS_DIR = HERE / "populations"

SUITE_SURFACES = ("g1b1", "g1b2", "g2b0", "g2b1")
SUITE_CLAIMS = ("lemma22", "claim1", "claim2", "claim3", "separating")
SUITE_SEED = 0              # scripts/run_verification_suite.py --seed 0
SUITE_SAMPLES = 15          #   --samples 15

BALL_SURFACE = "g1b1"
BALL_RADIUS = 2
BALL_BOUND = 12
BALL_TWIST_POWERS = 10
BALL_CENTERS = ((1, 0), (0, 1), (1, 1))

BICORN_SURFACES = ("g1b1", "g2b0", "g2b1")
BICORN_I_RANGE = (6, 14)
BICORN_POPULATION_SEED = 0
BICORN_JOBS = 3             # each job holds one triple per surface

BIGPAIR_SURFACE = "g1b1"
BIGPAIR_EXPONENTS = (2, 3)
BIGPAIR_I_RANGE = (390, 700)


def digest(obj):
    text = json.dumps(obj, sort_keys=True, default=str)
    return hashlib.sha256(text.encode()).hexdigest()[:16]


def _suite():
    """The verification suite in its own order, as one job.

    scripts/run_verification_suite.py runs every claim over the surfaces,
    claim-major, in one process; trial k of a claim draws from its own
    seeded generator, so one call per trial repeats the suite's traffic
    and its intersection-cache hits exactly.
    """
    units = [{"claim": claim, "surface": spec, "k": k}
             for claim in SUITE_CLAIMS for spec in SUITE_SURFACES
             for k in range(SUITE_SAMPLES)]
    return {"verifier_seed": SUITE_SEED, "samples": SUITE_SAMPLES,
            "jobs": [{"units": units}]}


def ball_neighbours(center_pq):
    """Literals of the slopes r/s with 0 < |ps - qr| <= 2 within the bound."""
    from nscurves import curve as C
    from nscurves.surface import parse_surface_spec
    surface = parse_surface_spec(BALL_SURFACE)
    p, q = center_pq
    out = []
    reach = BALL_BOUND + 2
    for r in range(-reach, reach + 1):
        for s in range(0, reach + 1):
            if (s == 0 and r <= 0) or gcd(r, s) != 1:
                continue
            if not 0 < abs(p * s - q * r) <= 2:
                continue
            cand = C.torus_slope(surface, r, s)
            if cand.complexity <= BALL_BOUND:
                if max(abs(r), s) >= reach:
                    raise RuntimeError("neighbour search box too small")
                out.append(cand.literal())
    return sorted(out)


def _ball():
    """One ball per center in BALL_CENTERS, one a job."""
    from nscurves import curve as C
    from nscurves.surface import parse_surface_spec
    surface = parse_surface_spec(BALL_SURFACE)
    jobs = [{"units": [{"center_pq": list(pq),
                        "center": C.torus_slope(surface, *pq).literal(),
                        "neighbours": ball_neighbours(pq)}]}
            for pq in BALL_CENTERS]
    return {"surface": BALL_SURFACE, "radius": BALL_RADIUS,
            "bound": BALL_BOUND, "twist_powers": BALL_TWIST_POWERS,
            "jobs": jobs}


def _bicorn():
    """Triples (a, b, d) with i(a,b) in BICORN_I_RANGE, one per surface a job.

    Pairs come from `verify.sample_pair(lo=6)` and d from
    `verify.sample_curve`; a sampling failure moves the generator on.
    """
    from nscurves import verify as V
    from nscurves.errors import NSCurvesError
    from nscurves.surface import parse_surface_spec
    lo, hi = BICORN_I_RANGE
    jobs = []
    for j in range(BICORN_JOBS):
        triples = []
        for n, spec in enumerate(BICORN_SURFACES):
            surface = parse_surface_spec(spec)
            pop = random.Random((BICORN_POPULATION_SEED * 1_000_003 + j) * 7
                                + n)
            for _ in range(20):
                try:
                    a, b, i = V.sample_pair(surface, pop, lo, hi)
                except NSCurvesError:
                    continue
                d = V.sample_curve(surface, pop)
                if d not in (a, b):
                    break
            else:
                raise RuntimeError("no bicorn triple on %s" % spec)
            triples.append({"surface": spec, "a": a.literal(),
                            "b": b.literal(), "d": d.literal(), "i_ab": i})
        jobs.append({"units": triples})
    return {"i_range": list(BICORN_I_RANGE), "jobs": jobs}


def _twist_image(base, word):
    """Slope class after twists: B^n (x,y)->(x,y+nx), A^n (x,y)->(x-ny,y)."""
    x, y = base
    for gen, n in word:
        if gen == "B":
            y += n * x
        else:
            x -= n * y
    return x, y


def _bigpair():
    """Every pair {W(pq:1/0), W'(pq:1/0)} of opposite sign in the i range.

    W and W' run over the alternating words B^a A^-b B^c with exponents
    from BIGPAIR_EXPONENTS; W takes the positive sign and comes first.
    """
    from nscurves import curve as C
    from nscurves.surface import parse_surface_spec
    surface = parse_surface_spec(BIGPAIR_SURFACE)
    lo, hi = BIGPAIR_I_RANGE
    words = sorted(product(BIGPAIR_EXPONENTS, repeat=3))
    jobs = []
    for n, w1 in enumerate(words):
        for w2 in words[n:]:
            ends = []
            for w, sign in ((w1, 1), (w2, -1)):
                word = [("B", sign * w[0]), ("A", -sign * w[1]),
                        ("B", sign * w[2])]
                ends.append(("%s@pq:1/0" % ".".join("%s%d" % g for g in word),
                             _twist_image((1, 0), word)))
            (wa, pa), (wb, pb) = ends
            det = abs(pa[0] * pb[1] - pa[1] * pb[0])
            if lo <= det <= hi:
                jobs.append({"units": [{
                    "a": C.torus_slope(surface, *pa).literal(),
                    "b": C.torus_slope(surface, *pb).literal(),
                    "a_word": wa, "b_word": wb, "expected_i": det}]})
    return {"surface": BIGPAIR_SURFACE, "jobs": jobs}


DRAWERS = {"suite": _suite, "ball": _ball, "bicorn": _bicorn,
           "bigpair": _bigpair}


def generate(workload, seed):
    """The committed population with its jobs in the seed's order."""
    with open(POPULATIONS_DIR / ("%s.json" % workload)) as fh:
        data = json.load(fh)
    random.Random(seed).shuffle(data["jobs"])
    data.update(workload=workload, seed=seed)
    data["digest"] = digest(data)
    return data


def write(workload):
    """Redraw a population and record the expected output of every unit."""
    import run
    pop = DRAWERS[workload]()
    data = dict(pop, workload=workload)
    deadline = float("inf")
    for n, job in enumerate(pop["jobs"]):
        res = run.run_job(workload, data, job, False, "write%d" % n,
                          deadline)
        for unit, out in zip(job["units"], res["units"]):
            if out["error"]:
                raise SystemExit("%s job %d: %s" % (workload, n,
                                                    out["error"]))
            unit["expect"] = out["out"]
    POPULATIONS_DIR.mkdir(exist_ok=True)
    with open(POPULATIONS_DIR / ("%s.json" % workload), "w") as fh:
        json.dump(pop, fh, indent=1, sort_keys=True)
        fh.write("\n")
    print("%s: %d jobs, %d units" % (workload, len(pop["jobs"]), sum(
        len(job["units"]) for job in pop["jobs"])))


def main():
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", choices=sorted(DRAWERS))
    ap.add_argument("--seed", type=int)
    ap.add_argument("--write", action="store_true")
    args = ap.parse_args()
    sys.path.insert(0, str(HERE.parent / "src"))
    if args.write:
        import run
        if os.environ.get("PYTHONHASHSEED") != run.HASH_SEED:
            env = dict(os.environ, PYTHONHASHSEED=run.HASH_SEED)
            os.execve(sys.executable, [sys.executable] + sys.argv, env)
        for workload in DRAWERS:
            write(workload)
    elif args.workload is None or args.seed is None:
        ap.error("--workload and --seed, or --write")
    else:
        print(json.dumps(generate(args.workload, args.seed), indent=1))


if __name__ == "__main__":
    main()
