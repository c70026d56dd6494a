"""Acceptance criteria, one test per criterion, at the stated sample sizes.

Each test prints a single PASS line when its criterion holds; any bound
failure raises.  The heavy populations are seeded, so every run checks
the same instances.
"""

import itertools
import os
import random
import zlib
from concurrent.futures import ProcessPoolExecutor
from fractions import Fraction
from math import gcd

import pytest

from nscurves import bicorn as B
from nscurves import curve as C
from nscurves import pairconfig as PC
from nscurves import verify as V
from nscurves.surface import build_surface

SURFACES = ["g1b1", "g1b2", "g2b0", "g2b1"]


def _ok(n, name, extra=""):
    print("ACCEPTANCE %d %s: PASS %s" % (n, name, extra))


# -- criterion 1: intersection oracle on slope curves --------------------------


def _slopes(bound):
    out = set()
    for p in range(-bound, bound + 1):
        for q in range(-bound, bound + 1):
            if (p, q) == (0, 0) or gcd(p, q) != 1:
                continue
            out.add((p, q) if (p, q) >= (-p, -q) else (-p, -q))
    return sorted(out)


def _slope_chunk(args):
    pairs, = args
    s11 = build_surface(1, 1)
    cache = {}

    def curve(pq):
        if pq not in cache:
            cache[pq] = C.torus_slope(s11, *pq)
        return cache[pq]

    # the path count (intersection_number) and the drawing count must both
    # equal |det|
    bad = []
    for (pq, rs) in pairs:
        want = abs(pq[0] * rs[1] - pq[1] * rs[0])
        got = PC.intersection_number(curve(pq), curve(rs))
        drawn = PC.PairConfiguration(curve(pq), curve(rs)).count()
        if got != want or drawn != want:
            bad.append((pq, rs, got, drawn, want))
    return bad


def test_criterion_1_slope_intersection_oracle():
    slopes = _slopes(10)
    pairs = list(itertools.combinations(slopes, 2))
    jobs = min(os.cpu_count() or 1, 4)
    chunks = [(pairs[k::jobs],) for k in range(jobs)]
    if jobs > 1:
        with ProcessPoolExecutor(max_workers=jobs) as pool:
            results = list(pool.map(_slope_chunk, chunks))
    else:
        results = [_slope_chunk(chunks[0])]
    bad = [b for r in results for b in r]
    assert bad == [], bad[:5]
    _ok(1, "slope intersection oracle", "(%d pairs)" % len(pairs))


# -- criterion 2: separating test against the cut oracle -----------------------


def test_criterion_2_separating_oracle_agreement():
    total, sep_seen = 0, 0
    for spec in SURFACES:
        surf = build_surface(*map(int, (spec[1], spec[3])))
        for k in range(125):
            rng = random.Random(20_000 + 97 * k + zlib.crc32(spec.encode()) % 7919)
            c = V.random_curve_any(surf, rng, complexity_bound=150)
            parts = PC.cut_components(c)
            assert c.is_separating() == (parts >= 2), (spec, k, c.literal())
            sep_seen += int(parts >= 2)
            total += 1
    assert total >= 500
    assert sep_seen >= 10, "population never produced separating curves"
    _ok(2, "separating oracle agreement",
        "(%d curves, %d separating)" % (total, sep_seen))


# -- criterion 3: surgery distance paths ---------------------------------------


def _lemma22_chunk(args):
    spec, seeds = args
    surf = build_surface(*map(int, (spec[1], spec[3])))
    base1 = base2 = 0
    for k in seeds:
        rng = random.Random(31_000_000 + k)
        a, b, i = V.sample_pair(surf, rng, 0, 12, complexity_bound=140)
        path = B.distance_path(a, b, "nsprime")
        assert len(path) - 1 <= 2 * i + 1
        for u, v in zip(path, path[1:]):
            assert B.ns_adjacent(surf, u, v, "nsprime")
        assert path[0] == a and path[-1] == b
        if i == 1:
            want = 1 if surf.genus == 1 else 2
            assert len(path) - 1 == want
            if want == 1:
                base1 += 1
            else:
                base2 += 1
    return base1, base2


def test_criterion_3_distance_paths():
    jobs = min(os.cpu_count() or 1, 4)
    tasks = []
    for si, spec in enumerate(SURFACES):
        seeds = list(range(1000 * si, 1000 * si + 300))
        for w in range(jobs):
            tasks.append((spec, seeds[w::jobs]))
    if jobs > 1:
        with ProcessPoolExecutor(max_workers=jobs) as pool:
            results = list(pool.map(_lemma22_chunk, tasks))
    else:
        results = [_lemma22_chunk(t) for t in tasks]
    base1 = sum(r[0] for r in results)
    base2 = sum(r[1] for r in results)
    assert base1 > 0 and base2 > 0, "base cases not exercised"
    _ok(3, "surgery distance paths",
        "(1200 pairs, base cases %d/%d)" % (base1, base2))


# -- criterion 4: adjacent pairs have small bicorn graphs ----------------------


def test_criterion_4_claim1():
    for spec in SURFACES:
        rep = V.run_verifier("claim1", spec, 75, 40 + len(spec))
        assert rep.failures == 0, rep.failing_instances[:3]
        assert rep.stats.get("max_diameter", 0) <= 2
    _ok(4, "adjacent-pair bicorn graphs", "(300 pairs, diameter <= 2)")


# -- criterion 5: successor chains connect the bicorn graph --------------------


def test_criterion_5_claim2():
    max_edge = 0
    for spec in SURFACES:
        rep = V.run_verifier("claim2", spec, 75, 50 + len(spec), max_i=10)
        assert rep.failures == 0, rep.failing_instances[:3]
        max_edge = max(max_edge, rep.stats.get("max_consecutive_i", 0))
    assert max_edge <= 2
    _ok(5, "bicorn chains and connectivity", "(300 pairs, edges <= 2)")


# -- criterion 6: projections to the sides --------------------------------------


def test_criterion_6_claim3():
    worst = 0
    branches = {}
    for spec in SURFACES:
        rep = V.run_verifier("claim3", spec, 100, 60 + len(spec), max_i=4,
                             complexity_bound=110)
        assert rep.failures == 0, rep.failing_instances[:3]
        worst = max(worst, rep.stats.get("empirical_D", 0))
        for k, v in rep.branch_counts.items():
            branches[k] = branches.get(k, 0) + v
    assert worst <= 8
    _ok(6, "side projections", "(400 triples, empirical D = %d, %s)"
        % (worst, branches))


# -- criterion 7: homology bookkeeping -------------------------------------------


def test_criterion_7_homology_additivity():
    # the identities are hard assertions inside the constructions; drive
    # them over a dedicated population
    runs = 0
    for spec in ("g1b1", "g2b0"):
        surf = build_surface(*map(int, (spec[1], spec[3])))
        for k in range(25):
            rng = random.Random(70_000 + 13 * k)
            a, b, i = V.sample_pair(surf, rng, 2, 9, complexity_bound=130)
            cfg = PC.draw_pair(a, b)
            c1, c2, branch, (cls1, cls2, cls_a) = B.surgery_pair(cfg)
            assert tuple(x + y for x, y in zip(cls1.coords, cls2.coords)) \
                == cls_a.coords
            runs += 1
    assert runs == 50
    _ok(7, "homology additivity", "(50 surgeries + every projection run)")


# -- criterion 8: minimal position is independent of the overlay order ------------


def test_criterion_8_confluence_and_face_audit():
    checked = 0
    for spec in SURFACES:
        surf = build_surface(*map(int, (spec[1], spec[3])))
        for k in range(50):
            rng = random.Random(80_000 + 31 * k + zlib.crc32(spec.encode()) % 104729)
            a, b, i = V.sample_pair(surf, rng, 0, 10, complexity_bound=120)
            one = PC.PairConfiguration(a, b)
            two = PC.PairConfiguration(b, a)
            assert one.count() == two.count() == i
            if k % 5 == 0:
                assert not any(f.is_bigon for f in one.faces())
            checked += 1
    assert checked >= 200
    _ok(8, "confluent minimal position", "(%d pairs)" % checked)


# -- criterion 9: hyperbolicity defect of the explored ball ----------------------


def test_criterion_9_delta_ball():
    s11 = build_surface(1, 1)
    center = C.torus_slope(s11, 1, 0)
    ball = V.build_ball(s11, center, 2, 26, flavor="ns", twist_powers=14)
    assert len(ball.vertices) >= 50, len(ball.vertices)

    # the center's neighbors are exactly the slopes (r, s) with |s| <= 2
    # within the complexity bound
    expected = set()
    for r in range(-40, 41):
        for s_ in range(-2, 3):
            if (r, s_) == (0, 0) or gcd(r, s_) != 1:
                continue
            cand = C.torus_slope(s11, r, s_)
            if cand.complexity <= 26 and cand != center:
                expected.add(cand)
    index = {v: i for i, v in enumerate(ball.vertices)}
    got = set()
    for e in ball.edges:
        i, j = tuple(e)
        if index[center] in (i, j):
            got.add(ball.vertices[j if i == index[center] else i])
    assert got == expected, (len(got), len(expected))

    exact = V.four_point_delta(ball, "exact")
    oracle = V.four_point_delta_bruteforce(ball)
    assert exact == oracle
    sampled = V.four_point_delta(ball, "sampled", seed=3, samples=4000)
    assert sampled <= exact
    assert exact >= 0
    _ok(9, "four-point defect of the explored ball",
        "(%d vertices, delta = %s)" % (len(ball.vertices), exact))


# -- criterion 10: reproducible reports ------------------------------------------


def test_criterion_10_reproducibility():
    for claim in ("claim1", "claim2", "lemma22", "separating"):
        a = V.run_verifier(claim, "g1b1", 5, 77)
        b = V.run_verifier(claim, "g1b1", 5, 77)
        assert V.reports_equal(a.to_json(), b.to_json()), claim
    _ok(10, "reproducible verification reports")
