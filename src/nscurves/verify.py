"""Experiment harness: randomized replay of the structural claims.

Every verifier samples seeded populations, runs the corresponding
construction, checks the claimed bounds exactly, and aggregates extremal
statistics into a reproducible report.  Failing instances are serialized
with enough data (surface, seed, curve coordinates) to replay them.

Each claim is one per-trial function (`_claim1_trial` ... `_separating_trial`)
holding only the claim's own body.  `run_verifier` is the one trial loop:
it parses the surface, builds the report and its `RunConfig`, seeds trial
k from `_trial_seed(seed, k)`, writes the `ok` column, and turns a
`BoundViolation` or other `NSCurvesError` into a failing instance while an
`InternalInvariantError` propagates as a bug.  All trials run in one
process, in order, into one report.  The `CLAIMS` table gives each claim's
report name and its parameters with their defaults; it is the single
source for the report's `config.params`, a failing instance's `params`,
and the rejection of a parameter the claim does not take (an
`NSCurvesError`, a usage error).
`VERIFIERS[key](surface, samples, seed, trial_indices=None, **params)` runs
a claim by the key that `verify` commands and replay bundles use.
"""

from __future__ import annotations

import csv
import io
import json
import random
from dataclasses import dataclass, field, asdict
from datetime import datetime, timezone
from fractions import Fraction
from functools import lru_cache, partial
from itertools import combinations

from . import __version__
from . import bicorn as B
from . import curve as C
from . import pairconfig as PC
from .errors import (DisconnectedGraph, InternalInvariantError, NSCurvesError,
                     PreconditionViolation)
from .surface import parse_surface_spec

REPORT_SCHEMA = "nscurves.report/1"


@dataclass
class RunConfig:
    command: str
    surface: str
    samples: int
    seed: int
    params: dict = field(default_factory=dict)

    def to_json(self):
        return asdict(self)


@dataclass
class VerificationReport:
    claim: str
    surface: str
    samples: int
    seed: int
    passes: int = 0
    failures: int = 0
    stats: dict = field(default_factory=dict)
    branch_counts: dict = field(default_factory=dict)
    failing_instances: list = field(default_factory=list)
    trial_rows: list = field(default_factory=list)
    config: dict = field(default_factory=dict)
    generated_at: str = ""

    def finish(self):
        self.generated_at = datetime.now(timezone.utc).isoformat()
        return self

    def to_json(self):
        out = asdict(self)
        out["schema"] = REPORT_SCHEMA
        out["stats"] = {k: (str(v) if isinstance(v, Fraction) else v)
                        for k, v in self.stats.items()}
        return out

    def to_csv(self):
        buf = io.StringIO()
        if not self.trial_rows:
            return ""
        cols = sorted({k for row in self.trial_rows for k in row})
        w = csv.DictWriter(buf, fieldnames=["claim", "surface", "seed"] + cols)
        w.writeheader()
        for row in self.trial_rows:
            full = {"claim": self.claim, "surface": self.surface,
                    "seed": self.seed}
            full.update(row)
            w.writerow(full)
        return buf.getvalue()

    def bump(self, key, value):
        if key not in self.stats or self.stats[key] < value:
            self.stats[key] = value

    def record_branch(self, name):
        self.branch_counts[name] = self.branch_counts.get(name, 0) + 1


def reports_equal(a, b):
    """Byte-level equality of two report JSON dicts, timestamps excluded."""
    da, db = dict(a), dict(b)
    da.pop("generated_at", None)
    db.pop("generated_at", None)
    return json.dumps(da, sort_keys=True) == json.dumps(db, sort_keys=True)


def _trial_seed(seed, k):
    return seed * 1_000_003 + 7 * k + 1


# -- samplers -----------------------------------------------------------------


def sample_curve(surface, rng, complexity_bound=160):
    return C.random_nonseparating(surface, rng, max_twists=4,
                                  complexity_bound=complexity_bound)


def sample_pair(surface, rng, lo, hi, complexity_bound=160, tries=80):
    """Nonseparating pair with lo <= i(a,b) <= hi."""
    for _ in range(tries):
        a = sample_curve(surface, rng, complexity_bound)
        style = rng.randrange(3)
        if style == 0:
            b = sample_curve(surface, rng, complexity_bound)
        elif style == 1:
            w = PC.intersection_witness(a)
            n = rng.choice([-2, -1, 1, 2])
            b = C.dehn_twist(a, w, n)
        else:
            w = PC.intersection_witness(a)
            n = rng.choice([-1, 1])
            mid = C.dehn_twist(w, a, rng.choice([-1, 1]))
            b = C.dehn_twist(a, mid, n) if not mid.is_separating() else \
                sample_curve(surface, rng, complexity_bound)
        if b.is_separating() or b.peripheral or a == b:
            continue
        i = PC.intersection_number(a, b)
        if lo <= i <= hi:
            return a, b, i
    raise NSCurvesError("pair sampling failed in range [%d, %d]" % (lo, hi))


@lru_cache(maxsize=None)
def separating_seed_curve(surface):
    """An essential separating curve of the surface, when one exists."""
    if surface.genus >= 2:
        gens = dict(C.twist_generators(surface))
        cfg = PC.draw_pair(gens["A"], gens["B"])
        return PC.find_separating_complement(cfg.drawing)
    if surface.boundary_count >= 2:
        cfg = PC.draw_pair(C.torus_slope(surface, 1, 0),
                           C.torus_slope(surface, 0, 1))
        return PC.find_separating_complement(cfg.drawing)
    return None


def random_curve_any(surface, rng, complexity_bound=200):
    """Random curve that may be separating or peripheral (oracle tests).

    Mixes plain twist words with bicorn smoothings of random pairs and
    with twisted images of a separating seed curve, so both answers of
    the separating test actually occur in the population.
    """
    style = rng.randrange(4)
    if style == 2:
        seed = separating_seed_curve(surface)
        if seed is None and surface.boundary_count >= 1:
            seed = C.boundary_parallel_curve(surface, 0)
        if seed is not None:
            gens = C.twist_generators(surface)
            cur = seed
            for _ in range(rng.randrange(3)):
                _, t = gens[rng.randrange(len(gens))]
                nxt = C.dehn_twist(cur, t, rng.choice([-1, 1]))
                if nxt.complexity > complexity_bound:
                    break
                cur = nxt
            return cur
    if style == 3:
        for _ in range(8):
            try:
                a, b, i = sample_pair(surface, rng, 2, 6, complexity_bound, 20)
            except InternalInvariantError:
                raise
            except NSCurvesError:
                continue
            cfg = PC.draw_pair(a, b)
            bics = [bc for bc in B.enumerate_bicorns(cfg)
                    if bc.kind == "proper"]
            if bics:
                return bics[rng.randrange(len(bics))].derived
    return C.random_curve(surface, rng, max_twists=5,
                          complexity_bound=complexity_bound)


# -- claim trials ---------------------------------------------------------------
#
# A trial function samples one instance from `rng`, records its numbers in
# `row` and its extremal statistics on `rep`, puts the sampled curves a
# failing instance records into `curves`, and raises BoundViolation when a
# claimed bound fails.  The runner below does everything else.


def _claim1_trial(surface, rng, rep, row, curves, complexity_bound):
    """Adjacent pairs: the bicorn graph has diameter at most two."""
    a, b, i = sample_pair(surface, rng, 0, 2, complexity_bound)
    curves.update(a=a, b=b)
    row["i_ab"] = i
    cfg = PC.draw_pair(a, b)
    bics = B.enumerate_bicorns(cfg)
    if i == 2:
        worst = 0
        for bc in bics:
            if bc.kind == "proper":
                worst = max(worst, PC.intersection_number(a, bc.derived))
        row["max_i_a_bicorn"] = worst
        rep.bump("max_i_a_bicorn", worst)
        if worst > 1:
            raise B.BoundViolation(
                "a bicorn of an i=2 pair meets a %d times" % worst)
    graph = B.bicorn_graph(a, b)
    if i <= 1 and len(graph.vertices) != 2:
        raise B.BoundViolation(
            "A(a,b) of an i<=1 pair has %d vertices" % len(graph.vertices))
    diam = graph.diameter()
    row["diameter"] = diam
    if diam is None or diam > 2:
        raise B.BoundViolation("bicorn graph diameter %s" % diam)
    rep.bump("max_diameter", diam)


def _claim2_trial(surface, rng, rep, row, curves, max_i, complexity_bound):
    """Monotone successor chains reach b; the bicorn graph is connected."""
    a, b, i = sample_pair(surface, rng, 0, max_i, complexity_bound)
    curves.update(a=a, b=b)
    row["i_ab"] = i
    stats = []
    chain = B.connect_in_bicorn_graph(a, b, collect_stats=stats)
    row["chain_len"] = len(chain) - 1
    rep.bump("max_chain_len", len(chain) - 1)
    worst = 0
    for u, v in zip(chain, chain[1:]):
        worst = max(worst, PC.intersection_number(u.derived, v.derived))
        if not v.b_gaps > u.b_gaps and v.kind != "degenerate_b":
            raise B.BoundViolation("chain b-arcs not monotone")
    row["max_consecutive_i"] = worst
    rep.bump("max_consecutive_i", worst)
    if worst > 2:
        raise B.BoundViolation("chain edge intersects %d > 2" % worst)
    for st in stats:
        rep.record_branch(st.get("branch", "unknown"))
    if i <= 6:
        graph = B.bicorn_graph(a, b)
        row["bfs_connected"] = int(graph.connected)
        if not graph.connected:
            raise B.BoundViolation("bicorn graph disconnected")


def _claim3_trial(surface, rng, rep, row, curves, max_i, complexity_bound):
    """Every bicorn of (a,b) lands near the bicorns of (a,d) or (b,d)."""
    a, b, i = sample_pair(surface, rng, 0, max_i, complexity_bound)
    curves.update(a=a, b=b)
    d = curves["d"] = sample_curve(surface, rng, complexity_bound)
    row["i_ab"] = i
    cfg = B.triple_config(a, b, d)
    seen = set()
    worst = 0
    for bc in B.enumerate_bicorns(cfg):
        if bc.derived.is_separating() or bc.derived in seen:
            continue
        seen.add(bc.derived)
        w = B.project_to_sides(bc, d, cfg)
        rep.record_branch(w.branch)
        if w.branch == "near" and w.bounds.get("i_c_target", 0) > 1:
            raise B.BoundViolation("near witness bound")
        if w.branch == "reroute":
            if w.bounds.get("i_c_c0", 0) != 0 or \
                    w.bounds.get("i_c0_cprime", 0) > 3:
                raise B.BoundViolation("reroute witness bounds")
        worst = max(worst, w.certified_distance)
    row["empirical_D"] = worst
    rep.bump("empirical_D", worst)
    if worst > 8:
        raise B.BoundViolation("certified distance %d > 8" % worst)


def _lemma22_trial(surface, rng, rep, row, curves, max_i, complexity_bound):
    """Surgery paths stay within 2 i(a,b) + 1 under the primed edge rule."""
    a, b, i = sample_pair(surface, rng, 0, max_i, complexity_bound)
    curves.update(a=a, b=b)
    row["i_ab"] = i
    path = B.distance_path(a, b, "nsprime")
    length = len(path) - 1
    row["path_len"] = length
    rep.bump("max_path_len", length)
    if length > 2 * i + 1:
        raise B.BoundViolation("path length bound")
    for u, v in zip(path, path[1:]):
        if not B.ns_adjacent(surface, u, v, "nsprime"):
            raise B.BoundViolation("path edge rule")
    if path[0] != a or path[-1] != b:
        raise B.BoundViolation("path endpoints")
    if i == 1:
        want = 1 if surface.genus == 1 else 2
        if length != want:
            raise B.BoundViolation(
                "base case length %d != %d" % (length, want))


def _separating_trial(surface, rng, rep, row, curves, complexity_bound):
    """Homological separating test against the cut-components oracle."""
    c = curves["c"] = random_curve_any(surface, rng, complexity_bound)
    parts = PC.cut_components(c)
    sep = c.is_separating()
    row["separating"] = int(sep)
    row["components"] = parts
    if sep != (parts >= 2):
        raise B.BoundViolation(
            "oracle disagreement: separating=%s components=%d" % (sep, parts))
    rep.stats["separating_seen"] += int(sep)


# -- the trial runner -------------------------------------------------------------


@dataclass(frozen=True)
class _Claim:
    report: str             # the report's name for the claim
    params: dict            # every parameter the claim takes, with its default
    trial: object           # the per-trial function
    counters: tuple = ()    # stats that count up from zero


# Keyed by the name `verify` commands and replay bundles use.
CLAIMS = {
    "claim1": _Claim("claim1", {"complexity_bound": 120}, _claim1_trial),
    "claim2": _Claim("claim2", {"max_i": 10, "complexity_bound": 150},
                     _claim2_trial),
    "claim3": _Claim("claim3", {"max_i": 4, "complexity_bound": 120},
                     _claim3_trial),
    "lemma22": _Claim("lemma22", {"max_i": 12, "complexity_bound": 150},
                      _lemma22_trial),
    "separating": _Claim("separating_oracle", {"complexity_bound": 200},
                         _separating_trial, counters=("separating_seen",)),
}


def _claim_params(key, given):
    """The claim's parameters: its defaults overridden by `given`."""
    if key not in CLAIMS:
        raise NSCurvesError("unknown claim %r" % key)
    defaults = CLAIMS[key].params
    unknown = sorted(set(given) - set(defaults))
    if unknown:
        raise NSCurvesError("claim %s takes no parameter %s (it takes %s)"
                            % (key, ", ".join(unknown),
                               ", ".join(sorted(defaults))))
    # every parameter a claim takes is a count
    for name, value in given.items():
        _check_count(name, value)
    return {**defaults, **given}


def _check_count(name, value):
    # type(), not isinstance(): a bool is an int, and JSON true loads as one
    if type(value) is not int or value < 0:
        raise NSCurvesError("%s must be a count, an integer >= 0 (got %r)"
                            % (name, value))


def run_verifier(key, surface, samples, seed, trial_indices=None, **params):
    """Run the trials of one claim (all `samples`, or `trial_indices`).

    Trial k draws from its own generator seeded by (seed, k).  A trial that
    raises BoundViolation or another NSCurvesError is a failing instance;
    an InternalInvariantError is a bug and propagates.
    """
    params = _claim_params(key, params)
    _check_count("samples", samples)
    if type(seed) is not int:
        raise NSCurvesError("seed must be an integer (got %r)" % (seed,))
    for k in trial_indices or ():
        _check_count("trial", k)
    surface = parse_surface_spec(surface)
    claim = CLAIMS[key]
    rep = VerificationReport(claim.report, surface.spec_name, samples, seed)
    rep.config = RunConfig("verify " + key, surface.spec_name, samples, seed,
                           dict(params)).to_json()
    rep.stats = {name: 0 for name in claim.counters}
    for k in (trial_indices if trial_indices is not None
              else range(samples)):
        rng = random.Random(_trial_seed(seed, k))
        row, curves = {"trial": k}, {}
        try:
            claim.trial(surface, rng, rep, row, curves, **params)
            rep.passes += 1
            row["ok"] = 1
        except InternalInvariantError:
            raise
        except (B.BoundViolation, NSCurvesError) as err:
            rep.failures += 1
            row["ok"] = 0
            rep.failing_instances.append(
                {"claim": key, "surface": rep.surface, "trial": k,
                 "seed": seed, "version": __version__, "params": dict(params),
                 "error": "%s: %s" % (type(err).__name__, err),
                 **{name: c.literal() for name, c in curves.items()}})
        rep.trial_rows.append(row)
    return rep.finish()


VERIFIERS = {key: partial(run_verifier, key) for key in CLAIMS}


# -- explored balls and hyperbolicity ---------------------------------------------


@dataclass
class BallGraph:
    surface: str
    center: object
    radius: int
    complexity_bound: int
    flavor: str
    vertices: list
    edges: set
    distance_caveat: bool = True

    def distance_matrix(self):
        """Graph distances as a list of rows; raises DisconnectedGraph."""
        n = len(self.vertices)
        adj = B.adjacency(n, self.edges)
        mat = []
        for i in range(n):
            d = B.bfs_distances(adj, i)
            if len(d) != n:
                raise DisconnectedGraph("ball graph is not connected")
            mat.append([d[j] for j in range(n)])
        return mat

    def to_json(self):
        return {"schema": "nscurves.ball/1", "surface": self.surface,
                "center": self.center.to_json(), "radius": self.radius,
                "complexity_bound": self.complexity_bound,
                "flavor": self.flavor,
                "distance_caveat":
                    "distances are upper bounds for the full graph",
                "vertices": [v.to_json() for v in self.vertices],
                "edges": sorted(sorted(e) for e in self.edges)}


def check_ball_counts(radius, complexity_bound, twist_powers):
    """Raise NSCurvesError unless the counts `build_ball` takes are counts."""
    _check_count("radius", radius)
    _check_count("complexity_bound", complexity_bound)
    _check_count("twist_powers", twist_powers)


def build_ball(surface, center, radius, complexity_bound, flavor="ns",
               twist_powers=10):
    """BFS ball of the explored graph around a center curve.

    Neighbors are proposed by bounded twist words (all powers up to
    `twist_powers` of each generator) and by the nonseparating bicorns
    of each curve meeting the center at most 8 times; induced distances
    overestimate distances in the full graph.  The bicorns are enumerated
    on the pair's merged configuration (`draw_merged_pair`), as only
    their curves are read, so the ball reads no curve's drawing and no
    twist result replays its laps.
    """
    check_ball_counts(radius, complexity_bound, twist_powers)
    surface = parse_surface_spec(surface)
    if center.is_separating():
        raise PreconditionViolation("ball center must be nonseparating")
    gens = [c for _, c in C.twist_generators(surface)]

    def proposals(v):
        out = list(gens)
        for g in gens:
            # the n-th power of each sign is one more lap on the (n-1)-th,
            # so each orbit is walked once
            cur = {1: v, -1: v}
            for n in range(1, twist_powers + 1):
                stop = True
                for sgn in (1, -1):
                    cand = cur[sgn] = C.dehn_twist(cur[sgn], g, sgn)
                    if cand.complexity <= complexity_bound:
                        stop = False
                    out.append(cand)
                if stop and n > 2:
                    break
        if v != center and PC.intersection_number(v, center) <= 8:
            cfg = PC.draw_merged_pair(v, center)
            for bc in B.enumerate_bicorns(cfg):
                if not bc.derived.is_separating():
                    out.append(bc.derived)
        keep = []
        for c in out:
            if c.complexity <= complexity_bound and not c.is_separating() \
                    and not c.peripheral:
                keep.append(c)
        return keep

    if center.complexity > complexity_bound:
        raise PreconditionViolation("center exceeds the complexity bound")
    # generation closure first, then an honest BFS ball of the induced graph
    pool = [center]
    seen = {center}
    new = [center]
    for _ in range(radius):
        batch = []
        for v in new:
            for w in proposals(v):
                if w not in seen:
                    seen.add(w)
                    batch.append(w)
        pool.extend(batch)
        new = batch
    adj = B.adjacency(len(pool), [
        (i, j) for i in range(len(pool)) for j in range(i + 1, len(pool))
        if B.ns_adjacent(surface, pool[i], pool[j], flavor)])
    dist = B.bfs_distances(adj, 0)
    keep = sorted(i for i, d in dist.items() if d <= radius)
    remap = {i: k for k, i in enumerate(keep)}
    vertices = [pool[i] for i in keep]
    edges = set()
    for i in keep:
        for j in adj[i]:
            if j in remap and remap[i] < remap[j]:
                edges.add(frozenset((remap[i], remap[j])))
    return BallGraph(surface.spec_name, center, radius, complexity_bound,
                     flavor, vertices, edges)


# the most vertices the exact four-point scan takes
EXACT_DELTA_CAP = 400


def four_point_delta(graph: BallGraph, mode="exact", seed=0, samples=20000):
    """Four-point hyperbolicity defect of the explored graph, as a Fraction.

    Exact mode scans pairs of vertex pairs; sampled mode maximizes over
    seeded random quadruples and therefore lower-bounds the exact value.

    The exact scan follows Cohen, Coudert and Lancin ("On computing the
    Gromov hyperbolicity", ACM JEA 2015).  A quadruple's gap is S1 - S2,
    its largest distance sum minus the middle one, and delta is the
    largest gap over two.  If S1 = d(x,y) + d(z,w) with d(x,y) <= d(z,w),
    the triangle inequality gives S2 + S3 >= 2 d(z,w), so the gap is at
    most d(x,y).  The scan therefore sorts the vertex pairs by distance,
    longest first, pairs each one only with the pairs before it, counts
    a gap only where that pairing gives the largest sum, and stops at the
    first pair whose distance is no more than the best gap so far.
    """
    _check_count("samples", samples)
    n = len(graph.vertices)
    if n < 4:
        return Fraction(0)
    mat = graph.distance_matrix()
    if mode == "exact":
        if n > EXACT_DELTA_CAP:
            raise NSCurvesError("exact mode capped at %d vertices (got %d)"
                                % (EXACT_DELTA_CAP, n))
        pairs = sorted(((row[y], x, y) for x, row in enumerate(mat)
                        for y in range(x + 1, n)), reverse=True)
        best = 0
        for k, (d_xy, x, y) in enumerate(pairs):
            if d_xy <= best:
                break
            row_x, row_y = mat[x], mat[y]
            for d_zw, z, w in pairs[:k]:
                gap = d_xy + d_zw - max(row_x[z] + row_y[w],
                                        row_x[w] + row_y[z])
                if gap > best:
                    best = gap
        return Fraction(best, 2)
    rng = random.Random(seed)
    best = 0
    for _ in range(samples):
        x, y, z, w = rng.sample(range(n), 4)
        s1 = mat[x][y] + mat[z][w]
        s2 = mat[x][z] + mat[y][w]
        s3 = mat[x][w] + mat[y][z]
        hi, mid, _ = sorted((s1, s2, s3), reverse=True)
        best = max(best, hi - mid)
    return Fraction(best, 2)


def four_point_delta_bruteforce(graph: BallGraph):
    """Plain all-quadruples oracle; use on small graphs only."""
    n = len(graph.vertices)
    if n < 4:
        return Fraction(0)
    mat = graph.distance_matrix()
    best = 0
    for x, y, z, w in combinations(range(n), 4):
        s1 = mat[x][y] + mat[z][w]
        s2 = mat[x][z] + mat[y][w]
        s3 = mat[x][w] + mat[y][z]
        hi, mid, _ = sorted((s1, s2, s3), reverse=True)
        best = max(best, hi - mid)
    return Fraction(best, 2)


def replay_instances(data):
    """Re-run serialized failing instances; returns per-instance outcomes.

    `data` is a bundle read from JSON: a dict with `failing_instances`,
    or the list of instances alone.  Each instance reruns under its own
    claim and parameters. Instances written before they carried these
    fall back to the bundle's claim and the verifier's default parameters.
    """
    bundle = {"failing_instances": data} if isinstance(data, list) else data
    insts = bundle.get("failing_instances", []) \
        if isinstance(bundle, dict) else None
    needed = {"surface", "seed", "trial"}
    if not isinstance(insts, list) or not all(
            isinstance(i, dict) and needed <= i.keys() for i in insts):
        raise NSCurvesError("a replay bundle is a dict or a list of dicts, "
                            "each instance with a surface, seed and trial")
    out = []
    for inst in insts:
        claim = inst.get("claim") or bundle.get("claim")
        if not isinstance(claim, str) or claim not in VERIFIERS:
            raise NSCurvesError("instance %r names no known claim (%r)"
                                % (inst.get("trial"), claim))
        params = inst.get("params", {})
        if not isinstance(params, dict):
            raise NSCurvesError("instance %r has parameters %r, not a dict"
                                % (inst.get("trial"), params))
        surface = parse_surface_spec(inst["surface"])
        rep = VERIFIERS[claim](surface, 1, inst["seed"],
                               trial_indices=[inst["trial"]], **params)
        out.append({"instance": inst, "reproduced": rep.failures > 0})
    return out
