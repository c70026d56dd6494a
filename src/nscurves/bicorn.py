"""Bicorn curves, the bicorn graph, and the three constructive engines.

A bicorn between curves a and b is a simple closed curve made of one arc
of each, meeting only at the shared endpoints; a and b themselves count
as degenerate bicorns.  On top of the enumeration this module implements
the surgery step that shortens intersection with b while staying close to
a, the successor step that grows a bicorn's b-arc while moving distance
at most two, and the two-stage projection that pushes a bicorn of (a,b)
near the bicorns of (a,d) or (b,d).

Claimed intersection bounds that the constructions are supposed to
satisfy are measured on the derived curves and raised as BoundViolation
when they fail, so harness runs report them instead of silently passing.
"""

from __future__ import annotations

from dataclasses import dataclass, field

from . import curve as C
from . import pairconfig as PC
from .errors import (InternalInvariantError, Inessential, NoSuccessor,
                     NSCurvesError, PreconditionViolation)
from .homology import HomologyClass, homology_basis


class BoundViolation(NSCurvesError):
    """A constructed curve failed one of the claimed intersection bounds."""


# -- bicorn objects ---------------------------------------------------------


class Bicorn:
    __slots__ = ("config", "kind", "aseg", "bseg", "derived", "b_gaps")

    def __init__(self, config, kind, aseg, bseg, derived, b_gaps):
        self.config = config
        self.kind = kind          # "degenerate_a" | "degenerate_b" | "proper"
        self.aseg = aseg          # (v_from, v_to) forward along a, or None
        self.bseg = bseg          # (w_from, w_to) forward along b, or None
        self.derived = derived
        self.b_gaps = b_gaps      # frozenset of covered elementary b-gaps

    def __repr__(self):
        return "Bicorn(%s, %s)" % (self.kind, self.derived)

    def to_json(self):
        def seg(sg):
            return None if sg is None else [sg[0].idx_a, sg[1].idx_a]
        return {"kind": self.kind, "a_arc": seg(self.aseg),
                "b_arc": seg(self.bseg),
                "curve": self.derived.to_json()}


def _gaps_of_arc(config, w_from, w_to):
    """Elementary b-gaps covered by the forward b-arc w_from -> w_to."""
    n = len(config.vertices)
    r1 = w_from.idx_b
    return frozenset((r1 + k) % n for k in range((w_to.idx_b - r1) % n))


def _inside(r, lo, hi, n):
    """Whether rank r lies strictly inside the forward arc lo -> hi of a
    cyclic order of n ranks; the arc from lo back to lo is the whole
    cycle."""
    return 0 < (r - lo) % n < ((hi - lo) % n or n)


def degenerate_bicorn(config, which):
    verts = config.vertices
    curve = config.a if which == "a" else config.b
    if which == "a":
        gaps = frozenset()
    else:
        gaps = frozenset(range(len(verts)))
    return Bicorn(config, "degenerate_" + which, None, None, curve, gaps)


def _glued_walk(config, segs):
    """Darts of the closed walk glued from strand segments of the
    configuration's drawing.

    `segs` is a cyclic list of (sid, cr_from, cr_to, direction): the
    sub-arc of that strand between the two crossings, traversed forward
    (+1) or backward (-1), each turning into the next inside their shared
    crossing's triangle.  Each arc's darts are read off its strand's dart
    table (`Drawing.arc_darts`); at a junction the walk leaves the
    crossing's triangle through the first point of the next arc.
    """
    drawing = config.drawing
    arcs = []   # (points, darts, junction triangle) of each nonempty arc
    for (sid, cr_from, cr_to, direction) in segs:
        pts, darts = drawing.arc_darts(sid, cr_from, cr_to, direction)
        if pts:
            arcs.append((pts, darts, cr_to.tri))
    if not arcs:
        raise InternalInvariantError("glued curve crosses no edges")
    crossed = sum(len(pts) for pts, _, _ in arcs)
    if len(set().union(*(pts for pts, _, _ in arcs))) != crossed:
        raise InternalInvariantError("glued curve reuses a point")
    side = drawing.side_of_point_in_tri
    walk = []
    for k, (_, darts, tri) in enumerate(arcs):
        walk += darts
        walk.append((tri, side(arcs[(k + 1) % len(arcs)][0][0], tri)))
    return walk


def _glued_curve(config, segs):
    """Curve glued from strand segments of the configuration's drawing
    (`_glued_walk`).  The arcs meet only at their ends, so the walk runs
    along a simple curve (`curve_from_walk`).

    Returns (curve, cls): the curve, or None when the glued walk is
    inessential, and the class of the walk's orientation, zero then.
    """
    surf = config.drawing.surface
    curve = C.curve_from_walk(surf, _glued_walk(config, segs))
    if curve is None:
        return None, HomologyClass(surf, [0] * surf.homology_rank)
    return curve, curve.cls if curve.forward_canonical else -curve.cls


def _derive(config, aseg, bseg):
    """Smooth the union of the two arcs into a Curve, or None."""
    u, v = aseg
    segs = [(config.sid_a, u.crossing, v.crossing, 1)]
    if (bseg[0], bseg[1]) == (u, v):
        segs.append((config.sid_b, v.crossing, u.crossing, -1))
    elif (bseg[0], bseg[1]) == (v, u):
        segs.append((config.sid_b, v.crossing, u.crossing, 1))
    else:
        raise InternalInvariantError("bicorn arcs do not close up")
    return _glued_curve(config, segs)[0]


def make_bicorn(config, aseg, bseg):
    (u, v), (w_from, w_to) = aseg, bseg
    verts, n = config.vertices, len(config.vertices)
    lo, hi = w_from.idx_b, w_to.idx_b
    for k in range(1, (v.idx_a - u.idx_a) % n):
        if _inside(verts[(u.idx_a + k) % n].idx_b, lo, hi, n):
            return None   # the arcs meet inside
    derived = _derive(config, aseg, bseg)
    if derived is None:
        return None
    return Bicorn(config, "proper", aseg, bseg, derived,
                  _gaps_of_arc(config, *bseg))


def enumerate_bicorns(config) -> list:
    """All bicorns of the configuration, degenerate ones included."""
    out = [degenerate_bicorn(config, "a"), degenerate_bicorn(config, "b")]
    verts = config.vertices
    for i in range(len(verts)):
        for j in range(i + 1, len(verts)):
            u, v = verts[i], verts[j]
            for aseg in ((u, v), (v, u)):
                for bseg in ((u, v), (v, u)):
                    bc = make_bicorn(config, aseg, bseg)
                    if bc is not None:
                        out.append(bc)
    return out


# -- the bicorn graph ---------------------------------------------------------


def adjacency(n, edges):
    """Neighbor sets of the vertices 0..n-1 of a graph with the given edges.

    An edge is any two-element collection of vertex indices; the bicorn
    graph and the explored balls keep theirs as frozensets.
    """
    adj = [set() for _ in range(n)]
    for i, j in edges:
        adj[i].add(j)
        adj[j].add(i)
    return adj


def bfs_distances(adj, src):
    """Graph distances from `src` to every vertex it reaches in `adj`."""
    dist = {src: 0}
    frontier = [src]
    while frontier:
        nxt = []
        for u in frontier:
            for v in adj[u]:
                if v not in dist:
                    dist[v] = dist[u] + 1
                    nxt.append(v)
        frontier = nxt
    return dist


@dataclass
class BicornGraph:
    a: object
    b: object
    vertices: list                    # deduplicated nonseparating Curves
    edges: set                        # frozensets of vertex indices
    representatives: dict             # curve -> Bicorn
    connected: bool
    skipped_separating: int

    def diameter(self):
        """Largest graph distance, or None when the graph is disconnected."""
        n = len(self.vertices)
        adj = adjacency(n, self.edges)
        best = 0
        for i in range(n):
            dist = bfs_distances(adj, i)
            if len(dist) < n:
                return None
            best = max(best, max(dist.values()))
        return best

    def to_json(self):
        return {"schema": "nscurves.bicorngraph/1",
                "vertices": [v.to_json() for v in self.vertices],
                "edges": sorted([sorted(e) for e in self.edges]),
                "connected": self.connected,
                "separating_bicorns_skipped": self.skipped_separating}


def bicorn_graph(a, b) -> BicornGraph:
    if a.is_separating() or b.is_separating():
        raise PreconditionViolation("bicorn graph needs nonseparating input")
    config = PC.draw_pair(a, b)
    bics = enumerate_bicorns(config)
    reps = {}
    skipped = 0
    for bc in bics:
        if bc.derived.is_separating():
            skipped += 1
            continue
        reps.setdefault(bc.derived, bc)
    verts = sorted(reps, key=lambda c: (c.complexity, c.weights))
    edges = set()
    for i in range(len(verts)):
        for j in range(i + 1, len(verts)):
            if PC.meets_at_most(verts[i], verts[j], 2):
                edges.add(frozenset((i, j)))
    g = BicornGraph(a, b, verts, edges, reps, False, skipped)
    if verts:
        reached = bfs_distances(adjacency(len(verts), edges), 0)
        g.connected = len(reached) == len(verts)
    return g


# -- the surgery step (distance bound engine) -----------------------------------


def surgery_pair(config):
    """Both surgery outcomes at a consecutive-along-b crossing pair.

    Returns (c1, c2, branch, drawn class identity data); the drawn
    orientations satisfy [c1] + [c2] = [a] exactly.
    """
    if config.count() < 2:
        raise PreconditionViolation("surgery needs i(a,b) >= 2")
    # the first vertex along a and the one after it along b
    w1 = config.vertices[0]
    w2 = config.vertices_b[(w1.idx_b + 1) % len(config.vertices)]
    parallel = (w1.sign_ab == w2.sign_ab)

    # both curves reuse the same consecutive b-arc from w1 to w2, so that
    # as chains c1 + c2 = (a-arc + a-arc) + (beta - beta) = a
    segs1 = [(config.sid_a, w1.crossing, w2.crossing, 1),
             (config.sid_b, w2.crossing, w1.crossing, -1)]
    segs2 = [(config.sid_a, w2.crossing, w1.crossing, 1),
             (config.sid_b, w1.crossing, w2.crossing, 1)]
    (c1, cls1), (c2, cls2) = [_glued_curve(config, segs)
                              for segs in (segs1, segs2)]
    if None in (c1, c2):
        raise Inessential("surgery curve is inessential")
    basis = homology_basis(config.a.surface)
    cls_a = basis.class_of_word(config.drawing.word_of(config.sid_a))
    if (cls1 + cls2).coords != cls_a.coords:
        raise InternalInvariantError("surgery homology bookkeeping failed")
    return c1, c2, ("parallel" if parallel else "antiparallel"), \
        (cls1, cls2, cls_a)


def surgery_step(a, b, config=None):
    """One distance-reducing surgery; returns the chosen nonseparating curve."""
    if config is None:
        config = PC.draw_pair(a, b)
    i_ab = config.count()
    c1, c2, branch, _ = surgery_pair(config)
    candidates = [c for c in (c1, c2) if not c.is_separating()]
    if not candidates:
        raise InternalInvariantError("both surgery curves separating")
    candidates.sort(key=lambda c: (PC.intersection_number(c, b), c.weights))
    c = candidates[0]
    ia, ib = PC.intersection_number(c, a), PC.intersection_number(c, b)
    if branch == "parallel":
        if ia > 1 or ib > i_ab - 1:
            raise BoundViolation(
                "parallel surgery bounds failed: i(c,a)=%d i(c,b)=%d i=%d"
                % (ia, ib, i_ab))
    else:
        if ia != 0 or ib > i_ab - 2:
            raise BoundViolation(
                "antiparallel surgery bounds failed: i(c,a)=%d i(c,b)=%d i=%d"
                % (ia, ib, i_ab))
    return c


def ns_adjacent(surface, x, y, flavor):
    if flavor == "ns":
        limit = 2
    else:
        limit = 1 if surface.genus == 1 else 0
    return PC.meets_at_most(x, y, limit)


def distance_path(a, b, flavor="nsprime"):
    """Explicit path from a to b under the requested edge rule.

    Length is at most 2 i(a,b) + 1; built by induction on the surgery
    step, with a middle curve inserted at the genus >= 2 base case.
    """
    if flavor not in ("ns", "nsprime"):
        raise NSCurvesError("flavor must be 'ns' or 'nsprime'")
    if a.is_separating() or b.is_separating():
        raise PreconditionViolation("path endpoints must be nonseparating")
    surface = a.surface
    path = _distance_path_rec(a, b, flavor, surface)
    for x, y in zip(path, path[1:]):
        if not ns_adjacent(surface, x, y, flavor):
            raise InternalInvariantError("path edge violates the flavor rule")
    if len(path) - 1 > 2 * PC.intersection_number(a, b) + 1:
        raise BoundViolation("path longer than 2i+1")
    return path


def _base_hop(a, b, i, flavor, surface):
    """Path for i = i(a,b) <= 1, per the genus-dependent base case.

    On genus >= 2 a once-crossing pair is not adjacent in NS', and the
    middle curve is a nonseparating curve disjoint from both: the first of
    the surface's base curves whose path counts with a and with b are 0
    (the path count bounds i from above on every surface), so the choice
    depends on (a, b) alone and nothing is drawn.  Only when no base curve
    serves is the middle curve found in the complement of the pair's
    merged drawing, which no report reads, so the hop leaves the memoized
    pair drawings alone and, with boundary, removes no bigon.
    """
    if a == b:
        return [a]
    if flavor == "ns" or surface.genus == 1 or i == 0:
        return [a, b]
    for g in C.base_curves(surface):
        if (g != a and g != b and not g.is_separating()
                and PC.path_intersection_number(g, a, 0) == 0
                and PC.path_intersection_number(g, b, 0) == 0):
            return [a, g, b]
    c = PC.find_complement_curve(PC.merged_pair_drawing(a, b)[0])
    if c is None:
        raise InternalInvariantError(
            "no complement curve for a once-crossing pair on genus >= 2")
    return [a, c, b]


def _distance_path_rec(a, b, flavor, surface):
    i = PC.intersection_number(a, b)
    if a == b:
        return [a]
    if i <= 1:
        return _base_hop(a, b, i, flavor, surface)
    if flavor == "ns" and i <= 2:
        return [a, b]
    cfg = PC.draw_pair(a, b)
    c = surgery_step(a, b, cfg)
    head = _base_hop(a, c, PC.intersection_number(a, c), flavor, surface)
    tail = _distance_path_rec(c, b, flavor, surface)
    return head + tail[1:]


# -- the successor step (connectivity engine) --------------------------------------


def _walk_b(config, start_vertex, forward=True):
    """a-b vertices in b-order starting after start_vertex (exclusive)."""
    order = config.vertices_b
    n = len(order)
    r = start_vertex.idx_b
    step = 1 if forward else -1
    return [order[(r + step * k) % n] for k in range(1, n)]


def _sub_arc_of_a(config, aseg, end_vertex, z):
    """Sub-arc of the forward a-arc `aseg` between one endpoint and z."""
    u, v = aseg
    if not _inside(z.idx_a, u.idx_a, v.idx_a, len(config.vertices)):
        raise InternalInvariantError("z not inside the a-arc")
    if end_vertex.idx_a == u.idx_a:
        return (u, z)
    if end_vertex.idx_a == v.idx_a:
        return (z, v)
    raise InternalInvariantError("end vertex not an endpoint")


def bicorn_successor(c: Bicorn, config=None, record=None):
    """A strictly larger adjacent nonseparating bicorn.

    Implements the full case split: the initial step from a, the matching
    sign extension, the two terminal cases that land on b, and the
    double-extension construction (in both mirror patterns) when the signs
    disagree on both sides.  The step from a needs i(a, b) >= 2; it starts
    at `config.vertices[0]`, and the forward extension is tried before the
    backward one, so the branches that a chain of successors walks depend
    on the drawn realization.
    """
    if config is None:
        config = c.config
    if c.kind == "degenerate_b":
        raise NoSuccessor("the terminal bicorn has no successor")
    stats = record if record is not None else {}

    if c.kind == "degenerate_a":
        if len(config.vertices) < 2:
            raise PreconditionViolation("a successor of a needs i(a,b) >= 2")
        x = config.vertices[0]
        y = _walk_b(config, x, forward=True)[0]
        cand = []
        for aseg in ((x, y), (y, x)):
            bc = make_bicorn(config, aseg, (x, y))
            if bc is not None and not bc.derived.is_separating():
                cand.append(bc)
        if not cand:
            raise BoundViolation("initial step: both half-bicorns separating")
        cand.sort(key=lambda t: (PC.intersection_number(t.derived, config.b),
                                 t.derived.weights))
        nxt = cand[0]
        stats["branch"] = "initial"
        _check_successor(c, nxt, config, stats, limit=2)
        return nxt

    u, v = c.aseg
    w_from, w_to = c.bseg
    n = len(config.vertices)

    def first_hit(walk):
        for t in walk:
            if _inside(t.idx_a, u.idx_a, v.idx_a, n):
                return t
            if t.idx_a in (w_from.idx_a, w_to.idx_a):
                return None
        return None

    z1 = first_hit(_walk_b(config, w_to, forward=True))
    if z1 is None:
        stats["branch"] = "take_b_clean"
        nxt = degenerate_bicorn(config, "b")
        i_cb = PC.intersection_number(c.derived, config.b)
        stats["i_c_b"] = i_cb
        if i_cb > 1:
            raise BoundViolation("clean extension but i(c,b)=%d > 1" % i_cb)
        return nxt

    if z1.sign_ab == w_to.sign_ab:
        aseg2 = _sub_arc_of_a(config, c.aseg, w_from, z1)
        nxt = make_bicorn(config, aseg2, (w_from, z1))
        if nxt is None:
            raise InternalInvariantError("same-sign extension not a bicorn")
        stats["branch"] = "same_sign_forward"
        if nxt.derived.is_separating():
            raise BoundViolation("same-sign successor separating")
        _check_successor(c, nxt, config, stats, limit=2)
        _check_extension(c, nxt, forward=True, same_sign=True)
        return nxt

    z2 = first_hit(_walk_b(config, w_from, forward=False))
    if z2 is None:
        raise InternalInvariantError("backward extension found no interior hit")
    if z2.sign_ab == w_from.sign_ab:
        aseg2 = _sub_arc_of_a(config, c.aseg, w_to, z2)
        nxt = make_bicorn(config, aseg2, (z2, w_to))
        if nxt is None:
            raise InternalInvariantError("mirror extension not a bicorn")
        stats["branch"] = "same_sign_backward"
        if nxt.derived.is_separating():
            raise BoundViolation("mirror same-sign successor separating")
        _check_successor(c, nxt, config, stats, limit=2)
        _check_extension(c, nxt, forward=False, same_sign=True)
        return nxt

    if z1.idx_a == z2.idx_a:
        stats["branch"] = "take_b_pinched"
        nxt = degenerate_bicorn(config, "b")
        i_cb = PC.intersection_number(c.derived, config.b)
        stats["i_c_b"] = i_cb
        if i_cb > 2:
            raise BoundViolation("pinched extension but i(c,b)=%d > 2" % i_cb)
        return nxt

    # both extensions exist, opposite signs both ways
    c1 = make_bicorn(config, _sub_arc_of_a(config, c.aseg, w_from, z1),
                     (w_from, z1))
    c2 = make_bicorn(config, _sub_arc_of_a(config, c.aseg, w_to, z2),
                     (z2, w_to))
    if c1 is None or c2 is None:
        raise InternalInvariantError("double extension lost a bicorn")
    usable = []
    for bc in (c1, c2):
        if not bc.derived.is_separating() \
                and PC.intersection_number(c.derived, bc.derived) <= 2:
            usable.append(bc)
    if usable:
        usable.sort(key=lambda t: (PC.intersection_number(c.derived, t.derived),
                                   t.derived.weights))
        stats["branch"] = "double_extension_direct"
        nxt = usable[0]
        _check_successor(c, nxt, config, stats, limit=2)
        _check_extension(c, nxt, forward=None, same_sign=False)
        return nxt

    if not (c1.derived.is_separating() and c2.derived.is_separating()):
        raise BoundViolation(
            "a nonseparating double-extension bicorn exceeded i(c,.) <= 2")

    # both separating: build the correcting bicorn e2 and the span bicorn c'
    e2 = make_bicorn(config, _sub_arc_of_a(config, c.aseg, w_from, z2),
                     (z2, w_from))
    if e2 is None:
        raise InternalInvariantError("correction bicorn invalid")
    if e2.derived.is_separating():
        raise BoundViolation("correction bicorn separating")
    _assert_class_sum(c, c2, e2, "correction identity [c2]+[e2]=[c]")
    # span arc of a between z1 and z2, inside the old a-arc: z1 comes
    # first iff it lies between u and z2
    if _inside(z1.idx_a, u.idx_a, z2.idx_a, n):
        span = (z1, z2)
    else:
        span = (z2, z1)
    nxt = make_bicorn(config, span, (z2, z1))
    if nxt is None:
        raise InternalInvariantError("span bicorn invalid")
    stats["branch"] = "both_separating_span"
    if nxt.derived.is_separating():
        raise BoundViolation("span bicorn separating")
    _check_successor(c, nxt, config, stats, limit=2)
    _assert_class_sum(nxt, c1, e2, "span identity [c']=[c1]+[e2]")
    return nxt


def _check_successor(c, nxt, config, stats, limit):
    if not nxt.b_gaps > c.b_gaps:
        raise InternalInvariantError("successor b-arc did not grow")
    i_cc = PC.intersection_number(c.derived, nxt.derived)
    stats["i_c_succ"] = i_cc
    if i_cc > limit:
        raise BoundViolation("successor intersection %d > %d" % (i_cc, limit))


def _check_extension(c, nxt, forward, same_sign):
    """The sign pattern an extension branch relies on, read off its result.

    An extension keeps one end of c's b-arc and moves the other one to a
    crossing inside c's a-arc.  `forward` says which end must have moved
    (None: either), `same_sign` whether the moved end keeps its sign.
    """
    (w_from, w_to), (x_from, x_to) = c.bseg, nxt.bseg
    if x_from.idx_a == w_from.idx_a:
        moved_forward, old, new = True, w_to, x_to
    elif x_to.idx_a == w_to.idx_a:
        moved_forward, old, new = False, w_from, x_from
    else:
        raise InternalInvariantError("extension moved both ends of the b-arc")
    if forward is not None and moved_forward != forward:
        raise InternalInvariantError(
            "extension moved the %s end" % ("forward" if moved_forward
                                            else "backward"))
    if (old.sign_ab == new.sign_ab) != same_sign:
        raise InternalInvariantError(
            "extension end %s its crossing sign"
            % ("changed" if same_sign else "kept"))


def _assert_class_sum(total, x, y, identity):
    """[x] + [y] = [total] up to orientation choices, exactly."""
    want = total.derived.cls
    gx, gy = x.derived.cls, y.derived.cls
    for s1 in (1, -1):
        for s2 in (1, -1):
            got = [s1 * p + s2 * q for p, q in zip(gx.coords, gy.coords)]
            if tuple(got) == want.coords or \
                    tuple(-t for t in got) == want.coords:
                return
    raise BoundViolation("%s failed" % identity)


def connect_in_bicorn_graph(a, b, collect_stats=None):
    """Monotone chain of adjacent nonseparating bicorns from a to b.

    The chain starts at the first vertex of the drawn pair
    (`config.vertices[0]`) and each step prefers the forward extension, so
    the branches it walks depend on the drawn realization, not only on the
    classes of a and b.
    """
    if a.is_separating() or b.is_separating():
        raise PreconditionViolation("chain endpoints must be nonseparating")
    config = PC.draw_pair(a, b)
    i_ab = config.count()
    chain = [degenerate_bicorn(config, "a")]
    if i_ab <= 1 or a == b:
        chain.append(degenerate_bicorn(config, "b"))
        return chain
    guard = i_ab + 2
    while chain[-1].kind != "degenerate_b":
        stats = {}
        nxt = bicorn_successor(chain[-1], config, record=stats)
        if collect_stats is not None:
            collect_stats.append(stats)
        chain.append(nxt)
        if len(chain) > guard:
            raise InternalInvariantError("chain exceeded its length bound")
    return chain


# -- the projection step (thinness engine) --------------------------------------


@dataclass
class ProjectionWitness:
    branch: str                 # "trivial" | "near" | "reroute"
    side: str                   # which bicorn family the witness lands in
    target: object              # curve in A(a,d) or A(b,d)
    reroute: object = None      # the disjoint modified curve, if any
    bounds: dict = field(default_factory=dict)
    path: list = field(default_factory=list)
    certified_distance: int = 0

    def to_json(self):
        return {"branch": self.branch, "side": self.side,
                "target": self.target.to_json() if self.target else None,
                "reroute": self.reroute.to_json() if self.reroute else None,
                "bounds": dict(self.bounds),
                "path": [c.to_json() for c in self.path],
                "certified_distance": self.certified_distance}


def triple_config(a, b, d_curve) -> PC.PairConfiguration:
    cfg = PC.draw_pair(a, b)
    cfg.add_third(d_curve)
    return cfg


def project_to_sides(c: Bicorn, d_curve, cfg=None):
    """Witness that c is near the bicorns of (a,d) or (b,d).

    Follows the two-stage construction: pick a nonseparating bicorn c' of
    (b,d) whose b-arc sits inside c's, then either find a nonseparating
    (a,d)-bicorn meeting c at most once, or reroute the left-side arcs of
    c along d and certify the distance to c' through the surgery path.
    `cfg`, or else `c.config`, must have d drawn as its third curve
    (`triple_config`), so that c's crossings are those of the triple.
    """
    config = cfg if cfg is not None else c.config
    a, b = config.a, config.b
    if d_curve == a or d_curve == b:
        return ProjectionWitness("trivial", "ad" if d_curve == a else "bd",
                                 c.derived)
    if c.kind == "degenerate_a":
        return ProjectionWitness("trivial", "ad", c.derived)
    if c.kind == "degenerate_b":
        return ProjectionWitness("trivial", "bd", c.derived)
    if config.sid_d is None:
        raise PreconditionViolation(
            "projection needs the triple configuration of (a, b, d)")

    # each strand's crossings by their rank along it, and their number
    geo = config.drawing.geometry()
    ranks = {sid: ({cr.id: k for k, cr in enumerate(ev)}, len(ev))
             for sid, ev in geo.events.items()}

    # stage one: bicorns of b with d over the sub-arcs of beta
    cprime_dseg, cprime_curve = _stage_one(config, c, geo, ranks)

    # stage two: consecutive hits of c' on the a-arc
    return _stage_two(config, c, cprime_dseg, cprime_curve, geo, ranks)


def _stage_one(config, c, geo, ranks):
    """Select a nonseparating bicorn of (b,d) with b-arc inside beta."""
    sid_b, sid_d = config.sid_b, config.sid_d
    rank_b, n_b = ranks[sid_b]
    lo, hi = (rank_b[w.crossing.id] for w in c.bseg)
    hits = [cr for cr in geo.pair_events(sid_d, sid_b)
            if _inside(rank_b[cr.id], lo, hi, n_b)]
    if not hits:
        # beta misses d: d itself serves, as the degenerate bicorn of (b,d)
        return None, config.d_curve

    m = len(hits)
    pieces = []
    total = None
    for k in range(m):
        x_i, x_j = hits[k], hits[(k + 1) % m]
        segs = [(sid_d, x_i, x_j, 1)]
        # with one hit the d-arc wraps all of d and the b-arc degenerates
        # to x_1
        if m > 1:
            # the sub-arc of beta between the two hits, traversed back
            back = _inside(rank_b[x_i.id], lo, rank_b[x_j.id], n_b)
            segs.append((sid_b, x_j, x_i, -1 if back else 1))
        curve, cls = _glued_curve(config, segs)
        pieces.append(((x_i, x_j), curve, cls))
        total = cls if total is None else total + cls
    d_cls = homology_basis(config.a.surface).class_of_word(
        config.drawing.word_of(sid_d))
    if total.coords != d_cls.coords:
        raise BoundViolation("sum of (b,d)-bicorn classes misses [d]")
    cands = [(seg, curve) for (seg, curve, cls) in pieces
             if curve is not None and not cls.in_boundary_lattice()]
    if not cands:
        raise BoundViolation("no nonseparating (b,d)-bicorn over beta")
    return _least_meeting(cands, c.derived)


def _least_meeting(cands, c):
    """The first (seg, curve) of `cands` by (i(curve, c), curve.weights).

    The candidates are walked in stable weight order, and each one is
    counted only as far as it could beat the best so far: a candidate
    whose |curve . c| is at least the best count is skipped, the rest are
    counted with limit best - 1, and a count of 0 ends the walk.  With
    boundary that bounded count is the path count.  On a closed surface
    the path count only bounds i from above, so a candidate is counted
    exactly (`intersection_number`), as `meets_at_most` counts a pair
    whose path count passes its limit.
    """
    bounded = PC.paths_decide(c.surface)
    best, best_i = None, None
    for seg, curve in sorted(cands, key=lambda t: t[1].weights):
        if best is not None and abs(
                PC.homological_intersection(curve.cls, c.cls)) >= best_i:
            continue
        if best is None or not bounded or curve == c:
            i = PC.intersection_number(curve, c)
        else:
            i = PC.path_intersection_number(curve, c, best_i - 1)
        if best is None or i < best_i:
            best, best_i = (seg, curve), i
            if i == 0:
                break
    return best


def _stage_two(config, c, cprime_dseg, cprime_curve, geo, ranks):
    sid_a, sid_d = config.sid_a, config.sid_d
    rank_a, n_a = ranks[sid_a]
    u, v = c.aseg
    lo_a, hi_a = rank_a[u.crossing.id], rank_a[v.crossing.id]

    def along_a(cr):
        # position along the a-arc, counted from u
        return (rank_a[cr.id] - lo_a) % n_a

    # the hits of d on the a-arc, in d's order
    ys = [cr for cr in geo.pair_events(sid_d, sid_a)
          if _inside(rank_a[cr.id], lo_a, hi_a, n_a)]
    if cprime_dseg is not None:
        # only those on the d-arc of c', all of d when it has one hit,
        # ordered from its start
        rank_d, n_d = ranks[sid_d]
        lo_d, hi_d = (rank_d[x.id] for x in cprime_dseg)
        ys = [cr for cr in ys if _inside(rank_d[cr.id], lo_d, hi_d, n_d)]
        ys.sort(key=lambda cr: (rank_d[cr.id] - lo_d) % n_d)

    second_bicorns = []
    for y_i, y_j in zip(ys, ys[1:]):
        # the sub-arc of a between the two hits, traversed back
        back = along_a(y_i) < along_a(y_j)
        segs = [(sid_d, y_i, y_j, 1), (sid_a, y_j, y_i, -1 if back else 1)]
        curve, cls = _glued_curve(config, segs)
        second_bicorns.append(((y_i, y_j), curve, cls))

    near = []
    for (pair, curve, cls) in second_bicorns:
        if curve is None:
            continue
        i_cc = PC.intersection_number(c.derived, curve)
        if i_cc > 1:
            raise BoundViolation(
                "second-stage bicorn meets c %d > 1 times" % i_cc)
        if not cls.in_boundary_lattice():
            near.append((i_cc, curve))
    if near:
        near.sort(key=lambda t: (t[0], t[1].weights))
        w = ProjectionWitness("near", "ad", near[0][1])
        w.bounds["i_c_target"] = near[0][0]
        w.certified_distance = 1
        return w

    # all separating: reroute the left-side maximal arcs of c along d
    c0 = _build_reroute(config, c, second_bicorns, along_a)
    i_c_c0 = PC.intersection_number(c.derived, c0)
    if i_c_c0 != 0:
        raise BoundViolation("rerouted curve meets c (%d times)" % i_c_c0)
    i_c0_cp = PC.intersection_number(c0, cprime_curve)
    if i_c0_cp > 3:
        raise BoundViolation("reroute to side bicorn: i=%d > 3" % i_c0_cp)
    path = distance_path(c0, cprime_curve, "nsprime")
    w = ProjectionWitness("reroute", "bd", cprime_curve, reroute=c0)
    w.bounds["i_c_c0"] = i_c_c0
    w.bounds["i_c0_cprime"] = i_c0_cp
    w.path = path
    w.certified_distance = (0 if c0 == c.derived else 1) + (len(path) - 1)
    return w


def _build_reroute(config, c, second_bicorns, along_a):
    """Replace maximal left-left a-arcs of c by their d-arcs."""
    sid_a, sid_b, sid_d = config.sid_a, config.sid_b, config.sid_d
    u, v = c.aseg

    arcs = []
    for (y_i, y_j), _, _ in second_bicorns:
        # the side of a that the d-arc leaves y_i by and reaches y_j by
        side = y_i.sign_for(sid_a)
        if -y_j.sign_for(sid_a) != side:
            raise BoundViolation(
                "separating second-stage bicorn crosses sides")
        lo, hi = sorted((along_a(y_i), along_a(y_j)))
        arcs.append({"pair": (y_i, y_j), "side": side, "lo": lo, "hi": hi})
    # nesting audit for same-side arcs
    for i in range(len(arcs)):
        for j in range(i + 1, len(arcs)):
            if arcs[i]["side"] != arcs[j]["side"]:
                continue
            a1, a2 = arcs[i], arcs[j]
            nested = (a1["lo"] < a2["lo"] and a2["hi"] < a1["hi"]) or \
                     (a2["lo"] < a1["lo"] and a1["hi"] < a2["hi"])
            disjoint = a1["hi"] <= a2["lo"] or a2["hi"] <= a1["lo"]
            if not (nested or disjoint):
                raise BoundViolation("same-side arcs interleave")

    left = [ar for ar in arcs if ar["side"] > 0]
    maximal = []
    for ar in left:
        if not any(o is not ar and o["lo"] < ar["lo"] and ar["hi"] < o["hi"]
                   for o in left):
            maximal.append(ar)
    maximal.sort(key=lambda ar: ar["lo"])
    if not maximal:
        return c.derived

    # walk the a-arc from u to v, replacing the maximal spans
    segs = []
    cursor = u.crossing
    for ar in maximal:
        y_i, y_j = ar["pair"]
        first, second = sorted((y_i, y_j), key=along_a)
        segs.append((sid_a, cursor, first, 1))
        # d-arc traversed from `first` to `second`; direction along d
        segs.append((sid_d, first, second, 1 if first is y_i else -1))
        cursor = second
    segs.append((sid_a, cursor, v.crossing, 1))
    # close with the b-arc of c, traversed from v back to u
    segs.append((sid_b, v.crossing, u.crossing, -1 if c.bseg == (u, v) else 1))
    c0, cls = _glued_curve(config, segs)
    if c0 is None or cls.in_boundary_lattice():
        raise BoundViolation("rerouted curve is separating")
    return c0
