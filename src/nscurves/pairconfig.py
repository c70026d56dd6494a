"""Pairs (and triples) of curves realized in minimal position.

A configuration is an overlay drawing of reduced solo curves with all
bigons between participating strands removed; bigon-freeness is the
minimal-position certificate, so the crossing count of the drawing is the
geometric intersection number.  Nothing is drawn for i(a, b) where the
curves' reduced cyclic paths in the dual graph decide it
(`path_intersection_number`, after Cohen-Lustig): on every surface with
boundary, and on a closed surface whenever the path count, which is i in
the surface punctured at its vertex, meets the homology bound |a . b|.
The count is one scan over a's path against both directions of b's, on
integer passage codes (`linked_runs`); Dehn twists on the paths splice at
the runs the same scan finds.
Every drawn pair checks its crossing count against the path count:
equal with boundary, at most and of the same parity on a closed surface.

Pairs are drawn two ways.  A configuration, which the bicorn
constructions and every report read, stacks the solo drawings of a and b
and removes every bigon between them.  That bigon-free overlay is
memoized, and the configurations of a pair share it with its derived
geometry; only `add_third` draws into a configuration, into its own
copy.  The key is the surface with the drawing contents of a and b,
which are their drawn strands (see `curve`).  Curve keys would not do,
as equal curves can have different drawings, and neither would passages,
since a path-built twist result keeps a path that starts elsewhere than
its replayed drawing.  Where no report reads the drawing, the pair is
drawn merged instead (`merged_pair_drawing`), its strands drawn from the
curves' paths, so no twist result replays its laps for it: the
closed-surface counts of `intersection_number` and `meets_at_most`, the
once-crossing pairs of a bicorn base hop that every base curve meets,
whose complement the hop then searches, and the pairs whose bicorns an
explored ball proposes, on a configuration over the merged drawing
(`draw_merged_pair`).  The merged overlay has one crossing per linked
run of the paths, so bigon removal finds nothing with boundary and only
bigons around the vertex on a closed surface.  A merged drawing is never
memoized.  A closed-surface pair that `intersection_number` draws hands
its path count to the check, so its paths are scanned once.
The module also hosts the operations that read the complement of a
drawn pair: the cut-components oracle, the search for nonseparating
curves disjoint from both, and the dual curve meeting a nonseparating
curve exactly once.  The oracle counts the regions of the normal curve
with the curve's weights, joined across the edges, and reads no drawing;
the two searches walk the fragment graph of the drawing's arrangement,
and the witness search stops at the fragment it looks for.
"""

from __future__ import annotations

from functools import lru_cache
from itertools import islice

from . import curve as C
from .arrangement import Arrangement, _union_find, face_data
from .drawing import Drawing, merged_overlay, overlay
from .errors import InternalInvariantError, NSCurvesError


# Bigon-free pair drawings by (surface, drawing content of a, drawing
# content of b), oldest entry evicted first.  The pair claims resample
# the same pairs: the verification suite at 50 samples draws a few hundred
# distinct ones, each several times.
_PAIR_DRAWING_CACHE_SIZE = 1024
_PAIR_DRAWING_CACHE = {}


def minimal_pair_drawing(a: C.Curve, b: C.Curve):
    """Overlay of a and b with all mutual bigons removed."""
    if a.surface is not b.surface:
        raise NSCurvesError("curves on different surfaces")
    if a == b:
        d = a.drawing.clone()
        sid_a = next(iter(d.strands))
        return d, sid_a, d.add_parallel_strand(sid_a)
    d, (sid_a, sid_b) = overlay([a.drawing, b.drawing])
    d.remove_bigons_between(sid_a, sid_b)
    return d, sid_a, sid_b


def _memoized_pair_drawing(a: C.Curve, b: C.Curve):
    """`minimal_pair_drawing(a, b)`, drawn once per drawing content.

    Every caller gets the same drawing, which must not be edited.
    """
    if a.surface is not b.surface:
        raise NSCurvesError("curves on different surfaces")
    key = (a.surface, a.drawing.content(), b.drawing.content())
    got = _PAIR_DRAWING_CACHE.get(key)
    if got is None:
        got = minimal_pair_drawing(a, b)
        C.memo_store(_PAIR_DRAWING_CACHE, _PAIR_DRAWING_CACHE_SIZE, key, got)
    return got


class ConfigVertex:
    __slots__ = ("crossing", "sign_ab", "idx_a", "idx_b")

    def __init__(self, crossing, sign_ab, idx_a, idx_b):
        self.crossing = crossing
        self.sign_ab = sign_ab   # crossing sign for (strand a, strand b) dirs
        self.idx_a = idx_a       # rank along strand a
        self.idx_b = idx_b       # rank along strand b


class PairConfiguration:
    """Two (optionally three) curves drawn mutually bigon-free.

    `path_count`, if given, is `path_intersection_number(a, b)` as a
    caller has already counted it.
    """

    def __init__(self, a, b, path_count=None):
        self._adopt(a, b, *_memoized_pair_drawing(a, b))
        if a == b:
            return
        _check_drawn_count(a, b, len(self.vertices), path_count)

    def _adopt(self, a, b, drawing, sid_a, sid_b):
        """Take `drawing`, with a and b drawn bigon-free as strands sid_a
        and sid_b, and index its a-b crossings."""
        self.a = a
        self.b = b
        self.d_curve = None
        self.drawing, self.sid_a, self.sid_b = drawing, sid_a, sid_b
        self.sid_d = None
        self._index_vertices()

    def _index_vertices(self):
        geo = self.drawing.geometry()
        ev_a = geo.pair_events(self.sid_a, self.sid_b)
        ev_b = geo.pair_events(self.sid_b, self.sid_a)
        rank_b = {cr.id: k for k, cr in enumerate(ev_b)}
        # `vertices` is in a-order (idx_a is the index into it),
        # `vertices_b` holds the same vertices in b-order
        self.vertices = [ConfigVertex(cr, cr.sign_for(self.sid_a), k,
                                      rank_b[cr.id])
                         for k, cr in enumerate(ev_a)]
        self.vertices_b = sorted(self.vertices, key=lambda v: v.idx_b)

    def add_third(self, d_curve):
        """Draw a third curve minimally against both locked curves.

        d is drawn into a copy of the shared pair drawing, which becomes
        this configuration's own.  Bigons of d against a and against b are
        removed one at a time.  A move pushes the strand with the longer
        arc across the bigon, so a or b may move; either way the a-b
        crossings must stay as they were, and this is checked once d is
        minimal.  The moves patch the kept geometries of d with a and of d
        with b, which are then checked against one full rebuild.
        """
        if self.sid_d is not None:
            raise NSCurvesError("third curve already drawn")
        self.d_curve = d_curve
        ab_count = len(self.vertices)
        self.drawing = self.drawing.clone()
        sids = self.drawing.insert_copy(d_curve.drawing)
        if len(sids) != 1:
            raise InternalInvariantError("third curve not a single strand")
        self.sid_d = sids[0]
        while True:
            moved = False
            for sid_other in (self.sid_a, self.sid_b):
                move = self.drawing.find_bigon(self.sid_d, sid_other)
                if move is not None:
                    self.drawing.apply_bigon_move(move)
                    moved = True
                    break
            if not moved:
                break
        for sid_other in (self.sid_a, self.sid_b):
            self.drawing.check_pair_geometry(self.sid_d, sid_other)
        self._index_vertices()
        if len(self.vertices) != ab_count:
            raise InternalInvariantError(
                "drawing d changed the a-b crossings from %d to %d"
                % (ab_count, len(self.vertices)))
        return self.sid_d

    # -- counts and signs -------------------------------------------------

    def count(self):
        """The number of a-b crossings."""
        return len(self.vertices)

    def faces(self):
        """Faces of the complement of a and b, whether or not d is drawn."""
        return face_data(self.drawing, [self.sid_a, self.sid_b])

    def to_json(self):
        verts = []
        for v in self.vertices:
            verts.append({"id": v.idx_a, "sign": v.sign_ab,
                          "rank_a": v.idx_a, "rank_b": v.idx_b,
                          "triangle": v.crossing.tri})
        arcs = []
        for role, sid in (("a", self.sid_a), ("b", self.sid_b)):
            st = self.drawing.strands[sid]
            arcs.append({"role": role,
                         "edges": [self.drawing.pt_edge[p] for p in st.pts]})
        return {"schema": "nscurves.pairconfig/1",
                "surface": self.a.surface.spec_name,
                "vertices": verts,
                "arcs": arcs,
                "faces": [f.to_json() for f in self.faces()]}


def _check_drawn_count(a, b, drawn, path_count=None):
    """Raise unless `drawn` crossings of a and b fit their path count.

    The path count is i with boundary, and on a closed surface an upper
    bound of the same parity.  `path_count`, if given, is that count as a
    caller has already made it.
    """
    from_paths = (path_intersection_number(a, b) if path_count is None
                  else path_count)
    if paths_decide(a.surface):
        if from_paths != drawn:
            raise InternalInvariantError(
                "drawn pair has %d crossings, its paths give i = %d"
                % (drawn, from_paths))
    elif drawn > from_paths or (from_paths - drawn) % 2:
        raise InternalInvariantError(
            "drawn pair has %d crossings, its paths bound i by %d "
            "with the same parity" % (drawn, from_paths))


def draw_pair(a, b) -> PairConfiguration:
    return PairConfiguration(a, b)


def draw_merged_pair(a, b) -> PairConfiguration:
    """Configuration of distinct curves a and b over their merged drawing
    (`merged_pair_drawing`), which has checked its crossing count.

    Its drawing is its own and is never memoized.  Its strands run along
    the curves' paths; its bicorns derive the curves that those of
    `draw_pair` derive, though maybe in another order.
    """
    config = object.__new__(PairConfiguration)
    config._adopt(a, b, *merged_pair_drawing(a, b))
    return config


def merged_pair_drawing(a: C.Curve, b: C.Curve, path_count=None):
    """The merged overlay of distinct curves a and b, in minimal position.

    `merged_overlay` crosses the strands once per linked run of their
    paths, so a pair with boundary has no bigon, and a closed-surface pair
    only bigons around the vertex; `remove_bigons_between` removes those
    and certifies the rest.  The crossings are checked against the path
    count, as a `PairConfiguration` checks them (`path_count` as there).
    Returns the drawing, whose strands are drawn from the curves' paths,
    and the sids of a and b.  The drawing is the caller's own and is never
    memoized: the memoized pair drawings stack the strands, and reports
    read their crossings.
    """
    d, (sid_a, sid_b) = merged_overlay(
        *(Drawing.from_path(x.surface, x.passages()) for x in (a, b)))
    d.remove_bigons_between(sid_a, sid_b)
    _check_drawn_count(a, b, d.geometry().count_pair(sid_a, sid_b),
                       path_count)
    return d, sid_a, sid_b


def paths_decide(surface) -> bool:
    """Whether reduced dual paths decide i(a, b) on this surface.

    With every vertex of the triangulation on the boundary (no vertex
    relators), the surface retracts onto the dual graph, its fundamental
    group is free and a curve's reduced cyclic path is its geodesic.  On
    a closed surface the dual graph is a spine of the surface punctured
    at its one vertex, so the paths give i there, an upper bound.
    """
    return not surface.vertex_relators


def linked_runs(pa, pb):
    """The common runs of pa with pb and with pb reversed at which a and b
    cross, found in one scan.

    A run starts in a triangle that both paths leave by the same side o,
    having entered by different sides, and ends in the first triangle that
    both enter by the same side s and leave by different sides.  Sides are
    numbered counterclockwise, so a is on the left at the start iff it
    entered by o + 1, and on the left at the end iff it leaves by s + 2:
    either way iff a's passage there turns left, leaving by the side after
    the one it entered by.  The run is one crossing iff a changes side
    (Cohen-Lustig, "Paths of geodesics and geometric intersection numbers
    I", 1987).

    Each passage (tri, s_in, s_out) is coded as the integer
    tri * 9 + s_in * 3 + s_out.  One start table indexes the passages of
    pb and of pb reversed by the code of the passage of pa that starts a
    run with them.  pa is passed once, and each run is walked by index
    along repeated copies of the code lists.  Yields (back, i, j, left)
    for each linked run: it starts at passage i of pa and passage j of pb,
    or of pb reversed iff `back`, and a starts it on b's left iff `left`.
    The runs come by i, then with pb before pb reversed, then by j.
    """
    na, nb = len(pa), len(pb)
    codes_a = [tri * 9 + s_in * 3 + s_out for tri, s_in, s_out in pa]
    # copies enough for a run of na + nb steps from any start, each list
    # ending in a sentinel that matches nothing; pb reversed follows pb
    reps = na // nb + 3
    walk_b = [tri * 9 + s_in * 3 + s_out for tri, s_in, s_out in pb] * reps
    back = len(walk_b) + 1
    walk_b.append(-2)
    walk_b += [tri * 9 + s_out * 3 + s_in
               for tri, s_in, s_out in reversed(pb)] * reps
    walk_b.append(-2)
    # b's passage (tri, s, o) starts a run with a's that enters tri by the
    # third side and leaves by o, as a path never turns back
    starts = {}
    for e, (tri, s_in, s_out) in enumerate(pb):
        starts.setdefault(tri * 9 + (3 - s_in - s_out) * 3 + s_out,
                          []).append(e)
    for e, (tri, s_out, s_in) in enumerate(reversed(pb), back):
        starts.setdefault(tri * 9 + (3 - s_in - s_out) * 3 + s_out,
                          []).append(e)
    reps = nb // na + 3
    walk_a = codes_a * reps
    walk_a.append(-1)
    turns = [s_out == (s_in + 2) % 3 for _, s_in, s_out in pa] * reps
    for i, code in enumerate(codes_a):
        hits = starts.get(code)
        if hits is None:
            continue
        left = turns[i]
        for e in hits:
            x, y = i + 1, e + 1
            while walk_a[x] == walk_b[y]:
                x += 1
                y += 1
            if x - i > na + nb:
                raise InternalInvariantError(
                    "common run longer than both paths")
            if left != turns[x]:
                if e < back:
                    yield False, i, e, left
                else:
                    yield True, i, e - back, left


def path_intersection_number(a: C.Curve, b: C.Curve, limit=None) -> int:
    """i(a, b) for distinct curves, from their paths; draws nothing.

    Counts the linked runs that a shares with b in either direction.
    That is i where `paths_decide` holds.  On a closed surface it is i in
    the surface punctured at its vertex: the normal representatives are
    curves of the closed surface too, so it bounds i from above.  With a
    `limit` the scan stops at limit + 1 runs, so any count above the
    limit reads limit + 1.
    """
    runs = linked_runs(a.passages(), b.passages())
    if limit is not None:
        runs = islice(runs, limit + 1)
    count = 0
    for _ in runs:
        count += 1
    return count


def intersection_number(a: C.Curve, b: C.Curve) -> int:
    """i(a, b), drawn only where the paths do not decide it.

    With boundary the path count is i.  On a closed surface it is an
    upper bound and |a . b| a lower one; where they meet that is i, and
    otherwise the merged drawing of the pair (`merged_pair_drawing`) is
    counted.  Its check reads the path count made here, so the paths are
    scanned once, and no pair drawing is memoized.
    """
    if a.surface is not b.surface:
        raise NSCurvesError("curves on different surfaces")
    if a == b:
        return 0
    got = path_intersection_number(a, b)
    if (not paths_decide(a.surface)
            and got != abs(homological_intersection(a.cls, b.cls))):
        got = _merged_count(a, b, got)
    return got


def _merged_count(a, b, path_count=None):
    """The crossings of the merged drawing of a and b, which is i(a, b)."""
    d, sid_a, sid_b = merged_pair_drawing(a, b, path_count)
    return d.geometry().count_pair(sid_a, sid_b)


def algebraic_intersection(a: C.Curve, b: C.Curve) -> int:
    """a . b for a and b in their canonical orientations (`Curve.cls`):
    each linked run of the paths is a crossing, of sign +1 for the paths
    as they run iff a starts it on the left of b as b runs."""
    runs = linked_runs(a.passages(), b.passages())
    signed = sum(-1 if left == back else 1 for back, _, _, left in runs)
    return signed if a.forward_canonical == b.forward_canonical else -signed


@lru_cache(maxsize=None)
def intersection_form(surface):
    """Algebraic intersection pairing of the first 2g class coordinates.

    Entry [i][j] is the algebraic intersection of the i-th and j-th twist
    generators, whose classes are the unit vectors e_i and e_j of
    `Curve.cls`; the boundary coordinates pair to zero with everything.
    """
    n = 2 * surface.genus
    gens = [c for _, c in C.twist_generators(surface)[:n]]
    for k, g in enumerate(gens):
        unit = tuple(int(j == k) for j in range(surface.homology_rank))
        if g.cls.coords != unit:
            raise InternalInvariantError(
                "twist generator %d has class %s, not e_%d" % (k, g.cls, k + 1))
    return tuple(tuple(algebraic_intersection(x, y) for y in gens)
                 for x in gens)


def homological_intersection(x_cls, y_cls) -> int:
    """Algebraic intersection of two classes, read off the form.

    For curves it bounds i(x, y) from below in absolute value and has the
    same parity, so it can reject a pair without drawing it.
    """
    form = intersection_form(x_cls.surface)
    cx, cy = x_cls.coords, y_cls.coords
    return sum(cx[i] * w * cy[j] for i, row in enumerate(form)
               if cx[i] for j, w in enumerate(row) if w)


def meets_at_most(x: C.Curve, y: C.Curve, limit: int) -> bool:
    """Whether i(x, y) <= limit.

    |algebraic intersection| <= i(x, y) <= the path count, so the classes
    can rule a pair out, and a path count stopped past the limit can rule
    it in.  With boundary that count decides.  On a closed surface a count
    past the limit is past |x . y| too, so `intersection_number` would
    draw the pair: its merged drawing is counted here at once, and its
    check makes the full path count.
    """
    if x.surface is not y.surface:
        raise NSCurvesError("curves on different surfaces")
    if abs(homological_intersection(x.cls, y.cls)) > limit:
        return False
    if x == y or path_intersection_number(x, y, limit) <= limit:
        return True
    return not paths_decide(x.surface) and _merged_count(x, y) <= limit


def cut_components(curve: C.Curve) -> int:
    """Components of the surface cut along the curve, from its weights.

    The normal curve with the curve's weights cuts each triangle into one
    region per corner arc, between the arc and the corner, and a central
    region.  Read from its first corner, a side's gaps lie in the regions
    of that corner's arcs, nearest the corner first, then in the central
    region, then in the regions of the next corner's arcs, ending at that
    corner.  The regions on the two sides of each interior edge gap are
    joined; a side read against its edge's front sees edge gap w - g as
    its gap g.  Reads no drawing, so a path-built curve is not drawn.
    """
    surf = curve.surface
    weights = curve.weights
    regions = 0
    side_gaps = {}   # (tri, side) -> the region of each gap, in side order
    for tri, edges in enumerate(surf.tri_edges_table):
        ws = [weights[e] for e in edges]
        arcs = [(ws[c] + ws[c - 1] - ws[(c + 1) % 3]) // 2 for c in range(3)]
        central = regions
        regions += 1
        first = []   # each corner's innermost arc's region; its others follow
        for c in range(3):
            first.append(regions)
            regions += arcs[c]
        for s in range(3):
            n = (s + 1) % 3
            side_gaps[(tri, s)] = (
                list(range(first[s], first[s] + arcs[s])) + [central]
                + list(range(first[n] + arcs[n] - 1, first[n] - 1, -1)))
    find, union = _union_find(regions)
    for edge in surf.edges:
        if not edge.is_boundary:
            for x, y in zip(side_gaps[edge.front],
                            reversed(side_gaps[edge.back])):
                union(x, y)
    return len({find(x) for x in range(regions)})


# -- complement search ------------------------------------------------------


def _fragment_graph(arr):
    adj = {}
    for fa, fb, cell in arr.fragment_links():
        adj.setdefault(fa, []).append((fb, cell))
        adj.setdefault(fb, []).append((fa, cell))
    for k in adj:
        adj[k].sort(key=lambda x: x[1].id)
    return adj


def _bfs_tree(adj, root, banned_cells, target=None):
    """BFS tree of root's component, avoiding `banned_cells`.

    Maps each fragment reached to (parent fragment, cell) and root to None.
    With a `target` the search stops once it is reached: its parent chain
    is fixed when it is first reached, so it is the full tree's.
    """
    parent = {root: None}
    queue = [root]
    for u in queue:   # the queue grows as it is read
        for (v, cell) in adj.get(u, ()):
            if v not in parent and cell.id not in banned_cells:
                parent[v] = (u, cell)
                if v == target:
                    return parent
                queue.append(v)
    return parent


def _tree_path(parent, u, v):
    """Cells along the tree path u -> v, with the fragments they join."""
    up_u, up_v = [u], [v]
    seen_u = {u}
    x = u
    while parent[x] is not None:
        x = parent[x][0]
        up_u.append(x)
        seen_u.add(x)
    x = v
    while x not in seen_u:
        x = parent[x][0]
        up_v.append(x)
    meet = up_v[-1]
    path_u = up_u[:up_u.index(meet) + 1]
    cells = []
    frags = []
    for k in range(len(path_u) - 1):
        cells.append(parent[path_u[k]][1])
        frags.append(path_u[k])
    frags.append(meet)
    down = list(reversed(up_v[:-1]))
    for x in down:
        cells.append(parent[x][1])
        frags.append(x)
    return cells, frags


def _curve_from_gap_cycle(surface, cells, frag_tris):
    """Solo drawing crossing the given edge gaps, one chord per fragment.

    cells[i] carries (edge, gap), and frag_tris[i] is the triangle of the
    chord from crossing i to crossing i+1 (mod n).
    """
    d = Drawing(surface)
    by_edge = {}
    for idx, cell in enumerate(cells):
        by_edge.setdefault(cell.edge, []).append((cell.gap, idx))
    pid_of = {}
    for e in sorted(by_edge):
        lst = sorted(by_edge[e])
        for k in range(len(lst) - 1):
            if lst[k][0] == lst[k + 1][0]:
                raise InternalInvariantError("gap crossed twice")
        for k, (_, idx) in enumerate(lst):
            pid_of[idx] = d.new_point(e, k)
    pts = [pid_of[i] for i in range(len(cells))]
    d.add_strand(pts, list(frag_tris))
    return d


def complement_curves(drawing: Drawing):
    """Curves living in the complement of every strand of the drawing.

    Yields the curves of the fundamental cycles of the fragment graph,
    for a BFS forest rooted at the least fragment of each component;
    those generate the image of the complement's homology, so a
    nonseparating complement curve exists iff one of them is
    nonseparating.
    """
    from .errors import Inessential
    surface = drawing.surface
    arr = Arrangement(drawing)
    adj = _fragment_graph(arr)
    parent = {}
    for root in sorted(adj):
        if root not in parent:
            parent.update(_bfs_tree(adj, root, ()))
    tree_cells = {p[1].id for p in parent.values() if p is not None}
    non_tree = sorted(
        {cell.id: (fa, fb, cell) for fa, fb, cell in arr.fragment_links()
         if cell.id not in tree_cells}.values(),
        key=lambda x: x[2].id)
    frag_tri = {fr.id: fr.tri for fr in arr.fragments}
    for (fa, fb, link) in non_tree:
        if fa == fb:
            cells = [link]
            frags_between = [fa]
        else:
            path_cells, path_frags = _tree_path(parent, fb, fa)
            cells = [link] + path_cells
            frags_between = path_frags
        # triangle sequence: between cells[i] and cells[i+1] lies a fragment
        tris = [frag_tri[f] for f in frags_between]
        if len(tris) != len(cells):
            raise InternalInvariantError("cycle bookkeeping off")
        d = _curve_from_gap_cycle(surface, cells, tris)
        try:
            yield C.curve_from_drawing(d)
        except Inessential:
            continue


def find_complement_curve(drawing: Drawing):
    """A nonseparating curve disjoint from every strand, or None."""
    for curve in complement_curves(drawing):
        if not curve.is_separating():
            return curve
    return None


def find_separating_complement(drawing: Drawing):
    """An essential separating curve disjoint from every strand, or None."""
    for curve in complement_curves(drawing):
        if curve.is_separating() and not curve.peripheral:
            return curve
    return None


# -- dual curve meeting a nonseparating curve once ------------------------------


def intersection_witness(curve: C.Curve):
    """A simple closed curve meeting `curve` exactly once, or None.

    Built from an embedded arc joining the two sides of the curve in the
    cut surface, closed up across one chord; exists iff the curve is
    nonseparating.  Witnesses are memoized by the identity of `curve`, so
    a repeated call returns the witness that the first call built.
    """
    if curve.is_separating():
        return None
    got = _WITNESS_CACHE.get(id(curve))
    if got is not None and got[0] is curve:
        return got[1]
    witness = _build_witness(curve)
    C.memo_store(_WITNESS_CACHE, _WITNESS_CACHE_SIZE, id(curve),
                 (curve, witness))
    return witness


# Intersection witnesses by the id of their curve, each stored with the
# curve, which keeps its id from being reused while the entry lives;
# oldest entry evicted first.  Keyed by identity, as the witness is read
# off the curve's own drawing and equal curves can have different
# drawings.  A suite round of --samples 15 asks for 195 witnesses of 58
# distinct curve objects.
_WITNESS_CACHE_SIZE = 1024
_WITNESS_CACHE = {}


def _build_witness(curve):
    """`intersection_witness` of a nonseparating curve, built afresh."""
    d = curve.drawing
    surface = d.surface
    arr = Arrangement(d)
    adj = _fragment_graph(arr)
    chord_cells = sorted((c for c in arr.cells if c.kind == "chord"),
                         key=lambda c: c.id)
    for s_cell in chord_cells:
        f_plus, f_minus = arr.chord_sides(s_cell)
        if f_plus is None or f_minus is None:
            continue
        # flanking side cells at the chord's endpoints
        entry = _flank_cell(arr, d, s_cell, end="a", want_frag=f_plus)
        exit_ = _flank_cell(arr, d, s_cell, end="b", want_frag=f_minus)
        if entry is None or exit_ is None:
            continue
        # after crossing those edges the witness sits in the glued fragments
        g_entry = _across(arr, surface, entry)
        g_exit = _across(arr, surface, exit_)
        if g_entry is None or g_exit is None:
            continue
        parent = _bfs_tree(adj, g_exit, {entry.id, exit_.id}, g_entry)
        if g_entry not in parent:
            continue
        path_cells, path_frags = _tree_path(parent, g_exit, g_entry)
        cells = [entry, exit_] + path_cells
        tris = [s_cell.tri] + [arr.fragments[f].tri for f in path_frags]
        if len(tris) != len(cells):
            raise InternalInvariantError("witness bookkeeping off")
        witness = C.curve_from_drawing(
            _curve_from_gap_cycle(surface, cells, tris))
        if intersection_number(witness, curve) == 1:
            return witness
    raise InternalInvariantError("no witness found for a nonseparating curve")


def _across(arr, surface, side_cell):
    """Inner fragment of the partner cell across an interior edge."""
    e = side_cell.edge
    if surface.edges[e].is_boundary:
        return None
    by_tri = arr.side_cells[(e, side_cell.gap)]
    for tri, cell in sorted(by_tri.items()):
        if cell.id != side_cell.id:
            return arr.inner_frag(cell)
    return None


def _flank_cell(arr, d, chord_cell, end, want_frag):
    """Side cell flanking a chord endpoint and bounding the wanted fragment."""
    node = chord_cell.a if end == "a" else chord_cell.b
    if node[0] != "p":
        return None
    pid = node[1]
    e = d.pt_edge[pid]
    k = d.pos(pid)
    for gap in (k, k + 1):
        cell = arr.side_cells.get((e, gap), {}).get(chord_cell.tri)
        if cell is not None and arr.inner_frag(cell) == want_frag:
            return cell
    return None
