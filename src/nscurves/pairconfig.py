"""Pairs (and triples) of curves realized in minimal position.

A configuration is an overlay drawing of reduced solo curves with all
bigons between participating strands removed; bigon-freeness is the
minimal-position certificate, so the crossing count of the drawing is the
geometric intersection number.  Nothing is drawn for i(a, b) where the
curves' reduced cyclic paths in the dual graph decide it
(`path_intersection_number`, after Cohen-Lustig): on every surface with
boundary, and on a closed surface whenever the path count, which is i in
the surface punctured at its vertex, meets the homology bound |a . b|.
Every configuration checks its crossing count against the path count:
equal with boundary, at most and of the same parity on a closed surface.

The bigon-free overlay is memoized, and each configuration gets its own
copy of it.  The key is the surface with the drawn signatures of a and b
(`Curve.drawn_signature`: the strand's (edge, rank on that edge,
triangle) in strand order).  It is exact because `overlay` renumbers
points in edge order, so the overlay and its bigon removal depend on the
signatures alone.  Curve keys would not do, as equal curves can have
different drawings, and neither would passages, since a path-built twist
result keeps a path that starts elsewhere than its replayed drawing.
The module also hosts the operations that read the complement of a
configuration: the cut-components oracle, the search for nonseparating
curves disjoint from both, and the dual curve meeting a nonseparating
curve exactly once.
"""

from __future__ import annotations

from functools import lru_cache

from . import curve as C
from .arrangement import Arrangement, cut_component_count, face_data
from .drawing import Drawing, overlay
from .errors import InternalInvariantError, NSCurvesError


# Bigon-free pair drawings by (surface, drawn signature of a, drawn
# signature of b), oldest entry evicted first.  The pair claims resample
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
    """A copy of `minimal_pair_drawing(a, b)`, drawn once per drawn content.

    The memo key is the surface and the drawn signatures of a and b: the
    overlay renumbers points in edge order, so the overlay and its bigon
    removal depend on those alone.  Each caller gets its own copy, as
    `add_third` draws into it.
    """
    if a.surface is not b.surface:
        raise NSCurvesError("curves on different surfaces")
    key = (a.surface, a.drawn_signature(), b.drawn_signature())
    got = _PAIR_DRAWING_CACHE.get(key)
    if got is not None:
        d, sid_a, sid_b = got
        return d.clone(), sid_a, sid_b
    d, sid_a, sid_b = minimal_pair_drawing(a, b)
    # the memo keeps a copy without the derived geometry
    C.memo_store(_PAIR_DRAWING_CACHE, _PAIR_DRAWING_CACHE_SIZE, key,
                 (d.clone(), sid_a, sid_b))
    return d, sid_a, sid_b


class ConfigVertex:
    __slots__ = ("crossing", "sign_ab", "idx_a", "idx_b")

    def __init__(self, crossing, sign_ab, idx_a, idx_b):
        self.crossing = crossing
        self.sign_ab = sign_ab   # crossing sign for (strand a, strand b) dirs
        self.idx_a = idx_a       # rank along strand a
        self.idx_b = idx_b       # rank along strand b


class PairConfiguration:
    """Two (optionally three) curves drawn mutually bigon-free."""

    def __init__(self, a, b):
        self.a = a
        self.b = b
        self.d_curve = None
        self.drawing, self.sid_a, self.sid_b = _memoized_pair_drawing(a, b)
        self.sid_d = None
        self._index_vertices()
        if a == b:
            return
        # the path count is i with boundary, and on a closed surface an
        # upper bound of the same parity; the homology bound is not read
        # here, since `intersection_form` draws the generators' pairs
        drawn = len(self.vertices)
        from_paths = path_intersection_number(a, b)
        if paths_decide(a.surface):
            if from_paths != drawn:
                raise InternalInvariantError(
                    "drawn pair has %d crossings, its paths give i = %d"
                    % (drawn, from_paths))
        elif drawn > from_paths or (from_paths - drawn) % 2:
            raise InternalInvariantError(
                "drawn pair has %d crossings, its paths bound i by %d "
                "with the same parity" % (drawn, from_paths))

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

        Bigons of d against a and against b are removed one at a time.  A
        move pushes the strand with the longer arc across the bigon, so a
        or b may move; either way the a-b crossings must stay as they
        were, and this is checked once d is minimal.  The moves patch the
        kept geometries of d with a and of d with b, which are then
        checked against one full rebuild.
        """
        if self.sid_d is not None:
            raise NSCurvesError("third curve already drawn")
        self.d_curve = d_curve
        ab_count = len(self.vertices)
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


def draw_pair(a, b) -> PairConfiguration:
    return PairConfiguration(a, b)


def paths_decide(surface) -> bool:
    """Whether reduced dual paths decide i(a, b) on this surface.

    With every vertex of the triangulation on the boundary (no vertex
    relators), the surface retracts onto the dual graph, its fundamental
    group is free and a curve's reduced cyclic path is its geodesic.  On
    a closed surface the dual graph is a spine of the surface punctured
    at its one vertex, so the paths give i there, an upper bound.
    """
    return not surface.vertex_relators


def reversed_path(path):
    """The same cyclic dual path, traversed the other way."""
    return tuple((tri, s_out, s_in) for tri, s_in, s_out in reversed(path))


def linked_runs(pa, pb):
    """The common runs of pa with pb at which a and b cross.

    A run starts in a triangle that both paths leave by the same side o,
    having entered by different sides, and ends in the first triangle that
    both enter by the same side s and leave by different sides.  Sides are
    numbered counterclockwise, so a is on the left at the start iff it
    entered by o + 1, and on the left at the end iff it leaves by s + 2.
    The run is one crossing iff a changes side (Cohen-Lustig, "Paths of
    geodesics and geometric intersection numbers I", 1987).  Returns
    (i, j, left) for each such run: it starts at passage i of pa and
    passage j of pb, and a starts it on b's left iff `left`.
    """
    na, nb = len(pa), len(pb)
    starts = {}
    for j, passage in enumerate(pb):
        starts.setdefault(passage, []).append(j)
    leaves_left = [s_out == (s_in + 2) % 3 for _, s_in, s_out in pa]
    runs = []
    for i, (tri, a_in, o) in enumerate(pa):
        # b enters by the third side, as a path never turns back
        left = a_in == (o + 1) % 3
        for j in starts.get((tri, 3 - a_in - o, o), ()):
            k = 1
            while pa[(i + k) % na] == pb[(j + k) % nb]:
                k += 1
                if k > na + nb:
                    raise InternalInvariantError(
                        "common run longer than both paths")
            if left != leaves_left[(i + k) % na]:
                runs.append((i, j, left))
    return runs


def path_intersection_number(a: C.Curve, b: C.Curve) -> int:
    """i(a, b) for distinct curves, from their paths; draws nothing.

    Counts the linked runs that a shares with b and with b reversed.  That
    is i where `paths_decide` holds.  On a closed surface it is i in the
    surface punctured at its vertex: the normal representatives are
    curves of the closed surface too, so it bounds i from above.
    """
    pa, pb = a.passages(), b.passages()
    return len(linked_runs(pa, pb)) + len(linked_runs(pa, reversed_path(pb)))


def intersection_number(a: C.Curve, b: C.Curve) -> int:
    """i(a, b), drawn only where the paths do not decide it.

    With boundary the path count is i.  On a closed surface it is an
    upper bound and |a . b| a lower one; where they meet that is i, and
    otherwise the pair is drawn.
    """
    if a.surface is not b.surface:
        raise NSCurvesError("curves on different surfaces")
    if a == b:
        return 0
    got = path_intersection_number(a, b)
    if (not paths_decide(a.surface)
            and got != abs(homological_intersection(a.cls, b.cls))):
        got = PairConfiguration(a, b).count()
    return got


def algebraic_intersection(a: C.Curve, b: C.Curve) -> int:
    """a . b for a and b in their canonical orientations (`Curve.cls`)."""
    cfg = PairConfiguration(a, b)
    drawn = sum(v.sign_ab for v in cfg.vertices)
    return drawn if a.forward_canonical == b.forward_canonical else -drawn


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

    |algebraic intersection| <= i(x, y), so a pair that the classes
    already rule out is not drawn.
    """
    if abs(homological_intersection(x.cls, y.cls)) > limit:
        return False
    return intersection_number(x, y) <= limit


def cut_components(curve: C.Curve) -> int:
    return cut_component_count(curve.drawing)


# -- complement search ------------------------------------------------------


def _fragment_graph(arr):
    adj = {}
    for fa, fb, cell in arr.fragment_links():
        adj.setdefault(fa, []).append((fb, cell))
        adj.setdefault(fb, []).append((fa, cell))
    for k in adj:
        adj[k].sort(key=lambda x: x[1].id)
    return adj


def _bfs_tree(adj, root, banned_cells):
    """BFS tree of root's component, avoiding `banned_cells`.

    Maps each fragment reached to (parent fragment, cell) and root to None.
    """
    parent = {root: None}
    queue = [root]
    while queue:
        u = queue.pop(0)
        for (v, cell) in adj.get(u, ()):
            if v not in parent and cell.id not in banned_cells:
                parent[v] = (u, cell)
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


def complement_curves(config: PairConfiguration):
    """Curves living in the complement of the drawn pair.

    Yields the curves of the fundamental cycles of the fragment graph,
    for a BFS forest rooted at the least fragment of each component;
    those generate the image of the complement's homology, so a
    nonseparating complement curve exists iff one of them is
    nonseparating.
    """
    from .errors import Inessential
    drawing = config.drawing
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
            yield C.curve_from_drawing(d, next(iter(d.strands)))
        except Inessential:
            continue


def find_complement_curve(config: PairConfiguration):
    """A nonseparating curve disjoint from both, or None."""
    for curve in complement_curves(config):
        if not curve.is_separating():
            return curve
    return None


def find_separating_complement(config: PairConfiguration):
    """An essential separating curve disjoint from both, or None."""
    for curve in complement_curves(config):
        if curve.is_separating() and not curve.peripheral:
            return curve
    return None


# -- dual curve meeting a nonseparating curve once ------------------------------


def intersection_witness(curve: C.Curve):
    """A simple closed curve meeting `curve` exactly once, or None.

    Built from an embedded arc joining the two sides of the curve in the
    cut surface, closed up across one chord; exists iff the curve is
    nonseparating.
    """
    if curve.is_separating():
        return None
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
        parent = _bfs_tree(adj, g_exit, {entry.id, exit_.id})
        if g_entry not in parent:
            continue
        path_cells, path_frags = _tree_path(parent, g_exit, g_entry)
        cells = [entry, exit_] + path_cells
        tris = [s_cell.tri] + [arr.fragments[f].tri for f in path_frags]
        if len(tris) != len(cells):
            raise InternalInvariantError("witness bookkeeping off")
        dd = _curve_from_gap_cycle(surface, cells, tris)
        sid = next(iter(dd.strands))
        witness = C.curve_from_drawing(dd, sid)
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
