"""Planar arrangements of drawn curves: fragments, faces, and cut surfaces.

Every triangle of the surface is cut by its chords into fragments (faces
of the local arrangement).  Gluing fragments across triangulation-edge
segments rebuilds the surface; omitting the gluings along selected strand
chords realizes the cut surface, and the quotient by all strand cells
realizes the complementary faces.  Face topology (Euler characteristic,
boundary circles, corner incidences) is read off a small polygon-gluing
complex, which is also what certifies whether a face is a bigon.
"""

from __future__ import annotations

import functools
from fractions import Fraction

from .errors import InternalInvariantError
from .drawing import _vcross, CORNERS, _Degenerate, Drawing


def _angle_cmp(u, v):
    """Exact counterclockwise comparison of nonzero direction vectors."""
    def half(w):
        return 0 if (w[1] > 0 or (w[1] == 0 and w[0] > 0)) else 1
    hu, hv = half(u), half(v)
    if hu != hv:
        return -1 if hu < hv else 1
    c = _vcross(u, v)
    if c > 0:
        return -1
    if c < 0:
        return 1
    return 0


class Cell:
    """A 1-cell of the refined complex inside one triangle."""
    __slots__ = ("id", "tri", "kind", "a", "b", "geom", "edge", "gap", "sid")

    def __init__(self, cid, tri, kind, a, b, geom, edge=None, gap=None, sid=None):
        self.id = cid
        self.tri = tri
        self.kind = kind          # "side" or "chord"
        self.a = a                # node keys, geometry runs a -> b
        self.b = b
        self.geom = geom
        self.edge = edge          # side cells: owning edge id
        self.gap = gap            # side cells: gap index in front order
        self.sid = sid            # chord cells: owning strand


class Fragment:
    __slots__ = ("id", "tri", "walk", "area")

    def __init__(self, fid, tri, walk, area):
        self.id = fid
        self.tri = tri
        self.walk = walk          # list of (cell id, +1/-1), ccw boundary
        self.area = area


class Arrangement:
    def __init__(self, drawing):
        self.drawing = drawing
        self.cells = []
        self.fragments = []
        # geometry salting may be triggered while building
        for _ in range(6):
            try:
                self.cells = []
                self.fragments = []
                self._build()
                return
            except _Degenerate:
                drawing.salt += 1
                drawing._bump()
        raise InternalInvariantError("arrangement stayed degenerate")

    # -- construction ------------------------------------------------------

    def _build(self):
        d = self.drawing
        surf = d.surface
        geo = d.geometry()
        self._crossings = {cr.id: cr for cr in geo.crossings}

        chords_by_tri = {}
        for sid in sorted(geo.chords):
            for ch in geo.chords[sid]:
                chords_by_tri.setdefault(ch.tri, []).append(ch)
        on_chord = {}   # (sid, chord idx) -> (id, exact position) in order
        for sid, events in geo.events.items():
            for cr in events:
                on_chord.setdefault((sid, cr.param_of(sid)[0]), []).append(
                    (cr.id, cr.at_a if sid == cr.sid_a else cr.at_b))

        self.side_cells = {}
        node_coords = {}

        def register(tri, key, xy):
            node_coords[(tri, key)] = xy

        for tri in range(surf.ntri):
            for c in range(3):
                register(tri, ("c", c), CORNERS[c])

        cid = 0
        for tri in range(surf.ntri):
            for s in range(3):
                e = surf.side_edge[(tri, s)]
                pts = list(d.edge_pts[e])
                front = surf.side_local_direction_is_front(tri, s)
                if not front:
                    pts = list(reversed(pts))
                for p in pts:
                    register(tri, ("p", p), d.point_coords(p, tri))
                seq = [("c", s)] + [("p", p) for p in pts] + [("c", (s + 1) % 3)]
                n_gaps = len(pts) + 1
                for k in range(n_gaps):
                    gap = k if front else n_gaps - 1 - k
                    cell = Cell(cid, tri, "side", seq[k], seq[k + 1],
                                [node_coords[(tri, seq[k])],
                                 node_coords[(tri, seq[k + 1])]],
                                edge=e, gap=gap)
                    cid += 1
                    self.cells.append(cell)
                    self.side_cells.setdefault((e, gap), {})[tri] = cell
            for ch in chords_by_tri.get(tri, ()):
                crs = on_chord.get((ch.sid, ch.idx), [])
                for (xid, _) in crs:
                    register(tri, ("x", xid), self._crossings[xid].point)
                nodes = ([("p", ch.pa)] + [("x", x) for x, _ in crs]
                         + [("p", ch.pb)])
                params = ([(0, 0, 1)] + [at for _, at in crs]
                          + [(len(ch.pieces) - 1, 1, 1)])
                for k in range(len(nodes) - 1):
                    geom = _sub_polyline(ch, params[k], params[k + 1])
                    cell = Cell(cid, tri, "chord", nodes[k], nodes[k + 1],
                                geom, sid=ch.sid)
                    cid += 1
                    self.cells.append(cell)

        # rotation system with exact angle order
        incident = {}
        for cell in self.cells:
            g = cell.geom
            da = (g[1][0] - g[0][0], g[1][1] - g[0][1])
            db = (g[-2][0] - g[-1][0], g[-2][1] - g[-1][1])
            incident.setdefault((cell.tri, cell.a), []).append((da, cell.id, 1))
            incident.setdefault((cell.tri, cell.b), []).append((db, cell.id, -1))

        key_fn = functools.cmp_to_key(lambda x, y: _angle_cmp(x[0], y[0]))
        index_at = {}
        for key, lst in incident.items():
            lst.sort(key=key_fn)
            for i in range(len(lst)):
                if _angle_cmp(lst[i][0], lst[(i + 1) % len(lst)][0]) == 0 \
                        and len(lst) > 1:
                    raise _Degenerate("equal directions at a node")
            for pos, (_, cell_id, end) in enumerate(lst):
                index_at[(key, cell_id, end)] = pos

        def next_halfedge(cell_id, direction):
            cell = self.cells[cell_id]
            head = cell.b if direction == 1 else cell.a
            key = (cell.tri, head)
            lst = incident[key]
            pos = index_at[(key, cell_id, -direction)]
            _, nxt_id, nxt_end = lst[(pos - 1) % len(lst)]
            return nxt_id, nxt_end

        visited = set()
        for cell in self.cells:
            for direction in (1, -1):
                start = (cell.id, direction)
                if start in visited:
                    continue
                walk = []
                cur = start
                area2 = Fraction(0)
                while True:
                    visited.add(cur)
                    walk.append(cur)
                    g = self.cells[cur[0]].geom
                    if cur[1] == -1:
                        g = list(reversed(g))
                    for k in range(len(g) - 1):
                        area2 += _vcross(g[k], g[k + 1])
                    cur = next_halfedge(*cur)
                    if cur == start:
                        break
                    if cur in visited:
                        raise InternalInvariantError("face walk collided")
                if area2 > 0:
                    self.fragments.append(Fragment(
                        len(self.fragments), self.cells[walk[0][0]].tri,
                        walk, area2))

        self.frag_of_halfedge = {}
        for fr in self.fragments:
            for he in fr.walk:
                self.frag_of_halfedge[he] = fr.id

        # shoelace sums are twice the area; each unit triangle contributes 1
        total = sum(fr.area for fr in self.fragments)
        if total != surf.ntri:
            raise InternalInvariantError("fragment areas do not tile")

    # -- adjacency ----------------------------------------------------------

    def inner_frag(self, cell):
        fa = self.frag_of_halfedge.get((cell.id, 1))
        fb = self.frag_of_halfedge.get((cell.id, -1))
        got = [f for f in (fa, fb) if f is not None]
        if len(got) != 1:
            raise InternalInvariantError("side segment should bound one fragment")
        return got[0]

    def chord_sides(self, cell):
        return (self.frag_of_halfedge.get((cell.id, 1)),
                self.frag_of_halfedge.get((cell.id, -1)))

    def fragment_links(self, through_chords_of=()):
        """(frag, frag, cell) adjacencies across 1-cells.

        Interior edge segments always link; chord cells link only for the
        listed strands (linking across a strand means not cutting along it).
        """
        surf = self.drawing.surface
        links = []
        for (e, gap), by_tri in sorted(self.side_cells.items()):
            if surf.edges[e].is_boundary:
                continue
            cells = sorted(by_tri.values(), key=lambda c: c.tri)
            if len(cells) != 2:
                raise InternalInvariantError("interior segment not doubled")
            links.append((self.inner_frag(cells[0]), self.inner_frag(cells[1]),
                          cells[0]))
        for cell in self.cells:
            if cell.kind == "chord" and cell.sid in through_chords_of:
                fa, fb = self.chord_sides(cell)
                if fa is None or fb is None:
                    raise InternalInvariantError("chord cell missing a side")
                links.append((fa, fb, cell))
        return links


def _sub_polyline(ch, at_a, at_b):
    """Polyline of the chord between two exact positions (piece, num, den)."""
    pts = [ch.point_at(at_a)]
    for pi in range(at_a[0], at_b[0]):
        pts.append(ch.pieces[pi][1])
    pts.append(ch.point_at(at_b))
    out = [pts[0]]
    for p in pts[1:]:
        if p != out[-1]:
            out.append(p)
    if len(out) < 2:
        raise _Degenerate("zero-length cell")
    return out


def _union_find(n):
    parent = list(range(n))

    def find(x):
        while parent[x] != x:
            parent[x] = parent[parent[x]]
            x = parent[x]
        return x

    def union(x, y):
        rx, ry = find(x), find(y)
        if rx != ry:
            parent[max(rx, ry)] = min(rx, ry)
    return find, union


def restrict(drawing, keep_sids):
    """Sub-drawing with only the given strands (orders projected)."""
    out = Drawing(drawing.surface)
    own = set()
    for sid in keep_sids:
        own.update(drawing.strands[sid].pts)
    mapping = {}
    for e in sorted(drawing.edge_pts):
        k = 0
        for p in drawing.edge_pts[e]:
            if p in own:
                mapping[p] = out.new_point(e, k)
                k += 1
    sid_map = {}
    for sid in sorted(keep_sids):
        st = drawing.strands[sid]
        sid_map[sid] = out.add_strand([mapping[p] for p in st.pts],
                                      list(st.tris), role=st.role)
    return out, sid_map


def cut_component_count(drawing, cut_sids):
    """Components of the surface cut along the given strands."""
    arr = Arrangement(drawing)
    other = [sid for sid in drawing.strands if sid not in cut_sids]
    find, union = _union_find(len(arr.fragments))
    for fa, fb, _ in arr.fragment_links(through_chords_of=other):
        union(fa, fb)
    return len({find(f.id) for f in arr.fragments})


class FaceInfo:
    __slots__ = ("fragments", "chi", "circles", "corner_count",
                 "has_surface_boundary", "circle_corners")

    def __init__(self, fragments, chi, circles, corner_count,
                 has_surface_boundary, circle_corners):
        self.fragments = fragments
        self.chi = chi
        self.circles = circles
        self.corner_count = corner_count
        self.has_surface_boundary = has_surface_boundary
        self.circle_corners = circle_corners

    @property
    def is_bigon(self):
        return (self.chi == 1 and self.circles == 1
                and self.corner_count == 2 and not self.has_surface_boundary)

    @property
    def genus(self):
        g2 = 2 - self.chi - self.circles
        return g2 // 2 if g2 > 0 else 0

    def to_json(self):
        return {"chi": self.chi, "circles": self.circles,
                "corners": self.corner_count, "genus": self.genus,
                "touches_boundary": self.has_surface_boundary}


def face_data(drawing, roles=None):
    """Faces of the complement of the drawn strands (optionally one role set)."""
    if roles is None:
        sub = drawing
    else:
        keep = {sid for sid, st in drawing.strands.items() if st.role in roles}
        sub, _ = restrict(drawing, keep)
    arr = Arrangement(sub)
    find, union = _union_find(len(arr.fragments))
    for fa, fb, _ in arr.fragment_links():
        union(fa, fb)
    groups = {}
    for fr in arr.fragments:
        groups.setdefault(find(fr.id), []).append(fr)
    out = []
    for root in sorted(groups):
        frs = groups[root]
        chi, circles, corners, has_bd, per_circle = _face_topology(arr, frs)
        out.append(FaceInfo(sorted(f.id for f in frs), chi, circles, corners,
                            has_bd, per_circle))
    return out


def _face_topology(arr, frs):
    """chi, circle count, corner incidences for one complementary face."""
    surf = arr.drawing.surface
    paired = {}
    free_sides = []
    for fr in frs:
        for (cell_id, direction) in fr.walk:
            cell = arr.cells[cell_id]
            if cell.kind == "chord":
                free_sides.append((cell_id, direction))
            elif surf.edges[cell.edge].is_boundary:
                free_sides.append((cell_id, direction))
            else:
                paired.setdefault((cell.edge, cell.gap), []).append(
                    (cell_id, direction))

    tokens = {}

    def tok(cell_id, direction, end):
        key = (cell_id, direction, end)
        if key not in tokens:
            tokens[key] = len(tokens)
        return tokens[key]

    pairs = []
    for fr in frs:
        w = fr.walk
        for k in range(len(w)):
            c1, d1 = w[k]
            c2, d2 = w[(k + 1) % len(w)]
            pairs.append((tok(c1, d1, "head"), tok(c2, d2, "tail")))
    n_glued = 0
    for key, lst in paired.items():
        if len(lst) != 2:
            raise InternalInvariantError(
                "edge segment %s bounded %d fragment sides" % (key, len(lst)))
        (c1, d1), (c2, d2) = lst
        pairs.append((tok(c1, d1, "head"), tok(c2, d2, "tail")))
        pairs.append((tok(c1, d1, "tail"), tok(c2, d2, "head")))
        n_glued += 1

    find2, union2 = _union_find(len(tokens))
    for a, b in pairs:
        union2(a, b)
    nvert = len({find2(i) for i in tokens.values()})
    chi = nvert - (n_glued + len(free_sides)) + len(frs)

    head_cls = {}
    by_tail = {}
    for he in free_sides:
        h = find2(tokens[(he[0], he[1], "head")])
        t = find2(tokens[(he[0], he[1], "tail")])
        head_cls[he] = h
        by_tail.setdefault(t, []).append(he)

    seen = set()
    circles = 0
    corner_total = 0
    has_bd = False
    per_circle = []
    for start in sorted(free_sides):
        if start in seen:
            continue
        circles += 1
        corners_here = 0
        cur = start
        while True:
            seen.add(cur)
            cell = arr.cells[cur[0]]
            if cell.kind == "side":
                has_bd = True
            head_node = cell.b if cur[1] == 1 else cell.a
            if head_node[0] == "x":
                corners_here += 1
            candidates = [he for he in by_tail.get(head_cls[cur], [])
                          if he not in seen or he == start]
            if not candidates:
                raise InternalInvariantError("boundary circle broke")
            cur = candidates[0]
            if cur == start:
                break
        corner_total += corners_here
        per_circle.append(corners_here)
    return chi, circles, corner_total, has_bd, per_circle
