"""Planar arrangements of drawn curves: fragments, faces, and cut surfaces.

Every triangle of the surface is cut by its chords into fragments (faces
of the local arrangement).  Gluing fragments across triangulation-edge
segments rebuilds the surface; omitting the gluings along selected strand
chords realizes the cut surface, and the quotient by all strand cells
realizes the complementary faces.  Face topology (Euler characteristic,
boundary circles, corner incidences) is read off a small polygon-gluing
complex, which is also what certifies whether a face is a bigon.

The local arrangement is built without coordinates.  Its rotation system
follows from the boundary order and the crossing signs of
`Drawing.geometry`: counterclockwise, a corner sees its two side cells,
a boundary point (forward side, chord, backward side), and a crossing of
chords a and b (a out, b out, a in, b in) when its sign is positive and
(a out, b in, a in, b out) otherwise.  Face walks keep the face on their
left, so the outer face of a triangle is the one walk that runs its
sides clockwise, and every other walk is a fragment.  Each triangle's
counts must satisfy V - E + F = 2, counting the outer face: a rotation
system that is not planar fails it.

The walks run on integer half-edges, h = 2 * cell id + backward, where
backward is 1 for the half-edge that runs its cell from b to a.  One
successor array, filled once from the sorted incidence list at every
node, maps each half-edge to the next one clockwise at its head, so a
walk step is one list read.  Fragments keep their walks as (cell id,
+1/-1) pairs.
"""

from __future__ import annotations

from .errors import InternalInvariantError


class Cell:
    """A 1-cell of the refined complex inside one triangle."""
    __slots__ = ("id", "tri", "kind", "a", "b", "edge", "gap", "sid")

    def __init__(self, cid, tri, kind, a, b, edge=None, gap=None, sid=None):
        self.id = cid
        self.tri = tri
        self.kind = kind          # "side" or "chord"
        self.a = a                # node keys; sides run a -> b
        self.b = b                # counterclockwise, chords along the strand
        self.edge = edge          # side cells: owning edge id
        self.gap = gap            # side cells: gap index in front order
        self.sid = sid            # chord cells: owning strand


class Fragment:
    __slots__ = ("id", "tri", "walk")

    def __init__(self, fid, tri, walk):
        self.id = fid
        self.tri = tri
        self.walk = walk          # list of (cell id, +1/-1), ccw boundary


class Arrangement:
    def __init__(self, drawing):
        self.drawing = d = drawing
        self.cells = []
        self.fragments = []
        self._links = None   # `fragment_links`, once read
        surf = d.surface
        geo = d.geometry()

        chords_by_tri = {}
        for sid in sorted(geo.chords):
            for ch in geo.chords[sid]:
                chords_by_tri.setdefault(ch.tri, []).append(ch)
        on_chord = {}   # (sid, chord idx) -> crossings in order along it
        for sid, events in geo.events.items():
            for cr in events:
                on_chord.setdefault((sid, cr.param_of(sid)[0]), []).append(cr)

        # rotation system: (tri, node) -> [(slot, cell id, end)], where end
        # is +1 at the cell's tail a and -1 at its head b, and the slots
        # order each node's cells counterclockwise
        incident = {}
        self.side_cells = {}

        def add_cell(cell, slot_a, slot_b):
            self.cells.append(cell)
            incident.setdefault((cell.tri, cell.a), []).append(
                (slot_a, cell.id, 1))
            incident.setdefault((cell.tri, cell.b), []).append(
                (slot_b, cell.id, -1))

        for tri in range(surf.ntri):
            for s in range(3):
                e = surf.side_edge[(tri, s)]
                pts = list(d.edge_pts[e])
                front = surf.side_local_direction_is_front(tri, s)
                if not front:
                    pts = list(reversed(pts))
                seq = [("c", s)] + [("p", p) for p in pts] + [("c", (s + 1) % 3)]
                n_gaps = len(pts) + 1
                for k in range(n_gaps):
                    gap = k if front else n_gaps - 1 - k
                    cell = Cell(len(self.cells), tri, "side", seq[k],
                                seq[k + 1], edge=e, gap=gap)
                    add_cell(cell, 0, 2)   # forward at a, backward at b
                    self.side_cells.setdefault((e, gap), {})[tri] = cell
            for ch in chords_by_tri.get(tri, ()):
                crs = on_chord.get((ch.sid, ch.idx), [])
                keys = ([("p", ch.pa)] + [("x", cr.id) for cr in crs]
                        + [("p", ch.pb)])
                # (slot at the head, slot at the tail) of the cells meeting
                # at each crossing: a comes in at 2 and leaves at 0, b comes
                # in at 3 and leaves at 1 for sign +1, the reverse for -1
                slots = [1]
                for cr in crs:
                    if ch.sid == cr.sid_a:
                        slots += [2, 0]
                    elif cr.sign > 0:
                        slots += [3, 1]
                    else:
                        slots += [1, 3]
                slots.append(1)
                for k in range(len(keys) - 1):
                    add_cell(Cell(len(self.cells), tri, "chord", keys[k],
                                  keys[k + 1], sid=ch.sid),
                             slots[2 * k], slots[2 * k + 1])

        # half-edge h = 2 * cell id + backward runs along its cell from a to
        # b, or from b to a when backward is 1; succ[h] is the half-edge
        # that leaves h's head next clockwise from h
        succ = [0] * (2 * len(self.cells))
        for lst in incident.values():
            lst.sort()
            for pos, (_, cell_id, end) in enumerate(lst):
                _, nxt_id, nxt_end = lst[pos - 1]
                succ[2 * cell_id + (end > 0)] = 2 * nxt_id + (nxt_end < 0)
        # a walk is outer iff it runs a side cell backward
        outer_half = [False] * len(succ)
        for cell in self.cells:
            if cell.kind == "side":
                outer_half[2 * cell.id + 1] = True

        euler = [0] * surf.ntri   # V - E + F per triangle
        for tri, _ in incident:
            euler[tri] += 1
        for cell in self.cells:
            euler[cell.tri] -= 1
        visited = [False] * len(succ)
        self.frag_of_halfedge = {}
        for start in range(len(succ)):
            if visited[start]:
                continue
            hs = []
            h = start
            while True:
                visited[h] = True
                hs.append(h)
                h = succ[h]
                if h == start:
                    break
                if visited[h]:
                    raise InternalInvariantError("face walk collided")
            tri = self.cells[start >> 1].tri
            euler[tri] += 1
            if not any(outer_half[h] for h in hs):
                fid = len(self.fragments)
                walk = [(h >> 1, -1 if h & 1 else 1) for h in hs]
                self.fragments.append(Fragment(fid, tri, walk))
                for he in walk:
                    self.frag_of_halfedge[he] = fid

        for tri in range(surf.ntri):
            if euler[tri] != 2:
                raise InternalInvariantError(
                    "rotation system of triangle %d is not planar" % tri)

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

    def fragment_links(self):
        """(frag, frag, cell) adjacencies across interior edge segments.

        Chord cells never link: the surface is cut along every strand.
        Computed once per arrangement.
        """
        if self._links is not None:
            return self._links
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
        self._links = links
        return links


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


def cut_component_count(drawing):
    """Components of the surface cut along every strand of the drawing."""
    arr = Arrangement(drawing)
    find, union = _union_find(len(arr.fragments))
    for fa, fb, _ in arr.fragment_links():
        union(fa, fb)
    return len({find(f.id) for f in arr.fragments})


class FaceInfo:
    __slots__ = ("fragments", "chi", "circles", "corner_count",
                 "has_surface_boundary")

    def __init__(self, fragments, chi, circles, corner_count,
                 has_surface_boundary):
        self.fragments = fragments
        self.chi = chi
        self.circles = circles
        self.corner_count = corner_count
        self.has_surface_boundary = has_surface_boundary

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


def face_data(drawing, sids):
    """Faces of the complement of the strands `sids` of the drawing."""
    arr = Arrangement(drawing.sub_drawing(
        [drawing.strands[sid] for sid in sorted(sids)]))
    find, union = _union_find(len(arr.fragments))
    for fa, fb, _ in arr.fragment_links():
        union(fa, fb)
    groups = {}
    for fr in arr.fragments:
        groups.setdefault(find(fr.id), []).append(fr)
    out = []
    for root in sorted(groups):
        frs = groups[root]
        chi, circles, corners, has_bd = _face_topology(arr, frs)
        out.append(FaceInfo(sorted(f.id for f in frs), chi, circles, corners,
                            has_bd))
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
    for start in sorted(free_sides):
        if start in seen:
            continue
        circles += 1
        cur = start
        while True:
            seen.add(cur)
            cell = arr.cells[cur[0]]
            if cell.kind == "side":
                has_bd = True
            head_node = cell.b if cur[1] == 1 else cell.a
            if head_node[0] == "x":
                corner_total += 1
            candidates = [he for he in by_tail.get(head_cls[cur], [])
                          if he not in seen or he == start]
            if not candidates:
                raise InternalInvariantError("boundary circle broke")
            cur = candidates[0]
            if cur == start:
                break
    return chi, circles, corner_total, has_bd
