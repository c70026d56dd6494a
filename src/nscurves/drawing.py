"""Drawn multicurves on a triangulated surface.

The single source of truth for a drawing is combinatorial: each closed
strand is a cyclic sequence of edge-crossing points together with the
triangle traversed between consecutive crossings, and each edge carries
the order of the points along it.  All geometry (chords inside triangles,
crossings, signs, the order of crossings along strands) is derived on
demand from that data, with positions spread along each edge in index
order.  Re-deriving instead of storing geometry keeps every mutation
(bigon moves, twisting, surgery assembly) a pure list operation.

Geometry is derived only where two strands can cross.  A single strand
is checked on the combinatorial data alone: it is embedded iff in every
triangle the endpoints of its chords nest around the boundary
(`validate_embedded`), and a turnback is a chord that returns to its
entry edge at the adjacent point (`find_turnback`).

Chords whose endpoints lie on two different sides of a triangle are drawn
straight, on integer coordinates; two of them cross iff their endpoints
interleave around the triangle.  A chord returning to the side it entered
through is drawn as a flat two-segment rational "tent" whose height
shrinks with nesting depth and with the point count of the triangle; the
bound in `_chords_of` keeps tents below every straight chord that must not
meet them.  A crossing keeps its exact position on both chords and is
ordered along each strand by its integer rank on its chord.  Degenerate
coincidences (collinear chords, coincident crossings) are detected exactly
and resolved by re-deriving with a perturbation salt.
"""

from __future__ import annotations

from bisect import bisect_left
from fractions import Fraction
from operator import itemgetter

from .errors import InternalInvariantError, MatchingViolation
from . import words as W

CORNERS = ((Fraction(0), Fraction(0)), (Fraction(1), Fraction(0)),
           (Fraction(0), Fraction(1)))
_SALT_LIMIT = 9


class _Degenerate(Exception):
    pass


_KEY = itemgetter(0)


def _exact_key(hit):
    piece, num, den = hit[1]
    return (piece, Fraction(num, den))


def _order_on_chord(hits):
    """Sort one chord's hits into their exact order along the chord.

    A hit is (key, (piece, num, den), ...): the crossing lies num/den
    (den > 0, strictly between 0 and 1) along the given piece, and key is
    the float piece + num/den.  Correctly rounded division and addition are
    monotone, so a smaller exact position never gets a larger key: sorting
    by key is exact unless two keys tie, and then the chord is re-sorted
    exactly.  Raises _Degenerate when two hits coincide.
    """
    hits.sort(key=_KEY)
    if len(set(map(_KEY, hits))) < len(hits):
        hits.sort(key=_exact_key)
        for x, y in zip(hits, hits[1:]):
            if _exact_key(x) == _exact_key(y):
                raise _Degenerate("coincident crossings on a chord")


def _interleaved_pairs(seq, n):
    """Sorted index pairs (i, j), i < j, of chords whose endpoints interleave.

    `seq` lists the chord index of each endpoint in boundary order, every
    index in range(n) at most twice.  The sweep keeps the open chords in
    opening order; a closing chord crosses exactly the chords opened after
    it and still open, so the cost is O(len(seq) log n + pairs).
    """
    first = [-1] * n
    open_at, open_idx, out = [], [], []
    for pos, i in enumerate(seq):
        f = first[i]
        if f < 0:
            first[i] = pos
            open_at.append(pos)
            open_idx.append(i)
            continue
        k = bisect_left(open_at, f)
        out.extend([(i, j) if i < j else (j, i) for j in open_idx[k + 1:]])
        del open_at[k], open_idx[k]
    out.sort()
    return out


def _vcross(u, v):
    return u[0] * v[1] - u[1] * v[0]


def _side_coords(s, u):
    a, b = CORNERS[s], CORNERS[(s + 1) % 3]
    return (a[0] + u * (b[0] - a[0]), a[1] + u * (b[1] - a[1]))


def _side_normal(s):
    a, b = CORNERS[s], CORNERS[(s + 1) % 3]
    d = (b[0] - a[0], b[1] - a[1])
    return (-d[1], d[0])


def _seg_intersect(p, q, r, s):
    """Interior intersection params (t, u) of segments pq, rs; None if clear.

    Raises _Degenerate on endpoint touches or collinear overlap.
    """
    d1 = (q[0] - p[0], q[1] - p[1])
    d2 = (s[0] - r[0], s[1] - r[1])
    denom = _vcross(d1, d2)
    w = (r[0] - p[0], r[1] - p[1])
    if denom == 0:
        if _vcross(w, d1) == 0:
            l2 = d1[0] * d1[0] + d1[1] * d1[1]
            t_r = Fraction(w[0] * d1[0] + w[1] * d1[1], 1) / l2
            ws = (s[0] - p[0], s[1] - p[1])
            t_s = Fraction(ws[0] * d1[0] + ws[1] * d1[1], 1) / l2
            lo, hi = min(t_r, t_s), max(t_r, t_s)
            if hi <= 0 or lo >= 1:
                return None
            raise _Degenerate("collinear overlap")
        return None
    t = Fraction(_vcross(w, d2), denom)
    u = Fraction(_vcross(w, d1), denom)
    if 0 < t < 1 and 0 < u < 1:
        return (t, u)
    if (t == 0 or t == 1) and 0 <= u <= 1:
        raise _Degenerate("endpoint touch")
    if (u == 0 or u == 1) and 0 <= t <= 1:
        raise _Degenerate("endpoint touch")
    return None


def _tent_crossings(chords, tents):
    """(i, j, piece_i, piece_j, t, u) for every crossing with a tent chord.

    `tents` indexes the tent chords of one triangle's `chords`; i < j, and
    t, u are the exact parameters along the two pieces.
    """
    out = []
    for i in tents:
        for j in range(len(chords)):
            if j == i or (j < i and chords[j].ints is None):
                continue   # a pair of tents is visited once
            a, b = (i, j) if i < j else (j, i)
            for pi_a, seg_a in enumerate(chords[a].pieces):
                for pi_b, seg_b in enumerate(chords[b].pieces):
                    res = _seg_intersect(seg_a[0], seg_a[1],
                                         seg_b[0], seg_b[1])
                    if res is not None:
                        out.append((a, b, pi_a, pi_b) + res)
    return out


class Strand:
    __slots__ = ("pts", "tris", "role")

    def __init__(self, pts, tris, role=None):
        self.pts = list(pts)
        self.tris = list(tris)
        self.role = role

    def __len__(self):
        return len(self.pts)


class Chord:
    __slots__ = ("sid", "idx", "tri", "pa", "pb", "_pieces", "same_side",
                 "ints")

    def __init__(self, sid, idx, tri, pa, pb, pieces, same_side, ints=None):
        self.sid = sid
        self.idx = idx
        self.tri = tri
        self.pa = pa
        self.pb = pb
        self._pieces = pieces
        self.same_side = same_side
        self.ints = ints    # ((ax, ay), (bx, by), scale) for straight chords

    @property
    def pieces(self):
        if self._pieces is None:
            (ax, ay), (bx, by), sc = self.ints
            self._pieces = [((Fraction(ax, sc), Fraction(ay, sc)),
                             (Fraction(bx, sc), Fraction(by, sc)))]
        return self._pieces

    def direction_at(self, piece_idx):
        # scaled integer directions for straight chords; signs are what
        # callers consume, so the scale does not matter
        if self.ints is not None:
            (ax, ay), (bx, by), _ = self.ints
            return (bx - ax, by - ay)
        p, q = self._pieces[piece_idx]
        return (q[0] - p[0], q[1] - p[1])

    def point_at(self, at):
        """Exact point num/den along piece `at` = (piece, num, den)."""
        pi, num, den = at
        if self.ints is not None:
            (ax, ay), (bx, by), sc = self.ints
            return (Fraction(ax * den + num * (bx - ax), sc * den),
                    Fraction(ay * den + num * (by - ay), sc * den))
        p, q = self._pieces[pi]
        t = Fraction(num, den)
        return (p[0] + t * (q[0] - p[0]), p[1] + t * (q[1] - p[1]))


class Crossing:
    __slots__ = ("id", "tri", "sid_a", "chord_a", "at_a", "par_a",
                 "sid_b", "chord_b", "at_b", "par_b", "sign", "_point")

    def __init__(self, cid, tri, sid_a, chord_a, at_a, sid_b, chord_b, at_b,
                 sign):
        self.id = cid
        self.tri = tri
        self.sid_a = sid_a
        self.chord_a = chord_a
        self.at_a = at_a         # exact (piece, num, den) on chord_a
        self.par_a = None        # (chord idx, piece idx, rank) along strand a
        self.sid_b = sid_b
        self.chord_b = chord_b
        self.at_b = at_b
        self.par_b = None
        self.sign = sign         # sign of cross(dir_a, dir_b)
        self._point = None

    @property
    def point(self):
        if self._point is None:
            self._point = self.chord_a.point_at(self.at_a)
        return self._point

    def param_of(self, sid):
        if sid == self.sid_a:
            return self.par_a
        if sid == self.sid_b:
            return self.par_b
        raise KeyError(sid)

    def chord_of(self, sid):
        if sid == self.sid_a:
            return self.chord_a
        if sid == self.sid_b:
            return self.chord_b
        raise KeyError(sid)

    def sign_for(self, sid_first):
        return self.sign if sid_first == self.sid_a else -self.sign


class Geometry:
    def __init__(self, chords, crossings, events, pairs):
        self.chords = chords          # sid -> list[Chord]
        self.crossings = crossings    # list[Crossing]
        self.events = events          # sid -> Crossing list in traversal order
        self.pairs = pairs            # (sid, other) -> the events of sid
                                      # shared with other, in sid's order

    def pair_events(self, sa, sb):
        """Crossings of sa with sb in sa's traversal order (do not mutate)."""
        return self.pairs.get((sa, sb), [])

    def count_pair(self, sa, sb):
        return len(self.pairs.get((sa, sb), ()))


class Drawing:
    def __init__(self, surface):
        self.surface = surface
        self.pt_edge = {}
        self.edge_pts = {e.id: [] for e in surface.edges}
        self.strands = {}
        self._next_pid = 0
        self._next_sid = 0
        self.salt = 0
        self.version = 0
        self._geo_cache = None
        self._pos_cache = None
        self._pos_version = -1

    # -- low level ---------------------------------------------------------

    def clone(self):
        d = Drawing(self.surface)
        d.pt_edge = dict(self.pt_edge)
        d.edge_pts = {e: list(v) for e, v in self.edge_pts.items()}
        d.strands = {sid: Strand(s.pts, s.tris, s.role)
                     for sid, s in self.strands.items()}
        d._next_pid = self._next_pid
        d._next_sid = self._next_sid
        d.salt = self.salt
        return d

    def _bump(self):
        self.version += 1
        self._geo_cache = None

    def new_point(self, edge, index):
        pid = self._next_pid
        self._next_pid += 1
        self.pt_edge[pid] = edge
        self.edge_pts[edge].insert(index, pid)
        self._bump()
        return pid

    def drop_point(self, pid):
        e = self.pt_edge.pop(pid)
        self.edge_pts[e].remove(pid)
        self._bump()

    def add_strand(self, pts, tris, role=None):
        if len(pts) != len(tris):
            raise InternalInvariantError("strand arity mismatch")
        sid = self._next_sid
        self._next_sid += 1
        self.strands[sid] = Strand(pts, tris, role)
        self._bump()
        return sid

    def drop_strand(self, sid):
        st = self.strands.pop(sid)
        for p in st.pts:
            self.drop_point(p)
        self._bump()

    def strand_by_role(self, role):
        for sid, st in sorted(self.strands.items()):
            if st.role == role:
                return sid
        raise KeyError(role)

    def pos(self, pid):
        if self._pos_cache is None or self._pos_version != self.version:
            self._pos_cache = {}
            for e, pts in self.edge_pts.items():
                for k, p in enumerate(pts):
                    self._pos_cache[p] = k
            self._pos_version = self.version
        return self._pos_cache[pid]

    def weights(self, sid=None):
        w = [0] * len(self.surface.edges)
        if sid is None:
            for e, pts in self.edge_pts.items():
                w[e] = len(pts)
        else:
            for p in self.strands[sid].pts:
                w[self.pt_edge[p]] += 1
        return w

    # -- derived geometry ----------------------------------------------------

    def front_param(self, pid):
        e = self.pt_edge[pid]
        k = self.pos(pid)
        n = len(self.edge_pts[e])
        base = Fraction(k + 1, n + 1)
        if self.salt:
            base += Fraction(self.salt * (k + 1) * (k + 1),
                             137 * (n + 3) ** 3)
        return base

    def side_of_point_in_tri(self, pid, tri):
        e = self.pt_edge[pid]
        try:
            return self.surface.tri_edges_table[tri].index(e)
        except ValueError:
            raise InternalInvariantError(
                "point %d not on triangle %d" % (pid, tri))

    def local_param(self, pid, tri, s=None):
        if s is None:
            s = self.side_of_point_in_tri(pid, tri)
        p = self.front_param(pid)
        if self.surface.side_local_direction_is_front(tri, s):
            return p
        return 1 - p

    def point_coords(self, pid, tri):
        s = self.side_of_point_in_tri(pid, tri)
        return _side_coords(s, self.local_param(pid, tri, s))

    def _param_ints(self, pid):
        """Front parameter of a point as an exact integer pair (num, den)."""
        e = self.pt_edge[pid]
        k = self.pos(pid)
        n = len(self.edge_pts[e])
        if not self.salt:
            return (k + 1, n + 1)
        j = 137 * (n + 3) ** 3
        return ((k + 1) * j + self.salt * (k + 1) * (k + 1) * (n + 1),
                (n + 1) * j)

    def _tri_scale(self, tri):
        """Common multiple of the front-parameter denominators of the sides."""
        scale = 1
        for s in range(3):
            n = len(self.edge_pts[self.surface.side_edge[(tri, s)]])
            scale *= (n + 1) if not self.salt else (n + 1) * 137 * (n + 3) ** 3
        return scale

    def _point_int_coords(self, pid, tri, s, scale):
        num, den = self._param_ints(pid)
        if not self.surface.side_local_direction_is_front(tri, s):
            num = den - num
        u = num * (scale // den)
        if s == 0:
            return (u, 0)
        if s == 1:
            return (scale - u, u)
        return (0, scale - u)

    def _chords_of(self, sid):
        st = self.strands[sid]
        n = len(st.pts)
        out = []
        spans_by_side = {}
        raw = []
        for i in range(n):
            pa, pb = st.pts[i], st.pts[(i + 1) % n]
            tri = st.tris[i]
            sa = self.side_of_point_in_tri(pa, tri)
            sb = self.side_of_point_in_tri(pb, tri)
            same = sa == sb
            raw.append((i, tri, pa, pb, sa, sb, same))
            if same:
                ua = self.local_param(pa, tri, sa)
                ub = self.local_param(pb, tri, sb)
                spans_by_side.setdefault((tri, sa), []).append(
                    (min(ua, ub), max(ua, ub), i))
        scale_cache = {}
        for i, tri, pa, pb, sa, sb, same in raw:
            if not same:
                if tri not in scale_cache:
                    scale_cache[tri] = self._tri_scale(tri)
                scale = scale_cache[tri]
                ia = self._point_int_coords(pa, tri, sa, scale)
                ib = self._point_int_coords(pb, tri, sb, scale)
                out.append(Chord(sid, i, tri, pa, pb, None, False,
                                 ints=(ia, ib, scale)))
                continue
            A = _side_coords(sa, self.local_param(pa, tri, sa))
            B = _side_coords(sb, self.local_param(pb, tri, sb))
            ua = self.local_param(pa, tri, sa)
            ub = self.local_param(pb, tri, sb)
            lo, hi = min(ua, ub), max(ua, ub)
            depth = sum(1 for (l2, h2, j) in spans_by_side[(tri, sa)]
                        if j != i and l2 < lo and hi < h2)
            m = max(len(self.edge_pts[self.surface.side_edge[(tri, t)]])
                    for t in range(3))
            slope = Fraction(1, 8 * (depth + 2) * (m + 2) ** 2)
            if self.salt:
                slope *= Fraction(137 + self.salt, 137)
            h = (hi - lo) * slope / 2
            mid = ((A[0] + B[0]) / 2, (A[1] + B[1]) / 2)
            nvec = _side_normal(sa)
            bend = (mid[0] + h * nvec[0], mid[1] + h * nvec[1])
            out.append(Chord(sid, i, tri, pa, pb,
                             [(A, bend), (bend, B)], True))
        return out

    def geometry(self) -> Geometry:
        if self._geo_cache is not None and self._geo_cache[0] == self.version:
            return self._geo_cache[1]
        last = None
        for _ in range(_SALT_LIMIT):
            try:
                geo = self._geometry_attempt()
                self._geo_cache = (self.version, geo)
                return geo
            except _Degenerate as err:
                last = err
                self.salt += 1
        raise InternalInvariantError("degenerate geometry persisted: %s" % last)

    def _boundary_order(self, tri):
        """Points around the triangle boundary, counterclockwise."""
        out = []
        for s in range(3):
            pts = self.edge_pts[self.surface.side_edge[(tri, s)]]
            front = self.surface.side_local_direction_is_front(tri, s)
            out.extend(pts if front else reversed(pts))
        return out

    def _geometry_attempt(self):
        chords = {sid: self._chords_of(sid) for sid in sorted(self.strands)}
        hits = {sid: [[] for _ in chords[sid]] for sid in chords}
        by_tri = {}
        for sid in chords:
            for ch, hl in zip(chords[sid], hits[sid]):
                by_tri.setdefault(ch.tri, []).append((ch, hl))
        crossings = []
        self_crossed = None

        for tri in sorted(by_tri):
            lst = by_tri[tri]
            # straight pairs cross iff their endpoints interleave; the
            # corners do not matter, as every chord ends on the sides
            segs = [None] * len(lst)
            owner = {}
            tents = []
            for i, (ch, _) in enumerate(lst):
                if ch.ints is None:
                    tents.append(i)
                    continue
                (ax, ay), (bx, by), _ = ch.ints
                segs[i] = (ax, ay, bx - ax, by - ay)
                owner[ch.pa] = owner[ch.pb] = i
            found = []
            if len(owner) > 2:   # at least two straight chords
                found = _interleaved_pairs(
                    [owner[p] for p in self._boundary_order(tri)
                     if p in owner], len(lst))
            if tents:
                found += _tent_crossings([ch for ch, _ in lst], tents)
                found.sort()
            for f in found:
                (ca, hl_a), (cb, hl_b) = lst[f[0]], lst[f[1]]
                if len(f) == 2:
                    ax, ay, d1x, d1y = segs[f[0]]
                    rx, ry, d2x, d2y = segs[f[1]]
                    denom = d1x * d2y - d1y * d2x
                    if denom == 0:
                        raise _Degenerate("collinear straight chords")
                    wx, wy = rx - ax, ry - ay
                    tn = wx * d2y - wy * d2x
                    un = wx * d1y - wy * d1x
                    sg = 1
                    if denom < 0:
                        sg, tn, un, denom = -1, -tn, -un, -denom
                    at_a, at_b = (0, tn, denom), (0, un, denom)
                    key_a, key_b = tn / denom, un / denom
                else:
                    _, _, pi_a, pi_b, t, u = f
                    sg = 1 if _vcross(ca.direction_at(pi_a),
                                      cb.direction_at(pi_b)) > 0 else -1
                    at_a = (pi_a, t.numerator, t.denominator)
                    at_b = (pi_b, u.numerator, u.denominator)
                    key_a, key_b = pi_a + float(t), pi_b + float(u)
                cr = Crossing(len(crossings), tri, ca.sid, ca, at_a,
                              cb.sid, cb, at_b, sg)
                crossings.append(cr)
                hl_a.append((key_a, at_a, cr, False))
                hl_b.append((key_b, at_b, cr, True))
                if ca.sid == cb.sid and self_crossed is None:
                    self_crossed = ca.sid
        if self_crossed is not None:
            raise InternalInvariantError(
                "strand %d crosses itself" % self_crossed)
        events, pairs = {}, {}
        for sid in chords:
            ev = events[sid] = []
            for ch, hl in zip(chords[sid], hits[sid]):
                if not hl:
                    continue
                if len(hl) > 1:
                    _order_on_chord(hl)
                for rank, (_, at, cr, on_b) in enumerate(hl):
                    if on_b:
                        cr.par_b = (ch.idx, at[0], rank)
                        other = cr.sid_a
                    else:
                        cr.par_a = (ch.idx, at[0], rank)
                        other = cr.sid_b
                    ev.append(cr)
                    pairs.setdefault((sid, other), []).append(cr)
        return Geometry(chords, crossings, events, pairs)

    # -- words and homology chains --------------------------------------------

    def crossing_passage(self, sid, i):
        """(tri_exited, side) for strand sid passing through its i-th point."""
        st = self.strands[sid]
        n = len(st.pts)
        tri_prev = st.tris[(i - 1) % n]
        s = self.side_of_point_in_tri(st.pts[i], tri_prev)
        return tri_prev, s

    def word_of(self, sid):
        st = self.strands[sid]
        out = []
        for i in range(len(st.pts)):
            tri, s = self.crossing_passage(sid, i)
            letter = self.surface.crossing_letter(tri, s)
            if letter:
                out.append(letter)
        return out

    def arc_word(self, sid, i_start, count):
        """Letters for `count` passages starting at point index i_start."""
        st = self.strands[sid]
        n = len(st.pts)
        out = []
        for k in range(count):
            i = (i_start + k) % n
            tri, s = self.crossing_passage(sid, i)
            letter = self.surface.crossing_letter(tri, s)
            if letter:
                out.append(letter)
        return out

    def cycle_chain(self, sid):
        """Corner-routed simplicial 1-chain homologous to the oriented strand.

        Each crossing point slides to the start corner of its edge's front
        instance; each chord becomes the counterclockwise corner route of
        its triangle.
        """
        surf = self.surface
        st = self.strands[sid]
        n = len(st.pts)
        chain = [0] * len(surf.edges)

        def corner_of_point(p, tri):
            e = self.pt_edge[p]
            front_t, front_s = surf.edges[e].front
            if front_t == tri:
                return front_s
            s = self.side_of_point_in_tri(p, tri)
            return (s + 1) % 3

        for i in range(n):
            tri = st.tris[i]
            ca = corner_of_point(st.pts[i], tri)
            cb = corner_of_point(st.pts[(i + 1) % n], tri)
            c = ca
            while c != cb:
                e = surf.side_edge[(tri, c)]
                sgn = 1 if surf.edges[e].front == (tri, c) else -1
                chain[e] += sgn
                c = (c + 1) % 3
        return chain

    def validate_embedded(self):
        """Raise InternalInvariantError unless no strand crosses itself.

        Arcs in a disk are disjoint iff their endpoints do not interleave
        around its boundary, so in every triangle a strand visits, the
        endpoints of its chords there must nest like parentheses.  Builds
        no geometry.
        """
        for sid in sorted(self.strands):
            st = self.strands[sid]
            pts, n = st.pts, len(st.pts)
            owner_in = {}   # tri -> {endpoint: chord index}
            for i, tri in enumerate(st.tris):
                owner = owner_in.setdefault(tri, {})
                owner[pts[i]] = owner[pts[(i + 1) % n]] = i
            for tri, owner in owner_in.items():
                stack = []
                for p in self._boundary_order(tri):
                    i = owner.get(p)
                    if i is None:
                        continue
                    if stack and stack[-1] == i:
                        stack.pop()
                    else:
                        stack.append(i)
                if stack:
                    raise InternalInvariantError(
                        "strand %d crosses itself" % sid)

    # -- construction from normal coordinates ----------------------------------

    @classmethod
    def from_normal_coords(cls, surface, weights, role=None):
        """Trace the normal multicurve with the given edge weights."""
        if len(weights) != len(surface.edges):
            raise MatchingViolation("expected %d weights, got %d"
                                    % (len(surface.edges), len(weights)))
        if any(w < 0 for w in weights):
            raise MatchingViolation("negative weight")
        for e in surface.boundary_edge_ids:
            if weights[e]:
                raise MatchingViolation("nonzero weight on boundary edge %d" % e)
        corner_counts = {}
        for t in range(surface.ntri):
            ws = [weights[surface.side_edge[(t, s)]] for s in range(3)]
            if sum(ws) % 2:
                raise MatchingViolation("odd weight sum in triangle %d" % t)
            for c in range(3):
                nc = ws[c] + ws[(c + 2) % 3] - ws[(c + 1) % 3]
                if nc < 0 or nc % 2:
                    raise MatchingViolation(
                        "triangle inequality fails at triangle %d corner %d"
                        % (t, c))
                corner_counts[(t, c)] = nc // 2

        d = cls(surface)
        pts_of_edge = {}
        for e in range(len(surface.edges)):
            pts_of_edge[e] = [d.new_point(e, k) for k in range(weights[e])]

        def slot_pid(t, s, k):
            e = surface.side_edge[(t, s)]
            n = weights[e]
            if surface.side_local_direction_is_front(t, s):
                return pts_of_edge[e][k]
            return pts_of_edge[e][n - 1 - k]

        succ = {}
        for t in range(surface.ntri):
            ws = [weights[surface.side_edge[(t, s)]] for s in range(3)]
            for c in range(3):
                for k in range(corner_counts[(t, c)]):
                    p = slot_pid(t, c, k)
                    q = slot_pid(t, (c + 2) % 3, ws[(c + 2) % 3] - 1 - k)
                    succ[(t, p)] = q
                    succ[(t, q)] = p

        visited = set()
        for e0 in range(len(surface.edges)):
            for p0 in pts_of_edge[e0]:
                edge = surface.edges[e0]
                starts = [edge.front[0]] + ([edge.back[0]] if edge.back else [])
                for t_enter in starts:
                    if (t_enter, p0) in visited:
                        continue
                    pts, tris = [], []
                    t, p = t_enter, p0
                    while (t, p) not in visited:
                        visited.add((t, p))
                        pts.append(p)
                        tris.append(t)
                        q = succ.get((t, p))
                        if q is None:
                            raise InternalInvariantError("broken matching")
                        visited.add((t, q))
                        s_here = d.side_of_point_in_tri(q, t)
                        other = surface.glue.get((t, s_here))
                        if other is None:
                            raise MatchingViolation(
                                "curve runs into a boundary edge")
                        t, p = other[0], q
                    d.add_strand(pts, tris, role=role)
        return d

    # -- turnback reduction -----------------------------------------------------

    def find_turnback(self, sid):
        """First chord of a removable wiggle: same side, adjacent endpoints."""
        st = self.strands[sid]
        pts, n = st.pts, len(st.pts)
        for i, tri in enumerate(st.tris):
            pa, pb = pts[i], pts[(i + 1) % n]
            if (self.side_of_point_in_tri(pa, tri)
                    == self.side_of_point_in_tri(pb, tri)
                    and abs(self.pos(pa) - self.pos(pb)) == 1):
                return i
        return None

    def remove_turnback(self, sid, idx):
        st = self.strands[sid]
        n = len(st.pts)
        if n == 2:
            self.drop_strand(sid)
            return
        pa, pb = st.pts[idx], st.pts[(idx + 1) % n]
        i_prev, i_next = (idx - 1) % n, (idx + 1) % n
        if st.tris[i_prev] != st.tris[i_next]:
            raise InternalInvariantError("turnback neighbours disagree")
        new_pts, new_tris = [], []
        for i in range(n):
            if i == idx or i == i_next:
                continue
            new_pts.append(st.pts[i])
            new_tris.append(st.tris[i])
        st.pts, st.tris = new_pts, new_tris
        self.drop_point(pa)
        self.drop_point(pb)
        self._bump()

    def reduce_turnbacks(self, sid):
        """Remove turnbacks from the solo strand sid; returns their number.

        When a turnback p, q goes, the chords x -> p and q -> y merge into
        x -> y.  As p and q are adjacent on their edge, no chord that
        interleaved neither x-p nor q-y interleaves x-y, so one check of
        embeddedness up front covers every removal.
        """
        if list(self.strands) != [sid]:
            raise InternalInvariantError(
                "turnback reduction needs a drawing of strand %d alone" % sid)
        self.validate_embedded()
        removed = 0
        while sid in self.strands:
            idx = self.find_turnback(sid)
            if idx is None:
                break
            self.remove_turnback(sid, idx)
            removed += 1
        return removed

    # -- extraction and copies ----------------------------------------------------

    def extract_solo(self, sid, role=None):
        out = Drawing(self.surface)
        st = self.strands[sid]
        own = set(st.pts)
        mapping = {}
        for e in sorted(self.edge_pts):
            k = 0
            for p in self.edge_pts[e]:
                if p in own:
                    mapping[p] = out.new_point(e, k)
                    k += 1
        out.add_strand([mapping[p] for p in st.pts], list(st.tris),
                       role=role if role is not None else st.role)
        return out

    def insert_copy(self, other, role=None):
        mapping = {}
        for e in sorted(other.edge_pts):
            for p in other.edge_pts[e]:
                mapping[p] = self.new_point(e, len(self.edge_pts[e]))
        new_sids = []
        for sid in sorted(other.strands):
            st = other.strands[sid]
            new_sids.append(self.add_strand(
                [mapping[p] for p in st.pts], list(st.tris),
                role=role if role is not None else st.role))
        return new_sids

    def add_parallel_strand(self, sid, role=None):
        """Disjoint copy, offset to the left of the strand's direction."""
        st = self.strands[sid]
        geo = self.geometry()
        chords_by_idx = {ch.idx: ch for ch in geo.chords[sid]}
        specs = []
        for i, p in enumerate(st.pts):
            ch = chords_by_idx[i]
            specs.append((p, ch.direction_at(0), st.tris[i]))
        mapping = {}
        for (p, d_out, tri_out) in specs:
            idx = self._edge_insert_index(p, d_out, tri_out, 1)
            mapping[p] = self.new_point(self.pt_edge[p], idx)
        return self.add_strand([mapping[p] for p in st.pts], list(st.tris),
                               role=role)

    # -- arcs between crossings ---------------------------------------------------

    def arc_interior(self, sid, cr_from, cr_to):
        """Point indices strictly inside the forward arc cr_from -> cr_to.

        The arc is the one containing no other crossings of this pair; when
        both crossings sit on the same chord the parameters decide whether
        the arc is the short in-chord piece or wraps the whole strand.
        """
        st = self.strands[sid]
        n = len(st.pts)
        p_from = cr_from.param_of(sid)
        p_to = cr_to.param_of(sid)
        i1, i2 = p_from[0], p_to[0]
        if i1 == i2:
            if p_from < p_to:
                return []
            return [(i1 + 1 + k) % n for k in range(n)]
        out = []
        i = (i1 + 1) % n
        while True:
            out.append(i)
            if i == i2:
                break
            i = (i + 1) % n
        return out

    def arc_word_between(self, sid, cr_from, cr_to):
        interior = self.arc_interior(sid, cr_from, cr_to)
        if not interior:
            return []
        return self.arc_word(sid, interior[0], len(interior))

    # -- bigon detection and removal ------------------------------------------------

    def loop_is_trivial(self, word):
        surf = self.surface
        if surf.boundary_count == 0 and surf.genus == 1:
            return W.is_trivial(word, abelian_rank=len(surf.word_gen_edges))
        return W.is_trivial(word, relators=surf.vertex_relators)

    def _letter_prefix_sums(self, sid):
        """Prefix sums of abelianized passage letters along a strand."""
        st = self.strands[sid]
        rank = len(self.surface.word_gen_edges)
        prefix = [(0,) * rank]
        acc = [0] * rank
        for i in range(len(st.pts)):
            tri, s = self.crossing_passage(sid, i)
            letter = self.surface.crossing_letter(tri, s)
            if letter:
                acc[abs(letter) - 1] += 1 if letter > 0 else -1
            prefix.append(tuple(acc))
        return prefix

    def _arc_abelian(self, sid, interior, prefix):
        """Abelianized letter sum over the passages at the given indices."""
        rank = len(prefix[0])
        if not interior:
            return (0,) * rank
        # interior indices are cyclically consecutive
        start, count = interior[0], len(interior)
        n = len(self.strands[sid].pts)
        end = start + count
        if end <= n:
            return tuple(a - b for a, b in zip(prefix[end], prefix[start]))
        total = prefix[n]
        end -= n
        return tuple(t - b + e for t, b, e in
                     zip(total, prefix[start], prefix[end]))

    def find_bigon(self, sid_x, sid_y):
        moves = self.find_bigon_moves(sid_x, sid_y, first_only=True)
        return moves[0] if moves else None

    def find_bigon_moves(self, sid_x, sid_y, first_only=False):
        """Removable bigons between two strands.

        Two crossings consecutive along both strands bound a bigon iff the
        loop of the two arcs is nullhomotopic; the disk is then free of both
        strands, so the move cancels exactly this crossing pair.  A fast
        abelian check filters the candidate pairs before the exact word
        reduction runs.
        """
        geo = self.geometry()
        ev_x = geo.pair_events(sid_x, sid_y)
        if len(ev_x) < 2:
            return []
        ev_y = geo.pair_events(sid_y, sid_x)
        nx, ny = len(ev_x), len(ev_y)
        pos_y = {c.id: k for k, c in enumerate(ev_y)}
        px = self._letter_prefix_sums(sid_x)
        py = self._letter_prefix_sums(sid_y)
        out = []
        for k in range(nx):
            v1, v2 = ev_x[k], ev_x[(k + 1) % nx]
            if v1 is v2:
                continue
            ky1, ky2 = pos_y[v1.id], pos_y[v2.id]
            dirs = []
            if (ky1 + 1) % ny == ky2:
                dirs.append(1)
            if (ky2 + 1) % ny == ky1 and (ny > 1):
                dirs.append(-1)
            for dy in dirs:
                int_x = self.arc_interior(sid_x, v1, v2)
                if dy == 1:
                    int_y = self.arc_interior(sid_y, v1, v2)
                else:
                    int_y = self.arc_interior(sid_y, v2, v1)
                ab_x = self._arc_abelian(sid_x, int_x, px)
                ab_y = self._arc_abelian(sid_y, int_y, py)
                if dy == -1:
                    ab_y = tuple(-t for t in ab_y)
                if ab_x != ab_y:
                    continue
                wx = self.arc_word_between(sid_x, v1, v2)
                if dy == 1:
                    wy = self.arc_word_between(sid_y, v1, v2)
                else:
                    wy = W.invert_word(self.arc_word_between(sid_y, v2, v1))
                if self.loop_is_trivial(wx + W.invert_word(wy)):
                    out.append((len(int_x) + len(int_y),
                                (sid_x, sid_y, v1, v2, dy)))
                    if first_only:
                        return [m for _, m in out]
                    break
        # small disks first: they conflict least, so batches grow larger
        out.sort(key=lambda t: t[0])
        return [m for _, m in out]

    def _edge_insert_index(self, q, d_out, tri_out, side_sign):
        """Slot adjacent to q on the prescribed side of a strand through q.

        `d_out` is the strand's outgoing direction at q inside tri_out;
        side_sign +1 selects the left of that direction.
        """
        s = self.side_of_point_in_tri(q, tri_out)
        a, b = CORNERS[s], CORNERS[(s + 1) % 3]
        dloc = (b[0] - a[0], b[1] - a[1])
        if not self.surface.side_local_direction_is_front(tri_out, s):
            dloc = (-dloc[0], -dloc[1])
        c = _vcross(d_out, dloc)
        if c == 0:
            raise _Degenerate("strand tangent to edge")
        forward_is_left = c > 0
        k = self.pos(q)
        want_forward = (side_sign > 0) == forward_is_left
        return k + 1 if want_forward else k

    def plan_bigon_move(self, move):
        """Read-only phase of a bigon move, taken from the current geometry.

        Normalizes the move so the strand with the longer arc moves; all
        references in the plan are point ids, so several plans with
        disjoint supports can be committed from one snapshot.
        """
        sid_x, sid_y, v1, v2, dy = move
        interior_x = self.arc_interior(sid_x, v1, v2)
        if dy == 1:
            interior_y = self.arc_interior(sid_y, v1, v2)
        else:
            interior_y = list(reversed(self.arc_interior(sid_y, v2, v1)))

        if len(interior_y) > len(interior_x) \
                and len(interior_x) != len(self.strands[sid_x].pts):
            if dy == 1:
                mover, stay, va, vb, ds = sid_y, sid_x, v1, v2, 1
                interior_m = self.arc_interior(sid_y, v1, v2)
            else:
                mover, stay, va, vb, ds = sid_y, sid_x, v2, v1, -1
                interior_m = self.arc_interior(sid_y, v2, v1)
        else:
            mover, stay, va, vb, ds = sid_x, sid_y, v1, v2, dy
            interior_m = interior_x

        st_m = self.strands[mover]
        st_s = self.strands[stay]
        n_m, n_s = len(st_m.pts), len(st_s.pts)
        full_m = len(interior_m) == n_m
        if ds == 1:
            interior_s = self.arc_interior(stay, va, vb)
        else:
            interior_s = list(reversed(self.arc_interior(stay, vb, va)))

        # far side of the stay-arc: away from the moving arc's departure
        ch_s = va.chord_of(stay)
        d_s = ch_s.direction_at(va.param_of(stay)[1])
        if ds == -1:
            d_s = (-d_s[0], -d_s[1])
        ch_m = va.chord_of(mover)
        d_m = ch_m.direction_at(va.param_of(mover)[1])
        c = _vcross(d_s, d_m)
        if c == 0:
            raise _Degenerate("tangent bigon corner")
        far = -1 if c > 0 else 1

        geo = self.geometry()
        chords_by_idx = {ch.idx: ch for ch in geo.chords[stay]}
        new_specs = []
        for j in interior_s:
            q = st_s.pts[j]
            if ds == 1:
                tri_out = st_s.tris[j]
                chord = chords_by_idx[j]
                d_out = chord.direction_at(0)
            else:
                tri_out = st_s.tris[(j - 1) % n_s]
                chord = chords_by_idx[(j - 1) % n_s]
                d_out = chord.direction_at(len(chord.pieces) - 1)
                d_out = (-d_out[0], -d_out[1])
            new_specs.append((q, d_out, tri_out))

        conn_tris = []
        for num in range(len(interior_s) - 1):
            j = interior_s[num]
            conn_tris.append(st_s.tris[j] if ds == 1
                             else st_s.tris[(j - 1) % n_s])

        i1 = va.param_of(mover)[0]
        i2 = vb.param_of(mover)[0]
        return {
            "mover": mover,
            "deleted_pids": [st_m.pts[j] for j in interior_m],
            "keep_pid": None if full_m else st_m.pts[i1],
            "resume_pid": None if full_m else st_m.pts[(i2 + 1) % n_m],
            "new_specs": new_specs,
            "conn_tris": conn_tris,
            "tri_start": va.tri,
            "tri_end": vb.tri,
            "far": far,
        }

    def commit_bigon_plan(self, plan):
        mover = plan["mover"]
        st_m = self.strands[mover]
        new_pts = []
        for (q, d_out, tri_out) in plan["new_specs"]:
            idx = self._edge_insert_index(q, d_out, tri_out, plan["far"])
            new_pts.append(self.new_point(self.pt_edge[q], idx))
        tri_start, tri_end = plan["tri_start"], plan["tri_end"]
        if plan["keep_pid"] is None:
            if not new_pts:
                raise InternalInvariantError(
                    "bigon move would erase an essential strand")
            # the whole strand rides into the corridor; the closing chord
            # (last corridor point back to the first) runs where the old
            # chord of the mover crossed, i.e. the corner triangle
            seq_pts = new_pts
            seq_tris = plan["conn_tris"] + [tri_start]
        else:
            ia = st_m.pts.index(plan["keep_pid"])
            ib = st_m.pts.index(plan["resume_pid"])
            n = len(st_m.pts)
            kept_pts, kept_tris = [], []
            i = ib
            while True:
                kept_pts.append(st_m.pts[i])
                kept_tris.append(st_m.tris[i])
                if i == ia:
                    break
                i = (i + 1) % n
            if new_pts:
                seq_pts = kept_pts + new_pts
                seq_tris = (kept_tris[:-1] + [tri_start]
                            + plan["conn_tris"] + [tri_end])
            else:
                if tri_start != tri_end:
                    raise InternalInvariantError("short bigon spans triangles")
                seq_pts = kept_pts
                seq_tris = kept_tris[:-1] + [tri_start]
        for pid in plan["deleted_pids"]:
            self.drop_point(pid)
        st_m.pts = seq_pts
        st_m.tris = seq_tris
        if len(st_m.pts) != len(st_m.tris):
            raise InternalInvariantError("reroute arity mismatch")
        self._bump()

    def apply_bigon_move(self, move):
        """Isotope one strand across the bigon; the pair count drops by two."""
        self.commit_bigon_plan(self.plan_bigon_move(move))

    def _compatible_plans(self, moves):
        """Plans for a greedy subset of moves whose edits cannot interfere."""
        used_crossings = set()
        deleted, anchors, boundary = set(), set(), set()
        plans = []
        for move in moves:
            _, _, v1, v2, _ = move
            if {v1.id, v2.id} & used_crossings:
                continue
            plan = self.plan_bigon_move(move)
            p_del = set(plan["deleted_pids"])
            p_anchor = {q for (q, _, _) in plan["new_specs"]}
            p_bnd = {p for p in (plan["keep_pid"], plan["resume_pid"])
                     if p is not None}
            if plan["keep_pid"] is None and plans:
                continue   # whole-strand reroutes only ride alone
            # every structural role of this plan must be untouched by the
            # earlier plans, in both directions: a spliced endpoint whose
            # outgoing chord another plan rebuilt would carry stale data
            touched = deleted | anchors | boundary
            if (p_del | p_anchor | p_bnd) & touched:
                continue
            used_crossings.update((v1.id, v2.id))
            deleted |= p_del
            anchors |= p_anchor
            boundary |= p_bnd
            plans.append(plan)
        return plans

    def _restore_from(self, snapshot):
        self.pt_edge = snapshot.pt_edge
        self.edge_pts = snapshot.edge_pts
        self.strands = snapshot.strands
        self._next_pid = snapshot._next_pid
        self._next_sid = snapshot._next_sid
        self._bump()

    def remove_bigons_between(self, sid_x, sid_y, check_counts=True):
        moves = 0
        passes = 0
        guard = None
        while True:
            found = self.find_bigon_moves(sid_x, sid_y)
            if not found:
                return moves
            if guard is None:
                guard = self.geometry().count_pair(sid_x, sid_y) + 8
            passes += 1
            if passes > guard:
                raise InternalInvariantError("bigon removal failed to settle")
            plans = self._compatible_plans(found)
            if len(plans) > 1:
                before = self.geometry().count_pair(sid_x, sid_y) \
                    if check_counts else None
                snapshot = self.clone()
                try:
                    for plan in plans:
                        self.commit_bigon_plan(plan)
                    if check_counts:
                        after = self.geometry().count_pair(sid_x, sid_y)
                        if after != before - 2 * len(plans):
                            raise InternalInvariantError("batch count drift")
                    moves += len(plans)
                    continue
                except (InternalInvariantError, _Degenerate, KeyError,
                        IndexError, ValueError):
                    self._restore_from(snapshot)
                    plans = self._compatible_plans(
                        self.find_bigon_moves(sid_x, sid_y))[:1]
            before = self.geometry().count_pair(sid_x, sid_y) if check_counts else 0
            self.commit_bigon_plan(plans[0])
            moves += 1
            if check_counts:
                after = self.geometry().count_pair(sid_x, sid_y)
                if after != before - 2:
                    raise InternalInvariantError(
                        "bigon move changed count %d -> %d" % (before, after))

    # -- Dehn twist ------------------------------------------------------------------

    def twist_once(self, sid_c, sid_t, handedness):
        """One Dehn twist of strand c along strand t; returns a solo drawing.

        The two strands must be in minimal position already.  Every strand
        of c crossing the annulus around t is given one full lap, forward
        along t at positively-signed crossings for handedness +1.
        """
        geo = self.geometry()
        st_c = self.strands[sid_c]
        st_t = self.strands[sid_t]
        L = len(st_t.pts)
        events = geo.pair_events(sid_c, sid_t)
        if not events or L == 0:
            return self.extract_solo(sid_c)

        # angular position of each crossing along t, in edge units
        theta = {}
        by_chord_t = {}
        for cr in events:
            by_chord_t.setdefault(cr.param_of(sid_t)[0], []).append(cr)
        for jt, lst in by_chord_t.items():
            lst.sort(key=lambda cr: cr.param_of(sid_t)[1:])
            for r, cr in enumerate(lst):
                theta[cr.id] = Fraction(jt) + Fraction(r + 1, len(lst) + 1)

        def entry_h(cr):
            # +1 when c approaches from the left of t's direction
            return 1 if cr.sign_for(sid_c) > 0 else -1

        lap_visits = {}
        for cr in events:
            th = theta[cr.id]
            visits = []
            for i_t in range(L):
                if handedness > 0:
                    frac = (Fraction(i_t) - th) % L
                else:
                    frac = (th - Fraction(i_t)) % L
                h = 2 * frac / L - 1
                visits.append((i_t, h))
            visits.sort(key=lambda x: x[1], reverse=(entry_h(cr) > 0))
            lap_visits[cr.id] = visits

        # per-edge layout: c's own points in place, lap stacks where t crossed
        own_c = set(st_c.pts)
        pos_t = {}
        for i_t in range(L):
            pos_t.setdefault(self.pt_edge[st_t.pts[i_t]], []).append(i_t)

        layout = {}
        for e in sorted(self.edge_pts):
            items = []
            for p in self.edge_pts[e]:
                if p in own_c:
                    items.append(("old", p))
                elif p in st_t.pts and self.pt_edge[p] == e:
                    i_t = st_t.pts.index(p)
                    stack = []
                    for cr in events:
                        for (it2, h) in lap_visits[cr.id]:
                            if it2 == i_t:
                                stack.append((h, cr.id, it2))
                    if not stack:
                        continue
                    # orient the stack along the edge: does +front go left of t?
                    tri_out = st_t.tris[i_t]
                    chord = None
                    for ch in geo.chords[sid_t]:
                        if ch.idx == i_t:
                            chord = ch
                            break
                    d_out = chord.direction_at(0)
                    s = self.side_of_point_in_tri(p, tri_out)
                    a, b = CORNERS[s], CORNERS[(s + 1) % 3]
                    dloc = (b[0] - a[0], b[1] - a[1])
                    if not self.surface.side_local_direction_is_front(tri_out, s):
                        dloc = (-dloc[0], -dloc[1])
                    cprod = _vcross(d_out, dloc)
                    if cprod == 0:
                        raise _Degenerate("t tangent to edge")
                    forward_is_left = cprod > 0
                    stack.sort(key=lambda x: x[0], reverse=not forward_is_left)
                    items.extend(("lap", cid, it2) for (_, cid, it2) in stack)
            layout[e] = items

        out = Drawing(self.surface)
        mapping = {}
        for e in sorted(layout):
            for item in layout[e]:
                pid = out.new_point(e, len(out.edge_pts[e]))
                if item[0] == "old":
                    mapping[("old", item[1])] = pid
                else:
                    mapping[("lap", item[1], item[2])] = pid

        # assemble traversal
        ev_by_chord_c = {}
        for cr in events:
            ev_by_chord_c.setdefault(cr.param_of(sid_c)[0], []).append(cr)
        for lst in ev_by_chord_c.values():
            lst.sort(key=lambda cr: cr.param_of(sid_c)[1:])

        pts, tris = [], []
        n = len(st_c.pts)
        for i in range(n):
            pts.append(mapping[("old", st_c.pts[i])])
            tri_here = st_c.tris[i]
            for cr in ev_by_chord_c.get(i, []):
                tris.append(tri_here)   # from previous point into the lap
                visits = lap_visits[cr.id]
                lap_forward = (handedness > 0) == (entry_h(cr) < 0)
                for num, (i_t, h) in enumerate(visits):
                    pts.append(mapping[("lap", cr.id, i_t)])
                    if num < len(visits) - 1:
                        nxt = visits[num + 1][0]
                        if lap_forward:
                            if nxt != (i_t + 1) % L:
                                raise InternalInvariantError("lap skipped a point")
                            tris.append(st_t.tris[i_t])
                        else:
                            if nxt != (i_t - 1) % L:
                                raise InternalInvariantError("lap skipped a point")
                            tris.append(st_t.tris[nxt])
            tris.append(tri_here)   # towards the next old point
        out.add_strand(pts, tris, role=st_c.role)
        out.validate_embedded()
        return out


def overlay(drawings_roles):
    """Merge solo drawings, stacking per-edge blocks in the given order."""
    if not drawings_roles:
        raise InternalInvariantError("overlay of no drawings")
    surface = drawings_roles[0][0].surface
    out = Drawing(surface)
    sids = []
    for d, role in drawings_roles:
        sids.extend(out.insert_copy(d, role=role))
    return out, sids


def assemble_path_strand(drawing, segments, role=None):
    """Solo drawing of a closed curve glued from strand sub-arcs.

    `segments` is a cyclic list of (sid, cr_from, cr_to, direction): the
    sub-arc of that strand between the two crossings, traversed forward
    (+1) or backward (-1).  Consecutive segments must share their junction
    crossing; corners are smoothed by connecting the flanking edge points
    directly inside the junction's triangle.  Each original point may be
    used at most once.
    """
    tokens = []   # (original pid, triangle after it)
    for (sid, cr_from, cr_to, direction) in segments:
        st = drawing.strands[sid]
        if direction == 1:
            interior = drawing.arc_interior(sid, cr_from, cr_to)
            junction_tri = cr_to.tri
        else:
            interior = list(reversed(drawing.arc_interior(sid, cr_to, cr_from)))
            junction_tri = cr_to.tri
        for num, j in enumerate(interior):
            if num < len(interior) - 1:
                j2 = interior[num + 1]
                if direction == 1:
                    tri = st.tris[j]
                else:
                    tri = st.tris[j2]
            else:
                tri = junction_tri
            tokens.append((st.pts[j], tri))
    if not tokens:
        raise InternalInvariantError("assembled curve crosses no edges")
    used = [p for p, _ in tokens]
    if len(set(used)) != len(used):
        raise InternalInvariantError("assembly reuses a point")

    out = Drawing(drawing.surface)
    own = set(used)
    mapping = {}
    for e in sorted(drawing.edge_pts):
        k = 0
        for p in drawing.edge_pts[e]:
            if p in own:
                mapping[p] = out.new_point(e, k)
                k += 1
    out.add_strand([mapping[p] for p, _ in tokens],
                   [t for _, t in tokens], role=role)
    out.validate_embedded()
    return out
