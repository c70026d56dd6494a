"""Drawn multicurves on a triangulated surface.

The single source of truth for a drawing is combinatorial: each closed
strand is a cyclic sequence of edge-crossing points together with the
triangle traversed between consecutive crossings, and each edge carries
the order of the points along it.  All geometry (chords inside triangles,
crossings, signs, the order of crossings along strands) is derived on
demand from that data.  Re-deriving instead of storing geometry keeps
every mutation (bigon moves, twisting, turnback removal) a pure list
operation.

One geometry is kept across mutations: that of the strand pair whose
bigons are being removed (`pair_geometry`).  A bigon move only cancels
its two corner crossings and moves the mover's other crossings to its
new chords, so the moves are carried into the kept geometry in place,
a batch at a time, and bigon removal derives the pair once, not once
per pass or per move.  The kept geometry stays valid while neither
strand's `pts` and `tris` lists are replaced otherwise; a third
strand's moves leave it in use.  Every edit replaces those lists, and
none changes them in place.  Once the bigons are gone the kept pair is
checked against one full rebuild (`check_pair_geometry`).  Each
strand's dart table, from which glued walks are sliced (`arc_darts`),
is kept on the same condition.

Geometry is derived only where two strands can cross.  A single strand
is checked on the combinatorial data alone: it is embedded iff in every
triangle the endpoints of its chords nest around the boundary
(`validate_embedded`).  Curves reduce a strand's turnbacks as the
backtracks of its dual path; `reduce_turnbacks`, quadratic, is the
tests' oracle.

Inside a triangle the boundary points sit in convex position: the point
of counterclockwise boundary rank k is at (k, k^2).  Every chord, one
that returns to its entry side included, is then the straight segment
between its endpoints, on the line y = (a + b)x - ab for ranks a and b.
Two chords cross iff their endpoints interleave around the boundary.
The crossing of {a, b} with {c, d} lies at the exact
X = (ab - cd) / ((a + b) - (c + d)), and its sign, that of the cross
product of the chords' directions, is the sign of
(b - a)(d - c)((c + d) - (a + b)).  Along a chord crossings are ordered
by X, or by -X when the chord runs from the larger rank.  So every
orientation question is a rule on boundary order and crossing signs, in
integers.

Exact ties need three chords through one point.  They are broken by
simulation of simplicity (Edelsbrunner-Muecke, ACM TOG 1990): chord r of
the triangle's chord list, in (strand, index) order, has its intercept
raised by eps_r, with eps_0 >> eps_1 >> ...  Two chords of one strand
never meet, so drawings of two strands never tie.
"""

from __future__ import annotations

from array import array
from bisect import bisect_left
from functools import cmp_to_key
from itertools import groupby
from operator import itemgetter

from .errors import InternalInvariantError, MatchingViolation
from . import words as W


_KEY = itemgetter(0)
_FIRST_THREE = itemgetter(0, 1, 2)


def _order_on_chord(ch, hits):
    """Sort the hits (key, crossing, on_b) of chord `ch` along it.

    key is the float of the hit's exact position +-num/den.  Correctly
    rounded division is monotone, so sorting by key is exact unless two
    keys tie; a run of equal keys is re-sorted exactly.

    Hits at one exact position are ordered by the perturbation: raising
    the intercept of chord r by eps_r moves the hit of chord j on chord
    i = ch = {a, b} by (eps_j - eps_i) / (s_i - s_j) in x, where s is the
    sum of a chord's ranks, so by that times the sign of b - a along ch.
    Of the three chords involved the one first in (strand, index) order
    decides; its coefficient is never zero, as two chords through one
    point of ch have different slopes.
    """
    hits.sort(key=_KEY)
    if len(set(map(_KEY, hits))) == len(hits):
        return
    me, s, sign = (ch.sid, ch.idx), ch.ra + ch.rb, 1 if ch.ra < ch.rb else -1

    def cmp(h, g):
        c = h[1].num * g[1].den - g[1].num * h[1].den
        if c == 0:
            cj = h[1].chord_a if h[2] else h[1].chord_b
            ck = g[1].chord_a if g[2] else g[1].chord_b
            dj, dk = s - cj.ra - cj.rb, s - ck.ra - ck.rb
            first = min(me, (cj.sid, cj.idx), (ck.sid, ck.idx))
            if first == me:
                c = (dj - dk) * dj * dk
            elif first == (cj.sid, cj.idx):
                c = dj
            else:
                c = -dk
        return c * sign
    out = []
    for _, run in groupby(hits, _KEY):
        run = list(run)
        if len(run) > 1:
            run.sort(key=cmp_to_key(cmp))
        out.extend(run)
    hits[:] = out


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


def _cross_chords(tri, lst, crossings):
    """Cross the chords of one triangle.

    `lst` holds (chord, hits) pairs in (strand, index) order, every
    chord's boundary ranks set.  Each crossing goes to `crossings` and, as
    a hit (key, crossing, on_b), to the hits of both its chords.
    """
    ends = {}
    for i, (ch, _) in enumerate(lst):
        ends[ch.ra] = ends[ch.rb] = i
    for i, j in _interleaved_pairs([ends[r] for r in sorted(ends)],
                                   len(lst)):
        (ca, hl_a), (cb, hl_b) = lst[i], lst[j]
        if ca.sid == cb.sid:
            raise InternalInvariantError("strand %d crosses itself" % ca.sid)
        a, b, c, d = ca.ra, ca.rb, cb.ra, cb.rb
        num, den = a * b - c * d, a + b - c - d   # den != 0: they interleave
        sign = -1 if (b - a) * (d - c) * den > 0 else 1
        if den < 0:
            num, den = -num, -den
        x = num / den
        cr = Crossing(len(crossings), tri, ca, cb, num, den, sign)
        crossings.append(cr)
        hl_a.append((x if a < b else -x, cr, False))
        hl_b.append((x if c < d else -x, cr, True))


def _place_on_chords(events, sid, chords):
    """Give each crossing of `events`, in order, its place along strand sid.

    The place is (chord, rank): `chords` holds each crossing's chord on
    sid, and the rank counts the crossings before it on that chord.
    """
    prev, rank = None, 0
    for cr, j in zip(events, chords):
        rank = rank + 1 if j == prev else 0
        prev = j
        if cr.sid_a == sid:
            cr.par_a = (j, rank)
        else:
            cr.par_b = (j, rank)


def _stored_places(events, sid):
    return {cr: cr.param_of(sid) for cr in events}


def _pair_places(events, sid):
    """Each crossing's chord on sid and its rank among `events` there.

    Worked out apart from `_place_on_chords`, so that the end check sees
    a patch that ranks wrongly.
    """
    out, prev, rank = {}, None, 0
    for cr in events:
        j = cr.param_of(sid)[0]
        rank = rank + 1 if j == prev else 0
        prev = j
        out[cr] = (j, rank)
    return out


def _event_rows(geo, sx, sy, places):
    """(place on sx, place on sy, sign, triangle) of each crossing of sx
    with sy, in sx's order and in sy's order."""
    ev_x, ev_y = geo.pair_events(sx, sy), geo.pair_events(sy, sx)
    px, py = places(ev_x, sx), places(ev_y, sy)

    def row(cr):
        return px[cr], py[cr], cr.sign_for(sx), cr.tri
    return [row(cr) for cr in ev_x], [row(cr) for cr in ev_y]


class Strand:
    __slots__ = ("pts", "tris")

    def __init__(self, pts, tris):
        self.pts = list(pts)
        self.tris = list(tris)

    def __len__(self):
        return len(self.pts)


class Chord:
    __slots__ = ("sid", "idx", "tri", "pa", "pb", "ra", "rb")

    def __init__(self, sid, idx, tri, pa, pb):
        self.sid = sid
        self.idx = idx
        self.tri = tri
        self.pa = pa
        self.pb = pb
        self.ra = self.rb = None   # boundary ranks of pa and pb in tri


class Crossing:
    __slots__ = ("id", "tri", "sid_a", "chord_a", "par_a", "sid_b",
                 "chord_b", "par_b", "sign", "num", "den")

    def __init__(self, cid, tri, chord_a, chord_b, num, den, sign):
        self.id = cid
        self.tri = tri
        self.sid_a = chord_a.sid
        self.chord_a = chord_a
        self.par_a = None        # (chord idx, rank) along strand a
        self.sid_b = chord_b.sid
        self.chord_b = chord_b
        self.par_b = None
        self.sign = sign         # sign of cross(dir_a, dir_b)
        self.num = num           # at x = num/den, den > 0
        self.den = den

    def param_of(self, sid):
        if sid == self.sid_a:
            return self.par_a
        if sid == self.sid_b:
            return self.par_b
        raise KeyError(sid)

    def sign_for(self, sid_first):
        return self.sign if sid_first == self.sid_a else -self.sign


class Geometry:
    def __init__(self, chords, crossings, events, pairs):
        # a pair geometry that a bigon move patched keeps neither
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


class _KeptPair:
    """A strand pair's geometry and the bigon moves not yet carried in."""
    __slots__ = ("stamp", "geo", "corners", "moved")

    def __init__(self, stamp, geo):
        self.stamp = stamp     # the two strands' pts and tris lists
        self.geo = geo
        self.corners = set()   # crossings the moves cancelled
        self.moved = {}        # sid -> its pts before the first move


class Drawing:
    def __init__(self, surface):
        self.surface = surface
        self.pt_edge = {}
        self.edge_pts = {e.id: [] for e in surface.edges}
        self.strands = {}
        self._next_pid = 0
        self._next_sid = 0
        self._geo = None   # geometry() until the next edit
        # (sx, sy) -> _KeptPair: valid while the two strands' pts and
        # tris are those very lists
        self._pair_geo = {}
        # sid -> (pts, tris, `_dart_table`): valid while the strand's pts
        # and tris are those very lists
        self._darts = {}

    # -- low level ---------------------------------------------------------

    def clone(self):
        d = Drawing(self.surface)
        d.pt_edge = dict(self.pt_edge)
        d.edge_pts = {e: list(v) for e, v in self.edge_pts.items()}
        d.strands = {sid: Strand(s.pts, s.tris)
                     for sid, s in self.strands.items()}
        d._next_pid = self._next_pid
        d._next_sid = self._next_sid
        return d

    def content(self):
        """The drawing's full state, packed into bytes.

        It holds the next point and strand ids, every edge's points in
        order, and every strand's points and triangles.  Two drawings of
        one surface with equal contents are equal, ids included, so every
        edit and question gives them equal answers.
        """
        flat = array("i", (self._next_pid, self._next_sid))
        for pts in self.edge_pts.values():
            flat.append(len(pts))
            flat.extend(pts)
        for sid, st in self.strands.items():
            flat.extend((sid, len(st.pts)))
            flat.extend(st.pts)
            flat.extend(st.tris)
        return flat.tobytes()

    def _bump(self):
        self._geo = None

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

    def add_strand(self, pts, tris):
        if len(pts) != len(tris):
            raise InternalInvariantError("strand arity mismatch")
        sid = self._next_sid
        self._next_sid += 1
        self.strands[sid] = Strand(pts, tris)
        self._bump()
        return sid

    def drop_strand(self, sid):
        st = self.strands.pop(sid)
        for p in st.pts:
            self.drop_point(p)
        self._bump()

    def pos(self, pid):
        """The rank of a point along its edge."""
        return self.edge_pts[self.pt_edge[pid]].index(pid)

    # -- derived geometry ----------------------------------------------------

    def side_of_point_in_tri(self, pid, tri):
        e = self.pt_edge[pid]
        try:
            return self.surface.tri_edges_table[tri].index(e)
        except ValueError:
            raise InternalInvariantError(
                "point %d not on triangle %d" % (pid, tri))

    def _front_is_left(self, q, tri_out):
        """Whether the front of q's edge lies left of a strand leaving q
        into tri_out.

        tri_out lies left of its counterclockwise side through q, so the
        strand points left of that side's direction, and the side's
        direction right of the strand.
        """
        s = self.side_of_point_in_tri(q, tri_out)
        return not self.surface.side_local_direction_is_front(tri_out, s)

    def geometry(self) -> Geometry:
        if self._geo is None:
            self._geo = self._derive(sorted(self.strands))
        return self._geo

    def _derive(self, sids):
        """The geometry of the given strands, in increasing sid order."""
        chords, hits, by_tri = {}, {}, {}
        for sid in sids:
            st = self.strands[sid]
            pts, n = st.pts, len(st.pts)
            chs = chords[sid] = [Chord(sid, i, tri, pts[i], pts[(i + 1) % n])
                                 for i, tri in enumerate(st.tris)]
            hl = hits[sid] = [[] for _ in chs]
            for ch, h in zip(chs, hl):
                by_tri.setdefault(ch.tri, []).append((ch, h))
        crossings = []
        for tri in sorted(by_tri):
            lst = by_tri[tri]
            rank_of = {p: k for k, p in enumerate(self._boundary_order(tri))}
            for ch, _ in lst:
                ch.ra, ch.rb = rank_of[ch.pa], rank_of[ch.pb]
            if len(lst) > 1:
                _cross_chords(tri, lst, crossings)
        events, pairs = {}, {}
        for sid in chords:
            ev = events[sid] = []
            for ch, hl in zip(chords[sid], hits[sid]):
                if not hl:
                    continue
                if len(hl) > 1:
                    _order_on_chord(ch, hl)
                for rank, (_, cr, on_b) in enumerate(hl):
                    if on_b:
                        cr.par_b = (ch.idx, rank)
                        other = cr.sid_a
                    else:
                        cr.par_a = (ch.idx, rank)
                        other = cr.sid_b
                    ev.append(cr)
                    pairs.setdefault((sid, other), []).append(cr)
        return Geometry(chords, crossings, events, pairs)

    # -- the kept geometry of a strand pair ------------------------------------

    def _pair_stamp(self, sx, sy):
        sx, sy = sorted((sx, sy))
        st_x, st_y = self.strands[sx], self.strands[sy]
        return (sx, sy), (st_x.pts, st_x.tris, st_y.pts, st_y.tris)

    def _kept_pair(self, sx, sy):
        """The `_KeptPair` of strands sx and sy while it is valid, else None.

        It is valid while neither strand's `pts` and `tris` are replaced
        but by the bigon moves it records; no code edits them in place.
        """
        key, stamp = self._pair_stamp(sx, sy)
        kept = self._pair_geo.get(key)
        if kept is None or any(a is not b for a, b in zip(kept.stamp, stamp)):
            return None
        return kept

    def _keep_pair(self, sx, sy, geo):
        key, stamp = self._pair_stamp(sx, sy)
        self._pair_geo[key] = _KeptPair(stamp, geo)

    def pair_geometry(self, sx, sy) -> Geometry:
        """The crossings of strands sx and sy alone (do not mutate).

        When the two strands are the whole drawing this is `geometry()`.
        Bigon moves between the two are carried into it (`_patch_pair`),
        so it is derived again only when either strand changes otherwise.
        A crossing's rank on its chord counts the pair's crossings alone,
        and once moves are carried into it only its events and pairs are
        kept.
        """
        kept = self._kept_pair(sx, sy)
        if kept is None:
            if len(self.strands) == 2:
                geo = self.geometry()
            else:
                geo = self._derive(sorted((sx, sy)))
            self._keep_pair(sx, sy, geo)
            return geo
        if kept.corners:
            self._patch_pair(kept, sx, sy)
        return kept.geo

    def check_pair_geometry(self, sx, sy):
        """Raise unless the kept pair geometry is what a rebuild gives.

        Every crossing of sx with sy, listed as (place on sx, place on sy,
        sign, triangle) in sx's order and in sy's order, must be the same
        in the kept geometry and in a full `geometry()`.  A place is the
        chord and the rank among the pair's crossings on that chord.
        """
        kept, full = self.pair_geometry(sx, sy), self.geometry()
        if kept is full:
            return
        if (_event_rows(kept, sx, sy, _stored_places)
                != _event_rows(full, sx, sy, _pair_places)):
            raise InternalInvariantError(
                "kept crossings of strands %d and %d differ from a rebuild"
                % (sx, sy))
        if len(self.strands) == 2:
            self._keep_pair(sx, sy, full)

    def _boundary_order(self, tri):
        """Points around the triangle boundary, counterclockwise."""
        out = []
        for s in range(3):
            pts = self.edge_pts[self.surface.side_edge[(tri, s)]]
            front = self.surface.side_local_direction_is_front(tri, s)
            out.extend(pts if front else reversed(pts))
        return out

    # -- words ----------------------------------------------------------------

    def crossing_passage(self, sid, i):
        """(tri_exited, side) for strand sid passing through its i-th point."""
        st = self.strands[sid]
        n = len(st.pts)
        tri_prev = st.tris[(i - 1) % n]
        s = self.side_of_point_in_tri(st.pts[i], tri_prev)
        return tri_prev, s

    def passages(self, sid):
        """(tri, in_side, out_side) of each chord of strand sid, in order."""
        st = self.strands[sid]
        pts, n = st.pts, len(st.pts)
        side = self.side_of_point_in_tri
        return tuple((tri, side(pts[i], tri), side(pts[(i + 1) % n], tri))
                     for i, tri in enumerate(st.tris))

    def word_of(self, sid):
        return self.arc_word(sid, range(len(self.strands[sid].pts)))

    def arc_word(self, sid, indices):
        """Letters of the passages through the strand's points at indices."""
        out = []
        for i in indices:
            tri, s = self.crossing_passage(sid, i)
            letter = self.surface.crossing_letter(tri, s)
            if letter:
                out.append(letter)
        return out

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
    def from_normal_coords(cls, surface, weights):
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
                    d.add_strand(pts, tris)
        return d

    @classmethod
    def from_path(cls, surface, path):
        """Drawing of the curve with the given reduced cyclic dual path.

        A normal curve is fixed by its edge weights, so the tracer draws
        it; its one strand is then turned to run along the path, starting
        at the path's first passage.
        """
        path = tuple(path)
        d = cls.from_normal_coords(surface, path_weights(surface, path))
        if len(d.strands) != 1:
            raise InternalInvariantError(
                "dual path traces %d strands" % len(d.strands))
        st = d.strands[0]
        for _ in range(2):
            passages = d.passages(0)
            starts = [k for k, step in enumerate(passages) if step == path[0]
                      and passages[k:] + passages[:k] == path]
            if starts:
                break
            st.pts, st.tris = st.pts[:1] + st.pts[:0:-1], st.tris[::-1]
        if len(starts) != 1:
            raise InternalInvariantError(
                "strand runs along its dual path from %d starts" % len(starts))
        k = starts[0]
        st.pts, st.tris = st.pts[k:] + st.pts[:k], st.tris[k:] + st.tris[:k]
        d._bump()
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
        embeddedness up front covers every removal.  The points left are
        numbered 0, 1, ... in edge order again, as `sub_drawing` numbers
        them.
        """
        if list(self.strands) != [sid]:
            raise InternalInvariantError(
                "turnback reduction needs a drawing of strand %d alone" % sid)
        self.validate_embedded()
        removed = 0
        idx = self.find_turnback(sid)
        while idx is not None:
            self.remove_turnback(sid, idx)
            removed += 1
            idx = self.find_turnback(sid) if sid in self.strands else None
        if removed:
            order = [(e, p) for e in sorted(self.edge_pts)
                     for p in self.edge_pts[e]]
            new = {p: k for k, (_, p) in enumerate(order)}
            self.pt_edge = {k: e for k, (e, _) in enumerate(order)}
            self.edge_pts = {e: [new[p] for p in pts]
                             for e, pts in self.edge_pts.items()}
            for st in self.strands.values():
                st.pts = [new[p] for p in st.pts]
            self._next_pid = len(order)
            self._bump()
        return removed

    # -- extraction and copies ----------------------------------------------------

    def sub_drawing(self, strands):
        """New drawing of the given strands, drawn on points of this one.

        Each of `strands` has the `pts` and `tris` of a `Strand`;
        its points are points of this drawing, each used at most once.
        Every edge keeps the order of its points, and the new strands get
        ids 0, 1, ... in the order given.
        """
        out = Drawing(self.surface)
        own = {p for st in strands for p in st.pts}
        mapping = {}
        for e in sorted(self.edge_pts):
            for p in self.edge_pts[e]:
                if p in own:
                    mapping[p] = out.new_point(e, len(out.edge_pts[e]))
        for st in strands:
            out.add_strand([mapping[p] for p in st.pts], st.tris)
        return out

    def insert_copy(self, other):
        mapping = {}
        for e in sorted(other.edge_pts):
            for p in other.edge_pts[e]:
                mapping[p] = self.new_point(e, len(self.edge_pts[e]))
        new_sids = []
        for sid in sorted(other.strands):
            st = other.strands[sid]
            new_sids.append(self.add_strand(
                [mapping[p] for p in st.pts], list(st.tris)))
        return new_sids

    def add_parallel_strand(self, sid):
        """Disjoint copy, offset to the left of the strand's direction."""
        st = self.strands[sid]
        mapping = {}
        for p, tri_out in zip(st.pts, st.tris):
            idx = self._edge_insert_index(p, tri_out, 1)
            mapping[p] = self.new_point(self.pt_edge[p], idx)
        return self.add_strand([mapping[p] for p in st.pts], list(st.tris))

    # -- arcs between crossings ---------------------------------------------------

    def _arc_span(self, sid, cr_from, cr_to):
        """(i, count): the forward arc cr_from -> cr_to holds the count
        points after point i of strand sid.

        The arc is the one containing no other crossings of this pair; when
        both crossings sit on the same chord the parameters decide whether
        the arc is the short in-chord piece or wraps the whole strand.
        """
        n = len(self.strands[sid].pts)
        p_from, p_to = cr_from.param_of(sid), cr_to.param_of(sid)
        i1 = p_from[0]
        return i1, (p_to[0] - i1) % n or (0 if p_from < p_to else n)

    def arc_interior(self, sid, cr_from, cr_to):
        """Point indices strictly inside the forward arc cr_from -> cr_to."""
        i1, count = self._arc_span(sid, cr_from, cr_to)
        n = len(self.strands[sid].pts)
        return [(i1 + 1 + k) % n for k in range(count)]

    def _dart_table(self, sid):
        """Strand sid's points, forward darts and backward darts, each list
        repeated twice so that every arc is one slice.

        The forward dart of point k is the (triangle, side) by which the
        strand, past point k, leaves tris[k]: through point k + 1.  The
        backward dart is the one by which the strand, run back past point
        k, leaves tris[k - 1]: through point k - 1.  A table is kept while
        the strand's `pts` and `tris` are the very lists it was made from,
        as a kept pair geometry is.
        """
        st = self.strands[sid]
        kept = self._darts.get(sid)
        if kept is not None and kept[0] is st.pts and kept[1] is st.tris:
            return kept[2]
        pts, tris, n = st.pts, st.tris, len(st.pts)
        side = self.side_of_point_in_tri
        fwd = [(tri, side(pts[(k + 1) % n], tri)) for k, tri in enumerate(tris)]
        bwd = [(tris[k - 1], side(pts[k - 1], tris[k - 1])) for k in range(n)]
        table = (pts + pts, fwd + fwd, bwd + bwd)
        self._darts[sid] = (pts, tris, table)
        return table

    def arc_darts(self, sid, cr_from, cr_to, direction):
        """The points strictly inside an arc of strand sid from cr_from to
        cr_to, in the order the arc runs, and the dart by which it leaves
        each of them but the last.

        The arc runs forward along the strand if `direction` is 1 and back
        if it is -1; either way it is the one with no other crossing of the
        pair.  Both lists are slices of the strand's dart table.
        """
        pts, fwd, bwd = self._dart_table(sid)
        if direction == 1:
            i1, count = self._arc_span(sid, cr_from, cr_to)
            return pts[i1 + 1:i1 + 1 + count], fwd[i1 + 1:i1 + count]
        i1, count = self._arc_span(sid, cr_to, cr_from)
        return pts[i1 + count:i1:-1], bwd[i1 + count:i1 + 1:-1]

    # -- bigon detection and removal ------------------------------------------------

    def find_bigon(self, sid_x, sid_y):
        moves = self.find_bigon_moves(sid_x, sid_y, first_only=True)
        return moves[0] if moves else None

    def find_bigon_moves(self, sid_x, sid_y, first_only=False):
        """Removable bigons between two strands.

        Two crossings consecutive along both strands bound a bigon iff the
        loop of their two arcs is nullhomotopic (Farb-Margalit, Primer,
        Prop. 1.7); the disk is then free of both strands, so the move
        cancels exactly this crossing pair.  The exact word test decides
        every candidate, and a candidate's arcs and words are built only
        for crossings consecutive along both strands.

        A move is (sid_x, sid_y, v1, v2, dy, int_x, int_y): the corners in
        x's order, and the point indices inside x's arc v1 -> v2 and inside
        y's forward arc between them, v1 -> v2 for dy = 1 and v2 -> v1
        for dy = -1.
        """
        geo = self.pair_geometry(sid_x, sid_y)
        ev_x = geo.pair_events(sid_x, sid_y)
        if len(ev_x) < 2:
            return []
        ev_y = geo.pair_events(sid_y, sid_x)
        n = len(ev_x)
        pos_y = {c.id: k for k, c in enumerate(ev_y)}
        relators, abelian_rank = self.surface.presentation()
        out = []
        for k in range(n):
            v1, v2 = ev_x[k], ev_x[(k + 1) % n]
            ky1, ky2 = pos_y[v1.id], pos_y[v2.id]
            # y's arc runs v1 -> v2 (dy = 1) or v2 -> v1 (dy = -1)
            arcs_y = []
            if (ky1 + 1) % n == ky2:
                arcs_y.append((1, v1, v2))
            if (ky2 + 1) % n == ky1:
                arcs_y.append((-1, v2, v1))
            if not arcs_y:
                continue
            int_x = self.arc_interior(sid_x, v1, v2)
            wx = self.arc_word(sid_x, int_x)
            for dy, c1, c2 in arcs_y:
                int_y = self.arc_interior(sid_y, c1, c2)
                wy = self.arc_word(sid_y, int_y)
                # the loop runs x from v1 to v2, then y back to v1
                loop = wx + (W.invert_word(wy) if dy == 1 else wy)
                if W.is_trivial(loop, relators, abelian_rank):
                    out.append((len(int_x) + len(int_y),
                                (sid_x, sid_y, v1, v2, dy, int_x, int_y)))
                    if first_only:
                        return [out[0][1]]
                    break
        # small disks first: they conflict least, so batches grow larger
        out.sort(key=lambda t: t[0])
        return [m for _, m in out]

    def _edge_insert_index(self, q, tri_out, side_sign):
        """Slot adjacent to q on the prescribed side of a strand through q.

        The strand leaves q into tri_out; side_sign +1 selects its left.
        """
        k = self.pos(q)
        want_forward = (side_sign > 0) == self._front_is_left(q, tri_out)
        return k + 1 if want_forward else k

    def plan_bigon_move(self, move):
        """Read-only phase of a bigon move, taken from the pair geometry.

        Normalizes the move so the strand with the longer arc moves; all
        references in the plan are point ids, so several plans with
        disjoint supports can be committed from one snapshot.  The two
        arcs are those the search built for its word test.
        """
        sid_x, sid_y, v1, v2, dy, int_x, int_y = move
        if len(int_y) > len(int_x) \
                and len(int_x) != len(self.strands[sid_x].pts):
            mover, stay, interior_m, interior_s = sid_y, sid_x, int_y, int_x
            va, vb = (v1, v2) if dy == 1 else (v2, v1)
        else:
            mover, stay, interior_m, interior_s = sid_x, sid_y, int_x, int_y
            va, vb = v1, v2
        if dy == -1:
            # both arcs run va -> vb: the mover's forward, the stay's back
            interior_s = interior_s[::-1]

        st_m = self.strands[mover]
        st_s = self.strands[stay]
        n_m, n_s = len(st_m.pts), len(st_s.pts)
        full_m = len(interior_m) == n_m

        # far side of the stay-arc, away from the moving arc's departure;
        # dy times the sign, stay first, is the sign of the cross product
        # of the stay-arc's and the mover's directions at va
        far = -1 if dy * va.sign_for(stay) > 0 else 1
        # (point, triangle the stay-arc leaves it into)
        new_specs = [(st_s.pts[j], st_s.tris[j] if dy == 1
                      else st_s.tris[(j - 1) % n_s]) for j in interior_s]

        i1 = va.param_of(mover)[0]
        i2 = vb.param_of(mover)[0]
        return {
            "mover": mover,
            "stay": stay,
            "corners": (va, vb),
            "deleted_pids": [st_m.pts[j] for j in interior_m],
            "keep_pid": None if full_m else st_m.pts[i1],
            "resume_pid": None if full_m else st_m.pts[(i2 + 1) % n_m],
            "new_specs": new_specs,
            "tri_start": va.tri,
            "tri_end": vb.tri,
            "far": far,
        }

    def commit_bigon_plan(self, plan):
        """Reroute the mover across the bigon.

        A valid kept geometry of the (mover, stay) pair records the move,
        to be carried into it when it is next read, unless the whole
        strand moves.
        """
        mover, stay = plan["mover"], plan["stay"]
        st_m = self.strands[mover]
        kept = self._kept_pair(mover, stay)
        old_pts = st_m.pts
        new_pts = []
        for (q, tri_out) in plan["new_specs"]:
            idx = self._edge_insert_index(q, tri_out, plan["far"])
            new_pts.append(self.new_point(self.pt_edge[q], idx))
        tri_start, tri_end = plan["tri_start"], plan["tri_end"]
        # the corridor's chords run where the stay-arc's did
        conn_tris = [t for _, t in plan["new_specs"][:-1]]
        if plan["keep_pid"] is None:
            if not new_pts:
                raise InternalInvariantError(
                    "bigon move would erase an essential strand")
            # the whole strand rides into the corridor; the closing chord
            # (last corridor point back to the first) runs where the old
            # chord of the mover crossed, i.e. the corner triangle
            seq_pts = new_pts
            seq_tris = conn_tris + [tri_start]
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
                seq_tris = (kept_tris[:-1] + [tri_start] + conn_tris
                            + [tri_end])
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
        if kept is not None and plan["keep_pid"] is not None:
            kept.corners.update(plan["corners"])
            kept.moved.setdefault(mover, old_pts)
            kept.stamp = self._pair_stamp(mover, stay)[1]

    def _patch_pair(self, kept, sx, sy):
        """Carry the kept geometry across the partial bigon moves since.

        The moves' corner crossings go; the others keep their signs and
        triangles.  A strand that did not move keeps its chords.  On one
        that did, a crossing goes to the new chord that starts at its old
        chord's start point.  Where that point is gone, the crossing lay
        after a second corner, and it goes to the chord that enters that
        move's resume point, after any crossings the chord's own start
        point brought.  Each strand's crossings are ordered by (new chord,
        old rank) and ranked again.  The moves of one batch touch disjoint
        points, so they are carried at once.
        """
        geo = kept.geo
        for sid, other in ((sx, sy), (sy, sx)):
            ev = [cr for cr in geo.pair_events(sid, other)
                  if cr not in kept.corners]
            old = kept.moved.get(sid)
            if old is None:
                chords = [cr.param_of(sid)[0] for cr in ev]
            else:
                new = self.strands[sid].pts
                at = {p: i for i, p in enumerate(new)}
                keyed = []
                for cr in ev:
                    j, rank = cr.param_of(sid)
                    i = at.get(old[j])
                    if i is None:
                        i = (at[old[(j + 1) % len(old)]] - 1) % len(new)
                        keyed.append((i, 1, rank, cr))
                    else:
                        keyed.append((i, 0, rank, cr))
                keyed.sort(key=_FIRST_THREE)
                ev = [cr for _, _, _, cr in keyed]
                chords = [i for i, _, _, _ in keyed]
            _place_on_chords(ev, sid, chords)
            geo.pairs[(sid, other)] = geo.events[sid] = ev
        geo.chords = geo.crossings = None
        kept.corners, kept.moved = set(), {}

    def apply_bigon_move(self, move):
        """Isotope one strand across the bigon; the pair count drops by two."""
        self.commit_bigon_plan(self.plan_bigon_move(move))

    def _compatible_plans(self, moves):
        """Plans for a greedy subset of moves whose edits cannot interfere."""
        used_crossings = set()
        deleted, anchors, boundary = set(), set(), set()
        plans = []
        for move in moves:
            v1, v2 = move[2], move[3]
            if {v1.id, v2.id} & used_crossings:
                continue
            plan = self.plan_bigon_move(move)
            p_del = set(plan["deleted_pids"])
            p_anchor = {q for q, _ in plan["new_specs"]}
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

    def remove_bigons_between(self, sid_x, sid_y):
        """Remove every bigon between two strands; returns the moves made.

        Each pass commits a batch of compatible moves found on one pair
        geometry (a single move is a batch of one), and the moves patch
        it.  The pair count must fall by two per move: a patch drops the
        two corners, and a whole-strand move has the pair derived again,
        so the count falls every pass and the loop ends.  Once a move is
        made, the kept pair geometry is checked against one full rebuild.
        """
        moves = 0
        while True:
            found = self.find_bigon_moves(sid_x, sid_y)
            if not found:
                break
            before = self.pair_geometry(sid_x, sid_y).count_pair(sid_x, sid_y)
            plans = self._compatible_plans(found)
            for plan in plans:
                self.commit_bigon_plan(plan)
            moves += len(plans)
            after = self.pair_geometry(sid_x, sid_y).count_pair(sid_x, sid_y)
            if after != before - 2 * len(plans):
                raise InternalInvariantError(
                    "%d bigon moves changed count %d -> %d"
                    % (len(plans), before, after))
        if moves:
            self.check_pair_geometry(sid_x, sid_y)
        return moves

    # -- Dehn twist ------------------------------------------------------------------

    def twist_once(self, sid_c, sid_t, handedness):
        """One Dehn twist of strand c along strand t; returns a solo drawing.

        The two strands must be in minimal position already.  Every strand
        of c crossing the annulus around t is given one full lap, forward
        along t at positively-signed crossings for handedness +1.  The
        result is not checked for embeddedness: `curve_from_drawing`
        checks it when it builds the lap's curve.
        """
        geo = self.geometry()
        st_c = self.strands[sid_c]
        st_t = self.strands[sid_t]
        L = len(st_t.pts)
        events = geo.pair_events(sid_c, sid_t)
        if not events or L == 0:
            return self.sub_drawing([st_c])
        par_t = {cr.id: cr.param_of(sid_t) for cr in events}

        def nest_key(i_t):
            # laps stack at t's point i_t in the order of how far i_t lies
            # from their crossing along t, ahead for handedness +1 and
            # behind otherwise; the crossing of rank r on chord jt of t
            # lies between t's points jt and jt + 1, further on for larger r
            if handedness > 0:
                return lambda cr: ((i_t - par_t[cr.id][0] - 1) % L,
                                   -par_t[cr.id][1])
            return lambda cr: ((par_t[cr.id][0] - i_t) % L, par_t[cr.id][1])

        # per-edge layout: c's own points in place, lap stacks where t
        # crossed, oriented by which side of t the edge's front lies
        own_c = set(st_c.pts)
        index_t = {p: i for i, p in enumerate(st_t.pts)}
        out = Drawing(self.surface)
        mapping = {}
        for e in sorted(self.edge_pts):
            for p in self.edge_pts[e]:
                if p in own_c:
                    mapping[p] = out.new_point(e, len(out.edge_pts[e]))
                    continue
                i_t = index_t[p]
                left = self._front_is_left(p, st_t.tris[i_t])
                for cr in sorted(events, key=nest_key(i_t),
                                 reverse=not left):
                    mapping[(cr.id, i_t)] = out.new_point(
                        e, len(out.edge_pts[e]))

        # assemble traversal; events come in c's order
        ev_on_chord = {}
        for cr in events:
            ev_on_chord.setdefault(cr.param_of(sid_c)[0], []).append(cr)
        pts, tris = [], []
        for i, p in enumerate(st_c.pts):
            pts.append(mapping[p])
            tri_here = st_c.tris[i]
            for cr in ev_on_chord.get(i, ()):
                tris.append(tri_here)   # from previous point into the lap
                jt = par_t[cr.id][0]
                # c enters from the left of t's direction iff its sign > 0
                if (handedness > 0) == (cr.sign_for(sid_c) < 0):
                    visits = [(jt + 1 + m) % L for m in range(L)]
                    tris.extend(st_t.tris[i_t] for i_t in visits[:-1])
                else:
                    visits = [(jt - m) % L for m in range(L)]
                    tris.extend(st_t.tris[i_t - 1] for i_t in visits[:-1])
                pts.extend(mapping[(cr.id, i_t)] for i_t in visits)
            tris.append(tri_here)   # towards the next old point
        out.add_strand(pts, tris)
        return out


def path_weights(surface, path):
    """Edge weights of a reduced cyclic dual path, one per passage's exit.

    Raises unless the path is nonempty, each passage enters by the side
    the one before it leaves by, and none leaves by its entry side.
    """
    if not path:
        raise InternalInvariantError("dual path is empty")
    glue, side_edge = surface.glue, surface.side_edge
    weights = [0] * len(surface.edges)
    prev_tri, _, prev_out = path[-1]
    for tri, s_in, s_out in path:
        if glue.get((prev_tri, prev_out)) != (tri, s_in):
            raise InternalInvariantError("dual path is disconnected")
        if s_in == s_out:
            raise InternalInvariantError("dual path is not reduced")
        weights[side_edge[(tri, s_out)]] += 1
        prev_tri, prev_out = tri, s_out
    return weights


def overlay(drawings):
    """Merge solo drawings, stacking per-edge blocks in the given order.

    Returns the merged drawing and the sids its strands got, in order.
    """
    if not drawings:
        raise InternalInvariantError("overlay of no drawings")
    out = Drawing(drawings[0].surface)
    sids = []
    for d in drawings:
        sids.extend(out.insert_copy(d))
    return out, sids


def parting(px, i, py, j):
    """Where dual path px, read from passage i, parts from py, read from
    passage j: (k, left).

    The two passages enter one triangle by one side.  The paths run side
    by side for k passages, then part, in a triangle that both enter by
    some side s; px leaves it by s + 2 iff `left`.  The one that does is
    the left one, first on s in that triangle's counterclockwise order,
    as on every side that the two cross before.
    """
    nx, ny = len(px), len(py)
    for k in range(nx + ny):
        step_x, step_y = px[(i + k) % nx], py[(j + k) % ny]
        if step_x != step_y:
            _, s, out_x = step_x
            return k, out_x == (s + 2) % 3
    raise InternalInvariantError("two dual paths never part")


def merged_overlay(da, db):
    """Overlay of the solo drawings of two distinct curves, with one
    crossing per linked run of their paths.

    Like `overlay`, but on every edge the points of the two strands are
    merged, each strand's keeping its own order.  A point p of a and a
    point q of b share a run of their paths, read both ways from the edge
    in a's direction at p (`parting`).  Where the two partings order p and
    q alike, the run is unlinked and that is their order.  A linked run
    crosses once, in its middle triangle, or, when the middle is an edge,
    in the triangle on that edge's front; p and q take the order of the
    parting on the far side of the crossing from the edge.  The middle
    does not depend on the direction in which a run is read, so no strand
    of b has to cross two strands of a that run side by side in opposite
    directions in different orders, as it would were every crossing put
    at the start of its run along a.  Returns the drawing and the sids of
    a and b.
    """
    out, (sid_a, sid_b) = overlay([da, db])
    surf = out.surface

    def both_ways(sid):
        path = out.passages(sid)
        return path, [(t, s_out, s_in) for t, s_in, s_out in reversed(path)]
    (pa, ra), (pb, rb) = both_ways(sid_a), both_ways(sid_b)
    na, nb = len(pa), len(pb)
    at_a = {p: i for i, p in enumerate(out.strands[sid_a].pts)}
    at_b = {p: j for j, p in enumerate(out.strands[sid_b].pts)}

    def a_first(p, q):
        # a at its point i enters tri by s; read backwards from a point,
        # a strand's path runs from the reversed passage before it
        i, j = at_a[p], at_b[q]
        tri, s = pa[i][0], pa[i][1]
        front = surf.side_local_direction_is_front(tri, s)
        ahead, behind = (pb, j), (rb, (nb - j) % nb)
        if pb[j][:2] != (tri, s):
            ahead, behind = behind, ahead
        k_ahead, left = parting(pa, i, *ahead)
        k_behind, left_behind = parting(ra, (na - i) % na, *behind)
        # seen from tri, the parting behind orders them as not left_behind
        if left == left_behind and (k_ahead > k_behind
                                    or k_ahead == k_behind and front):
            left = not left
        return left == front

    for e, pts in out.edge_pts.items():
        block = sum(1 for p in pts if p in at_a)
        xs, ys = pts[:block], pts[block:]
        if not xs or not ys:
            continue
        merged, x, y = [], 0, 0
        while x < len(xs) and y < len(ys):
            if a_first(xs[x], ys[y]):
                merged.append(xs[x])
                x += 1
            else:
                merged.append(ys[y])
                y += 1
        merged += xs[x:] + ys[y:]
        out.edge_pts[e] = merged
    out._bump()
    return out, (sid_a, sid_b)

