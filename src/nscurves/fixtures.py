"""Canonical curve drawings built in the defining polygon.

A curve is specified by its cyclic sequence of gluing-pair crossings:
each event `(polygon_side, param)` says the curve exits the polygon
through that side at that boundary parameter (re-entering through the
glued partner at the mirrored parameter).  Chords between consecutive
re-entry and exit points are straight segments in the convex polygon
embedding; their crossings with the fan diagonals are computed exactly
and turned into drawing points.

Torus slope curves additionally get their event sequence from the
straight (p, q) line on the unit square, which keeps the flat-picture
intersection counts literal.
"""

from __future__ import annotations

from fractions import Fraction

from .drawing import Drawing
from .errors import InternalInvariantError, NotCoprime, WrongGenus
from math import gcd


def _poly_side_point(surface, i, u):
    poly = surface.polygon
    a = poly.coords[i]
    b = poly.coords[(i + 1) % poly.n_sides]
    return (a[0] + u * (b[0] - a[0]), a[1] + u * (b[1] - a[1]))


def polygon_draw(surface, events, role=None):
    """Drawing of the closed curve with the given gluing-crossing events."""
    poly = surface.polygon
    m = len(events)
    if m == 0:
        raise InternalInvariantError("no events")

    # crossing points on glued polygon sides
    pair_points = []   # per event: (side i, param u)
    for (i, u) in events:
        if poly.glued_partner[i] is None:
            raise InternalInvariantError("event on an unglued side")
        if not (0 < u < 1):
            raise InternalInvariantError("event parameter out of range")
        pair_points.append((i, u))

    # chords: from re-entry of event k to exit of event k+1
    chords = []
    for k in range(m):
        i_prev, u_prev = pair_points[k]
        j = poly.glued_partner[i_prev]
        entry = (j, 1 - u_prev)
        exit_ = pair_points[(k + 1) % m]
        chords.append((entry, exit_))

    # diagonal crossings per chord, exactly
    diag_hits = []   # per chord: ordered list of (tpar, diag index k, lam)
    for (entry, exit_) in chords:
        P = _poly_side_point(surface, *entry)
        Q = _poly_side_point(surface, *exit_)
        hits = []
        for k, eid in poly.diagonal_edge.items():
            V0 = poly.coords[0]
            Vk = poly.coords[k]
            den = ((Q[0] - P[0]) * (V0[1] - Vk[1])
                   - (Q[1] - P[1]) * (V0[0] - Vk[0]))
            if den == 0:
                continue
            t = ((Vk[0] - P[0]) * (V0[1] - Vk[1])
                 - (Vk[1] - P[1]) * (V0[0] - Vk[0])) / Fraction(den)
            lam = ((Vk[0] - P[0]) * (Q[1] - P[1])
                   - (Vk[1] - P[1]) * (Q[0] - P[0])) / Fraction(den)
            # lam measures from Vk toward V0 along the diagonal
            if 0 < t < 1 and 0 < lam < 1:
                hits.append((t, k, lam))
            elif (t == 0 or t == 1) and 0 <= lam <= 1:
                raise InternalInvariantError("chord endpoint on a diagonal")
        hits.sort()
        diag_hits.append(hits)

    # collect points per drawing edge with exact front parameters
    d = Drawing(surface)
    tokens = []   # (edge, front_param, token)
    for k, (i, u) in enumerate(pair_points):
        t_inst = poly.side_instance[i]
        e = surface.side_edge[t_inst]
        front = surface.edges[e].front == t_inst
        fpar = u if front else 1 - u
        tokens.append((e, fpar, ("ev", k)))
    for ci, hits in enumerate(diag_hits):
        for (t, k, lam) in hits:
            eid = poly.diagonal_edge[k]
            # front instance of a diagonal is (k-2, 2): direction v_k -> v_0,
            # so the front parameter equals lam
            fpar = lam
            tokens.append((eid, fpar, ("diag", ci, k)))

    by_edge = {}
    for (e, fpar, tok) in tokens:
        by_edge.setdefault(e, []).append((fpar, tok))
    pid_of = {}
    for e in sorted(by_edge):
        lst = sorted(by_edge[e])
        for idx in range(len(lst) - 1):
            if lst[idx][0] == lst[idx + 1][0]:
                raise InternalInvariantError("coincident polygon crossings")
        for idx, (_, tok) in enumerate(lst):
            pid_of[tok] = d.new_point(e, idx)

    # triangle of the polygon region between consecutive diagonals:
    # region right of D_k and left of D_{k+1} is fan triangle k-1
    def tri_of_side(i):
        return poly.side_instance[i][0]

    pts, tris = [], []
    for k in range(m):
        entry, exit_ = chords[k]
        pts.append(pid_of[("ev", k)])
        cur_tri = tri_of_side(entry[0])
        tris.append(cur_tri)
        for (t, kk, lam) in diag_hits[k]:
            pts.append(pid_of[("diag", k, kk)])
            inst_a, inst_b = (kk - 2, 2), (kk - 1, 0)
            cur_tri = inst_b[0] if cur_tri == inst_a[0] else inst_a[0]
            tris.append(cur_tri)
        if cur_tri != tri_of_side(exit_[0]):
            raise InternalInvariantError("polygon routing lost its way")
    d.add_strand(pts, tris, role=role)
    return d


def torus_slope_events(surface, p, q):
    """Gluing-crossing events of the straight (p, q) line on the unit square.

    Sides 0..3 of the polygon are the square's bottom, right, top, left.
    """
    if surface.genus != 1:
        raise WrongGenus("slope curves need genus one")
    if gcd(p, q) != 1:
        raise NotCoprime("slope %d/%d is not primitive" % (p, q))
    K = abs(p) + abs(q) + 3
    x0, y0 = Fraction(1, 2 * K + 1), Fraction(1, 3 * K + 2)
    evs = []
    if p != 0:
        lo, hi = (0, p) if p > 0 else (p, 0)
        for mth in range(min(0, p) + 1, max(0, p) + 1):
            t = (Fraction(mth) - x0) / p
            if 0 <= t < 1:
                y = (y0 + q * t) % 1
                if p > 0:
                    evs.append((t, (1, y)))          # exits right side
                else:
                    evs.append((t, (3, 1 - y)))      # exits left side
    if q != 0:
        for mth in range(min(0, q) + 1, max(0, q) + 1):
            t = (Fraction(mth) - y0) / q
            if 0 <= t < 1:
                x = (x0 + p * t) % 1
                if q > 0:
                    evs.append((t, (2, 1 - x)))      # exits top side
                else:
                    evs.append((t, (0, x)))          # exits bottom side
    if len(evs) != abs(p) + abs(q):
        raise InternalInvariantError("slope event count off")
    evs.sort()
    return [ev for _, ev in evs]


def flat_torus_intersections(p, q, r, s):
    """Exact crossing count of the (p,q) and (r,s) lines on the flat torus.

    Counts solutions of base1 + t(p,q) = base2 + u(r,s) mod Z^2 with
    t, u in [0,1); serves as the independent oracle for slope curves.
    """
    if gcd(p, q) != 1 or gcd(r, s) != 1:
        raise NotCoprime("oracle needs primitive slopes")
    K1, K2 = abs(p) + abs(q) + 3, abs(r) + abs(s) + 3
    b1 = (Fraction(1, 2 * K1 + 1), Fraction(1, 3 * K1 + 2))
    b2 = (Fraction(1, 7 * K2 + 2), Fraction(1, 11 * K2 + 5))
    det = p * s - q * r
    if det == 0:
        return 0
    count = 0
    span = abs(p) + abs(q) + abs(r) + abs(s) + 2
    for mth in range(-span, span + 1):
        for nth in range(-span, span + 1):
            dx = b2[0] - b1[0] + mth
            dy = b2[1] - b1[1] + nth
            t = Fraction(dx * s - dy * r, det)
            u = Fraction(p * dy - q * dx, det)
            if 0 <= t < 1 and 0 <= u < 1:
                count += 1
    return count


def single_chord_events(surface, polygon_side):
    """The dual curve crossing one glued pair exactly once."""
    if surface.polygon.glued_partner[polygon_side] is None:
        raise InternalInvariantError("side %d is unglued" % polygon_side)
    return [(polygon_side, Fraction(1, 2))]


def chain_curve_events(surface, handle):
    """A curve linking handle `handle` to handle `handle + 1` (genus >= 2)."""
    if handle + 1 >= surface.genus:
        raise InternalInvariantError("no next handle")
    b_i = surface.polygon.handle_sides[handle][1]
    a_next = surface.polygon.handle_sides[handle + 1][0]
    return [(b_i, Fraction(1, 2)), (a_next, Fraction(1, 2))]


def push_in_drawing(surface, cycle_index, role=None):
    """Parallel push-in of a boundary cycle, as a solo drawing.

    Walks the cycle; around every vertex it crosses each fan side near
    that vertex, cutting the corners between consecutive boundary sides.
    """
    cycle = surface.boundary_cycles[cycle_index]
    steps = []   # crossed side instances (t, c), near the start corner of c
    for (t, s) in cycle:
        corner = (t, (s + 1) % 3)
        guard = 0
        while (corner[0], corner[1]) in surface.glue:
            steps.append(corner)
            corner = surface.corner_rotate(*corner)
            guard += 1
            if guard > 4 * len(surface.vertex_of_corner):
                raise InternalInvariantError("boundary rotation diverged")
        # the rotation stopped at the next boundary side of the cycle
    if not steps:
        raise InternalInvariantError("push-in crosses nothing")

    d = Drawing(surface)
    by_edge = {}
    for idx, (t, c) in enumerate(steps):
        e = surface.side_edge[(t, c)]
        near_front_start = surface.side_local_direction_is_front(t, c)
        by_edge.setdefault(e, []).append((0 if near_front_start else 1, idx))
    pid_of = {}
    for e in sorted(by_edge):
        lst = sorted(by_edge[e])
        if len(lst) > 2 or (len(lst) == 2 and lst[0][0] == lst[1][0]):
            raise InternalInvariantError("push-in crossings collide on an edge")
        for k, (_, idx) in enumerate(lst):
            pid_of[idx] = d.new_point(e, k)
    pts = [pid_of[idx] for idx in range(len(steps))]
    # after crossing side (t, c) the strand sits in the glued triangle
    tris = [surface.glue[(t, c)][0] for (t, c) in steps]
    d.add_strand(pts, tris, role=role)
    return d
