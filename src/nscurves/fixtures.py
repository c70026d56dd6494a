"""Canonical curves read off the defining polygon as reduced dual paths.

A fixture curve is given by the cyclic sequence of glued polygon sides
it leaves by, re-entering each time through the glued partner.  The
fan's triangles form a path in the dual graph, so between re-entering by
one side and leaving by the next, the curve crosses exactly the fan
diagonals between those two sides' triangles, in order
(`polygon_path`).  No straight segments and no exact diagonal crossings
are involved: a normal curve is fixed by its edge weights, and
`Drawing.from_path` draws it from its path.

Torus slope curves get their side sequence from the straight (p, q)
line on the unit square, which keeps the flat-picture intersection
counts literal.
"""

from __future__ import annotations

from fractions import Fraction

from .errors import InternalInvariantError, NotCoprime, WrongGenus
from math import gcd


def polygon_path(surface, sides):
    """Reduced cyclic dual path of the curve leaving by `sides` in turn.

    Triangle t of the fan leaves by side 2 into triangle t + 1 and by
    side 0 into triangle t - 1.
    """
    poly = surface.polygon
    path = []
    for k, side in enumerate(sides):
        partner = poly.glued_partner[side]
        if partner is None:
            raise InternalInvariantError("side %d is unglued" % side)
        tri, s_in = poly.side_instance[partner]
        t_out, s_out = poly.side_instance[sides[(k + 1) % len(sides)]]
        step = 2 if t_out > tri else 0
        for _ in range(abs(t_out - tri)):
            path.append((tri, s_in, step))
            tri, s_in = surface.glue[(tri, step)]
        path.append((tri, s_in, s_out))
    return path


def torus_slope_events(surface, p, q):
    """Polygon sides by which the straight (p, q) line on the unit square
    leaves it, in order along the line.

    Sides 0..3 of the polygon are the square's bottom, right, top, left.
    """
    if surface.genus != 1:
        raise WrongGenus("slope curves need genus one")
    if gcd(p, q) != 1:
        raise NotCoprime("slope %d/%d is not primitive" % (p, q))
    K = abs(p) + abs(q) + 3
    x0, y0 = Fraction(1, 2 * K + 1), Fraction(1, 3 * K + 2)
    evs = []
    for mth in range(min(0, p) + 1, max(0, p) + 1):
        t = (mth - x0) / p
        if 0 <= t < 1:
            evs.append((t, 1 if p > 0 else 3))    # right or left side
    for mth in range(min(0, q) + 1, max(0, q) + 1):
        t = (mth - y0) / q
        if 0 <= t < 1:
            evs.append((t, 2 if q > 0 else 0))    # top or bottom side
    if len(evs) != abs(p) + abs(q):
        raise InternalInvariantError("slope event count off")
    evs.sort()
    return [side for _, side in evs]


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


def chain_curve_events(surface, handle):
    """A curve linking handle `handle` to handle `handle + 1` (genus >= 2)."""
    if handle + 1 >= surface.genus:
        raise InternalInvariantError("no next handle")
    return [surface.polygon.handle_sides[handle][1],
            surface.polygon.handle_sides[handle + 1][0]]


def push_in_path(surface, cycle_index):
    """Reduced cyclic dual path of the push-in of a boundary cycle.

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
    # after crossing side (t, c) the curve sits in the glued triangle
    return [surface.glue[step] + (steps[(k + 1) % len(steps)][1],)
            for k, step in enumerate(steps)]
