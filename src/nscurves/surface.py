"""Triangulated models of compact oriented surfaces S_{g,b}.

A surface is built from a single polygon with a fixed gluing word,
fan-triangulated from corner 0.  The gluing word is

    a_1 b_1 a_1' b_1' ... a_g b_g a_g' b_g'            (closed case)
    ... followed by  s_1  t_2 s_2 t_2' ... t_b s_b t_b' (b >= 1)

where primes denote the orientation-reversing partner and the s_j sides
stay unglued (one boundary circle each).  This scheme keeps every vertex
on the boundary whenever b >= 1, and produces a single interior vertex
when b = 0; both facts are load-bearing for curve canonicalization and
are re-checked at construction time.

Triangle sides are numbered so side s runs from corner s to corner s+1
(mod 3); all triangles are embedded counterclockwise, so every gluing
reverses the direction of the shared segment.
"""

from __future__ import annotations

import json
from dataclasses import dataclass
from functools import lru_cache

from .errors import InternalInvariantError, NSCurvesError

SCHEMA = "nscurves.surface/1"


@dataclass(frozen=True)
class Edge:
    id: int
    front: tuple          # (tri, side) whose direction orients the edge
    back: tuple | None    # glued partner or None for boundary edges

    @property
    def is_boundary(self):
        return self.back is None


@dataclass(frozen=True)
class PolygonInfo:
    """How the sides of the defining polygon sit in the fan."""
    side_instance: tuple          # polygon side index -> (tri, side)
    glued_partner: tuple          # polygon side index -> partner index or None
    handle_sides: tuple           # per handle i: (a_i, b_i, a_i', b_i') indices


class Surface:
    """Immutable triangulated oriented surface; all derived data cached.

    `glue` pairs the glued sides of a fan of `ntri` triangles, side 0 of
    triangle t glued to side 2 of triangle t - 1; every gluing reverses
    the shared side.  The gluing must be an involution without fixed
    sides, and the complex must pass `validate`.
    """

    def __init__(self, genus, boundary_count, ntri, glue, polygon):
        self.genus = genus
        self.boundary_count = boundary_count
        self.ntri = ntri
        self.glue = dict(glue)
        self.polygon = polygon
        self.spec_name = f"g{genus}b{boundary_count}"
        for (t, s), p in self.glue.items():
            if p == (t, s) or self.glue.get(p) != (t, s):
                raise NSCurvesError(
                    "invalid surface %s: gluing is not an involution at "
                    "(tri %d, side %d)" % (self.spec_name, t, s))
        self._build_edges()
        self._build_vertices()
        self._build_boundary_cycles()
        problems = validate(self)
        if problems:
            raise NSCurvesError(
                "invalid surface %s: %s" % (self.spec_name, "; ".join(problems)))
        self._build_dual_tree()

    # -- construction ----------------------------------------------------

    def _build_edges(self):
        self.side_edge = {}
        self.edges = []
        seen = set()
        for t in range(self.ntri):
            for s in range(3):
                if (t, s) in seen:
                    continue
                partner = self.glue.get((t, s))
                eid = len(self.edges)
                if partner is None:
                    self.edges.append(Edge(eid, (t, s), None))
                    seen.add((t, s))
                    self.side_edge[(t, s)] = eid
                else:
                    front, back = min((t, s), partner), max((t, s), partner)
                    self.edges.append(Edge(eid, front, back))
                    seen.add(front)
                    seen.add(back)
                    self.side_edge[front] = eid
                    self.side_edge[back] = eid
        self.interior_edge_ids = [e.id for e in self.edges if not e.is_boundary]
        self.boundary_edge_ids = [e.id for e in self.edges if e.is_boundary]
        self.tri_edges_table = [tuple(self.side_edge[(t, s)] for s in range(3))
                                for t in range(self.ntri)]

    def _build_vertices(self):
        parent = {}

        def find(x):
            while parent[x] != x:
                parent[x] = parent[parent[x]]
                x = parent[x]
            return x

        def union(x, y):
            rx, ry = find(x), find(y)
            if rx != ry:
                parent[max(rx, ry)] = min(rx, ry)

        for t in range(self.ntri):
            for c in range(3):
                parent[(t, c)] = (t, c)
        for (t, s), (t2, s2) in self.glue.items():
            union((t, s), (t2, (s2 + 1) % 3))
            union((t, (s + 1) % 3), (t2, s2))
        reps = sorted({find(k) for k in parent})
        index = {r: i for i, r in enumerate(reps)}
        self.vertex_of_corner = {k: index[find(k)] for k in parent}
        self.nvertices = len(reps)

    def corner_rotate(self, t, c):
        """Next corner counterclockwise around the vertex at (t, c).

        Crosses the side starting at the corner; None at the boundary.
        """
        partner = self.glue.get((t, c))
        if partner is None:
            return None
        t2, s2 = partner
        return (t2, (s2 + 1) % 3)

    def corner_rotate_back(self, t, c):
        partner = self.glue.get((t, (c + 2) % 3))
        if partner is None:
            return None
        t2, s2 = partner
        return (t2, s2)

    def vertex_link(self, v):
        """Corners around vertex v in rotation order, plus a cycle flag."""
        corners = [c for c, vv in self.vertex_of_corner.items() if vv == v]
        start = min(corners)
        # rewind to a boundary end if there is one
        cur, steps = start, 0
        while True:
            prev = self.corner_rotate_back(*cur)
            if prev is None or prev == start:
                break
            cur = prev
            steps += 1
            if steps > len(corners) + 1:
                break
        head, is_cycle = cur, self.corner_rotate_back(*cur) is not None
        out, cur = [], head
        for _ in range(len(corners)):
            out.append(cur)
            nxt = self.corner_rotate(*cur)
            if nxt is None or nxt == head:
                break
            cur = nxt
        return out, is_cycle

    def _build_boundary_cycles(self):
        unglued = [(t, s) for t in range(self.ntri) for s in range(3)
                   if (t, s) not in self.glue]
        remaining = set(unglued)
        cycles = []
        while remaining:
            start = min(remaining)
            cycle = []
            cur = start
            while True:
                cycle.append(cur)
                remaining.discard(cur)
                # rotate around the end vertex of cur until the next unglued side
                t, s = cur
                corner = (t, (s + 1) % 3)   # end corner of cur
                # walk: the next boundary side starts at this vertex
                probe = corner
                for _ in range(len(self.vertex_of_corner) + 1):
                    if (probe[0], probe[1]) not in self.glue:
                        break
                    probe = self.corner_rotate(*probe)
                nxt = probe
                if nxt == start:
                    break
                cur = nxt
            cycles.append(cycle)
        self.boundary_cycles = cycles

    def _build_dual_tree(self):
        # The fan diagonals connect consecutive triangles in a path; take
        # exactly those as the dual spanning tree so that the word
        # generators are the glued polygon sides.
        tree = {self.side_edge[(t, 0)] for t in range(1, self.ntri)}
        self.dual_tree_edges = tree
        self.word_gen_edges = [e for e in self.interior_edge_ids if e not in tree]
        self.gen_index = {e: i for i, e in enumerate(self.word_gen_edges)}
        self.vertex_relators = self._vertex_relators()

    def crossing_letter(self, t, s):
        """Signed generator for a passage leaving triangle t through (t, s).

        Positive when the passage exits through the front instance of the
        edge; 0 for tree edges (and raises for boundary sides).
        """
        e = self.side_edge[(t, s)]
        edge = self.edges[e]
        if edge.is_boundary:
            raise NSCurvesError("curves cannot cross boundary edges")
        if e in self.dual_tree_edges:
            return 0
        g = self.gen_index[e] + 1
        return g if edge.front == (t, s) else -g

    def presentation(self):
        """(relators, abelian_rank) that decide this surface's words.

        The `words` functions take both.  The closed torus compares words
        abelianized, as its fundamental group is abelian; every other
        surface reduces them by its vertex relators, which are none where
        it has boundary.
        """
        if self.boundary_count == 0 and self.genus == 1:
            return (), len(self.word_gen_edges)
        return tuple(self.vertex_relators), 0

    def _vertex_relators(self):
        relators = []
        for v in range(self.nvertices):
            corners, is_cycle = self.vertex_link(v)
            if not is_cycle:
                continue
            word = []
            for (t, c) in corners:
                letter = self.crossing_letter(t, c)
                if letter:
                    word.append(letter)
            relators.append(tuple(word))
        return relators

    # -- queries ----------------------------------------------------------

    def euler_characteristic(self):
        return self.nvertices - len(self.edges) + self.ntri

    def side_local_direction_is_front(self, t, s):
        return self.edges[self.side_edge[(t, s)]].front == (t, s)

    @property
    def homology_rank(self):
        return 2 * self.genus + max(self.boundary_count - 1, 0)

    # -- serialization ----------------------------------------------------

    def to_json(self):
        return {
            "schema": SCHEMA,
            "spec": self.spec_name,
            "genus": self.genus,
            "boundary_count": self.boundary_count,
            "triangles": [
                {"id": t, "edges": list(self.tri_edges_table[t])}
                for t in range(self.ntri)
            ],
            "gluings": sorted(
                [list(a) + list(b)] for a, b in self.glue.items() if a < b
            ),
            "boundary_cycles": [
                [self.side_edge[s] for s in cyc] for cyc in self.boundary_cycles
            ],
        }

    def __repr__(self):
        return f"Surface({self.spec_name})"


def _polygon_word(genus, boundary_count):
    """Side labels of the defining polygon; pairs share a label."""
    word = []
    for i in range(genus):
        word += [("a", i, 1), ("b", i, 1), ("a", i, -1), ("b", i, -1)]
    if boundary_count >= 1:
        word.append(("s", 0, 0))
    for j in range(1, boundary_count):
        word += [("t", j, 1), ("s", j, 0), ("t", j, -1)]
    return word


@lru_cache(maxsize=None)
def build_surface(genus: int, boundary_count: int) -> Surface:
    """Canonical triangulated model of S_{g,b}; deterministic in its inputs."""
    if genus < 1:
        raise NSCurvesError(
            "genus %d rejected: nonseparating curves require genus >= 1" % genus)
    if boundary_count < 0:
        raise NSCurvesError("negative boundary count")
    word = _polygon_word(genus, boundary_count)
    n = len(word)
    ntri = n - 2

    def side_instance(i):
        if i == 0:
            return (0, 0)
        if i == n - 1:
            return (ntri - 1, 2)
        return (i - 1, 1)

    # pair up sides with the same label
    by_label = {}
    for i, (kind, idx, sgn) in enumerate(word):
        by_label.setdefault((kind, idx), []).append(i)
    glued_partner = [None] * n
    glue = {}
    for (kind, idx), positions in by_label.items():
        if kind == "s":
            continue
        i, j = positions
        glued_partner[i], glued_partner[j] = j, i
        si, sj = side_instance(i), side_instance(j)
        glue[si], glue[sj] = sj, si

    # interior fan diagonals
    for k in range(2, n - 1):
        si = (k - 2, 2)   # side v_k -> v_0 of triangle (v0, v_{k-1}, v_k)
        sj = (k - 1, 0)   # side v_0 -> v_k of triangle (v0, v_k, v_{k+1})
        glue[si], glue[sj] = sj, si

    handle_sides = tuple((4 * i, 4 * i + 1, 4 * i + 2, 4 * i + 3)
                         for i in range(genus))
    poly = PolygonInfo(
        side_instance=tuple(side_instance(i) for i in range(n)),
        glued_partner=tuple(glued_partner),
        handle_sides=handle_sides,
    )
    surf = Surface(genus, boundary_count, ntri, glue, poly)
    if boundary_count >= 1:
        # every vertex must touch the boundary (unique normal forms rely on it)
        on_boundary = {surf.vertex_of_corner[(t, (s + 1) % 3)]
                       for cyc in surf.boundary_cycles for (t, s) in cyc}
        on_boundary |= {surf.vertex_of_corner[(t, s)]
                        for cyc in surf.boundary_cycles for (t, s) in cyc}
        if on_boundary != set(range(surf.nvertices)):
            raise InternalInvariantError(
                "scheme left an interior vertex on %s" % surf.spec_name)
    else:
        if surf.nvertices != 1:
            raise InternalInvariantError(
                "closed surface %s has %d vertices, not one"
                % (surf.spec_name, surf.nvertices))
        if genus >= 2:
            _check_small_cancellation(surf.vertex_relators[0])
    return surf


def _check_small_cancellation(relator):
    """Check that all pieces of the one-vertex relator have length <= 1.

    Needed so the word reduction in `words` decides conjugacy; holds for the
    standard commutator pattern the fan scheme produces.
    """
    r = list(relator)
    n = len(r)
    variants = []
    for w in (r, [-x for x in reversed(r)]):
        for k in range(n):
            variants.append(tuple(w[k:] + w[:k]))
    distinct = len({v[:2] for v in variants})
    if distinct != len(variants):
        raise InternalInvariantError("relator has pieces of length >= 2")


def parse_surface_spec(spec) -> Surface:
    """Accepts 'g<G>b<B>' strings (or a Surface, passed through)."""
    if isinstance(spec, Surface):
        return spec
    s = spec.strip().lower() if isinstance(spec, str) else ""
    if not s.startswith("g") or "b" not in s:
        raise NSCurvesError("bad surface spec %r (want e.g. 'g2b0')" % (spec,))
    try:
        g, b = s[1:].split("b")
        return build_surface(int(g), int(b))
    except ValueError as exc:
        raise NSCurvesError("bad surface spec %r" % (spec,)) from exc


def validate(surface: Surface):
    """Structural diagnostics; empty list when the complex is a valid S_{g,b}."""
    out = []
    chi = surface.euler_characteristic()
    expected = 2 - 2 * surface.genus - surface.boundary_count
    if chi != expected:
        out.append(f"Euler characteristic {chi} != {expected}")
    if len(surface.boundary_cycles) != surface.boundary_count:
        out.append("boundary cycle count %d != %d"
                   % (len(surface.boundary_cycles), surface.boundary_count))
    # vertex links: single cycle (interior) or single arc (boundary)
    for v in range(surface.nvertices):
        corners = [c for c, vv in surface.vertex_of_corner.items() if vv == v]
        link, is_cycle = surface.vertex_link(v)
        if len(link) != len(corners):
            out.append(f"vertex {v} link splits into several components")
    return out


def surface_to_json_str(surface: Surface) -> str:
    return json.dumps(surface.to_json(), indent=2, sort_keys=True)
