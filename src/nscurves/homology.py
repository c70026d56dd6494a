"""Integral homology of the surface and curve classes.

H1(S; Z) is computed from the simplicial chain complex of the defining
triangulation (kernel of d1 modulo image of d2, via Smith normal form)
and then re-based so that the canonical curve family of the surface maps
to unit vectors: the two slope curves for genus one, the dual curves of
the handle sides for higher genus, and the boundary push-ins for the
extra rank.  The separating test reduces a curve's class modulo the
boundary sublattice, which realizes the class in H1(S, dS; Z).
"""

from __future__ import annotations

from functools import lru_cache

from . import intlinalg as IL
from .errors import InternalInvariantError, NSCurvesError
from . import fixtures


class HomologyClass:
    __slots__ = ("surface", "coords")

    def __init__(self, surface, coords):
        self.surface = surface
        self.coords = tuple(int(c) for c in coords)

    def __add__(self, other):
        self._check(other)
        return HomologyClass(self.surface,
                             [a + b for a, b in zip(self.coords, other.coords)])

    def __sub__(self, other):
        self._check(other)
        return HomologyClass(self.surface,
                             [a - b for a, b in zip(self.coords, other.coords)])

    def __neg__(self):
        return HomologyClass(self.surface, [-a for a in self.coords])

    def __eq__(self, other):
        return (isinstance(other, HomologyClass)
                and self.surface is other.surface
                and self.coords == other.coords)

    def __hash__(self):
        return hash((id(self.surface), self.coords))

    def is_zero(self):
        return all(c == 0 for c in self.coords)

    def _check(self, other):
        if self.surface is not other.surface:
            raise NSCurvesError("classes on different surfaces")

    def __repr__(self):
        return "[" + ",".join(str(c) for c in self.coords) + "]"


class HomologyBasis:
    """Basis of H1(S;Z) in canonical curve coordinates."""

    def __init__(self, surface):
        self.surface = surface
        ne = len(surface.edges)
        nv = surface.nvertices
        nf = surface.ntri

        d1 = IL.zeros(nv, ne)
        for e in surface.edges:
            t, s = e.front
            v_start = surface.vertex_of_corner[(t, s)]
            v_end = surface.vertex_of_corner[(t, (s + 1) % 3)]
            d1[v_end][e.id] += 1
            d1[v_start][e.id] -= 1
        d2 = IL.zeros(ne, nf)
        for t in range(nf):
            for s in range(3):
                e = surface.side_edge[(t, s)]
                sgn = 1 if surface.edges[e].front == (t, s) else -1
                d2[e][t] += sgn

        zcols = IL.kernel_basis(d1)
        k = len(zcols)
        zmat = IL.column_style_matrix(zcols, ne)
        # express boundaries of triangles inside the cycle lattice
        mcols = []
        for t in range(nf):
            bcol = [d2[e][t] for e in range(ne)]
            x = IL.solve_integer(zmat, bcol)
            if x is None:
                raise InternalInvariantError("boundary not a cycle")
            mcols.append(x)
        mmat = IL.column_style_matrix(mcols, k)
        dd, uu, vv = IL.smith_normal_form(mmat)
        uinv = IL.invert_unimodular(uu)
        rank_b = sum(1 for i in range(min(k, nf)) if dd[i][i])
        for i in range(rank_b):
            if dd[i][i] != 1:
                raise InternalInvariantError("torsion in surface homology")
        raw_cols = []
        for j in range(rank_b, k):
            col = [uinv[i][j] for i in range(k)]
            raw_cols.append(IL.mat_vec(zmat, col))
        self.rank = len(raw_cols)
        if self.rank != surface.homology_rank:
            raise InternalInvariantError(
                "homology rank %d, expected %d"
                % (self.rank, surface.homology_rank))

        self._raw = IL.column_style_matrix(raw_cols, ne)   # ne x rank
        # a 1-cycle is raw basis cycles plus triangle boundaries: its raw
        # coordinates are the first `rank` entries of a solve against
        # [raw | d2], factored here once
        self._cycle_solver = IL.LatticeSolver(
            [self._raw[r] + d2[r] for r in range(ne)])

        fam = canonical_family_chains(surface)
        cmat = IL.column_style_matrix(
            [self._raw_coords(c) for c in fam], self.rank)
        try:
            self._canon_inv = IL.invert_unimodular(cmat)
        except ValueError as exc:
            raise InternalInvariantError(
                "canonical curve family is not a basis") from exc

        # boundary sublattice in canonical coordinates
        bd = []
        for ci in range(len(surface.boundary_cycles)):
            chain = boundary_cycle_chain(surface, ci)
            bd.append(self.class_of_chain(chain).coords)
        self.boundary_classes = bd
        total = [sum(col[i] for col in bd) for i in range(self.rank)] \
            if bd else [0] * self.rank
        if any(total):
            raise InternalInvariantError("boundary classes do not cancel")
        self._bd_solver = IL.LatticeSolver(IL.column_style_matrix(
            [list(c) for c in bd], self.rank) if bd else IL.zeros(self.rank, 0))
        self.boundary_rank = self._bd_solver.rank

        self.cycle_basis = [
            IL.mat_vec(self._raw, [self._canon_inv[j][i]
                                   for j in range(self.rank)])
            for i in range(self.rank)]

    def _raw_coords(self, chain):
        x = self._cycle_solver.solve(chain)
        if x is None:
            raise InternalInvariantError("chain is not a 1-cycle")
        return x[:self.rank]

    def class_of_chain(self, chain) -> HomologyClass:
        raw = self._raw_coords(chain)
        coords = IL.mat_vec(self._canon_inv, raw)
        return HomologyClass(self.surface, coords)

    def in_boundary_lattice(self, cls: HomologyClass) -> bool:
        return self._bd_solver.solve(cls.coords) is not None

    def to_json(self):
        return {
            "schema": "nscurves.homology/1",
            "surface": self.surface.spec_name,
            "rank": self.rank,
            "cycle_basis": [list(c) for c in self.cycle_basis],
            "boundary_classes": [list(c) for c in self.boundary_classes],
            "boundary_rank": self.boundary_rank,
        }


@lru_cache(maxsize=None)
def homology_basis(surface) -> HomologyBasis:
    return HomologyBasis(surface)


def boundary_cycle_chain(surface, cycle_index):
    chain = [0] * len(surface.edges)
    for (t, s) in surface.boundary_cycles[cycle_index]:
        e = surface.side_edge[(t, s)]
        sgn = 1 if surface.edges[e].front == (t, s) else -1
        chain[e] += sgn
    return chain


def canonical_family_chains(surface):
    """1-cycles of the canonical curve family, in basis-defining order.

    Genus one: the (1,0) and (0,1) slope curves.  Genus >= 2: the dual
    curves of the a_i and b_i polygon pairs.  Plus, for b >= 2, the
    push-ins of boundary cycles 1..b-1.
    """
    chains = []
    if surface.genus == 1:
        for (p, q) in ((1, 0), (0, 1)):
            d = fixtures.polygon_draw(
                surface, fixtures.torus_slope_events(surface, p, q))
            chains.append(d.cycle_chain(0))
    else:
        for i in range(surface.genus):
            a_i, b_i = surface.polygon.handle_sides[i][0], \
                surface.polygon.handle_sides[i][1]
            for side in (b_i, a_i):
                d = fixtures.polygon_draw(
                    surface, fixtures.single_chord_events(surface, side))
                chains.append(d.cycle_chain(0))
    for ci in range(1, surface.boundary_count):
        d = fixtures.push_in_drawing(surface, ci)
        chains.append(d.cycle_chain(0))
    return chains
