"""Integral homology of the surface and curve classes.

H1(S; Z) is the abelianized fundamental group (Hurewicz).  The dual-edge
generators of `surface.crossing_letter` generate the fundamental group,
and its relators abelianize to zero: there are none on surfaces with
boundary, and `HomologyBasis` checks the one vertex relator of a closed
surface.  The canonical curve family of the surface (the two slope
curves for genus one, the dual curves of the handle sides for higher
genus, then the push-ins of boundary cycles 1..b-1) abelianizes to a
signed permutation of the generators, so a closed curve's class is the
exponent-sum vector of its dual word, permuted and signed so that the
family maps to unit vectors.  The push-ins span exactly the classes whose
2g handle coordinates are zero, which decides the separating test.
"""

from __future__ import annotations

from functools import lru_cache

from . import fixtures, words as W
from .drawing import Drawing
from .errors import InternalInvariantError, NSCurvesError


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

    def in_boundary_lattice(self):
        """Whether the class lies in the span of the boundary push-ins.

        Push-ins 1..b-1 are the unit vectors after the 2g handle
        coordinates and push-in 0 is minus their sum (`HomologyBasis`
        checks both), so the span is the classes with zero handle part.
        """
        return not any(self.coords[:2 * self.surface.genus])

    def _check(self, other):
        if self.surface is not other.surface:
            raise NSCurvesError("classes on different surfaces")

    def __repr__(self):
        return "[" + ",".join(str(c) for c in self.coords) + "]"


class HomologyBasis:
    """Basis of H1(S;Z) in canonical curve coordinates."""

    def __init__(self, surface):
        self.surface = surface
        self.rank = len(surface.word_gen_edges)
        if self.rank != surface.homology_rank:
            raise InternalInvariantError(
                "%d word generators, homology rank %d"
                % (self.rank, surface.homology_rank))
        if any(any(W.abelianize(r, self.rank))
               for r in surface.vertex_relators):
            raise InternalInvariantError(
                "a vertex relator does not abelianize to zero")

        push_ins = [_fixture_word(surface, fixtures.push_in_path(surface, ci))
                    for ci in range(surface.boundary_count)]
        fam = canonical_family_words(surface) + push_ins[1:]
        # (generator, sign) of each family curve's one nonzero exponent sum
        self._signed_perm = []
        for w in fam:
            units = [(g, x) for g, x in enumerate(W.abelianize(w, self.rank))
                     if x]
            if len(units) != 1 or abs(units[0][1]) != 1:
                raise InternalInvariantError(
                    "canonical curve %r is not a signed generator" % (w,))
            self._signed_perm.append(units[0])
        if sorted(g for g, _ in self._signed_perm) != list(range(self.rank)):
            raise InternalInvariantError(
                "canonical curve family is not a signed permutation")

        bd = [self.class_of_word(w).coords for w in push_ins]
        self.boundary_classes = bd
        if any(sum(col[i] for col in bd) for i in range(self.rank)):
            raise InternalInvariantError("boundary classes do not cancel")

    def class_of_word(self, word) -> HomologyClass:
        """Class of a closed curve from its dual word (`Drawing.word_of`)."""
        sums = W.abelianize(word, self.rank)
        return HomologyClass(self.surface,
                             [x * sums[g] for g, x in self._signed_perm])


@lru_cache(maxsize=None)
def homology_basis(surface) -> HomologyBasis:
    return HomologyBasis(surface)


def _fixture_word(surface, path):
    """Dual word of a fixture curve's drawing, checked for embeddedness."""
    drawing = Drawing.from_path(surface, path)
    drawing.validate_embedded()
    return drawing.word_of(0)


def canonical_family_words(surface):
    """Dual words of the canonical handle curves, in basis-defining order.

    Genus one: the (1,0) and (0,1) slope curves.  Genus >= 2: the dual
    curves of the a_i and b_i polygon pairs.  `HomologyBasis` completes
    the family with the push-ins of boundary cycles 1..b-1.
    """
    if surface.genus == 1:
        sides = [fixtures.torus_slope_events(surface, p, q)
                 for (p, q) in ((1, 0), (0, 1))]
    else:
        sides = [[side] for a_i, b_i, _, _ in surface.polygon.handle_sides
                 for side in (b_i, a_i)]
    return [_fixture_word(surface, fixtures.polygon_path(surface, s))
            for s in sides]
