"""Isotopy classes of simple closed curves.

A Curve wraps a reduced solo drawing.  Identity of isotopy classes is
decided through the conjugacy class of the traced dual word (exact for
free groups when the surface has boundary, via small-cancellation
reduction for closed surfaces of genus >= 2, and through homology for the
closed torus); the normal coordinates of the reduced drawing are the
exported representation.  All curves are immutable.
"""

from __future__ import annotations

import re
from functools import lru_cache

from . import fixtures, words as W
from .drawing import Drawing
from .errors import (Disconnected, Inessential, NSCurvesError, NotCoprime,
                     WrongGenus)
from .homology import HomologyClass, homology_basis
from .surface import parse_surface_spec

# handedness value that realizes the positive twist convention:
# twisting (1,0) along (0,1) with power n gives class (1,n)
POSITIVE_HANDEDNESS = -1


class Curve:
    __slots__ = ("surface", "weights", "drawing", "sid", "word_key",
                 "forward_canonical", "cls", "peripheral", "_sep",
                 "_passages")

    def __init__(self, *args, **kwargs):
        raise NSCurvesError("use the curve constructors, not Curve() directly")

    @classmethod
    def _from_drawing(cls, drawing, sid):
        surf = drawing.surface
        if list(drawing.strands) != [sid]:
            drawing, sid = drawing.sub_drawing([drawing.strands[sid]]), 0
        drawing.reduce_turnbacks(sid)
        if sid not in drawing.strands or not drawing.strands[sid].pts:
            raise Inessential("curve bounds a disk")
        word = drawing.word_of(sid)
        relators, ab_rank = surf.presentation()
        if W.is_trivial(word, relators=relators, abelian_rank=ab_rank):
            raise Inessential("curve is nullhomotopic")
        self = object.__new__(cls)
        self.surface = surf
        self.drawing = drawing
        self.sid = sid
        self.weights = tuple(drawing.weights())
        key, forward_won = W.canonical_unoriented(
            word, relators=relators, abelian_rank=ab_rank)
        self.word_key = key
        basis = homology_basis(surf)
        fwd_cls = basis.class_of_word(word)
        if not fwd_cls.is_zero():
            first = next(c for c in fwd_cls.coords if c != 0)
            self.forward_canonical = first > 0
        else:
            fwd_key = W.canonical_cyclic(word, relators, ab_rank)
            bwd_key = W.canonical_cyclic(W.invert_word(word), relators, ab_rank)
            self.forward_canonical = fwd_key <= bwd_key
        self.cls = fwd_cls if self.forward_canonical else -fwd_cls
        self.peripheral = self.word_key in _peripheral_keys(surf)
        self._sep = None
        self._passages = None
        return self

    # -- identity ----------------------------------------------------------

    def key(self):
        return (self.surface.spec_name, self.word_key)

    def __eq__(self, other):
        return isinstance(other, Curve) and self.key() == other.key()

    def __hash__(self):
        return hash(self.key())

    def __repr__(self):
        return "Curve(%s, nc=%s)" % (self.surface.spec_name, list(self.weights))

    # -- properties ----------------------------------------------------------

    @property
    def complexity(self):
        return sum(self.weights)

    def is_separating(self):
        if self._sep is None:
            basis = homology_basis(self.surface)
            self._sep = basis.in_boundary_lattice(self.cls)
        return self._sep

    def passages(self):
        """(tri, in_side, out_side) of each chord of the strand, in order.

        The strand has no turnbacks, so this is the curve's reduced cyclic
        path in the dual graph of the triangulation.
        """
        if self._passages is None:
            d = self.drawing
            st = d.strands[self.sid]
            pts, n = st.pts, len(st.pts)
            side = d.side_of_point_in_tri
            self._passages = tuple(
                (tri, side(pts[i], tri), side(pts[(i + 1) % n], tri))
                for i, tri in enumerate(st.tris))
        return self._passages

    def oriented(self, forward=True):
        return OrientedCurve(self, forward)

    def to_json(self):
        return {"schema": "nscurves.curve/1",
                "surface": self.surface.spec_name,
                "weights": list(self.weights),
                "class": list(self.cls.coords),
                "peripheral": self.peripheral}

    def literal(self):
        return "nc:[%s]" % ",".join(str(w) for w in self.weights)


class OrientedCurve:
    __slots__ = ("curve", "forward")

    def __init__(self, curve, forward=True):
        self.curve = curve
        self.forward = bool(forward)

    def reversed(self):
        return OrientedCurve(self.curve, not self.forward)

    @property
    def cls(self) -> HomologyClass:
        return self.curve.cls if self.forward else -self.curve.cls

    def strand_forward(self):
        """Whether this orientation agrees with the stored drawing direction."""
        return self.forward == self.curve.forward_canonical

    def __eq__(self, other):
        return (isinstance(other, OrientedCurve)
                and self.curve == other.curve and self.forward == other.forward)

    def __hash__(self):
        return hash((self.curve, self.forward))


@lru_cache(maxsize=None)
def _peripheral_keys(surf):
    keys = set()
    relators, ab = surf.presentation()
    for ci in range(surf.boundary_count):
        d = fixtures.push_in_drawing(surf, ci)
        d.validate_embedded()   # no curve constructor checks it here
        key, _ = W.canonical_unoriented(d.word_of(0), relators, ab)
        keys.add(key)
    return frozenset(keys)


# -- constructors -------------------------------------------------------------


def curve_from_normal_coords(surface, weights) -> Curve:
    """Validated, canonicalized curve from normal coordinates.

    Raises MatchingViolation, Disconnected or Inessential; peripheral
    curves are legal values and only flagged.
    """
    surface = parse_surface_spec(surface)
    d = Drawing.from_normal_coords(surface, list(weights))
    if len(d.strands) != 1:
        raise Disconnected("coordinates trace %d components" % len(d.strands))
    return Curve._from_drawing(d, next(iter(d.strands)))


def curve_from_drawing(drawing, sid) -> Curve:
    """Curve of strand `sid` of a drawing.

    A drawing that holds `sid` alone becomes the curve's own: its
    turnbacks are removed in place, so the caller must not use it again.
    Any other drawing is left unchanged, and the strand is copied out.
    """
    return Curve._from_drawing(drawing, sid)


def torus_slope(surface, p, q) -> Curve:
    surface = parse_surface_spec(surface)
    if surface.genus != 1:
        raise WrongGenus("slope curves need genus one, got %s"
                         % surface.spec_name)
    from math import gcd
    if gcd(p, q) != 1 or (p, q) == (0, 0):
        raise NotCoprime("slope %d/%d is not primitive" % (p, q))
    d = fixtures.polygon_draw(surface,
                              fixtures.torus_slope_events(surface, p, q))
    return Curve._from_drawing(d, 0)


def boundary_parallel_curve(surface, cycle_index=0) -> Curve:
    surface = parse_surface_spec(surface)
    d = fixtures.push_in_drawing(surface, cycle_index)
    return Curve._from_drawing(d, 0)


def dual_curve(surface, polygon_side) -> Curve:
    d = fixtures.polygon_draw(
        surface, fixtures.single_chord_events(surface, polygon_side))
    return Curve._from_drawing(d, 0)


def canonical_form(curve: Curve) -> Curve:
    """Curves are canonicalized on construction; this is the identity."""
    return curve


# -- Dehn twists ----------------------------------------------------------------


def dehn_twist(curve: Curve, along: Curve, power: int) -> Curve:
    """Image of `curve` under the `power`-th twist along `along`.

    Positive powers follow the convention that twisting (1,0) along (0,1)
    n times yields the class (1,n) on genus-one surfaces.
    """
    if curve.surface is not along.surface:
        raise NSCurvesError("twist across different surfaces")
    if power == 0 or curve == along:
        return curve
    from .pairconfig import minimal_pair_drawing
    handed = POSITIVE_HANDEDNESS if power > 0 else -POSITIVE_HANDEDNESS
    out = curve
    for _ in range(abs(power)):
        d, sid_c, sid_t = minimal_pair_drawing(out, along)
        solo = d.twist_once(sid_c, sid_t, handed)
        out = Curve._from_drawing(solo, next(iter(solo.strands)))
    return out


# -- canonical generating sets and random curves ----------------------------------


@lru_cache(maxsize=None)
def twist_generators(surface):
    """Named twisting curves: handle duals plus handle-chain curves."""
    gens = []
    if surface.genus == 1:
        gens.append(("A", torus_slope(surface, 1, 0)))
        gens.append(("B", torus_slope(surface, 0, 1)))
    else:
        names = iter("ABCDEFGHIJKLMNOPQRSTUVWXYZ")
        for i in range(surface.genus):
            a_i, b_i = surface.polygon.handle_sides[i][0], \
                surface.polygon.handle_sides[i][1]
            gens.append((next(names), dual_curve(surface, b_i)))
            gens.append((next(names), dual_curve(surface, a_i)))
        for i in range(surface.genus - 1):
            d = fixtures.polygon_draw(
                surface, fixtures.chain_curve_events(surface, i))
            gens.append((next(names), Curve._from_drawing(d, 0)))
    return tuple(gens)


@lru_cache(maxsize=None)
def base_curves(surface):
    """Twist generators plus boundary push-ins: the random curves' seeds."""
    return tuple(c for _, c in twist_generators(surface)) + tuple(
        boundary_parallel_curve(surface, ci)
        for ci in range(surface.boundary_count))


def random_curve(surface, rng, max_twists=8, power_bound=2,
                 complexity_bound=400):
    """Seeded random curve: a twist word applied to a random base curve."""
    gens = twist_generators(surface)
    bases = base_curves(surface)
    for _ in range(64):
        cur = bases[rng.randrange(len(bases))]
        n = rng.randrange(max_twists + 1)
        ok = True
        for _ in range(n):
            _, t = gens[rng.randrange(len(gens))]
            p = rng.choice([k for k in range(-power_bound, power_bound + 1)
                            if k != 0])
            cur = dehn_twist(cur, t, p)
            if cur.complexity > complexity_bound:
                ok = False
                break
        if ok:
            return cur
    raise NSCurvesError("random curve generation kept exceeding bounds")


def random_nonseparating(surface, rng, **kw):
    for _ in range(128):
        c = random_curve(surface, rng, **kw)
        if not c.is_separating() and not c.peripheral:
            return c
    raise NSCurvesError("could not sample a nonseparating curve")


# -- literals ----------------------------------------------------------------------


_TW_TOKEN = re.compile(r"([A-Z])(-?\d+)?$")


def parse_curve(literal, surface) -> Curve:
    """Parse 'nc:[..]', 'pq:p/q' and 'tw:<word>@<base>' literals."""
    surface = parse_surface_spec(surface)
    s = literal.strip()
    if s.startswith("nc:"):
        body = s[3:].strip()
        if not (body.startswith("[") and body.endswith("]")):
            raise NSCurvesError("bad nc literal %r" % literal)
        weights = [int(x) for x in body[1:-1].split(",") if x.strip() != ""]
        return curve_from_normal_coords(surface, weights)
    if s.startswith("pq:"):
        body = s[3:]
        if "/" not in body:
            raise NSCurvesError("bad pq literal %r" % literal)
        p, q = body.split("/")
        return torus_slope(surface, int(p), int(q))
    if s.startswith("tw:"):
        body = s[3:]
        if "@" not in body:
            raise NSCurvesError("tw literal needs '@<base>'")
        word, base = body.split("@", 1)
        cur = parse_curve(base, surface)
        gens = dict(twist_generators(surface))
        for token in word.split("."):
            if not token:
                continue
            m = _TW_TOKEN.match(token)
            if not m or m.group(1) not in gens:
                raise NSCurvesError("bad twist token %r" % token)
            p = int(m.group(2)) if m.group(2) else 1
            cur = dehn_twist(cur, gens[m.group(1)], p)
        return cur
    if s.startswith("bd:"):
        return boundary_parallel_curve(surface, int(s[3:]))
    raise NSCurvesError("unknown curve literal %r" % literal)
