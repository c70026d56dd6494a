"""Isotopy classes of simple closed curves.

A Curve is built from its reduced cyclic path in the dual graph, the
cyclic free reduction of a closed walk's darts (`_reduced_path`):
fixture curves, glued bicorn curves (`curve_from_walk`, memoized by
their reduced path) and Dehn twist results make their drawing the first
time it is read, a twist result by replaying its drawn laps.  Curves
given as drawings (normal coordinates, intersection witnesses,
complement curves, drawn twist laps) reduce their strand's darts
(`curve_from_drawing`), whose backtracks are its turnbacks, so path and
drawing are those that `Drawing.reduce_turnbacks` gives.  On a closed
surface a path is reduced in the surface punctured at its vertex, as
that strand is, so the weights are the strand's.  A curve's drawing
holds its reduced strand alone, as strand 0, with its points numbered
in edge order, so `Drawing.content()` is the drawn strand, (edge, rank
on that edge, triangle) per point, and the memos of twist laps and pair
drawings key by it.  Twist images are memoized at two levels.  First by
the identity of their source and twisting curve, since equal sources can
give images with different drawings; then, on a miss, the spliced path
and the fields it decides by the two exact paths and the power, so a
source on an equal path gets an image of its own lineage unspliced.
Identity of isotopy classes is decided through the conjugacy class of the
dual word (exact for free groups when the surface has boundary, via
small-cancellation reduction for closed surfaces of genus >= 2, and
through homology for the closed torus); the normal coordinates are the
exported representation.  All curves are immutable.
"""

from __future__ import annotations

import re
from functools import cmp_to_key, lru_cache

from . import fixtures, words as W
from .drawing import Drawing, parting, path_weights
from .errors import (Disconnected, Inessential, InternalInvariantError,
                     NSCurvesError, NotCoprime, WrongGenus)
from .homology import homology_basis
from .surface import parse_surface_spec

# handedness value that realizes the positive twist convention:
# twisting (1,0) along (0,1) with power n gives class (1,n)
POSITIVE_HANDEDNESS = -1


class Curve:
    __slots__ = ("surface", "weights", "drawing", "word_key",
                 "forward_canonical", "cls", "peripheral",
                 "_passages", "_twist")

    def __init__(self, *args, **kwargs):
        raise NSCurvesError("use the curve constructors, not Curve() directly")

    @classmethod
    def _from_path(cls, surf, path, twist=None, fields=None):
        """Curve of the reduced cyclic dual path of an essential simple
        closed curve; draws nothing.

        On a closed surface the path is reduced in the surface punctured
        at its vertex.  `twist` is the (curve, along, power) whose drawn
        laps `_draw` replays when the drawing is first read; without one,
        `_draw` draws the path.  `fields` are the path's `_path_fields`,
        if the caller has them.
        """
        if fields is None:
            fields = _path_fields(surf, path)
        self = object.__new__(cls)
        self.surface = surf
        (self.weights, self.word_key, self.forward_canonical, self.cls,
         self.peripheral) = fields
        self._passages = tuple(path)
        self._twist = twist
        return self

    def __getattr__(self, name):
        # only the drawing of a path-built curve is ever unset
        if name != "drawing":
            raise AttributeError(name)
        self._draw()
        return object.__getattribute__(self, name)

    def _draw(self):
        """Draw this path-built curve and keep the drawing.

        A curve of no twist is drawn from its path (`Drawing.from_path`).
        A twist result replays the drawn laps of its twist.  Sources that
        are path-built twist results are drawn first, oldest first.  The
        replay must agree with the path on the weights, the word key, the
        class and the orientation: the drawn strand runs the way the path
        does.
        """
        if self._twist is None:
            self.drawing = Drawing.from_path(self.surface, self._passages)
            return
        chain = [self]
        while chain[-1]._twist[0]._twist is not None:
            chain.append(chain[-1]._twist[0])
        for curve in reversed(chain):
            drawn = _drawn_twist(*curve._twist)
            if (drawn.weights, drawn.word_key, drawn.cls,
                    drawn.forward_canonical) \
                    != (curve.weights, curve.word_key, curve.cls,
                        curve.forward_canonical):
                raise InternalInvariantError(
                    "drawn twist %r disagrees with its path" % (drawn,))
            curve.drawing = drawn.drawing
            curve._twist = None

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
        return self.cls.in_boundary_lattice()

    def passages(self):
        """The curve's reduced cyclic path in the dual graph.

        Each passage is (tri, in_side, out_side).  It is the path the
        curve was built on, which its strand runs along, though a twist
        result's replay may draw it from another start.
        """
        return self._passages

    def to_json(self):
        return {"schema": "nscurves.curve/1",
                "surface": self.surface.spec_name,
                "weights": list(self.weights),
                "class": list(self.cls.coords),
                "peripheral": self.peripheral}

    def literal(self):
        return "nc:[%s]" % ",".join(str(w) for w in self.weights)


def _path_word(surf, path):
    """Dual word of a cyclic dual path, as `Drawing.word_of` reads it."""
    return [letter for letter in (surf.crossing_letter(tri, s_out)
                                  for tri, _, s_out in path) if letter]


def _path_fields(surf, path, word=None):
    """The fields of the curve on a reduced cyclic dual path that the path
    decides: (weights, word key, forward_canonical, class, peripheral).

    The path runs forward, in the canonical orientation, when its class
    has a positive first nonzero coordinate (or, for a class of zero,
    when its cyclic word is the smaller); the class is that of the
    canonical orientation.  `word` is the path's dual word
    (`_path_word`), if the caller has read it.
    """
    weights = tuple(path_weights(surf, path))
    if word is None:
        word = _path_word(surf, path)
    relators, ab_rank = surf.presentation()
    key, forward_won = W.canonical_unoriented(
        word, relators=relators, abelian_rank=ab_rank)
    fwd_cls = homology_basis(surf).class_of_word(word)
    if not fwd_cls.is_zero():
        forward = next(c for c in fwd_cls.coords if c != 0) > 0
    else:
        forward = forward_won
    return (weights, key, forward, fwd_cls if forward else -fwd_cls,
            key in _peripheral_keys(surf))


def _is_trivial(surf, word):
    """Whether a cyclic dual word is trivial in the surface."""
    relators, ab_rank = surf.presentation()
    return W.is_trivial(word, relators=relators, abelian_rank=ab_rank)


def _reduced_path(glue, darts):
    """Reduced cyclic dual path of a closed walk in the dual graph, as a
    tuple.

    The walk is read as its darts, the (triangle, side) by which each
    passage leaves, dart k through point k + 1; `glue` maps a dart to
    its inverse.  Cyclic free reduction cancels each dart followed by its
    inverse, across the wrap too.  Read from the last dart on, the path
    starts at the first point left, as `Drawing.reduce_turnbacks` does;
    each passage enters by the inverse of the dart before it.
    """
    out = []
    for dart in darts[-1:] + darts[:-1]:
        if out and glue[out[-1]] == dart:
            out.pop()
        else:
            out.append(dart)
    lo, hi = 0, len(out)
    while hi - lo >= 2 and glue[out[hi - 1]] == out[lo]:
        lo += 1
        hi -= 1
    out = out[lo + 1:hi] + out[lo:lo + 1]
    return tuple([(tri, glue[out[k - 1]][1], s_out)
                  for k, (tri, s_out) in enumerate(out)])


@lru_cache(maxsize=None)
def _peripheral_keys(surf):
    relators, ab = surf.presentation()
    return frozenset(W.canonical_unoriented(
        _path_word(surf, fixtures.push_in_path(surf, ci)), relators, ab)[0]
        for ci in range(surf.boundary_count))


# -- bounded memos ------------------------------------------------------------


def memo_store(memo, cap, key, value):
    """Store `value` under `key`, evicting the oldest entries of `memo` first.

    The bounded memos of the package are plain dicts, which keep their
    insertion order; after the store `memo` holds at most `cap` entries.
    """
    while len(memo) >= cap:
        del memo[next(iter(memo))]
    memo[key] = value


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
    return curve_from_drawing(d)


def curve_from_drawing(drawing) -> Curve:
    """Curve of a drawing of strand 0 alone, checked for embeddedness.

    For the curves given as drawings: normal coordinates, intersection
    witnesses, complement curves and the laps of drawn twists.  The
    strand's turnbacks are the backtracks of its darts, so its path is
    their cyclic free reduction (`_reduced_path`).  The drawing is left
    unchanged; the curve owns it if no dart cancels, and otherwise draws
    its path when its drawing is read.  An inessential strand raises
    `Inessential`: "bounds a disk" when no passage is left,
    "nullhomotopic" when the word of what is left is trivial.
    """
    if list(drawing.strands) != [0]:
        raise InternalInvariantError(
            "a curve needs a drawing of strand 0 alone, not of strands %s"
            % list(drawing.strands))
    drawing.validate_embedded()
    surface = drawing.surface
    darts = [(tri, s_out) for tri, _, s_out in drawing.passages(0)]
    path = _reduced_path(surface.glue, darts)
    if not path:
        raise Inessential("curve bounds a disk")
    word = _path_word(surface, path)
    if _is_trivial(surface, word):
        raise Inessential("curve is nullhomotopic")
    curve = Curve._from_path(surface, path,
                             fields=_path_fields(surface, path, word))
    if len(path) == len(darts):
        curve.drawing = drawing
    return curve


def curve_from_walk(surface, darts):
    """Curve of a closed walk in the dual graph, or None if inessential.

    The walk is a cyclic list of darts, the (triangle, side) by which it
    leaves each triangle, along a simple closed curve.  Its turnbacks are
    its backtracks, so its reduced path is that of the turnback-reduced
    strand; the walk is inessential if the path is empty or its word
    trivial.  Outcomes are memoized by the surface and the reduced path
    itself, so a hit is the curve that `Curve._from_path` builds on that
    path, its passages and the drawing it draws included.
    """
    path = _reduced_path(surface.glue, darts)
    key = (surface, path)
    if key in _WALK_CACHE:
        return _WALK_CACHE[key]
    curve = None
    if path:
        word = _path_word(surface, path)
        if not _is_trivial(surface, word):
            curve = Curve._from_path(surface, path,
                                     fields=_path_fields(surface, path, word))
    memo_store(_WALK_CACHE, _WALK_CACHE_SIZE, key, curve)
    return curve


# Curves of closed walks by (surface, reduced path), None for an
# inessential walk; oldest entry evicted first.  The path, not its least
# rotation, is the key, since rotations draw different drawings.  The
# jobs of a `bicorn` benchmark round glue 1,278 walks, of 315 distinct
# reduced paths counted job by job.
_WALK_CACHE_SIZE = 4096
_WALK_CACHE = {}


def torus_slope(surface, p, q) -> Curve:
    surface = parse_surface_spec(surface)
    if surface.genus != 1:
        raise WrongGenus("slope curves need genus one, got %s"
                         % surface.spec_name)
    from math import gcd
    if gcd(p, q) != 1 or (p, q) == (0, 0):
        raise NotCoprime("slope %d/%d is not primitive" % (p, q))
    return _polygon_curve(surface, fixtures.torus_slope_events(surface, p, q))


def boundary_parallel_curve(surface, cycle_index=0) -> Curve:
    surface = parse_surface_spec(surface)
    return Curve._from_path(surface,
                            fixtures.push_in_path(surface, cycle_index))


def dual_curve(surface, polygon_side) -> Curve:
    return _polygon_curve(surface, [polygon_side])


def _polygon_curve(surface, sides):
    """Curve leaving the defining polygon by `sides` in turn."""
    return Curve._from_path(surface, fixtures.polygon_path(surface, sides))


# -- Dehn twists ----------------------------------------------------------------


def dehn_twist(curve: Curve, along: Curve, power: int) -> Curve:
    """Image of `curve` under the `power`-th twist along `along`.

    Positive powers follow the convention that twisting (1,0) along (0,1)
    n times yields the class (1,n) on genus-one surfaces.  The image is
    spliced on the paths and draws nothing until its drawing is read.
    Two memos serve a repeated twist.  The first keys by the identity of
    `curve` and `along`, so a repeated call returns the image object that
    the first call built.  On a miss, the second keys by the surface, the
    two paths and the power, and holds the spliced path with the fields
    it decides (`_path_fields`), so an equal-path source gets a new image
    of its own lineage without a splice.
    """
    if curve.surface is not along.surface:
        raise NSCurvesError("twist across different surfaces")
    if power == 0 or curve == along:
        return curve
    key = (id(curve), id(along), power)
    got = _TWIST_CACHE.get(key)
    if got is not None and got[0] is curve and got[1] is along:
        return got[2]
    surf = curve.surface
    splice_key = (surf, curve.passages(), along.passages(), power)
    spliced = _SPLICE_CACHE.get(splice_key)
    if spliced is None:
        path = _twisted_path(curve, along, power)
        spliced = (path, _path_fields(surf, path))
        memo_store(_SPLICE_CACHE, _SPLICE_CACHE_SIZE, splice_key, spliced)
    image = Curve._from_path(surf, spliced[0], (curve, along, power),
                             fields=spliced[1])
    memo_store(_TWIST_CACHE, _TWIST_CACHE_SIZE, key, (curve, along, image))
    return image


# Twist images by (id of the source, id of the twisting curve, power),
# each stored with both curves, which keeps their ids from being reused
# while the entry lives; oldest entry evicted first.  Equal curves are not
# interchangeable here: a path-built image replays its drawing from its
# own lineage, so equal sources can give images with different drawings.
# A suite round of --samples 15 makes 1,383 twist calls, of 525 distinct
# (source, along, power) triples by identity.
_TWIST_CACHE_SIZE = 4096
_TWIST_CACHE = {}


# Spliced twist paths by (surface, source path, twisting path, power),
# each with its `_path_fields`; oldest entry evicted first.  It holds no
# curve, so it keeps no lineage or drawing alive.  The key is the exact
# paths, not their least rotations or the curves' classes: a rotated
# source gives a rotated image path, which moves merged drawings and the
# order of bicorns.  The 525 identity triples of a --samples 15 suite
# round hold 384 distinct path triples, and the 582 splices of a `ball`
# benchmark round 364.
_SPLICE_CACHE_SIZE = 4096
_SPLICE_CACHE = {}


# Twist laps by (surface, drawing content of the source, drawing content of
# the twisting curve, handedness), oldest entry evicted first.  The
# verification suite at 50 samples draws under a thousand distinct laps.
_LAP_CACHE_SIZE = 4096
_LAP_CACHE = {}


def _drawn_twist(curve, along, power):
    """Twist image drawn in |power| laps of `Drawing.twist_once`.

    Each lap is memoized under the surface, the drawing contents of its
    source and of `along`, and the handedness.  A hit returns the
    immutable curve that the lap drew before.
    """
    from .pairconfig import minimal_pair_drawing
    handed = POSITIVE_HANDEDNESS if power > 0 else -POSITIVE_HANDEDNESS
    out, along_content = curve, along.drawing.content()
    for _ in range(abs(power)):
        key = (out.surface, out.drawing.content(), along_content, handed)
        lap = _LAP_CACHE.get(key)
        if lap is None:
            d, sid_c, sid_t = minimal_pair_drawing(out, along)
            solo = d.twist_once(sid_c, sid_t, handed)
            lap = curve_from_drawing(solo)
            memo_store(_LAP_CACHE, _LAP_CACHE_SIZE, key, lap)
        out = lap
    return out


def _twisted_path(curve, along, power):
    """Reduced cyclic dual path of the twist image, spliced on the paths;
    on a closed surface, those of the surface punctured at its vertex.

    A path is read as its darts (`_reduced_path`).  At each crossing run
    that a's path shares with c's, in either direction of c, |power|
    copies of c's loop from the start of the run go in before a's passage
    there: as they run iff a starts the run on their left and the power
    is positive, or neither; inverted otherwise.  Cyclic free reduction
    then gives the geodesic.
    """
    from .pairconfig import linked_runs
    glue = curve.surface.glue
    pa, pc = curve.passages(), along.passages()
    paths = (pc, [(tri, s_out, s_in) for tri, s_in, s_out in reversed(pc)])
    runs = {}   # a's passage -> [(c's path, its passage, left)]
    for back, i, j, left in linked_runs(pa, pc):
        runs.setdefault(i, []).append((paths[back], j, left))
    spliced = []
    for i, (tri, _, s_out) in enumerate(pa):
        for path, j, left in _crossing_order(runs.get(i, [])):
            loop = [(t, s) for t, _, s in path[j:] + path[:j]]
            if left != (power > 0):
                loop = [glue[dart] for dart in reversed(loop)]
            spliced.extend(loop * abs(power))
        spliced.append((tri, s_out))
    return _reduced_path(glue, spliced)


def _crossing_order(runs):
    """Runs that start at one passage of a, in the order a crosses them.

    Their strands of c leave the triangle side by side, with a on the
    same side of all of them, so a crosses the one next to it first.  Two
    strands keep their order until their paths part (`parting`).
    """
    def cmp(x, y):
        (px, jx, left), (py, jy, _) = x, y
        return -1 if parting(px, jx + 1, py, jy + 1)[1] == left else 1

    return sorted(runs, key=cmp_to_key(cmp)) if len(runs) > 1 else runs


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
            gens.append((next(names), _polygon_curve(
                surface, fixtures.chain_curve_events(surface, i))))
    return tuple(gens)


@lru_cache(maxsize=None)
def base_curves(surface):
    """Twist generators plus boundary push-ins: the random curves' seeds."""
    return tuple(c for _, c in twist_generators(surface)) + tuple(
        boundary_parallel_curve(surface, ci)
        for ci in range(surface.boundary_count))


# the powers of the twists in a random curve's twist word
_TWIST_POWERS = (-2, -1, 1, 2)


def random_curve(surface, rng, max_twists=8, complexity_bound=400):
    """Seeded random curve: a twist word applied to a random base curve.

    The base curve and every twist on the way must stay within
    `complexity_bound`; a word that leaves it is drawn again.
    """
    gens = twist_generators(surface)
    bases = base_curves(surface)
    for _ in range(64):
        cur = bases[rng.randrange(len(bases))]
        for _ in range(rng.randrange(max_twists + 1)):
            if cur.complexity > complexity_bound:
                break
            _, t = gens[rng.randrange(len(gens))]
            cur = dehn_twist(cur, t, rng.choice(_TWIST_POWERS))
        if cur.complexity <= complexity_bound:
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


def _literal_ints(parts, literal):
    try:
        return [int(x) for x in parts]
    except ValueError:
        raise NSCurvesError("bad curve literal %r" % literal) from None


def parse_curve(literal, surface) -> Curve:
    """Parse 'nc:[..]', 'pq:p/q', 'tw:<word>@<base>' and 'bd:k' literals.

    `bd:k` is the push-in of boundary cycle k, 0 <= k < boundary count.
    The base of a `tw:` literal is a literal or the name of a twist
    generator, so `tw:@A` is generator A and `tw:B.C-1@A` twists it.
    """
    surface = parse_surface_spec(surface)
    s = literal.strip()
    if s.startswith("nc:"):
        body = s[3:].strip()
        if not (body.startswith("[") and body.endswith("]")):
            raise NSCurvesError("bad nc literal %r" % literal)
        weights = _literal_ints(body[1:-1].split(","), literal)
        return curve_from_normal_coords(surface, weights)
    if s.startswith("pq:"):
        pq = _literal_ints(s[3:].split("/"), literal)
        if len(pq) != 2:
            raise NSCurvesError("bad pq literal %r" % literal)
        return torus_slope(surface, *pq)
    if s.startswith("tw:"):
        body = s[3:]
        if "@" not in body:
            raise NSCurvesError("tw literal needs '@<base>'")
        word, base = body.split("@", 1)
        gens = dict(twist_generators(surface))
        cur = gens[base] if base in gens else parse_curve(base, surface)
        for token in word.split(".") if word else ():
            m = _TW_TOKEN.match(token)
            if not m or m.group(1) not in gens:
                raise NSCurvesError("bad twist token %r" % token)
            p = int(m.group(2)) if m.group(2) else 1
            cur = dehn_twist(cur, gens[m.group(1)], p)
        return cur
    if s.startswith("bd:"):
        k, = _literal_ints([s[3:]], literal)
        if not 0 <= k < surface.boundary_count:
            raise NSCurvesError("%s has no boundary cycle %d"
                                % (surface.spec_name, k))
        return boundary_parallel_curve(surface, k)
    raise NSCurvesError("unknown curve literal %r" % literal)
