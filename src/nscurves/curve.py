"""Isotopy classes of simple closed curves.

A Curve is built from a reduced solo drawing, once per drawn content,
or, for a Dehn twist on a surface with boundary, from its reduced cyclic
path in the dual graph; such a curve makes its drawing the first time the
drawing is read.
Identity of isotopy classes is decided through the conjugacy class of the
dual word (exact for free groups when the surface has boundary, via
small-cancellation reduction for closed surfaces of genus >= 2, and
through homology for the closed torus); the normal coordinates are the
exported representation.  All curves are immutable.
"""

from __future__ import annotations

import re
from array import array
from functools import cmp_to_key, lru_cache

from . import fixtures, words as W
from .drawing import Drawing, path_weights
from .errors import (Disconnected, Inessential, InternalInvariantError,
                     NSCurvesError, NotCoprime, WrongGenus)
from .homology import homology_basis
from .surface import parse_surface_spec

# handedness value that realizes the positive twist convention:
# twisting (1,0) along (0,1) with power n gives class (1,n)
POSITIVE_HANDEDNESS = -1


class Curve:
    __slots__ = ("surface", "weights", "drawing", "sid", "word_key",
                 "forward_canonical", "cls", "peripheral",
                 "_passages", "_twist", "_signature")

    def __init__(self, *args, **kwargs):
        raise NSCurvesError("use the curve constructors, not Curve() directly")

    @classmethod
    def _from_drawing(cls, drawing, sid):
        """Curve of strand `sid`, built once per solo drawn content.

        The memo key is the surface and the full content of the solo
        drawing before its turnbacks go, so a hit returns the immutable
        curve that a fresh build of it returned, and leaves the drawing
        unused.  An inessential strand raises `Inessential` with the same
        message on every call; a drawing that fails a check is not
        remembered, so it raises on every call.
        """
        if list(drawing.strands) != [sid]:
            drawing, sid = drawing.sub_drawing([drawing.strands[sid]]), 0
        key = (drawing.surface, drawing.content())
        got = _CURVE_CACHE.get(key)
        if got is None:
            try:
                got = cls._reduced(drawing, sid)
            except Inessential as exc:
                got = Inessential(*exc.args)
            memo_store(_CURVE_CACHE, _CURVE_CACHE_SIZE, key, got)
        if isinstance(got, Inessential):
            raise Inessential(*got.args)
        return got

    @classmethod
    def _reduced(cls, drawing, sid):
        """Curve that owns the solo drawing, its turnbacks removed."""
        surf = drawing.surface
        drawing.reduce_turnbacks(sid)
        if sid not in drawing.strands or not drawing.strands[sid].pts:
            raise Inessential("curve bounds a disk")
        word = drawing.word_of(sid)
        relators, ab_rank = surf.presentation()
        if W.is_trivial(word, relators=relators, abelian_rank=ab_rank):
            raise Inessential("curve is nullhomotopic")
        self = object.__new__(cls)
        self.drawing = drawing
        self.sid = sid
        self.weights = tuple(drawing.weights())
        self.forward_canonical = self._identify(surf, word)
        self._passages = None
        self._twist = None
        self._signature = None
        return self

    @classmethod
    def _from_path(cls, surf, path, twist):
        """Curve of a reduced cyclic dual path; draws nothing.

        Only valid where `pairconfig.paths_decide` holds, so that the path
        is the curve's geodesic.  `twist` is the (curve, along, power)
        whose drawn laps `_draw` replays when the drawing is first read.
        """
        weights = path_weights(surf, path)
        word = [letter for letter in (surf.crossing_letter(tri, s_out)
                                      for tri, _, s_out in path) if letter]
        self = object.__new__(cls)
        self.weights = tuple(weights)
        self._identify(surf, word)
        self._passages = tuple(path)
        self._twist = twist
        self._signature = None
        return self

    def _identify(self, surf, word):
        """Set the fields that the dual word decides.

        Returns whether the word runs in the canonical orientation, the
        one whose class has a positive first nonzero coordinate (or, for
        a class of zero, whose cyclic word is the smaller).
        """
        relators, ab_rank = surf.presentation()
        self.surface = surf
        key, forward_won = W.canonical_unoriented(
            word, relators=relators, abelian_rank=ab_rank)
        self.word_key = key
        fwd_cls = homology_basis(surf).class_of_word(word)
        if not fwd_cls.is_zero():
            forward = next(c for c in fwd_cls.coords if c != 0) > 0
        else:
            forward = forward_won
        self.cls = fwd_cls if forward else -fwd_cls
        self.peripheral = key in _peripheral_keys(surf)
        return forward

    def __getattr__(self, name):
        # only the slots of a path-built twist result are ever unset
        if name not in ("drawing", "sid", "forward_canonical"):
            raise AttributeError(name)
        self._draw()
        return object.__getattribute__(self, name)

    def _draw(self):
        """Replay the drawn laps of this twist result and keep the drawing.

        The laps are those the drawn twist runs, so the realization is the
        one every eager twist gives.  Sources that are path-built twist
        results are drawn first, oldest first.  The replay must agree with
        the path on the weights, the word key and the class.
        """
        chain = [self]
        while chain[-1]._twist[0]._twist is not None:
            chain.append(chain[-1]._twist[0])
        for curve in reversed(chain):
            drawn = _drawn_twist(*curve._twist)
            if (drawn.weights, drawn.word_key, drawn.cls) \
                    != (curve.weights, curve.word_key, curve.cls):
                raise InternalInvariantError(
                    "drawn twist %r disagrees with its path" % (drawn,))
            curve.drawing = drawn.drawing
            curve.sid = drawn.sid
            curve.forward_canonical = drawn.forward_canonical
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

        Each passage is (tri, in_side, out_side).  A drawn curve lists the
        chords of its strand, which has no turnbacks, in order.  A
        path-built twist result keeps the path it was spliced on: the same
        cyclic path as its strand, possibly from another start.
        """
        if self._passages is None:
            self._passages = self.drawing.passages(self.sid)
        return self._passages

    def drawn_signature(self):
        """The drawn strand as (edge, rank on that edge, triangle) per point.

        The triples run in strand order, packed into bytes.  Every point of
        a curve's drawing lies on its strand, so the signature fixes the
        drawing up to the names of its points; equal curves may still have
        different signatures.
        """
        if self._signature is None:
            d = self.drawing
            st = d.strands[self.sid]
            if len(d.pt_edge) != len(st.pts):
                raise InternalInvariantError(
                    "curve drawing has points off its strand")
            rank = {p: k for pts in d.edge_pts.values()
                    for k, p in enumerate(pts)}
            flat = array("i")
            for p, tri in zip(st.pts, st.tris):
                flat.extend((d.pt_edge[p], rank[p], tri))
            self._signature = flat.tobytes()
        return self._signature

    def to_json(self):
        return {"schema": "nscurves.curve/1",
                "surface": self.surface.spec_name,
                "weights": list(self.weights),
                "class": list(self.cls.coords),
                "peripheral": self.peripheral}

    def literal(self):
        return "nc:[%s]" % ",".join(str(w) for w in self.weights)


@lru_cache(maxsize=None)
def _peripheral_keys(surf):
    keys = set()
    relators, ab = surf.presentation()
    for ci in range(surf.boundary_count):
        d = Drawing.from_path(surf, fixtures.push_in_path(surf, ci))
        d.validate_embedded()   # no curve constructor checks it here
        key, _ = W.canonical_unoriented(d.word_of(0), relators, ab)
        keys.add(key)
    return frozenset(keys)


# -- bounded memos ------------------------------------------------------------


def memo_store(memo, cap, key, value):
    """Store `value` under `key`, evicting the oldest entries of `memo` first.

    The bounded memos of the package are plain dicts, which keep their
    insertion order; after the store `memo` holds at most `cap` entries.
    """
    while len(memo) >= cap:
        del memo[next(iter(memo))]
    memo[key] = value


# Curves, or the `Inessential` raised, by (surface, content of the solo
# drawing before turnback reduction), oldest entry evicted first.  The
# verification suite at 50 samples builds 3,614 curves from 1,213 distinct
# drawings in one process.
_CURVE_CACHE_SIZE = 4096
_CURVE_CACHE = {}


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
    Curves are memoized by drawn content: on a hit the drawing passed in
    is left unused, and the curve built from an equal drawing before is
    returned.
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
    return _polygon_curve(surface, fixtures.torus_slope_events(surface, p, q))


def boundary_parallel_curve(surface, cycle_index=0) -> Curve:
    surface = parse_surface_spec(surface)
    d = Drawing.from_path(surface, fixtures.push_in_path(surface, cycle_index))
    return Curve._from_drawing(d, 0)


def dual_curve(surface, polygon_side) -> Curve:
    return _polygon_curve(surface, [polygon_side])


def _polygon_curve(surface, sides):
    """Curve leaving the defining polygon by `sides` in turn."""
    d = Drawing.from_path(surface, fixtures.polygon_path(surface, sides))
    return Curve._from_drawing(d, 0)


# -- Dehn twists ----------------------------------------------------------------


def dehn_twist(curve: Curve, along: Curve, power: int) -> Curve:
    """Image of `curve` under the `power`-th twist along `along`.

    Positive powers follow the convention that twisting (1,0) along (0,1)
    n times yields the class (1,n) on genus-one surfaces.  Where the dual
    paths decide curves, the image is spliced on the paths and draws
    nothing until its drawing is read; on closed surfaces it is drawn.
    """
    if curve.surface is not along.surface:
        raise NSCurvesError("twist across different surfaces")
    if power == 0 or curve == along:
        return curve
    from .pairconfig import paths_decide
    if not paths_decide(curve.surface):
        return _drawn_twist(curve, along, power)
    return Curve._from_path(curve.surface, _twisted_path(curve, along, power),
                            (curve, along, power))


# Twist laps by (surface, drawn signature of the source, drawn signature of
# the twisting curve, handedness), oldest entry evicted first.  The
# verification suite at 50 samples draws under a thousand distinct laps.
_LAP_CACHE_SIZE = 4096
_LAP_CACHE = {}


def _drawn_twist(curve, along, power):
    """Twist image drawn in |power| laps of `Drawing.twist_once`.

    Each lap is memoized under the surface, the drawn signatures of its
    source and of `along`, and the handedness.  That key is exact: the
    overlay renumbers points in edge order, so the overlay, its bigon
    removal, the lap and the reduced lap curve depend on the key alone,
    and a hit returns the immutable curve that the lap drew before.
    """
    from .pairconfig import minimal_pair_drawing
    handed = POSITIVE_HANDEDNESS if power > 0 else -POSITIVE_HANDEDNESS
    out = curve
    for _ in range(abs(power)):
        key = (out.surface, out.drawn_signature(), along.drawn_signature(),
               handed)
        lap = _LAP_CACHE.get(key)
        if lap is None:
            d, sid_c, sid_t = minimal_pair_drawing(out, along)
            solo = d.twist_once(sid_c, sid_t, handed)
            lap = Curve._from_drawing(solo, next(iter(solo.strands)))
            memo_store(_LAP_CACHE, _LAP_CACHE_SIZE, key, lap)
        out = lap
    return out


def _twisted_path(curve, along, power):
    """Reduced cyclic dual path of the twist image, spliced on the paths.

    A path is read as its darts, the (triangle, side) by which each
    passage leaves; `surface.glue` maps a dart to its inverse.  At each
    crossing run that a's path shares with c's, in either direction of c,
    |power| copies of c's loop from the start of the run go in before a's
    passage there: as they run iff a starts the run on their left and
    the power is positive, or neither; inverted otherwise.  Cyclic free
    reduction then gives the geodesic.
    """
    from .pairconfig import linked_runs, reversed_path
    glue = curve.surface.glue
    pa = curve.passages()
    runs = {}   # a's passage -> [(c's path, its passage, left)]
    for pc in (along.passages(), reversed_path(along.passages())):
        for i, j, left in linked_runs(pa, pc):
            runs.setdefault(i, []).append((pc, j, left))
    spliced = []
    for i, (tri, _, s_out) in enumerate(pa):
        for pc, j, left in _crossing_order(runs.get(i, [])):
            loop = [(t, s) for t, _, s in pc[j:] + pc[:j]]
            if left != (power > 0):
                loop = [glue[dart] for dart in reversed(loop)]
            spliced.extend(loop * abs(power))
        spliced.append((tri, s_out))
    out = []
    for dart in spliced:
        if out and glue[out[-1]] == dart:
            out.pop()
        else:
            out.append(dart)
    lo, hi = 0, len(out)
    while hi - lo >= 2 and glue[out[hi - 1]] == out[lo]:
        lo += 1
        hi -= 1
    out = out[lo:hi]
    path = []
    for k, (tri, s_out) in enumerate(out):
        _, s_in = glue[out[k - 1]]
        path.append((tri, s_in, s_out))
    return path


def _crossing_order(runs):
    """Runs that start at one passage of a, in the order a crosses them.

    Their strands of c leave the triangle side by side, with a on the
    same side of all of them, so a crosses the one next to it first.  Two
    strands keep their order until their paths part, in a triangle that
    both enter by some side s; the one that leaves by s + 2 is the left.
    """
    def cmp(x, y):
        (px, jx, left), (py, jy, _) = x, y
        n = len(px)
        for k in range(1, n + 1):
            step_x, step_y = px[(jx + k) % n], py[(jy + k) % n]
            if step_x != step_y:
                _, s, out_x = step_x
                return -1 if (out_x == (s + 2) % 3) == left else 1
        raise InternalInvariantError("two strands of a curve never part")

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
