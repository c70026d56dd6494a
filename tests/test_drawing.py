"""The crossing kernel of `Drawing.geometry`: exact order along chords;
the combinatorial checks on solo strands against that kernel."""

import random
from fractions import Fraction
from itertools import combinations, product
from types import SimpleNamespace

import pytest

from nscurves.arrangement import Arrangement, face_data
from nscurves.bicorn import enumerate_bicorns, triple_config
from nscurves import curve as C
from nscurves.curve import curve_from_drawing
from nscurves import drawing as D, words as W
from nscurves.drawing import (Chord, Crossing, Drawing, _cross_chords,
                              _event_rows, _interleaved_pairs,
                              _order_on_chord, _stored_places,
                              assemble_path_strand, overlay)
from nscurves.errors import InternalInvariantError
from nscurves.pairconfig import draw_pair, minimal_pair_drawing
from nscurves.surface import parse_surface_spec
from nscurves.verify import sample_curve, sample_pair
from conftest import SURFACE_SPECS, sample_curves, seeded


def _chord(sid, ra, rb):
    ch = Chord(sid, 0, 0, None, None)
    ch.ra, ch.rb = ra, rb
    return ch


def _hits_at(ch, positions):
    """Hits on `ch` at exact x = num/den, in the kernel's hit format."""
    other = _chord(-1, None, None)
    hits = []
    for num, den in positions:
        x = num / den
        hits.append((x if ch.ra < ch.rb else -x,
                     Crossing(len(hits), 0, ch, other, num, den, 1), False))
    return hits


def test_order_on_chord_resolves_equal_floats_exactly():
    small, third = (2 ** 60, 3 * 2 ** 60 + 1), (1, 3)
    assert small[0] / small[1] == 1 / 3   # the floats tie, the rationals not
    for ch, want in ((_chord(0, 0, 9), [small, third]),
                     (_chord(0, 9, 0), [third, small])):
        for order in ([third, small], [small, third]):
            hits = _hits_at(ch, order)
            _order_on_chord(ch, hits)
            assert [(h[1].num, h[1].den) for h in hits] == want


def test_order_on_chord_mixes_directions_and_float_ties():
    positions = [(1, 2), (1, 3), (1, 4), (2 ** 60, 3 * 2 ** 60 + 1), (1, 5),
                 (3 * 2 ** 59 + 1, 3 * 2 ** 60)]
    for ch, sign in ((_chord(0, 0, 9), 1), (_chord(0, 9, 0), -1)):
        hits = _hits_at(ch, positions)
        _order_on_chord(ch, hits)
        exact = [sign * Fraction(h[1].num, h[1].den) for h in hits]
        assert exact == sorted(exact) and len(set(exact)) == len(exact)


def _tied_chord_sets(rng, count):
    """Chords around {0,7}, {3,8}, {4,9}, {5,12}, which all pass through
    x = 6, plus random chords on the other ranks below 20; each chord has
    a random direction and a random place in the eps order."""
    for _ in range(count):
        ends = [(0, 7), (3, 8), (4, 9), (5, 12)]
        free = [r for r in range(20) if r not in {r for e in ends for r in e}]
        rng.shuffle(free)
        free = free[:2 * rng.randrange(len(free) // 2 + 1)]
        ends += list(zip(free[::2], free[1::2]))
        rng.shuffle(ends)
        yield [_chord(sid, *(e if rng.random() < 0.5 else e[::-1]))
               for sid, e in enumerate(ends)]


def test_order_on_chord_breaks_exact_ties_as_explicit_eps():
    # chord r of the triangle's list has its intercept raised by
    # eps_r = 10^(-15 (r + 1)); its line is y = s x - p + eps_r
    rng = random.Random(11)
    tied = 0
    for chords in _tied_chord_sets(rng, 300):
        lst = [(ch, []) for ch in chords]
        _cross_chords(0, lst, [])
        eps = [Fraction(1, 10 ** (15 * (r + 1))) for r in range(len(lst))]
        for i, (ch, hits) in enumerate(lst):
            rng.shuffle(hits)   # the order does not depend on the input's
            _order_on_chord(ch, hits)
            s_i, p_i = ch.ra + ch.rb, ch.ra * ch.rb
            sign = 1 if ch.ra < ch.rb else -1
            want = {}
            for _, cr, on_b in hits:
                other = cr.chord_a if on_b else cr.chord_b
                j = other.sid
                s_j, p_j = other.ra + other.rb, other.ra * other.rb
                want[cr.id] = sign * (p_i - p_j + eps[j] - eps[i]) / (s_i - s_j)
            assert [cr.id for _, cr, _ in hits] == sorted(want, key=want.get)
            exact = [Fraction(cr.num, cr.den) for _, cr, _ in hits]
            tied += len(exact) != len(set(exact))
    assert tied >= 100


def test_interleaved_pairs_match_all_pairs():
    rng = random.Random(7)
    for _ in range(200):
        n = rng.randrange(1, 12)
        seq = [i for i in range(n) for _ in range(2)]
        rng.shuffle(seq)
        where = {}
        for pos, i in enumerate(seq):
            where.setdefault(i, []).append(pos)
        want = [(i, j) for i in range(n) for j in range(i + 1, n)
                if (where[i][0] < where[j][0] < where[i][1])
                != (where[i][0] < where[j][1] < where[i][1])]
        assert _interleaved_pairs(seq, n) == want


# -- the kernel against an all-pairs reference on real drawings --------------


def _reference_crossings(drawing, geo):
    """Every crossing, its x and its sign, from all pairs of chords per
    triangle, with the boundary point of rank k at (k, k^2).

    Chords {a, b} and {c, d} lie on the lines y = (a + b)x - ab and
    y = (c + d)x - cd; they cross iff their lines meet strictly inside
    both rank ranges.
    """
    by_tri = {}
    for sid in sorted(geo.chords):
        for ch in geo.chords[sid]:
            by_tri.setdefault(ch.tri, []).append(ch)
    out = set()
    for tri, lst in by_tri.items():
        rank = {p: k for k, p in enumerate(drawing._boundary_order(tri))}
        for ca, cb in combinations(lst, 2):
            a, b, c, d = rank[ca.pa], rank[ca.pb], rank[cb.pa], rank[cb.pb]
            if a + b == c + d:
                continue   # parallel
            x = Fraction(a * b - c * d, a + b - c - d)
            if min(a, b) < x < max(a, b) and min(c, d) < x < max(c, d):
                cross = (b - a) * (d * d - c * c) - (b * b - a * a) * (d - c)
                out.add(((ca.sid, ca.idx), (cb.sid, cb.idx), x,
                         1 if cross > 0 else -1))
    return out


def _same_side(drawing, ch):
    return (drawing.side_of_point_in_tri(ch.pa, ch.tri)
            == drawing.side_of_point_in_tri(ch.pb, ch.tri))


def _check_geometry(drawing):
    """Crossings and signs equal the reference; ranks and events follow
    exact order.

    Returns the number of crossings on same-side chords.
    """
    geo = drawing.geometry()
    got = {((cr.sid_a, cr.chord_a.idx), (cr.sid_b, cr.chord_b.idx),
            Fraction(cr.num, cr.den), cr.sign) for cr in geo.crossings}
    assert got == _reference_crossings(drawing, geo)
    assert [cr.id for cr in geo.crossings] == list(range(len(geo.crossings)))

    def along(cr, sid):
        ch = cr.chord_a if sid == cr.sid_a else cr.chord_b
        return Fraction(cr.num, cr.den) * (1 if ch.ra < ch.rb else -1)

    on_chord = {}
    for cr in geo.crossings:
        for sid, par in ((cr.sid_a, cr.par_a), (cr.sid_b, cr.par_b)):
            on_chord.setdefault((sid, par[0]), []).append(
                (par[1], along(cr, sid)))
    for lst in on_chord.values():
        by_rank = sorted(lst)
        assert [r for r, _ in by_rank] == list(range(len(lst)))
        assert [x for _, x in by_rank] == sorted(x for _, x in lst)

    for sid, events in geo.events.items():
        keys = [(cr.param_of(sid)[0], along(cr, sid)) for cr in events]
        assert keys == sorted(keys) and len(set(keys)) == len(keys)
        assert len(events) == sum(cr.sid_a == sid or cr.sid_b == sid
                                  for cr in geo.crossings)
    return sum(_same_side(drawing, cr.chord_a)
               or _same_side(drawing, cr.chord_b) for cr in geo.crossings)


def _push_finger(drawing, sid, sid_over):
    """Push one chord of `sid` across a run of `sid_over`'s points.

    The pushed chord comes back through the same edge in the next triangle,
    so it becomes a same-side chord there that crosses `sid_over` once per
    point of the run.  Returns the new drawing, or None when no chord fits.
    """
    surf = drawing.surface
    st = drawing.strands[sid]
    over = set(drawing.strands[sid_over].pts)
    n = len(st.pts)
    for i in range(n):
        p0, p1, tri = st.pts[i], st.pts[(i + 1) % n], st.tris[i]
        ends = {drawing.side_of_point_in_tri(p, tri) for p in (p0, p1)}
        for s in range(3):
            if s in ends or (tri, s) not in surf.glue:
                continue
            e = surf.side_edge[(tri, s)]
            pts = drawing.edge_pts[e]
            lo = next((k for k, p in enumerate(pts) if p in over), None)
            if lo is None:
                continue
            hi = lo
            while hi + 1 < len(pts) and pts[hi + 1] in over:
                hi += 1
            for flip in (False, True):
                d = drawing.clone()
                q_hi = d.new_point(e, hi + 1)
                q_lo = d.new_point(e, lo)
                qa, qb = (q_hi, q_lo) if flip else (q_lo, q_hi)
                d.strands[sid].pts[i + 1:i + 1] = [qa, qb]
                d.strands[sid].tris[i:i + 1] = [tri, surf.glue[(tri, s)][0],
                                                tri]
                d._bump()
                try:
                    d.geometry()
                except InternalInvariantError:
                    continue   # the finger crossed its own strand
                return d
    return None


def _sampled_drawings(spec, count, seed):
    surf = parse_surface_spec(spec)
    rng = seeded(seed)
    return [draw_pair(*sample_pair(surf, rng, 2, 12, 120)[:2])
            for _ in range(count)]


@pytest.mark.parametrize("spec", SURFACE_SPECS)
def test_kernel_matches_reference_on_sampled_pairs(spec):
    for cfg in _sampled_drawings(spec, 3, 41):
        _check_geometry(cfg.drawing)
        assert len(cfg.drawing.geometry().crossings) == cfg.count()


def test_kernel_matches_reference_on_same_side_chords():
    crossed = 0
    for spec in ("g1b1", "g2b0"):
        for cfg in _sampled_drawings(spec, 2, 43):
            # the pushed chord on the first strand and on the second one:
            # chords are paired in strand order, so both orders occur
            for sid, sid_over in ((cfg.sid_a, cfg.sid_b),
                                  (cfg.sid_b, cfg.sid_a)):
                d = _push_finger(cfg.drawing, sid, sid_over)
                assert d is not None
                crossed += _check_geometry(d)
    assert crossed > 0


def test_arrangement_rejects_any_flipped_crossing_sign():
    flips = 0
    for spec in ("g1b1", "g2b0"):
        surf, rng = parse_surface_spec(spec), seeded(45)
        for _ in range(3):
            cfg = draw_pair(*sample_pair(surf, rng, 3, 20, 200)[:2])
            Arrangement(cfg.drawing)
            for cr in cfg.drawing.geometry().crossings:
                cr.sign = -cr.sign
                with pytest.raises(InternalInvariantError,
                                   match="not planar"):
                    Arrangement(cfg.drawing)
                cr.sign = -cr.sign
                flips += 1
    assert flips >= 30


@pytest.mark.parametrize("seed", [17, 51, 79])
def test_arrangement_builds_on_triples_with_exact_ties(seed):
    surf = parse_surface_spec("g1b1")
    rng = seeded(seed)
    a, b, _ = sample_pair(surf, rng, 4, 20, 200)
    cfg = triple_config(a, b, sample_curve(surf, rng, 200))
    geo = cfg.drawing.geometry()
    ties = 0
    for sid, events in geo.events.items():
        at = {}
        for cr in events:
            at.setdefault(cr.param_of(sid)[0], []).append(
                Fraction(cr.num, cr.den))
        ties += sum(len(xs) - len(set(xs)) for xs in at.values())
    assert ties > 0
    Arrangement(cfg.drawing)
    faces = face_data(cfg.drawing, cfg.drawing.strands)
    # the three strands are pairwise bigon-free
    assert faces and not any(f.is_bigon for f in faces)


# -- solo strands: the combinatorial checks against the kernel ---------------


@pytest.mark.parametrize("spec", SURFACE_SPECS)
def test_planted_self_crossings_raise_in_both_checks(spec):
    # a reduced curve has no same-side chords, so its two chords at each of two points
    # on one edge nest in both triangles there; swapping the points makes
    # both pairs interleave
    planted = 0
    for curve in sample_curves(parse_surface_spec(spec), 51, 12):
        base = curve.drawing
        base.validate_embedded()
        for e, pts in sorted(base.edge_pts.items()):
            for i, j in combinations(range(len(pts)), 2):
                d = base.clone()
                row = d.edge_pts[e]
                row[i], row[j] = row[j], row[i]
                d._bump()
                with pytest.raises(InternalInvariantError,
                                   match="crosses itself"):
                    d.validate_embedded()
                with pytest.raises(InternalInvariantError):
                    d.clone().geometry()
                planted += 1
    assert planted >= 10


def _geometric_turnback(drawing, sid):
    """First same-side chord with adjacent boundary ranks in the kernel."""
    for ch in drawing.clone().geometry().chords[sid]:
        if _same_side(drawing, ch) and abs(ch.ra - ch.rb) == 1:
            return ch.idx
    return None


def _solo_strands(cfg):
    """Solo drawings, not yet reduced: each strand of the pair drawing, and
    each proper bicorn glued from its arcs, whose corners leave same-side
    chords."""
    for sid in (cfg.sid_a, cfg.sid_b):
        yield cfg.drawing.sub_drawing([cfg.drawing.strands[sid]])
    for bc in enumerate_bicorns(cfg):
        if bc.kind != "proper":
            continue
        (u, v), (w, _) = bc.aseg, bc.bseg
        yield assemble_path_strand(cfg.drawing, [
            (cfg.sid_a, u.crossing, v.crossing, 1),
            (cfg.sid_b, v.crossing, u.crossing, -1 if w is u else 1)])


@pytest.mark.parametrize("spec", SURFACE_SPECS)
def test_solo_strands_with_tents_pass_and_reduce_as_the_kernel_says(spec):
    tents = removed = 0
    for cfg in _sampled_drawings(spec, 2, 53):
        for solo in _solo_strands(cfg):
            (sid,) = solo.strands
            solo.validate_embedded()
            geo = solo.clone().geometry()
            assert geo.crossings == []
            tents += sum(_same_side(solo, ch) for ch in geo.chords[sid])
            while sid in solo.strands:
                idx = solo.find_turnback(sid)
                assert idx == _geometric_turnback(solo, sid)
                if idx is None:
                    break
                solo.remove_turnback(sid, idx)
                solo.validate_embedded()
                removed += 1
    assert tents > 0 and removed > 0


def test_reduce_turnbacks_needs_a_solo_drawing():
    cfg = _sampled_drawings("g1b1", 1, 53)[0]
    for d, sid in ((cfg.drawing, cfg.sid_a), (cfg.drawing.clone(), 99)):
        with pytest.raises(InternalInvariantError, match="alone"):
            d.reduce_turnbacks(sid)


@pytest.mark.parametrize("spec", SURFACE_SPECS)
def test_pair_drawing_strands_round_trip_to_their_curves(spec):
    rng = seeded(55)
    surf = parse_surface_spec(spec)
    for _ in range(3):
        a, b, _ = sample_pair(surf, rng, 1, 12, 120)
        d, sid_a, sid_b = minimal_pair_drawing(a, b)
        for curve, sid in ((a, sid_a), (b, sid_b)):
            back = curve_from_drawing(d, sid)
            assert (back.word_key, back.weights) == (curve.word_key,
                                                     curve.weights)


def test_curve_owns_a_solo_drawing_and_copies_out_of_a_pair(monkeypatch):
    # with the curve memo empty a solo drawing becomes the curve's own; an
    # equal drawing then gets that same curve and is left unused
    cfg = _sampled_drawings("g2b1", 1, 55)[0]
    d = cfg.drawing
    before = d.content()
    for sid, curve in ((cfg.sid_a, cfg.a), (cfg.sid_b, cfg.b)):
        back = curve_from_drawing(d, sid)
        assert back == curve and back.drawing is not d
    assert d.content() == before
    monkeypatch.setattr(C, "_CURVE_CACHE", {})
    solo = Drawing.from_normal_coords(d.surface, list(cfg.a.weights))
    own = curve_from_drawing(solo, 0)
    assert own.drawing is solo
    twin = Drawing.from_normal_coords(d.surface, list(cfg.a.weights))
    drawn = twin.content()
    assert curve_from_drawing(twin, 0) is own
    assert twin.content() == drawn


@pytest.mark.parametrize("spec", SURFACE_SPECS)
def test_pair_events_and_counts_match_a_filtered_scan(spec):
    rng = seeded(57)
    surf = parse_surface_spec(spec)
    seen = 0
    for _ in range(2):
        a, b, _ = sample_pair(surf, rng, 2, 10, 120)
        cfg = triple_config(a, b, sample_curve(surf, rng, 120))
        geo = cfg.drawing.geometry()
        sids = sorted(cfg.drawing.strands)
        assert len(sids) == 3
        for sa in sids:
            for sb in sids:
                if sa == sb:
                    continue
                want = [c for c in geo.events[sa]
                        if {c.sid_a, c.sid_b} == {sa, sb}]
                assert geo.pair_events(sa, sb) == want
                assert geo.count_pair(sa, sb) == sum(
                    {c.sid_a, c.sid_b} == {sa, sb} for c in geo.crossings)
                seen += len(want)
    assert seen > 0


# -- the kept geometry of a strand pair across bigon moves ---------------------


def _drawn(d):
    """Each strand as (edge, rank on that edge, triangle) per point."""
    rank = {p: k for pts in d.edge_pts.values() for k, p in enumerate(pts)}
    return {sid: tuple((d.pt_edge[p], rank[p], tri)
                       for p, tri in zip(st.pts, st.tris))
            for sid, st in d.strands.items()}


def _rows(geo, sx, sy):
    return _event_rows(geo, sx, sy, _stored_places)


@pytest.fixture
def checked_moves(monkeypatch):
    """Check every read of a kept pair geometry that bigon moves were
    carried into against a fresh two-strand derivation; counts those
    reads and lists the plans committed.  The bigon loops read the pair
    before every search, so after every batch of moves, and a triple's
    moves come one at a time.
    """
    read, commit = Drawing.pair_geometry, Drawing.commit_bigon_plan
    moves = SimpleNamespace(plans=[], checked=0)

    def checked(self, sx, sy):
        kept = self._kept_pair(sx, sy)
        geo = read(self, sx, sy)
        if kept is not None and kept.geo is geo and geo.chords is None:
            fresh = self._derive(sorted((sx, sy)))
            assert _rows(geo, sx, sy) == _rows(fresh, sx, sy)
            moves.checked += 1
        return geo

    def recorded(self, plan):
        moves.plans.append(plan)
        commit(self, plan)
    monkeypatch.setattr(Drawing, "pair_geometry", checked)
    monkeypatch.setattr(Drawing, "commit_bigon_plan", recorded)
    return moves


def _rebuilt_every_pass(d, sx, sy):
    """The bigon loop with the pair geometry derived afresh every pass."""
    while True:
        d._pair_geo.clear()
        found = d.find_bigon_moves(sx, sy)
        if not found:
            return
        for plan in d._compatible_plans(found):
            d.commit_bigon_plan(plan)


def _third_rebuilt_every_move(cfg, d_curve):
    """`add_third`'s loop with the pair geometry derived afresh per move."""
    d = cfg.drawing
    sid_d = d.insert_copy(d_curve.drawing)[0]
    while True:
        for sid_other in (cfg.sid_a, cfg.sid_b):
            d._pair_geo.clear()
            move = d.find_bigon(sid_d, sid_other)
            if move is not None:
                d.apply_bigon_move(move)
                break
        else:
            return


def _sampled_triples(spec, count, seed):
    surf, rng = parse_surface_spec(spec), seeded(seed)
    for _ in range(count):
        a, b, _ = sample_pair(surf, rng, 2, 10, 120)
        yield a, b, sample_curve(surf, rng, 120)


@pytest.mark.parametrize("spec", SURFACE_SPECS)
def test_patched_pairs_match_fresh_derivations_and_the_rebuild_loop(
        spec, checked_moves):
    surf, rng = parse_surface_spec(spec), seeded(61)
    for _ in range(3):
        a, b, _ = sample_pair(surf, rng, 2, 12, 120)
        drawn = []
        for remove in (Drawing.remove_bigons_between, _rebuilt_every_pass):
            d, (sid_a, sid_b) = overlay([a.drawing, b.drawing])
            remove(d, sid_a, sid_b)
            drawn.append(_drawn(d))
        assert drawn[0] == drawn[1]
    for a, b, d_curve in _sampled_triples(spec, 2, 61):
        cfg = draw_pair(a, b)
        cfg.add_third(d_curve)
        oracle = draw_pair(a, b)
        _third_rebuilt_every_move(oracle, d_curve)
        assert _drawn(cfg.drawing) == _drawn(oracle.drawing)
    assert checked_moves.checked >= 30


def test_patched_pairs_hold_when_the_moving_arc_is_the_longer(checked_moves):
    # on reduced pairs both arcs of a bigon cross the same edges; a pushed
    # finger gives bigons whose moving arc has more points than the other
    for spec in SURFACE_SPECS:
        for cfg in _sampled_drawings(spec, 3, 43):
            for sid, sid_over in ((cfg.sid_a, cfg.sid_b),
                                  (cfg.sid_b, cfg.sid_a)):
                finger = _push_finger(cfg.drawing, sid, sid_over)
                if finger is None:
                    continue
                drawn = []
                for remove in (Drawing.remove_bigons_between,
                               _rebuilt_every_pass):
                    d = finger.clone()
                    remove(d, cfg.sid_a, cfg.sid_b)
                    drawn.append(_drawn(d))
                assert drawn[0] == drawn[1]
    assert checked_moves.checked > 0
    assert any(len(plan["deleted_pids"]) > len(plan["new_specs"])
               for plan in checked_moves.plans)


def _stale_ranks(events, sid, chords):
    """`_place_on_chords` that moves crossings to their new chords but
    keeps their old ranks."""
    for cr, j in zip(events, chords):
        place = (j, cr.param_of(sid)[1])
        if cr.sid_a == sid:
            cr.par_a = place
        else:
            cr.par_b = place


def test_the_end_check_catches_a_patch_that_skips_the_re_rank(monkeypatch):
    surf, rng = parse_surface_spec("g1b2"), seeded(61)
    a, b, _ = sample_pair(surf, rng, 2, 12, 120)
    d, (sid_a, sid_b) = overlay([a.drawing, b.drawing])
    _, (a3, b3, d3) = _sampled_triples("g1b2", 2, 61)
    cfg = draw_pair(a3, b3)
    d3.drawing   # a twist result draws its laps when first read
    monkeypatch.setattr(D, "_place_on_chords", _stale_ranks)
    with pytest.raises(InternalInvariantError, match="differ from a rebuild"):
        d.remove_bigons_between(sid_a, sid_b)
    with pytest.raises(InternalInvariantError,
                       match="strands 2 and 1 differ from a rebuild"):
        cfg.add_third(d3)


def test_a_pair_geometry_lasts_until_one_of_its_strands_moves(monkeypatch):
    derived = []
    derive = Drawing._derive
    commit = Drawing.commit_bigon_plan

    def counted(self, sids):
        derived.append(tuple(sids))
        return derive(self, sids)

    seen = set()

    def watched(self, plan):
        sids = sorted(self.strands)
        pairs = [(x, y) for x in sids for y in sids if x < y]
        before = {p: self._kept_pair(*p) for p in pairs}
        commit(self, plan)
        mover, stay = plan["mover"], plan["stay"]
        for p in pairs:
            if before[p] is None or set(p) == {mover, stay}:
                continue
            derived.clear()
            if mover in p:
                # a move of one of its strands: the pair is derived again
                assert self._kept_pair(*p) is None
                self.pair_geometry(*p)
                assert derived == [p]
                seen.add("moved")
            else:
                # a third strand's move: the same geometry stays in use
                assert self._kept_pair(*p) is before[p]
                assert self.pair_geometry(*p) is before[p].geo
                assert derived == []
                seen.add("kept")

    monkeypatch.setattr(Drawing, "_derive", counted)
    monkeypatch.setattr(Drawing, "commit_bigon_plan", watched)
    for spec in ("g1b2", "g2b0"):
        for a, b, d_curve in _sampled_triples(spec, 2, 61):
            cfg = draw_pair(a, b)
            cfg.drawing.pair_geometry(cfg.sid_a, cfg.sid_b)
            cfg.add_third(d_curve)
    assert seen == {"moved", "kept"}


# -- the bigon search against an abelian-filtered search ------------------------


def _abelian_filtered_moves(d, sid_x, sid_y, first_only=False):
    """The bigon search with an abelian prefilter before the word test.

    A candidate whose two arcs have different letter sums, read off
    prefix sums along each strand, is skipped without the word test.  H1
    is the abelianization of pi1, so the filter only skips candidates the
    word test rejects.  Returns the moves and the number skipped.
    """
    rank = len(d.surface.word_gen_edges)

    def prefix_sums(sid):
        acc, out = [0] * rank, [(0,) * rank]
        for i in range(len(d.strands[sid].pts)):
            letter = d.surface.crossing_letter(*d.crossing_passage(sid, i))
            if letter:
                acc[abs(letter) - 1] += 1 if letter > 0 else -1
            out.append(tuple(acc))
        return out

    def arc_sum(sid, interior, prefix):
        if not interior:
            return (0,) * rank
        start, n = interior[0], len(d.strands[sid].pts)
        end = start + len(interior)
        if end <= n:
            return tuple(a - b for a, b in zip(prefix[end], prefix[start]))
        return tuple(t - b + e for t, b, e in
                     zip(prefix[n], prefix[start], prefix[end - n]))

    geo = d.pair_geometry(sid_x, sid_y)
    ev_x, ev_y = geo.pair_events(sid_x, sid_y), geo.pair_events(sid_y, sid_x)
    if len(ev_x) < 2:
        return [], 0
    nx, ny = len(ev_x), len(ev_y)
    pos_y = {c.id: k for k, c in enumerate(ev_y)}
    px, py = prefix_sums(sid_x), prefix_sums(sid_y)
    relators, abelian_rank = d.surface.presentation()
    out, skipped = [], 0
    for k in range(nx):
        v1, v2 = ev_x[k], ev_x[(k + 1) % nx]
        ky1, ky2 = pos_y[v1.id], pos_y[v2.id]
        dirs = []
        if (ky1 + 1) % ny == ky2:
            dirs.append(1)
        if (ky2 + 1) % ny == ky1:
            dirs.append(-1)
        for dy in dirs:
            int_x = d.arc_interior(sid_x, v1, v2)
            int_y = d.arc_interior(sid_y, *((v1, v2) if dy == 1
                                            else (v2, v1)))
            ab_x = arc_sum(sid_x, int_x, px)
            ab_y = tuple(dy * t for t in arc_sum(sid_y, int_y, py))
            if ab_x != ab_y:
                skipped += 1
                continue
            wx = d.arc_word(sid_x, int_x)
            wy = d.arc_word(sid_y, int_y)
            if dy == 1:
                wy = W.invert_word(wy)
            if W.is_trivial(wx + wy, relators, abelian_rank):
                out.append((len(int_x) + len(int_y),
                            (sid_x, sid_y, v1, v2, dy)))
                if first_only:
                    return [m for _, m in out], skipped
                break
    out.sort(key=lambda t: t[0])
    return [m for _, m in out], skipped


def _move_ids(moves):
    return [(sx, sy, v1.id, v2.id, dy) for sx, sy, v1, v2, dy, *_ in moves]


@pytest.mark.parametrize("spec", SURFACE_SPECS)
def test_bigon_search_matches_the_abelian_filtered_search(spec, monkeypatch):
    search = Drawing.find_bigon_moves
    seen = SimpleNamespace(searches=0, first_only=0, moves=0, skipped=0)

    def compared(self, sid_x, sid_y, first_only=False):
        got = search(self, sid_x, sid_y, first_only)
        want, skipped = _abelian_filtered_moves(self, sid_x, sid_y,
                                                first_only)
        assert _move_ids(got) == _move_ids(want)
        seen.searches += 1
        seen.first_only += first_only
        seen.moves += len(got)
        seen.skipped += skipped
        return got

    monkeypatch.setattr(Drawing, "find_bigon_moves", compared)
    surf, rng = parse_surface_spec(spec), seeded(67)
    for _ in range(3):
        a, b, _ = sample_pair(surf, rng, 2, 12, 120)
        draw_pair(a, b)
    for a, b, d_curve in _sampled_triples(spec, 2, 67):
        triple_config(a, b, d_curve)
    assert seen.moves > 0 and seen.first_only > 0
    assert seen.skipped > 0


# -- bigon plans against plans that derive their arcs again --------------------


def _plan_by_arcs(d, move):
    """`plan_bigon_move` deriving both arcs again from the corners.

    This is how plans were made before a move carried the arcs its
    search built: `arc_interior` runs once more per arc, and once more
    for the arc of the strand that moves or stays.
    """
    sid_x, sid_y, v1, v2, dy = move[:5]
    interior_x = d.arc_interior(sid_x, v1, v2)
    if dy == 1:
        interior_y = d.arc_interior(sid_y, v1, v2)
    else:
        interior_y = list(reversed(d.arc_interior(sid_y, v2, v1)))
    if len(interior_y) > len(interior_x) \
            and len(interior_x) != len(d.strands[sid_x].pts):
        if dy == 1:
            mover, stay, va, vb, ds = sid_y, sid_x, v1, v2, 1
            interior_m = d.arc_interior(sid_y, v1, v2)
        else:
            mover, stay, va, vb, ds = sid_y, sid_x, v2, v1, -1
            interior_m = d.arc_interior(sid_y, v2, v1)
    else:
        mover, stay, va, vb, ds = sid_x, sid_y, v1, v2, dy
        interior_m = interior_x
    st_m, st_s = d.strands[mover], d.strands[stay]
    n_m, n_s = len(st_m.pts), len(st_s.pts)
    full_m = len(interior_m) == n_m
    if ds == 1:
        interior_s = d.arc_interior(stay, va, vb)
    else:
        interior_s = list(reversed(d.arc_interior(stay, vb, va)))
    far = -1 if ds * va.sign_for(stay) > 0 else 1
    new_specs = [(st_s.pts[j], st_s.tris[j] if ds == 1
                  else st_s.tris[(j - 1) % n_s]) for j in interior_s]
    i1, i2 = va.param_of(mover)[0], vb.param_of(mover)[0]
    return {"mover": mover, "stay": stay, "corners": (va, vb),
            "deleted_pids": [st_m.pts[j] for j in interior_m],
            "keep_pid": None if full_m else st_m.pts[i1],
            "resume_pid": None if full_m else st_m.pts[(i2 + 1) % n_m],
            "new_specs": new_specs, "tri_start": va.tri, "tri_end": vb.tri,
            "far": far}


@pytest.fixture
def planned(monkeypatch):
    """Compare every bigon plan with `_plan_by_arcs`, and plan every move
    each search finds, committed or not; tallies the kinds of move
    planned and committed."""
    search, plan = Drawing.find_bigon_moves, Drawing.plan_bigon_move
    commit = Drawing.commit_bigon_plan
    seen = SimpleNamespace(planned=set(), committed=set(), plans=0)

    def kinds(move, p):
        mover = "x" if p["mover"] == move[0] else "y"
        whole = p["keep_pid"] is None
        return {("dy", move[4]), (mover, "moves"), ("whole", whole),
                (mover, move[4], whole)}

    def compared(self, move):
        p = plan(self, move)
        assert p == _plan_by_arcs(self, move)
        p["kinds"] = kinds(move, p)
        seen.planned |= p["kinds"]
        seen.plans += 1
        return p

    def searched(self, sid_x, sid_y, first_only=False):
        for move in search(self, sid_x, sid_y):
            self.plan_bigon_move(move)
        return search(self, sid_x, sid_y, first_only)

    def committed(self, p):
        seen.committed |= p.pop("kinds")
        commit(self, p)
    monkeypatch.setattr(Drawing, "plan_bigon_move", compared)
    monkeypatch.setattr(Drawing, "find_bigon_moves", searched)
    monkeypatch.setattr(Drawing, "commit_bigon_plan", committed)
    return seen


def _detour_across(drawing, sid, sid_over):
    """Lead a chord of `sid`, a parallel copy of `sid_over`, across the
    chord of `sid_over` beside it and back.

    The chord leaves its triangle through an edge slot beyond the other
    chord, turns back at once through an adjacent slot, and returns: two
    crossings on that one chord of `sid_over`.  Along it the crossing
    before the turn comes first, so the rest of `sid` and all of
    `sid_over` bound a bigon too.  Returns the new drawing, or None when
    no chord fits.
    """
    surf = drawing.surface
    pts, tris = drawing.strands[sid].pts, drawing.strands[sid].tris
    for i, tri in enumerate(tris):
        for s in range(3):
            if (tri, s) not in surf.glue:
                continue
            e, beyond = surf.side_edge[(tri, s)], surf.glue[(tri, s)][0]
            for k in range(len(drawing.edge_pts[e]) + 1):
                for flip in (False, True):
                    d = drawing.clone()
                    qa = d.new_point(e, k)
                    qb = d.new_point(e, k + 1)
                    if flip:
                        qa, qb = qb, qa
                    d.strands[sid] = D.Strand(
                        pts[:i + 1] + [qa, qb] + pts[i + 1:],
                        tris[:i] + [tri, beyond, tri] + tris[i + 1:])
                    d._bump()
                    try:
                        ev = d.geometry().pair_events(sid_over, sid)
                    except InternalInvariantError:
                        continue   # the detour crossed its own strand
                    if [(cr.param_of(sid_over)[0], cr.param_of(sid)[0])
                            for cr in ev] == [(i, i), (i, i + 2)]:
                        return d
    return None


@pytest.mark.parametrize("spec", SURFACE_SPECS)
def test_bigon_plans_read_the_arcs_their_search_built(spec, planned):
    surf, rng = parse_surface_spec(spec), seeded(67)
    for _ in range(3):
        draw_pair(*sample_pair(surf, rng, 2, 12, 120)[:2])
    for a, b, d_curve in _sampled_triples(spec, 2, 67):
        triple_config(a, b, d_curve)
    assert {("dy", 1), ("dy", -1)} <= planned.committed
    # a reduced pair's bigons have arcs over the same edges, so x moves,
    # and never a whole strand; a curve with a copy of itself detoured
    # across it has a bigon whose y-arc turns back, and one whose x-arc
    # is all of x; the copy reversed has them with dy = -1
    c = sample_curves(surf, 3, 1)[0]
    parallel = c.drawing.clone()
    sid_y = parallel.add_parallel_strand(0)
    for reverse, whole in product((False, True), repeat=2):
        d = _detour_across(parallel, sid_y, 0)
        if reverse:
            st = d.strands[sid_y]
            d.strands[sid_y] = D.Strand(st.pts[:1] + st.pts[:0:-1],
                                        st.tris[::-1])
            d._bump()
        if whole:
            # the bigon over all of x is found after the small one; moved
            # on its own, x rides to the other side of y
            move, = [m for m in d.find_bigon_moves(0, sid_y)
                     if len(m[5]) == len(d.strands[0].pts)]
            d.apply_bigon_move(move)
        else:
            assert d.remove_bigons_between(0, sid_y) == 1
        assert d.geometry().count_pair(0, sid_y) == 0
        d.validate_embedded()
    assert planned.committed == planned.planned
    assert {("y", 1, False), ("y", -1, False), ("x", 1, True),
            ("x", -1, True)} <= planned.committed
