"""The crossing kernel of `Drawing.geometry`: exact order along chords;
the combinatorial checks on solo strands against that kernel."""

import random
from fractions import Fraction
from itertools import combinations

import pytest

from nscurves.bicorn import enumerate_bicorns, triple_config
from nscurves.curve import curve_from_drawing
from nscurves.drawing import (_Degenerate, _interleaved_pairs,
                              _order_on_chord, _seg_intersect, _vcross,
                              assemble_path_strand)
from nscurves.errors import InternalInvariantError
from nscurves.pairconfig import draw_pair, minimal_pair_drawing
from nscurves.surface import parse_surface_spec
from nscurves.verify import sample_curve, sample_pair
from conftest import SURFACE_SPECS, sample_curves, seeded


def _hit(num, den, piece=0, tag=None):
    return (piece + num / den, (piece, num, den), tag)


def test_order_on_chord_resolves_equal_floats_exactly():
    small = _hit(2 ** 60, 3 * 2 ** 60 + 1, tag="small")
    third = _hit(1, 3, tag="third")
    assert small[0] == third[0]   # the floats tie, the rationals do not
    for hits in ([third, small], [small, third]):
        _order_on_chord(hits)
        assert [h[2] for h in hits] == ["small", "third"]


def test_order_on_chord_mixes_pieces_and_float_ties():
    hits = [_hit(1, 2, piece=1), _hit(1, 3), _hit(1, 4, piece=1),
            _hit(2 ** 60, 3 * 2 ** 60 + 1), _hit(1, 5)]
    _order_on_chord(hits)
    exact = [(p, Fraction(n, d)) for _, (p, n, d), _ in hits]
    assert exact == sorted(exact) and len(set(exact)) == len(exact)


def test_order_on_chord_rejects_coincident_hits():
    for hits in ([_hit(1, 3), _hit(2, 6)], [_hit(2, 6), _hit(1, 5),
                                             _hit(1, 3)]):
        with pytest.raises(_Degenerate):
            _order_on_chord(hits)


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
    """Every crossing and its sign, from all pairs of pieces per triangle."""
    by_tri = {}
    for sid in sorted(geo.chords):
        for ch in geo.chords[sid]:
            by_tri.setdefault(ch.tri, []).append(ch)
    out = set()
    for lst in by_tri.values():
        for i, ca in enumerate(lst):
            for cb in lst[i + 1:]:
                for pa, sa in enumerate(ca.pieces):
                    for pb, sb in enumerate(cb.pieces):
                        res = _seg_intersect(sa[0], sa[1], sb[0], sb[1])
                        if res is not None:
                            sign = _vcross(ca.direction_at(pa),
                                           cb.direction_at(pb)) > 0
                            out.add(((ca.sid, ca.idx, pa, res[0]),
                                     (cb.sid, cb.idx, pb, res[1]),
                                     1 if sign else -1))
    return out


def _check_geometry(drawing):
    """Crossings and signs equal the reference; ranks and events follow
    exact order.

    Returns the number of crossings on tent (same-side) chords.
    """
    geo = drawing.geometry()

    def exact(cr, side):
        piece, num, den = cr.at_a if side == "a" else cr.at_b
        return (piece, Fraction(num, den))

    got = {((cr.sid_a, cr.chord_a.idx) + exact(cr, "a"),
            (cr.sid_b, cr.chord_b.idx) + exact(cr, "b"), cr.sign)
           for cr in geo.crossings}
    assert got == _reference_crossings(drawing, geo)
    assert [cr.id for cr in geo.crossings] == list(range(len(geo.crossings)))

    on_chord = {}
    for cr in geo.crossings:
        for sid, par, side in ((cr.sid_a, cr.par_a, "a"),
                               (cr.sid_b, cr.par_b, "b")):
            assert par[1] == exact(cr, side)[0]
            on_chord.setdefault((sid, par[0]), []).append(
                (par[2], exact(cr, side)))
    for lst in on_chord.values():
        by_rank = sorted(lst)
        assert [r for r, _ in by_rank] == list(range(len(lst)))
        assert [x for _, x in by_rank] == sorted(x for _, x in lst)

    for sid, events in geo.events.items():
        keys = [(cr.param_of(sid)[0],) + exact(cr, "a" if cr.sid_a == sid
                                                else "b") for cr in events]
        assert keys == sorted(keys) and len(set(keys)) == len(keys)
        assert len(events) == sum(cr.sid_a == sid or cr.sid_b == sid
                                  for cr in geo.crossings)
    return sum(cr.chord_a.same_side or cr.chord_b.same_side
               for cr in geo.crossings)


def _push_finger(drawing, sid, sid_over):
    """Push one chord of `sid` across a run of `sid_over`'s points.

    The pushed chord comes back through the same edge in the next triangle,
    so it becomes a tent there that crosses `sid_over` once per point of
    the run.  Returns the new drawing, or None when no chord fits.
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


def test_kernel_matches_reference_on_crossed_tents_and_salt():
    crossed_tents = 0
    for spec in ("g1b1", "g2b0"):
        for cfg in _sampled_drawings(spec, 2, 43):
            # the tent on the first strand and on the second one: chords
            # are paired in strand order, so both orders of a pair occur
            for sid, sid_over in ((cfg.sid_a, cfg.sid_b),
                                  (cfg.sid_b, cfg.sid_a)):
                d = _push_finger(cfg.drawing, sid, sid_over)
                assert d is not None
                crossed_tents += _check_geometry(d)
                salted = d.clone()
                salted.salt = 1
                _check_geometry(salted)
                assert salted.geometry().crossings and salted.salt == 1
    assert crossed_tents > 0


# -- solo strands: the combinatorial checks against the kernel ---------------


@pytest.mark.parametrize("spec", SURFACE_SPECS)
def test_planted_self_crossings_raise_in_both_checks(spec):
    # a reduced curve has no tents, so its two chords at each of two points
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
    """First tent chord with adjacent endpoints, read off the kernel."""
    for ch in drawing.clone().geometry().chords[sid]:
        if ch.same_side and abs(drawing.pos(ch.pa) - drawing.pos(ch.pb)) == 1:
            return ch.idx
    return None


def _solo_strands(cfg):
    """Solo drawings, not yet reduced: each strand of the pair drawing, and
    each proper bicorn glued from its arcs, whose corners leave tents."""
    for sid in (cfg.sid_a, cfg.sid_b):
        yield cfg.drawing.extract_solo(sid)
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
            tents += sum(ch.same_side for ch in geo.chords[sid])
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
