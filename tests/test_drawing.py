"""The crossing kernel of `Drawing.geometry`: exact order along chords."""

import random
from fractions import Fraction

import pytest

from nscurves.drawing import (_Degenerate, _interleaved_pairs,
                              _order_on_chord, _seg_intersect, _vcross)
from nscurves.errors import InternalInvariantError
from nscurves.pairconfig import draw_pair
from nscurves.surface import parse_surface_spec
from nscurves.verify import sample_pair
from conftest import SURFACE_SPECS, seeded


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
