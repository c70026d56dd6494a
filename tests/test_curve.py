import itertools
from math import gcd

import pytest
from hypothesis import given, settings, strategies as st

from nscurves import curve as C
from nscurves.curve import (base_curves, curve_from_normal_coords, dehn_twist,
                            dual_curve, parse_curve, random_curve, torus_slope,
                            twist_generators, boundary_parallel_curve)
from nscurves.drawing import Drawing
from nscurves.errors import (Disconnected, Inessential,
                             InternalInvariantError, MatchingViolation,
                             NotCoprime, NSCurvesError, WrongGenus)
from nscurves.fixtures import flat_torus_intersections
from nscurves.pairconfig import intersection_number
from conftest import sample_curves, seeded


coprime_slopes = st.tuples(st.integers(-6, 6), st.integers(-6, 6)).filter(
    lambda pq: pq != (0, 0) and gcd(pq[0], pq[1]) == 1)


def test_slope_fixtures(s11):
    m = torus_slope(s11, 1, 0)
    l = torus_slope(s11, 0, 1)
    assert intersection_number(m, l) == 1
    assert intersection_number(torus_slope(s11, 2, 1),
                               torus_slope(s11, 1, 2)) == 3


def test_slope_errors(s11, s20):
    with pytest.raises(NotCoprime):
        torus_slope(s11, 2, 4)
    with pytest.raises(WrongGenus):
        torus_slope(s20, 1, 0)


@given(coprime_slopes, coprime_slopes)
@settings(max_examples=40, deadline=None)
def test_slope_intersection_oracle(s11, pq, rs):
    want = flat_torus_intersections(*pq, *rs)
    assert want == abs(pq[0] * rs[1] - pq[1] * rs[0])
    got = intersection_number(torus_slope(s11, *pq), torus_slope(s11, *rs))
    assert got == want


def test_normal_coords_roundtrip(s11):
    m = torus_slope(s11, 1, 0)
    again = curve_from_normal_coords(s11, list(m.weights))
    assert again == m
    assert again.cls == m.cls


def test_doubled_weights_disconnected(s11):
    m = torus_slope(s11, 1, 0)
    with pytest.raises(Disconnected):
        curve_from_normal_coords(s11, [2 * w for w in m.weights])


def test_matching_violations(s11):
    n = len(s11.edges)
    with pytest.raises(MatchingViolation):
        curve_from_normal_coords(s11, [1] + [0] * (n - 1))
    with pytest.raises(MatchingViolation):
        curve_from_normal_coords(s11, [0] * (n - 1) + [1])  # boundary edge


def test_vertex_link_is_nullhomotopic():
    from nscurves.surface import build_surface
    s10 = build_surface(1, 0)
    with pytest.raises(Inessential):
        curve_from_normal_coords(s10, [2, 2, 2])


def test_boundary_parallel_accepted_with_flag(s12):
    bp = boundary_parallel_curve(s12, 1)
    again = curve_from_normal_coords(s12, list(bp.weights))
    assert again.peripheral
    assert again == bp


def test_wiggle_reduces_to_canonical(s11):
    # push the meridian across an edge by hand and recanonicalize
    m = torus_slope(s11, 1, 0)
    d = m.drawing.clone()
    sid = next(iter(d.strands))
    st_ = d.strands[sid]
    # insert a wiggle: cross some adjacent edge and come straight back
    from nscurves.curve import curve_from_drawing
    from nscurves.errors import InternalInvariantError

    def build(flip):
        dd = m.drawing.clone()
        sid2 = next(iter(dd.strands))
        stw = dd.strands[sid2]
        p0w = stw.pts[0]
        triw = stw.tris[0]
        own = dd.side_of_point_in_tri(p0w, triw)
        side = next(s for s in range(3)
                    if s != own and (triw, s) in dd.surface.glue)
        edge = dd.surface.side_edge[(triw, side)]
        other = dd.surface.glue[(triw, side)][0]
        k = len(dd.edge_pts[edge])
        q1 = dd.new_point(edge, k)
        q2 = dd.new_point(edge, k + 1)
        if flip:
            q1, q2 = q2, q1
        stw.pts = [p0w, q1, q2] + stw.pts[1:]
        stw.tris = [triw, other, triw] + stw.tris[1:]
        dd._bump()
        return curve_from_drawing(dd, sid2)

    try:
        wiggled = build(False)
    except InternalInvariantError:
        wiggled = build(True)
    assert wiggled == m
    assert wiggled.weights == m.weights


def test_dehn_twist_slope_formula(s11):
    m = torus_slope(s11, 1, 0)
    l = torus_slope(s11, 0, 1)
    for n in (1, 2, 4, -3):
        t = dehn_twist(m, l, n)
        assert t == torus_slope(s11, 1, n)
        assert intersection_number(t, m) == abs(n)


def test_dehn_twist_identity_and_inverse(s11):
    c = torus_slope(s11, 2, 1)
    l = torus_slope(s11, 0, 1)
    assert dehn_twist(c, l, 0) is c
    assert dehn_twist(dehn_twist(c, l, 2), l, -2) == c


def test_dehn_twist_checks_embeddedness_once_per_lap(s11, monkeypatch):
    # a twist on a surface with boundary draws no lap until its drawing is
    # read; then each lap's drawing is checked when its curve reduces the
    # turnbacks, and a second read draws nothing.  The memos are emptied
    # before each power, as the powers share their first laps.  Drawn
    # again past the lap memo, every lap is a repeat of a drawn content:
    # its curve comes from the curve memo, the same object, unchecked.
    calls = []
    check = Drawing.validate_embedded

    def counted(self):
        calls.append(self)
        return check(self)
    monkeypatch.setattr(Drawing, "validate_embedded", counted)
    c = torus_slope(s11, 2, 1)
    l = torus_slope(s11, 1, 1)
    for n in (1, 3, -2):
        monkeypatch.setattr(C, "_LAP_CACHE", {})
        monkeypatch.setattr(C, "_CURVE_CACHE", {})
        calls.clear()
        t = dehn_twist(c, l, n)
        assert len(calls) == 0
        t.drawing
        assert len(calls) == abs(n)
        calls.clear()
        t.drawing
        assert len(calls) == 0
        monkeypatch.setattr(C, "_LAP_CACHE", {})
        again = dehn_twist(c, l, n)
        assert again.drawing is t.drawing
        assert len(calls) == 0


@given(st.integers(-3, 3), st.integers(-3, 3))
@settings(max_examples=12, deadline=None)
def test_dehn_twist_powers_compose(s11, n, m):
    c = torus_slope(s11, 1, 1)
    l = torus_slope(s11, 1, 0)
    lhs = dehn_twist(dehn_twist(c, l, n), l, m)
    rhs = dehn_twist(c, l, n + m)
    assert lhs == rhs
    if n * m > 0:
        # same-sign powers run the same laps, so the drawings agree as well
        assert lhs.weights == rhs.weights


def test_twist_generators_nonseparating(s20):
    gens = twist_generators(s20)
    assert len(gens) == 5  # four handle duals plus one chain
    for _, g in gens:
        assert not g.is_separating()


def test_base_curves_are_built_once(s12, s20):
    for surf in (s12, s20):
        assert base_curves(surf) is base_curves(surf)


def test_fixture_curves_are_checked_for_embeddedness_once(
        s11, s12, s21, monkeypatch):
    # the curve constructor's `reduce_turnbacks` is each fixture curve's
    # one check; the first build of each warms the surface caches, whose
    # fixture drawings are checked there.  With the curve memo emptied a
    # build checks once; a repeat checks nothing and returns the same curve
    builds = [lambda: torus_slope(s11, 2, 3),
              lambda: dual_curve(s21, s21.polygon.handle_sides[1][0]),
              lambda: boundary_parallel_curve(s12, 1)]
    calls = []
    check = Drawing.validate_embedded

    def counted(self):
        calls.append(self)
        return check(self)
    monkeypatch.setattr(Drawing, "validate_embedded", counted)
    for build in builds:
        build()
        monkeypatch.setattr(C, "_CURVE_CACHE", {})
        calls.clear()
        first = build()
        assert len(calls) == 1
        calls.clear()
        assert build() is first
        assert len(calls) == 0


def test_random_curve_deterministic(s20):
    a = random_curve(s20, seeded(5), max_twists=3)
    b = random_curve(s20, seeded(5), max_twists=3)
    assert a == b and a.weights == b.weights


def test_random_curves_keep_their_base_curve_within_the_bound(all_surfaces):
    # a word of zero twists returns its base curve, which must be within
    # the bound too
    for surface in all_surfaces:
        smallest = min(c.complexity for c in base_curves(surface))
        with pytest.raises(NSCurvesError, match="exceeding bounds"):
            random_curve(surface, seeded(3), complexity_bound=smallest - 1)
        rng = seeded(3)
        for _ in range(10):
            c = random_curve(surface, rng, max_twists=0,
                             complexity_bound=smallest)
            assert c.complexity == smallest


def test_literals(s11):
    assert parse_curve("pq:1/2", s11) == torus_slope(s11, 1, 2)
    m = torus_slope(s11, 1, 0)
    assert parse_curve(m.literal(), s11) == m
    t = parse_curve("tw:B2@pq:1/0", s11)
    assert t == torus_slope(s11, 1, 2)
    assert parse_curve("bd:0", s11).peripheral


def test_complexity_is_total_weight(s11):
    c = torus_slope(s11, 2, 3)
    assert c.complexity == sum(c.weights)


def test_passages_run_along_the_strand_up_to_rotation(s11, s12, s21):
    # a path-built twist result keeps its spliced path, which may start
    # elsewhere than the strand its drawing replays
    rotated = 0
    for surf in (s11, s12, s21):
        for c in sample_curves(surf, 5, 30):
            path, drawn = c.passages(), c.drawing.passages(c.sid)
            assert len(path) == len(drawn)
            assert any(drawn[k:] + drawn[:k] == path
                       for k in range(len(drawn)))
            rotated += path != drawn
    assert rotated > 0


# -- the curve memo ------------------------------------------------------------


def _memo_workload(surf, rng):
    """Bicorn constructions on a seeded triple: chains, the bicorn graph,
    the triple's bicorns, complement curves and intersection witnesses
    all glue or cut solo drawings and build their curves."""
    from nscurves import bicorn as B
    from nscurves import pairconfig as PC
    from nscurves.verify import sample_curve, sample_pair
    a, b, _ = sample_pair(surf, rng, 3, 8, 100)
    d = sample_curve(surf, rng, 100)
    B.connect_in_bicorn_graph(a, b)
    B.bicorn_graph(a, b)
    cfg = B.triple_config(a, b, d)
    list(B.enumerate_bicorns(cfg))
    list(PC.complement_curves(PC.draw_pair(a, b)))
    PC.intersection_witness(d)
    for _ in range(2):
        for drawing, message in _inessential_drawings(surf):
            with pytest.raises(Inessential, match=message):
                C.curve_from_drawing(drawing, 0)


def _inessential_drawings(surf):
    """A circle around the middle of an interior edge, which bounds a disk,
    and on a closed surface the link of its vertex, nullhomotopic."""
    e = next(e for e in surf.edges if not e.is_boundary)
    circle = Drawing(surf)
    circle.add_strand([circle.new_point(e.id, 0), circle.new_point(e.id, 1)],
                      [e.front[0], e.back[0]])
    yield circle, "bounds a disk"
    if surf.boundary_count == 0:
        yield (Drawing.from_normal_coords(surf, [2] * len(surf.edges)),
               "nullhomotopic")


def _built_fields(curve):
    d = curve.drawing
    return (curve.sid, curve.weights, curve.word_key, curve.cls,
            curve.forward_canonical, curve.peripheral,
            curve.drawn_signature(), curve.passages(), d.content(),
            sorted(d.pt_edge.items()))


def _outcome(build, drawing, sid):
    try:
        return build(drawing, sid)
    except Inessential as exc:
        return exc


def test_memoized_curves_equal_fresh_builds(all_surfaces, monkeypatch):
    # every call's drawing is copied before the call; with the memo
    # emptied, the copy builds the same curve fields, or raises the same
    # Inessential, as the call gave, whether it built or read the memo
    calls = []
    memoized = C.Curve.__dict__["_from_drawing"]
    real = C.Curve._from_drawing

    def recorded(cls, drawing, sid):
        copy = drawing.clone()
        got = _outcome(real, drawing, sid)
        calls.append((copy, sid, got))
        if isinstance(got, Inessential):
            raise got
        return got
    monkeypatch.setattr(C.Curve, "_from_drawing", classmethod(recorded))
    rng = seeded(241)
    for surf in all_surfaces:
        _memo_workload(surf, rng)
    monkeypatch.setattr(C.Curve, "_from_drawing", memoized)
    built = len(C._CURVE_CACHE)
    inessential = 0
    for copy, sid, got in calls:
        monkeypatch.setattr(C, "_CURVE_CACHE", {})
        fresh = _outcome(C.Curve._from_drawing, copy, sid)
        if isinstance(got, Inessential):
            assert type(fresh) is type(got) and fresh.args == got.args
            inessential += 1
        else:
            assert fresh is not got
            assert _built_fields(fresh) == _built_fields(got)
    # over a third of the calls read the memo
    assert 3 * (len(calls) - built) > len(calls) and inessential > 0


def test_curve_memo_stays_within_its_cap(s21, monkeypatch):
    # with the cap at 5 every store first evicts the oldest entries; the
    # memo never holds more, and keeps the last 5 distinct drawings built
    monkeypatch.setattr(C, "_CURVE_CACHE_SIZE", 5)
    sizes, stored = [], []
    real = C.memo_store

    def watched(memo, cap, key, value):
        real(memo, cap, key, value)
        if memo is C._CURVE_CACHE:
            sizes.append(len(memo))
            stored.append(key)
    monkeypatch.setattr(C, "memo_store", watched)
    _memo_workload(s21, seeded(243))
    assert len(stored) > 20 and max(sizes) == 5
    assert list(C._CURVE_CACHE) == stored[-5:]


def test_self_crossing_drawings_raise_on_every_call(all_surfaces):
    # a failed check is not remembered: swapping two points of a curve's
    # edge makes its strand cross itself, and each build raises
    for surf in all_surfaces:
        base, e = next((c.drawing, e) for c in sample_curves(surf, 245, 8)
                       for e, pts in c.drawing.edge_pts.items()
                       if len(pts) >= 2)
        for _ in range(2):
            d = base.clone()
            row = d.edge_pts[e]
            row[0], row[1] = row[1], row[0]
            with pytest.raises(InternalInvariantError,
                               match="crosses itself"):
                C.curve_from_drawing(d, next(iter(d.strands)))
        assert (surf, d.content()) not in C._CURVE_CACHE
