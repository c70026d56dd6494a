import itertools
from math import gcd

import pytest
from hypothesis import given, settings, strategies as st

from nscurves import curve as C, pairconfig as PC
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
        return curve_from_drawing(dd)

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
    # turnbacks, and a second read draws nothing.  Laps twist on memoized
    # pair drawings but are not memoized themselves, so the powers, which
    # share their first laps, check each of theirs, and a twist built
    # again past the twist memo draws and checks every lap again, to a
    # drawing of the same content
    calls = []
    check = Drawing.validate_embedded

    def counted(self):
        calls.append(self)
        return check(self)
    monkeypatch.setattr(Drawing, "validate_embedded", counted)
    c = torus_slope(s11, 2, 1)
    l = torus_slope(s11, 1, 1)
    for n in (1, 3, -2):
        calls.clear()
        t = dehn_twist(c, l, n)
        assert len(calls) == 0
        t.drawing
        assert len(calls) == abs(n)
        calls.clear()
        t.drawing
        assert len(calls) == 0
        monkeypatch.setattr(C, "_TWIST_CACHE", {})
        again = dehn_twist(c, l, n)
        assert again is not t
        assert again.drawing.content() == t.drawing.content()
        assert len(calls) == abs(n)


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
    # a fixture curve is built on its path and draws nothing; the first
    # read of its drawing traces the path's weights, a normal curve and
    # so embedded, and checks once that the one strand traced runs along
    # the path (`Drawing.from_path`).  A second read draws nothing, and a
    # repeated build is an equal curve on the same path.  The first build
    # of each warms the surface caches, whose fixture drawings are checked
    # there
    builds = [lambda: torus_slope(s11, 2, 3),
              lambda: dual_curve(s21, s21.polygon.handle_sides[1][0]),
              lambda: boundary_parallel_curve(s12, 1)]
    drawn, checked = [], []
    trace, check = Drawing.from_path.__func__, Drawing.validate_embedded

    def traced(cls, surface, path):
        drawn.append(path)
        return trace(cls, surface, path)

    def counted(self):
        checked.append(self)
        return check(self)
    monkeypatch.setattr(Drawing, "from_path", classmethod(traced))
    monkeypatch.setattr(Drawing, "validate_embedded", counted)
    for build in builds:
        build()
        drawn.clear()
        checked.clear()
        first = build()
        assert drawn == []
        assert first.drawing.passages(0) == first.passages()
        assert drawn == [first.passages()]
        first.drawing
        again = build()
        assert again == first and again.passages() == first.passages()
        assert len(drawn) == 1 and checked == []


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


def test_passages_run_along_the_strand_up_to_rotation(all_surfaces):
    # a path-built twist result keeps its spliced path, which may start
    # elsewhere than the strand its drawing replays; on the closed surface
    # too, where the path is reduced in the surface punctured at its
    # vertex.  The pair and witness memos key by drawing content on this
    for surf in all_surfaces:
        rotated = 0
        for c in sample_curves(surf, 5, 30):
            path, drawn = c.passages(), c.drawing.passages(0)
            assert len(path) == len(drawn)
            assert any(drawn[k:] + drawn[:k] == path
                       for k in range(len(drawn)))
            rotated += path != drawn
        assert rotated > 0, surf.spec_name


# -- curves built from drawings ----------------------------------------------


def _drawing_workload(surf, rng):
    """Bicorn constructions on a seeded triple: chains, the bicorn graph,
    the triple's bicorns, complement curves and intersection witnesses;
    the last two cut solo drawings and build their curves."""
    from nscurves import bicorn as B
    from nscurves.verify import sample_curve, sample_pair
    a, b, _ = sample_pair(surf, rng, 3, 8, 100)
    d = sample_curve(surf, rng, 100)
    B.connect_in_bicorn_graph(a, b)
    B.bicorn_graph(a, b)
    cfg = B.triple_config(a, b, d)
    list(B.enumerate_bicorns(cfg))
    list(PC.complement_curves(PC.draw_pair(a, b).drawing))
    PC.intersection_witness(d)
    for _ in range(2):
        for drawing, message in _inessential_drawings(surf):
            with pytest.raises(Inessential, match=message):
                C.curve_from_drawing(drawing)


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


def test_self_crossing_drawings_raise_on_every_call(all_surfaces):
    # swapping two points of a curve's edge makes its strand cross itself,
    # and each build raises
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
                C.curve_from_drawing(d)


# -- curves own normalized solo drawings ---------------------------------------


def _recorded_builds(monkeypatch, surfaces, seed):
    """(drawing content before, after, whether it had turnbacks, curve or
    None) for every `curve_from_drawing` call of the drawing workload."""
    calls = []
    real = C.curve_from_drawing

    def recorded(drawing):
        before = drawing.content()
        turnbacks = drawing.find_turnback(0) is not None
        try:
            curve = real(drawing)
        except Inessential:
            calls.append((before, drawing.content(), turnbacks, None))
            raise
        calls.append((before, drawing.content(), turnbacks, curve))
        return curve
    monkeypatch.setattr(C, "curve_from_drawing", recorded)
    rng = seeded(seed)
    for surf in surfaces:
        _drawing_workload(surf, rng)
    monkeypatch.setattr(C, "curve_from_drawing", real)
    return calls


def test_curve_from_drawing_leaves_its_drawing_unchanged(all_surfaces,
                                                         monkeypatch):
    # turnbacks or none, the drawing passed in keeps its content; a curve
    # whose strand had turnbacks owns a copy
    calls = _recorded_builds(monkeypatch, all_surfaces, 247)
    assert all(before == after for before, after, _, _ in calls)
    copied = [c for before, _, turnbacks, c in calls
              if turnbacks and c is not None
              and c.drawing.content() != before]
    assert copied
    # a drawing of two strands, or of one strand other than 0, is refused
    a, b = sample_curves(all_surfaces[0], 249, 2)
    d, sid_a, sid_b = PC.minimal_pair_drawing(a, b)
    before = d.content()
    with pytest.raises(InternalInvariantError, match="strand 0 alone"):
        C.curve_from_drawing(d)
    assert d.content() == before
    d.drop_strand(sid_a)
    with pytest.raises(InternalInvariantError, match="strand 0 alone"):
        C.curve_from_drawing(d)


def _wiggled(drawing, rng):
    """A copy of a solo drawing whose strand zigzags across the edge of a
    random point p: p, then two new points next to it on its edge, the
    strand turning back between them.  Each turn is a turnback, and the
    new chords cross nothing, as the new points are adjacent to p."""
    d = drawing.clone()
    st = d.strands[0]
    k = rng.randrange(len(st.pts))
    p = st.pts[k]
    e, rank = d.pt_edge[p], d.pos(p)
    m, q = d.new_point(e, rank + 1), d.new_point(e, rank + 2)
    st.pts = st.pts[:k + 1] + [m, q] + st.pts[k + 1:]
    st.tris = st.tris[:k] + [st.tris[k], st.tris[k - 1]] + st.tris[k:]
    return d


@pytest.mark.parametrize("spec", ["g1b1", "g1b2", "g2b0", "g2b1", "g3b0"])
def test_drawn_curves_take_the_turnback_reduced_strand(spec, monkeypatch):
    # every drawing a curve is built from (the laps of drawn twists,
    # intersection witnesses, complement curves and hand-made wiggles,
    # once and twice over) gives the path and the drawing content that
    # removing its turnbacks one at a time gives, and is inessential
    # exactly where that strand is gone or its word trivial
    from nscurves.surface import parse_surface_spec
    surf = parse_surface_spec(spec)
    rng = seeded(271)
    built = []
    real = C.curve_from_drawing

    def recorded(drawing):
        given = drawing.clone()
        try:
            got = real(drawing)
        except Inessential:
            got = None
        built.append((given, got))
        if got is None:
            raise Inessential("as recorded")
        return got
    monkeypatch.setattr(C, "curve_from_drawing", recorded)
    cs = sample_curves(surf, 271, 6, complexity_bound=80)
    for a, c in zip(cs, cs[1:]):
        if a != c:
            C._drawn_twist(a, c, rng.choice([-2, -1, 1, 2]))
            list(PC.complement_curves(PC.draw_pair(a, c).drawing))
        PC.intersection_witness(a)
    drawn = len(built)
    for a in cs:
        once = _wiggled(a.drawing, rng)
        for d in (once, _wiggled(once, rng)):
            C.curve_from_drawing(d)
    for d, _ in _inessential_drawings(surf):
        with pytest.raises(Inessential):
            C.curve_from_drawing(d)
    turnbacks = []
    for given, got in built:
        want = given.clone()
        turnbacks.append(want.reduce_turnbacks(0) > 0)
        if got is None:
            assert 0 not in want.strands \
                or C._is_trivial(surf, want.word_of(0))
            continue
        assert got.passages() == want.passages(0)
        assert got.drawing.content() == want.content()
    # the laps, witnesses and complement curves have turnbacks, and
    # drawings without any too; every wiggle has them
    assert 0 < sum(turnbacks[:drawn]) < drawn
    assert all(turnbacks[drawn:drawn + 2 * len(cs)])


def _drawn_strand(curve):
    """The strand as (edge, rank on that edge, triangle) per point, in
    strand order: the signature the drawing content stands for."""
    d = curve.drawing
    (st,) = d.strands.values()
    assert len(d.pt_edge) == len(st.pts)
    rank = {p: k for pts in d.edge_pts.values() for k, p in enumerate(pts)}
    return tuple((d.pt_edge[p], rank[p], tri)
                 for p, tri in zip(st.pts, st.tris))


def test_equal_drawing_contents_are_equal_drawn_strands(all_surfaces,
                                                        monkeypatch):
    # curves built from different drawings may draw the same strand; two
    # curves of a surface have equal drawing contents exactly when they
    # draw equal strands, and every drawing is numbered in edge order
    calls = _recorded_builds(monkeypatch, all_surfaces, 251)
    curves = {id(c): c for _, _, _, c in calls if c is not None}
    contents, strands = {}, {}
    for c in curves.values():
        d = c.drawing
        assert d.content() == d.sub_drawing([d.strands[0]]).content()
        content, strand = (c.surface, d.content()), (c.surface,
                                                     _drawn_strand(c))
        contents.setdefault(content, set()).add(strand)
        strands.setdefault(strand, set()).add(content)
    assert all(len(v) == 1 for v in contents.values())
    assert all(len(v) == 1 for v in strands.values())
    assert len(contents) < len(curves)


# -- curves of glued walks are memoized by their reduced path -----------------


def _walk_workload(surfaces, seed):
    """Glued walks of seeded triples: every bicorn, both surgery curves,
    and the projections of the nonseparating bicorns."""
    from nscurves import bicorn as B
    from nscurves.verify import sample_curve, sample_pair
    rng = seeded(seed)
    for surf in surfaces:
        a, b, _ = sample_pair(surf, rng, 3, 8, 100)
        cfg = B.triple_config(a, b, sample_curve(surf, rng, 100))
        seen = set()
        for bc in B.enumerate_bicorns(cfg):
            if not bc.derived.is_separating() and bc.derived not in seen:
                seen.add(bc.derived)
                B.project_to_sides(bc, cfg.d_curve, cfg)
        B.surgery_pair(cfg)


def _recorded_walks(monkeypatch, surfaces, seed):
    """(surface, reduced path, whether the memo held it, outcome) of every
    `curve_from_walk` call of the walk workload."""
    calls = []
    real = C.curve_from_walk

    def recorded(surface, darts):
        path = C._reduced_path(surface.glue, darts)
        held = (surface, path) in C._WALK_CACHE
        got = real(surface, darts)
        calls.append((surface, path, held, got))
        return got
    monkeypatch.setattr(C, "curve_from_walk", recorded)
    _walk_workload(surfaces, seed)
    monkeypatch.setattr(C, "curve_from_walk", real)
    return calls


def _path_fields(curve):
    return (curve.weights, curve.word_key, curve.cls,
            curve.forward_canonical, curve.passages())


def test_memoized_walk_curves_equal_fresh_builds(all_surfaces, monkeypatch):
    # a hit is the curve a fresh build on the same path gives, its
    # passages and the content of its drawing included; equal paths give
    # the same outcome, a curve or None, every time
    calls = _recorded_walks(monkeypatch, all_surfaces, 247)
    hits = [call for call in calls if call[2]]
    assert len(hits) > len(calls) // 3
    outcomes = {}
    for surface, path, _, got in calls:
        assert outcomes.setdefault((surface, path), got) is got
    for surface, path, _, got in hits:
        if got is None:
            continue
        fresh = C.Curve._from_path(surface, path)
        assert _path_fields(got) == _path_fields(fresh)
        assert got.drawing.content() == fresh.drawing.content()


def test_an_inessential_walk_memoizes_none(s20, monkeypatch):
    # the link of the vertex of a closed surface reduces to a nonempty
    # path whose word is trivial: the memo keeps None for it, and a
    # second walk is answered without a word test
    link = Drawing.from_normal_coords(s20, [2] * len(s20.edges))
    darts = [(tri, s_out) for tri, _, s_out in link.passages(0)]
    path = C._reduced_path(s20.glue, darts)
    assert path
    assert C.curve_from_walk(s20, darts) is None
    assert (s20, path) in C._WALK_CACHE
    assert C._WALK_CACHE[(s20, path)] is None
    tested = []
    real = C._is_trivial

    def counted(surf, word):
        tested.append(word)
        return real(surf, word)
    monkeypatch.setattr(C, "_is_trivial", counted)
    assert C.curve_from_walk(s20, darts) is None
    assert tested == []


def test_walk_memo_stays_within_its_cap(all_surfaces, monkeypatch):
    # a small cap evicts the oldest paths first, and the outcomes are
    # those of fresh builds all the same
    monkeypatch.setattr(C, "_WALK_CACHE_SIZE", 8)
    sizes = []
    store = C.memo_store

    def watched(memo, cap, key, value):
        store(memo, cap, key, value)
        if memo is C._WALK_CACHE:
            sizes.append(len(memo))
    monkeypatch.setattr(C, "memo_store", watched)
    calls = _recorded_walks(monkeypatch, all_surfaces, 251)
    assert len({(s, p) for s, p, _, _ in calls}) > 8
    assert sizes and max(sizes) == 8
    assert len(C._WALK_CACHE) <= 8
    for surface, path, _, got in calls:
        if got is not None:
            assert _path_fields(got) == \
                _path_fields(C.Curve._from_path(surface, path))
