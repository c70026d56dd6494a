"""Dehn twists spliced on dual paths, against drawn laps and Prop. 3.2."""

import time

import pytest

from nscurves import curve as C, pairconfig as PC
from nscurves.curve import (POSITIVE_HANDEDNESS, Curve, base_curves,
                            curve_from_drawing, curve_from_normal_coords,
                            dehn_twist, parse_curve, torus_slope,
                            twist_generators)
from nscurves.drawing import Drawing, overlay
from nscurves.errors import InternalInvariantError
from nscurves.pairconfig import (intersection_number, intersection_witness,
                                 linked_runs, minimal_pair_drawing,
                                 path_intersection_number)
from nscurves.surface import build_surface, parse_surface_spec
from conftest import sample_curves, seeded


def _drawn_laps(curve, along, power):
    """The twist drawn lap by lap, as the replay of a twist result draws
    it."""
    handed = POSITIVE_HANDEDNESS if power > 0 else -POSITIVE_HANDEDNESS
    out = curve
    for _ in range(abs(power)):
        d, sid_c, sid_t = minimal_pair_drawing(out, along)
        solo = d.twist_once(sid_c, sid_t, handed)
        out = curve_from_drawing(solo)
    return out


def _twist_cases(surf, seed, count):
    """Seeded (a, c, power): c a generator, a push-in or a twist result."""
    rng = seeded(seed)
    gens = [c for _, c in twist_generators(surf)]
    pushes = list(base_curves(surf))[len(gens):]
    cases = []
    for a in sample_curves(surf, seed, count, complexity_bound=60):
        style = rng.randrange(3)
        if style == 0:
            c = rng.choice(gens)
        elif style == 1:
            c = rng.choice(pushes)
        else:
            # as `sample_pair` does: along a twist of a's witness by a
            c = dehn_twist(intersection_witness(a), a, rng.choice([-1, 1]))
        power = rng.choice([-10, -5, -2, -1, 1, 2, 5, 10])
        if path_intersection_number(a, c) ** 2 * abs(power) > 150:
            power = rng.choice([-1, 1])
        cases.append((a, c, power))
    return cases


def _shared_starts(a, c):
    """Whether two crossing runs of c start at one passage of a."""
    starts = [i for _, i, _, _ in linked_runs(a.passages(), c.passages())]
    return len(starts) != len(set(starts))


def test_path_twist_equals_drawn_laps(s11, s12, s21):
    cases = [case for k, surf in enumerate((s11, s12, s21))
             for case in _twist_cases(surf, 40 + k, 14)]
    # two crossing runs of this c start at one passage of this a
    a = parse_curve("nc:[2,1,1,1,0]", s11)
    c = parse_curve("nc:[2,1,3,1,0]", s11)
    cases += [(a, c, 5), (a, c, -5)]
    kinds, shared = set(), 0
    for a, c, power in cases:
        kinds.add((c in base_curves(c.surface), c.peripheral, abs(power)))
        shared += _shared_starts(a, c)
        got = dehn_twist(a, c, power)
        want = _drawn_laps(a, c, power)
        assert (got.weights, got.word_key, got.cls, got.peripheral) == \
            (want.weights, want.word_key, want.cls, want.peripheral)
        # the replayed drawing is the drawn twist's, point for point
        got_st = got.drawing.strands[0]
        want_st = want.drawing.strands[0]
        assert (got_st.pts, got_st.tris) == (want_st.pts, want_st.tris)
        assert got.drawing.edge_pts == want.drawing.edge_pts
        assert got.forward_canonical == want.forward_canonical
    # generators, push-ins and twist results, up to the tenth power
    assert {(True, False), (True, True), (False, False)} <= \
        {kind[:2] for kind in kinds}
    assert max(kind[2] for kind in kinds) == 10
    assert shared >= 2


def test_twist_meets_its_source_n_times_i_squared(s11, s12, s21):
    # Farb-Margalit, Primer, Prop. 3.2: i(T_c^n(a), a) = |n| i(a, c)^2
    met = 0
    for k, surf in enumerate((s11, s12, s21)):
        gens = [c for _, c in twist_generators(surf)]
        curves = sample_curves(surf, 60 + k, 5, complexity_bound=60)
        for a in curves:
            for c in gens + curves[:2]:
                if a == c:
                    continue
                i = path_intersection_number(a, c)
                met += i > 0
                for n in (1, 2, 5, 10, -1, -2, -5, -10):
                    image = dehn_twist(a, c, n)
                    assert path_intersection_number(image, a) == abs(n) * i * i
    assert met >= 20


def test_path_twist_draws_nothing(s11, s12, s20, s21, monkeypatch):
    # on every surface, closed ones included, a twist is spliced on the
    # paths and counted against its source without a lap being drawn
    def refuse(*args, **kwargs):
        raise AssertionError("drew a twist")

    populations = [(sample_curves(surf, 80 + k, 4),
                    [c for _, c in twist_generators(surf)])
                   for k, surf in enumerate((s11, s12, s21, s20))]
    monkeypatch.setattr(PC, "minimal_pair_drawing", refuse)
    monkeypatch.setattr(Drawing, "twist_once", refuse)
    for curves, gens in populations:
        for a in curves:
            for c in gens:
                image = dehn_twist(dehn_twist(a, c, 2), curves[0], -1)
                intersection_number(image, a)


@pytest.mark.parametrize("spec", ["g2b0", "g3b0"])
def test_closed_surface_twists_agree_with_their_replayed_laps(
        spec, monkeypatch):
    # that a closed-surface twist spliced on the paths of the punctured
    # surface has the minimal weights is only empirical: chains of twists
    # of sampled sources, along generators and sampled curves with powers
    # +-1 and +-2, each read their drawing, which replays the drawn laps
    # and checks them against the path; the strand runs along the path
    from nscurves.surface import parse_surface_spec
    laps = []
    lap = Drawing.twist_once

    def counted(self, *args):
        laps.append(args)
        return lap(self, *args)
    monkeypatch.setattr(Drawing, "twist_once", counted)
    surf = parse_surface_spec(spec)
    rng = seeded(283)
    gens = [c for _, c in twist_generators(surf)]
    images = 0
    for cur in sample_curves(surf, 283, 12, max_twists=3,
                             complexity_bound=80):
        along = gens + sample_curves(surf, rng.randrange(1000), 2,
                                     max_twists=3, complexity_bound=60)
        for _ in range(3):
            c = rng.choice(along)
            if c == cur:
                continue
            cur = dehn_twist(cur, c, rng.choice([-2, -1, 1, 2]))
            path, drawn = cur.passages(), cur.drawing.passages(0)
            assert any(drawn[k:] + drawn[:k] == path
                       for k in range(len(drawn)))
            images += 1
    assert images >= 30 and len(laps) >= images


def test_path_curve_checks_its_path_and_its_replay(s11):
    m, l = (c for _, c in twist_generators(s11))
    with pytest.raises(InternalInvariantError, match="empty"):
        Curve._from_path(s11, (), None)
    tri, s_in, s_out = m.passages()[0]
    with pytest.raises(InternalInvariantError, match="not reduced"):
        Curve._from_path(s11, ((tri, s_in, s_in),) + m.passages()[1:], None)
    with pytest.raises(InternalInvariantError, match="disconnected"):
        Curve._from_path(s11, m.passages() + l.passages(), None)
    # a path that is not the image of its twist fails when it is drawn
    wrong = Curve._from_path(s11, dehn_twist(m, l, 2).passages(), (m, l, 1))
    with pytest.raises(InternalInvariantError, match="disagrees"):
        wrong.drawing


def test_replay_runs_the_way_its_path_runs(s11, monkeypatch):
    # a path-built image reads its orientation off its path without
    # drawing; a replay that draws the same curve the other way round
    # agrees on everything else and still fails the check
    m, l = (c for _, c in twist_generators(s11))
    drawn_twist = C._drawn_twist

    def refuse(*args):
        raise AssertionError("drew a twist")

    def reversed_replay(curve, along, power):
        drawn = drawn_twist(curve, along, power)
        back = [(tri, s_out, s_in)
                for tri, s_in, s_out in reversed(drawn.passages())]
        out = curve_from_drawing(Drawing.from_path(s11, back))
        assert (out.weights, out.word_key, out.cls) == \
            (drawn.weights, drawn.word_key, drawn.cls)
        assert out.forward_canonical != drawn.forward_canonical
        return out

    image = dehn_twist(m, l, 2)
    monkeypatch.setattr(C, "_drawn_twist", refuse)
    forward = image.forward_canonical
    monkeypatch.setattr(C, "_drawn_twist", reversed_replay)
    with pytest.raises(InternalInvariantError, match="disagrees"):
        image.drawing
    monkeypatch.setattr(C, "_drawn_twist", drawn_twist)
    assert image.drawing.strands and image.forward_canonical == forward


def _twist_fields(curve):
    return (curve.weights, curve.word_key, curve.cls, curve.passages(),
            curve.forward_canonical, curve.drawing.content())


def test_memoized_twist_images_equal_fresh_ones(s11, s12, s21, s20,
                                                monkeypatch):
    # path-built images on g1b1, g1b2, g2b1 and g2b0: a repeated twist
    # returns the image the first one built; with the memos emptied, a
    # fresh build of it, and of a chain whose second source came from the
    # memo, has the same fields and the same drawing.  A
    # twin of the source, equal but drawn from its normal coordinates,
    # gets the image of its own drawing.
    from conftest import empty_drawing_memos
    checked = apart = 0
    for k, surf in enumerate((s11, s12, s21, s20)):
        gens = [c for _, c in twist_generators(surf)]
        rng = seeded(190 + k)
        for a in sample_curves(surf, 190 + k, 3, complexity_bound=60):
            twin = curve_from_normal_coords(surf, a.weights)
            c = rng.choice([g for g in gens if g != a])
            c2 = rng.choice(gens)
            p, q = rng.choice([-2, -1, 1, 2]), rng.choice([-1, 1])
            image = dehn_twist(a, c, p)
            assert dehn_twist(a, c, p) is image
            chain = dehn_twist(dehn_twist(a, c, p), c2, q)
            assert dehn_twist(image, c2, q) is chain
            memo = [_twist_fields(image), _twist_fields(chain),
                    _twist_fields(dehn_twist(twin, c, p))]
            empty_drawing_memos.__wrapped__(monkeypatch)
            fresh = dehn_twist(a, c, p)
            assert fresh is not image
            fresh_chain = dehn_twist(fresh, c2, q)
            assert [_twist_fields(fresh), _twist_fields(fresh_chain),
                    _twist_fields(dehn_twist(twin, c, p))] == memo
            apart += memo[0][-1] != memo[2][-1]
            checked += 1
    assert checked == 12 and apart > 0


def _splice_chains(surf, seed):
    """Seeded twist chains of up to three links from a generator along
    generators that meet their sources: the (source, along, power) of
    each link, each source the image of the link before it."""
    rng = seeded(seed)
    gens = [c for _, c in twist_generators(surf)]
    links = []
    for _ in range(3):
        cur = rng.choice(gens)
        for _ in range(3):
            along = rng.choice([g for g in gens
                                if path_intersection_number(cur, g)])
            power = rng.choice([-2, -1, 1, 2])
            links.append((cur, along, power))
            cur = dehn_twist(cur, along, power)
            if cur.complexity > 60:
                break
    return links


@pytest.mark.parametrize("spec", ["g1b1", "g1b2", "g2b0", "g2b1", "g3b0"])
def test_equal_path_sources_take_their_splice_from_the_memo(
        spec, monkeypatch):
    # a twin of each source of a seeded chain is another object on the
    # same path; its image is served by the splice memo without a splice,
    # is a new object whose lineage names the twin, and equals a fresh
    # build on the spliced path, its replayed drawing included.  A twin
    # on a rotation of the path is spliced afresh.
    surf = parse_surface_spec(spec)
    links = _splice_chains(surf, 400 + len(spec))
    splices = []
    real = C._twisted_path

    def counted(curve, along, power):
        splices.append((curve, along, power))
        return real(curve, along, power)
    monkeypatch.setattr(C, "_twisted_path", counted)
    served = []
    for cur, along, power in links:
        twin = Curve._from_path(surf, cur.passages(), cur._twist)
        image = dehn_twist(cur, along, power)
        del splices[:]
        hit = dehn_twist(twin, along, power)
        assert splices == []
        assert hit is not image and hit.passages() == image.passages()
        served.append((twin, along, power, hit, image, cur))
        path = cur.passages()
        dehn_twist(Curve._from_path(surf, path[1:] + path[:1]), along, power)
        assert len(splices) == 1
    assert len(served) >= 5
    for twin, along, power, hit, image, cur in served:
        assert hit._twist[0] is twin and image._twist[0] is cur
        assert hit._twist[1:] == image._twist[1:] == (along, power)
    for twin, along, power, hit, _, _ in served:
        fresh = Curve._from_path(surf, real(twin, along, power),
                                 (twin, along, power))
        assert hit.peripheral == fresh.peripheral
        assert _twist_fields(hit) == _twist_fields(fresh)


def test_splice_memo_stays_within_its_cap(s11, s12, monkeypatch):
    # a small cap evicts the oldest splices first, and the images are
    # those of fresh builds all the same
    monkeypatch.setattr(C, "_SPLICE_CACHE_SIZE", 4)
    sizes = []
    store = C.memo_store

    def watched(memo, cap, key, value):
        store(memo, cap, key, value)
        if memo is C._SPLICE_CACHE:
            sizes.append(len(memo))
    monkeypatch.setattr(C, "memo_store", watched)
    links = _splice_chains(s11, 431) + _splice_chains(s12, 432)
    assert len(sizes) > 4 and max(sizes) == 4
    assert len(C._SPLICE_CACHE) <= 4
    for cur, along, power in links:
        image = dehn_twist(cur, along, power)
        fresh = Curve._from_path(cur.surface,
                                 C._twisted_path(cur, along, power),
                                 (cur, along, power))
        assert _twist_fields(image) == _twist_fields(fresh)


def test_a_ball_splices_each_path_triple_once(s11, monkeypatch):
    # the breadth-first search reaches curves along several routes, so
    # twists of distinct sources on one path recur; each distinct
    # (surface, source path, twisting path, power) is spliced once
    from nscurves.verify import build_ball
    asked, spliced = [], []
    twist, splice = C.dehn_twist, C._twisted_path

    def asking(curve, along, power):
        if power != 0 and curve != along:
            asked.append((curve, along, power))
        return twist(curve, along, power)

    def splicing(curve, along, power):
        spliced.append((curve.surface, curve.passages(), along.passages(),
                        power))
        return splice(curve, along, power)
    monkeypatch.setattr(C, "dehn_twist", asking)
    monkeypatch.setattr(C, "_twisted_path", splicing)
    build_ball(s11, torus_slope(s11, 1, 0), 2, 12, twist_powers=10)
    keys = {(c.surface, c.passages(), t.passages(), n) for c, t, n in asked}
    by_identity = {(id(c), id(t), n) for c, t, n in asked}
    assert len(spliced) == len(keys)
    assert set(spliced) == keys
    assert len(by_identity) > len(keys)


def _drawn_fields(curve):
    st = curve.drawing.strands[0]
    return (curve.drawing.edge_pts, st.pts, st.tris, curve.weights,
            curve.word_key, curve.cls, curve.forward_canonical)


def test_memoized_laps_equal_fresh_ones(all_surfaces, monkeypatch):
    # a twin of a, built from a copy of its drawing renumbered in edge
    # order, reads every lap of a's twists from the memo; each equals the
    # laps drawn afresh from the twin
    laps = []
    lap = Drawing.twist_once

    def counted(self, *args):
        laps.append(args)
        return lap(self, *args)
    monkeypatch.setattr(Drawing, "twist_once", counted)
    checked = 0
    for k, surf in enumerate(all_surfaces):
        cs = sample_curves(surf, 170 + k, 4, complexity_bound=60)
        for a, c in zip(cs, cs[1:]):
            if a == c:
                continue
            d, _ = overlay([a.drawing])
            twin = curve_from_drawing(d)
            assert twin is not a
            assert twin.drawing.content() == a.drawing.content()
            for power in (1, 2, -1):
                memo = C._drawn_twist(a, c, power)
                del laps[:]
                hit = C._drawn_twist(twin, c, power)
                assert hit is memo and laps == []
                fresh = _drawn_laps(twin, c, power)
                assert len(laps) == abs(power)
                assert _drawn_fields(hit) == _drawn_fields(fresh)
                checked += 1
    assert checked >= 24


def test_lap_memo_keeps_surfaces_apart(s11):
    # a second model of g1b1 draws the same contents; its laps are drawn
    # on it, so the replayed drawing of a twist there agrees with its path
    other = build_surface.__wrapped__(1, 1)
    a, c = torus_slope(s11, 2, 1), torus_slope(s11, 1, 1)
    a2, c2 = torus_slope(other, 2, 1), torus_slope(other, 1, 1)
    assert (a.drawing.content(), c.drawing.content()) == \
        (a2.drawing.content(), c2.drawing.content())
    t = C._drawn_twist(a, c, 2)
    t2 = dehn_twist(a2, c2, 2)
    assert t2.drawing.surface is other and t.drawing.surface is s11
    assert len(C._LAP_CACHE) == 4
    assert t2.weights == t.weights and t2.surface is other


def test_a_closed_surface_image_spliced_twice_gets_a_key_quickly(s20):
    # a word of length 158 whose half-swap orbit has more than 200,000
    # rotations
    a = parse_curve("nc:[0,1,1,1,2,1,1,2,3]", s20)
    along = parse_curve("nc:[6,2,4,2,4,2,2,1,1]", s20)
    start = time.perf_counter()
    image = dehn_twist(a, along, 2)
    key = image.key()
    assert time.perf_counter() - start < 1.0
    assert image == dehn_twist(dehn_twist(a, along, 1), along, 1)
    assert key != a.key()
