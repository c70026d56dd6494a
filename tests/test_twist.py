"""Dehn twists spliced on dual paths, against drawn laps and Prop. 3.2."""

import time

import pytest

from nscurves import curve as C, pairconfig as PC
from nscurves.curve import (POSITIVE_HANDEDNESS, Curve, base_curves,
                            curve_from_drawing, dehn_twist, parse_curve,
                            torus_slope, twist_generators)
from nscurves.drawing import Drawing, overlay
from nscurves.errors import InternalInvariantError
from nscurves.pairconfig import (intersection_number, intersection_witness,
                                 linked_runs, minimal_pair_drawing,
                                 path_intersection_number, reversed_path)
from nscurves.surface import build_surface
from conftest import sample_curves, seeded


def _drawn_laps(curve, along, power):
    """The twist drawn lap by lap, as closed surfaces still draw it."""
    handed = POSITIVE_HANDEDNESS if power > 0 else -POSITIVE_HANDEDNESS
    out = curve
    for _ in range(abs(power)):
        d, sid_c, sid_t = minimal_pair_drawing(out, along)
        solo = d.twist_once(sid_c, sid_t, handed)
        out = curve_from_drawing(solo, next(iter(solo.strands)))
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
    pa = a.passages()
    starts = [i for pc in (c.passages(), reversed_path(c.passages()))
              for i, _, _ in linked_runs(pa, pc)]
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
        got_st = got.drawing.strands[got.sid]
        want_st = want.drawing.strands[want.sid]
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
    def refuse(*args, **kwargs):
        raise AssertionError("drew a twist")

    populations = [(sample_curves(surf, 80 + k, 4),
                    [c for _, c in twist_generators(surf)])
                   for k, surf in enumerate((s11, s12, s21))]
    closed = dict(twist_generators(s20))
    monkeypatch.setattr(PC, "minimal_pair_drawing", refuse)
    monkeypatch.setattr(Drawing, "twist_once", refuse)
    for curves, gens in populations:
        for a in curves:
            for c in gens:
                image = dehn_twist(dehn_twist(a, c, 2), curves[0], -1)
                intersection_number(image, a)
    # the closed surface still draws its twists
    with pytest.raises(AssertionError, match="drew a twist"):
        dehn_twist(closed["A"], closed["B"], 1)


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


def _drawn_fields(curve):
    st = curve.drawing.strands[curve.sid]
    return (curve.drawing.edge_pts, st.pts, st.tris, curve.weights,
            curve.word_key, curve.cls, curve.forward_canonical)


def test_memoized_laps_equal_fresh_ones(all_surfaces, monkeypatch):
    # a twin of a, drawn from a copy of its drawing renumbered in edge
    # order, reads every lap of a's twists from the memo; each equals the
    # laps drawn afresh from the twin, their curves built past the curve
    # memo
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
            d, (sid,) = overlay([a.drawing])
            twin = curve_from_drawing(d, sid)
            assert twin.drawn_signature() == a.drawn_signature()
            for power in (1, 2, -1):
                memo = C._drawn_twist(a, c, power)
                del laps[:]
                hit = C._drawn_twist(twin, c, power)
                assert hit is memo and laps == []
                monkeypatch.setattr(C, "_CURVE_CACHE", {})
                fresh = _drawn_laps(twin, c, power)
                assert len(laps) == abs(power)
                assert _drawn_fields(hit) == _drawn_fields(fresh)
                checked += 1
    assert checked >= 24


def test_lap_memo_keeps_surfaces_apart(s11):
    # a second model of g1b1 draws the same signatures; its laps are drawn
    # on it, so the replayed drawing of a twist there agrees with its path
    other = build_surface.__wrapped__(1, 1)
    a, c = torus_slope(s11, 2, 1), torus_slope(s11, 1, 1)
    a2, c2 = torus_slope(other, 2, 1), torus_slope(other, 1, 1)
    assert (a.drawn_signature(), c.drawn_signature()) == \
        (a2.drawn_signature(), c2.drawn_signature())
    t = C._drawn_twist(a, c, 2)
    t2 = dehn_twist(a2, c2, 2)
    assert t2.drawing.surface is other and t.drawing.surface is s11
    assert len(C._LAP_CACHE) == 4
    assert t2.weights == t.weights and t2.surface is other


def test_two_laps_on_the_closed_surface_get_a_key(s20):
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
