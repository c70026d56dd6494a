import itertools

import pytest
from hypothesis import given, settings, strategies as st
from math import gcd

from nscurves.arrangement import Arrangement, cut_component_count, face_data
from nscurves.drawing import Drawing, overlay
from nscurves.errors import InternalInvariantError, NSCurvesError
from nscurves.curve import (base_curves, boundary_parallel_curve,
                            curve_from_normal_coords, dehn_twist, parse_curve,
                            torus_slope)
from nscurves import pairconfig as PC
from nscurves.pairconfig import (PairConfiguration, algebraic_intersection,
                                 cut_components, draw_pair,
                                 find_complement_curve,
                                 homological_intersection, intersection_number,
                                 linked_runs, meets_at_most,
                                 minimal_pair_drawing, path_intersection_number)
from nscurves.curve import twist_generators
from nscurves.surface import build_surface
from nscurves.verify import random_curve_any, sample_pair
from conftest import sample_curves, seeded


def test_equal_classes_drawn_disjoint(s11):
    m = torus_slope(s11, 1, 0)
    cfg = draw_pair(m, torus_slope(s11, 1, 0))
    assert cfg.count() == 0
    assert len(cfg.drawing.strands) == 2


def test_small_vertex_counts(s11):
    cfg = draw_pair(torus_slope(s11, 1, 0), torus_slope(s11, 0, 1))
    assert cfg.count() == 1
    cfg2 = draw_pair(torus_slope(s11, 1, 0), torus_slope(s11, 1, 2))
    assert cfg2.count() == 2
    signs = [v.sign_ab for v in cfg2.vertices]
    assert signs[0] == signs[1]


def test_symmetry_and_self(s11):
    a, b = torus_slope(s11, 3, 2), torus_slope(s11, 1, -1)
    assert intersection_number(a, b) == intersection_number(b, a)
    assert intersection_number(a, a) == 0


def test_convention_confluence(s11, s20):
    pairs = [(torus_slope(s11, 2, 1), torus_slope(s11, -1, 3))]
    cs = sample_curves(s20, 11, 4, complexity_bound=100)
    pairs += [(cs[0], cs[1]), (cs[2], cs[3])]
    for a, b in pairs:
        one = PairConfiguration(a, b).count()
        two = PairConfiguration(b, a).count()
        assert one == two


def test_algebraic_properties(s11):
    m = torus_slope(s11, 1, 0)
    l = torus_slope(s11, 0, 1)
    assert algebraic_intersection(m, l) == -algebraic_intersection(l, m)
    assert homological_intersection(m.cls, -l.cls) == \
        -algebraic_intersection(m, l)
    c = torus_slope(s11, 1, 2)
    assert abs(algebraic_intersection(m, c)) == 2


@given(st.tuples(st.integers(-5, 5), st.integers(-5, 5)).filter(
    lambda pq: pq != (0, 0) and gcd(*pq) == 1),
    st.tuples(st.integers(-5, 5), st.integers(-5, 5)).filter(
    lambda pq: pq != (0, 0) and gcd(*pq) == 1))
@settings(max_examples=25, deadline=None)
def test_algebraic_matches_determinant(s11, pq, rs):
    a = torus_slope(s11, *pq)
    b = torus_slope(s11, *rs)
    alg = algebraic_intersection(a, b)
    geo = intersection_number(a, b)
    assert abs(alg) <= geo
    assert abs(alg) == abs(pq[0] * rs[1] - pq[1] * rs[0])


@pytest.mark.parametrize("spec", ["g1b1", "g1b2", "g2b0", "g2b1", "g3b0"])
def test_algebraic_intersection_is_the_signed_count_of_the_drawn_pair(
        spec, monkeypatch):
    # a . b summed over the linked runs of the paths, with no pair and no
    # curve drawn, is the sum of the crossing signs of the drawn pair,
    # oriented as the classes; the generators' entries are the form's
    from nscurves.curve import Curve
    from nscurves.surface import parse_surface_spec
    surf = parse_surface_spec(spec)
    gens = [c for _, c in twist_generators(surf)][:2 * surf.genus]
    curves = gens + sample_curves(surf, 293, 6, complexity_bound=80)
    pairs = list(itertools.product(curves, repeat=2))

    def refuse(*args, **kwargs):
        raise AssertionError("drew a pair or a curve")
    with monkeypatch.context() as m:
        for owner, name in ((PC.PairConfiguration, "__init__"),
                            (PC, "merged_overlay"), (PC, "overlay"),
                            (Curve, "_draw")):
            m.setattr(owner, name, refuse)
        got = [algebraic_intersection(a, b) for a, b in pairs]
        form = PC.intersection_form.__wrapped__(surf)
    drawn = []
    for a, b in pairs:
        signed = sum(v.sign_ab for v in PairConfiguration(a, b).vertices)
        drawn.append(signed if a.forward_canonical == b.forward_canonical
                     else -signed)
    assert got == drawn and any(got)
    n = len(gens)
    assert form == PC.intersection_form(surf) == tuple(
        tuple(drawn[i * len(curves) + j] for j in range(n))
        for i in range(n))


def test_merged_drawings_of_twist_results_replay_no_laps(monkeypatch):
    # the strands of a merged pair drawing are drawn from the curves'
    # paths, so path-built twist results are merged, and their crossings
    # checked against the path count, without a lap replayed
    from nscurves.curve import Curve
    from nscurves.surface import parse_surface_spec

    def refuse(*args, **kwargs):
        raise AssertionError("drew a curve")
    merged = 0
    for k, spec in enumerate(("g1b1", "g1b2", "g2b0", "g2b1", "g3b0")):
        surf = parse_surface_spec(spec)
        gens = [c for _, c in twist_generators(surf)]
        cs = sample_curves(surf, 297 + k, 4, complexity_bound=80)
        images = [dehn_twist(a, g, p) for a in cs for g, p in
                  zip(gens[:2], (1, -2)) if a != g]
        assert all(c._twist is not None for c in images)
        with monkeypatch.context() as m:
            m.setattr(Curve, "_draw", refuse)
            for a, b in itertools.combinations(cs + images, 2):
                if a == b:
                    continue
                d, sid_a, sid_b = PC.merged_pair_drawing(a, b)
                assert d.passages(sid_a) == a.passages()
                assert d.passages(sid_b) == b.passages()
                merged += 1
    assert merged > 200


@pytest.mark.parametrize("spec", ["g1b1", "g1b2", "g2b0", "g2b1", "g3b0"])
def test_merged_configurations_give_the_bicorns_of_draw_pair(spec):
    # a configuration over the merged drawing has the stacked one's
    # crossings, indexed the same way, and its bicorns derive the same
    # curves with the same weights, though maybe in another order; its
    # drawing is its own and fills no memo
    from collections import Counter
    from nscurves.bicorn import enumerate_bicorns
    from nscurves.surface import parse_surface_spec
    surf = parse_surface_spec(spec)
    rng = seeded(311 + ["g1b1", "g1b2", "g2b0", "g2b1", "g3b0"].index(spec))
    proper = 0
    for _ in range(12):
        a, b, i = sample_pair(surf, rng, 2, 8, 120)
        memo = dict(PC._PAIR_DRAWING_CACHE)
        merged = PC.draw_merged_pair(a, b)
        assert PC._PAIR_DRAWING_CACHE == memo
        assert merged.drawing is not PC.draw_merged_pair(a, b).drawing
        assert (merged.a, merged.b, merged.count()) == (a, b, i)
        assert [v.idx_a for v in merged.vertices] == list(range(i))
        assert [v.idx_b for v in merged.vertices_b] == list(range(i))
        got = [(bc.kind, bc.derived.key(), bc.derived.weights)
               for bc in enumerate_bicorns(merged)]
        want = [(bc.kind, bc.derived.key(), bc.derived.weights)
                for bc in enumerate_bicorns(draw_pair(a, b))]
        assert Counter(got) == Counter(want)
        proper += len(got) - 2
    assert proper >= 48


def test_intersection_form_matches_drawn_pairs(all_surfaces):
    from nscurves.verify import separating_seed_curve
    nonzero = strict = 0
    for k, surf in enumerate(all_surfaces):
        cs = sample_curves(surf, 40 + k, 24, complexity_bound=100)
        pairs = list(zip(cs[::2], cs[1::2]))
        # twisting along a separating curve keeps the class but not i
        sep = separating_seed_curve(surf)
        if sep is not None:
            pairs += [(x, dehn_twist(x, sep, 1)) for x in cs[:6]
                      if x.complexity <= 60]
        for a, b in pairs:
            omega = homological_intersection(a.cls, b.cls)
            assert omega == algebraic_intersection(a, b)
            i = intersection_number(a, b)
            assert abs(omega) <= i and (i - omega) % 2 == 0
            nonzero += omega != 0
            strict += abs(omega) < i
    assert nonzero >= 12 and strict >= 3


def test_cut_components_examples(s11, s12, s20):
    assert cut_components(torus_slope(s11, 1, 0)) == 1
    assert cut_components(boundary_parallel_curve(s12, 1)) == 2
    # a separating curve on the closed genus-2 surface cuts it in two
    from nscurves.pairconfig import find_separating_complement
    gens = dict(twist_generators(s20))
    sep = find_separating_complement(draw_pair(gens["A"], gens["B"]).drawing)
    assert sep is not None and sep.cls.is_zero()
    assert cut_components(sep) == 2
    assert cut_components(dehn_twist(sep, gens["C"], 1)) == 2


def test_cut_components_counts_the_drawn_cut_surface():
    # the count from weights against the arrangement of the drawing, the
    # fragments of the cut surface glued across the edges
    counts = []
    for k, (genus, bd) in enumerate(((1, 1), (1, 2), (1, 3), (2, 0), (2, 1),
                                     (3, 0))):
        surf, rng = build_surface(genus, bd), seeded(400 + k)
        for _ in range(10):
            c = random_curve_any(surf, rng, complexity_bound=120)
            got = cut_components(c)
            assert got == cut_component_count(c.drawing), \
                (surf.spec_name, c.literal())
            counts.append(got)
    assert set(counts) == {1, 2}


def test_cut_components_leaves_a_path_built_twist_undrawn(s12, s21):
    for k, surf in enumerate((s12, s21)):
        a, c = sample_curves(surf, 410 + k, 2)
        for b in (dehn_twist(a, c, 2), dehn_twist(dehn_twist(a, c, 1), a, -1)):
            assert b._twist is not None
            assert cut_components(b) == 1
            assert b._twist is not None


def test_complement_curve_genus2(s20):
    gens = dict(twist_generators(s20))
    a, b = gens["A"], gens["B"]
    assert intersection_number(a, b) == 1
    c = find_complement_curve(draw_pair(a, b).drawing)
    assert c is not None
    assert not c.is_separating()
    assert intersection_number(c, a) == 0
    assert intersection_number(c, b) == 0


def test_complement_curve_none_on_torus(s11):
    cfg = draw_pair(torus_slope(s11, 1, 0), torus_slope(s11, 0, 1))
    assert find_complement_curve(cfg.drawing) is None


def test_complement_for_disjoint_pair(s20):
    gens = dict(twist_generators(s20))
    a, c_ = gens["A"], gens["C"]
    assert intersection_number(a, c_) == 0
    comp = find_complement_curve(draw_pair(a, c_).drawing)
    assert comp is not None
    assert cut_components(comp) == 1
    assert intersection_number(comp, a) == 0
    assert intersection_number(comp, c_) == 0


def test_complement_curves_of_a_disconnected_complement(s12, s20):
    # cutting along both curves leaves several components here; the cycles
    # of each come from a BFS tree of that component
    a = dict(twist_generators(s20))["A"]
    c = find_complement_curve(draw_pair(a, a).drawing)
    assert c is not None and not c.is_separating()
    assert intersection_number(c, a) == 0
    a = parse_curve("nc:[1,2,1,2,0,0,0,0,0,0]", s12)
    c = parse_curve("nc:[1,0,1,0,0,0,0,0,0,0]", s12)
    assert intersection_number(a, c) == 2
    found = list(PC.complement_curves(draw_pair(a, c).drawing))
    assert found
    for x in found:
        assert intersection_number(x, a) == intersection_number(x, c) == 0


def test_searches_that_stop_at_their_target_find_the_full_trees_paths(
        all_surfaces, monkeypatch):
    # a fragment's parent chain is fixed when the search first reaches it,
    # so stopping there keeps it; the full search is the oracle
    real = PC._bfs_tree

    def full(adj, root, banned_cells, target=None):
        return real(adj, root, banned_cells)

    def found(surf, seed):
        rng = seeded(seed)
        curves = sample_curves(surf, seed, 4)
        pairs = [PC.draw_pair(*sample_pair(surf, rng, 1, 1, 120)[:2])
                 for _ in range(2)]
        return ([(w.key(), w.drawing.content()) for w in
                 map(PC.intersection_witness, curves)],
                [[(x.key(), x.drawing.content())
                  for x in PC.complement_curves(cfg.drawing)] for cfg in pairs])

    stopped = 0
    for k, surf in enumerate(all_surfaces):
        for d in (sample_curves(surf, 430 + k, 1)[0].drawing,
                  PC.draw_pair(*sample_curves(surf, 440 + k, 2)).drawing):
            adj = PC._fragment_graph(Arrangement(d))
            for root in sorted(adj):
                tree = real(adj, root, ())
                for target in tree:
                    early = real(adj, root, (), target)
                    assert PC._tree_path(early, root, target) == \
                        PC._tree_path(tree, root, target)
                    stopped += len(early) < len(tree)
        got = found(surf, 450 + k)
        with monkeypatch.context() as patch:
            patch.setattr(PC, "_bfs_tree", full)
            # the same curves again: their witnesses are searched afresh
            patch.setattr(PC, "_WITNESS_CACHE", {})
            assert found(surf, 450 + k) == got
        assert got[0] and any(got[1]), surf.spec_name
    assert stopped


def test_memoized_witnesses_equal_fresh_ones(all_surfaces, monkeypatch):
    # a repeated call returns the witness the first call built; with the
    # memos emptied a fresh search builds another curve with the same
    # drawing, which meets the curve once.  A twin of the curve, equal but
    # drawn from its normal coordinates, gets the witness of its own
    # drawing.  A separating curve has none.
    from conftest import empty_drawing_memos
    from nscurves.verify import separating_seed_curve
    checked = apart = 0
    for k, surf in enumerate(all_surfaces):
        for a in sample_curves(surf, 460 + k, 3, complexity_bound=80):
            twin = curve_from_normal_coords(surf, a.weights)
            assert twin == a
            w = PC.intersection_witness(a)
            assert PC.intersection_witness(a) is w
            assert intersection_number(w, a) == 1
            contents = [PC.intersection_witness(x).drawing.content()
                        for x in (a, twin)]
            empty_drawing_memos.__wrapped__(monkeypatch)
            fresh = [PC.intersection_witness(x) for x in (a, twin)]
            assert fresh[0] is not w
            assert [x.drawing.content() for x in fresh] == contents
            apart += contents[0] != contents[1]
            checked += 1
        sep = separating_seed_curve(surf)
        if sep is not None:
            assert sep.is_separating()
            assert PC.intersection_witness(sep) is None
            assert PC.intersection_witness(sep) is None
            checked += 1
    assert checked == 15 and apart > 0


def test_faces_are_bigon_free(s11, s20):
    pairs = [(torus_slope(s11, 1, 0), torus_slope(s11, 2, 3))]
    cs = sample_curves(s20, 13, 2, complexity_bound=80)
    pairs.append((cs[0], cs[1]))
    for a, b in pairs:
        cfg = draw_pair(a, b)
        faces = cfg.faces()
        assert not any(f.is_bigon for f in faces)
        # Euler count of the complement plus the curve graph recovers chi(S)
        n_vert = cfg.count()
        n_edges = 2 * n_vert if n_vert else 0
        loops = 2 if n_vert == 0 else 0
        chi_graph = n_vert - n_edges - loops
        assert chi_graph + sum(f.chi for f in faces) == \
            a.surface.euler_characteristic()


def test_faces_leave_out_the_third_curve(all_surfaces):
    # faces() are those of the complement of a and b, with d drawn or not
    def faces(cfg):
        return [(f.fragments, f.to_json()) for f in cfg.faces()]
    for n, surf in enumerate(all_surfaces):
        a, b, d = sample_curves(surf, 70 + n, 3, complexity_bound=80)
        cfg = draw_pair(a, b)
        before = faces(cfg)
        cfg.add_third(d)
        assert faces(cfg) == before


def test_config_export(s11):
    cfg = draw_pair(torus_slope(s11, 1, 0), torus_slope(s11, 1, 2))
    doc = cfg.to_json()
    assert doc["schema"].startswith("nscurves.pairconfig/")
    assert len(doc["vertices"]) == 2
    assert {a["role"] for a in doc["arcs"]} == {"a", "b"}
    assert all("chi" in f for f in doc["faces"])


def test_minimal_pair_drawing_checks_every_bigon_move(s11, monkeypatch):
    # a bigon move that cancels no crossing must fail the count check, both
    # for a batch of compatible moves (the seeded pair overlays with two)
    # and for a single move (the slopes overlay with one)
    cs = sample_curves(s11, 5, 6, complexity_bound=100)
    pairs = [(cs[4], cs[5]), (torus_slope(s11, 1, 0), torus_slope(s11, 1, 2))]
    monkeypatch.setattr(Drawing, "commit_bigon_plan", lambda self, plan: None)
    for a, b in pairs:
        with pytest.raises(InternalInvariantError, match="changed count"):
            minimal_pair_drawing(a, b)


def test_minimal_pair_drawing_commits_batches_without_a_copy(s11,
                                                               monkeypatch):
    # the seeded pair overlays with a batch of two moves; a batch is
    # checked after it is committed, so the drawing is never copied
    batches, clones = [], []
    compatible = Drawing._compatible_plans

    def recorded(self, moves):
        plans = compatible(self, moves)
        batches.append(len(plans))
        return plans
    # twist results replay their laps first, whose curves copy drawings
    a, b = sample_curves(s11, 5, 6, complexity_bound=100)[4:]
    a.drawing, b.drawing
    monkeypatch.setattr(Drawing, "_compatible_plans", recorded)
    monkeypatch.setattr(Drawing, "clone", lambda self: clones.append(self))
    d, sid_a, sid_b = minimal_pair_drawing(a, b)
    assert max(batches) >= 2 and clones == []
    assert d.geometry().count_pair(sid_a, sid_b) == intersection_number(a, b)


def _twisted(curve, steps):
    for along, power in steps:
        curve = dehn_twist(curve, along, power)
    return curve


def test_path_count_equals_drawn_count(s11, s12, s21):
    # seeded samples, the generators, the peripheral curves and twist images
    # deep enough that some pairs meet 100 times or more
    deep = 0
    for k, surf in enumerate((s11, s12, s21)):
        gens = [c for _, c in twist_generators(surf)]
        x, y = gens[0], gens[1]
        u = _twisted(x, [(y, 2), (x, -2), (y, 2)])
        v = _twisted(x, [(y, -2), (x, 2), (y, -3)])
        curves = (list(base_curves(surf)) + sample_curves(surf, 70 + k, 6)
                  + [u, v, _twisted(u, [(gens[-1], 2)])])
        if surf is s12:
            # boundary coordinate 1: not in the torus the generators fill
            curves.append(parse_curve("nc:[1,0,1,2,2,0,2,1,1,0]", surf))
        assert any(c.peripheral for c in curves)
        for a, b in itertools.combinations(curves, 2):
            if a == b:
                continue
            d, sid_a, sid_b = minimal_pair_drawing(a, b)
            drawn = d.geometry().count_pair(sid_a, sid_b)
            assert path_intersection_number(a, b) == drawn, \
                (surf.spec_name, a.literal(), b.literal())
            deep += drawn >= 100
    assert deep >= 6


# a g2b0 pair with |a . b| = 1 and i(a, b) = 9, its path count
BOUNDS_DIFFER_G2B0 = ("nc:[2,5,3,5,10,5,5,2,5]", "nc:[0,2,2,2,4,3,3,1,2]")


def test_intersection_number_draws_nothing_with_boundary(
        s11, s12, s20, s21, monkeypatch):
    def refuse(*args, **kwargs):
        raise AssertionError("drew a pair")

    slopes = torus_slope(s11, 1, 0), torus_slope(s11, 2, 5)
    populations = [sample_curves(surf, 90 + k, 4) + list(base_curves(surf))
                   for k, surf in enumerate((s11, s12, s21))]
    gens = dict(twist_generators(s20))
    monkeypatch.setattr(PC.PairConfiguration, "__init__", refuse)
    monkeypatch.setattr(PC, "minimal_pair_drawing", refuse)
    monkeypatch.setattr(PC, "merged_overlay", refuse)
    assert intersection_number(*slopes) == 5
    for cs in populations:
        for a, b in itertools.combinations(cs, 2):
            intersection_number(a, b)
    # on the closed surface the path count meets |a . b| = 1 for (A, B),
    # and a pair whose bounds differ (1 < 9) is still drawn
    assert intersection_number(gens["A"], gens["B"]) == 1
    with pytest.raises(AssertionError, match="drew a pair"):
        intersection_number(*(parse_curve(lit, s20)
                              for lit in BOUNDS_DIFFER_G2B0))


def test_config_checks_its_count_against_the_paths(s11, s20, monkeypatch):
    real = PC.path_intersection_number
    monkeypatch.setattr(PC, "path_intersection_number",
                        lambda a, b: real(a, b) + 1)
    with pytest.raises(InternalInvariantError, match="paths give i = 6"):
        draw_pair(torus_slope(s11, 1, 0), torus_slope(s11, 2, 5))
    # on the closed surface the path count is an upper bound of the same
    # parity: one above the drawn count is caught by its parity, one or
    # two below by the bound, and two above passes
    gens = dict(twist_generators(s20))
    for shift in (1, -1, -2):
        monkeypatch.setattr(PC, "path_intersection_number",
                            lambda a, b, shift=shift: real(a, b) + shift)
        with pytest.raises(InternalInvariantError, match="bound i by"):
            draw_pair(gens["A"], gens["B"])
    monkeypatch.setattr(PC, "path_intersection_number",
                        lambda a, b: real(a, b) + 2)
    assert draw_pair(gens["A"], gens["B"]).count() == 1


# g2b0 and g3b0 pairs (a, c) with a . c = 0 and i(a, c) = 2, whose twists
# T_c^n(a) meet a 4n times with a . T_c^n(a) = 0
CLOSED_ZERO_FORM = {
    2: ("nc:[1,2,3,2,0,0,0,0,0]", "nc:[1,2,3,2,4,2,2,0,2]"),
    3: ("nc:[0,0,0,0,0,1,1,1,0,1,0,0,0,0,0]",
        "nc:[0,1,1,1,2,1,1,1,0,1,2,1,1,0,1]"),
}


def test_closed_intersection_numbers_lie_between_their_bounds(s20):
    # |a . b| <= i(a, b) <= the path count, all three of one parity; the
    # bounds decide i where they meet, and the drawn count is the oracle
    pairs = [tuple(parse_curve(lit, s20) for lit in BOUNDS_DIFFER_G2B0)]
    for genus, literals in CLOSED_ZERO_FORM.items():
        surf = build_surface(genus, 0)
        a, c = (parse_curve(lit, surf) for lit in literals)
        pairs += [(a, c), (a, dehn_twist(a, c, 1)), (a, dehn_twist(a, c, -2))]
        cs = sample_curves(surf, 120 + genus, 4) + list(base_curves(surf))
        pairs += list(itertools.combinations(cs, 2))
    gaps = 0
    for a, b in pairs:
        drawn = PairConfiguration(a, b).count()
        form = abs(homological_intersection(a.cls, b.cls))
        upper = path_intersection_number(a, b)
        assert intersection_number(a, b) == drawn, (a.literal(), b.literal())
        assert form <= drawn <= upper
        assert (upper - form) % 2 == 0
        gaps += form < drawn
    assert gaps >= 6


def test_add_third_checks_the_crossings_of_a_and_b(s11, monkeypatch):
    # a and b are overlaid with their bigons kept, and the bigon search of
    # the loop that draws d is pointed at them: the moves then change the
    # a-b crossings, which drawing d must never do
    a, b = torus_slope(s11, 1, 0), torus_slope(s11, 1, 2)
    cfg = PairConfiguration(a, b)
    cfg.drawing, (cfg.sid_a, cfg.sid_b) = overlay([a.drawing, b.drawing])
    cfg._index_vertices()
    assert len(cfg.vertices) == 4
    find = Drawing.find_bigon
    monkeypatch.setattr(Drawing, "find_bigon",
                        lambda self, x, y: find(self, cfg.sid_a, cfg.sid_b))
    with pytest.raises(InternalInvariantError, match="a-b crossings"):
        cfg.add_third(torus_slope(s11, 0, 1))


def _drawn_content(d):
    return ({e: list(pts) for e, pts in d.edge_pts.items()},
            [(list(st.pts), list(st.tris))
             for _, st in sorted(d.strands.items())])


def test_memoized_pair_drawings_equal_fresh_ones(all_surfaces, monkeypatch):
    # the first configuration of a pair draws it, the second shares it
    # from the memo; it equals an overlay drawn afresh with its bigons
    # removed
    drawn = []
    real = PC.minimal_pair_drawing

    def counted(a, b):
        drawn.append((a, b))
        return real(a, b)
    monkeypatch.setattr(PC, "minimal_pair_drawing", counted)
    pairs = moves = 0
    for k, surf in enumerate(all_surfaces):
        for a, b in itertools.combinations(sample_curves(surf, 150 + k, 4),
                                           2):
            if a == b:
                continue
            a.drawing, b.drawing   # twist results replay their laps
            del drawn[:]
            PC._PAIR_DRAWING_CACHE.clear()   # samples may repeat a pair
            miss, hit = PairConfiguration(a, b), PairConfiguration(a, b)
            assert len(drawn) == 1 and hit.drawing is miss.drawing
            fresh, (sid_a, sid_b) = overlay([a.drawing, b.drawing])
            moves += fresh.remove_bigons_between(sid_a, sid_b)
            for cfg in (miss, hit):
                assert (cfg.sid_a, cfg.sid_b) == (sid_a, sid_b)
                assert _drawn_content(cfg.drawing) == _drawn_content(fresh)
                assert cfg.count() == fresh.geometry().count_pair(sid_a,
                                                                  sid_b)
            pairs += 1
    assert pairs >= 20 and moves > 0


def test_pair_memo_keeps_surfaces_apart(s11):
    # a second model of g1b1 draws the same contents, but its pairs are
    # drawn on it and never read from the other surface's entries
    other = build_surface.__wrapped__(1, 1)
    assert other is not s11
    a, b = torus_slope(s11, 1, 0), torus_slope(s11, 2, 5)
    a2, b2 = torus_slope(other, 1, 0), torus_slope(other, 2, 5)
    assert (a.drawing.content(), b.drawing.content()) == \
        (a2.drawing.content(), b2.drawing.content())
    assert PairConfiguration(a, b).count() == 5
    cfg = PairConfiguration(a2, b2)
    assert cfg.drawing.surface is other and cfg.count() == 5
    assert len(PC._PAIR_DRAWING_CACHE) == 2
    with pytest.raises(NSCurvesError, match="different surfaces"):
        PairConfiguration(a, b2)


def test_add_third_leaves_the_next_configuration_unchanged(all_surfaces):
    # the configurations of a pair share the memoized drawing; drawing d
    # into one must reach neither the memo nor the configuration after it
    for k, surf in enumerate(all_surfaces):
        a, b, d = sample_curves(surf, 160 + k, 3)
        first = PairConfiguration(a, b)
        want = _drawn_content(first.drawing)
        for _ in range(2):
            first.add_third(d)
            cfg = PairConfiguration(a, b)
            assert _drawn_content(cfg.drawing) == want
            assert cfg.sid_d is None and len(cfg.drawing.strands) == 2
            first = cfg


def test_a_triple_leaves_the_memoized_pair_drawing_unchanged(all_surfaces):
    # the configurations of (a, b) share one drawing; `triple_config`
    # draws d into its own copy, so the memo keeps a and b alone
    from nscurves.bicorn import triple_config
    for k, surf in enumerate(all_surfaces):
        a, b, d = sample_curves(surf, 170 + k, 3)
        shared = PairConfiguration(a, b).drawing
        before = shared.content()
        cfg = triple_config(a, b, d)
        assert cfg.drawing is not shared and len(cfg.drawing.strands) == 3
        memo = PC._PAIR_DRAWING_CACHE[
            (surf, a.drawing.content(), b.drawing.content())]
        assert memo[0] is shared and len(shared.strands) == 2
        assert shared.content() == before
        assert PairConfiguration(a, b).drawing is shared


def _oracle_linked_runs(pa, pb):
    """The run finder that the one scan replaced, kept as its oracle.

    It scans pb in one direction, compares passages as tuples and walks
    each run modulo both lengths.
    """
    na, nb = len(pa), len(pb)
    starts = {}
    for j, passage in enumerate(pb):
        starts.setdefault(passage, []).append(j)
    leaves_left = [s_out == (s_in + 2) % 3 for _, s_in, s_out in pa]
    runs = []
    for i, (tri, a_in, o) in enumerate(pa):
        left = a_in == (o + 1) % 3
        for j in starts.get((tri, 3 - a_in - o, o), ()):
            k = 1
            while pa[(i + k) % na] == pb[(j + k) % nb]:
                k += 1
                if k > na + nb:
                    raise InternalInvariantError(
                        "common run longer than both paths")
            if left != leaves_left[(i + k) % na]:
                runs.append((i, j, left))
    return runs


def _reversed_path(path):
    return tuple((tri, s_out, s_in) for tri, s_in, s_out in reversed(path))


def _oracle_runs_both_ways(pa, pb):
    return (_oracle_linked_runs(pa, pb),
            _oracle_linked_runs(pa, _reversed_path(pb)))


def _scanned_runs(pa, pb):
    """`linked_runs` of pa with pb and with pb reversed, as two lists."""
    runs = ([], [])
    for back, i, j, left in linked_runs(pa, pb):
        runs[back].append((i, j, left))
    return runs


def test_one_scan_finds_the_oracle_runs():
    # element by element, for pb and pb reversed: sampled pairs, and a
    # twist T_c^n(a) meeting a at least 100 times against a and against
    # the short twisting curve c, in both orders
    deep = shorter = longer = 0
    for k, (genus, boundary) in enumerate(
            ((1, 1), (1, 2), (2, 1), (2, 0), (3, 0))):
        surf = build_surface(genus, boundary)
        gens = [c for _, c in twist_generators(surf)]
        curves = sample_curves(surf, 180 + k, 5) + gens
        pairs = [(x, y) for x, y in itertools.permutations(curves, 2)
                 if x != y]
        a = curves[0]
        met = {g: sum(map(len, _oracle_runs_both_ways(a.passages(),
                                                       g.passages())))
               for g in gens}
        c = next(g for g in gens if met[g])
        t = dehn_twist(a, c, -(-100 // met[c] ** 2))
        pairs += [(a, t), (t, a), (c, t), (t, c)]
        for x, y in pairs:
            pa, pb = x.passages(), y.passages()
            want = _oracle_runs_both_ways(pa, pb)
            assert _scanned_runs(pa, pb) == want, \
                (surf.spec_name, x.literal(), y.literal())
            deep += len(want[0]) + len(want[1]) >= 100
            shorter += 20 * len(pa) <= len(pb)
            longer += len(pa) >= 20 * len(pb)
    assert deep >= 10 and shorter >= 5 and longer >= 5


def test_one_scan_finds_no_run_of_a_path_with_itself(s11, s20):
    # a run starts at two passages that enter by different sides; a run
    # that never ended would make the two periodic code sequences agree
    # everywhere, at the starts too, so the run-length check cannot fire,
    # and a path against itself, rotated or doubled, has no linked run
    for curve in (torus_slope(s11, 2, 5), *sample_curves(s20, 190, 3)):
        pa = tuple(curve.passages())
        for pb in (pa, pa[1:] + pa[:1], pa * 2):
            assert _scanned_runs(pa, pb) == _oracle_runs_both_ways(pa, pb)
            assert not _oracle_linked_runs(pa, pb)


# a g2b0 pair meeting once whose path count is 5: its normal curves meet
# more often in the surface punctured at the vertex
PATH_COUNT_ABOVE_I_G2B0 = ("nc:[0,0,0,0,0,2,2,1,1]", "nc:[2,3,3,3,4,1,3,3,2]")


def test_a_drawn_closed_pair_is_path_counted_once(s20, monkeypatch):
    # the bounds of this pair differ (1 < 5), so its merged drawing is
    # counted, and checked against the count that `intersection_number`
    # made; no configuration is built and no pair drawing memoized
    a, b = (parse_curve(lit, s20) for lit in PATH_COUNT_ABOVE_I_G2B0)
    # the form reads the generators' runs; it is made before the scans
    # are counted
    PC.intersection_form(s20)
    real_runs, real_count = PC.linked_runs, PC.path_intersection_number
    real_merge = PC.merged_overlay
    scans, merged = [], []

    def counted(pa, pb):
        scans.append(pa)
        return real_runs(pa, pb)

    def merge(da, db):
        merged.append(da)
        return real_merge(da, db)

    def refuse(*args, **kwargs):
        raise AssertionError("built a configuration")

    monkeypatch.setattr(PC, "linked_runs", counted)
    monkeypatch.setattr(PC, "merged_overlay", merge)
    monkeypatch.setattr(PC.PairConfiguration, "__init__", refuse)
    memo = dict(PC._PAIR_DRAWING_CACHE)
    assert intersection_number(a, b) == 1 and len(scans) == 1
    assert len(merged) == 1 and PC._PAIR_DRAWING_CACHE == memo
    assert path_intersection_number(a, b) == 5
    monkeypatch.setattr(PC, "path_intersection_number",
                        lambda a, b: real_count(a, b) + 1)
    with pytest.raises(InternalInvariantError, match="bound i by 6"):
        intersection_number(b, a)


def test_bounded_counts_decide_meets_at_most(s11, s20, s21, monkeypatch):
    # the path count stopped at limit + 1 runs decides i <= limit where it
    # is i; on the closed surface only a count past the limit draws
    cases = []
    for k, surf in enumerate((s11, s21, s20)):
        curves = sample_curves(surf, 200 + k, 8) + list(base_curves(surf))
        c = curves[0]
        curves += [dehn_twist(c, g, 1) for _, g in twist_generators(surf)
                   if intersection_number(c, g) <= 2]
        if surf is s20:
            curves += [parse_curve(lit, surf)
                       for lit in PATH_COUNT_ABOVE_I_G2B0]
        pairs = list(itertools.combinations(curves, 2))
        assert {min(intersection_number(x, y), 3) for x, y in pairs} == \
            {0, 1, 2, 3}, surf.spec_name
        cases += [(x, y, intersection_number(x, y)) for x, y in pairs]
    real = PC.merged_pair_drawing
    drawn = []

    def counted(a, b, path_count=None):
        drawn.append(a.surface)
        return real(a, b, path_count)

    def refuse(*args, **kwargs):
        raise AssertionError("built a configuration")

    monkeypatch.setattr(PC, "merged_pair_drawing", counted)
    monkeypatch.setattr(PC.PairConfiguration, "__init__", refuse)
    past_the_count = 0
    for x, y, i in cases:
        full = path_intersection_number(x, y) if x != y else 0
        for limit in (0, 1, 2):
            before = len(drawn)
            assert meets_at_most(x, y, limit) == (i <= limit), \
                (x.surface.spec_name, x.literal(), y.literal(), limit)
            assert len(drawn) == before or full > limit
            past_the_count += i <= limit < full
            if x != y:
                assert path_intersection_number(x, y, limit) == \
                    min(full, limit + 1)
    assert set(drawn) == {s20} and past_the_count


# a g2b0 pair whose bounds differ (path count 8,712 against |a . b|) and
# whose stacked overlay took 35 s of bigon removal to count
LARGE_CLOSED_PAIR_G2B0 = ("nc:[1,3,2,3,6,9,9,6,15]",
                          "nc:[87,385,472,385,424,212,624,842,630]")


def test_a_large_closed_pair_is_counted_without_a_bigon_move(
        s20, monkeypatch):
    a, b = (parse_curve(lit, s20) for lit in LARGE_CLOSED_PAIR_G2B0)
    assert path_intersection_number(a, b) == 8712
    assert abs(PC.homological_intersection(a.cls, b.cls)) < 8712

    def refuse(self, plan):
        raise AssertionError("committed a bigon move")

    monkeypatch.setattr(Drawing, "commit_bigon_plan", refuse)
    memo = dict(PC._PAIR_DRAWING_CACHE)
    assert intersection_number(a, b) == 8712
    assert PC._PAIR_DRAWING_CACHE == memo
