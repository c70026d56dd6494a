import itertools
from collections import Counter

import pytest

from nscurves import bicorn, curve as C, pairconfig as PC
from nscurves.arrangement import Arrangement
from nscurves.bicorn import (Bicorn, BicornGraph, BoundViolation, adjacency,
                             bfs_distances, bicorn_graph, bicorn_successor,
                             connect_in_bicorn_graph, degenerate_bicorn,
                             distance_path, enumerate_bicorns,
                             project_to_sides, surgery_pair, surgery_step,
                             triple_config, make_bicorn, _gaps_of_arc,
                             _inside, _walk_b)
from nscurves.curve import (curve_from_normal_coords, dehn_twist,
                            random_nonseparating, torus_slope,
                            twist_generators)
from nscurves.drawing import Drawing
from nscurves.errors import (InternalInvariantError, NoSuccessor,
                             PreconditionViolation)
from nscurves.surface import parse_surface_spec
from nscurves.pairconfig import (complement_curves, draw_pair,
                                 homological_intersection,
                                 intersection_number, intersection_witness)
from conftest import (drawn_glued_curve, point_walk_darts, sample_curves,
                      seeded)


def _pair_with_i(surface, seed, lo, hi, complexity=120):
    from nscurves.verify import sample_pair
    return sample_pair(surface, seeded(seed), lo, hi, complexity)


def test_enumerate_trivial_cases(s11):
    a, b = torus_slope(s11, 1, 0), torus_slope(s11, 0, 1)
    cfg = draw_pair(a, b)
    bics = enumerate_bicorns(cfg)
    assert sorted(bc.kind for bc in bics) == ["degenerate_a", "degenerate_b"]
    assert {bc.derived for bc in bics} == {a, b}

    c = torus_slope(s11, 1, 0)
    disj = draw_pair(c, torus_slope(s11, 1, 0))
    assert {bc.derived for bc in enumerate_bicorns(disj)} == {c}


def test_enumerate_matches_arc_pair_search(s11):
    a, b = torus_slope(s11, 1, 0), torus_slope(s11, 1, 2)
    cfg = draw_pair(a, b)
    bics = enumerate_bicorns(cfg)
    classes = sorted(tuple(bc.derived.cls.coords) for bc in bics
                     if bc.kind == "proper")
    assert (1, 1) in classes
    # independent exhaustive arc-pair enumeration
    verts = cfg.vertices
    count = 2
    for i in range(len(verts)):
        for j in range(i + 1, len(verts)):
            for aseg in ((verts[i], verts[j]), (verts[j], verts[i])):
                for bseg in ((verts[i], verts[j]), (verts[j], verts[i])):
                    if make_bicorn(cfg, aseg, bseg) is not None:
                        count += 1
    assert count == len(bics)


def test_bicorn_graph_small(s11):
    a, b = torus_slope(s11, 1, 0), torus_slope(s11, 0, 1)
    g = bicorn_graph(a, b)
    assert len(g.vertices) == 2
    assert g.diameter() == 1
    assert g.connected

    a2, b2 = torus_slope(s11, 1, 0), torus_slope(s11, 1, 2)
    g2 = bicorn_graph(a2, b2)
    assert g2.connected
    assert g2.diameter() <= 2
    for v in g2.vertices:
        assert intersection_number(a2, v) <= 2


def test_i2_bicorns_meet_a_once(s11, s20):
    for surf, seed in ((s11, 21), (s20, 22)):
        a, b, i = _pair_with_i(surf, seed, 2, 2)
        cfg = draw_pair(a, b)
        for bc in enumerate_bicorns(cfg):
            if bc.kind == "proper":
                assert intersection_number(a, bc.derived) <= 1


def test_surgery_torus_parallel(s11):
    a, b = torus_slope(s11, 1, 0), torus_slope(s11, 1, 2)
    cfg = draw_pair(a, b)
    c1, c2, branch, (cls1, cls2, cls_a) = surgery_pair(cfg)
    assert branch == "parallel"
    assert tuple(x + y for x, y in zip(cls1.coords, cls2.coords)) \
        == cls_a.coords
    c = surgery_step(a, b, cfg)
    assert c.cls.coords in ((1, 1), (0, 1), (-1, -1), (0, -1))
    assert intersection_number(c, a) <= 1
    assert intersection_number(c, b) <= 1


def test_surgery_antiparallel_exists(s20):
    # search a fixture whose chosen crossing pair has opposite signs
    found = False
    for seed in range(40):
        try:
            a, b, i = _pair_with_i(s20, 100 + seed, 2, 6, complexity=100)
        except Exception:
            continue
        cfg = draw_pair(a, b)
        c1, c2, branch, _ = surgery_pair(cfg)
        if branch == "antiparallel":
            c = surgery_step(a, b, cfg)
            assert intersection_number(c, a) == 0
            assert intersection_number(c, b) <= i - 2
            found = True
            break
    assert found, "no antiparallel fixture found in the search budget"


def test_surgery_requires_two_crossings(s11):
    a, b = torus_slope(s11, 1, 0), torus_slope(s11, 0, 1)
    with pytest.raises(PreconditionViolation):
        surgery_step(a, b, draw_pair(a, b))


def test_surgery_homology_additivity(s11, s20):
    for surf, seed in ((s11, 31), (s20, 32)):
        for k in range(4):
            a, b, i = _pair_with_i(surf, 10 * seed + k, 2, 8)
            cfg = draw_pair(a, b)
            _, _, _, (cls1, cls2, cls_a) = surgery_pair(cfg)
            assert tuple(x + y for x, y in zip(cls1.coords, cls2.coords)) \
                == cls_a.coords


def test_distance_path_base_cases(s11, s20):
    a, b = torus_slope(s11, 1, 0), torus_slope(s11, 0, 1)
    assert len(distance_path(a, b, "nsprime")) - 1 == 1
    gens = dict(twist_generators(s20))
    p = distance_path(gens["A"], gens["B"], "nsprime")
    assert len(p) - 1 == 2
    assert intersection_number(p[1], gens["A"]) == 0
    assert intersection_number(p[1], gens["B"]) == 0


def test_distance_path_torus_5_7(s11):
    a, b = torus_slope(s11, 1, 0), torus_slope(s11, 5, 7)
    i = intersection_number(a, b)
    assert i == 7
    path = distance_path(a, b, "nsprime")
    assert len(path) - 1 <= 2 * i + 1
    for u, v in zip(path, path[1:]):
        assert intersection_number(u, v) <= 1
    ns_path = distance_path(a, b, "ns")
    for u, v in zip(ns_path, ns_path[1:]):
        assert intersection_number(u, v) <= 2


def test_successor_from_a(s11):
    a, b = torus_slope(s11, 1, 0), torus_slope(s11, 1, 2)
    cfg = draw_pair(a, b)
    stats = {}
    nxt = bicorn_successor(degenerate_bicorn(cfg, "a"), cfg, record=stats)
    assert stats["branch"] == "initial"
    assert len(nxt.b_gaps) == 1
    assert intersection_number(a, nxt.derived) <= 2
    with pytest.raises(NoSuccessor):
        bicorn_successor(degenerate_bicorn(cfg, "b"), cfg)


def test_chains_on_random_pairs(s11, s20):
    for surf, seed, n in ((s11, 41, 6), (s20, 42, 5)):
        for k in range(n):
            a, b, i = _pair_with_i(surf, 100 * seed + k, 0, 8)
            stats = []
            chain = connect_in_bicorn_graph(a, b, collect_stats=stats)
            assert chain[0].derived == a
            assert chain[-1].derived == b
            assert len(chain) - 1 <= max(i, 1) + 1
            for u, v in zip(chain, chain[1:]):
                assert intersection_number(u.derived, v.derived) <= 2
                if v.kind != "degenerate_b":
                    assert v.b_gaps > u.b_gaps


def test_chain_matches_bfs_connectivity(s20):
    a, b, i = _pair_with_i(s20, 51, 2, 6)
    g = bicorn_graph(a, b)
    assert g.connected


def test_project_trivial_branches(s11):
    a, b = torus_slope(s11, 1, 0), torus_slope(s11, 1, 2)
    cfg = triple_config(a, b, torus_slope(s11, 1, 0))
    bics = enumerate_bicorns(cfg)
    w = project_to_sides(bics[0], torus_slope(s11, 1, 0), cfg)
    assert w.branch == "trivial"
    assert w.certified_distance == 0


def test_project_needs_the_triple_configuration(s11):
    # bicorns enumerated on the pair alone keep the pair's crossings, which
    # drawing d afterwards would move
    a, b = torus_slope(s11, 1, 0), torus_slope(s11, 1, 2)
    d = torus_slope(s11, 0, 1)
    cfg = draw_pair(a, b)
    proper = [bc for bc in enumerate_bicorns(cfg) if bc.kind == "proper"]
    assert proper
    with pytest.raises(PreconditionViolation, match="triple"):
        project_to_sides(proper[0], d)
    assert cfg.sid_d is None


def test_project_torus_triples(s11):
    a, b = torus_slope(s11, 1, 0), torus_slope(s11, 1, 2)
    for d_slope in ((0, 1), (3, -2), (2, 1)):
        d = torus_slope(s11, *d_slope)
        cfg = triple_config(a, b, d)
        for bc in enumerate_bicorns(cfg):
            if bc.derived.is_separating():
                continue
            w = project_to_sides(bc, d, cfg)
            assert w.certified_distance <= 8
            if w.branch == "near":
                assert w.bounds["i_c_target"] <= 1
            if w.branch == "reroute":
                assert w.bounds["i_c_c0"] == 0
                assert w.bounds["i_c0_cprime"] <= 3


def test_project_genus2_triples(s20):
    done = 0
    for seed in range(8):
        try:
            a, b, i = _pair_with_i(s20, 300 + seed, 1, 4, complexity=90)
            d = sample_curves(s20, 400 + seed, 1, complexity_bound=90)[0]
        except Exception:
            continue
        cfg = triple_config(a, b, d)
        for bc in enumerate_bicorns(cfg):
            if bc.derived.is_separating() or bc.derived in (a, b, d):
                continue
            w = project_to_sides(bc, d, cfg)
            assert w.certified_distance <= 8
            done += 1
        if done >= 3:
            break
    assert done >= 1


def test_successor_chain_class_sum_invariant(s11):
    # sum over stage-one bicorns equals the third curve's class
    a, b = torus_slope(s11, 1, 0), torus_slope(s11, 1, 2)
    d = torus_slope(s11, 3, -2)
    cfg = triple_config(a, b, d)
    from nscurves.homology import homology_basis
    basis = homology_basis(s11)
    # checked internally by _stage_one; a BoundViolation would surface here
    for bc in enumerate_bicorns(cfg):
        if not bc.derived.is_separating():
            project_to_sides(bc, d, cfg)


BRANCH_FIXTURES = [
    # Weight pairs on g2b0, one for each rarer successor branch.  Asserted:
    # bicorn_successor takes the named branch on at least one nonseparating
    # bicorn of the drawn pair, and every step it takes keeps the bounds and
    # the sign pattern of its branch.  The greedy chain from a to b is not
    # asked to walk the branch: which branches it meets depends on the
    # realization (its start vertex, the orientation of b, its tie-breaks),
    # not on the classes.
    ("same_sign_backward",
     [0, 2, 2, 2, 4, 2, 2, 1, 3], [1, 2, 1, 2, 4, 10, 10, 4, 14]),
    ("take_b_pinched",
     [0, 4, 4, 4, 8, 5, 5, 2, 3], [0, 0, 0, 0, 0, 3, 3, 1, 2]),
    ("double_extension_direct",
     [3, 5, 8, 7, 10, 5, 5, 0, 5], [1, 0, 1, 0, 0, 0, 0, 0, 0]),
]

# i(c, b) bounds of the branches that end the chain at b
TERMINAL_BOUNDS = {"take_b_clean": 1, "take_b_pinched": 2}
# extension branches: (moves the forward end of the b-arc?, does the moved
# end keep its crossing sign?); None where either end may move
EXTENSION_SIGNS = {"same_sign_forward": (True, True),
                   "same_sign_backward": (False, True),
                   "double_extension_direct": (None, False)}


def _assert_extension_signs(c, nxt, forward, same):
    """An extension keeps one end of c's b-arc and moves the other one to a
    crossing inside c's a-arc; check which end moved and the signs there."""
    (w_from, w_to), (x_from, x_to) = c.bseg, nxt.bseg
    if x_from.idx_a == w_from.idx_a:
        moved_forward, old, new = True, w_to, x_to
    else:
        assert x_to.idx_a == w_to.idx_a
        moved_forward, old, new = False, w_from, x_from
    assert forward is None or moved_forward == forward
    assert (old.sign_ab == new.sign_ab) == same


@pytest.mark.parametrize("branch,wa,wb", BRANCH_FIXTURES)
def test_successor_branch_fixtures(s20, branch, wa, wb):
    from nscurves.curve import curve_from_normal_coords
    a = curve_from_normal_coords(s20, wa)
    b = curve_from_normal_coords(s20, wb)
    cfg = draw_pair(a, b)
    taken = []
    for c in enumerate_bicorns(cfg):
        if c.kind != "proper" or c.derived.is_separating():
            continue
        stats = {}
        nxt = bicorn_successor(c, cfg, record=stats)
        br = stats["branch"]
        taken.append(br)
        assert nxt.b_gaps > c.b_gaps
        assert not nxt.derived.is_separating()
        i_c_succ = intersection_number(c.derived, nxt.derived)
        if br in TERMINAL_BOUNDS:
            assert nxt.kind == "degenerate_b" and nxt.derived == b
            assert i_c_succ <= TERMINAL_BOUNDS[br]
        else:
            assert nxt.kind == "proper"
            assert i_c_succ <= 2
        if br in EXTENSION_SIGNS:
            forward, same = EXTENSION_SIGNS[br]
            _assert_extension_signs(c, nxt, forward, same)
    assert branch in taken, taken
    chain = connect_in_bicorn_graph(a, b)
    for u, v in zip(chain, chain[1:]):
        assert intersection_number(u.derived, v.derived) <= 2


def test_bicorn_graph_homology_prefilter_keeps_the_edges(s20):
    # |algebraic intersection| <= i, so a pair with |omega| > 2 cannot be an
    # edge; the graph skips drawing it and must still agree with all pairs
    ruled_out = 0
    for _, wa, wb in BRANCH_FIXTURES:
        g = bicorn_graph(curve_from_normal_coords(s20, wa),
                         curve_from_normal_coords(s20, wb))
        verts = g.vertices
        want = set()
        for i in range(len(verts)):
            for j in range(i + 1, len(verts)):
                if intersection_number(verts[i], verts[j]) <= 2:
                    want.add(frozenset((i, j)))
                ruled_out += abs(homological_intersection(
                    verts[i].cls, verts[j].cls)) > 2
        assert g.edges == want
    assert ruled_out > 0


def test_one_bfs_serves_every_graph():
    edges = {frozenset((0, 1)), frozenset((1, 2)), frozenset((3, 4))}
    adj = adjacency(5, edges)
    assert adj == [{1}, {0, 2}, {1}, {4}, {3}]
    assert bfs_distances(adj, 0) == {0: 0, 1: 1, 2: 2}
    assert bfs_distances(adj, 4) == {4: 0, 3: 1}
    split = BicornGraph(None, None, list(range(5)), edges, {}, False, 0)
    assert split.diameter() is None
    split.edges.add(frozenset((2, 3)))
    assert split.diameter() == 4


def test_config_vertex_ranks_are_the_drawn_orders(s11, s20):
    # the arcs read off `idx_a` / `idx_b` and `vertices_b` are the arcs of
    # the drawn crossing orders, also after a third curve is drawn; the
    # rank test `_inside` finds the vertices inside them, and orders two
    # of them along the arc
    for surf, seed in ((s11, 31), (s20, 32)):
        a, b, _ = _pair_with_i(surf, seed, 4, 8)
        d = sample_curves(surf, seed, 1)[0]
        for cfg in (draw_pair(a, b), triple_config(a, b, d)):
            geo = cfg.drawing.geometry()
            by_id = {v.crossing.id: v for v in cfg.vertices}
            along = {
                "a": [by_id[cr.id]
                      for cr in geo.pair_events(cfg.sid_a, cfg.sid_b)],
                "b": [by_id[cr.id]
                      for cr in geo.pair_events(cfg.sid_b, cfg.sid_a)]}
            assert cfg.vertices == along["a"]
            assert cfg.vertices_b == along["b"]
            n = len(cfg.vertices)
            assert n >= 4
            for role, order in along.items():
                for r1 in range(n):
                    for r2 in range(n):
                        if r1 == r2:
                            continue
                        inside = [order[(r1 + k) % n]
                                  for k in range(1, (r2 - r1) % n)]
                        assert _vertices_inside(
                            cfg, role, order[r1], order[r2]) == inside
                        assert [r for r in range(n) if _inside(
                            r, r1, r2, n)] == sorted(
                                order.index(t) for t in inside)
                        for p, q in itertools.permutations(inside, 2):
                            rp, rq = order.index(p), order.index(q)
                            assert _inside(rp, r1, rq, n) \
                                == (inside.index(p) < inside.index(q))
                        if role == "b":
                            assert _gaps_of_arc(cfg, order[r1], order[r2]) \
                                == {(r1 + k) % n for k in range((r2 - r1) % n)}
            for r, v in enumerate(along["b"]):
                rest = along["b"][r + 1:] + along["b"][:r]
                assert _walk_b(cfg, v) == rest
                assert _walk_b(cfg, v, forward=False) == rest[::-1]


def _vertices_inside(config, role, v_from, v_to):
    """Config vertices strictly inside the forward arc of a or b, walked
    one by one: the oracle of the rank test `_inside`."""
    if role == "a":
        order, r1, r2 = config.vertices, v_from.idx_a, v_to.idx_a
    else:
        order, r1, r2 = config.vertices_b, v_from.idx_b, v_to.idx_b
    n = len(order)
    out = []
    r = (r1 + 1) % n
    while r != r2:
        out.append(order[r])
        r = (r + 1) % n
    return out


def _make_bicorn_by_walks(config, aseg, bseg):
    """`make_bicorn` testing the arcs by their walked vertices."""
    ia = {vv.idx_a for vv in _vertices_inside(config, "a", *aseg)}
    ib = {vv.idx_a for vv in _vertices_inside(config, "b", *bseg)}
    if ia & ib:
        return None
    derived = bicorn._derive(config, aseg, bseg)
    if derived is None:
        return None
    return Bicorn(config, "proper", aseg, bseg, derived,
                  _gaps_of_arc(config, *bseg))


def _sub_arc_of_a_by_walks(config, aseg, end_vertex, z):
    u, v = aseg
    inside = _vertices_inside(config, "a", u, v)
    if not any(t.idx_a == z.idx_a for t in inside):
        raise AssertionError("z not inside the a-arc")
    return (u, z) if end_vertex.idx_a == u.idx_a else (z, v)


def _inside_by_walk(r, lo, hi, n):
    k = (lo + 1) % n
    while k != hi:
        if k == r:
            return True
        k = (k + 1) % n
    return False


def _walk_the_arcs(patch):
    """Point the bicorn module's arc tests at the walked arcs."""
    patch.setattr(bicorn, "make_bicorn", _make_bicorn_by_walks)
    patch.setattr(bicorn, "_sub_arc_of_a", _sub_arc_of_a_by_walks)
    patch.setattr(bicorn, "_inside", _inside_by_walk)


def _bicorn_row(bc):
    if bc is None:
        return None
    seg = [None if sg is None else (sg[0].idx_a, sg[1].idx_a)
           for sg in (bc.aseg, bc.bseg)]
    return bc.kind, seg, bc.derived, bc.derived.weights, bc.b_gaps


@pytest.mark.parametrize("spec", ["g1b1", "g1b2", "g2b0", "g2b1"])
def test_make_bicorn_matches_the_arc_walks(spec):
    from nscurves.surface import parse_surface_spec
    surf, outcomes = parse_surface_spec(spec), set()
    for seed in (33, 34):
        cfg = draw_pair(*_pair_with_i(surf, seed, 3, 7, complexity=100)[:2])
        for u, v in itertools.permutations(cfg.vertices, 2):
            for bseg in ((u, v), (v, u)):
                got = make_bicorn(cfg, (u, v), bseg)
                assert _bicorn_row(got) == _bicorn_row(
                    _make_bicorn_by_walks(cfg, (u, v), bseg))
                ia = {t.idx_a for t in _vertices_inside(cfg, "a", u, v)}
                ib = {t.idx_a for t in _vertices_inside(cfg, "b", *bseg)}
                outcomes.add((bool(ia & ib), got is None))
    # arcs that meet inside, and arcs that do not, glued or inessential
    assert {(True, True), (False, False)} <= outcomes


def _composite_twist_pairs(surface, seed, count):
    """Pairs with 5 <= i <= 40 whose b is twisted one to three times
    along sampled curves."""
    from nscurves.verify import sample_curve
    rng, out = seeded(seed), []
    while len(out) < count:
        a, b = sample_curve(surface, rng, 60), sample_curve(surface, rng, 60)
        for _ in range(rng.randint(1, 3)):
            b = dehn_twist(b, sample_curve(surface, rng, 40),
                           rng.choice([-1, 1]))
        if a.is_separating() or b.is_separating() or b.complexity > 400:
            continue
        if 5 <= intersection_number(a, b) <= 40:
            out.append((a, b))
    return out


def test_successor_chains_match_the_arc_walks(s20, s21, monkeypatch):
    def chain_rows(a, b):
        stats = []
        chain = connect_in_bicorn_graph(a, b, stats)
        return [_bicorn_row(bc) for bc in chain], \
            [st["branch"] for st in stats]

    def successor_rows(cfg):
        # every successor step of every bicorn, where the fixtures' rare
        # branches are taken
        rows = []
        for c in enumerate_bicorns(cfg):
            if c.kind == "proper" and not c.derived.is_separating():
                stats = {}
                rows.append((_bicorn_row(bicorn_successor(c, cfg, stats)),
                             stats["branch"]))
        return rows

    fixtures = [(curve_from_normal_coords(s20, wa),
                 curve_from_normal_coords(s20, wb))
                for _, wa, wb in BRANCH_FIXTURES]
    pairs = fixtures + _composite_twist_pairs(s21, 2, 30)
    chained, stepped = set(), set()
    for k, (a, b) in enumerate(pairs):
        cfg = draw_pair(a, b) if k < len(fixtures) else None
        got = chain_rows(a, b), successor_rows(cfg) if cfg else []
        with monkeypatch.context() as patch:
            _walk_the_arcs(patch)
            want = chain_rows(a, b), successor_rows(cfg) if cfg else []
        assert got == want
        chained.update(got[0][1])
        stepped.update(branch for _, branch in got[1])
    six = {"initial", "take_b_clean", "same_sign_forward",
           "same_sign_backward", "double_extension_direct", "take_b_pinched"}
    assert chained == six
    assert {br for br, _, _ in BRANCH_FIXTURES} <= stepped


def test_glued_curves_match_the_drawn_route(monkeypatch):
    # every curve glued on its path (each proper bicorn, both surgery
    # curves, the pieces of both projection stages) is the curve of the
    # drawn route: the glued strand drawn, checked for embeddedness and
    # its turnbacks removed.  The path route gives no curve exactly where
    # the drawn one is inessential, and elsewhere the same path, from the
    # same start, and the drawing that the drawn route reduces to
    from nscurves.verify import sample_curve, sample_pair
    glued = []
    glue = bicorn._glued_curve

    def recorded(config, segs):
        got = glue(config, segs)
        glued.append((config, segs, got))
        return got
    monkeypatch.setattr(bicorn, "_glued_curve", recorded)
    made = Counter()
    for k, spec in enumerate(("g1b1", "g1b2", "g2b0", "g2b1", "g3b0")):
        surf = parse_surface_spec(spec)
        rng = seeded(261 + k)
        for _ in range(3):
            a, b, _ = sample_pair(surf, rng, 3, 10, 120)
            cfg = triple_config(a, b, sample_curve(surf, rng, 120))
            bicorns = [bc for bc in enumerate_bicorns(cfg)
                       if bc.kind == "proper"]
            made["bicorn"] += len(glued)
            _check_glued_against_drawn(glued)
            surgery_pair(cfg)
            assert len(glued) == 2
            _check_glued_against_drawn(glued)
            seen = set()
            for bc in bicorns:
                if not bc.derived.is_separating() \
                        and bc.derived not in seen:
                    seen.add(bc.derived)
                    made[project_to_sides(bc, cfg.d_curve, cfg).branch] += 1
            made["projection"] += len(glued)
            _check_glued_against_drawn(glued)
    # a near witness is a stage-two piece
    assert made["bicorn"] > 100 and made["projection"] > 100
    assert made["near"] > 0


def _check_glued_against_drawn(glued):
    for config, segs, (curve, cls) in glued:
        want, want_cls, drawing = drawn_glued_curve(config, segs)
        drawing.validate_embedded()
        assert cls == want_cls
        if want is None:
            assert curve is None
            continue
        assert (curve.weights, curve.word_key, curve.cls,
                curve.forward_canonical, curve.passages()) == \
            (want.weights, want.word_key, want.cls, want.forward_canonical,
             want.passages())
        assert curve.drawing.content() == want.drawing.content()
    glued.clear()


def _walk_or_error(glue, drawing_or_config, segs):
    try:
        return glue(drawing_or_config, segs)
    except InternalInvariantError as err:
        return str(err)


def _projected_triple(surf, rng, lo, hi, bound):
    """A seeded triple configuration, every distinct nonseparating bicorn
    of it projected to the sides of d."""
    from nscurves.verify import sample_curve, sample_pair
    a, b, _ = sample_pair(surf, rng, lo, hi, bound)
    cfg = triple_config(a, b, sample_curve(surf, rng, bound))
    seen = set()
    for bc in enumerate_bicorns(cfg):
        if not bc.derived.is_separating() and bc.derived not in seen:
            seen.add(bc.derived)
            project_to_sides(bc, cfg.d_curve, cfg)
    return cfg


def test_dart_tables_glue_the_walks_of_the_point_route(monkeypatch):
    # every walk glued from dart-table slices (each bicorn, both surgery
    # curves, every projection piece) is the walk read point by point,
    # one side lookup per point; and both of its checks fire as there
    walks = Counter()
    glue = bicorn._glued_walk

    def compared(config, segs):
        got = glue(config, segs)
        assert got == point_walk_darts(config.drawing, segs)
        walks[config.drawing.surface.spec_name] += 1
        return got
    monkeypatch.setattr(bicorn, "_glued_walk", compared)
    specs = ("g1b1", "g1b2", "g2b0", "g2b1", "g3b0")
    errors = set()
    for k, spec in enumerate(specs):
        surf, rng = parse_surface_spec(spec), seeded(261 + k)
        for _ in range(2):
            cfg = _projected_triple(surf, rng, 3, 10, 120)
            surgery_pair(cfg)
            errors |= _glue_errors(cfg, glue)
    assert set(walks) == set(specs) and min(walks.values()) > 20
    assert errors == {"glued curve crosses no edges",
                      "glued curve reuses a point"}


def _glue_errors(cfg, glue):
    """The errors of walks that cross no edge (between two crossings of
    one chord) and that reuse points (twice around a), by both routes."""
    geo = cfg.drawing.geometry()
    x = cfg.vertices[0].crossing
    cases = [[(cfg.sid_a, x, x, 1), (cfg.sid_a, x, x, 1)]]
    for sid, events in geo.events.items():
        def chord(cr):
            return cr.chord_a if cr.sid_a == sid else cr.chord_b
        u, v = next(((u, v) for u, v in zip(events, events[1:])
                     if chord(u) is chord(v)), (None, None))
        if u is not None:
            cases += [[(sid, u, v, 1)], [(sid, v, u, -1)]]
    got = set()
    for segs in cases:
        err = _walk_or_error(glue, cfg, segs)
        assert err == _walk_or_error(point_walk_darts, cfg.drawing, segs)
        got.add(err if isinstance(err, str) else "a walk")
    return got


def test_a_dart_table_goes_stale_when_its_strand_moves():
    # bigon moves replace the mover's point lists, so its dart table is
    # made again, and walks glued after the moves are those of the point
    # route on the moved strand; a strand that did not move keeps its table
    from types import SimpleNamespace
    from nscurves.drawing import overlay
    moved, walks = [], []
    for k, spec in enumerate(("g1b1", "g1b2", "g2b0", "g2b1", "g3b0")):
        surf = parse_surface_spec(spec)
        a, b = sample_curves(surf, 281 + k, 2)
        d, (sid_a, sid_b) = overlay([a.drawing, b.drawing])
        cfg = SimpleNamespace(drawing=d)

        def glue_all():
            events = d.geometry().pair_events(sid_a, sid_b)
            for u, v in zip(events, events[1:] + events[:1]):
                for direction in (1, -1):
                    segs = [(sid_a, u, v, 1), (sid_b, v, u, direction)]
                    assert _walk_or_error(bicorn._glued_walk, cfg, segs) == \
                        _walk_or_error(point_walk_darts, d, segs)
                    walks.append(segs)
            return {sid: (d.strands[sid].pts, d._dart_table(sid))
                    for sid in (sid_a, sid_b)}
        before = glue_all()
        d.remove_bigons_between(sid_a, sid_b)
        after = glue_all()
        for sid in (sid_a, sid_b):
            (pts, table), (now, again) = before[sid], after[sid]
            if now is pts:
                assert again is table
            else:
                moved.append(spec)
                assert again is not table and again[0] == now + now
    assert len(set(moved)) >= 3 and len(walks) > 50


def _limit_passes(cands, c):
    """The candidates that the weight-ordered walk of `_least_meeting`
    counts past a best count, whose path count passes the limit best - 1."""
    best, passed = None, 0
    for _, curve in sorted(cands, key=lambda t: t[1].weights):
        if best is not None and abs(
                homological_intersection(curve.cls, c.cls)) >= best:
            continue
        i = intersection_number(curve, c)
        if best is not None and curve != c:
            passed += PC.path_intersection_number(curve, c) > best - 1
        if best is None or i < best:
            best = i
            if i == 0:
                break
    return passed


def test_stage_one_takes_the_first_candidate_of_the_sort(monkeypatch):
    # the bounded walk picks the (seg, curve) that sorting every candidate
    # by (i(curve, c), weights) puts first; on a closed surface a
    # candidate whose path count passes the limit is counted exactly
    least = bicorn._least_meeting
    made = Counter()

    def compared(cands, c):
        got = least(cands, c)
        want = sorted(cands, key=lambda t: (intersection_number(t[1], c),
                                            t[1].weights))[0]
        assert got[0] is want[0] and got[1] is want[1]
        spec = c.surface.spec_name
        made[spec] += 1
        made[spec, "several"] += len(cands) > 1
        if not PC.paths_decide(c.surface):
            made["passed"] += _limit_passes(cands, c)
        return got
    monkeypatch.setattr(bicorn, "_least_meeting", compared)
    specs = ("g1b1", "g1b2", "g2b0", "g2b1", "g3b0")
    # the triples of the glue test, then larger ones on the suite surfaces
    for k, spec in enumerate(specs + specs[:4]):
        surf, rng = parse_surface_spec(spec), seeded(261 + k % 5)
        for _ in range(3 if k < 5 else 4):
            _projected_triple(surf, rng, *((3, 10, 120) if k < 5
                                           else (4, 12, 150)))
    assert all(made[spec, "several"] > 0 for spec in specs)
    assert made["passed"] > 0


def test_a_walk_that_reduces_to_nothing_or_the_vertex_link_is_no_curve(
        s11, s20):
    # once around the vertex of a closed surface, a walk reduces to a
    # nonempty path of trivial word, on the torus (whose words compare
    # abelianized) as on g2b0; a walk across an edge and straight back
    # reduces to nothing.  A curve built from the drawn strand raises on
    # the same strands, each with its own message
    from nscurves.curve import _reduced_path, curve_from_walk
    from nscurves.errors import Inessential
    e = next(e for e in s11.edges if not e.is_boundary)
    circle = Drawing(s11)
    circle.add_strand([circle.new_point(e.id, 0), circle.new_point(e.id, 1)],
                      [e.front[0], e.back[0]])
    cases = [(circle, "bounds a disk", 0)]
    for surf in (parse_surface_spec("g1b0"), s20):
        link = Drawing.from_normal_coords(surf, [2] * len(surf.edges))
        cases.append((link, "nullhomotopic", len(link.strands[0].pts)))
    for drawing, message, left in cases:
        surf = drawing.surface
        darts = [(tri, s_out) for tri, _, s_out in drawing.passages(0)]
        assert len(_reduced_path(surf.glue, darts)) == left
        assert curve_from_walk(surf, darts) is None
        with pytest.raises(Inessential, match=message):
            C.curve_from_drawing(drawing)


def test_successor_of_a_needs_two_crossings(s11, s20):
    # connect_in_bicorn_graph ends the chain at b before it calls the
    # successor when i(a, b) <= 1
    a0 = twist_generators(s20)[0][1]
    for a, b, i in ((torus_slope(s11, 1, 0), torus_slope(s11, 0, 1), 1),
                    (a0, intersection_witness(a0), 1),
                    (torus_slope(s11, 1, 0), torus_slope(s11, 1, 0), 0)):
        cfg = draw_pair(a, b)
        assert cfg.count() == i
        with pytest.raises(PreconditionViolation):
            bicorn_successor(degenerate_bicorn(cfg, "a"), cfg, record={})
        chain = connect_in_bicorn_graph(a, b)
        assert [bc.kind for bc in chain] == ["degenerate_a", "degenerate_b"]


def test_rank_test_at_equal_ends_is_the_whole_cycle():
    # the forward arc from lo back to lo holds every other rank, as the
    # walk from lo around to lo does
    for n in (1, 2, 5):
        for lo in range(n):
            got = [r for r in range(n) if _inside(r, lo, lo, n)]
            assert got == [r for r in range(n) if r != lo]
            assert got == [r for r in range(n)
                           if _inside_by_walk(r, lo, lo, n)]


# -- the projection read off the drawing's (chord, rank on chord) places -----
#
# The oracle of the rank-based projection: stages one and two as they read
# crossing order off `Crossing.param_of`, each place compared cyclically
# from a base place.


def _cyclic_between(lo, mid, hi):
    if lo < hi:
        return lo < mid < hi
    return mid > lo or mid < hi


def _cyclic_offset(base, par):
    return (par < base, par)


def _order_along(sid, base, y_i, y_j):
    return _cyclic_offset(base, y_i.param_of(sid)) <= \
        _cyclic_offset(base, y_j.param_of(sid))


def _stage_one_by_places(config, c, geo, hit_counts):
    sid_b, sid_d = config.sid_b, config.sid_d
    w_from, w_to = c.bseg
    p_lo = w_from.crossing.param_of(sid_b)
    p_hi = w_to.crossing.param_of(sid_b)
    hits = [cr for cr in geo.pair_events(sid_d, sid_b)
            if _cyclic_between(p_lo, cr.param_of(sid_b), p_hi)]
    hit_counts.append(len(hits))
    if not hits:
        return None, config.d_curve
    m, pieces = len(hits), []
    for k in range(m):
        x_i, x_j = hits[k], hits[(k + 1) % m]
        segs = [(sid_d, x_i, x_j, 1)]
        if m > 1:
            q_i, q_j = x_i.param_of(sid_b), x_j.param_of(sid_b)
            segs.append((sid_b, x_j, x_i,
                         -1 if _cyclic_between(p_lo, q_i, q_j) else 1))
        curve, cls = bicorn._glued_curve(config, segs)
        pieces.append(((x_i, x_j), curve, cls))
    cands = [(seg, curve) for (seg, curve, cls) in pieces
             if curve is not None and not cls.in_boundary_lattice()]
    cands.sort(key=lambda t: (intersection_number(t[1], c.derived),
                              t[1].weights))
    return cands[0]


def _stage_two_by_places(config, c, cprime_dseg, cprime_curve, geo):
    sid_a, sid_d = config.sid_a, config.sid_d
    u, v = c.aseg
    pa_lo, pa_hi = u.crossing.param_of(sid_a), v.crossing.param_of(sid_a)
    ad_events = geo.pair_events(sid_d, sid_a)
    if cprime_dseg is None:
        dseg_events = ad_events
    else:
        q_lo, q_hi = (x.param_of(sid_d) for x in cprime_dseg)
        dseg_events = [cr for cr in ad_events
                       if _cyclic_between(q_lo, cr.param_of(sid_d), q_hi)]
    ys = [cr for cr in dseg_events
          if _cyclic_between(pa_lo, cr.param_of(sid_a), pa_hi)]
    if cprime_dseg is None:
        ys.sort(key=lambda cr: cr.param_of(sid_d))
    else:
        q_lo = cprime_dseg[0].param_of(sid_d)
        ys.sort(key=lambda cr: _cyclic_offset(q_lo, cr.param_of(sid_d)))
    second = []
    for y_i, y_j in zip(ys, ys[1:]):
        back = _order_along(sid_a, pa_lo, y_i, y_j)
        curve, cls = bicorn._glued_curve(
            config, [(sid_d, y_i, y_j, 1), (sid_a, y_j, y_i, -1 if back
                                            else 1)])
        second.append(((y_i, y_j), curve, cls))
    near = sorted(((intersection_number(c.derived, curve), curve)
                   for _, curve, cls in second
                   if curve is not None and not cls.in_boundary_lattice()),
                  key=lambda t: (t[0], t[1].weights))
    if near:
        w = bicorn.ProjectionWitness("near", "ad", near[0][1])
        w.bounds["i_c_target"] = near[0][0]
        w.certified_distance = 1
        return w
    c0 = _reroute_by_places(config, c, second)
    path = distance_path(c0, cprime_curve, "nsprime")
    w = bicorn.ProjectionWitness("reroute", "bd", cprime_curve, reroute=c0)
    w.bounds["i_c_c0"] = intersection_number(c.derived, c0)
    w.bounds["i_c0_cprime"] = intersection_number(c0, cprime_curve)
    w.path = path
    w.certified_distance = (0 if c0 == c.derived else 1) + (len(path) - 1)
    return w


def _reroute_by_places(config, c, second):
    sid_a, sid_b, sid_d = config.sid_a, config.sid_b, config.sid_d
    u, v = c.aseg
    pa_lo = u.crossing.param_of(sid_a)
    arcs = []
    for (y_i, y_j), _, _ in second:
        lo = _cyclic_offset(pa_lo, y_i.param_of(sid_a))
        hi = _cyclic_offset(pa_lo, y_j.param_of(sid_a))
        arcs.append({"pair": (y_i, y_j), "side": y_i.sign_for(sid_a),
                     "lo": min(lo, hi), "hi": max(lo, hi)})
    left = [ar for ar in arcs if ar["side"] > 0]
    maximal = sorted((ar for ar in left if not any(
        o["lo"] < ar["lo"] and ar["hi"] < o["hi"] for o in left)),
        key=lambda ar: ar["lo"])
    if not maximal:
        return c.derived
    segs, cursor = [], u.crossing
    for ar in maximal:
        y_i, y_j = ar["pair"]
        first, second_end = (y_i, y_j) \
            if _order_along(sid_a, pa_lo, y_i, y_j) else (y_j, y_i)
        segs.append((sid_a, cursor, first, 1))
        segs.append((sid_d, first, second_end, 1 if first is y_i else -1))
        cursor = second_end
    segs.append((sid_a, cursor, v.crossing, 1))
    segs.append((sid_b, v.crossing, u.crossing,
                 -1 if c.bseg == (u, v) else 1))
    return bicorn._glued_curve(config, segs)[0]


def test_projection_reads_crossing_order_as_the_drawn_places_do(
        all_surfaces, monkeypatch):
    # every distinct nonseparating bicorn of seeded triples on the four
    # suite surfaces projects to the same witness as by the places
    hit_counts, branches = [], set()

    def by_places(c, d, cfg):
        with monkeypatch.context() as patch:
            patch.setattr(bicorn, "_stage_one", lambda config, c, geo, _:
                          _stage_one_by_places(config, c, geo, hit_counts))
            patch.setattr(bicorn, "_stage_two",
                          lambda config, c, dseg, curve, geo, _:
                          _stage_two_by_places(config, c, dseg, curve, geo))
            return project_to_sides(c, d, cfg)

    from nscurves.errors import NSCurvesError
    from nscurves.verify import sample_curve
    for k, surf in enumerate(all_surfaces):
        for seed in range(600 + 10 * k, 604 + 10 * k):
            try:
                a, b, _ = _pair_with_i(surf, seed, 4, 12)
            except NSCurvesError:
                continue   # no pair in range from this seed
            d = sample_curve(surf, seeded(seed + 100), 120)
            cfg = triple_config(a, b, d)
            seen = set()
            for bc in enumerate_bicorns(cfg):
                if bc.derived.is_separating() or bc.derived in seen:
                    continue
                seen.add(bc.derived)
                got = project_to_sides(bc, d, cfg)
                assert got.to_json() == by_places(bc, d, cfg).to_json()
                branches.add(got.branch)
    # c' = d, c' with one hit of beta, with more hits; both stage-two ends
    assert {0, 1} <= set(hit_counts) and max(hit_counts) > 1
    assert {"near", "reroute"} <= branches


def test_closed_chains_of_composite_twists_key_every_curve(s20):
    # b is a twisted one to three times along sampled curves; some of
    # these curves have half-swap orbits of more than 200,000 rotations
    rng = seeded(5)
    chains = 0
    for _ in range(150):
        a = random_nonseparating(s20, rng, max_twists=4, complexity_bound=150)
        b = a
        for _ in range(rng.randrange(1, 4)):
            along = random_nonseparating(s20, rng, max_twists=4,
                                         complexity_bound=150)
            b = dehn_twist(b, along, rng.choice([-1, 1]))
        if (not b.is_separating() and a != b
                and 5 <= intersection_number(a, b) <= 40):
            assert connect_in_bicorn_graph(a, b)[-1].kind == "degenerate_b"
            chains += 1
    assert chains >= 25


def _first_base_middle(a, b):
    """The first base curve that is nonseparating and whose paths meet
    neither a's nor b's, or None."""
    for g in C.base_curves(a.surface):
        if (g != a and g != b and not g.is_separating()
                and PC.path_intersection_number(g, a) == 0
                and PC.path_intersection_number(g, b) == 0):
            return g
    return None


def _once_crossing_pairs(specs, seed, count):
    pairs = []
    for k, spec in enumerate(specs):
        surf = parse_surface_spec(spec)
        rng = seeded(seed + k)
        for _ in range(count):
            a, b, _ = _pair_with_i(surf, rng.randrange(10 ** 6), 1, 1)
            pairs.append((a, b))
    return pairs


def test_a_once_crossing_hop_draws_no_memoized_pair(monkeypatch):
    # the middle curve of a base hop is a base curve, or else comes from
    # the pair's merged drawing, drawn from the paths; neither moves a
    # bigon or fills the memo, as no twist result replays its laps
    pairs = _once_crossing_pairs(("g2b0", "g2b1", "g3b0"), 470, 3)

    def refuse(self, plan):
        raise AssertionError("committed a bigon move")

    monkeypatch.setattr(Drawing, "commit_bigon_plan", refuse)
    for a, b in pairs:
        assert PC.path_intersection_number(a, b) == 1
        memo = dict(PC._PAIR_DRAWING_CACHE)
        path = distance_path(a, b, "nsprime")
        assert PC._PAIR_DRAWING_CACHE == memo
        assert len(path) == 3 and path[0] is a and path[2] is b
        c = path[1]
        assert not c.is_separating()
        assert intersection_number(a, c) == intersection_number(c, b) == 0


def test_a_hop_that_a_base_curve_serves_draws_nothing(monkeypatch):
    pairs = [(a, b) for a, b in _once_crossing_pairs(
        ("g2b0", "g2b1", "g3b0"), 470, 3)
        if PC.path_intersection_number(a, b) == 1]
    expected = [_first_base_middle(a, b) for a, b in pairs]
    assert sum(g is not None for g in expected) >= 8

    def refuse(*args, **kwargs):
        raise AssertionError("drew the pair")

    middles = []
    with monkeypatch.context() as m:
        m.setattr(PC, "merged_pair_drawing", refuse)
        m.setattr(Arrangement, "__init__", refuse)
        for (a, b), g in zip(pairs, expected):
            if g is not None:
                middles.append((a, b, g, distance_path(a, b, "nsprime")))
    for a, b, g, path in middles:
        assert path == [a, g, b] and path[1] is g
        assert not g.is_separating()
        assert draw_pair(g, a).count() == draw_pair(g, b).count() == 0


def test_a_hop_that_no_base_curve_serves_searches_the_complement(
        monkeypatch):
    # the fallback draws the pair merged: with boundary it moves no bigon,
    # and it stays out of the pair-drawing memo
    surf = parse_surface_spec("g2b1")
    for seed in range(40):
        a, b, _ = _pair_with_i(surf, seed, 1, 1)
        if _first_base_middle(a, b) is None:
            break
    else:
        pytest.fail("no once-crossing pair that every base curve meets")
    a.drawing, b.drawing
    real, drawn = PC.merged_pair_drawing, []

    def counted(x, y, *args):
        drawn.append((x, y))
        return real(x, y, *args)

    def refuse(self, plan):
        raise AssertionError("committed a bigon move")

    memo = dict(PC._PAIR_DRAWING_CACHE)
    with monkeypatch.context() as m:
        m.setattr(PC, "merged_pair_drawing", counted)
        m.setattr(Drawing, "commit_bigon_plan", refuse)
        path = distance_path(a, b, "nsprime")
    assert drawn == [(a, b)] and PC._PAIR_DRAWING_CACHE == memo
    assert len(path) == 3 and path[0] is a and path[2] is b
    c = path[1]
    assert c not in C.base_curves(surf) and not c.is_separating()
    assert draw_pair(c, a).count() == draw_pair(c, b).count() == 0


def test_the_middle_curve_does_not_depend_on_process_history(monkeypatch):
    from conftest import empty_drawing_memos
    pairs = _once_crossing_pairs(("g2b0", "g2b1", "g3b0"), 480, 2)
    surf = parse_surface_spec("g2b1")
    fallback = [_pair_with_i(surf, seed, 1, 1)[:2] for seed in (3, 6)]
    assert all(_first_base_middle(a, b) is None for a, b in fallback)
    pairs += fallback
    middles = [distance_path(a, b)[1].literal() for a, b in pairs]
    # warm memos, then empty ones
    assert [distance_path(a, b)[1].literal() for a, b in pairs] == middles
    empty_drawing_memos.__wrapped__(monkeypatch)
    assert [distance_path(a, b)[1].literal() for a, b in pairs] == middles
