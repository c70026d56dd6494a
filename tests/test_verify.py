import json
import random
from fractions import Fraction

import pytest

from nscurves import curve as C, pairconfig as PC
from nscurves.curve import torus_slope
from nscurves.errors import DisconnectedGraph, NSCurvesError
from nscurves.surface import parse_surface_spec
from nscurves.verify import (VERIFIERS, BallGraph, build_ball,
                             four_point_delta, four_point_delta_bruteforce,
                             reports_equal, run_verifier, replay_instances)


def _synthetic_graph(n, edges):
    return BallGraph("synthetic", None, 0, 0, "ns",
                     list(range(n)), {frozenset(e) for e in edges})


def test_delta_tree_and_complete():
    tree = _synthetic_graph(7, [(0, 1), (0, 2), (1, 3), (1, 4), (2, 5), (2, 6)])
    assert four_point_delta(tree, "exact") == 0
    complete = [(i, j) for i in range(5) for j in range(i + 1, 5)]
    assert four_point_delta(_synthetic_graph(5, complete), "exact") == 0


def test_delta_six_cycle_matches_bruteforce():
    c6 = _synthetic_graph(6, [(i, (i + 1) % 6) for i in range(6)])
    exact = four_point_delta(c6, "exact")
    assert exact == four_point_delta_bruteforce(c6) == Fraction(1)


def test_delta_exact_matches_bruteforce_on_random_graphs():
    # the pruned pair scan against all quadruples: cycles, whose delta
    # grows with their length, and seeded random connected graphs (a
    # random tree plus random chords)
    graphs = [_synthetic_graph(n, [(i, (i + 1) % n) for i in range(n)])
              for n in range(4, 13)]
    rng = random.Random(7)
    for _ in range(60):
        n = rng.randrange(4, 11)
        edges = {(rng.randrange(k), k) for k in range(1, n)}
        edges |= {tuple(rng.sample(range(n), 2))
                  for _ in range(rng.randrange(2 * n))}
        graphs.append(_synthetic_graph(n, edges))
    seen = set()
    for g in graphs:
        exact = four_point_delta(g, "exact")
        assert exact == four_point_delta_bruteforce(g)
        seen.add(exact)
    assert len(seen) >= 4, seen


def test_distance_matrix_is_rows_of_distances():
    path = _synthetic_graph(4, [(0, 1), (1, 2), (2, 3)])
    assert path.distance_matrix() == [[0, 1, 2, 3], [1, 0, 1, 2],
                                      [2, 1, 0, 1], [3, 2, 1, 0]]


def test_delta_sampled_bounded_by_exact():
    grid = _synthetic_graph(9, [(i, i + 1) for i in (0, 1, 3, 4, 6, 7)]
                            + [(i, i + 3) for i in range(6)])
    ex = four_point_delta(grid, "exact")
    sm = four_point_delta(grid, "sampled", seed=5, samples=400)
    assert sm <= ex


def test_delta_disconnected_raises():
    g = _synthetic_graph(5, [(0, 1), (2, 3)])
    with pytest.raises(DisconnectedGraph):
        four_point_delta(g, "exact")


def test_ball_radius_zero(s11):
    center = torus_slope(s11, 1, 0)
    ball = build_ball(s11, center, 0, 40)
    assert len(ball.vertices) == 1
    assert ball.distance_caveat


def test_negative_counts_are_rejected(s11):
    center = torus_slope(s11, 1, 0)
    with pytest.raises(NSCurvesError, match="radius must be a count"):
        build_ball(s11, center, -1, 40)
    for powers in (-3, True, 2.0):
        with pytest.raises(NSCurvesError,
                           match="twist_powers must be a count"):
            build_ball(s11, center, 1, 20, twist_powers=powers)
    with pytest.raises(NSCurvesError, match="complexity_bound must be a"):
        build_ball(s11, center, 1, -20)
    ball = build_ball(s11, center, 1, 20)
    with pytest.raises(NSCurvesError, match="samples must be a count"):
        four_point_delta(ball, "sampled", samples=-1)
    with pytest.raises(NSCurvesError, match="samples must be a count"):
        run_verifier("claim1", "g1b1", -1, 0)
    with pytest.raises(NSCurvesError, match="max_i must be a count"):
        run_verifier("claim2", "g1b1", 2, 0, max_i=-3)
    with pytest.raises(NSCurvesError, match="complexity_bound must be a"):
        run_verifier("separating", "g1b1", 2, 0, complexity_bound="90x")


def test_ball_vertices_and_edges_pinned(s11):
    ball = build_ball(s11, torus_slope(s11, 1, 0), 1, 24, "ns")
    assert sorted(v.literal() for v in ball.vertices) == [
        "nc:[0,1,1,1,0]", "nc:[1,0,1,0,0]", "nc:[1,1,0,1,0]",
        "nc:[1,1,2,1,0]", "nc:[2,1,1,1,0]", "nc:[2,1,3,1,0]"]
    assert len(ball.edges) == 12


def test_ball_vertices_come_in_their_pinned_order(s11):
    # the order of the vertices is part of the ball's output: the twist
    # proposals come first, then the bicorns of each ring-one curve with
    # the center, from its merged configuration
    ball = build_ball(s11, torus_slope(s11, 1, 0), 2, 12)
    assert [v.literal() for v in ball.vertices] == [
        "nc:[0,1,1,1,0]", "nc:[1,0,1,0,0]", "nc:[1,1,0,1,0]",
        "nc:[1,1,2,1,0]", "nc:[2,1,1,1,0]", "nc:[2,1,3,1,0]",
        "nc:[3,1,2,1,0]", "nc:[3,1,4,1,0]", "nc:[4,1,3,1,0]",
        "nc:[4,1,5,1,0]", "nc:[5,1,4,1,0]", "nc:[1,2,3,2,0]",
        "nc:[1,2,1,2,0]", "nc:[1,3,4,3,0]", "nc:[1,3,2,3,0]",
        "nc:[1,4,3,4,0]", "nc:[2,3,1,3,0]", "nc:[3,2,5,2,0]",
        "nc:[3,4,1,4,0]", "nc:[3,2,1,2,0]", "nc:[4,3,1,3,0]"]
    assert len(ball.edges) == 57


@pytest.mark.parametrize("spec", ["g1b1", "g2b0"])
def test_balls_draw_no_curve_and_no_stacked_pair(spec, monkeypatch):
    # a ball's bicorn proposals come from merged configurations, whose
    # strands run along the curves' paths, so no twist result replays its
    # laps and no pair is stacked or memoized
    surf = parse_surface_spec(spec)
    center = (torus_slope(surf, 1, 0) if spec == "g1b1"
              else C.twist_generators(surf)[0][1])

    def refuse(*args, **kwargs):
        raise AssertionError("drew a curve or a stacked pair")
    merged, real = [], PC.draw_merged_pair

    def counted(a, b):
        merged.append((a, b))
        return real(a, b)
    with monkeypatch.context() as m:
        m.setattr(C.Curve, "_draw", refuse)
        m.setattr(PC.PairConfiguration, "__init__", refuse)
        m.setattr(PC, "draw_merged_pair", counted)
        ball = build_ball(surf, center, 2, 12)
    assert len(merged) >= 4 and not PC._PAIR_DRAWING_CACHE
    assert all(b is center for _, b in merged)
    assert len(ball.vertices) > 20


def test_ball_flavors_nested(s11):
    center = torus_slope(s11, 1, 0)
    ns = build_ball(s11, center, 1, 24, flavor="ns")
    index = {v: i for i, v in enumerate(ns.vertices)}
    prime_edges = set()
    from nscurves.bicorn import ns_adjacent
    for i in range(len(ns.vertices)):
        for j in range(i + 1, len(ns.vertices)):
            if ns_adjacent(s11, ns.vertices[i], ns.vertices[j], "nsprime"):
                prime_edges.add(frozenset((i, j)))
    # primed edges form a subgraph, so primed distances dominate
    assert prime_edges <= ns.edges
    prime = BallGraph(ns.surface, center, 1, 24, "nsprime",
                      list(ns.vertices), prime_edges)
    try:
        dm_prime = prime.distance_matrix()
    except DisconnectedGraph:
        pytest.skip("primed subgraph disconnected at this complexity")
    dm = ns.distance_matrix()
    assert all(d <= d_prime for row, row_prime in zip(dm, dm_prime)
               for d, d_prime in zip(row, row_prime))


def test_reports_reproducible():
    a = run_verifier("claim2", "g1b1", 4, 9, max_i=6)
    b = run_verifier("claim2", "g1b1", 4, 9, max_i=6)
    assert reports_equal(a.to_json(), b.to_json())
    assert not reports_equal(
        a.to_json(), run_verifier("claim2", "g1b1", 4, 10, max_i=6).to_json())


def test_jobs_do_not_change_reports():
    for claim in ("claim1", "separating"):
        a = run_verifier(claim, "g1b1", 4, 3)
        b = VERIFIERS[claim]("g1b1", 4, 3)
        assert reports_equal(a.to_json(), b.to_json()), claim
    # the separating report keeps its own name and echoes its parameter
    assert b.claim == "separating_oracle"
    assert b.config["params"] == {"complexity_bound": 200}


def test_prefix_monotone_stats():
    small = run_verifier("claim2", "g1b1", 3, 12, max_i=6)
    big = run_verifier("claim2", "g1b1", 6, 12, max_i=6)
    for k, v in small.stats.items():
        assert big.stats.get(k, 0) >= v


def test_csv_rows_one_per_trial():
    rep = run_verifier("claim2", "g1b1", 4, 2, max_i=6)
    text = rep.to_csv()
    assert text.count("\n") == 5  # header + one row per trial
    assert "claim" in text.splitlines()[0]


def test_replay_of_passing_instance():
    out = replay_instances({"claim": "claim1",
                            "failing_instances": [
                                {"surface": "g1b1", "trial": 0, "seed": 3}]})
    assert out[0]["reproduced"] is False


def test_replay_rejects_a_bundle_of_the_wrong_shape(tmp_path, capsys):
    from nscurves.cli import main
    inst = {"surface": "g1b1", "trial": 0, "seed": 3}
    good = tmp_path / "good.json"
    good.write_text(json.dumps([inst]))
    # a JSON string is no bundle, not even the name of one
    bad = [[1, 2], None, 7, str(good), {"failing_instances": 3},
           {"claim": "claim1", "failing_instances": [inst, None]}]
    for key in ("surface", "seed", "trial"):
        bad.append({"claim": "claim1", "failing_instances": [
            {k: v for k, v in inst.items() if k != key}]})
    for k, data in enumerate(bad):
        with pytest.raises(NSCurvesError):
            replay_instances(data)
        path = tmp_path / ("bad%d.json" % k)
        path.write_text(json.dumps(data))
        assert main(["--surface", "g1b1", "verify", "claim1",
                     "--replay", str(path)]) == 2, data
        err = capsys.readouterr().err
        assert err.startswith("error: ") and err.count("\n") == 1, err


def test_replay_rejects_instance_values_of_the_wrong_type(tmp_path, capsys):
    # exit 1 means a bound failed: a value of the wrong type is a usage
    # error, told in one line, not a traceback
    from nscurves.cli import main
    inst = {"claim": "claim1", "surface": "g1b1", "trial": 0, "seed": 3}
    for key, value in (("seed", "0"), ("trial", "0"), ("trial", -1),
                       ("surface", 5), ("claim", ["x"]), ("params", [1])):
        data = [dict(inst, **{key: value})]
        with pytest.raises(NSCurvesError):
            replay_instances(data)
        path = tmp_path / "bad.json"
        path.write_text(json.dumps(data))
        assert main(["verify", "claim1", "--replay", str(path)]) == 2, key
        err = capsys.readouterr().err
        assert err.startswith("error: ") and err.count("\n") == 1, err
    assert replay_instances([inst])[0]["reproduced"] is False


def test_booleans_are_not_counts_or_seeds(tmp_path, capsys):
    from nscurves.cli import main
    for args, kw in (((1, True), {}), ((1, 0), {"trial_indices": [False]}),
                     ((True, 0), {}), ((1, 0), {"max_i": True})):
        with pytest.raises(NSCurvesError, match="must be"):
            run_verifier("claim2", "g1b1", *args, **kw)
    inst = {"claim": "lemma22", "surface": "g1b1", "trial": 0, "seed": 1}
    for key, value in (("seed", True), ("trial", False),
                       ("params", {"max_i": True})):
        path = tmp_path / "bool.json"
        path.write_text(json.dumps([dict(inst, **{key: value})]))
        assert main(["verify", "lemma22", "--replay", str(path)]) == 2, key
        assert capsys.readouterr().err.startswith("error: "), key


def test_surface_specs_and_seeds_of_the_wrong_type_are_rejected():
    with pytest.raises(NSCurvesError, match="bad surface spec"):
        parse_surface_spec(5)
    with pytest.raises(NSCurvesError, match="seed must be an integer"):
        run_verifier("lemma22", "g1b1", 1, 0.5)
    # a negative seed is a seed like any other
    assert run_verifier("lemma22", "g1b1", 1, -3).passes == 1


def test_failing_bundle_replays_with_its_parameters(tmp_path, monkeypatch):
    import json
    import nscurves
    from nscurves import bicorn, verify
    from nscurves.cli import main

    def planted(a, b, collect_stats=None):
        raise bicorn.BoundViolation("planted")

    monkeypatch.setattr(bicorn, "connect_in_bicorn_graph", planted)
    code = main(["--surface", "g1b1", "--out-dir", str(tmp_path), "verify",
                 "claim2", "--samples", "1", "--seed", "5", "--max-i", "6"])
    assert code == 1
    path = tmp_path / "failing_claim2_g1b1_s5.json"
    bundle = json.loads(path.read_text())
    assert bundle["claim"] == "claim2" and bundle["params"] == {"max_i": 6}
    assert bundle["version"] == nscurves.__version__
    inst = bundle["failing_instances"][0]
    assert inst["claim"] == "claim2" and inst["version"] == nscurves.__version__
    assert inst["params"] == {"max_i": 6, "complexity_bound": 150}

    seen = []
    real = verify.VERIFIERS["claim2"]

    def spy(surface, samples, seed, **params):
        seen.append(params)
        return real(surface, samples, seed, **params)

    monkeypatch.setitem(verify.VERIFIERS, "claim2", spy)
    out = replay_instances(json.loads(path.read_text()))
    assert seen == [{"trial_indices": [0], "max_i": 6,
                     "complexity_bound": 150}]
    assert out[0]["reproduced"] is True

    # a list of instances that do not name their claim is a usage error
    del inst["claim"]
    listed = tmp_path / "listed.json"
    listed.write_text(json.dumps([inst]))
    assert main(["--surface", "g1b1", "verify", "claim2",
                 "--replay", str(listed)]) == 2


def test_separating_bundle_replays_under_its_verifier_key(tmp_path,
                                                          monkeypatch):
    # the separating verifier's report is named "separating_oracle"; its
    # instances must still name the VERIFIERS key so that they replay
    import json
    from nscurves import pairconfig
    from nscurves.cli import main

    monkeypatch.setattr(pairconfig, "cut_components",
                        lambda c: 1 if c.is_separating() else 2)
    code = main(["--surface", "g1b1", "--out-dir", str(tmp_path), "verify",
                 "separating", "--samples", "2", "--seed", "5"])
    assert code == 1
    path = tmp_path / "failing_separating_g1b1_s5.json"
    bundle = json.loads(path.read_text())
    insts = bundle["failing_instances"]
    assert insts and all(i["claim"] == "separating" for i in insts)
    assert main(["--surface", "g1b1", "verify", "separating",
                 "--replay", str(path)]) == 1
    listed = tmp_path / "listed.json"
    listed.write_text(json.dumps(insts))
    assert main(["--surface", "g1b1", "verify", "separating",
                 "--replay", str(listed)]) == 1


def test_warm_drawing_memos_do_not_change_reports(monkeypatch):
    # every claim on every surface, run cold and then again in the same
    # process with the memos kept: the second run reads every twist,
    # witness and pair drawing from them, those its twist laps twist on
    # included, and its report equals the cold one
    drawn = []
    real = PC.minimal_pair_drawing

    def counted(a, b):
        drawn.append((a, b))
        return real(a, b)
    monkeypatch.setattr(PC, "minimal_pair_drawing", counted)
    cold_draws = 0
    for claim in ("lemma22", "claim1", "claim2", "claim3", "separating"):
        for spec in ("g1b1", "g1b2", "g2b0", "g2b1"):
            monkeypatch.setattr(PC, "_PAIR_DRAWING_CACHE", {})
            monkeypatch.setattr(PC, "_WITNESS_CACHE", {})
            monkeypatch.setattr(C, "_TWIST_CACHE", {})
            del drawn[:]
            cold = run_verifier(claim, spec, 4, 0).to_json()
            cold_draws += len(drawn)
            del drawn[:]
            warm = run_verifier(claim, spec, 4, 0).to_json()
            assert drawn == [], (claim, spec)
            assert reports_equal(cold, warm), (claim, spec)
    assert cold_draws > 0


def test_earlier_claims_do_not_change_reports(monkeypatch):
    # a claim run after the other claims on its surface, which leave twist
    # images and witnesses of the same sampled curves in the memos, reports
    # what it reports with the memos emptied, as in a fresh process
    from conftest import empty_drawing_memos
    builds = []
    twisted_path, build_witness = C._twisted_path, PC._build_witness

    def counted(real, tag):
        def run(*args):
            builds.append(tag)
            return real(*args)
        return run
    monkeypatch.setattr(C, "_twisted_path", counted(twisted_path, "twist"))
    monkeypatch.setattr(PC, "_build_witness",
                        counted(build_witness, "witness"))
    fewer = set()
    for spec in ("g1b1", "g2b0"):
        for claim in ("claim1", "claim3", "lemma22"):
            empty_drawing_memos.__wrapped__(monkeypatch)
            del builds[:]
            cold = run_verifier(claim, spec, 6, 0).to_json()
            cold_builds = list(builds)
            empty_drawing_memos.__wrapped__(monkeypatch)
            for other in VERIFIERS:
                if other != claim:
                    run_verifier(other, spec, 6, 0)
            del builds[:]
            warm = run_verifier(claim, spec, 6, 0).to_json()
            assert reports_equal(cold, warm), (claim, spec)
            fewer |= {tag for tag in set(cold_builds)
                      if builds.count(tag) < cold_builds.count(tag)}
    assert fewer == {"twist", "witness"}
