import pytest

from nscurves.errors import NSCurvesError
from nscurves.surface import build_surface, parse_surface_spec, validate


@pytest.mark.parametrize("g,b,chi", [(2, 0, -2), (1, 1, -1), (1, 2, -2),
                                     (2, 1, -3), (3, 0, -4)])
def test_euler_characteristic(g, b, chi):
    s = build_surface(g, b)
    assert s.euler_characteristic() == chi
    assert len(s.boundary_cycles) == b
    assert validate(s) == []


def test_genus_zero_rejected():
    with pytest.raises(NSCurvesError):
        build_surface(0, 2)


def test_deterministic_construction():
    a = build_surface(2, 1)
    b = build_surface(2, 1)
    assert a is b  # cached
    # structural identity independent of the cache
    c = parse_surface_spec("g2b1")
    assert c.glue == a.glue
    assert [e.front for e in c.edges] == [e.front for e in a.edges]


def test_vertex_structure():
    # closed surfaces have one vertex; bounded ones keep all on the boundary
    assert build_surface(2, 0).nvertices == 1
    s = build_surface(1, 2)
    on_bd = set()
    for cyc in s.boundary_cycles:
        for (t, side) in cyc:
            on_bd.add(s.vertex_of_corner[(t, side)])
            on_bd.add(s.vertex_of_corner[(t, (side + 1) % 3)])
    assert on_bd == set(range(s.nvertices))


def test_validate_reports_missing_gluing():
    s = build_surface(2, 0)
    glue = dict(s.glue)
    (t, side) = next(iter(glue))
    partner = glue.pop((t, side))
    glue.pop(partner)
    from nscurves.surface import Surface
    with pytest.raises(NSCurvesError, match="boundary cycle count"):
        Surface(2, 0, s.ntri, glue, s.polygon)
    glue[(t, side)] = partner   # glued one way only
    with pytest.raises(NSCurvesError, match="not an involution"):
        Surface(2, 0, s.ntri, glue, s.polygon)


def test_word_generator_count():
    # free rank 2g+b-1 for bounded surfaces, 2g generators for closed ones
    for (g, b) in [(1, 0), (1, 1), (1, 2), (2, 0), (2, 1), (3, 2)]:
        s = build_surface(g, b)
        assert len(s.word_gen_edges) == 2 * g + max(b - 1, 0)


def test_relators_only_for_closed():
    assert len(build_surface(2, 0).vertex_relators) == 1
    assert len(build_surface(2, 0).vertex_relators[0]) == 8
    assert build_surface(2, 1).vertex_relators == []


def test_json_export():
    s = build_surface(1, 2)
    doc = s.to_json()
    assert doc["schema"].startswith("nscurves.surface/")
    assert doc["genus"] == 1
    assert len(doc["triangles"]) == s.ntri
    assert len(doc["boundary_cycles"]) == 2


def test_spec_parse_errors():
    with pytest.raises(NSCurvesError):
        parse_surface_spec("x2y0")
    assert parse_surface_spec("g2b0").spec_name == "g2b0"


def test_per_surface_caches_keyed_by_the_surface_object():
    # a second Surface object with the same name gets curves drawn on
    # itself, never the canonical surface's, and does not poison them
    from nscurves.curve import dehn_twist, torus_slope, twist_generators
    from nscurves.homology import homology_basis
    from nscurves.surface import Surface
    from nscurves.verify import separating_seed_curve

    for g, b in ((1, 1), (1, 2)):   # g1b1 has no separating seed, g1b2 has
        s = build_surface(g, b)
        twin = Surface(s.genus, s.boundary_count, s.ntri, s.glue, s.polygon)
        assert twin is not s and twin.spec_name == s.spec_name
        for surf in (twin, s):      # the twin is queried first
            assert all(c.surface is surf for _, c in twist_generators(surf))
            assert homology_basis(surf).surface is surf
            seed = separating_seed_curve(surf)
            assert (seed is None) == (b < 2)
            assert seed is None or seed.surface is surf
    s = build_surface(1, 1)
    image = dehn_twist(torus_slope(s, 1, 0), twist_generators(s)[1][1], 1)
    assert image.surface is s
