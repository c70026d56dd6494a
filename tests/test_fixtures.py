"""Fixture curves drawn from their reduced dual paths (`Drawing.from_path`)."""

from math import gcd

import pytest

from nscurves.curve import (boundary_parallel_curve, curve_from_normal_coords,
                            dehn_twist, dual_curve, torus_slope,
                            twist_generators)
from nscurves.drawing import Drawing
from nscurves.errors import InternalInvariantError
from nscurves.fixtures import (chain_curve_events, polygon_path, push_in_path,
                               torus_slope_events)
from nscurves.surface import parse_surface_spec
from conftest import sample_curves


def _fixtures():
    """(name, curve, fixture path) of the covered fixture curves."""
    out = []
    for spec in ("g1b0", "g1b1"):
        s = parse_surface_spec(spec)
        for p in range(-4, 5):
            for q in range(-4, 5):
                if gcd(p, q) == 1:
                    out.append(("%s %d/%d" % (spec, p, q), torus_slope(s, p, q),
                                polygon_path(s, torus_slope_events(s, p, q))))
    for spec in ("g2b0", "g2b1", "g3b0"):
        s = parse_surface_spec(spec)
        for side, partner in enumerate(s.polygon.glued_partner):
            if partner is not None:
                out.append(("%s dual %d" % (spec, side), dual_curve(s, side),
                            polygon_path(s, [side])))
        chains = [c for _, c in twist_generators(s)[2 * s.genus:]]
        for i, c in enumerate(chains):
            out.append(("%s chain %d" % (spec, i), c,
                        polygon_path(s, chain_curve_events(s, i))))
    for spec in ("g1b2", "g2b2"):
        s = parse_surface_spec(spec)
        for ci in range(s.boundary_count):
            out.append(("%s push-in %d" % (spec, ci),
                        boundary_parallel_curve(s, ci), push_in_path(s, ci)))
    return out


def test_fixture_curves_run_along_their_paths():
    fixtures = _fixtures()
    assert len(fixtures) == 132
    for name, curve, path in fixtures:
        assert curve.passages() == tuple(path), name
        d = Drawing.from_path(curve.surface, path)
        assert d.passages(0) == tuple(path), name
        assert d.reduce_turnbacks(0) == 0, name


def test_from_path_keeps_the_start_and_direction_of_any_path(
        s11, s12, s20, s21):
    curves = [c for surf in (s11, s12, s20, s21)
              for c in sample_curves(surf, 14, 4)]
    # the tracer runs this strand against its path, from a passage that
    # the path makes too: the first passage alone cannot tell the direction
    curves.append(curve_from_normal_coords(s20, [8, 3, 11, 7, 4, 2, 2, 0, 2]))
    for c in curves:
        path = c.passages()
        for k in (0, len(path) // 2):
            turned = path[k:] + path[:k]
            assert Drawing.from_path(c.surface, turned).passages(0) == turned
            back = tuple((t, s_out, s_in)
                         for t, s_in, s_out in reversed(turned))
            assert Drawing.from_path(c.surface, back).passages(0) == back


def test_from_path_rejects_a_path_of_two_strands(s11, s20):
    for surf in (s11, s20):
        _, gen = twist_generators(surf)[0]
        with pytest.raises(InternalInvariantError, match="2 strands"):
            Drawing.from_path(surf, gen.passages() * 2)
    m, l = (c for _, c in twist_generators(s11))
    path = dehn_twist(m, l, 3).passages()
    with pytest.raises(InternalInvariantError, match="2 strands"):
        Drawing.from_path(s11, path + path)
