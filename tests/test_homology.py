import zlib

import pytest
from hypothesis import given, settings, strategies as st

from nscurves import intlinalg as IL
from nscurves.curve import boundary_parallel_curve, torus_slope
from nscurves.homology import homology_basis
from nscurves.pairconfig import cut_components, intersection_form, \
    intersection_number, intersection_witness
from conftest import sample_curves


def test_smith_normal_form_small():
    a = [[2, 4, 4], [-6, 6, 12], [10, -4, -16]]
    d, u, v = IL.smith_normal_form(a)
    prod = IL.mat_mul(IL.mat_mul(u, a), v)
    assert prod == d
    diag = [d[i][i] for i in range(3)]
    assert diag == [2, 6, 12]  # classical example
    for i in range(2):
        assert diag[i + 1] % diag[i] == 0


@given(st.lists(st.lists(st.integers(-6, 6), min_size=3, max_size=3),
                min_size=2, max_size=4))
@settings(max_examples=60, deadline=None)
def test_snf_reconstructs(rows):
    d, u, v = IL.smith_normal_form(rows)
    assert IL.mat_mul(IL.mat_mul(u, rows), v) == d
    # off-diagonal zero
    for i in range(len(d)):
        for j in range(len(d[0])):
            if i != j:
                assert d[i][j] == 0


def test_solve_integer():
    a = [[2, 0], [0, 3]]
    assert IL.LatticeSolver(a).solve([4, 9]) == [2, 3]
    assert IL.LatticeSolver(a).solve([1, 0]) is None


@pytest.mark.parametrize("spec,rank,bd_rank", [
    ("g2b0", 4, 0), ("g1b1", 2, 0), ("g1b2", 3, 1), ("g2b1", 4, 0),
    ("g1b0", 2, 0), ("g1b3", 4, 2), ("g2b2", 5, 1), ("g3b0", 6, 0),
    ("g3b1", 6, 0)])
def test_ranks(spec, rank, bd_rank):
    from nscurves.surface import parse_surface_spec
    surf = parse_surface_spec(spec)
    hb = homology_basis(surf)
    assert hb.rank == rank
    assert hb.boundary_rank == bd_rank
    # builds only if the twist generators have the classes e_1..e_2g
    assert len(intersection_form(surf)) == 2 * surf.genus


def test_boundary_classes_cancel(s12):
    hb = homology_basis(s12)
    total = [sum(c[i] for c in hb.boundary_classes) for i in range(hb.rank)]
    assert all(t == 0 for t in total)


def test_meridian_class_and_reversal(s11):
    m = torus_slope(s11, 1, 0)
    assert m.cls.coords == (1, 0)
    assert m.oriented(False).cls.coords == (-1, 0)
    for (p, q) in [(0, 1), (2, 1), (-3, 2), (5, 7)]:
        c = torus_slope(s11, p, q)
        assert c.cls.coords in ((p, q), (-p, -q))


def test_boundary_parallel_is_sublattice_generator(s12):
    hb = homology_basis(s12)
    bp = boundary_parallel_curve(s12, 1)
    assert hb.in_boundary_lattice(bp.cls)
    assert not bp.cls.is_zero()
    assert bp.is_separating()
    assert bp.peripheral


def test_separating_examples(s11, s12):
    assert not torus_slope(s11, 1, 0).is_separating()
    assert boundary_parallel_curve(s12, 0).is_separating()


def test_witness_examples(s11):
    m = torus_slope(s11, 1, 0)
    w = intersection_witness(m)
    assert intersection_number(w, m) == 1
    assert intersection_witness(boundary_parallel_curve(s11, 0)) is None


def test_witness_random(s20):
    for c in sample_curves(s20, 3, 6):
        w = intersection_witness(c)
        assert intersection_number(w, c) == 1


def test_separating_oracle_agreement(all_surfaces):
    from nscurves.verify import random_curve_any
    from conftest import seeded
    for surf in all_surfaces:
        rng = seeded(zlib.crc32(surf.spec_name.encode()) % 1000)
        for _ in range(8):
            c = random_curve_any(surf, rng, complexity_bound=120)
            assert c.is_separating() == (cut_components(surf, c) >= 2)


def test_class_additivity(s11):
    a = torus_slope(s11, 2, 1)
    b = torus_slope(s11, 1, 1)
    assert (a.cls + b.cls).coords == (3, 2)
    assert (a.cls - a.cls).is_zero()
