import zlib

import pytest

from nscurves import homology as H
from nscurves.curve import boundary_parallel_curve, torus_slope
from nscurves.errors import InternalInvariantError
from nscurves.homology import homology_basis
from nscurves.pairconfig import cut_components, intersection_form, \
    intersection_number, intersection_witness
from nscurves.surface import parse_surface_spec
from conftest import sample_curves


@pytest.mark.parametrize("spec,rank,bd_rank", [
    ("g2b0", 4, 0), ("g1b1", 2, 0), ("g1b2", 3, 1), ("g2b1", 4, 0),
    ("g1b0", 2, 0), ("g1b3", 4, 2), ("g2b2", 5, 1), ("g3b0", 6, 0),
    ("g3b1", 6, 0)])
def test_ranks(spec, rank, bd_rank):
    surf = parse_surface_spec(spec)
    hb = homology_basis(surf)
    assert hb.rank == rank
    # push-ins 1..b-1 are e_{2g+1}..e_{2g+b-1}, push-in 0 minus their sum,
    # so the boundary lattice has rank b-1
    units = [tuple(int(i == 2 * surf.genus + k) for i in range(rank))
             for k in range(bd_rank)]
    minus_sum = tuple(-sum(u[i] for u in units) for i in range(rank))
    assert hb.boundary_classes == \
        ([minus_sum] + units if surf.boundary_count else [])
    # builds only if the twist generators have the classes e_1..e_2g
    assert len(intersection_form(surf)) == 2 * surf.genus


def test_family_must_be_a_signed_permutation(monkeypatch, s11):
    # columns (1,1) and (0,1): a basis of Z^2, but not signed unit vectors
    monkeypatch.setattr(H, "canonical_family_words",
                        lambda surface: [[1, 2], [2]])
    with pytest.raises(InternalInvariantError):
        H.HomologyBasis(s11)


def test_boundary_classes_cancel(s12):
    hb = homology_basis(s12)
    total = [sum(c[i] for c in hb.boundary_classes) for i in range(hb.rank)]
    assert all(t == 0 for t in total)


def test_meridian_class_and_reversal(s11):
    m = torus_slope(s11, 1, 0)
    assert m.cls.coords == (1, 0)
    assert (-m.cls).coords == (-1, 0)
    for (p, q) in [(0, 1), (2, 1), (-3, 2), (5, 7)]:
        c = torus_slope(s11, p, q)
        assert c.cls.coords in ((p, q), (-p, -q))


def test_boundary_parallel_is_sublattice_generator(s12):
    bp = boundary_parallel_curve(s12, 1)
    assert bp.cls.in_boundary_lattice()
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
    extra = [parse_surface_spec(spec) for spec in ("g1b3", "g2b2")]
    for surf in all_surfaces + extra:
        rng = seeded(zlib.crc32(surf.spec_name.encode()) % 1000)
        for _ in range(8):
            c = random_curve_any(surf, rng, complexity_bound=120)
            assert c.is_separating() == (cut_components(c) >= 2)


def test_class_additivity(s11):
    a = torus_slope(s11, 2, 1)
    b = torus_slope(s11, 1, 1)
    assert (a.cls + b.cls).coords == (3, 2)
    assert (a.cls - a.cls).is_zero()
