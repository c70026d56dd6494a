import random

import pytest

from nscurves.surface import build_surface
from nscurves import curve as C, pairconfig as PC
from nscurves.drawing import Strand
from nscurves.errors import Inessential, InternalInvariantError
from nscurves.homology import HomologyClass


SURFACE_SPECS = ["g1b1", "g1b2", "g2b0", "g2b1"]


@pytest.fixture(autouse=True)
def empty_drawing_memos(monkeypatch):
    """Each test draws its pairs, twists, witnesses and glued curves afresh.

    Tests that count drawing work would otherwise see memo hits left by
    earlier tests.
    """
    monkeypatch.setattr(PC, "_PAIR_DRAWING_CACHE", {})
    monkeypatch.setattr(PC, "_WITNESS_CACHE", {})
    monkeypatch.setattr(C, "_TWIST_CACHE", {})
    monkeypatch.setattr(C, "_SPLICE_CACHE", {})
    monkeypatch.setattr(C, "_LAP_CACHE", {})
    monkeypatch.setattr(C, "_WALK_CACHE", {})


@pytest.fixture(scope="session")
def s11():
    return build_surface(1, 1)


@pytest.fixture(scope="session")
def s12():
    return build_surface(1, 2)


@pytest.fixture(scope="session")
def s20():
    return build_surface(2, 0)


@pytest.fixture(scope="session")
def s21():
    return build_surface(2, 1)


@pytest.fixture(scope="session")
def all_surfaces(s11, s12, s20, s21):
    return [s11, s12, s20, s21]


def seeded(n):
    return random.Random(1_000_003 * n + 17)


def sample_curves(surface, seed, count, **kw):
    rng = seeded(seed)
    kw.setdefault("max_twists", 4)
    kw.setdefault("complexity_bound", 150)
    return [C.random_nonseparating(surface, rng, **kw) for _ in range(count)]


# -- the drawn glue route: the oracle of `bicorn._glued_curve` ---------------


def point_walk(drawing, segments):
    """The closed walk glued from strand sub-arcs, read point by point.

    `segments` is a cyclic list of (sid, cr_from, cr_to, direction): the
    sub-arc of that strand between the two crossings, traversed forward
    (+1) or backward (-1).  Consecutive segments must share their junction
    crossing, inside whose triangle the walk turns from one into the next.
    Returns (original pid, triangle after it) for each point crossed; each
    point may be crossed at most once.  This was the route of
    `bicorn._glued_walk` before it read its darts off dart tables, and it
    raises what that does.
    """
    tokens = []
    for (sid, cr_from, cr_to, direction) in segments:
        st = drawing.strands[sid]
        if direction == 1:
            interior = drawing.arc_interior(sid, cr_from, cr_to)
        else:
            interior = drawing.arc_interior(sid, cr_to, cr_from)[::-1]
        for num, j in enumerate(interior):
            if num == len(interior) - 1:
                tri = cr_to.tri   # the junction's triangle
            else:
                tri = st.tris[j if direction == 1 else interior[num + 1]]
            tokens.append((st.pts[j], tri))
    if not tokens:
        raise InternalInvariantError("glued curve crosses no edges")
    used = [p for p, _ in tokens]
    if len(set(used)) != len(used):
        raise InternalInvariantError("glued curve reuses a point")
    return tokens


def point_walk_darts(drawing, segments):
    """The darts of `point_walk`: the (triangle, side) by which the walk
    leaves each triangle, one side lookup per point."""
    tokens = point_walk(drawing, segments)
    side = drawing.side_of_point_in_tri
    return [(tri, side(p, tri))
            for (_, tri), (p, _) in zip(tokens, tokens[1:] + tokens[:1])]


def assemble_path_strand(drawing, segments):
    """Solo drawing of the closed curve of `point_walk`.

    Corners are smoothed by connecting the flanking edge points directly
    inside the junction's triangle.  Like `twist_once`, this checks no
    embeddedness: `Drawing.reduce_turnbacks` checks it when it reduces
    the turnbacks.
    """
    tokens = point_walk(drawing, segments)
    return drawing.sub_drawing([Strand([p for p, _ in tokens],
                                       [t for _, t in tokens])])


def drawn_glued_curve(config, segments):
    """`bicorn._glued_curve` by the drawn route: the glued strand drawn,
    checked for embeddedness and its turnbacks removed one at a time
    (`Drawing.reduce_turnbacks`), and the curve of what is left.  Returns
    (curve, cls, glued drawing), the curve None and cls zero where it is
    inessential.
    """
    glued = assemble_path_strand(config.drawing, segments)
    reduced = glued.clone()
    reduced.reduce_turnbacks(0)
    try:
        if 0 not in reduced.strands:
            raise Inessential("curve bounds a disk")
        curve = C.curve_from_drawing(reduced)
    except Inessential:
        surf = glued.surface
        return None, HomologyClass(surf, [0] * surf.homology_rank), glued
    cls = curve.cls if curve.forward_canonical else -curve.cls
    return curve, cls, glued
