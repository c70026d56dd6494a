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
    """Each test draws its pairs, twists, witnesses and curves afresh.

    Tests that count drawing work would otherwise see memo hits left by
    earlier tests.
    """
    monkeypatch.setattr(PC, "_PAIR_DRAWING_CACHE", {})
    monkeypatch.setattr(PC, "_WITNESS_CACHE", {})
    monkeypatch.setattr(C, "_TWIST_CACHE", {})
    monkeypatch.setattr(C, "_LAP_CACHE", {})


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


def assemble_path_strand(drawing, segments):
    """Solo drawing of a closed curve glued from strand sub-arcs.

    `segments` is a cyclic list of (sid, cr_from, cr_to, direction): the
    sub-arc of that strand between the two crossings, traversed forward
    (+1) or backward (-1).  Consecutive segments must share their junction
    crossing; corners are smoothed by connecting the flanking edge points
    directly inside the junction's triangle.  Each original point may be
    used at most once.  Like `twist_once`, this checks no embeddedness:
    `curve_from_drawing` checks it when it reduces the turnbacks.
    """
    tokens = []   # (original pid, triangle after it)
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
        raise InternalInvariantError("assembled curve crosses no edges")
    used = [p for p, _ in tokens]
    if len(set(used)) != len(used):
        raise InternalInvariantError("assembly reuses a point")
    return drawing.sub_drawing([Strand(used, [t for _, t in tokens])])


def drawn_glued_curve(config, segments):
    """`bicorn._glued_curve` by the drawn route: the glued strand drawn,
    its turnbacks reduced by `curve_from_drawing`.  Returns (curve, cls,
    glued drawing), the curve None and cls zero where it is inessential.
    """
    glued = assemble_path_strand(config.drawing, segments)
    try:
        curve = C.curve_from_drawing(glued)
    except Inessential:
        surf = glued.surface
        return None, HomologyClass(surf, [0] * surf.homology_rank), glued
    cls = curve.cls if curve.forward_canonical else -curve.cls
    return curve, cls, glued
