import random

import pytest

from nscurves.surface import build_surface
from nscurves import curve as C, pairconfig as PC


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
    monkeypatch.setattr(C, "_CURVE_CACHE", {})


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
