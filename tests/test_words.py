import time

from hypothesis import given, settings, strategies as st

from nscurves import words as W
from nscurves.surface import build_surface
from conftest import seeded

RELATOR_G2 = build_surface(2, 0).vertex_relators[0]

letters = st.integers(-4, 4).filter(lambda x: x != 0)
words = st.lists(letters, max_size=14)


def test_free_reduce():
    assert W.free_reduce([1, -1]) == []
    assert W.free_reduce([1, 2, -2, -1, 3]) == [3]
    assert W.cyclic_reduce([1, 2, 3, -1]) == [2, 3]


@given(words)
@settings(max_examples=120, deadline=None)
def test_canonical_rotation_invariant(w):
    relators = (RELATOR_G2,)
    base = W.canonical_cyclic(w, relators)
    for k in range(1, len(w)):
        rot = w[k:] + w[:k]
        assert W.canonical_cyclic(rot, relators) == base


@given(words, letters)
@settings(max_examples=120, deadline=None)
def test_canonical_conjugation_invariant(w, g):
    relators = (RELATOR_G2,)
    conj = [g] + w + [-g]
    assert W.canonical_cyclic(conj, relators) == W.canonical_cyclic(w, relators)


def test_relator_is_trivial():
    r = list(RELATOR_G2)
    assert W.is_trivial(r, relators=(RELATOR_G2,))
    assert W.is_trivial(r + r, relators=(RELATOR_G2,))
    assert not W.is_trivial([1], relators=(RELATOR_G2,))
    assert not W.is_trivial([1, 2], relators=(RELATOR_G2,))


def test_relator_conjugacy_identification():
    # inserting a relator anywhere must not change the class
    r = list(RELATOR_G2)
    w = [1, 2, -1, 3]
    spliced = w[:2] + r + w[2:]
    assert W.canonical_cyclic(spliced, (RELATOR_G2,)) == \
        W.canonical_cyclic(w, (RELATOR_G2,))


def test_abelian_torus():
    assert W.canonical_cyclic([1, 2, -1, 2], abelian_rank=2) == (0, 2)
    assert W.is_trivial([1, 2, -1, -2], abelian_rank=2)
    key, fwd = W.canonical_unoriented([1, 1, 2], abelian_rank=2)
    assert key == min((2, 1), (-2, -1))


def test_unoriented_identifies_inverse():
    w = [1, 2, -3]
    k1, _ = W.canonical_unoriented(w, (RELATOR_G2,))
    k2, _ = W.canonical_unoriented(W.invert_word(w), (RELATOR_G2,))
    assert k1 == k2


def _random_reduced_word(rng, n):
    w = []
    while len(w) < n:
        x = rng.choice([-4, -3, -2, -1, 1, 2, 3, 4])
        if not w or x != -w[-1]:
            w.append(x)
    return w


def test_free_canonical_is_the_least_rotation():
    # the quadratic scan over every rotation is the oracle; periodic words
    # have several least rotations, and short alphabets make long ties
    rng = seeded(7)
    cases = [[], [1], [1, 1], [2, 1, 2, 1], [1, -2, 1, -2, 1, -2]]
    for _ in range(400):
        rank = rng.choice([1, 2, 4])
        w = [rng.choice([g for g in range(-rank, rank + 1) if g])
             for _ in range(rng.randrange(0, 40))]
        cases.append(w)
        cases.append(w * rng.randrange(2, 4))
    for w in cases:
        reduced = W.cyclic_reduce(w)
        assert W.canonical_cyclic(w) == min(W._rotations(reduced)), w


def test_free_canonical_is_linear():
    w = _random_reduced_word(seeded(11), 100_000)
    start = time.perf_counter()
    key = W.canonical_cyclic(w)
    assert time.perf_counter() - start < 1.0
    assert len(key) > 99_000
