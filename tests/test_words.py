import time

import pytest
from hypothesis import given, settings, strategies as st

from nscurves import words as W
from nscurves.errors import InternalInvariantError
from nscurves.surface import build_surface
from conftest import seeded

RELATOR_G2 = build_surface(2, 0).vertex_relators[0]
RELATOR_G3 = build_surface(3, 0).vertex_relators[0]

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


# The oracle: the variant-major shortening scan and the rotation-by-rotation
# orbit search that the move tables replace.

def _oracle_shorten_once(w, variants, half):
    n = len(w)
    if n == 0:
        return None
    doubled = list(w) + list(w)
    for v in variants:
        for size in range(len(v) - 1, half, -1):
            if size > n:
                continue
            piece = list(v[:size])
            repl = [-x for x in reversed(v[size:])]
            for start in range(n):
                if doubled[start:start + size] == piece:
                    return W.cyclic_reduce(repl + doubled[start + size:
                                                          start + n])
    return None


def _oracle_dehn_reduce(word, relators):
    w = W.cyclic_reduce(word)
    moves = [(W._relator_variants(r), len(r) // 2) for r in relators]
    changed = True
    while changed:
        changed = False
        for variants, half in moves:
            res = _oracle_shorten_once(w, variants, half)
            if res is not None:
                w, changed = res, True
                break
    return w


def _oracle_half_swaps(w, variants, half):
    n = len(w)
    out = set()
    if n < half or half == 0:
        return out
    doubled = list(w) + list(w)
    for v in variants:
        if len(v) != 2 * half:
            continue
        piece = list(v[:half])
        repl = [-x for x in reversed(v[half:])]
        for start in range(n):
            if doubled[start:start + half] == piece:
                out.add(tuple(W.cyclic_reduce(repl + doubled[start + half:
                                                             start + n])))
    return out


def _oracle_canonical_cyclic(word, relators):
    w = _oracle_dehn_reduce(word, relators)
    moves = [(W._relator_variants(r), len(r) // 2) for r in relators]
    seen, frontier = set(), [tuple(w)]
    while frontier:
        for rot in W._rotations(list(frontier.pop())):
            if rot in seen:
                continue
            seen.add(rot)
            for variants, half in moves:
                frontier.extend(
                    nxt for nxt in _oracle_half_swaps(list(rot), variants,
                                                      half)
                    if len(nxt) == len(rot) and nxt not in seen)
    return min(seen)


def _closed_words(relator, rng):
    gens = sorted({abs(x) for x in relator})
    letters = gens + [-g for g in gens]
    half = len(relator) // 2
    variants = W._relator_variants(relator)
    halves = [v[:size] for v in variants for size in (half - 1, half,
                                                      half + 1)]
    pieces = [v[:size] for v in variants
              for size in range(1, len(relator) + 1)]
    cases = [[]] + [[x] for x in letters]
    for _ in range(70):
        base = [rng.choice(letters) for _ in range(rng.randrange(0, 9))]
        cases.append(base * rng.randrange(2, 4))
        spliced = list(base)
        for _ in range(rng.randrange(1, 3)):
            k = rng.randrange(len(spliced) + 1)
            spliced[k:k] = rng.choice(pieces)
        cases.append(spliced)
        rich = []
        for _ in range(rng.randrange(1, 4)):
            rich.extend(rng.choice(halves))
            rich.extend(rng.choice(letters)
                        for _ in range(rng.randrange(0, 3)))
        cases.append(rich)
    return cases


@pytest.mark.parametrize("relator", [RELATOR_G2, RELATOR_G3],
                         ids=["g2b0", "g3b0"])
def test_closed_words_match_the_oracle(relator):
    rels = (relator,)
    for w in _closed_words(relator, seeded(len(relator))):
        reduced = _oracle_dehn_reduce(w, rels)
        assert W.dehn_reduce(w, rels) == reduced, w
        assert W.is_trivial(w, rels) == (not reduced), w
        fwd = _oracle_canonical_cyclic(w, rels)
        bwd = _oracle_canonical_cyclic(W.invert_word(w), rels)
        assert W.canonical_cyclic(w, rels) == fwd, w
        assert W.canonical_unoriented(w, rels) == (min(fwd, bwd),
                                                   fwd <= bwd), w


def _spliced_halves(relator, rng, n):
    # a reduced random word with a half relator spliced in every 40 to 60
    # letters: each one that survives reduction doubles the orbit
    gens = sorted({abs(x) for x in relator})
    letters = gens + [-g for g in gens]
    halves = [v[:len(relator) // 2] for v in W._relator_variants(relator)]
    w = []
    while len(w) < n:
        for _ in range(rng.randrange(40, 60)):
            w.append(rng.choice([x for x in letters if not w or x != -w[-1]]))
        w.extend(rng.choice(halves))
    return w


def test_long_closed_word_is_fast():
    # its orbit has 128 cyclic words of length 253; the rotation-by-rotation
    # search took 430 s over both orientations
    w = _spliced_halves(RELATOR_G2, seeded(2), 240)
    assert len(W.dehn_reduce(w, (RELATOR_G2,))) >= 240
    start = time.perf_counter()
    W.canonical_unoriented(w, (RELATOR_G2,))
    assert time.perf_counter() - start < 1.0


def test_orbit_over_the_cap_raises(monkeypatch):
    # the cap counts rotations, and this orbit has 32,384 of them
    w = _spliced_halves(RELATOR_G2, seeded(2), 240)
    monkeypatch.setattr(W, "_ORBIT_CAP", 32_384)
    W.canonical_cyclic(w, (RELATOR_G2,))
    monkeypatch.setattr(W, "_ORBIT_CAP", 32_383)
    with pytest.raises(InternalInvariantError):
        W.canonical_cyclic(w, (RELATOR_G2,))
