import time

import pytest
from hypothesis import given, settings, strategies as st

from nscurves import words as W
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
# search of the orbit under half-relator swaps, which the move tables and
# the sweep replace.  Its least word is a key wherever it is tried here, but
# not in general: a ladder trade or a shortening chain leaves the orbit.

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
def test_closed_keys_partition_like_the_oracle(relator):
    # two words get equal keys exactly when they get equal oracle keys, and
    # no key is longer than the oracle's least word
    rels = (relator,)
    classes, oracle_classes = {}, {}
    for w in _closed_words(relator, seeded(len(relator))):
        reduced = _oracle_dehn_reduce(w, rels)
        assert W.dehn_reduce(w, rels) == reduced, w
        assert W.is_trivial(w, rels) == (not reduced), w
        keys = []
        for v in (w, W.invert_word(w)):
            key, oracle = (W.canonical_cyclic(v, rels),
                           _oracle_canonical_cyclic(v, rels))
            assert len(key) <= len(oracle), v
            classes.setdefault(key, set()).add(oracle)
            oracle_classes.setdefault(oracle, set()).add(key)
            keys.append(key)
        fwd, bwd = keys
        assert W.canonical_unoriented(w, rels) == (min(fwd, bwd),
                                                   fwd <= bwd), w
    assert all(len(v) == 1 for v in classes.values())
    assert all(len(v) == 1 for v in oracle_classes.values())


def test_conjugates_outside_the_orbit_share_a_key():
    g2, g3 = (RELATOR_G2,), (RELATOR_G3,)
    # two sides of a closed ladder, conjugate by [1, 2]
    a, b = [-2, -2, -1, 2, 4, 1], [-4, 3, 4, 4, -3, -2]
    assert W.is_trivial([1, 2] + a + [-2, -1] + W.invert_word(b), g2)
    # Dehn-reduced words longer than their geodesics; the last two
    # shorten only when swept on side 0
    longer = [
        (g2, [-3, 4, 1, -2, 4, -3, -2, 1, 1, 2, -1, -4, -3],
         [-3, 4, 1, 3, -4, -3, -3, 4, -3, -2, 1]),
        (g2, [1, -2, -1, 2, -3, -2, -1, 2, 3], [-1, -4, 3, 3, 4, -3, -3]),
        (g3, [6, 1, -2, -1, 2, 3, 5, -6, -5, 6, 1, -2, -4, 2, 5, 6, -5, -4,
              3], [3, 4, -3, -2, 1, -4, 2, 5, 6, -5, -4, 3, 5, 6, -5, -4, 3]),
    ]
    for rels, x, y in [(g2, a, b)] + longer:
        assert W.canonical_cyclic(x, rels) == W.canonical_cyclic(y, rels)
        assert (_oracle_canonical_cyclic(x, rels)
                != _oracle_canonical_cyclic(y, rels))
    for rels, x, y in longer:
        assert len(W.dehn_reduce(x, rels)) == len(x)
        assert len(W.canonical_cyclic(x, rels)) == len(y)


def _pieces(relator):
    half = len(relator) // 2
    return [v[:size] for v in W._relator_variants(relator)
            for size in (half - 1, half)]


@st.composite
def _disturbed_pairs(draw):
    # a word rich in half and near-half pieces, and a conjugate of it by a
    # random word with up to three relators inserted
    relator = draw(st.sampled_from([RELATOR_G2, RELATOR_G3]))
    gens = sorted({abs(x) for x in relator})
    letter = st.sampled_from(gens + [-g for g in gens])
    w = []
    for piece in draw(st.lists(st.sampled_from(_pieces(relator)),
                               min_size=1, max_size=6)):
        w += list(piece) + draw(st.lists(letter, max_size=2))
    v = list(w)
    variants = W._relator_variants(relator)
    for r in draw(st.lists(st.sampled_from(variants), max_size=3)):
        k = draw(st.integers(0, len(v)))
        v[k:k] = r
    u = draw(st.lists(letter, max_size=5))
    return relator, w, u + v + W.invert_word(u)


@given(_disturbed_pairs())
@settings(max_examples=200, deadline=None)
def test_keys_are_invariant_under_conjugation_and_relators(pair):
    relator, w, v = pair
    rels = (relator,)
    assert W.canonical_cyclic(w, rels) == W.canonical_cyclic(v, rels)
    assert W.canonical_unoriented(w, rels) == W.canonical_unoriented(v, rels)


def _conjugate_by_a_letter_after_rotation(w, other, rels):
    # w = p x other x^-1 p^-1 for a prefix p of w and a letter x
    letters = {x for r in rels for x in r}
    return any(W.is_trivial(list(w[:j]) + [x] + list(other) + [-x]
                            + W.invert_word(w[:j]) + W.invert_word(w), rels)
               for j in range(len(w)) for x in letters)


@pytest.mark.parametrize("relator", [RELATOR_G2, RELATOR_G3],
                         ids=["g2b0", "g3b0"])
def test_ladder_trades_are_conjugate(relator, monkeypatch):
    rels = (relator,)
    half = len(relator) // 2
    # every closed ladder, up to three times around: each face on side r^-1
    # fixes the next one, whose last letter undoes its letter after the piece
    faces = W._relator_variants(relator)[len(relator):]
    after = {v[-1]: v for v in faces}
    words = []
    for first in faces:
        ladder = [first]
        while True:
            nxt = after[-ladder[-1][half - 1]]
            if nxt == first:
                break
            ladder.append(nxt)
        for laps in (1, 2, 3):
            words.append([x for v in ladder * laps for x in v[:half - 1]])
    # and the trades the key makes on them, rotated, conjugated and with a
    # relator inserted
    trades = []
    real = W._past_ladder

    def spy(w, rels):
        out = real(w, rels)
        if out is not w:
            trades.append((w, out))
        return out
    monkeypatch.setattr(W, "_past_ladder", spy)
    rng = seeded(len(relator))
    variants = W._relator_variants(relator)
    for w in words:
        k = rng.randrange(len(w) + 1)
        u = [rng.choice(relator) for _ in range(rng.randrange(1, 4))]
        W.canonical_unoriented(w[k:] + w[:k], rels)
        W.canonical_unoriented(u + w[:k] + list(rng.choice(variants))
                               + w[k:] + W.invert_word(u), rels)
    monkeypatch.undo()
    assert len(trades) >= len(words)
    trades += [(w, real(w, rels)) for w in words]
    for w, other in trades:
        assert other is not w and len(other) == len(w), w
        assert _conjugate_by_a_letter_after_rotation(w, other, rels), w
        assert W.canonical_cyclic(w, rels) == W.canonical_cyclic(other, rels)


def _spliced_halves(relator, rng, n, gaps):
    # a reduced random word with a half relator spliced in after every run
    # of `gaps` letters
    gens = sorted({abs(x) for x in relator})
    letters = gens + [-g for g in gens]
    halves = [v[:len(relator) // 2] for v in W._relator_variants(relator)]
    w = []
    while len(w) < n:
        for _ in range(rng.randrange(*gaps)):
            w.append(rng.choice([x for x in letters if not w or x != -w[-1]]))
        w.extend(rng.choice(halves))
    return w


def test_long_closed_word_is_fast():
    # its half-swap orbit has 128 cyclic words of length 253
    w = _spliced_halves(RELATOR_G2, seeded(2), 240, (40, 60))
    assert len(W.dehn_reduce(w, (RELATOR_G2,))) >= 240
    start = time.perf_counter()
    W.canonical_unoriented(w, (RELATOR_G2,))
    assert time.perf_counter() - start < 1.0


@pytest.mark.parametrize("seed", range(11))
def test_words_dense_in_half_relators_get_keys(seed):
    # a half relator every 4 to 9 letters: the half-swap orbit of each
    # word has more than 200,000 rotations
    w = _spliced_halves(RELATOR_G2, seeded(seed), 240, (4, 10))
    start = time.perf_counter()
    key, _ = W.canonical_unoriented(w, (RELATOR_G2,))
    assert time.perf_counter() - start < 1.0
    assert 200 <= len(key) <= len(W.dehn_reduce(w, (RELATOR_G2,)))
