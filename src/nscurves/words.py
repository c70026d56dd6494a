"""Conjugacy-class bookkeeping for traced curve words.

A drawn curve yields a cyclic word in the dual-edge generators of its
surface (see `surface.crossing_letter`).  For surfaces with boundary the
group is free and two curves are freely homotopic iff their cyclic words
are conjugate, which reduces to comparing cyclically reduced rotations.
For closed surfaces there is a single vertex relator r: the torus case is
abelian, and for genus >= 2 the relator satisfies the metric
small-cancellation condition checked at surface construction.

There a class is keyed by its geodesic cyclic word pushed furthest to one
side (after Birman-Series, J. LMS 1984; Erickson-Whittlesey, SODA 2013).
Dehn reduction (replace any subword covering more than half of r by the
inverse of the complement) need not reach a geodesic, since a chain of
half relators can still shorten, so the key sweeps: it swaps each half
relator that a face reads on side 0 (a rotation of r) for the face's
other half, read on side 1 (of r^-1), Dehn-reducing after each swap;
then does the same for side 1, and repeats while the length falls.  The
swaps of a sweep all cross faces in one direction.  The last sweep stops
short only at a closed ladder of side-1 faces around the whole word, whose
far side (`_past_ladder`) has the same length and is traded in.  The key
is the least rotation of the result.

The relator moves are indexed once per presentation and cached on its
`relators` tuple (`_move_tables`): a shortening or swap step is one
dictionary lookup per cyclic start and piece size.

Letters are nonzero ints; -x is the inverse of x.
"""

from __future__ import annotations

from functools import lru_cache


def free_reduce(word):
    out = []
    for x in word:
        if out and out[-1] == -x:
            out.pop()
        else:
            out.append(x)
    return out


def cyclic_reduce(word):
    w = free_reduce(list(word))
    while len(w) >= 2 and w[0] == -w[-1]:
        w = w[1:-1]
    return w


def _rotations(w):
    n = len(w)
    return [tuple(w[i:] + w[:i]) for i in range(n)] if n else [()]


def least_rotation(w):
    """Start of the lexicographically least rotation of the sequence w.

    Duval's Lyndon factorization of w + w ("Factorizing words over an
    ordered alphabet", 1983), stopped after the first n letters: O(n).
    """
    n = len(w)
    s = list(w) + list(w)
    i = start = 0
    while i < n:
        start = i
        j, k = i + 1, i
        while j < 2 * n and s[k] <= s[j]:
            k = i if s[k] < s[j] else k + 1
            j += 1
        while i <= k:
            i += j - k
    return start


def _relator_variants(relator):
    r = list(relator)
    var = []
    for base in (r, [-x for x in reversed(r)]):
        var.extend(_rotations(base))
    return var


@lru_cache(maxsize=None)
def _move_tables(relators):
    """(shortening table, half tables, ladder table, half) per relator.

    A relator's variants are the rotations of r, on side 0, then those of
    r^-1, on side 1.  The shortening table maps each size from len(r) - 1
    down to half + 1 to {piece: (variant index, replacement)}, keeping the
    first variant that has the piece.  For a relator of even length, the
    half table of each side maps its half pieces to their other halves,
    and the ladder table maps each piece one letter short of a half on
    side 1 to its variant; they are empty for odd length.
    """
    tables = []
    for r in relators:
        m, half = len(r), len(r) // 2
        shorten = {size: {} for size in range(m - 1, half, -1)}
        halves, ladder = ({}, {}), {}
        for index, v in enumerate(_relator_variants(r)):
            side = int(index >= m)
            for size, table in shorten.items():
                repl = tuple(invert_word(v[size:]))
                table.setdefault(v[:size], (index, repl))
            if half > 1 and m == 2 * half:
                halves[side].setdefault(v[:half], tuple(invert_word(v[half:])))
                if side:
                    ladder.setdefault(v[:half - 1], v)
        tables.append((shorten, halves, ladder, half))
    return tables


def _dehn_shorten_once(w, shorten):
    """One length-reducing relator move on the cyclic word, or None.

    The move taken is the one of least variant index, then largest size,
    then earliest start.
    """
    n = len(w)
    doubled = tuple(w) * 2
    best = None
    for size, table in shorten.items():
        if size <= n:
            for start in range(n):
                hit = table.get(doubled[start:start + size])
                if hit is not None and (best is None or hit[0] < best[0]):
                    best = hit + (start, size)
    if best is None:
        return None
    _, repl, start, size = best
    return cyclic_reduce(repl + doubled[start + size:start + n])


def dehn_reduce(word, relators):
    """Cyclically reduced word with no subword longer than half a relator."""
    w = cyclic_reduce(word)
    if not relators:
        return w
    tables = _move_tables(relators)
    while w:
        for shorten, _, _, _ in tables:
            res = _dehn_shorten_once(w, shorten)
            if res is not None:
                w = res
                break
        else:
            break
    return w


def _swap_first_half(w, side, tables):
    """`w` with its first half relator on `side` swapped, or None."""
    n = len(w)
    doubled = tuple(w) * 2
    for start in range(n):
        for _, halves, _, half in tables:
            other = halves[side].get(doubled[start:start + half])
            if other is not None and half <= n:
                return other + doubled[start + half:start + n]
    return None


def _sweep(w, side, relators):
    """Swap half relators on `side`, Dehn-reducing after each swap, until
    none is left."""
    tables = _move_tables(relators)
    swapped = _swap_first_half(w, side, tables)
    while swapped is not None:
        w = dehn_reduce(swapped, relators)
        swapped = _swap_first_half(w, side, tables)
    return w


def _past_ladder(w, relators):
    """The far side of a closed ladder on side 1 along `w`, else `w`.

    The ladder's faces read consecutive pieces of the cyclic word, each one
    letter short of a half, and each face's letter after its piece is the
    inverse of the next face's letter before its own: the edge they share.
    The far side is conjugate to `w` by one letter, and half swaps never
    reach it.
    """
    n = len(w)
    for _, _, ladder, half in _move_tables(relators):
        k = half - 1
        if not ladder or not n or n % k:
            continue
        for offset in range(k):
            rot = tuple(w[offset:]) + tuple(w[:offset])
            faces = [ladder.get(rot[i:i + k]) for i in range(0, n, k)]
            pairs = zip(faces, faces[1:] + faces[:1])
            if None not in faces and all(v[-1] == -u[k] for u, v in pairs):
                return [x for v in faces for x in invert_word(v[half:-1])]
    return w


def _least_key(w):
    k = least_rotation(w)
    return tuple(w[k:]) + tuple(w[:k])


def abelianize(word, rank):
    """Exponent sum of each of the `rank` generators in `word`."""
    counts = [0] * rank
    for x in word:
        counts[abs(x) - 1] += 1 if x > 0 else -1
    return counts


def canonical_cyclic(word, relators=(), abelian_rank=0):
    """Canonical representative of the conjugacy class of `word`.

    `abelian_rank` > 0 switches to the abelianization (the closed torus).
    Otherwise the result is the least rotation of one cyclic word of the
    class: the cyclically reduced word without relators, and with them
    the geodesic word swept to side 1 (see the module docstring).
    """
    if abelian_rank:
        return tuple(abelianize(word, abelian_rank))
    w = dehn_reduce(word, relators)
    if relators:
        n = None
        while len(w) != n:
            n = len(w)
            w = _sweep(_sweep(w, 0, relators), 1, relators)
        w = _past_ladder(w, relators)
    return _least_key(w)


def invert_word(word):
    return [-x for x in reversed(word)]


def canonical_unoriented(word, relators=(), abelian_rank=0):
    """Canonical form over both orientations; also reports which one won."""
    fwd = canonical_cyclic(word, relators, abelian_rank)
    bwd = canonical_cyclic(invert_word(list(word)), relators, abelian_rank)
    if abelian_rank:
        return (min(fwd, bwd), fwd <= bwd)
    return (fwd, True) if fwd <= bwd else (bwd, False)


def is_trivial(word, relators=(), abelian_rank=0):
    if abelian_rank:
        return all(c == 0 for c in canonical_cyclic(word, (), abelian_rank))
    return len(dehn_reduce(word, relators)) == 0
