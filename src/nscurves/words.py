"""Conjugacy-class bookkeeping for traced curve words.

A drawn curve yields a cyclic word in the dual-edge generators of its
surface (see `surface.crossing_letter`).  For surfaces with boundary the
group is free and two curves are freely homotopic iff their cyclic words
are conjugate, which reduces to comparing cyclically reduced rotations.
For closed surfaces there is a single vertex relator r: the torus case is
abelian, and for genus >= 2 the relator satisfies the metric
small-cancellation condition checked at surface construction, so greedy
shortening (replace any subword covering more than half of r by the
inverse of the complement) terminates in a geodesic cyclic word, and two
reduced words are conjugate iff they are connected by rotations and
half-relator swaps.

The relator moves are indexed once per presentation and cached on its
`relators` tuple (`_move_tables`): a shortening step is one dictionary
lookup per cyclic start and piece size, and the orbit search keys each
cyclic word by its least rotation and scans its half swaps once, not
once per rotation.  The orbit is still searched in full, and its size in
rotations is capped at `_ORBIT_CAP`: each half relator that survives
reduction can double it, so long words with many of them reach the cap.

Letters are nonzero ints; -x is the inverse of x.
"""

from __future__ import annotations

from functools import lru_cache

from .errors import InternalInvariantError

_ORBIT_CAP = 200000


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
    """(shortening table, half-swap table, half) per relator, built once.

    A relator's variants are the rotations of r, then those of r^-1.  The
    shortening table maps each size from len(r) - 1 down to half + 1 to
    {piece: (variant index, replacement)}, keeping the first variant that
    has the piece; the half-swap table maps each half piece to its
    replacements (none for a relator of odd length).
    """
    tables = []
    for r in relators:
        m, half = len(r), len(r) // 2
        shorten = {size: {} for size in range(m - 1, half, -1)}
        swaps = {}
        for index, v in enumerate(_relator_variants(r)):
            for size, table in shorten.items():
                repl = tuple(invert_word(v[size:]))
                table.setdefault(v[:size], (index, repl))
            if half and m == 2 * half:
                swaps.setdefault(v[:half], []).append(
                    tuple(invert_word(v[half:])))
        tables.append((shorten, swaps, half))
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
        for shorten, _, _ in tables:
            res = _dehn_shorten_once(w, shorten)
            if res is not None:
                w = res
                break
        else:
            break
    return w


def _half_swaps(key, tables):
    """Same-length half-relator replacements on the cyclic word `key`."""
    n = len(key)
    doubled = key * 2
    for _, table, half in tables:
        if n < half:
            continue
        for start in range(n):
            repls = table.get(doubled[start:start + half])
            if repls is None:
                continue
            rest = doubled[start + half:start + n]
            for repl in repls:
                nxt = cyclic_reduce(repl + rest)
                if len(nxt) == n:
                    yield nxt


def _least_key(w):
    k = least_rotation(w)
    return tuple(w[k:]) + tuple(w[:k])


def _rotation_count(key):
    """Number of distinct rotations of the sequence `key` (1 if empty)."""
    n = len(key)
    for p in range(1, n // 2 + 1):
        if n % p == 0 and key[p] == key[0] and key[p:] == key[:-p]:
            return p
    return max(n, 1)


def abelianize(word, rank):
    """Exponent sum of each of the `rank` generators in `word`."""
    counts = [0] * rank
    for x in word:
        counts[abs(x) - 1] += 1 if x > 0 else -1
    return counts


def canonical_cyclic(word, relators=(), abelian_rank=0):
    """Canonical representative of the conjugacy class of `word`.

    `abelian_rank` > 0 switches to the abelianization (the closed torus);
    otherwise relators, if any, drive Dehn reduction plus an orbit search
    over half-relator swaps of cyclic words, and the result is the least
    rotation of any word in the orbit.  Without them it is the least
    rotation of the cyclically reduced word.
    """
    if abelian_rank:
        return tuple(abelianize(word, abelian_rank))
    w = dehn_reduce(word, relators)
    if not relators:
        return _least_key(w)
    tables = _move_tables(relators)
    seen = set()
    frontier = [_least_key(w)]
    rotations = 0
    while frontier:
        cur = frontier.pop()
        if cur in seen:
            continue
        seen.add(cur)
        rotations += _rotation_count(cur)
        if rotations > _ORBIT_CAP:
            raise InternalInvariantError("conjugacy orbit exploded")
        for nxt in _half_swaps(cur, tables):
            key = _least_key(nxt)
            if key not in seen:
                frontier.append(key)
    return min(seen)


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
