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

Letters are nonzero ints; -x is the inverse of x.
"""

from __future__ import annotations

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


def _dehn_shorten_once(w, variants, half):
    """One length-reducing relator move on the cyclic word, or None."""
    n = len(w)
    if n == 0:
        return None
    doubled = list(w) + list(w)
    for v in variants:
        m = len(v)
        for size in range(m - 1, half, -1):
            piece = v[:size]
            repl = [-x for x in reversed(v[size:])]
            for start in range(n):
                if size > n:
                    continue
                if doubled[start:start + size] == list(piece):
                    neww = repl + doubled[start + size:start + n]
                    return cyclic_reduce(neww)
    return None


def dehn_reduce(word, relators):
    """Cyclically reduced word with no subword longer than half a relator."""
    w = cyclic_reduce(word)
    if not relators:
        return w
    moves = []
    for r in relators:
        variants = _relator_variants(r)
        half = len(r) // 2
        moves.append((variants, half))
    changed = True
    while changed:
        changed = False
        for variants, half in moves:
            res = _dehn_shorten_once(w, variants, half)
            if res is not None:
                w = res
                changed = True
                break
    return w


def _half_swaps(w, variants, half):
    """Length-preserving half-relator replacements on the cyclic word."""
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
                neww = cyclic_reduce(repl + doubled[start + half:start + n])
                out.add(tuple(neww))
    return out


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
    over rotations and half-relator swaps.  Without them it is the least
    rotation of the cyclically reduced word.
    """
    if abelian_rank:
        return tuple(abelianize(word, abelian_rank))
    w = dehn_reduce(word, relators)
    if not relators:
        k = least_rotation(w)
        return tuple(w[k:] + w[:k])
    best = None
    seen = set()
    frontier = [tuple(w)]
    move_data = [(_relator_variants(r), len(r) // 2) for r in relators]
    while frontier:
        cur = frontier.pop()
        for rot in _rotations(list(cur)):
            if rot in seen:
                continue
            seen.add(rot)
            if best is None or rot < best:
                best = rot
            for variants, half in move_data:
                for nxt in _half_swaps(list(rot), variants, half):
                    if len(nxt) == len(rot) and nxt not in seen:
                        frontier.append(nxt)
            if len(seen) > _ORBIT_CAP:
                raise InternalInvariantError("conjugacy orbit exploded")
    return best if best is not None else ()


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
