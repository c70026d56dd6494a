"""Exact integer linear algebra: Smith normal form, lattice solves, inverses.

All matrices are lists of lists of Python ints (arbitrary precision), row
major.  Sizes here are tiny (at most the homology rank of a surface), so
clarity wins over asymptotics.
"""

from __future__ import annotations


def zeros(m, n):
    return [[0] * n for _ in range(m)]


def identity(n):
    return [[1 if i == j else 0 for j in range(n)] for i in range(n)]


def mat_mul(a, b):
    m, k = len(a), len(b)
    n = len(b[0]) if b else 0
    out = zeros(m, n)
    for i in range(m):
        ai = a[i]
        oi = out[i]
        for t in range(k):
            x = ai[t]
            if x:
                bt = b[t]
                for j in range(n):
                    oi[j] += x * bt[j]
    return out


def mat_vec(a, v):
    return [sum(x * y for x, y in zip(row, v)) for row in a]


def smith_normal_form(a):
    """Return (d, u, v) with u*a*v = d diagonal, u and v unimodular.

    Diagonal entries divide successive ones and are non-negative.
    """
    m = len(a)
    n = len(a[0]) if m else 0
    d = [row[:] for row in a]
    u = identity(m)
    v = identity(n)

    def swap_rows(i, j):
        d[i], d[j] = d[j], d[i]
        u[i], u[j] = u[j], u[i]

    def swap_cols(i, j):
        for row in d:
            row[i], row[j] = row[j], row[i]
        for row in v:
            row[i], row[j] = row[j], row[i]

    def add_row(src, dst, c):
        # row[dst] += c*row[src]
        d[dst] = [x + c * y for x, y in zip(d[dst], d[src])]
        u[dst] = [x + c * y for x, y in zip(u[dst], u[src])]

    def add_col(src, dst, c):
        for row in d:
            row[dst] += c * row[src]
        for row in v:
            row[dst] += c * row[src]

    def negate_row(i):
        d[i] = [-x for x in d[i]]
        u[i] = [-x for x in u[i]]

    t = 0
    while t < min(m, n):
        # find pivot: smallest nonzero |entry| in remaining block
        piv = None
        best = None
        for i in range(t, m):
            for j in range(t, n):
                x = d[i][j]
                if x and (best is None or abs(x) < best):
                    best = abs(x)
                    piv = (i, j)
        if piv is None:
            break
        i, j = piv
        swap_rows(t, i)
        swap_cols(t, j)
        if d[t][t] < 0:
            negate_row(t)
        dirty = False
        for i in range(t + 1, m):
            if d[i][t]:
                q = d[i][t] // d[t][t]
                add_row(t, i, -q)
                if d[i][t]:
                    dirty = True
        for j in range(t + 1, n):
            if d[t][j]:
                q = d[t][j] // d[t][t]
                add_col(t, j, -q)
                if d[t][j]:
                    dirty = True
        if dirty:
            continue
        # force divisibility of the rest of the block by d[t][t]
        bad = None
        for i in range(t + 1, m):
            for j in range(t + 1, n):
                if d[i][j] % d[t][t]:
                    bad = i
                    break
            if bad is not None:
                break
        if bad is not None:
            add_row(bad, t, 1)
            continue
        t += 1
    return d, u, v


class LatticeSolver:
    """Integer solves of a*x = b for one matrix a, factored once.

    `rank` is the number of nonzero Smith invariants of a.
    """

    def __init__(self, a):
        m = len(a)
        self.n = len(a[0]) if m else 0
        d, self.u, self.v = smith_normal_form(a)
        self.diag = [d[i][i] for i in range(min(m, self.n))]
        self.rank = sum(1 for x in self.diag if x)

    def solve(self, b):
        """One integer solution x of a*x = b, or None if none exists."""
        c = mat_vec(self.u, b)
        y = [0] * self.n
        for i, di in enumerate(self.diag):
            if di:
                if c[i] % di:
                    return None
                y[i] = c[i] // di
            elif c[i]:
                return None
        # rows below the diagonal block must vanish too
        if any(c[len(self.diag):]):
            return None
        return mat_vec(self.v, y)


def column_style_matrix(cols, dim):
    """Matrix whose columns are the given vectors (dim rows)."""
    return [[col[i] for col in cols] for i in range(dim)]


def invert_unimodular(a):
    """Inverse of an integer matrix with determinant ±1."""
    n = len(a)
    d, u, v = smith_normal_form(a)
    for i in range(n):
        if d[i][i] != 1:
            raise ValueError("matrix is not unimodular")
    # a = u^-1 d v^-1 with d = I, so a^-1 = v*u
    return mat_mul(v, u)
