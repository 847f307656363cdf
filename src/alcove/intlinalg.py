"""Exact linear algebra over the rationals and the integers.

Everything here works on plain tuples/lists of Fraction or int; matrices are
row-major lists of rows.  Sizes never exceed the rank of a root system, so
clarity wins over asymptotics.
"""

from __future__ import annotations

from fractions import Fraction
from math import gcd, lcm

Vec = tuple[Fraction, ...]
Mat = list[list[Fraction]]


def frac_matrix(rows) -> Mat:
    return [[Fraction(x) for x in row] for row in rows]


def mat_vec(m: Mat, v) -> Vec:
    return tuple(sum(row[j] * v[j] for j in range(len(v))) for row in m)


def mat_inverse(m: Mat) -> Mat:
    """Invert a square rational matrix by Gauss-Jordan elimination."""
    n = len(m)
    a = [[Fraction(x) for x in row] + [Fraction(i == j) for j in range(n)]
         for i, row in enumerate(m)]
    for col in range(n):
        pivot = next((r for r in range(col, n) if a[r][col] != 0), None)
        if pivot is None:
            raise ValueError("matrix is singular")
        a[col], a[pivot] = a[pivot], a[col]
        inv = Fraction(1) / a[col][col]
        a[col] = [x * inv for x in a[col]]
        for r in range(n):
            if r != col and a[r][col] != 0:
                f = a[r][col]
                a[r] = [x - f * y for x, y in zip(a[r], a[col])]
    return [row[n:] for row in a]


def clear_denominators(values) -> tuple[int, list[int]]:
    """(m, [m * v for v in values]): m the lcm of the rationals' denominators, m * v as ints."""
    m = lcm(*(v.denominator for v in values))
    return m, [v.numerator * (m // v.denominator) for v in values]


# -- integer normal forms ----------------------------------------------------

def smith_normal_form(mat: list[list[int]]) -> tuple[list[list[int]], list[list[int]], list[list[int]]]:
    """Return (u, d, v) with d = u * mat * v in Smith normal form.

    u and v are unimodular; the diagonal of d holds the elementary divisors,
    each dividing the next.
    """
    a = [list(map(int, row)) for row in mat]
    n = len(a)
    m = len(a[0]) if n else 0
    u = [[int(i == j) for j in range(n)] for i in range(n)]
    v = [[int(i == j) for j in range(m)] for i in range(m)]

    def swap_rows(i, j):
        a[i], a[j] = a[j], a[i]
        u[i], u[j] = u[j], u[i]

    def swap_cols(i, j):
        for row in a:
            row[i], row[j] = row[j], row[i]
        for row in v:
            row[i], row[j] = row[j], row[i]

    def add_row(src, dst, q):
        a[dst] = [x - q * y for x, y in zip(a[dst], a[src])]
        u[dst] = [x - q * y for x, y in zip(u[dst], u[src])]

    def add_col(src, dst, q):
        for row in a:
            row[dst] -= q * row[src]
        for row in v:
            row[dst] -= q * row[src]

    t = 0
    while t < min(n, m):
        # move a minimal nonzero entry to the (t, t) slot
        entries = [(abs(a[i][j]), i, j) for i in range(t, n) for j in range(t, m) if a[i][j]]
        if not entries:
            break
        _, i0, j0 = min(entries)
        swap_rows(t, i0)
        swap_cols(t, j0)
        dirty = False
        for i in range(t + 1, n):
            if a[i][t]:
                add_row(t, i, a[i][t] // a[t][t])
                dirty = dirty or a[i][t] != 0
        for j in range(t + 1, m):
            if a[t][j]:
                add_col(t, j, a[t][j] // a[t][t])
                dirty = dirty or a[t][j] != 0
        if dirty:
            continue
        # ensure divisibility of the remaining block
        stray = next(((i, j) for i in range(t + 1, n) for j in range(t + 1, m)
                      if a[i][j] % a[t][t] != 0), None)
        if stray is not None:
            add_row(stray[0], t, -1)
            continue
        if a[t][t] < 0:
            a[t] = [-x for x in a[t]]
            u[t] = [-x for x in u[t]]
        t += 1
    return u, a, v


def elementary_divisors(mat: list[list[int]]) -> list[int]:
    _, d, _ = smith_normal_form(mat)
    return [d[i][i] for i in range(min(len(d), len(d[0]) if d else 0)) if d[i][i] != 0]


def integer_kernel(mat: list[list[int]]) -> list[list[int]]:
    """Basis of the integer solutions of mat * z = 0 (columns as vectors)."""
    if not mat:
        return []
    _, d, v = smith_normal_form(mat)
    m = len(d[0])
    rank = len(elementary_divisors(d))
    return [[v[i][j] for i in range(m)] for j in range(rank, m)]


def content(values) -> int:
    """gcd of a collection of integers (0 for an empty or all-zero input)."""
    g = 0
    for x in values:
        g = gcd(g, int(x))
    return g
