"""The standalone algebraic identities, evaluated at torus points.

Three families: the vanishing double Weyl sum, the alternating subset sum,
and the grid orthogonality of characters.  Sample points are random rationals
with prime denominators, pole-tested exactly before any float evaluation;
alcove.verify turns the residuals into reports.
"""

from __future__ import annotations

import random
from itertools import combinations

from . import chareval, conventions, weyl
from .rootdata import GRID_FULL, RootSystem, TorusPoint, Weight

PRIME_DENOMINATORS = tuple(p for p in range(101, 500) if all(p % q for q in range(2, 23)))


class PoleError(ValueError):
    """A factor in the requested sum vanishes at the sample point; resample."""


def random_rational_point(rs: RootSystem, rng: random.Random) -> TorusPoint:
    den = rng.choice(PRIME_DENOMINATORS)
    return TorusPoint.of([rng.randrange(1, den) for _ in range(rs.rank)], den)


# -- the vanishing double Weyl sum --------------------------------------------

def fundamental_formula_residual(rs: RootSystem, x: TorusPoint, y: TorusPoint) -> complex:
    """Double sum over Weyl pairs of reciprocal root/weight products.

    The sum vanishes identically; the returned value is therefore the
    residual.  Raises PoleError if any factor vanishes (tested exactly).
    """
    if not (chareval.is_regular(rs, x) and chareval.is_regular(rs, y)):
        raise PoleError("root factor vanishes")
    nx, vx = chareval.residues(rs, x)
    ny, vy = chareval.residues(rs, y)
    hx, hy = chareval.weyl_pullbacks(rs, vx), chareval.weyl_pullbacks(rs, vy)
    # (w Lambda_i | x) + (u Lambda_i | y) = (hx[w][i] ny + hy[u][i] nx) / (nx ny)
    n = nx * ny
    fund_x = [[r * ny for r in h] for h in hx]
    fund_y = [[r * nx for r in h] for h in hy]
    if any((p + q) % n == 0 for fx in fund_x for fy in fund_y for p, q in zip(fx, fy)):
        raise PoleError("weight factor vanishes")

    rows = rs.root_rows
    den_x = [chareval.denominator(chareval.row_residues(rows, h), nx) for h in hx]
    den_y = [chareval.denominator(chareval.row_residues(rows, h), ny) for h in hy]
    total = 0j
    for fx, dx in zip(fund_x, den_x):
        for fy, dy in zip(fund_y, den_y):
            mid = 1 + 0j
            for p, q in zip(fx, fy):
                mid *= 1 - chareval.phase(p + q, n)
            total += 1 / (dx * mid * dy)
    return total


# -- the alternating subset sum ------------------------------------------------

def subset_identity_residual(rs: RootSystem, x: TorusPoint,
                             include_empty: bool = True,
                             generators: list[Weight] | None = None) -> complex:
    """Alternating sum over subsets of the simple roots and over W.

    With the empty subset included (the oracle-selected convention) the value
    is exactly 1 for every simple type; without it the A1 value is -1, off by
    exactly 2.  Passing the fundamental weights as generators instead yields
    the product of the exponents of W.
    """
    if generators is None:
        generators = [rs.simple_root(i) for i in range(rs.rank)]
    rows = chareval.integer_rows(generators)
    n, v = chareval.residues(rs, x)
    m = len(generators)
    total = 0j
    for h in chareval.weyl_pullbacks(rs, v):
        rem = chareval.row_residues(rows, h)
        if any(r % n == 0 for r in rem):
            raise PoleError("subset factor vanishes")
        vals = [chareval.phase(r, n) for r in rem]
        for size in range(0 if include_empty else 1, m + 1):
            for subset in combinations(range(m), size):
                term = complex((-1) ** size)
                for i in subset:
                    term /= 1 - vals[i]
                total += term
    return total


# -- orthogonality on the evaluation grid ---------------------------------------

def orthogonality_matrix(rs: RootSystem, k: int, grid_mode: str | None = None):
    """Gram matrix of the level-k characters over the chosen grid.

    Entry (a, b) is the grid sum of chi_b * conj(chi_a) * |D|^2 times the
    shared prefactor 1/|M*/(k+h^v)M|: column b is CharacterTable.invert of
    chi_b, and on the full grid, whose measure carries an extra 1/|W|, the
    column is scaled back by |W|.  Exactly one grid mode (the frozen shifted
    one) then produces the identity matrix, and the full grid overshoots by
    |W|.  Returns (weights, matrix).
    """
    table = conventions.character_table(rs, k, grid_mode)
    scale = weyl.weyl_order(rs) if table.mode == GRID_FULL else 1
    columns = [table.invert([row[t] for t in table.live]) for row in table.values]
    return list(table.weights), [[z * scale for z in row] for row in zip(*columns)]
