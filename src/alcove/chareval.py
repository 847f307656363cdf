"""Exponentials, Weyl denominators and characters at rational torus points.

Every exponential of an integral weight at a rational point is a root of
unity, evaluated on an exact integer residue mod N, never on a float angle.
With (D, G) = rs.nu_inverse, the integer nu^-1 (G / D = gram_weights), a point
x = y / m (y integral in fundamental-weight coordinates) has N = D * m and
v = G y, so (a | x) = (a . v) / N for the integer row a of an integral
weight; phase(r, N) = exp(2 pi i (r mod N) / N).  residues(rs, x) reads the
point's own normal form (x.y, x.m); a level-k grid takes m = k + h^v at every
point, so one N and one phase table serve it.  r / N is the same double for any
such N: the correctly rounded reduced angle.  One per-point routine gives the
Weyl denominator, regularity and the characters: sums of sign(w) phase((w a) . v)
over the signed orbit of a = lam + rho.  Every Weyl sum reads weyl.orbit's
columns in enumerate_weyl order: (w a) . v is summed one coordinate column at
a time, with no tuple per element.  The localization sum and the identities
read h_w = w^T v off the orbit columns of the fundamental weights.  The
independent references are the Fraction evaluations in tests/test_chareval.py,
which every value equals bitwise, reference_enumeration in tests/test_weyl.py,
and the Fraction coordinate helpers in tests/references.py.
"""

from __future__ import annotations

import cmath
from functools import cache, lru_cache, partial, reduce
from itertools import product, repeat
from operator import add, mul

from . import weyl
from .rootdata import (GRID_FULL, GRID_SHIFTED, RootSystem, TorusPoint, Weight,
                       smith_of_M, weights_at_level)


class SingularPointError(ValueError):
    """Character evaluation at a non-regular point other than the identity."""


# -- integer residue kernel -----------------------------------------------------

def residues(rs: RootSystem, x: TorusPoint) -> tuple[int, list[int]]:
    """(N, v) with (a | x) = (a . v) / N exactly for the integer row a of every integral weight."""
    d, gram = rs.nu_inverse
    return d * x.m, [sum(map(mul, row, x.y)) for row in gram]


def integer_rows(weights) -> tuple[tuple[int, ...], ...]:
    """The weights' coordinates as integers; e^a is a function on the torus only for integral a."""
    if not all(a.is_integral for a in weights):
        raise ValueError("exponential of a non-integral weight at a torus point")
    return tuple(tuple(map(int, a.coords)) for a in weights)


def row_residues(rows, v) -> list[int]:
    """[a . v for each integer row a]: (a | x) = (a . v) / N at the point with residues (N, v)."""
    return [sum(map(mul, a, v)) for a in rows]


def weyl_pullbacks(rs: RootSystem, v) -> list[tuple[int, ...]]:
    """h_w = w.action^T v for each w in enumerate_weyl order: entry j is (w Lambda_j) . v."""
    units = [[int(i == j) for i in range(rs.rank)] for j in range(rs.rank)]
    return list(zip(*[list(_column_dot(weyl.orbit(rs, e)[1], v)) for e in units]))  # one orbit at a time


def phase(r: int, n: int) -> complex:
    """exp(2 pi i (r mod n) / n)."""
    return cmath.exp(2j * cmath.pi * ((r % n) / n))


def denominator(root_residues, n: int) -> complex:
    """prod over roots beta of (1 - e^{-beta}), from their residues r: (beta | x) = r / n."""
    out = 1 + 0j
    for r in root_residues:
        out *= 1 - phase(-r, n)
    return out


def weyl_denominator(rs: RootSystem, x: TorusPoint) -> complex:
    n, v = residues(rs, x)
    return denominator(row_residues(rs.root_rows, v), n)


def is_regular(rs: RootSystem, x: TorusPoint) -> bool:
    """No root takes an integer value at x (exact: no root residue is 0 mod N)."""
    n, v = residues(rs, x)
    return all(r % n for r in row_residues(rs.root_rows, v))


def weyl_dimension(rs: RootSystem, lam: Weight) -> int:
    """prod over alpha > 0 of (lam + rho | alpha) / (rho | alpha), in integers."""
    if not lam.is_integral:
        raise ValueError("the dimension formula needs an integral weight")
    _, gram = rs.nu_inverse
    shifted = [int(c) + 1 for c in lam.coords]
    num = den = 1
    for beta in rs.root_rows:
        g = [sum(map(mul, row, beta)) for row in gram]  # D (Lambda_j | beta)
        num *= sum(map(mul, shifted, g))
        den *= sum(g)
    if num % den:
        raise AssertionError("the Weyl dimension formula gave a non-integer")
    return num // den


def _column_dot(columns, v):
    """(w a) . v for each w, lazily, from the coordinate columns of the orbit of a."""
    r = map(mul, columns[0], repeat(v[0]))
    for column, vj in zip(columns[1:], v[1:]):
        r = map(add, r, map(mul, column, repeat(vj)))
    return r


def _shifted_orbits(rs: RootSystem, lams) -> list:
    """(signs, coordinate columns) of the signed Weyl orbits of rho and of each lam + rho."""
    return [weyl.orbit(rs, [int(c) + 1 for c in a.coords]) for a in (rs.zero_weight(), *lams)]


def _alternating_sum(orbit, n: int, v, phases) -> complex:
    """sum of sign(w) e^{w a} over W, in enumerate_weyl order, at the point with residues (n, v)."""
    signs, columns = orbit
    r = _column_dot(columns, v)
    return reduce(add, map(mul, signs, map(phases, map(n.__rmod__, r))), 0j)


def _point_columns(rs: RootSystem, lams, n: int):
    """v -> (Weyl denominator, characters of lams) at the point with residues (n, v).

    The identity gets the dimensions and any other singular point None; the
    orbits are built at the first regular point, and one phase table serves all.
    """
    phases = lru_cache(maxsize=None)(partial(phase, n=n))  # each value computed once
    orbits = cache(partial(_shifted_orbits, rs, lams))

    def at(v) -> tuple[complex, list[complex | None]]:
        roots = row_residues(rs.root_rows, v)
        den = denominator(roots, n)
        if not any(v):  # the identity
            return den, [complex(weyl_dimension(rs, lam)) for lam in lams]
        if not all(r % n for r in roots):
            return den, [None] * len(lams)
        base, *numerators = (_alternating_sum(orbit, n, v, phases) for orbit in orbits())
        return den, [num / base for num in numerators]
    return at


def characters(rs: RootSystem, lams, x: TorusPoint) -> list[complex | None]:
    """Characters of the dominant integral weights lams at x, in order.

    Regular x: alternating-sum quotient over the signed orbits of lam + rho.
    x = 0: dimension formula.  Any other singular x: None.
    """
    if not all(lam.is_dominant and lam.is_integral for lam in lams):
        raise ValueError("highest weight must be dominant integral")
    n, v = residues(rs, x)
    return _point_columns(rs, lams, n)(v)[1]


def grid_columns(rs: RootSystem, k: int, lams, mode: str = GRID_SHIFTED):
    """(label, point, Weyl denominator, characters of lams) at each point of the level-k grid.

    The point y / (k+h^v) has the residues N = D (k+h^v) and v = G y, so one
    modulus, phase table and orbit per weight serve the grid, as in characters().
    """
    d, gram = rs.nu_inverse
    at = _point_columns(rs, lams, d * (k + rs.dual_coxeter))
    for label, y, point in _grid(rs, k, mode):
        yield (label, point, *at([sum(map(mul, row, y)) for row in gram]))


def character(rs: RootSystem, lam: Weight, x: TorusPoint) -> complex:
    """Irreducible character with highest weight lam at x, as characters() gives it.

    Any singular point other than x = 0 raises SingularPointError.
    """
    value = characters(rs, [lam], x)[0]
    if value is None:
        raise SingularPointError("character quotient undefined at a singular point")
    return value


def localization_sum(rs: RootSystem, lam: Weight, x: TorusPoint) -> complex:
    """Sum over the Weyl group of e^{w lam} / prod(1 - e^{-w alpha}) at x.

    Agrees with the character quotient for dominant integral lam; defined for
    any integral lam at regular x.
    """
    if not is_regular(rs, x):
        raise SingularPointError("localization sum has poles at singular points")
    n, v = residues(rs, x)
    (row,) = integer_rows([lam])
    total = 0j
    for h in weyl_pullbacks(rs, v):
        term = phase(sum(map(mul, row, h)), n)
        for r in row_residues(rs.root_rows, h):
            term /= 1 - phase(-r, n)
        total += term
    return total


# -- evaluation grids ---------------------------------------------------------

def _grid(rs: RootSystem, k: int, mode: str) -> list:
    """(label, y, point) for each grid point y / (k+h^v), y integral in fundamental-weight coordinates.

    Shifted grid: y = lam + rho for lam of level <= k, labeled by lam.  Full
    grid: coset representatives of M*/(k+h^v)M.  M = Q^v and nu(M*) = P, so
    (k+h^v)M has the integer matrix (k+h^v) * gram_of_M() in the basis
    nu^-1(Lambda_j) of M*; its Smith form is k+h^v times that of gram_of_M().  With
    (u^-1, d) = rootdata.smith_of_M(rs), the representatives have M* coordinates
    y = u^-1 c, 0 <= c_i < (k+h^v) d_i, labeled by the integral weight y.
    """
    n = k + rs.dual_coxeter
    if mode == GRID_SHIFTED:
        labeled = [(lam, [c + 1 for c in lam.coords]) for lam in weights_at_level(rs, k)]
    elif mode == GRID_FULL:
        u_inv, divisors = smith_of_M(rs)
        ys = [[sum(map(mul, row, c)) for row in u_inv] for c in product(*(range(n * e) for e in divisors))]
        labeled = [(Weight(tuple(y)), y) for y in ys]
    else:
        raise ValueError(f"unknown grid mode {mode!r}")
    return [(label, y, TorusPoint.of(y, n)) for label, y in labeled]


def shifted_grid(rs: RootSystem, k: int) -> list[tuple[Weight, TorusPoint]]:
    """Points nu^-1((lam+rho)/(k+h^v)) for lam of level <= k, labeled by lam."""
    return [(label, point) for label, _, point in _grid(rs, k, GRID_SHIFTED)]


def full_grid(rs: RootSystem, k: int) -> list[tuple[Weight, TorusPoint]]:
    """Coset representatives y / (k+h^v) of M*/(k+h^v)M, labeled by the integral weight y."""
    return [(label, point) for label, _, point in _grid(rs, k, GRID_FULL)]
