"""Exponentials, Weyl denominators and characters at rational torus points.

Every exponential of an integral weight at a rational point is a root of
unity, evaluated on an exact integer residue mod N, never on a float angle.
With D the lcm of the denominators of gram_weights, G = D * gram_weights, d_x
the lcm of the coordinate denominators of x and N = D * d_x, residues(rs, x)
gives N and v = G (d_x x), so that (a | x) = residue(a, v) / N for every
integral weight a.  For a Weyl element w, h_w = pullback(w, v) =
w.action^T v gives (w a | x) = residue(a, h_w) / N.  The phase is
exp(2 pi i (r mod N) / N); regularity (no residue of a root is 0 mod N),
Weyl denominators, characters and the localization sum all read these
residues.  r / N is the correctly rounded value of the angle, the same
double as float() of the reduced Fraction angle, so with the Weyl order and
every sum order kept the values are bitwise those of a Fraction evaluation
(tests/test_chareval.py keeps one as the reference).
"""

from __future__ import annotations

import cmath
from fractions import Fraction
from functools import lru_cache
from itertools import product
from math import lcm
from operator import mul

from . import intlinalg, weyl
from .rootdata import (RootSystem, TorusPoint, Weight, inner, lattice_index,
                       weights_at_level)

GRID_SHIFTED = "shifted"
GRID_FULL = "full"


class SingularPointError(ValueError):
    """Character evaluation at a non-regular point other than the identity."""


# -- integer residue kernel -----------------------------------------------------

@lru_cache(maxsize=None)
def _integer_gram(rs: RootSystem):
    """(D, G): D the lcm of the gram_weights denominators, G = D * gram_weights."""
    d = lcm(*(c.denominator for row in rs.gram_weights for c in row))
    return d, tuple(tuple(int(c * d) for c in row) for row in rs.gram_weights)


def residues(rs: RootSystem, x: TorusPoint) -> tuple[int, list[int]]:
    """(N, v) with (a | x) = residue(a, v) / N exactly for every integral weight a."""
    d, gram = _integer_gram(rs)
    dx = lcm(*(c.denominator for c in x.mu_star.coords))
    scaled = [int(c * dx) for c in x.mu_star.coords]
    return d * dx, [sum(map(mul, row, scaled)) for row in gram]


def residue(a: Weight, v) -> int:
    """The integer a . v; e^a is a function on the torus only for integral a."""
    if not a.is_integral:
        raise ValueError("exponential of a non-integral weight at a torus point")
    return sum(int(c) * vi for c, vi in zip(a.coords, v))


def pullback(w: weyl.WeylElement, v) -> list[int]:
    """h_w = w.action^T v, so that (w a | x) = residue(a, h_w) / N."""
    return [sum(row[j] * vi for row, vi in zip(w.action, v)) for j in range(len(v))]


def phase(r: int, n: int) -> complex:
    """exp(2 pi i (r mod n) / n)."""
    return cmath.exp(2j * cmath.pi * ((r % n) / n))


def denominator(roots, n: int, h) -> complex:
    """prod over roots beta of (1 - e^{-beta}) at the point with residues (n, h)."""
    out = 1 + 0j
    for beta in roots:
        out *= 1 - phase(-residue(beta, h), n)
    return out


def localization_term(rs: RootSystem, lam: Weight, n: int, h) -> complex:
    """e^{w lam} / prod_{alpha > 0} (1 - e^{-w alpha}) at x, for h = pullback(w, v)."""
    term = phase(residue(lam, h), n)
    for alpha in rs.positive_roots:
        term /= 1 - phase(-residue(alpha, h), n)
    return term


def weyl_denominator(rs: RootSystem, x: TorusPoint) -> complex:
    n, v = residues(rs, x)
    return denominator(rs.positive_roots, n, v)


def is_regular(rs: RootSystem, x: TorusPoint) -> bool:
    """No root takes an integer value at x (exact: no root residue is 0 mod N)."""
    n, v = residues(rs, x)
    return all(residue(alpha, v) % n for alpha in rs.positive_roots)


def weyl_dimension(rs: RootSystem, lam: Weight) -> int:
    num = Fraction(1)
    shifted = lam + rs.rho
    for alpha in rs.positive_roots:
        num *= inner(rs, shifted, alpha) / inner(rs, rs.rho, alpha)
    assert num.denominator == 1
    return int(num)


def characters(rs: RootSystem, lams, x: TorusPoint) -> list[complex | None]:
    """Characters of the dominant integral weights lams at x, in order.

    Regular x: alternating-sum quotient, the denominator (the rho entry)
    computed once.  x = 0: dimension formula.  Any other singular x: None.
    """
    if not all(lam.is_dominant and lam.is_integral for lam in lams):
        raise ValueError("highest weight must be dominant integral")
    if x.is_zero:
        return [complex(weyl_dimension(rs, lam)) for lam in lams]
    if not is_regular(rs, x):
        return [None] * len(lams)
    n, v = residues(rs, x)
    hs = [(w.sign, pullback(w, v)) for w in weyl.enumerate_weyl(rs)]
    cached_phase = lru_cache(maxsize=None)(lambda r: phase(r, n))

    def alternating_sum(a: Weight) -> complex:
        a = [int(c) for c in a.coords]  # residue(a, h), integer coordinates made once
        total = 0j
        for sign, h in hs:
            total += sign * cached_phase(sum(map(mul, a, h)) % n)
        return total

    den = alternating_sum(rs.rho)
    return [alternating_sum(lam + rs.rho) / den for lam in lams]


def character(rs: RootSystem, lam: Weight, x: TorusPoint) -> complex:
    """Irreducible character with highest weight lam at x.

    Regular x: alternating-sum quotient.  x = 0: dimension-formula fallback.
    Any other non-regular point raises SingularPointError; callers are
    expected to use shifted grid points, which are always regular.
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
    total = 0j
    for w in weyl.enumerate_weyl(rs):
        total += localization_term(rs, lam, n, pullback(w, v))
    return total


# -- evaluation grids ---------------------------------------------------------

def shifted_grid(rs: RootSystem, k: int) -> list[tuple[Weight, TorusPoint]]:
    """Points nu^-1((lam+rho)/(k+h^v)) for lam of level <= k, labeled by lam."""
    n = k + rs.dual_coxeter
    out = []
    for lam in weights_at_level(rs, k):
        out.append((lam, TorusPoint((lam + rs.rho).scale(Fraction(1, n)))))
    return out


def full_grid(rs: RootSystem, k: int) -> list[tuple[tuple[Fraction, ...], TorusPoint]]:
    """Coset representatives of M*/(k+h^v)M, labeled by the representative.

    M = Q^v and nu(M*) = P, so (k+h^v)M has the integer matrix (k+h^v) *
    gram_of_M() in the basis nu^-1(Lambda_j) of M*.  With u x v = d its Smith
    form, the representatives have M* coordinates y = u^-1 c, 0 <= c_i < d_i;
    the label is y in coroot coordinates and the point is nu(y) / (k+h^v),
    the weight with fundamental-weight coordinates y / (k+h^v).
    """
    n = k + rs.dual_coxeter
    u, d, _ = intlinalg.smith_normal_form([[n * g for g in row] for row in rs.gram_of_M()])
    u_inv = intlinalg.mat_inverse(intlinalg.frac_matrix(u))
    out = []
    for coeffs in product(*(range(d[i][i]) for i in range(rs.rank))):
        y = intlinalg.mat_vec(u_inv, coeffs)
        out.append((intlinalg.mat_vec(rs.gram_weights, y),
                    TorusPoint(Weight(y).scale(Fraction(1, n)))))
    assert len(out) == lattice_index(rs, k)
    return out


def special_grid(rs: RootSystem, k: int, mode: str = GRID_SHIFTED):
    if mode == GRID_SHIFTED:
        return shifted_grid(rs, k)
    if mode == GRID_FULL:
        return full_grid(rs, k)
    raise ValueError(f"unknown grid mode {mode!r}")
