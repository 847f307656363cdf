"""Exponentials, Weyl denominators and characters at rational torus points.

Angles are exact rationals reduced mod 1 before any float conversion, so grid
sums built from these values only carry double-precision rounding noise, never
angle drift.

Characters use an exact integer residue kernel.  With D the lcm of the
denominators of gram_weights, G = D * gram_weights, d_x the lcm of the
coordinate denominators of x and N = D * d_x, the integer vector
h_w = w.action^T G (d_x x) gives (w a | x) = (a . h_w) / N for every integral
weight a, so the angle reduced mod 1 is r / N with r = (a . h_w) mod N.  Both
r / N and float(Fraction) are correctly rounded values of the same rational,
so phases, and with the sum order kept characters, are bitwise identical to
the Fraction path of eval_exp.
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


def unit_phase(angle: Fraction) -> complex:
    """exp(2 pi i angle) with the angle reduced mod 1 exactly first."""
    frac = angle - (angle.numerator // angle.denominator)
    return cmath.exp(2j * cmath.pi * float(frac))


def pairing(rs: RootSystem, lam: Weight, x: TorusPoint) -> Fraction:
    return inner(rs, lam, x.mu_star)


def eval_exp(rs: RootSystem, lam: Weight, x: TorusPoint) -> complex:
    """Value of the exponential e^lam at the torus point x."""
    return unit_phase(pairing(rs, lam, x))


def weyl_denominator(rs: RootSystem, x: TorusPoint) -> complex:
    out = 1.0 + 0j
    for alpha in rs.positive_roots:
        out *= 1 - unit_phase(-pairing(rs, alpha, x))
    return out


def is_regular(rs: RootSystem, x: TorusPoint) -> bool:
    """No root takes an integer value at x (exact test)."""
    return all(pairing(rs, alpha, x).denominator != 1 for alpha in rs.positive_roots)


def weyl_dimension(rs: RootSystem, lam: Weight) -> int:
    num = Fraction(1)
    shifted = lam + rs.rho
    for alpha in rs.positive_roots:
        num *= inner(rs, shifted, alpha) / inner(rs, rs.rho, alpha)
    assert num.denominator == 1
    return int(num)


# -- integer residue kernel -----------------------------------------------------

@lru_cache(maxsize=None)
def _integer_form(rs: RootSystem):
    """(D, G, roots): G = D * gram_weights and the positive roots, as integers."""
    d = lcm(*(c.denominator for row in rs.gram_weights for c in row))
    gram = tuple(tuple(int(c * d) for c in row) for row in rs.gram_weights)
    roots = tuple(tuple(int(c) for c in alpha.coords) for alpha in rs.positive_roots)
    return d, gram, roots


def _residues(rs: RootSystem, x: TorusPoint):
    """(N, [(sign, h_w)] in Weyl order) with (w a | x) = (a . h_w) / N.

    The list is None when some positive root has an integer pairing with x.
    """
    d, gram, roots = _integer_form(rs)
    dx = lcm(*(c.denominator for c in x.mu_star.coords))
    v = [sum(g * int(c * dx) for g, c in zip(row, x.mu_star.coords)) for row in gram]
    n = d * dx
    if any(sum(map(mul, alpha, v)) % n == 0 for alpha in roots):
        return n, None
    cols = range(len(v))
    return n, [(w.sign, [sum(row[j] * vi for row, vi in zip(w.action, v)) for j in cols])
               for w in weyl.enumerate_weyl(rs)]


def characters(rs: RootSystem, lams, x: TorusPoint) -> list[complex | None]:
    """Characters of the dominant integral weights lams at x, in order.

    Regular x: alternating-sum quotient, the denominator (the rho entry)
    computed once.  x = 0: dimension formula.  Any other singular x: None.
    """
    if not all(lam.is_dominant and lam.is_integral for lam in lams):
        raise ValueError("highest weight must be dominant integral")
    if x.is_zero:
        return [complex(weyl_dimension(rs, lam)) for lam in lams]
    n, hs = _residues(rs, x)
    if hs is None:
        return [None] * len(lams)

    @lru_cache(maxsize=None)
    def phase(r: int) -> complex:
        return cmath.exp(2j * cmath.pi * (r / n))

    def alternating_sum(a: Weight) -> complex:
        a = [int(c) for c in a.coords]
        total = 0j
        for sign, h in hs:
            total += sign * phase(sum(map(mul, a, h)) % n)
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
    any lam at regular x.
    """
    if not is_regular(rs, x):
        raise SingularPointError("localization sum has poles at singular points")
    total = 0j
    for w in weyl.enumerate_weyl(rs):
        term = eval_exp(rs, weyl.act(w, lam), x)
        for alpha in rs.positive_roots:
            term /= 1 - eval_exp(rs, -weyl.act(w, alpha), x)
        total += term
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

    Representatives are m = sum c_i b_i with b_i a Smith-adapted basis of M*
    and 0 <= c_i < d_i, mapped to torus points through nu / (k+h^v).
    """
    n = k + rs.dual_coxeter
    l = rs.rank
    s_cols = [[rs.lattice_Mstar_basis[j][i] for j in range(l)] for i in range(l)]  # columns
    x = [[Fraction(0)] * l for _ in range(l)]
    s_inv = intlinalg.mat_inverse(s_cols)
    for j in range(l):
        col = intlinalg.mat_vec(s_inv, [n * Fraction(rs.lattice_M_basis[j][i]) for i in range(l)])
        for i in range(l):
            x[i][j] = col[i]
    assert all(v.denominator == 1 for row in x for v in row)
    u, d, _ = intlinalg.smith_normal_form([[int(v) for v in row] for row in x])
    u_inv = intlinalg.mat_inverse(intlinalg.frac_matrix(u))
    adapted = intlinalg.mat_mul(s_cols, u_inv)  # columns: Smith-adapted basis of M*
    divisors = [d[i][i] for i in range(l)]
    out = []
    for coeffs in product(*(range(di) for di in divisors)):
        m = tuple(sum(adapted[i][j] * coeffs[j] for j in range(l)) for i in range(l))
        point = TorusPoint(rs.coroot_to_weight_space(m).scale(Fraction(1, n)))
        out.append((m, point))
    assert len(out) == lattice_index(rs, k)
    return out


def special_grid(rs: RootSystem, k: int, mode: str = GRID_SHIFTED):
    if mode == GRID_SHIFTED:
        return shifted_grid(rs, k)
    if mode == GRID_FULL:
        return full_grid(rs, k)
    raise ValueError(f"unknown grid mode {mode!r}")
