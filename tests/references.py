"""Test-side references: the affine group law, alcove folding, the longest element and Fraction helpers.

No subcommand or verify suite runs these, so they live beside the tests that
read them, not in alcove.  Each is the library code it replaced, with the
datum as the first argument:
- compose(g, h), the product of affine elements (w1, t1)(w2, t2) =
  (w1 w2, t1 + w1(t2)), with w acting on simple-coroot coordinates through
  the integral (action^T)^-1 (act_on_coroot_coords, a Fraction inverse);
- identity_affine, affine_act (the level-k action, k nu(t) = k gram_of_M() t),
  affine_from_finite and affine_reflection_theta;
- find_alcove, which folds a rational point scaled to integers and lifts the
  product of the crossed walls' reflections once, with its AlcovePoint and
  Fraction alcove_certificate;
- simple_reflection and longest_element, whose walls fold -rho;
- weight_from_root_coords and coroot_to_weight_space, the Fraction readings
  of simple-root and simple-coroot coordinates as weights.
"""

from __future__ import annotations

from collections import namedtuple
from fractions import Fraction
from functools import lru_cache, reduce
from operator import mul

from alcove import intlinalg
from alcove.affine import AffineWeylElement, _reflection, act, lift, reflection_in_root
from alcove.rootdata import RootSystem, TorusPoint, Weight
from alcove.weyl import IntMat, WeylElement, fold, identity_element


class AlcovePoint(namedtuple("AlcovePoint", "point level chamber_certificate")):
    """A torus point with its alcove-membership certificate.

    The certificate lists <alpha_i^v, x> for each simple root and then
    k - (theta|x); membership in the closed alcove means all entries >= 0.
    """

    __slots__ = ()


# -- the root datum's Fraction coordinates -------------------------------------

def weight_from_root_coords(rs: RootSystem, rc) -> Weight:
    rc = tuple(rc)
    return Weight(tuple(sum(map(mul, row, rc)) for row in rs.cartan))


def coroot_to_weight_space(rs: RootSystem, coroot_coords) -> Weight:
    """Image under the bilinear-form identification: alpha_j^v -> alpha_j / d_j."""
    return weight_from_root_coords(rs, (v / d for v, d in zip(coroot_coords, rs.symmetrizers)))


# -- the finite and affine group laws --------------------------------------------

def simple_reflection(rs: RootSystem, i: int) -> WeylElement:
    return _reflection(rs, rs.simple_root(i), (i,))


@lru_cache(maxsize=None)
def _coroot_action(action: IntMat) -> IntMat:
    """(action^T)^-1, integral: W keeps <lam, v> = lam.coords . v, so action^T (w v) = v."""
    inv = intlinalg.mat_inverse(list(zip(*action)))
    return tuple(tuple(int(x) for x in row) for row in inv)


def act_on_coroot_coords(w: WeylElement, v) -> tuple:
    """w acting on a vector in simple-coroot coordinates."""
    return intlinalg.mat_vec(_coroot_action(w.action), v)


def compose(g: AffineWeylElement, h: AffineWeylElement) -> AffineWeylElement:
    """g h in the semidirect product: (w1, t1)(w2, t2) = (w1 w2, t1 + w1(t2))."""
    moved = act_on_coroot_coords(g.finite, h.translation)
    trans = tuple(a + b for a, b in zip(g.translation, moved))
    return AffineWeylElement(g.finite * h.finite, trans)


def longest_element(rs: RootSystem) -> WeylElement:
    """Fold -rho back to the dominant chamber; the walls, in order, are a reduced word for w_L."""
    walls, _ = fold(rs, (-1,) * rs.rank)
    w = reduce(WeylElement.__mul__, [simple_reflection(rs, i) for i in walls], identity_element(rs))
    if any(act(w, beta).is_dominant for beta in rs.positive_roots):
        raise AssertionError("the walls that fold -rho are not a word for the longest element")
    return w


def identity_affine(rs: RootSystem) -> AffineWeylElement:
    return AffineWeylElement(identity_element(rs), (0,) * rs.rank)


def affine_from_finite(w: WeylElement, rank: int) -> AffineWeylElement:
    return AffineWeylElement(w, (0,) * rank)


def affine_reflection_theta(rs: RootSystem) -> AffineWeylElement:
    """Reflection through (theta|x) = k: s_theta followed by translation by theta^v."""
    return AffineWeylElement(reflection_in_root(rs, rs.highest_root), rs.comarks)


def affine_act(rs: RootSystem, g: AffineWeylElement, x: TorusPoint, k: int) -> TorusPoint:
    """Level-k action: finite part first, then translate by k nu(t) = k gram_of_M() t."""
    if k < 1:
        raise ValueError("affine action needs a positive level")
    shift = intlinalg.mat_vec(rs.gram_of_M(), g.translation)  # x = y / m moves to (w y + k m shift) / m
    return TorusPoint.of([sum(map(mul, row, x.y)) + k * x.m * s
                          for row, s in zip(g.finite.action, shift)], x.m)


# -- alcove folding ---------------------------------------------------------------

def alcove_certificate(rs: RootSystem, k: int, x: TorusPoint) -> tuple:
    coords = x.mu_star.coords  # <alpha_i^v, x>; (theta|x) = sum_i comark_i x_i
    return tuple(coords) + (Fraction(k) - sum(a * c for a, c in zip(rs.comarks, coords)),)


def find_alcove(rs: RootSystem, k: int, x: TorusPoint) -> tuple[AffineWeylElement, AlcovePoint]:
    """Fold x into the closed alcove kC: x = y / m, so y folds at level m*k.

    Returns g, the lift over the crossed walls' finite reflections (last wall
    leftmost), so affine_act(rs, g, x, k) is the certified representative.
    """
    walls, image = fold(rs, x.y, x.m * k)
    point = TorusPoint.of(image, x.m)
    steps = {i: simple_reflection(rs, i) if i < rs.rank else reflection_in_root(rs, rs.highest_root)
             for i in set(walls)}  # the crossed walls' finite reflections; the affine wall is rank
    w = reduce(lambda w, i: steps[i] * w, walls, identity_element(rs))
    g = lift(rs, w, x, point, k) if walls else identity_affine(rs)  # k = 0 too, which lift refuses
    return g, AlcovePoint(point, k, alcove_certificate(rs, k, point))
