"""The affine Weyl group, W with the translations by Q^v: reflections, lifts and alcove folding.

An affine element is a (finite part, translation) pair with the translation
in simple-coroot coordinates.  The level enters only in affine_act and lift,
which read nu in integers: k nu(t) = k gram_of_M() t, and nu^-1 is
rs.nu_inverse.  A reflection s_beta is built from the integer coroot of
beta, and its reduced word, like longest_element's, is read off weyl.fold.
find_alcove folds a rational point scaled to integers and lifts the product
of the crossed walls' reflections once.  Only the fixed-point checks (face
stabilizers and the level-shift rule) use this module; the finite walk is
alcove.weyl.
"""

from __future__ import annotations

from collections import namedtuple
from fractions import Fraction
from functools import lru_cache, reduce
from math import lcm
from operator import mul

from . import intlinalg
from .rootdata import RootSystem, TorusPoint, Weight
from .weyl import IntMat, WeylElement, fold, identity_element


class MismatchError(ValueError):
    """An affine element does not factor through the requested finite part."""


class AffineWeylElement(namedtuple("AffineWeylElement", "finite translation")):
    """Pair (finite part, translation), composing as a semidirect product."""

    __slots__ = ()

    def __mul__(self, other: "AffineWeylElement") -> "AffineWeylElement":
        moved = act_on_coroot_coords(self.finite, other.translation)
        trans = tuple(a + b for a, b in zip(self.translation, moved))
        return AffineWeylElement(self.finite * other.finite, trans)

    @property
    def is_identity(self) -> bool:
        return self.finite.is_identity and all(t == 0 for t in self.translation)


class AlcovePoint(namedtuple("AlcovePoint", "point level chamber_certificate")):
    """A torus point with its alcove-membership certificate.

    The certificate lists <alpha_i^v, x> for each simple root and then
    k - (theta|x); membership in the closed alcove means all entries >= 0.
    """

    __slots__ = ()


def simple_reflection(rs: RootSystem, i: int) -> WeylElement:
    return _reflection(rs, rs.simple_root(i), (i,))


def reflection_in_root(rs: RootSystem, root: Weight) -> WeylElement:
    """Reflection in an arbitrary root; its reduced word is the fold of s_beta(rho), reversed."""
    w = _reflection(rs, root, ())
    return w._replace(word=fold(rs, map(sum, w.action))[0][::-1])  # row sums = s_beta(rho)


def _reflection(rs: RootSystem, root: Weight, word) -> WeylElement:
    """x -> x - <x, root^v> root on fundamental-weight coordinates; root^v = 2 G b / (b . G b)."""
    if root not in rs.positive_roots and -root not in rs.positive_roots:
        raise ValueError(f"{root} is not a root")
    b = [int(c) for c in root.coords]  # the root's integer row; G b = D nu^-1(root)
    gb = intlinalg.mat_vec(rs.nu_inverse[1], b)
    covec = [2 * g // sum(map(mul, b, gb)) for g in gb]  # b . G b = D (root|root)
    return WeylElement(tuple(tuple(e - bk * c for e, c in zip(row, covec))
                             for row, bk in zip(identity_element(rs).action, b)), -1, word)


def act(w: WeylElement, a: Weight) -> Weight:
    return Weight(intlinalg.mat_vec(w.action, a.coords))


@lru_cache(maxsize=None)
def _coroot_action(action: IntMat) -> IntMat:
    """(action^T)^-1, integral: W keeps <lam, v> = lam.coords . v, so action^T (w v) = v."""
    inv = intlinalg.mat_inverse(intlinalg.frac_matrix(zip(*action)))
    return tuple(tuple(int(x) for x in row) for row in inv)


def act_on_coroot_coords(w: WeylElement, v) -> tuple:
    """w acting on a vector in simple-coroot coordinates."""
    return intlinalg.mat_vec(_coroot_action(w.action), v)


def longest_element(rs: RootSystem) -> WeylElement:
    """Fold -rho back to the dominant chamber; the walls, in order, are a reduced word for w_L."""
    walls, _ = fold(rs, (-1,) * rs.rank)
    w = reduce(WeylElement.__mul__, [simple_reflection(rs, i) for i in walls], identity_element(rs))
    if any(act(w, beta).is_dominant for beta in rs.positive_roots):
        raise AssertionError("the walls that fold -rho are not a word for the longest element")
    return w


# -- affine action -----------------------------------------------------------

def identity_affine(rs: RootSystem) -> AffineWeylElement:
    return AffineWeylElement(identity_element(rs), (0,) * rs.rank)


def affine_act(rs: RootSystem, g: AffineWeylElement, x: TorusPoint, k: int) -> TorusPoint:
    """Level-k action: finite part first, then translate by k nu(t) = k gram_of_M() t."""
    if k < 1:
        raise ValueError("affine action needs a positive level")
    shift = intlinalg.mat_vec(rs.gram_of_M(), g.translation)  # x = y / m moves to (w y + k m shift) / m
    return TorusPoint.of([sum(map(mul, row, x.y)) + k * x.m * s
                          for row, s in zip(g.finite.action, shift)], x.m)


def lift(rs: RootSystem, w: WeylElement, x: TorusPoint, y: TorusPoint, k: int) -> AffineWeylElement:
    """The affine element over w sending x to y at level k: translation nu^-1(y - w x) / k, in M."""
    if k < 1:
        raise ValueError("affine action needs a positive level")
    (d, gram), m = rs.nu_inverse, lcm(x.m, y.m)
    a, c = [ai * (m // x.m) for ai in x.y], [ci * (m // y.m) for ci in y.y]  # x = a / m, y = c / m
    t = intlinalg.mat_vec(gram, [ci - sum(map(mul, row, a)) for ci, row in zip(c, w.action)])
    if any(v % (d * m * k) for v in t):  # t = D m k * translation
        raise MismatchError("nu^-1(y - w x) / k is not in the coroot lattice M = Q^v")
    return AffineWeylElement(w, tuple(v // (d * m * k) for v in t))


def alcove_certificate(rs: RootSystem, k: int, x: TorusPoint) -> tuple[Fraction, ...]:
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


def factor_affine(rs: RootSystem, w_aff: AffineWeylElement, w_fin: WeylElement) -> tuple[int, ...]:
    """Translation v with w_aff = (translate by v) o w_fin, v in M = Q^v.

    Raises MismatchError when the pair does not correspond (different finite
    parts, or a translation escaping that lattice).
    """
    if w_aff.finite.action != w_fin.action:
        raise MismatchError("finite parts differ; the pair is not corresponding")
    if not rs.in_lattice_M(w_aff.translation):
        raise MismatchError("translation is not in the coroot lattice M = Q^v")
    return w_aff.translation
