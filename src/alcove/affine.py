"""The affine Weyl group, W with the translations by Q^v: reflections, lifts and factorization.

An affine element is a (finite part, translation) pair with the translation
in simple-coroot coordinates.  The level enters only in lift, which reads nu
in integers: nu^-1 is rs.nu_inverse.  A reflection s_beta is built from the
integer coroot of beta, and its reduced word is read off weyl.fold.  Only
the fixed-point checks (face stabilizers and the level-shift rule) use this
module; the finite walk is alcove.weyl.  The group law, the level-k action,
alcove folding and the longest element are test references, in
tests/references.py.
"""

from __future__ import annotations

from collections import namedtuple
from math import lcm
from operator import mul

from . import intlinalg
from .rootdata import RootSystem, TorusPoint, Weight
from .weyl import WeylElement, fold, identity_element


class MismatchError(ValueError):
    """An affine element does not factor through the requested finite part."""


class AffineWeylElement(namedtuple("AffineWeylElement", "finite translation")):
    """Pair (finite part, translation), the translation in simple-coroot coordinates."""

    __slots__ = ()

    @property
    def is_identity(self) -> bool:
        return self.finite.is_identity and all(t == 0 for t in self.translation)


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
