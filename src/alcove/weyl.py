"""Finite and affine Weyl group machinery.

A finite element is one integer matrix on fundamental-weight coordinates;
its action on simple-coroot coordinates is derived from it, since W preserves
the pairing <lam, v> = lam.coords . v.  Affine elements are (finite part,
translation) pairs with the translation stored in simple-coroot coordinates.
The level enters only in affine_act and lift, which read nu in integers.

W is walked once, breadth-first by left multiplication with simple
reflections, keyed by w(rho) (injective, as rho is regular), and cached as a
skeleton: each element is s_i times an earlier one.  Each word length is
ordered by (i, index of the parent), which is word order, so the walk builds
no words; only iter_weyl does.  orbit(rs, a) replays the skeleton on a;
s_i(u) = u - u_i alpha_i changes only the coordinates on rs.supports[i], so
each image costs O(rank).  iter_weyl replays it on the matrices (column j
of w is w(Lambda_j)), rebuilding only the rows on that support, and yields
the elements one at a time while holding only the last two word lengths;
enumerate_weyl is its cached tuple.  Every descent is fold: integer
coordinates reflected in the lowest violated wall, O(rank) per step.
"""

from __future__ import annotations

from collections import namedtuple
from collections.abc import Iterator
from fractions import Fraction
from functools import lru_cache, reduce
from math import factorial
from operator import mul

from . import intlinalg
from .rootdata import RootSystem, TorusPoint, Weight

DEFAULT_GROUP_CAP = 10**6

IntMat = tuple[tuple[int, ...], ...]


class ResourceError(RuntimeError):
    """Enumeration would exceed the configured cap."""


class MismatchError(ValueError):
    """An affine element does not factor through the requested finite part."""


class WeylElement(namedtuple("WeylElement", "action sign word")):
    """Finite Weyl group element.

    action is the integer matrix (IntMat) on fundamental-weight coordinates;
    sign is the determinant; word is a word in simple reflections that
    multiplies out to w.  It is reduced for the elements that enumerate_weyl,
    simple_reflection, reflection_in_root and longest_element return, but a
    product concatenates words, so s_0 * s_0 has word (0, 0).
    """

    __slots__ = ()

    def __mul__(self, other: "WeylElement") -> "WeylElement":
        return WeylElement(_mat_mul_int(self.action, other.action),
                           self.sign * other.sign, self.word + other.word)

    @property
    def is_identity(self) -> bool:
        return self.action == _identity_mat(len(self.action))


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


def _mat_mul_int(a: IntMat, b: IntMat) -> IntMat:
    cols = tuple(zip(*b))
    return tuple(tuple(sum(map(mul, row, col)) for col in cols) for row in a)


def _identity_mat(n: int) -> IntMat:
    return tuple(tuple(int(i == j) for j in range(n)) for i in range(n))


def identity_element(rs: RootSystem) -> WeylElement:
    return WeylElement(_identity_mat(rs.rank), 1, ())


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
                             for row, bk in zip(_identity_mat(rs.rank), b)), -1, word)


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


def order_formula(rs: RootSystem) -> int:
    """Classical group order: product of (degree) factors per series."""
    l = rs.rank
    if rs.series == "A":
        return factorial(l + 1)
    if rs.series in ("B", "C"):
        return 2 ** l * factorial(l)
    if rs.series == "D":
        return 2 ** (l - 1) * factorial(l)
    return {("G", 2): 12, ("F", 4): 1152, ("E", 6): 51840,
            ("E", 7): 2903040, ("E", 8): 696729600}[(rs.series, l)]


@lru_cache(maxsize=None)
def _skeleton(rs: RootSystem) -> tuple[tuple[int, int, int], ...]:
    """W in enumerate_weyl order as (parent index, i, sign): element t is s_i * parent.

    The identity is (-1, -1, 1); every parent comes before its children.  The
    word of s_i * parent is (i,) + the parent's word, and the parents of one
    word length are in word order, so (i, parent index) sorts each length by word.
    """
    weyl_order(rs)
    rho = (1,) * rs.rank
    seen, skeleton = {rho}, [(-1, -1, 1)]
    level = [(rho, 0)]  # (w(rho), index) in discovery order
    while level:
        found = []
        for mu, t in level:
            for i, support in enumerate(rs.supports):
                if mu[i] < 0:  # s_i * w is shorter than w, so already seen
                    continue
                key = list(mu)  # s_i(mu) = mu - mu_i alpha_i
                for k, a in support.items():
                    key[k] -= a * mu[i]
                key = tuple(key)
                if key not in seen:  # BFS: words come out geodesic, hence reduced
                    seen.add(key)
                    found.append((i, t, key))
        sign, start = -skeleton[-1][2], len(skeleton)
        ranked = sorted(found)  # the pairs (i, t) are distinct, so keys are never compared
        skeleton.extend((t, i, sign) for i, t, _ in ranked)
        index = {key: start + n for n, (_, _, key) in enumerate(ranked)}
        level = [(key, index[key]) for _, _, key in found]
    return tuple(skeleton)


def iter_weyl(rs: RootSystem) -> Iterator[WeylElement]:
    """The elements of enumerate_weyl(rs) in its order, built one at a time.

    The matrix of s_i * w is M - alpha_i (x) M[i]: the rows off the support of
    alpha_i are w's own row tuples.  A parent lies one word length below its
    children, so only the last two lengths are held.
    """
    weyl_order(rs)  # the group cap raises on every call, before the first element
    skeleton, supports = _skeleton(rs), rs.supports

    def elements():
        w = identity_element(rs)
        yield w
        older, newer = {}, {0: w}
        for t in range(1, len(skeleton)):
            parent, i, sign = skeleton[t]
            if sign != w.sign:  # a new word length: its parents are the last length
                older, newer = newer, {}
            w = older[parent]
            action, row = list(w.action), w.action[i]
            for k, a in supports[i].items():  # s_i(u) = u - u_i alpha_i, column by column
                action[k] = tuple(x - a * y for x, y in zip(action[k], row))
            w = newer[t] = WeylElement(tuple(action), sign, (i,) + w.word)
            yield w
    return elements()


def enumerate_weyl(rs: RootSystem) -> tuple[WeylElement, ...]:
    """All Weyl group elements, sorted by word length then word (tuple(iter_weyl(rs)), cached)."""
    weyl_order(rs)
    return _enumerate_cached(rs)


@lru_cache(maxsize=None)
def _enumerate_cached(rs: RootSystem) -> tuple[WeylElement, ...]:
    return tuple(iter_weyl(rs))


def orbit(rs: RootSystem, a) -> list[tuple[int, tuple]]:
    """[(sign(w), w a) for w in enumerate_weyl(rs)], a in fundamental-weight coordinates.

    Replays the skeleton of W on a, O(rank) per element, without listing W
    as matrices.
    """
    supports = rs.supports
    out = [(1, tuple(a))]
    for parent, i, sign in _skeleton(rs)[1:]:
        u = out[parent][1]
        c = u[i]
        if c:  # s_i(u) = u - u_i alpha_i
            u = list(u)
            for k, s in supports[i].items():
                u[k] -= s * c
            u = tuple(u)
        out.append((sign, u))
    return out


def weyl_order(rs: RootSystem) -> int:
    """|W| from the degree formula; raises ResourceError above DEFAULT_GROUP_CAP."""
    order = order_formula(rs)
    if order > DEFAULT_GROUP_CAP:
        raise ResourceError(f"Weyl group of order {order} exceeds cap {DEFAULT_GROUP_CAP}")
    return order


def longest_element(rs: RootSystem) -> WeylElement:
    """Fold -rho back to the dominant chamber; the walls, in order, are a reduced word for w_L."""
    walls, _ = fold(rs, (-1,) * rs.rank)
    w = reduce(WeylElement.__mul__, [simple_reflection(rs, i) for i in walls], identity_element(rs))
    assert all(not act(w, beta).is_dominant for beta in rs.positive_roots)
    return w


def fold(rs: RootSystem, a, n: int | None = None) -> tuple[tuple[int, ...], tuple[int, ...]]:
    """Fold integer fundamental-weight coordinates a into the dominant chamber or level-n alcove.

    Each O(rank) step reflects in the lowest violated wall: alpha_i while a_i < 0, then the
    affine wall (theta|a) = n, named rank in walls.  Sign (-1)^len(walls); image may lie on a wall.
    """
    a, walls = list(a), []
    while True:
        i = next((i for i, c in enumerate(a) if c < 0), None)
        if i is not None:  # s_i(a) = a - a_i alpha_i; column i of the Cartan matrix is alpha_i
            a = [c - a[i] * row[i] for c, row in zip(a, rs.cartan)]
        elif n is not None and (p := sum(m * c for m, c in zip(rs.comarks, a))) > n:
            if n < 1:
                raise ValueError("affine action needs a positive level")
            a, i = [c - (p - n) * t for c, t in zip(a, rs.root_rows[-1])], rs.rank  # theta's row
        else:
            return tuple(walls), tuple(a)
        walls.append(i)


# -- affine action -----------------------------------------------------------

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
    moved, shift = act(g.finite, x.mu_star).coords, intlinalg.mat_vec(rs.gram_of_M(), g.translation)
    return TorusPoint(Weight(tuple(c + k * s for c, s in zip(moved, shift))))


def lift(rs: RootSystem, w: WeylElement, x: TorusPoint, y: TorusPoint, k: int) -> AffineWeylElement:
    """The affine element over w sending x to y at level k: translation nu^-1(y - w x) / k, in M."""
    if k < 1:
        raise ValueError("affine action needs a positive level")
    (d, gram), (m, ac) = rs.nu_inverse, intlinalg.clear_denominators(x.mu_star.coords + y.mu_star.coords)
    a, c = ac[:rs.rank], ac[rs.rank:]
    t = intlinalg.mat_vec(gram, [ci - sum(map(mul, row, a)) for ci, row in zip(c, w.action)])
    if any(v % (d * m * k) for v in t):  # t = D m k * translation
        raise MismatchError("nu^-1(y - w x) / k is not in the coroot lattice M = Q^v")
    return AffineWeylElement(w, tuple(v // (d * m * k) for v in t))


def alcove_certificate(rs: RootSystem, k: int, x: TorusPoint) -> tuple[Fraction, ...]:
    coords = x.mu_star.coords  # <alpha_i^v, x>; (theta|x) = sum_i comark_i x_i
    return tuple(coords) + (Fraction(k) - sum(a * c for a, c in zip(rs.comarks, coords)),)


def find_alcove(rs: RootSystem, k: int, x: TorusPoint) -> tuple[AffineWeylElement, AlcovePoint]:
    """Fold x into the closed alcove kC: d x, d the lcm of x's denominators, folds at level d*k.

    Returns g, the lift over the crossed walls' finite reflections (last wall
    leftmost), so affine_act(rs, g, x, k) is the certified representative.
    """
    d, scaled = intlinalg.clear_denominators(x.mu_star.coords)
    walls, image = fold(rs, scaled, d * k)
    point = TorusPoint(Weight(tuple(Fraction(c, d) for c in image)))
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
