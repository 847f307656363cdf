"""The finite Weyl group: its walk, signed orbits and the descent into a chamber or alcove.

An element is one integer matrix on fundamental-weight coordinates, with its
sign and a reduced word.  W is walked once, breadth-first by left
multiplication with simple reflections, keyed by w(rho) (injective, as rho is
regular), and cached as a skeleton of three flat columns (parents, letters,
signs): element t is s_i times the earlier element parents[t], i = letters[t].
Each word length is ordered by (i, index of the parent), which is word order,
so the walk builds no words; only iter_weyl does.  orbit(rs, a) replays the
skeleton on a into one column per coordinate, O(rank) per element, with no
tuple per image; the signs column is the skeleton's own.  iter_weyl replays it
on the matrices (column j of w is w(Lambda_j)), rebuilding only the rows on the
support of alpha_i, and yields the elements one at a time while holding only
the last two word lengths; enumerate_weyl is its cached tuple.  Every descent
is fold: integer coordinates reflected in the lowest violated wall, O(rank)
per step.  The affine group (reflections, lifts, factorization) is
alcove.affine, which only the fixed-point checks import.
"""

from __future__ import annotations

from collections import namedtuple
from collections.abc import Iterator
from functools import lru_cache
from itertools import islice
from math import factorial
from operator import mul

from .rootdata import RootSystem

DEFAULT_GROUP_CAP = 10**6

IntMat = tuple[tuple[int, ...], ...]


class ResourceError(RuntimeError):
    """Enumeration would exceed the configured cap."""


class WeylElement(namedtuple("WeylElement", "action sign word")):
    """Finite Weyl group element.

    action is the integer matrix (IntMat) on fundamental-weight coordinates;
    sign is the determinant; word is a word in simple reflections that
    multiplies out to w.  It is reduced for enumerate_weyl's elements,
    alcove.affine's reflections and tests/references.py's longest_element;
    a product concatenates words: s_0 * s_0 has word (0, 0).
    """

    __slots__ = ()

    def __mul__(self, other: "WeylElement") -> "WeylElement":
        return WeylElement(_mat_mul_int(self.action, other.action),
                           self.sign * other.sign, self.word + other.word)

    @property
    def is_identity(self) -> bool:
        return self.action == _identity_mat(len(self.action))


def _mat_mul_int(a: IntMat, b: IntMat) -> IntMat:
    cols = tuple(zip(*b))
    return tuple(tuple(sum(map(mul, row, col)) for col in cols) for row in a)


def _identity_mat(n: int) -> IntMat:
    return tuple(tuple(int(i == j) for j in range(n)) for i in range(n))


def identity_element(rs: RootSystem) -> WeylElement:
    return WeylElement(_identity_mat(rs.rank), 1, ())


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
def _skeleton(rs: RootSystem) -> tuple[tuple[int, ...], tuple[int, ...], tuple[int, ...]]:
    """W in enumerate_weyl order as columns (parents, letters, signs): element t is s_i * parent.

    The identity's entries are -1, -1 and 1; every parent comes before its children.  The
    word of s_i * parent is (i,) + the parent's word, and the parents of one
    word length are in word order, so (i, parent index) sorts each length by word.
    """
    weyl_order(rs)
    parents, letters, signs = [-1], [-1], [1]
    level = {(1,) * rs.rank: 0}  # w(rho) -> index of w, in discovery order
    while level:
        found = {}  # s_i w(rho) -> (i, index of w), kept from its first discovery
        for mu, t in level.items():
            for i, support in enumerate(rs.supports):
                if mu[i] < 0:  # s_i * w is shorter than w, so already seen
                    continue  # else mu_i > 0 (w(rho) is regular): s_i * w is one longer
                key = list(mu)  # s_i(mu) = mu - mu_i alpha_i
                for k, a in support.items():
                    key[k] -= a * mu[i]
                found.setdefault(tuple(key), (i, t))  # BFS: words come out geodesic, hence reduced
        ranked = sorted(found.values())  # the pairs (i, t) are distinct
        index = {pair: len(parents) + n for n, pair in enumerate(ranked)}
        letters.extend(i for i, _ in ranked)
        parents.extend(t for _, t in ranked)
        signs.extend([-signs[-1]] * len(ranked))
        level = {key: index[pair] for key, pair in found.items()}  # discovery order, not word order
    return tuple(parents), tuple(letters), tuple(signs)


def iter_weyl(rs: RootSystem) -> Iterator[WeylElement]:
    """The elements of enumerate_weyl(rs) in its order, built one at a time.

    The matrix of s_i * w is M - alpha_i (x) M[i]: the rows off the support of
    alpha_i are w's own row tuples.  A parent lies one word length below its
    children, so only the last two lengths are held.
    """
    weyl_order(rs)  # the group cap raises on every call, before the first element
    (parents, letters, signs), supports = _skeleton(rs), rs.supports

    def elements():
        w = identity_element(rs)
        yield w
        older, newer = {}, {0: w}
        for t in range(1, len(signs)):
            parent, i, sign = parents[t], letters[t], signs[t]
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


def orbit(rs: RootSystem, a) -> tuple[tuple[int, ...], list[list[int]]]:
    """(signs, columns): columns[k][t] is coordinate k of w a for the t-th w of enumerate_weyl(rs).

    a is in fundamental-weight coordinates, and signs is the skeleton's own
    column.  Replays the skeleton on a, O(rank) per element, appending to each
    column: no image is held as a tuple, and W is never listed as matrices.
    """
    (parents, letters, signs), supports = _skeleton(rs), rs.supports
    columns = [[c] for c in a]
    for parent, i in zip(islice(parents, 1, None), islice(letters, 1, None)):
        c = columns[i][parent]
        for column in columns:  # off the support of alpha_i, w a shares the parent's int
            column.append(column[parent])
        if c:
            for k, s in supports[i].items():  # s_i(u) = u - u_i alpha_i
                columns[k][-1] -= s * c
    return signs, columns


def weyl_order(rs: RootSystem) -> int:
    """|W| from the degree formula; raises ResourceError above DEFAULT_GROUP_CAP."""
    order = order_formula(rs)
    if order > DEFAULT_GROUP_CAP:
        raise ResourceError(f"Weyl group of order {order} exceeds cap {DEFAULT_GROUP_CAP}")
    return order


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
