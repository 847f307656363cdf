"""Weights, torus points and the dominant weights of a level: the types every job reads.

A weight is stored once, in fundamental-weight coordinates, as ints when it
is integral; a torus point is stored once as y / m with y an integer row in
those coordinates.  Nothing here reads a root datum beyond its rank, comarks
and weight_from_coords, so alcove.rootdata, which builds the datum, and the
artifact writer import this module, not the other way round.  Weight.scale and
the mu_star of a non-integral point are its only users of fractions.
"""

from __future__ import annotations

from collections import namedtuple
from math import gcd, lcm


class ConfigurationError(ValueError):
    """Invalid (series, rank) or other bad build input."""


# Records are namedtuples: importing dataclasses costs about 25 ms per CLI process.
class Weight(namedtuple("Weight", "coords")):
    """Exact-rational vector in fundamental-weight coordinates (ints or Fractions).

    coords[i] is the pairing <lam, alpha_i^v>; the simple-root expansion is
    RootSystem.root_coords(lam), a reference.  An int and the equal Fraction
    hash and compare alike, so either may stand for an integral coordinate.
    """

    __slots__ = ()

    def __add__(self, other: "Weight") -> "Weight":
        return Weight(tuple(a + b for a, b in zip(self.coords, other.coords)))

    def __sub__(self, other: "Weight") -> "Weight":
        return Weight(tuple(a - b for a, b in zip(self.coords, other.coords)))

    def __neg__(self) -> "Weight":
        return Weight(tuple(-a for a in self.coords))

    def scale(self, c) -> "Weight":
        from fractions import Fraction
        c = Fraction(c)
        return Weight(tuple(c * a for a in self.coords))

    @property
    def is_zero(self) -> bool:
        return all(a == 0 for a in self.coords)

    @property
    def is_integral(self) -> bool:
        return all(a.denominator == 1 for a in self.coords)

    @property
    def is_dominant(self) -> bool:
        return all(a >= 0 for a in self.coords)


class TorusPoint(namedtuple("TorusPoint", "y m")):
    """Point of the maximal torus, y / m in normal form: y integral, m > 0, gcd(m, y) = 1.

    y / m is the Weight image mu_star in weight space of the Lie-algebra
    representative, in fundamental-weight coordinates, so a weight lam pairs
    with the point as (lam|mu_star); exponentials of integral weights at the
    point are roots of unity.  TorusPoint(mu_star) takes the Weight;
    TorusPoint.of(y, m) takes any integer row over any modulus m > 0.
    """

    __slots__ = ()

    def __new__(cls, mu_star: Weight) -> "TorusPoint":
        m = lcm(*(c.denominator for c in mu_star.coords))
        return tuple.__new__(cls, (tuple(c.numerator * (m // c.denominator) for c in mu_star.coords), m))

    @classmethod
    def of(cls, y, m: int) -> "TorusPoint":
        """The point y / m, reduced by gcd(m, y)."""
        y = tuple(y)
        g = gcd(m, *y)
        return tuple.__new__(cls, (tuple(c // g for c in y), m // g))

    def __reduce__(self):
        return TorusPoint.of, tuple(self)

    @property
    def mu_star(self) -> Weight:
        """The Weight y / m, with int coordinates when m = 1 (the JSON boundary and the references)."""
        if self.m == 1:
            return Weight(self.y)
        from fractions import Fraction
        return Weight(tuple(Fraction(c, self.m) for c in self.y))

    @property
    def is_zero(self) -> bool:
        return not any(self.y)


def rational_text(num: int, den: int) -> str:
    """str(Fraction(num, den)) for den > 0, in integers: "n" or "n/d" in lowest terms."""
    g = gcd(num, den)
    return str(num // g) if den == g else f"{num // g}/{den // g}"


def weights_at_level(rs, k: int) -> list[Weight]:
    """Dominant integral weights with (lam|theta) <= k, lexicographic order.

    (Lambda_i|theta) equals the i-th comark, so the constraint is an integer
    knapsack bound on the coordinates.
    """
    if k < 0:
        raise ConfigurationError("level must be nonnegative")
    out: list[list[int]] = []

    def rec(prefix: list[int], budget: int):
        if len(prefix) == rs.rank:
            out.append(prefix[:])
            return
        a = rs.comarks[len(prefix)]
        for c in range(budget // a + 1):
            rec(prefix + [c], budget - c * a)

    rec([], k)
    return [rs.weight_from_coords(c) for c in sorted(out)]


def count_weights_at_level(rs, k: int) -> int:
    """len(weights_at_level(rs, k)) without listing them: O(rank * k) over the comarks."""
    ways = [1] + [0] * k  # ways[b]: coordinate vectors with (lam|theta) == b
    for a in rs.comarks:
        for b in range(a, k + 1):
            ways[b] += ways[b - a]
    return sum(ways) if k >= 0 else 0
