"""Static data of a simple root system, normalized so (theta|theta) = 2.

All arithmetic is exact, and the datum is built in integers.  The weight and
point types (Weight, TorusPoint), rational_text, the level functions
weights_at_level and count_weights_at_level, and ConfigurationError live in
alcove.weights and are re-exported here, so `from alcove.rootdata import
TorusPoint` keeps working.  The library reads integer tables built once per
system from the root closure and the Cartan matrix: the positive roots in
simple-root coordinates (positive_root_coords) and as rows <beta, alpha_k^v>
(root_rows, theta's last), the support {k: c_ki} of each alpha_i (supports),
and nu in integers, nu(v) = gram_of_M() v and nu^-1(lam) = G lam / D with
(D, G) = nu_inverse, the fraction-free adjugate of gram_of_M() (Bareiss, Math.
Comp. 22 (1968)) reduced by its gcd.  The Fraction symmetrizers and matrices
gram_weights, gram_coroots, inv_cartan and lattice_Mstar_basis, and
root_coords, weight_from_root_coords, coroot_of and coroot_to_weight_space,
are references, computed only when read, and the only users of fractions.
The Smith form of the full grid (smith_of_M) is read in integers off
alcove.intlinalg, which only it and those references load here.
"""

from __future__ import annotations

from functools import cached_property, lru_cache
from math import gcd
from operator import mul

# TorusPoint and the level functions are re-exported for callers of alcove.rootdata.
from .weights import (ConfigurationError, TorusPoint, Weight, count_weights_at_level,
                      rational_text, weights_at_level)

SERIES_RANKS = {
    "A": lambda l: l >= 1,
    "B": lambda l: l >= 2,
    "C": lambda l: l >= 2,
    "D": lambda l: l >= 4,
    "E": lambda l: l in (6, 7, 8),
    "F": lambda l: l == 4,
    "G": lambda l: l == 2,
}

# Rank cap, checked before any root datum is built: a rank-20 datum takes about
# a second, its cost grows faster than rank^3, and the Weyl group and face caps
# stop far below it.
MAX_RANK = 20
# Level cap of the CLI, checked before any work that grows with the level: `roots`
# takes up to about 1.5 s at it (A20), and the table caps refuse far lower levels.
MAX_LEVEL = 100_000
# The grid modes and the `verify` seed and sample count, read by the CLI parser
# without loading the layers that use them.
GRID_SHIFTED, GRID_FULL = "shifted", "full"
DEFAULT_SEED, DEFAULT_SAMPLES = 2024, 100


def _cartan_matrix(series: str, rank: int) -> list[list[int]]:
    c = [[2 * (i == j) for j in range(rank)] for i in range(rank)]

    def chain(upto):
        for i in range(upto):
            c[i][i + 1] = -1
            c[i + 1][i] = -1

    if series in ("A", "B", "C", "D", "E"):
        chain(rank - 1)
    if series == "B":        # last simple root short
        c[rank - 2][rank - 1] = -1
        c[rank - 1][rank - 2] = -2
    elif series == "C":      # last simple root long
        c[rank - 2][rank - 1] = -2
        c[rank - 1][rank - 2] = -1
    elif series == "D":
        c[rank - 2][rank - 1] = 0
        c[rank - 1][rank - 2] = 0
        c[rank - 3][rank - 1] = -1
        c[rank - 1][rank - 3] = -1
    elif series == "E":
        c[rank - 2][rank - 1] = 0
        c[rank - 1][rank - 2] = 0
        c[rank - 4][rank - 1] = -1
        c[rank - 1][rank - 4] = -1
    elif series == "F":
        c = [[2, -1, 0, 0], [-1, 2, -1, 0], [0, -2, 2, -1], [0, 0, -1, 2]]
    elif series == "G":
        c = [[2, -3], [-1, 2]]
    return c


def _symmetrizers(cartan: list[list[int]]) -> list[int]:
    """Coprime positive integers d with d_i c_ij = d_j c_ji over the (connected) Dynkin graph."""
    rank = len(cartan)
    d = [1] + [0] * (rank - 1)
    stack = [0]
    while stack:
        i = stack.pop()
        for j in range(rank):
            if i != j and cartan[i][j] != 0 and not d[j]:
                d = [x * -cartan[j][i] for x in d]  # c_ji < 0 divides d_i c_ij now
                d[j] = d[i] * cartan[i][j] // cartan[j][i]
                stack.append(j)
    if not all(d):
        raise ConfigurationError("Dynkin diagram is not connected")
    g = gcd(*d)
    return [x // g for x in d]


def _adjugate(m: list[list[int]]) -> tuple[int, list[list[int]]]:
    """(det m, adj m) of a positive definite or finite-type Cartan integer matrix, by fraction-free Gauss-Jordan.

    Bareiss's exact division by the previous pivot keeps every entry of [m | 1]
    an integer minor; the pivots are leading principal minors, positive here.
    The last step leaves det m times the identity beside adj m; [] gives (1, []).
    """
    n = len(m)
    a = [list(row) + [int(i == j) for j in range(n)] for i, row in enumerate(m)]
    prev = 1
    for k in range(n):
        pivot_row = a[k]
        pivot = pivot_row[k]
        for i in range(n):
            if i != k:
                f = a[i][k]
                a[i] = [(pivot * x - f * y) // prev for x, y in zip(a[i], pivot_row)]
        prev = pivot
    return prev, [row[n:] for row in a]


def _positive_root_closure(cartan: list[list[int]]) -> list[tuple[int, ...]]:
    """All positive roots in simple-root coordinates, by reflection closure."""
    rank = len(cartan)
    simple = [tuple(int(i == j) for j in range(rank)) for i in range(rank)]
    roots = set(simple)
    frontier = list(simple)
    while frontier:
        beta = frontier.pop()
        for i in range(rank):
            pairing = sum(cartan[i][j] * beta[j] for j in range(rank))
            image = list(beta)
            image[i] -= pairing
            image_t = tuple(image)
            if all(x >= 0 for x in image_t) and image_t not in roots:
                roots.add(image_t)
                frontier.append(image_t)
    return sorted(roots, key=lambda r: (sum(r), r))


class RootSystem:
    """Immutable bundle of root-system data; build via build_root_system."""

    def __init__(self, series: str, rank: int):
        if series not in SERIES_RANKS or not SERIES_RANKS[series](rank):
            raise ConfigurationError(f"invalid simple type {series}{rank}")
        if rank > MAX_RANK:
            raise ConfigurationError(f"rank {rank} exceeds cap {MAX_RANK}")
        self.series = series
        self.rank = rank
        self.cartan = _cartan_matrix(series, rank)

        d = _symmetrizers(self.cartan)
        pos = _positive_root_closure(self.cartan)
        theta_rc = pos[-1]  # the highest root: the closure is sorted by height
        if any(any(b > t for b, t in zip(beta, theta_rc)) for beta in pos):
            raise AssertionError("highest root is not unique in the root order")
        # rescale the form so that (theta|theta) = 2: d_i -> 2 d_i / theta_norm = e_i / s
        theta_norm = sum(d[i] * self.cartan[i][j] * theta_rc[i] * theta_rc[j]
                         for i in range(rank) for j in range(rank))
        g = gcd(2, theta_norm)  # gcd(d) = 1
        s, e = theta_norm // g, [2 * x // g for x in d]
        self._symmetrizers = (s, tuple(e))  # d_i = e_i / s

        # (alpha_i^v | alpha_j^v) = cartan[i][j] / d_j = cartan[i][j] s / e_j
        if any(c * s % e_j for row in self.cartan for c, e_j in zip(row, e)):
            raise AssertionError("the Gram matrix of M must be integral")
        self._gram_of_M = tuple(tuple(c * s // e_j for c, e_j in zip(row, e)) for row in self.cartan)
        # nu^-1 = gram_weights = gram_of_M()^-1 = adj / det, reduced by the gcd of det and adj
        det, adj = _adjugate(self._gram_of_M)
        g = gcd(det, *(c for row in adj for c in row))
        self.nu_inverse = (det // g, tuple(tuple(c // g for c in row) for row in adj))  # G / D
        self._index_of_M = det  # |M*/M|; the Gram matrix is positive definite

        # the roots as rows <beta, alpha_k^v> = sum_j cartan[k][j] beta_j; alpha_i = column i
        self.positive_root_coords = tuple(pos)
        self.root_rows = tuple(tuple(sum(map(mul, row, rc)) for row in self.cartan) for rc in pos)
        self.supports = tuple({k: row[i] for k, row in enumerate(self.cartan) if row[i]}
                              for i in range(rank))
        self.positive_roots = tuple(map(self.weight_from_coords, self.root_rows))
        self.highest_root = self.positive_roots[-1]
        self.marks = theta_rc
        if any(a * e_i % s for a, e_i in zip(theta_rc, e)):
            raise AssertionError("comarks must be integers")
        self.comarks = tuple(a * e_i // s for a, e_i in zip(theta_rc, e))  # theta^v = sum a_i d_i alpha_i^v
        self.dual_coxeter = 1 + sum(self.comarks)
        self.rho = self.weight_from_coords([1] * rank)

    # -- Fraction references, computed when read --------------------------------

    @cached_property
    def symmetrizers(self) -> tuple:
        """d_i = (alpha_i|alpha_i) / 2 as Fractions."""
        from fractions import Fraction
        s, e = self._symmetrizers
        return tuple(Fraction(x, s) for x in e)

    @cached_property
    def inv_cartan(self) -> list[list]:
        from . import intlinalg
        return intlinalg.mat_inverse(self.cartan)

    @cached_property
    def gram_weights(self) -> list[list]:
        """(Lambda_i | Lambda_j) = d_i * inv_cartan[i][j]."""
        return [[self.symmetrizers[i] * self.inv_cartan[i][j] for j in range(self.rank)]
                for i in range(self.rank)]

    @cached_property
    def gram_coroots(self) -> list[list]:
        """(alpha_i^v | alpha_j^v) = cartan[i][j] / d_j."""
        return [[self.cartan[i][j] / self.symmetrizers[j] for j in range(self.rank)]
                for i in range(self.rank)]

    @cached_property
    def lattice_Mstar_basis(self) -> tuple:
        """The dual basis nu^-1(Lambda_j) of M* in coroot coordinates: the rows of gram_weights.

        M, the span of the Weyl orbit of theta^v, is the coroot lattice Q^v: W is
        transitive on the long roots, whose coroots span Q^v.  Its basis is the
        simple coroots, and M* = nu^-1(P).
        """
        return tuple(tuple(row) for row in self.gram_weights)

    # -- coordinates ---------------------------------------------------------

    def weight_from_coords(self, coords) -> Weight:
        return Weight(tuple(coords))

    def weight_from_root_coords(self, rc) -> Weight:
        rc = tuple(rc)
        return Weight(tuple(sum(map(mul, row, rc)) for row in self.cartan))

    def root_coords(self, lam: Weight) -> tuple:
        """lam expanded in simple roots: inv_cartan . coords."""
        from . import intlinalg
        return intlinalg.mat_vec(self.inv_cartan, lam.coords)

    def zero_weight(self) -> Weight:
        return self.weight_from_coords([0] * self.rank)

    def simple_root(self, i: int) -> Weight:
        return self.weight_from_coords(row[i] for row in self.cartan)  # <alpha_i, alpha_k^v>

    def fundamental_weight(self, i: int) -> Weight:
        return self.weight_from_coords([int(i == j) for j in range(self.rank)])

    def coroot_to_weight_space(self, coroot_coords) -> Weight:
        """Image under the bilinear-form identification: alpha_j^v -> alpha_j / d_j."""
        return self.weight_from_root_coords(v / d for v, d in zip(coroot_coords, self.symmetrizers))

    def coroot_of(self, root: Weight) -> tuple:
        """Coordinates of root^v = 2 root/(root|root) in the simple-coroot basis."""
        norm = inner(self, root, root)
        rc = self.root_coords(root)
        return tuple(rc[j] * self.symmetrizers[j] * 2 / norm for j in range(self.rank))

    # -- lattices ------------------------------------------------------------

    def gram_of_M(self) -> list[list[int]]:
        """Gram matrix (alpha_i^v | alpha_j^v) of the M basis, integral as M is in M*; a copy."""
        return [list(row) for row in self._gram_of_M]

    def in_lattice_M(self, coroot_coords) -> bool:
        return all(c.denominator == 1 for c in coroot_coords)

    def in_lattice_Mstar(self, coroot_coords) -> bool:
        return self.in_lattice_M(sum(map(mul, row, coroot_coords)) for row in self._gram_of_M)

    def to_json_dict(self) -> dict:
        return {
            "series": self.series,
            "rank": self.rank,
            "cartan": self.cartan,
            "symmetrizers": [rational_text(x, self._symmetrizers[0]) for x in self._symmetrizers[1]],
            "positive_roots": [list(map(str, rc)) for rc in self.positive_root_coords],
            "highest_root": list(map(str, self.marks)),
            "marks": list(self.marks),
            "comarks": list(self.comarks),
            "dual_coxeter": self.dual_coxeter,
            "weyl_order": None,  # the CLI fills in weyl.weyl_order (None above the cap)
        }

    def __repr__(self) -> str:
        return f"RootSystem({self.series}{self.rank})"

    def __hash__(self) -> int:
        return hash((self.series, self.rank))

    def __eq__(self, other) -> bool:
        return isinstance(other, RootSystem) and (self.series, self.rank) == (other.series, other.rank)


@lru_cache(maxsize=None)
def build_root_system(series: str, rank: int) -> RootSystem:
    """Construct (and memoize) the root system of the given simple type."""
    return RootSystem(series, rank)


def from_name(name: str) -> RootSystem:
    """Parse names like 'A2' or 'G2'."""
    name = name.strip()
    if len(name) < 2 or not name[1:].isdigit():
        raise ConfigurationError(f"cannot parse root system name {name!r}")
    return build_root_system(name[0].upper(), int(name[1:]))


def inner(rs: RootSystem, a: Weight, b: Weight):
    """Invariant bilinear form (a|b) via the fundamental-weight Gram matrix."""
    return sum(a.coords[i] * rs.gram_weights[i][j] * b.coords[j]
               for i in range(rs.rank) for j in range(rs.rank))


def lattice_index(rs: RootSystem, k: int) -> int:
    """Order of M*/(k+h^v)M: (k+h^v)^rank times the order |det gram_of_M()| of M*/M.

    M = Q^v and nu(M*) = P, so the change-of-basis matrix of (k+h^v) * (simple
    coroots) in the basis nu^-1(Lambda_j) of M* is the integer matrix
    (k+h^v) * gram_of_M(), whose determinant is the index.
    """
    if k < 0:
        raise ConfigurationError("level must be nonnegative")
    return (k + rs.dual_coxeter) ** rs.rank * rs._index_of_M


@lru_cache(maxsize=None)
def smith_of_M(rs: RootSystem) -> tuple[tuple[tuple[int, ...], ...], tuple[int, ...]]:
    """(u^-1, d) of the Smith form u gram_of_M() v = diag(d), computed once per system.

    That of n gram_of_M() is (u, n d, v) for n > 0: every pivot, quotient and divisibility test scales."""
    from . import intlinalg
    return intlinalg.smith_left_inverse(rs.gram_of_M())
