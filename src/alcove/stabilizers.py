"""Stabilizer data attached to points of the closed level-1 alcove.

For a face point mu this records the vanishing simple roots, the realized
simple system of the stabilizer W_mu (-theta first on the affine wall), its
fundamental weights and their sum rho_mu, read off the inverse of the realized
Cartan matrix, and the toric isotropy data (n, epsilon^v, |T'_z/T_z|).  That
matrix is read off the affine Cartan data, with no bilinear form:
<lam, alpha_i^v> = lam_i and <lam, theta^v> = sum_i comark_i lam_i.
"""

from __future__ import annotations

from collections import namedtuple
from fractions import Fraction
from functools import lru_cache
from itertools import combinations
from math import prod
from operator import mul, sub

from . import affine, intlinalg, weyl
from .affine import AffineWeylElement
from .rootdata import RootSystem, TorusPoint, Weight, _positive_root_closure
from .weyl import WeylElement

# 2^9 - 1 faces admits rank <= 8.  `faces` process wall time on a Xeon, Python 3.11 (s):
# A6 0.4, A7 0.7, A8 1.2, B8 1.1, C8 1.2, D8 1.4, E8 1.5; under 2x per added rank
_FACE_CAP = 2 ** 9 - 1


class DomainError(ValueError):
    """Input outside the operation's domain (point off the alcove, etc.)."""


class FaceData(namedtuple("FaceData", [
        "mu",
        "on_affine_wall",
        "delta0",                 # indices of vanishing simple roots
        "realized_simple_roots",  # -theta first when on the wall
        "labels",                 # "affine" or "alpha_i"
        "fund_weights_mu",
        "rho_mu",
        "n_value",
        "epsilon_covee",          # simple-coroot coordinates
        "isotropy_order"])):
    __slots__ = ()


class RhoShift(namedtuple("RhoShift", [
        "sub_difference",    # w(rho_mu) - rho_mu
        "full_difference",   # w(rho) - rho
        "wall_correction"])):  # their difference; h^v * theta at the wall reflection
    __slots__ = ()


def _coroot_pairing(rs: RootSystem, lam: Weight, node: int) -> Fraction:
    """<lam, gamma^v> for the realized node gamma: alpha_node, or -theta at node -1."""
    if node == -1:
        return -sum(c * x for c, x in zip(rs.comarks, lam.coords))
    return lam.coords[node]


def _combination(rs: RootSystem, coeffs, gammas: tuple[Weight, ...]) -> Weight:
    """sum_k coeffs[k] * gammas[k]."""
    return sum((g.scale(c) for c, g in zip(coeffs, gammas)), rs.zero_weight())


def face_data(rs: RootSystem, mu: TorusPoint) -> FaceData:
    """Stabilizer data for a point mu of the closed level-1 alcove."""
    cert = affine.alcove_certificate(rs, 1, mu)
    if any(p < 0 for p in cert):
        raise DomainError("point is outside the closed alcove")
    delta0 = tuple(i for i, c in enumerate(mu.y) if c == 0)
    on_wall = cert[rs.rank] == 0

    nodes = ((-1,) if on_wall else ()) + delta0  # -1 is the wall root -theta
    realized = tuple(-rs.highest_root if i == -1 else rs.simple_root(i) for i in nodes)
    labels = tuple("affine" if i == -1 else f"alpha_{i}" for i in nodes)

    # lambda_i = sum_k c_ik gamma_k, c = (cartan^T)^-1, cartan^T[k][j] = <gamma_k, gamma_j^v>
    coeffs = intlinalg.mat_inverse([[_coroot_pairing(rs, g, j) for j in nodes] for g in realized])
    fund = tuple(_combination(rs, row, realized) for row in coeffs)
    rho_mu = sum(fund, rs.zero_weight())

    # duality: the constructed weights must pair delta_ij against the realized coroots
    for i, f in enumerate(fund):
        for j, node in enumerate(nodes):
            if _coroot_pairing(rs, f, node) != (1 if i == j else 0):
                raise AssertionError("fundamental-weight duality failed at construction")

    outside = [i for i in range(rs.rank) if i not in delta0]
    n = intlinalg.content(rs.comarks[i] for i in outside) or 1
    eps = tuple(Fraction(rs.comarks[i], n) if i in outside else Fraction(0)
                for i in range(rs.rank))
    order = prod(rs.comarks[i] for i in delta0) * (n if on_wall else 1)

    return FaceData(mu, on_wall, delta0, realized, labels, fund, rho_mu, n, eps, order)


def enumerate_faces(rs: RootSystem) -> list[tuple[frozenset, FaceData]]:
    """All faces of the closed alcove, keyed by their active wall sets.

    Walls are named 0..rank-1 (simple-root walls) and "affine"; every proper
    subset of walls cuts out a nonempty face of the simplex, represented here
    by the barycenter of its vertices.  Raises weyl.ResourceError before
    building any face when the 2^(rank+1) - 1 faces exceed the cap.
    """
    count = 2 ** (rs.rank + 1) - 1
    if count > _FACE_CAP:
        raise weyl.ResourceError(f"alcove with {count} faces exceeds cap {_FACE_CAP}")
    vertices = [rs.fundamental_weight(i).scale(Fraction(1, a)) for i, a in enumerate(rs.comarks)]
    walls: list = list(range(rs.rank)) + ["affine"]
    out = []
    for size in range(len(walls)):
        for subset in combinations(walls, size):
            s = frozenset(subset)
            verts = [vertices[i] for i in range(rs.rank) if i not in s]
            n = len(verts) + ("affine" not in s)  # plus the origin, a zero vertex, off the wall
            bary = sum(verts, rs.zero_weight()).scale(Fraction(1, n))
            out.append((s, face_data(rs, TorusPoint(bary))))
    return out


# -- stabilizer subgroup and the rho-shift laws --------------------------------

def stabilizer_generators(rs: RootSystem, fd: FaceData) -> list[tuple[str, WeylElement, AffineWeylElement]]:
    """Generator triples (label, s_gamma, its lift), one per realized simple root gamma.

    The lift of w is affine.lift(rs, w, mu, mu, 1): the plain reflection for alpha_i,
    and for the wall root -theta (s_{-theta} = s_theta) the reflection through (theta|x) = 1.
    """
    gens = [affine.reflection_in_root(rs, gamma) for gamma in fd.realized_simple_roots]
    return [(label, w, affine.lift(rs, w, fd.mu, fd.mu, 1)) for label, w in zip(fd.labels, gens)]


@lru_cache(maxsize=None)
def stabilizer_subgroup(rs: RootSystem, fd: FaceData) -> tuple[tuple[WeylElement, AffineWeylElement], ...]:
    """W_mu as pairs (w, lift of w), in enumerate_weyl order (cached).

    W_mu is generated by the reflections in the walls through mu (Bourbaki, Lie V 3.3), so w
    is in it iff nu^-1(mu - w mu) is in Q^v: with mu = a / m, m | a - w a and D m | G (a - w a),
    (D, G) = rs.nu_inverse, read in integers off weyl.orbit(rs, a).  Only members are lifted.
    """
    (d, gram), (a, m) = rs.nu_inverse, fd.mu
    members = []
    for w, (_, wa) in zip(weyl.enumerate_weyl(rs), weyl.orbit(rs, a)):
        diff = list(map(sub, a, wa))
        if not any(map(m.__rmod__, diff)) and not any(sum(map(mul, row, diff)) % (d * m) for row in gram):
            members.append((w, affine.lift(rs, w, fd.mu, fd.mu, 1)))
    return tuple(members)


def rho_shift(rs: RootSystem, fd: FaceData, w: WeylElement) -> RhoShift:
    """Compare w's shift of rho_mu with its shift of rho.

    w must be the identity or the finite reflection attached to one of the
    face's realized simple roots.  Off the wall the two shifts agree exactly;
    for the wall generator the discrepancy is exactly h^v * theta.
    """
    reflections = [affine.reflection_in_root(rs, gamma).action for gamma in fd.realized_simple_roots]
    if not w.is_identity and w.action not in reflections:
        raise DomainError("not a generator of the face stabilizer")
    d_sub = affine.act(w, fd.rho_mu) - fd.rho_mu
    d_full = affine.act(w, rs.rho) - rs.rho
    return RhoShift(d_sub, d_full, d_sub - d_full)


def lattice_phase_check(rs: RootSystem, fd: FaceData, k: int, t, require_lattice: bool = True) -> bool:
    """Exact phase law on the lattice M*/(k+h^v).

    For every v in the finite copy of the stabilizer, the angle <v(x) - x, t>
    with x = k mu + rho - rho_mu must be an integer; W is linear, so v(x) - x
    is (v(k mu) - k mu) + (v(rho) - rho) - (v(rho_mu) - rho_mu).  With x = a / m
    and t = c / e, m e must divide (v(a) - a) . c: integers, never floats.  v(x) - x
    collapses to -(k+h^v) nu(u), u being the translation of v's affine
    counterpart, which pairs integrally with M*/(k+h^v).

    require_lattice=False skips the membership validation so that off-lattice
    probe points can demonstrate the law failing.
    """
    t = [Fraction(x) for x in t]
    if require_lattice and not rs.in_lattice_Mstar([(k + rs.dual_coxeter) * x for x in t]):
        raise DomainError("t is not of the form m/(k+h^v) with m in M*")
    (m, shifts), (e, c) = _phase_shifts(rs, fd, k), intlinalg.clear_denominators(t)
    return all(sum(map(mul, shift, c)) % (m * e) == 0 for shift in shifts)


@lru_cache(maxsize=None)
def _phase_shifts(rs: RootSystem, fd: FaceData, k: int) -> tuple[int, tuple[tuple[int, ...], ...]]:
    """(m, v(a) - a for each v in W_mu), with k mu + rho - rho_mu = a / m, a integral (cached)."""
    x = (fd.mu.mu_star.scale(k) + rs.rho - fd.rho_mu).coords
    m, a = intlinalg.clear_denominators(x)
    return m, tuple(tuple(sum(map(mul, row, a)) - ai for row, ai in zip(v.action, a))
                    for v, _ in stabilizer_subgroup(rs, fd))


@lru_cache(maxsize=None)
def sub_positive_roots(rs: RootSystem, fd: FaceData) -> tuple[tuple[int, ...], ...]:
    """Integer rows of the positive roots of the sub-root-system the realized simple roots generate (cached).

    Each root is the combination, with the closure's coefficients, of the realized roots' rows.
    """
    gammas = fd.realized_simple_roots
    cartan = [[int(_coroot_pairing(rs, g, i)) for g in gammas]
              for i in ((-1,) if fd.on_affine_wall else ()) + fd.delta0]
    cols = list(zip(*(map(int, g.coords) for g in gammas)))  # column k: the gammas' k-th entries
    return tuple(tuple(sum(map(mul, coeffs, col)) for col in cols)
                 for coeffs in _positive_root_closure(cartan))
