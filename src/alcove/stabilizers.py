"""Stabilizer data attached to points of the closed level-1 alcove.

For a face point mu this records the vanishing simple roots, the realized
simple system of the stabilizing subgroup (the wall reflection contributes
-theta when mu sits on the affine wall), its fundamental weights and their sum
rho_mu obtained by exact orthogonal projection, and the toric isotropy data
(n, epsilon^v, |T'_z/T_z|).
"""

from __future__ import annotations

from collections import namedtuple
from fractions import Fraction
from functools import lru_cache
from itertools import combinations

from . import intlinalg, weyl
from .rootdata import RootSystem, TorusPoint, Weight, _positive_root_closure, inner
from .weyl import AffineWeylElement, WeylElement


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


def _orthogonal_projector(rs: RootSystem, span: list[Weight]):
    """Exact projection onto the rational span of the given weights."""
    m = len(span)
    gram = [[inner(rs, span[i], span[j]) for j in range(m)] for i in range(m)]
    gram_inv = intlinalg.mat_inverse(gram)

    def proj(v: Weight) -> Weight:
        b = [inner(rs, span[i], v) for i in range(m)]
        c = intlinalg.mat_vec(gram_inv, b)
        out = rs.zero_weight()
        for ci, gi in zip(c, span):
            out = out + gi.scale(ci)
        return out

    return proj


def face_data(rs: RootSystem, mu: TorusPoint) -> FaceData:
    """Stabilizer data for a point mu of the closed level-1 alcove."""
    cert = weyl.alcove_certificate(rs, 1, mu)
    if any(p < 0 for p in cert):
        raise DomainError("point is outside the closed alcove")
    delta0 = tuple(i for i in range(rs.rank) if mu.mu_star.coords[i] == 0)
    on_wall = cert[rs.rank] == 0

    realized: list[Weight] = []
    labels: list[str] = []
    if on_wall:
        realized.append(-rs.highest_root)
        labels.append("affine")
    for i in delta0:
        realized.append(rs.simple_root(i))
        labels.append(f"alpha_{i}")

    if realized:
        proj = _orthogonal_projector(rs, realized)
        fund: list[Weight] = []
        if on_wall:
            fund.append(proj(-mu.mu_star))
            for i in delta0:
                fund.append(proj(rs.fundamental_weight(i) - mu.mu_star.scale(rs.comarks[i])))
        else:
            for i in delta0:
                fund.append(proj(rs.fundamental_weight(i)))
    else:
        fund = []
    rho_mu = rs.zero_weight()
    for f in fund:
        rho_mu = rho_mu + f

    # duality: the constructed weights must pair delta_ij against the realized coroots
    for i, f in enumerate(fund):
        for j, gamma in enumerate(realized):
            pairing = 2 * inner(rs, f, gamma) / inner(rs, gamma, gamma)
            if pairing != (1 if i == j else 0):
                raise AssertionError("fundamental-weight duality failed at construction")

    outside = [i for i in range(rs.rank) if i not in delta0]
    n = intlinalg.content(rs.comarks[i] for i in outside)
    n = n if n > 0 else 1
    eps = tuple(Fraction(rs.comarks[i], n) if i in outside else Fraction(0)
                for i in range(rs.rank))
    order = 1
    for i in delta0:
        order *= rs.comarks[i]
    if on_wall:
        order *= n

    return FaceData(mu, on_wall, delta0, tuple(realized), tuple(labels),
                    tuple(fund), rho_mu, n, eps, order)


def enumerate_faces(rs: RootSystem) -> list[tuple[frozenset, FaceData]]:
    """All faces of the closed alcove, keyed by their active wall sets.

    Walls are named 0..rank-1 (simple-root walls) and "affine"; every proper
    subset of walls cuts out a nonempty face of the simplex, represented here
    by the barycenter of its vertices.
    """
    vertices: dict = {"origin": rs.zero_weight()}
    for i in range(rs.rank):
        vertices[i] = rs.fundamental_weight(i).scale(Fraction(1, rs.comarks[i]))
    walls: list = list(range(rs.rank)) + ["affine"]
    out = []
    for size in range(len(walls)):
        for subset in combinations(walls, size):
            s = frozenset(subset)
            verts = [vertices[i] for i in range(rs.rank) if i not in s]
            if "affine" not in s:
                verts.append(vertices["origin"])
            bary = rs.zero_weight()
            for v in verts:
                bary = bary + v
            bary = bary.scale(Fraction(1, len(verts)))
            out.append((s, face_data(rs, TorusPoint(bary))))
    return out


# -- stabilizer subgroup and the rho-shift laws --------------------------------

def stabilizer_generators(rs: RootSystem, fd: FaceData) -> list[tuple[str, WeylElement, AffineWeylElement]]:
    """Generator pairs (label, finite counterpart, affine element).

    The affine-wall generator pairs the reflection through (theta|x) = k with
    the plain reflection s_theta; all other generators are shared.
    """
    out = []
    for label, gamma in zip(fd.labels, fd.realized_simple_roots):
        if label == "affine":
            fin = weyl.reflection_in_root(rs, rs.highest_root)
            out.append((label, fin, weyl.affine_reflection_theta(rs)))
        else:
            fin = weyl.reflection_in_root(rs, gamma)
            out.append((label, fin, weyl.affine_from_finite(fin, rs.rank)))
    return out


@lru_cache(maxsize=None)
def stabilizer_subgroup(rs: RootSystem, fd: FaceData) -> tuple[tuple[WeylElement, AffineWeylElement], ...]:
    """Close the generator pairs under multiplication (finite copy of W_mu, cached)."""
    gens = [(fin, aff) for _, fin, aff in stabilizer_generators(rs, fd)]
    ident = (weyl.identity_element(rs), weyl.identity_affine(rs))
    seen = {ident[0].action: ident}
    frontier = [ident]
    while frontier:
        nxt = []
        for fin, aff in frontier:
            for gf, ga in gens:
                cand = (gf * fin, ga * aff)
                if cand[0].action not in seen:
                    seen[cand[0].action] = cand
                    nxt.append(cand)
        frontier = nxt
    return tuple(sorted(seen.values(), key=lambda p: (len(p[0].word), p[0].word)))


def rho_shift(rs: RootSystem, fd: FaceData, w: WeylElement) -> RhoShift:
    """Compare w's shift of rho_mu with its shift of rho.

    w must be the identity or the finite reflection attached to one of the
    face's realized simple roots.  Off the wall the two shifts agree exactly;
    for the wall generator the discrepancy is exactly h^v * theta.
    """
    if w.is_identity:
        z = rs.zero_weight()
        return RhoShift(z, z, z)
    for gamma in fd.realized_simple_roots:
        if weyl.reflection_in_root(rs, gamma).action == w.action:
            break
    else:
        raise DomainError("not a generator of the face stabilizer")
    d_sub = weyl.act(w, fd.rho_mu) - fd.rho_mu
    d_full = weyl.act(w, rs.rho) - rs.rho
    return RhoShift(d_sub, d_full, d_sub - d_full)


def lattice_phase_check(rs: RootSystem, fd: FaceData, k: int, t, require_lattice: bool = True) -> bool:
    """Exact phase law on the lattice M*/(k+h^v).

    For every v in the finite copy of the stabilizer, the angle
    <(v(k mu) - k mu) + (v(rho) - rho) - (v(rho_mu) - rho_mu), t> must be an
    integer; phases are compared as rationals mod 1, never as floats.  The
    combination collapses to -(k+h^v) nu(u), u being the translation of v's
    affine counterpart, which pairs integrally with M*/(k+h^v).

    require_lattice=False skips the membership validation so that off-lattice
    probe points can demonstrate the law failing.
    """
    t = tuple(Fraction(x) for x in t)
    n = k + rs.dual_coxeter
    scaled = tuple(n * x for x in t)
    if require_lattice and not rs.in_lattice_Mstar(scaled):
        raise DomainError("t is not of the form m/(k+h^v) with m in M*")
    kmu = fd.mu.mu_star.scale(k)
    for v, _ in stabilizer_subgroup(rs, fd):
        shift = ((weyl.act(v, kmu) - kmu) + (weyl.act(v, rs.rho) - rs.rho)
                 - (weyl.act(v, fd.rho_mu) - fd.rho_mu))
        angle = rs.pairing_with_coroot_vector(shift, t)
        if angle.denominator != 1:
            return False
    return True


@lru_cache(maxsize=None)
def sub_positive_roots(rs: RootSystem, fd: FaceData) -> tuple[Weight, ...]:
    """Positive roots of the sub-root-system generated by the realized simple roots (cached)."""
    gammas = fd.realized_simple_roots
    m = len(gammas)
    if m == 0:
        return ()
    cartan = [[2 * inner(rs, gammas[i], gammas[j]) / inner(rs, gammas[i], gammas[i])
               for j in range(m)] for i in range(m)]
    assert all(x.denominator == 1 for row in cartan for x in row)
    cartan = [[int(x) for x in row] for row in cartan]
    out = []
    for coeffs in _positive_root_closure(cartan):
        v = rs.zero_weight()
        for c, g in zip(coeffs, gammas):
            v = v + g.scale(c)
        out.append(v)
    return tuple(out)
