"""The level-k transformation rule bridging affine and finite Weyl elements.

For a wall face with stabilizer pair (w_fin, w_aff = translate(v) o w_fin)
and a level-k weight lam, the two function-level sides

    w_fin(e^lam / D)   and   e^{-(k+h^v) nu(v)} (D_sub/D) w_aff(e^lam / D_sub)

agree everywhere, and on the lattice nu(M*)/(k+h^v) the exponential prefactor
is exactly 1, so the sides agree with it dropped.  D_sub is the Weyl
denominator of the face's sub-root-system; the affine action on the level-k
exponential contributes e^{w_fin lam + k nu(v)}.
"""

from __future__ import annotations

from collections import namedtuple
from operator import mul

from . import affine, chareval, stabilizers
from .affine import AffineWeylElement
from .identities import PoleError
from .rootdata import RootSystem, TorusPoint, Weight
from .stabilizers import FaceData
from .weyl import WeylElement


class ShiftWitness(namedtuple("ShiftWitness", [
        "w_fin", "v", "k",  # v: the translation, simple-coroot coordinates
        "rows"])):          # integer rows: lam, nu(v), then the face's positive sub-roots
    """A factored stabilizer pair with its level-k context."""

    __slots__ = ()


def make_witness(rs: RootSystem, face: FaceData, w_aff: AffineWeylElement,
                 w_fin: WeylElement, k: int, lam: Weight) -> ShiftWitness:
    v = affine.factor_affine(rs, w_aff, w_fin)
    (lam_row,) = chareval.integer_rows((lam,))
    shift_row = tuple(chareval.row_residues(rs.gram_of_M(), v))  # nu(v), integral as v is in M
    return ShiftWitness(w_fin, v, k, (lam_row, shift_row, *stabilizers.sub_positive_roots(rs, face)))


def wall_witnesses(rs: RootSystem, face: FaceData, k: int, lam: Weight) -> list[ShiftWitness]:
    """One witness per stabilizer element of a face meeting the affine wall."""
    if not face.on_affine_wall:
        raise ValueError("witnesses are built on faces meeting the affine wall")
    return [make_witness(rs, face, aff, fin, k, lam)
            for fin, aff in stabilizers.stabilizer_subgroup(rs, face)]


def shift_rule_residual(rs: RootSystem, witness: ShiftWitness, x: TorusPoint,
                        lattice_form: bool = True) -> complex:
    """Difference of the two sides of the transformation rule at x.

    lattice_form=True drops the exponential prefactor (valid on the lattice
    nu(M*)/(k+h^v)); lattice_form=False keeps it, and the residual then
    vanishes at every pole-free point.
    """
    n, v = chareval.residues(rs, x)
    roots = rs.root_rows
    at_x = chareval.row_residues(roots, v)
    if not all(r % n for r in at_x):  # chareval.is_regular, on residues at hand
        raise PoleError("denominator factor vanishes at the sample point")
    h = chareval.row_residues(zip(*witness.w_fin.action), v)  # (w_fin a) . v = a . h
    lam_row, shift_row, *sub_roots = witness.rows
    lam = sum(map(mul, lam_row, h))
    lhs = chareval.phase(lam, n)  # e^{w_fin lam} / prod_{alpha > 0} (1 - e^{-w_fin alpha})
    for r in chareval.row_residues(roots, h):
        lhs /= 1 - chareval.phase(-r, n)

    d_sub = chareval.denominator(chareval.row_residues(sub_roots, v), n)
    moved_den = chareval.denominator(chareval.row_residues(sub_roots, h), n)
    d_full = chareval.denominator(at_x, n)
    shift = sum(map(mul, shift_row, v))  # (nu(v) | x) = shift / n
    moved = lam + witness.k * shift  # w_fin lam + k nu(v)
    rhs = (d_sub / d_full) * chareval.phase(moved, n) / moved_den
    if not lattice_form:
        rhs *= chareval.phase(-(witness.k + rs.dual_coxeter) * shift, n)
    return lhs - rhs


def regular_lattice_points(rs: RootSystem, k: int) -> list[TorusPoint]:
    """Regular points of the full evaluation grid at level k."""
    return [p for _, p in chareval.full_grid(rs, k) if chareval.is_regular(rs, p)]
