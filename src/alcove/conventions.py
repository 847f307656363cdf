"""Evaluation conventions frozen by the rank-1 brute-force oracle.

scripts/convention_oracle.py re-derives everything below; docs/conventions.md
records the derivation.  Summary of the frozen choices:

* Inversion measure.  Grid sums use the weight |D(tau)|^2 =
  D(tau) * conj(D(tau)) and the prefactor 1/|M*/(k+h^v)M| on the shifted
  grid, with an extra 1/|W| on the full grid (each regular full-grid orbit
  has |W| points over one shifted representative).  The literal
  (-1)^l * D(tau)^2 reading reproduces the identity matrix only for A1 at
  k = 1 and fails everywhere else; the oracle rejects it.

* Subset identity.  The alternating subset sum evaluates to 1 for every
  system when the generating set is the simple roots and the empty subset
  contributes +1 per Weyl element.  Dropping the empty subset fails on A1 by
  exactly 2 (the |W| offset).  With fundamental weights as generators the sum
  is the product of the exponents of W instead (1, 2, 3, 5 for A1, A2, B2,
  G2) - recorded as a finding, not used.

CharacterTable is the one character table on a grid (the Kac-Peterson
S-matrix ratios S_lam,mu / S_0,mu on the shifted grid) together with this
measure; every grid consumer reads it by position.  Its invert method is the
one S-matrix contraction sum_t v_t * conj(chi_c(t)) * measure_t: orthogonality,
multiplicity extraction and fusion all go through it, for every weight c or for
a list of weight indices (fusion_table asks only for the channels not yet known).
"""

from __future__ import annotations

from collections import namedtuple
from functools import lru_cache
from operator import mul

from . import chareval
from .rootdata import (GRID_FULL, GRID_SHIFTED, RootSystem, count_weights_at_level,
                       lattice_index, weights_at_level)
from .weyl import ResourceError, weyl_order

# Cap on (weights + 1) * points * |W|, the orbit terms a character table sums,
# checked before anything is listed.  At 0.5-1.3 us per term (2-vCPU VM) the
# largest admitted tables take 1-3 s; E6 at level 1 needs 622,080.
DEFAULT_GRID_CAP = 2_000_000


GridConventions = namedtuple("GridConventions", "grid_mode include_empty_subset",
                             defaults=(GRID_SHIFTED, True))
FROZEN = GridConventions()


class CharacterTable(namedtuple("CharacterTable", "mode weights labels points regular "
                                                  "measure values live duals")):
    """Level-k characters on one grid; cached and shared, so read-only.

    values[i][t] is the character of weights[i] at points[t]: the dimension
    at the identity and None at any other singular point.  measure[t] is the
    weight |D(t)|^2 / |M*/(k+h^v)M| (also / |W| on the full grid), zero
    exactly at the singular points.
    live lists the indices t of nonzero measure, and duals[c][s] is
    conj(chi_c) * measure at points[live[s]]: the measure folded in once.
    """

    __slots__ = ()

    def invert(self, column, weights=None) -> list[complex]:
        """[sum_t column_t * conj(chi_c(t)) * measure_t for each weight index c in weights, or every c].

        column holds one value per live point; sum m_a chi_a inverts to m.
        """
        duals = self.duals if weights is None else [self.duals[c] for c in weights]
        return [sum(map(mul, column, dual), 0j) for dual in duals]


def character_table(rs: RootSystem, k: int, mode: str | None = None) -> CharacterTable:
    """The level-k character table on the grid of the given mode (default frozen)."""
    return _character_table(rs, k, mode or FROZEN.grid_mode)


def check_table_cost(rs: RootSystem, k: int, mode: str | None = None) -> None:
    """Raise ResourceError when the table would sum more than DEFAULT_GRID_CAP orbit terms."""
    count = count_weights_at_level(rs, k)
    size = count if (mode or FROZEN.grid_mode) == GRID_SHIFTED else lattice_index(rs, k)
    cost = (count + 1) * size * weyl_order(rs)  # orbit terms summed over the grid
    if cost > DEFAULT_GRID_CAP:
        raise ResourceError(f"character table cost {cost} exceeds cap {DEFAULT_GRID_CAP}")


@lru_cache(maxsize=64)
def _character_table(rs: RootSystem, k: int, mode: str) -> CharacterTable:
    check_table_cost(rs, k, mode)
    pref = 1.0 / lattice_index(rs, k)
    if mode == GRID_FULL:
        pref /= weyl_order(rs)
    lams = tuple(weights_at_level(rs, k))
    labels, points, dens, columns = zip(*chareval.grid_columns(rs, k, lams, mode))
    measure = tuple((d * d.conjugate()).real * pref for d in dens)
    regular = tuple(not p.is_zero and col[0] is not None for p, col in zip(points, columns))
    values = [list(row) for row in zip(*columns)]
    live = tuple(t for t, wgt in enumerate(measure) if wgt)
    duals = [[row[t].conjugate() * measure[t] for t in live] for row in values]
    return CharacterTable(mode, lams, labels, points, regular, measure, values, live, duals)
