"""Level-k dominant weights, multiplicity extraction and fusion coefficients.

Multiplicities are recovered by CharacterTable.invert, the sum of character
data against conj(chi_c) and the frozen grid measure (the inversion dual to
the orthogonality relation), rounded by _round; fusion coefficients are that
inversion applied to pointwise products of characters.
"""

from __future__ import annotations

from collections import namedtuple
from operator import sub

from . import conventions, weyl
from .rootdata import RootSystem, TorusPoint, Weight, count_weights_at_level
from .weyl import ResourceError

ROUNDING_ERROR_THRESHOLD = 1e-4
INTEGRALITY_TOLERANCE = 1e-6
DEFAULT_TABLE_CAP = 500_000


class InconsistentInputError(ValueError):
    """Grid values are not a character combination at this level."""


ExtractionResult = namedtuple("ExtractionResult", "multiplicities max_residual")


class FusionTable(namedtuple("FusionTable", "k weights max_residual dense")):
    """Fusion coefficients; dense[a][b][c] is N_ab^c by position in weights."""

    __slots__ = ()

    @property
    def entries(self) -> dict[tuple[Weight, Weight, Weight], int]:
        """The nonzero coefficients keyed by weight triple (derived from dense)."""
        ws = self.weights
        return {(ws[a], ws[b], ws[c]): n for a, slab in enumerate(self.dense)
                for b, row in enumerate(slab) for c, n in enumerate(row) if n}


def contragredient(rs: RootSystem, a: Weight) -> Weight:
    """w_L(-a), the highest weight of the dual module: -a folded into the dominant chamber."""
    if not a.is_dominant:
        raise ValueError("contragredient expects a dominant weight")
    x = TorusPoint(-a)  # -a = y / m, m = 1 when a is integral; the fold commutes with scaling by m
    return TorusPoint.of(weyl.fold(rs, x.y)[1], x.m).mu_star


def synthesize(rs: RootSystem, k: int, multiplicities: dict[Weight, int],
               grid_mode: str | None = None) -> dict:
    """Grid values of sum m_a chi_a, keyed by grid label (for round-trips).

    Points of zero measure, which inversion never reads, get 0j.
    """
    table = conventions.character_table(rs, k, grid_mode)
    ms = [multiplicities.get(lam, 0) for lam in table.weights]
    out = dict.fromkeys(table.labels, 0j)
    for t in table.live:
        out[table.labels[t]] = sum(m * row[t] for m, row in zip(ms, table.values))
    return out


def _round(sums: list[complex]) -> tuple[list[int], float]:
    """Nearest integers to the real parts, and the worst distance to them.

    Raises InconsistentInputError when that distance exceeds
    ROUNDING_ERROR_THRESHOLD: the sums were not integral to begin with.
    """
    ints = [round(s.real) for s in sums]
    worst = max(map(abs, map(sub, sums, ints)), default=0.0)
    if worst > ROUNDING_ERROR_THRESHOLD:
        raise InconsistentInputError(
            f"rounding residual {worst:.3e} exceeds {ROUNDING_ERROR_THRESHOLD}")
    return ints, worst


def extract_multiplicities(rs: RootSystem, k: int, values: dict,
                           grid_mode: str | None = None) -> ExtractionResult:
    """Invert grid values of a level-k character combination.

    values maps every grid label (of the chosen mode) to the sampled value;
    each multiplicity comes out as a weighted sum against conj(chi_a), is
    rounded to the nearest integer, and the worst distance to an integer is
    reported.  A residual above 1e-4 signals that the input was not a level-k
    character combination.
    """
    table = conventions.character_table(rs, k, grid_mode)
    ints, worst = _round(table.invert([values[table.labels[t]] for t in table.live]))
    return ExtractionResult(dict(zip(table.weights, ints)), worst)


def _fusion_row(table: conventions.CharacterTable, a: int, b: int) -> tuple[list[int], float]:
    """N_ab^c for every c by position, and the rounding residual of the row."""
    row_a, row_b = table.values[a], table.values[b]
    ints, worst = _round(table.invert([row_a[t] * row_b[t] for t in table.live]))
    if min(ints) < 0:
        c = next(c for c, n in zip(table.weights, ints) if n < 0)
        raise InconsistentInputError(f"negative fusion coefficient at {c}")
    return ints, worst


def fusion_coefficients(rs: RootSystem, k: int, a: Weight, b: Weight,
                        grid_mode: str | None = None) -> dict[Weight, int]:
    """Fusion row N_{ab}^* via inversion of the pointwise product chi_a chi_b."""
    table = conventions.character_table(rs, k, grid_mode)
    ws = table.weights
    if a not in ws or b not in ws:
        raise ValueError("fusion labels must be level-k dominant weights")
    return dict(zip(ws, _fusion_row(table, ws.index(a), ws.index(b))[0]))


def check_fusion_size(rs: RootSystem, k: int) -> int:
    """The number n of level-k weights; raises ResourceError when n^3 exceeds DEFAULT_TABLE_CAP."""
    n = count_weights_at_level(rs, k)
    if n ** 3 > DEFAULT_TABLE_CAP:
        raise ResourceError(f"table size {n ** 3} exceeds cap {DEFAULT_TABLE_CAP}")
    return n


def fusion_table(rs: RootSystem, k: int, grid_mode: str | None = None) -> FusionTable:
    """Complete fusion table, with unit and symmetry invariants verified."""
    n = check_fusion_size(rs, k)
    table = conventions.character_table(rs, k, grid_mode)
    star = [table.weights.index(contragredient(rs, lam)) for lam in table.weights]
    above = [[d for d in range(n) if star[d] >= b] for b in range(n)]  # channels d = c*, c >= b
    dense = [[[0] * n for _ in range(n)] for _ in range(n)]
    worst = 0.0
    # N_ab^{c*} is symmetric in a, b and c: contract each a <= b <= c once, write its six images
    for a in range(n):
        for b in range(a, n):
            row_a, row_b = table.values[a], table.values[b]
            ints, residual = _round(table.invert([row_a[t] * row_b[t] for t in table.live], above[b]))
            worst = max(worst, residual)
            for d, m in zip(above[b], ints):
                if m < 0:
                    raise InconsistentInputError(f"negative fusion coefficient at {table.weights[d]}")
                c = star[d]
                dense[a][b][d] = dense[b][a][d] = m
                dense[a][c][star[b]] = dense[c][a][star[b]] = m
                dense[b][c][star[a]] = dense[c][b][star[a]] = m
    unit = dense[table.weights.index(rs.zero_weight())]
    if any(unit[b][c] != (b == c) for b in range(n) for c in range(n)):
        raise AssertionError("unit law failed in fusion table")
    return FusionTable(k, table.weights, worst, dense)
