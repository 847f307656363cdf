import cmath
import random
from fractions import Fraction
from itertools import product

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from alcove import affine, chareval, conventions, identities, intlinalg, rootdata, weyl
from alcove.chareval import SingularPointError, character, integer_rows, is_regular, \
    localization_sum, phase, residues, row_residues, weyl_denominator
from alcove.rootdata import TorusPoint, Weight, from_name, inner


def point(rs, coords):
    return TorusPoint(rs.weight_from_coords(coords))


def exp_at(rs, lam, x):
    """e^lam at x on the residue kernel."""
    n, v = residues(rs, x)
    return phase(row_residues(integer_rows([lam]), v)[0], n)


def test_eval_exp_examples():
    a1 = from_name("A1")
    x = point(a1, [Fraction(1, 3)])
    assert exp_at(a1, a1.zero_weight(), x) == 1
    half = point(a1, [1])  # (Lambda_1 | mu) = 1/2
    assert abs(exp_at(a1, a1.fundamental_weight(0), half) + 1) < 1e-12
    # theta paired against (Lambda_1 + rho)/3
    grid_pt = TorusPoint((a1.fundamental_weight(0) + a1.rho).scale(Fraction(1, 3)))
    expected = cmath.exp(4j * cmath.pi / 3)
    assert abs(exp_at(a1, a1.highest_root, grid_pt) - expected) < 1e-12


def test_angles_reduced_exactly():
    a1 = from_name("A1")
    # a huge integer angle must evaluate to exactly 1, no drift
    lam = a1.fundamental_weight(0).scale(10 ** 12)
    x = point(a1, [2])
    assert exp_at(a1, lam, x) == 1


@pytest.mark.parametrize("name", ["A1", "A2", "B2", "G2", "C3"])
@settings(max_examples=30, deadline=None)
@given(data=st.data())
def test_residue_is_the_exact_pairing(name, data):
    rs = from_name(name)
    a = rs.weight_from_coords(data.draw(st.lists(st.integers(-50, 50), min_size=rs.rank,
                                                 max_size=rs.rank)))
    x = TorusPoint(rs.weight_from_coords(data.draw(st.lists(
        st.fractions(-3, 3, max_denominator=60), min_size=rs.rank, max_size=rs.rank))))
    n, v = residues(rs, x)
    rows = integer_rows([a])
    assert Fraction(row_residues(rows, v)[0], n) == inner(rs, a, x.mu_star)
    group = weyl.enumerate_weyl(rs)
    w = group[data.draw(st.integers(0, len(group) - 1))]
    h = row_residues(zip(*w.action), v)  # the pullback w.action^T v that levelshift reads
    assert Fraction(row_residues(rows, h)[0], n) == inner(rs, affine.act(w, a), x.mu_star)


def test_non_integral_weight_has_no_exponential():
    a2 = from_name("A2")
    half = a2.fundamental_weight(0).scale(Fraction(1, 2))
    x = point(a2, [Fraction(1, 5), Fraction(1, 7)])
    with pytest.raises(ValueError):
        integer_rows([half])
    with pytest.raises(ValueError):
        localization_sum(a2, half, x)


def test_weyl_denominator_values():
    a1 = from_name("A1")
    assert weyl_denominator(a1, point(a1, [0])) == 0
    x = TorusPoint(a1.weight_from_root_coords([Fraction(1, 4)]))  # (alpha|x) = 1/2
    assert abs(weyl_denominator(a1, x) - 2) < 1e-12
    a2 = from_name("A2")
    assert abs(weyl_denominator(a2, point(a2, [Fraction(1, 5), Fraction(1, 7)]))) > 0


def test_is_regular():
    a1 = from_name("A1")
    assert not is_regular(a1, point(a1, [0]))
    assert is_regular(a1, TorusPoint(a1.weight_from_root_coords([Fraction(1, 6)])))
    a2 = from_name("A2")
    shifted = TorusPoint(a2.rho.scale(Fraction(1, 4)))  # k=1 grid point of lam=0
    assert is_regular(a2, shifted)


def test_character_trivial_and_dimension():
    a2 = from_name("A2")
    x = point(a2, [Fraction(1, 5), Fraction(2, 7)])
    assert abs(character(a2, a2.zero_weight(), x) - 1) < 1e-12
    zero = TorusPoint(a2.zero_weight())
    adjoint = a2.highest_root
    assert character(a2, adjoint, zero) == 8
    assert chareval.weyl_dimension(a2, a2.fundamental_weight(0)) == 3
    with pytest.raises(ValueError):
        chareval.weyl_dimension(a2, a2.fundamental_weight(0).scale(Fraction(1, 2)))


@pytest.mark.parametrize("name", ["A3", "B3", "C3", "D4", "G2", "F4", "E6"])
def test_weyl_dimension_is_the_fraction_product(name):
    rs = from_name(name)
    rng = random.Random(6)
    for _ in range(8):  # any integral weight: the product is 0 or +-dim of an irreducible
        lam = rs.weight_from_coords([rng.randint(-4, 4) for _ in range(rs.rank)])
        expected = Fraction(1)
        for alpha in rs.positive_roots:
            expected *= inner(rs, lam + rs.rho, alpha) / inner(rs, rs.rho, alpha)
        assert chareval.weyl_dimension(rs, lam) == expected
        assert type(chareval.weyl_dimension(rs, lam)) is int


def test_character_rank1_closed_form():
    a1 = from_name("A1")
    x = TorusPoint(a1.weight_from_root_coords([Fraction(1, 6)]))  # (alpha|x) = 1/3
    got = character(a1, a1.fundamental_weight(0), x)
    assert abs(got - 1) < 1e-12  # sin(2s)/sin(s) at s = pi/3
    for m in range(5):
        lam = a1.fundamental_weight(0).scale(m)
        s = cmath.pi / 3
        expected = cmath.sin((m + 1) * s) / cmath.sin(s)
        assert abs(character(a1, lam, x) - expected) < 1e-10


def test_character_errors():
    a1 = from_name("A1")
    with pytest.raises(SingularPointError):
        character(a1, a1.fundamental_weight(0), point(a1, [2]))  # (alpha|x) = 2
    with pytest.raises(ValueError):
        character(a1, -a1.fundamental_weight(0), point(a1, [Fraction(1, 3)]))
    with pytest.raises(SingularPointError):
        localization_sum(a1, a1.fundamental_weight(0), point(a1, [1]))


@pytest.mark.parametrize("name", ["A1", "A2", "B2", "G2"])
def test_character_weyl_invariance(name):
    rs = from_name(name)
    rng = random.Random(3)
    lam = rootdata.weights_at_level(rs, 2)[-1]
    for _ in range(5):
        x = identities.random_rational_point(rs, rng)
        if not is_regular(rs, x):
            continue
        base = character(rs, lam, x)
        for w in weyl.enumerate_weyl(rs):
            moved = TorusPoint(affine.act(w, x.mu_star))
            assert abs(character(rs, lam, moved) - base) < 1e-9


@pytest.mark.parametrize("name", ["A1", "A2", "B2", "G2"])
def test_denominator_modulus_weyl_invariant(name):
    rs = from_name(name)
    rng = random.Random(4)
    x = identities.random_rational_point(rs, rng)
    base = abs(weyl_denominator(rs, x))
    for w in weyl.enumerate_weyl(rs):
        moved = TorusPoint(affine.act(w, x.mu_star))
        assert abs(abs(weyl_denominator(rs, moved)) - base) < 1e-9


@pytest.mark.parametrize("name", ["A1", "A2", "B2", "G2"])
def test_localization_sum_matches_character(name):
    rs = from_name(name)
    rng = random.Random(11)
    lams = rootdata.weights_at_level(rs, 2)
    done = 0
    while done < 20:
        x = identities.random_rational_point(rs, rng)
        if not is_regular(rs, x):
            continue
        lam = lams[rng.randrange(len(lams))]
        assert abs(localization_sum(rs, lam, x) - character(rs, lam, x)) < 1e-9
        done += 1


def test_localization_partition_of_unity():
    # lam = 0: the sum over the group of reciprocal denominators is 1
    for name in ["A1", "A2", "B2"]:
        rs = from_name(name)
        rng = random.Random(12)
        x = identities.random_rational_point(rs, rng)
        assert abs(localization_sum(rs, rs.zero_weight(), x) - 1) < 1e-10


def test_shifted_grid_example():
    a1 = from_name("A1")
    grid = chareval.shifted_grid(a1, 1)
    assert len(grid) == 2
    assert [p.mu_star.coords[0] for _, p in grid] == [Fraction(1, 3), Fraction(2, 3)]


@pytest.mark.parametrize("name,k", [("A1", 1), ("A1", 4), ("A2", 1), ("A2", 3),
                                    ("B2", 2), ("G2", 2)])
def test_shifted_grid_points_all_regular(name, k):
    rs = from_name(name)
    for lam, p in chareval.shifted_grid(rs, k):
        assert is_regular(rs, p)


@pytest.mark.parametrize("name,k", [("A1", 1), ("A2", 1), ("B2", 1), ("G2", 1)])
def test_full_grid_size_is_lattice_index(name, k):
    rs = from_name(name)
    grid = chareval.full_grid(rs, k)
    assert len(grid) == rootdata.lattice_index(rs, k)
    assert len({y for y, _ in grid}) == len(grid)
    # representatives are genuinely in M*: their coroot coordinates nu^-1(y), by the Fraction reference
    for y, _ in grid:
        assert rs.in_lattice_Mstar(intlinalg.mat_vec(rs.gram_weights, y.coords))


@pytest.mark.parametrize("name,k", [("A1", 1), ("A1", 2), ("A1", 3), ("A2", 1), ("B2", 2),
                                    ("G2", 1), ("C3", 1)])
def test_full_grid_is_a_transversal(name, k):
    # labels lie in distinct cosets of (k+h^v)M, and each point is nu(m)/(k+h^v) for the
    # coroot coordinates m = nu^-1(label); M = Q^v is Z^rank in coroot coordinates, so
    # reducing m mod k+h^v names the coset
    rs = from_name(name)
    n = k + rs.dual_coxeter
    grid = [(intlinalg.mat_vec(rs.gram_weights, y.coords), p) for y, p in chareval.full_grid(rs, k)]
    for m, p in grid:
        assert p == TorusPoint(rs.coroot_to_weight_space(m).scale(Fraction(1, n)))
    assert len({tuple(x % n for x in m) for m, _ in grid}) == len(grid)


def reference_full_grid(rs, k):
    """The full grid from the Smith form of (k+h^v) gram_of_M(), computed at this level."""
    n = k + rs.dual_coxeter
    u, diag, _ = intlinalg.smith_normal_form([[n * g for g in row] for row in rs.gram_of_M()])
    u_inv = [[int(x) for x in row] for row in intlinalg.mat_inverse(u)]
    ys = [[sum(a * b for a, b in zip(row, c)) for row in u_inv]
          for c in product(*(range(diag[i][i]) for i in range(rs.rank)))]
    return [(Weight(tuple(y)), y, TorusPoint(Weight(tuple(Fraction(c, n) for c in y)))) for y in ys]


FULL_GRID_CASES = [(name, k) for name in ["A1", "A2", "A3", "A4", "A5", "B2", "B3", "B4", "C3", "C4",
                                           "D4", "D5", "G2", "F4", "E6"]
                   for k in range(5) if rootdata.lattice_index(from_name(name), k) <= 20_000]


@pytest.mark.parametrize("name,k", FULL_GRID_CASES)
def test_full_grid_equals_the_smith_form_at_its_level(name, k):
    # the cached Smith form of gram_of_M(), scaled by k+h^v, gives the same
    # labels and points in the same order as the Smith form at the level
    rs = from_name(name)
    assert chareval._grid(rs, k, "full") == reference_full_grid(rs, k)


def test_full_grid_a1_level1_has_six_points():
    a1 = from_name("A1")
    grid = chareval.full_grid(a1, 1)
    assert len(grid) == 6
    assert sum(1 for _, p in grid if not is_regular(a1, p)) == 2


@pytest.mark.parametrize("name,k", [("A1", 2), ("A2", 1), ("G2", 1)])
def test_character_modulus_bounded_by_dimension(name, k):
    rs = from_name(name)
    for lam in rootdata.weights_at_level(rs, k):
        dim = chareval.weyl_dimension(rs, lam)
        for _, p in chareval.shifted_grid(rs, k):
            assert abs(character(rs, lam, p)) <= dim + 1e-9


@settings(max_examples=25, deadline=None)
@given(st.fractions(min_value=Fraction(1, 37), max_value=Fraction(36, 37),
                    max_denominator=37))
def test_rank1_denominator_closed_form(q):
    a1 = from_name("A1")
    x = TorusPoint(a1.weight_from_root_coords([q / 2]))  # (alpha|x) = q
    expected = 1 - cmath.exp(-2j * cmath.pi * float(q))
    assert abs(weyl_denominator(a1, x) - expected) < 1e-12


def test_special_grid_mode_dispatch():
    a1 = from_name("A1")
    assert chareval.special_grid(a1, 1, "shifted") == chareval.shifted_grid(a1, 1)
    assert len(chareval.special_grid(a1, 1, "full")) == 6
    with pytest.raises(ValueError):
        chareval.special_grid(a1, 1, "diagonal")


# -- the Fraction path: the reference for the residue kernel --------------------

def fraction_exp(rs, lam, x):
    """e^lam at x from the exact Fraction pairing, reduced mod 1 before the float."""
    angle = inner(rs, lam, x.mu_star)
    frac = angle - (angle.numerator // angle.denominator)
    return cmath.exp(2j * cmath.pi * float(frac))


def fraction_is_regular(rs, x):
    return all(inner(rs, alpha, x.mu_star).denominator != 1 for alpha in rs.positive_roots)


def fraction_denominator(rs, x):
    out = 1.0 + 0j
    for alpha in rs.positive_roots:
        out *= 1 - fraction_exp(rs, -alpha, x)
    return out


def fraction_localization_sum(rs, lam, x):
    total = 0j
    for w in weyl.enumerate_weyl(rs):
        term = fraction_exp(rs, affine.act(w, lam), x)
        for alpha in rs.positive_roots:
            term /= 1 - fraction_exp(rs, -affine.act(w, alpha), x)
        total += term
    return total


def fraction_path_character(rs, lam, x):
    """Weyl quotient from exact Fraction pairings."""
    num = 0j
    den = 0j
    for w in weyl.enumerate_weyl(rs):
        num += w.sign * fraction_exp(rs, affine.act(w, lam + rs.rho), x)
        den += w.sign * fraction_exp(rs, affine.act(w, rs.rho), x)
    return num / den


def test_character_table_cache_resolves_the_default_mode():
    rs = from_name("A2")
    assert conventions.character_table(rs, 1) is conventions.character_table(rs, 1, "shifted")
    assert conventions.character_table(rs, 1, "full").mode == "full"


@pytest.mark.parametrize("name,k,mode",
                         [(name, k, "shifted") for name in ["A1", "A2", "A3", "B2", "C3", "G2"]
                          for k in range(3)]
                         + [("B2", 2, "full"), ("D4", 1, "shifted"), ("F4", 1, "shifted"),
                            ("A2", 2, "full"), ("G2", 1, "full")])
def test_character_table_is_bitwise_the_fraction_path(name, k, mode):
    rs = from_name(name)
    table = conventions.character_table(rs, k, mode)
    assert table.weights == tuple(rootdata.weights_at_level(rs, k))
    assert [(label, x) for label, x in chareval.special_grid(rs, k, mode)] == \
        list(zip(table.labels, table.points))
    pref = 1.0 / rootdata.lattice_index(rs, k) / (weyl.weyl_order(rs) if mode == "full" else 1)
    for t, x in enumerate(table.points):
        assert table.regular[t] == is_regular(rs, x) == fraction_is_regular(rs, x)
        assert weyl_denominator(rs, x) == fraction_denominator(rs, x)
        d = fraction_denominator(rs, x)
        assert table.measure[t] == (d * d.conjugate()).real * pref
        for lam, row in zip(table.weights, table.values):
            if x.is_zero:
                expected = complex(chareval.weyl_dimension(rs, lam))
            elif not fraction_is_regular(rs, x):
                expected = None
            else:
                expected = fraction_path_character(rs, lam, x)
            assert row[t] == expected
    if mode == "full":  # the full grid has the identity and other singular points
        assert any(x.is_zero for x in table.points)
        assert any(not x.is_zero and not r for x, r in zip(table.points, table.regular))


@pytest.mark.parametrize("name", ["A1", "A2", "B2", "G2"])
def test_character_at_random_points_is_bitwise_the_fraction_path(name):
    rs = from_name(name)
    rng = random.Random(5)
    lams = rootdata.weights_at_level(rs, 2)
    for _ in range(10):
        x = identities.random_rational_point(rs, rng)
        assert is_regular(rs, x) == fraction_is_regular(rs, x)
        assert weyl_denominator(rs, x) == fraction_denominator(rs, x)
        if is_regular(rs, x):
            lam = lams[rng.randrange(len(lams))]
            assert character(rs, lam, x) == fraction_path_character(rs, lam, x)
            assert localization_sum(rs, lam, x) == fraction_localization_sum(rs, lam, x)


def test_characters_never_list_the_weyl_group(monkeypatch):
    def refuse(*args):
        raise AssertionError("the character path walked the elements of W")

    expected = {(name, k): conventions._character_table.__wrapped__(from_name(name), k, "shifted")
                for name, k in [("F4", 1), ("D4", 1)]}
    a2 = from_name("A2")
    x = point(a2, [Fraction(1, 5), Fraction(2, 7)])
    lams = rootdata.weights_at_level(a2, 2)
    before = chareval.characters(a2, lams, x)
    monkeypatch.setattr(weyl, "enumerate_weyl", refuse)
    monkeypatch.setattr(weyl, "iter_weyl", refuse)  # the only path to a per-element pullback
    for (name, k), table in expected.items():
        assert conventions._character_table.__wrapped__(from_name(name), k, "shifted") == table
    assert chareval.characters(a2, lams, x) == before
    assert character(a2, lams[-1], x) == before[-1]


@pytest.mark.parametrize("name", ["A2", "B2", "G2", "A3"])
def test_weyl_sums_read_orbits_not_listed_elements(name, monkeypatch):
    def refuse(*args):
        raise AssertionError("a Weyl sum walked the elements of W")

    rs = from_name(name)
    rng = random.Random(9)
    lams = rootdata.weights_at_level(rs, 2)
    sums = [lambda x, y: localization_sum(rs, lams[-1], x),
            lambda x, y: identities.fundamental_formula_residual(rs, x, y),
            lambda x, y: identities.subset_identity_residual(rs, x),
            lambda x, y: chareval.characters(rs, lams, x)]
    samples = []
    while len(samples) < 3:
        x, y = identities.random_rational_point(rs, rng), identities.random_rational_point(rs, rng)
        try:
            samples.append((x, y, [f(x, y) for f in sums]))
        except (identities.PoleError, SingularPointError):
            continue
    table = conventions._character_table.__wrapped__(rs, 1, "full")
    monkeypatch.setattr(weyl, "enumerate_weyl", refuse)
    monkeypatch.setattr(weyl, "iter_weyl", refuse)  # the only path to a per-element pullback
    for x, y, values in samples:
        assert [f(x, y) for f in sums] == values
    assert conventions._character_table.__wrapped__(rs, 1, "full") == table
