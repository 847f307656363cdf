import ast
from fractions import Fraction
from itertools import permutations
from math import prod
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import oracles
import references
from alcove import intlinalg, rootdata
from alcove.rootdata import ConfigurationError, build_root_system, from_name, inner

SYSTEMS = ["A1", "A2", "A3", "B2", "B3", "C3", "D4", "G2", "F4"]


def det(m):
    """Exact determinant by the Leibniz expansion (test ranks are at most 4)."""
    n = len(m)
    total = 0
    for perm in permutations(range(n)):
        term = (-1) ** sum(perm[i] > perm[j] for i in range(n) for j in range(i + 1, n))
        for i, p in enumerate(perm):
            term *= m[i][p]
        total += term
    return total


@pytest.mark.parametrize("name", SYSTEMS)
def test_cartan_matrix_shape(name):
    rs = from_name(name)
    for i in range(rs.rank):
        assert rs.cartan[i][i] == 2
        for j in range(rs.rank):
            if i != j:
                assert rs.cartan[i][j] <= 0
    assert det(rs.cartan) > 0


@pytest.mark.parametrize("name,count", sorted(oracles.POSITIVE_ROOT_COUNT.items()))
def test_positive_root_count(name, count):
    rs = build_root_system(*name)
    assert len(rs.positive_roots) == count


@pytest.mark.parametrize("name,hv", sorted(oracles.DUAL_COXETER.items()))
def test_dual_coxeter_number(name, hv):
    rs = build_root_system(*name)
    assert rs.dual_coxeter == hv
    assert rs.dual_coxeter == 1 + sum(rs.comarks)


@pytest.mark.parametrize("name", SYSTEMS)
def test_highest_root_normalization(name):
    rs = from_name(name)
    theta = rs.highest_root
    assert inner(rs, theta, theta) == 2
    # theta dominates every root coordinatewise
    for beta in rs.positive_roots:
        assert all(b <= t for b, t in zip(rs.root_coords(beta), rs.root_coords(theta)))
    # marks expand theta, comarks expand theta^v
    assert references.weight_from_root_coords(rs, rs.marks) == theta
    assert tuple(rs.coroot_of(theta)) == tuple(Fraction(c) for c in rs.comarks)


@pytest.mark.parametrize("name", SYSTEMS)
def test_roots_pair_integrally_with_coroots(name):
    rs = from_name(name)
    for beta in rs.positive_roots:
        assert beta.is_integral  # weight coordinates are the coroot pairings
        rc = rs.root_coords(beta)
        assert all(c.denominator == 1 and c >= 0 for c in rc)
        assert references.weight_from_root_coords(rs, rc) == beta


@pytest.mark.parametrize("name", SYSTEMS)
def test_gram_positive_definite(name):
    rs = from_name(name)
    g = rs.gram_weights
    for size in range(1, rs.rank + 1):
        minor = [row[:size] for row in g[:size]]
        assert det(minor) > 0


@pytest.mark.parametrize("name", SYSTEMS)
def test_lattice_M_inside_dual(name):
    rs = from_name(name)
    assert rs.gram_of_M() == rs.gram_coroots  # integral, checked when the system is built
    for i in range(rs.rank):  # the simple coroots, the basis of M
        assert rs.in_lattice_Mstar([int(i == j) for j in range(rs.rank)])


def test_inner_examples():
    a1 = from_name("A1")
    assert inner(a1, a1.highest_root, a1.highest_root) == 2
    assert inner(a1, a1.zero_weight(), a1.rho) == 0
    a2 = from_name("A2")
    assert inner(a2, a2.fundamental_weight(0), a2.fundamental_weight(0)) == Fraction(2, 3)


def test_invalid_types_rejected():
    for series, rank in [("H", 2), ("A", 0), ("B", 1), ("D", 3), ("E", 5), ("F", 3), ("G", 3)]:
        with pytest.raises(ConfigurationError):
            build_root_system(series, rank)


def test_rank_cap_refuses_before_building(monkeypatch):
    for series in "ABCD":  # the tested ranks stay well below the cap
        assert build_root_system(series, 10).rank == 10

    def refuse(*args):
        raise AssertionError("a root datum was built above the rank cap")

    monkeypatch.setattr(rootdata, "_cartan_matrix", refuse)
    for rank in (rootdata.MAX_RANK + 1, 300):
        with pytest.raises(ConfigurationError, match=f"rank {rank} exceeds cap 20"):
            build_root_system("A", rank)


@pytest.mark.parametrize("name", SYSTEMS + ["B5", "C4", "D5", "E6", "E7", "E8"])
def test_integer_tables_equal_the_fraction_references(name):
    rs = from_name(name)
    assert rs.positive_root_coords == tuple(rootdata._positive_root_closure(rs.cartan))
    expected = [references.weight_from_root_coords(rs, rc) for rc in rs.positive_root_coords]
    assert rs.root_rows == tuple(tuple(int(c) for c in beta.coords) for beta in expected)
    assert list(rs.positive_roots) == expected and rs.highest_root == expected[-1]
    out = rs.to_json_dict()
    assert out["positive_roots"] == [[str(x) for x in rs.root_coords(beta)] for beta in rs.positive_roots]
    assert out["highest_root"] == [str(x) for x in rs.root_coords(rs.highest_root)]
    assert rs.supports == tuple({k: c for k, c in enumerate(rs.simple_root(i).coords) if c}
                                for i in range(rs.rank))
    gram = rs.gram_of_M()
    assert gram == rs.gram_coroots
    gram[0][0] += 1
    gram[-1].append(0)
    assert rs.gram_of_M() == rs.gram_coroots


# Names only tests read: no alcove module defines them, and all but the deleted wrapper
# special_grid live once in tests/references.py.
TEST_REFERENCES = {"find_alcove", "AlcovePoint", "alcove_certificate", "longest_element", "affine_act",
                   "identity_affine", "simple_reflection", "act_on_coroot_coords", "_coroot_action",
                   "compose", "affine_from_finite", "affine_reflection_theta",
                   "weight_from_root_coords", "coroot_to_weight_space", "special_grid"}


def test_library_defines_no_test_reference_and_one_fraction_inverse():
    """The library holds only what a subcommand or suite runs; its one Fraction inverse is inv_cartan."""
    from alcove import affine
    defined, inverses = set(), []
    for path in sorted(Path(rootdata.__file__).parent.glob("*.py")):
        tree = ast.parse(path.read_text(encoding="utf-8"))
        scopes = {tree: ()}  # each node's enclosing class and function names
        for node in ast.walk(tree):
            named = isinstance(node, (ast.ClassDef, ast.FunctionDef))
            if named:
                defined.add(node.name)
            for child in ast.iter_child_nodes(node):
                scopes[child] = scopes[node] + ((node.name,) if named else ())
            func = getattr(node, "func", None)
            if getattr(func, "attr", getattr(func, "id", None)) == "mat_inverse":
                inverses.append((path.stem, ".".join(scopes[node])))
    assert defined & TEST_REFERENCES == set()
    assert "__mul__" not in vars(affine.AffineWeylElement)
    assert TEST_REFERENCES - {"special_grid"} <= set(vars(references))
    assert inverses == [("rootdata", "RootSystem.inv_cartan")]


def test_library_reads_the_integer_tables_only(monkeypatch):
    # root_coords is a reference; with it made to fail, building systems, their JSON,
    # character and fusion tables, folds and W still run; weight_from_root_coords is test-side only
    from alcove import conventions, verlinde, weyl

    def fraction_roots(*args):
        raise AssertionError("the library read a root through the Fraction inverse Cartan matrix")

    assert not hasattr(rootdata.RootSystem, "weight_from_root_coords")
    monkeypatch.setattr(rootdata.RootSystem, "root_coords", fraction_roots)
    for cached in (build_root_system, conventions._character_table, weyl._skeleton,
                   weyl._enumerate_cached):
        cached.cache_clear()
    for name in ["A2", "B3", "G2", "F4"]:
        rs = from_name(name)
        assert rs.to_json_dict()["highest_root"] == [str(m) for m in rs.marks]
        assert len(conventions.character_table(rs, 1).weights) == rootdata.count_weights_at_level(rs, 1)
        assert verlinde.fusion_table(rs, 1).max_residual < 1e-9
        walls, image = weyl.fold(rs, [-3] + [5] * (rs.rank - 1), 2)
        assert walls and image == weyl.fold(rs, image, 2)[1]
        assert sum(1 for _ in weyl.iter_weyl(rs)) == weyl.weyl_order(rs)


def test_lattice_index_examples():
    assert rootdata.lattice_index(from_name("A1"), 1) == 6
    assert rootdata.lattice_index(from_name("A2"), 1) == 48


@pytest.mark.parametrize("name", ["A1", "A2", "B2", "G2", "A3"])
def test_lattice_index_homothety_scaling(name):
    rs = from_name(name)
    base = rootdata.lattice_index(rs, 0)
    hv = rs.dual_coxeter
    m_over = base // hv ** rs.rank
    for k in range(4):
        assert rootdata.lattice_index(rs, k) == (k + hv) ** rs.rank * m_over


@pytest.mark.parametrize("name", SYSTEMS)
def test_lattice_index_is_the_smith_form_at_every_level(name):
    """One cached Smith form per system gives the divisor product of (k+h^v) * gram_of_M()."""
    rs = from_name(name)
    for k in range(21):
        n = k + rs.dual_coxeter
        scaled = [[n * v for v in row] for row in rs.gram_of_M()]
        assert rootdata.lattice_index(rs, k) == prod(intlinalg.elementary_divisors(scaled))


@pytest.mark.parametrize("name", SYSTEMS)
def test_smith_form_scales_with_the_matrix(name):
    # smith_normal_form(n G) is (u, n d, v): the one cached u serves every level
    rs = from_name(name)
    u, d, v = intlinalg.smith_normal_form(rs.gram_of_M())
    u_inv, divisors = rootdata.smith_of_M(rs)
    assert divisors == tuple(d[i][i] for i in range(rs.rank))
    assert [[sum(a * b for a, b in zip(row, col)) for col in zip(*u)] for row in u_inv] == \
        [[int(i == j) for j in range(rs.rank)] for i in range(rs.rank)]
    for n in range(1, 31):
        scaled = intlinalg.smith_normal_form([[n * g for g in row] for row in rs.gram_of_M()])
        assert scaled == (u, [[n * x for x in row] for row in d], v)


@pytest.mark.parametrize("name,k", [("A1", 1), ("A1", 2), ("A1", 3), ("A2", 1),
                                    ("A2", 2), ("B2", 1), ("G2", 1), ("A3", 1)])
def test_lattice_index_against_coset_closure(name, k):
    rs = from_name(name)
    idx = rootdata.lattice_index(rs, k)
    assert idx <= 10 ** 4
    n = k + rs.dual_coxeter
    big = [list(row) for row in rs.lattice_Mstar_basis]
    small = [[n * (i == j) for j in range(rs.rank)] for i in range(rs.rank)]
    assert oracles.quotient_order_by_closure(big, small) == idx


def test_longest_element_examples():
    from alcove import affine
    a1 = from_name("A1")
    assert references.longest_element(a1).word == (0,)
    a2 = from_name("A2")
    wl = references.longest_element(a2)
    assert len(wl.word) == 3
    assert affine.act(wl, a2.simple_root(0)) == -a2.simple_root(1)
    b2 = from_name("B2")
    wl = references.longest_element(b2)
    for i in range(2):
        assert affine.act(wl, b2.fundamental_weight(i)) == -b2.fundamental_weight(i)


def test_weights_at_level_examples():
    for name in SYSTEMS:
        rs = from_name(name)
        lams = rootdata.weights_at_level(rs, 0)
        assert lams == [rs.zero_weight()]
    a1 = from_name("A1")
    assert [tuple(map(int, w.coords)) for w in rootdata.weights_at_level(a1, 2)] == \
        [(0,), (1,), (2,)]
    a2 = from_name("A2")
    assert [tuple(map(int, w.coords)) for w in rootdata.weights_at_level(a2, 1)] == \
        [(0, 0), (0, 1), (1, 0)]


@pytest.mark.parametrize("name,k", [("A2", 3), ("B2", 2), ("G2", 2)])
def test_weights_at_level_complete_against_box(name, k):
    rs = from_name(name)
    got = {tuple(w.coords) for w in rootdata.weights_at_level(rs, k)}
    from itertools import product
    box = set()
    for coords in product(range(k + 1), repeat=rs.rank):
        lam = rs.weight_from_coords(coords)
        if inner(rs, lam, rs.highest_root) <= k:
            box.add(tuple(lam.coords))
    assert got == box


@pytest.mark.parametrize("name", SYSTEMS)
def test_count_weights_at_level_matches_listing(name):
    rs = from_name(name)
    for k in range(6):
        assert rootdata.count_weights_at_level(rs, k) == len(rootdata.weights_at_level(rs, k))
    assert rootdata.count_weights_at_level(rs, -1) == 0


@settings(max_examples=30, deadline=None)
@given(st.lists(st.integers(-6, 6), min_size=2, max_size=2),
       st.lists(st.integers(-6, 6), min_size=2, max_size=2))
def test_inner_bilinear_symmetric(u, v):
    rs = from_name("B2")
    a, b = rs.weight_from_coords(u), rs.weight_from_coords(v)
    assert inner(rs, a, b) == inner(rs, b, a)
    assert inner(rs, a + b, a + b) == inner(rs, a, a) + 2 * inner(rs, a, b) + inner(rs, b, b)
    assert inner(rs, a, a) >= 0


@pytest.mark.parametrize("name", [f"{series}{rank}" for series, ok in rootdata.SERIES_RANKS.items()
                                  for rank in range(1, 9) if ok(rank)])
def test_simple_roots_equal_root_coordinate_reference(name):
    """simple_root(i), column i of the Cartan matrix, is the weight with root coordinates e_i."""
    rs = from_name(name)
    for i in range(rs.rank):
        e_i = [int(i == j) for j in range(rs.rank)]
        assert rs.simple_root(i) == references.weight_from_root_coords(rs, e_i)


def test_weight_coordinate_roundtrip():
    rs = from_name("G2")
    for w in rs.positive_roots:
        assert rs.weight_from_coords(w.coords) == w
        assert references.weight_from_root_coords(rs, rs.root_coords(w)) == w
    # records are immutable and hash by value
    from alcove import affine, conventions, verify, weyl
    rs = from_name("A2")
    lam = rs.weight_from_coords([1, 2])
    w = references.longest_element(rs)
    table = conventions.character_table(rs, 1)
    for record, field in [(lam, "coords"), (w, "sign"), (table, "weights"),
                          (verify.Settings(), "seed")]:
        with pytest.raises(AttributeError):
            setattr(record, field, None)
    assert hash(lam) == hash(rs.weight_from_coords([1, 2]))
    assert hash(w) == hash(weyl.WeylElement(w.action, w.sign, w.word))
    assert hash(verify.Settings(seed=5)) == hash(verify.Settings(1, None, None, 5, 100))
    # the hash of the field tuple: it fixes the iteration order of sets of weights
    assert hash(lam) == hash((lam.coords,))


DATUM_SYSTEMS = ([f"A{r}" for r in range(1, 9)] + [f"B{r}" for r in range(2, 9)]
                 + [f"C{r}" for r in range(2, 9)] + [f"D{r}" for r in range(4, 10)]
                 + ["E6", "E7", "E8", "F4", "G2"])


@pytest.mark.parametrize("name", DATUM_SYSTEMS)
def test_integer_datum_equals_the_fraction_references(name):
    """The datum built in integers equals the one read off the Fraction references."""
    rs = from_name(name)
    d = rs.symmetrizers  # the reference: d_i c_ij symmetric and (theta|theta) = 2
    b = [[d[i] * c for c in row] for i, row in enumerate(rs.cartan)]
    assert b == [list(col) for col in zip(*b)]
    assert sum(x * y * b[i][j] for i, x in enumerate(rs.marks) for j, y in enumerate(rs.marks)) == 2
    assert rs.to_json_dict()["symmetrizers"] == [str(x) for x in d]
    flat = [c for row in rs.gram_weights for c in row]
    den, g = rs.nu_inverse
    assert (den, [c for row in g for c in row]) == intlinalg.clear_denominators(flat)
    assert rs.gram_of_M() == rs.gram_coroots
    assert rs.comarks == tuple(a * x for a, x in zip(rs.marks, d))
    assert all(type(c) is int for c in rs.comarks + (den,) + sum(g, ()) + sum(rs._gram_of_M, ()))
    divisors = prod(rootdata.smith_of_M(rs)[1])
    for k in range(5):
        assert rootdata.lattice_index(rs, k) == (k + rs.dual_coxeter) ** rs.rank * divisors


@settings(max_examples=60, deadline=None)
@given(st.lists(st.integers(-40, 40), min_size=1, max_size=5), st.integers(1, 60),
       st.integers(1, 12))
def test_torus_point_normal_form(y, m, factor):
    """y / m over a common factor is the point of the Fraction weight: equal, same hash, reduced."""
    weight = rootdata.Weight(tuple(Fraction(c, m) for c in y))
    point = rootdata.TorusPoint.of([factor * c for c in y], factor * m)
    assert point == rootdata.TorusPoint(weight) and hash(point) == hash(rootdata.TorusPoint(weight))
    assert point.m > 0 and all(type(c) is int for c in point.y + (point.m,))
    assert intlinalg.content(point.y + (point.m,)) == 1
    assert point.mu_star == weight and rootdata.TorusPoint(point.mu_star) == point
    assert point.is_zero == (not any(y)) == weight.is_zero
    if point.m == 1:
        assert all(type(c) is int for c in point.mu_star.coords)


def test_torus_point_examples():
    import copy
    import pickle
    p = rootdata.TorusPoint.of((2, -4, 0), 6)
    assert (p.y, p.m) == ((1, -2, 0), 3)
    assert p.mu_star.coords == (Fraction(1, 3), Fraction(-2, 3), 0)
    assert p == rootdata.TorusPoint(rootdata.Weight((Fraction(2, 6), Fraction(-4, 6), 0)))
    zero = rootdata.TorusPoint.of((0, 0), 7)
    assert zero.is_zero and (zero.y, zero.m) == ((0, 0), 1)
    assert zero == rootdata.TorusPoint(from_name("A2").zero_weight())
    assert pickle.loads(pickle.dumps(p)) == p and copy.deepcopy(p) == p
    assert [rootdata.rational_text(n, d) for n, d in [(2, 4), (-3, 6), (0, 5), (6, 3), (-7, 1)]] == \
        ["1/2", "-1/2", "0", "2", "-7"]
