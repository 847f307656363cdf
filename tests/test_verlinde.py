import random
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import oracles
from alcove import chareval, conventions, verlinde, weyl
from alcove.rootdata import Weight, from_name, weights_at_level
from alcove.verlinde import (InconsistentInputError, contragredient, extract_multiplicities,
                             fusion_coefficients, fusion_table, synthesize)


def coords(w):
    return tuple(int(c) for c in w.coords)


def test_weights_at_level_examples():
    for name in ["A1", "A2", "B2", "G2"]:
        rs = from_name(name)
        assert weights_at_level(rs, 0) == [rs.zero_weight()]
    a1 = from_name("A1")
    assert [coords(w) for w in weights_at_level(a1, 2)] == [(0,), (1,), (2,)]
    a2 = from_name("A2")
    assert [coords(w) for w in weights_at_level(a2, 1)] == [(0, 0), (0, 1), (1, 0)]


def test_contragredient_examples():
    a1 = from_name("A1")
    assert contragredient(a1, a1.zero_weight()) == a1.zero_weight()
    lam = a1.fundamental_weight(0).scale(3)
    assert contragredient(a1, lam) == lam
    a2 = from_name("A2")
    assert contragredient(a2, a2.fundamental_weight(0)) == a2.fundamental_weight(1)
    with pytest.raises(ValueError):
        contragredient(a2, -a2.fundamental_weight(0))


@settings(max_examples=25, deadline=None)
@given(st.lists(st.integers(0, 5), min_size=2, max_size=2))
def test_contragredient_involutive_and_dominant(cs):
    rs = from_name("G2")
    lam = rs.weight_from_coords(cs)
    bar = contragredient(rs, lam)
    assert bar.is_dominant
    assert contragredient(rs, bar) == lam


def test_contragredient_folds_integers_like_the_fraction_fold(monkeypatch):
    # the fold commutes with scaling by m > 0, so folding the integer numerators
    # of -a and dividing by m is the fold of -a's Fractions
    fraction_fold = weyl.fold

    def reference(rs, a):
        return Weight(fraction_fold(rs, (-a).coords)[1])

    def integer_fold(rs, a, *rest):
        a = tuple(a)
        assert all(type(c) is int for c in a), a
        return fraction_fold(rs, a, *rest)

    monkeypatch.setattr(weyl, "fold", integer_fold)
    for name in ["A1", "A2", "A3", "A4", "B2", "B3", "C3", "D4", "D5", "E6", "F4", "G2"]:
        rs = from_name(name)
        for lam in weights_at_level(rs, 3):
            assert contragredient(rs, lam) == reference(rs, lam)
    rs = from_name("E6")
    lam = rs.weight_from_coords([Fraction(1, 2), 0, Fraction(2, 3), 1, 0, Fraction(5, 6)])
    assert not lam.is_integral and contragredient(rs, lam) == reference(rs, lam)


def test_contragredient_character_is_conjugate():
    rs = from_name("A2")
    lam = rs.fundamental_weight(0)
    bar = contragredient(rs, lam)
    for _, p in chareval.shifted_grid(rs, 2):
        lhs = chareval.character(rs, bar, p)
        rhs = chareval.character(rs, lam, p).conjugate()
        assert abs(lhs - rhs) < 1e-10


def test_unit_vector_recovery():
    rs = from_name("A2")
    k = 1
    lams = weights_at_level(rs, k)
    values = synthesize(rs, k, {lams[0]: 1})
    got = extract_multiplicities(rs, k, values)
    assert got.multiplicities == {lams[0]: 1, lams[1]: 0, lams[2]: 0}


@pytest.mark.parametrize("name,k", [("A1", 3), ("A2", 2), ("B2", 2), ("G2", 1)])
def test_multiplicity_roundtrip(name, k):
    rs = from_name(name)
    rng = random.Random(17)
    lams = weights_at_level(rs, k)
    for _ in range(20):
        m = {lam: rng.randrange(0, 10) for lam in lams}
        got = extract_multiplicities(rs, k, synthesize(rs, k, m))
        assert got.multiplicities == m
        assert got.max_residual < 1e-9


def test_roundtrip_on_full_grid_measure():
    rs = from_name("B2")
    rng = random.Random(23)
    m = {lam: rng.randrange(0, 10) for lam in weights_at_level(rs, 1)}
    got = extract_multiplicities(rs, 1, synthesize(rs, 1, m, "full"), "full")
    assert got.multiplicities == m


def test_inconsistent_input_rejected():
    rs = from_name("A1")
    k = 1
    values = {label: 0.37 + 0.2j for label, _ in chareval.shifted_grid(rs, k)}
    with pytest.raises(InconsistentInputError):
        extract_multiplicities(rs, k, values)


def test_fusion_row_equals_extraction_of_product():
    rs = from_name("A2")
    k = 2
    a, b = weights_at_level(rs, k)[1:3]
    row = fusion_coefficients(rs, k, a, b)
    grid = chareval.shifted_grid(rs, k)
    values = {label: chareval.character(rs, a, p) * chareval.character(rs, b, p)
              for label, p in grid}
    assert extract_multiplicities(rs, k, values).multiplicities == row


@pytest.mark.parametrize("name,k,mode", [("A2", 3, "shifted"), ("B2", 2, "full"),
                                         ("A2", 6, "shifted"), ("A3", 2, "shifted"),
                                         ("C3", 2, "shifted"), ("G2", 4, "shifted"),
                                         ("A2", 4, "full")])
def test_fusion_pair_rows_equal_the_table(name, k, mode):
    rs = from_name(name)
    table = fusion_table(rs, k, mode)
    ws = table.weights
    for i, a in enumerate(ws):
        for j, b in enumerate(ws):
            row = fusion_coefficients(rs, k, a, b, mode)
            assert list(row) == list(ws)
            assert list(row.values()) == table.dense[i][j]


@pytest.mark.parametrize("name,k", [("A2", 3), ("A3", 2), ("B2", 2), ("G2", 2), ("D4", 1),
                                    ("E6", 1)])
def test_each_unordered_pair_keeps_one_row(name, k):
    rs = from_name(name)
    table = fusion_table(rs, k)
    ws = table.weights
    for i, a in enumerate(ws):
        for j, b in enumerate(ws):
            assert table.dense[i][j] is table.dense[j][i]
            assert table.dense[i][j] == list(fusion_coefficients(rs, k, a, b).values())


@pytest.mark.parametrize("factor,message", [(-1, "negative fusion coefficient at "),
                                            (0.5, "rounding residual ")])
def test_inconsistent_fusion_rows_are_rejected(monkeypatch, factor, message):
    # the real character table with every dual column scaled by factor
    rs = from_name("A2")
    table = conventions.character_table(rs, 2)
    skewed = table._replace(duals=[[z * factor for z in dual] for dual in table.duals])
    monkeypatch.setattr(conventions, "character_table", lambda *args: skewed)
    with pytest.raises(InconsistentInputError, match=message):
        fusion_coefficients(rs, 2, rs.zero_weight(), rs.fundamental_weight(0))
    with pytest.raises(InconsistentInputError, match=message):
        fusion_table(rs, 2)


def test_fusion_unit_row():
    rs = from_name("B2")
    k = 2
    zero = rs.zero_weight()
    for b in weights_at_level(rs, k):
        row = fusion_coefficients(rs, k, zero, b)
        assert all(n == (1 if c == b else 0) for c, n in row.items())


def test_a1_level_examples():
    a1 = from_name("A1")
    lam = a1.fundamental_weight(0)
    row_k1 = fusion_coefficients(a1, 1, lam, lam)
    assert row_k1[a1.zero_weight()] == 1
    assert row_k1[lam] == 0
    row_k2 = fusion_coefficients(a1, 2, lam, lam)
    assert row_k2[lam.scale(2)] == 1  # admissible at level 2


@pytest.mark.parametrize("k", range(1, 7))
def test_a1_tables_match_truncated_rule(k):
    a1 = from_name("A1")
    table = fusion_table(a1, k)
    ix = table.weights.index
    labels = {lam: coords(lam)[0] for lam in table.weights}
    for a in table.weights:
        for b in table.weights:
            for c in table.weights:
                assert table.dense[ix(a)][ix(b)][ix(c)] == \
                    oracles.truncated_clebsch_gordan(k, labels[a], labels[b], labels[c])
    assert table.max_residual < 1e-6


def test_a2_level1_is_cyclic_group_of_order_three():
    a2 = from_name("A2")
    table = fusion_table(a2, 1)
    ix = table.weights.index
    zero, w1, w2 = table.weights  # lexicographic: 0, Lambda_2, Lambda_1
    charges = {zero: 0, w1: None, w2: None}
    # each pair fuses to a single channel: the ring is a group algebra
    for a in table.weights:
        for b in table.weights:
            channels = [c for c in table.weights if table.dense[ix(a)][ix(b)][ix(c)]]
            assert len(channels) == 1
    # and that group is Z/3: cubes of the nonzero labels are the unit
    for g in (w1, w2):
        sq = next(c for c in table.weights if table.dense[ix(g)][ix(g)][ix(c)])
        cube = next(c for c in table.weights if table.dense[ix(sq)][ix(g)][ix(c)])
        assert cube == zero


@pytest.mark.parametrize("name,k", [("A1", 4), ("A2", 2), ("B2", 2), ("G2", 1)])
def test_fusion_invariants(name, k):
    rs = from_name(name)
    table = fusion_table(rs, k)
    ws, n = table.weights, table.dense
    r = range(len(ws))
    bar = [ws.index(contragredient(rs, c)) for c in ws]
    assert table.max_residual < 1e-6
    for a in r:
        for b in r:
            for c in r:
                assert n[a][b][c] >= 0
                assert n[a][b][c] == n[b][a][c]
                # Frobenius-type symmetry through the contragredient
                assert n[a][b][c] == n[a][bar[c]][bar[b]]
    # associativity of the product
    for a in r:
        for b in r:
            for c in r:
                for d in r:
                    lhs = sum(n[a][b][e] * n[e][c][d] for e in r)
                    rhs = sum(n[b][c][e] * n[a][e][d] for e in r)
                    assert lhs == rhs


def test_table_cap(monkeypatch):
    rs = from_name("A2")
    assert verlinde.ResourceError is weyl.ResourceError
    with monkeypatch.context() as patched:
        patched.setattr(verlinde, "DEFAULT_TABLE_CAP", 10)  # read at call time
        with pytest.raises(verlinde.ResourceError, match="table size 1000 exceeds cap 10"):
            fusion_table(rs, 3)
    # refused from the count alone: listing these 302621 weights takes seconds
    with pytest.raises(verlinde.ResourceError, match=f"table size {302621 ** 3} exceeds cap"):
        fusion_table(from_name("A3"), 120)


@pytest.mark.parametrize("name,k", [("A2", 2), ("B2", 2), ("G2", 2)])
def test_dense_table_matches_entries(name, k):
    rs = from_name(name)
    table = fusion_table(rs, k)
    ws = table.weights
    nonzero = sum(n != 0 for slab in table.dense for row in slab for n in row)
    assert nonzero == len(table.entries)
    assert table.entries == {(a, b, wc): table.dense[i][j][c]
                             for i, a in enumerate(ws) for j, b in enumerate(ws)
                             for c, wc in enumerate(ws) if table.dense[i][j][c]}
