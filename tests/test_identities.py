import random
from fractions import Fraction

import pytest

import references
from alcove import conventions, identities, rootdata, verify, weyl
from alcove.identities import (PoleError, fundamental_formula_residual,
                               orthogonality_matrix, random_rational_point,
                               subset_identity_residual)
from alcove.rootdata import TorusPoint, from_name


def point(rs, coords):
    return TorusPoint(rs.weight_from_coords(coords))


def test_fundamental_formula_rank1_example():
    a1 = from_name("A1")
    x = TorusPoint(references.weight_from_root_coords(a1, [Fraction(1, 10)]))  # (alpha|x) = 1/5
    y = TorusPoint(references.weight_from_root_coords(a1, [Fraction(1, 14)]))  # (alpha|y) = 1/7
    assert abs(fundamental_formula_residual(a1, x, y)) < 1e-9


def test_fundamental_formula_symmetric_in_the_two_points():
    a2 = from_name("A2")
    rng = random.Random(0)
    x, y = random_rational_point(a2, rng), random_rational_point(a2, rng)
    r1 = fundamental_formula_residual(a2, x, y)
    r2 = fundamental_formula_residual(a2, y, x)
    assert abs(abs(r1) - abs(r2)) < 1e-10


@pytest.mark.parametrize("name,samples,tol", [("A1", 50, 1e-9), ("A2", 50, 1e-8)])
def test_fundamental_formula_random_points(name, samples, tol):
    rs = from_name(name)
    rng = random.Random(101)
    done = 0
    while done < samples:
        x, y = random_rational_point(rs, rng), random_rational_point(rs, rng)
        try:
            assert abs(fundamental_formula_residual(rs, x, y)) < tol
        except PoleError:
            continue
        done += 1


def test_fundamental_formula_pole_detection():
    a1 = from_name("A1")
    regular = TorusPoint(references.weight_from_root_coords(a1, [Fraction(1, 10)]))
    with pytest.raises(PoleError):
        fundamental_formula_residual(a1, point(a1, [0]), regular)
    # middle-factor pole: (lam|x) = 1/3 and (lam|y) = 2/3 sum to an integer
    # while all root factors stay non-integral
    x = point(a1, [Fraction(2, 3)])
    y = point(a1, [Fraction(4, 3)])
    with pytest.raises(PoleError):
        fundamental_formula_residual(a1, x, y)


def test_subset_identity_a1_conventions():
    a1 = from_name("A1")
    x = point(a1, [Fraction(1, 3)])
    kept = subset_identity_residual(a1, x, include_empty=True)
    rejected = subset_identity_residual(a1, x, include_empty=False)
    assert abs(kept - 1) < 1e-12
    # the rejected convention misses by exactly the group order
    assert abs(abs(rejected - 1) - 2.0) < 1e-9


@pytest.mark.parametrize("name", ["A2", "B2", "G2"])
def test_subset_identity_value_one(name):
    rs = from_name(name)
    rng = random.Random(7)
    done = 0
    while done < 50:
        x = random_rational_point(rs, rng)
        try:
            assert abs(subset_identity_residual(rs, x, True) - 1) < 1e-8
        except PoleError:
            continue
        done += 1


@pytest.mark.parametrize("name,value", [("A2", 2), ("B2", 3), ("G2", 5), ("A3", 6)])
def test_subset_identity_fundamental_weight_variant(name, value):
    # with fundamental weights as generators the sum is the product of the
    # exponents of W, not 1 - the recorded reason the simple-root reading won
    rs = from_name(name)
    rng = random.Random(9)
    gens = [rs.fundamental_weight(i) for i in range(rs.rank)]
    while True:
        x = random_rational_point(rs, rng)
        try:
            got = subset_identity_residual(rs, x, True, gens)
            break
        except PoleError:
            continue
    assert abs(got - value) < 1e-8


def test_subset_identity_pole_detection():
    a2 = from_name("A2")
    with pytest.raises(PoleError):
        subset_identity_residual(a2, point(a2, [1, Fraction(1, 5)]), True)


@pytest.mark.parametrize("name,k", [("A1", 1), ("A1", 3), ("A2", 2), ("B2", 1), ("G2", 1)])
def test_orthogonality_identity_on_shifted_grid(name, k):
    rs = from_name(name)
    lams, matrix = orthogonality_matrix(rs, k)
    n = len(lams)
    for a in range(n):
        for b in range(n):
            assert abs(matrix[a][b] - (1.0 if a == b else 0.0)) < 1e-7


def test_orthogonality_a1_level1_is_two_by_two_identity():
    a1 = from_name("A1")
    lams, matrix = orthogonality_matrix(a1, 1)
    assert len(lams) == 2
    assert abs(matrix[0][0] - 1) < 1e-12 and abs(matrix[1][1] - 1) < 1e-12
    assert abs(matrix[0][1]) < 1e-12 and abs(matrix[1][0]) < 1e-12


def test_orthogonality_grid_mode_discriminator():
    # with the shared prefactor the full grid overshoots by exactly |W|
    for name, k in [("A2", 1), ("B2", 2)]:
        rs = from_name(name)
        order = weyl.weyl_order(rs)
        lams, plain = orthogonality_matrix(rs, k, grid_mode="full")
        corrected = [[z / order for z in row] for row in plain]  # the orbit correction
        n = len(lams)
        assert len(plain) == len(corrected) == n
        for a in range(n):
            assert len(plain[a]) == len(corrected[a]) == n
            for b in range(n):
                delta = 1.0 if a == b else 0.0
                assert abs(plain[a][b] - order * delta) < 1e-9
                assert abs(corrected[a][b] - delta) < 1e-12


def test_grid_measure_vanishes_at_singular_points():
    from alcove import chareval
    a1 = from_name("A1")
    table = conventions.character_table(a1, 1, "full")
    for (label, pt, wgt) in zip(table.labels, table.points, table.measure):
        if not chareval.is_regular(a1, pt):
            assert wgt == 0.0
        else:
            assert wgt > 0


def test_suite_reports():
    a1 = from_name("A1")
    settings = verify.Settings(level=2, samples=10, seed=5)
    [rep] = verify.fundamental_formula_suite(a1, settings)
    assert rep.passed and rep.samples == 10
    [rep] = verify.subset_identity_suite(a1, settings)
    assert rep.passed
    rep = verify.orthogonality_suite(a1, settings)[-1]
    assert rep.passed and rep.detail["k"] == 2
    d = rep.to_json_dict()
    assert set(d) == {"name", "system", "samples", "max_residual", "tolerance",
                      "passed", "detail"}


@pytest.mark.parametrize("suite,draws_per_sample", [
    (verify.fundamental_formula_suite, 2), (verify.subset_identity_suite, 1)])
def test_sampled_suite_with_only_poles_fails(monkeypatch, suite, draws_per_sample):
    a1 = from_name("A1")
    calls = []

    def pole(rs, rng):
        calls.append(1)
        return TorusPoint(rs.zero_weight())

    monkeypatch.setattr(identities, "random_rational_point", pole)
    [rep] = suite(a1, verify.Settings(samples=4, seed=0))
    assert not rep.passed
    assert rep.samples == 0 and rep.detail == {"samples_requested": 4}
    assert len(calls) == draws_per_sample * verify.MAX_DRAWS_PER_SAMPLE * 4


def test_random_points_are_reproducible():
    a2 = from_name("A2")
    xs = [random_rational_point(a2, random.Random(42)) for _ in range(2)]
    assert xs[0] == xs[1]
