import random
from fractions import Fraction

import pytest

import references
from alcove import affine, chareval, identities, levelshift, rootdata, stabilizers, weyl
from alcove.levelshift import (make_witness, regular_lattice_points,
                               shift_rule_residual, wall_witnesses)
from alcove.rootdata import TorusPoint, from_name, inner


def lattice_exponential_is_one(rs, witness, x):
    """Exact check that (k+h^v) <nu(v), x> is an integer angle."""
    n = witness.k + rs.dual_coxeter
    angle = n * inner(rs, references.coroot_to_weight_space(rs, witness.v), x.mu_star)
    return angle.denominator == 1


def wall_faces(rs):
    return [fd for _, fd in stabilizers.enumerate_faces(rs) if fd.on_affine_wall]


def test_trivial_witness_has_zero_residual():
    rs = from_name("A1")
    fd = wall_faces(rs)[0]
    ident_wit = make_witness(rs, fd, references.identity_affine(rs),
                             weyl.identity_element(rs), 1, rs.fundamental_weight(0))
    assert ident_wit.v == (0,)
    x = regular_lattice_points(rs, 1)[0]
    assert abs(shift_rule_residual(rs, ident_wit, x)) < 1e-14


def test_a1_wall_generator_exponential_is_one_on_lattice():
    # e^{(k+h^v) v} at m/(k+h^v): the angle 3<theta^v, m/3> is an integer
    rs = from_name("A1")
    fd = wall_faces(rs)[0]
    wit = make_witness(rs, fd, references.affine_reflection_theta(rs),
                       affine.reflection_in_root(rs, rs.highest_root), 1,
                       rs.fundamental_weight(0))
    assert wit.v == rs.comarks
    for m, p in chareval.full_grid(rs, 1):
        assert lattice_exponential_is_one(rs, wit, p)


def test_exponential_fails_off_lattice():
    rs = from_name("A1")
    fd = wall_faces(rs)[0]
    wit = make_witness(rs, fd, references.affine_reflection_theta(rs),
                       affine.reflection_in_root(rs, rs.highest_root), 1,
                       rs.fundamental_weight(0))
    n = 1 + rs.dual_coxeter
    off = TorusPoint(references.coroot_to_weight_space(rs, rs.lattice_Mstar_basis[0])
                     .scale(Fraction(1, n + 1)))
    assert not lattice_exponential_is_one(rs, wit, off)


@pytest.mark.parametrize("name", ["A1", "A2", "B2"])
def test_lattice_form_holds_at_lattice_points(name):
    rs = from_name(name)
    for fd in wall_faces(rs):
        for k in (1, 2):
            lams = rootdata.weights_at_level(rs, k)
            points = regular_lattice_points(rs, k)[:8]
            for lam in lams[:3]:
                for wit in wall_witnesses(rs, fd, k, lam):
                    for x in points:
                        assert lattice_exponential_is_one(rs, wit, x)
                        assert abs(shift_rule_residual(rs, wit, x)) < 1e-9


@pytest.mark.parametrize("name", ["A1", "A2", "B2"])
def test_full_rule_holds_everywhere(name):
    rs = from_name(name)
    rng = random.Random(31)
    for fd in wall_faces(rs):
        lam = rootdata.weights_at_level(rs, 1)[-1]
        for wit in wall_witnesses(rs, fd, 1, lam):
            done = 0
            while done < 3:
                x = identities.random_rational_point(rs, rng)
                try:
                    assert abs(shift_rule_residual(rs, wit, x, lattice_form=False)) < 1e-9
                except identities.PoleError:
                    continue
                done += 1


@pytest.mark.parametrize("name", ["A1", "A2", "B2"])
def test_lattice_form_fails_off_lattice(name):
    # search m in M* with x = nu(m)/(k+h^v+1) regular and a failing witness
    from itertools import product
    rs = from_name(name)
    k = 1
    n = k + rs.dual_coxeter
    worst = 0.0
    probes = []
    for coeffs in product(range(3), repeat=rs.rank):
        if not any(coeffs):
            continue
        m = tuple(sum(c * row[i] for c, row in zip(coeffs, rs.lattice_Mstar_basis))
                  for i in range(rs.rank))
        x = TorusPoint(references.coroot_to_weight_space(rs, m).scale(Fraction(1, n + 1)))
        if chareval.is_regular(rs, x):
            probes.append(x)
    for fd in wall_faces(rs):
        lam = rootdata.weights_at_level(rs, k)[-1]
        for wit in wall_witnesses(rs, fd, k, lam):
            if not any(wit.v):
                continue
            for x in probes:
                worst = max(worst, abs(shift_rule_residual(rs, wit, x)))
    assert worst >= 0.1


def test_witness_rejects_mismatched_pair():
    rs = from_name("A1")
    fd = wall_faces(rs)[0]
    with pytest.raises(affine.MismatchError):
        make_witness(rs, fd, references.affine_reflection_theta(rs),
                     weyl.identity_element(rs), 1, rs.zero_weight())


def test_pole_points_are_rejected():
    rs = from_name("A1")
    fd = wall_faces(rs)[0]
    wit = wall_witnesses(rs, fd, 1, rs.fundamental_weight(0))[1]
    with pytest.raises(identities.PoleError):
        shift_rule_residual(rs, wit, TorusPoint(rs.zero_weight()))


def test_regular_lattice_points_are_regular_grid_members():
    rs = from_name("A2")
    pts = regular_lattice_points(rs, 1)
    full = [p for _, p in chareval.full_grid(rs, 1)]
    assert all(p in full for p in pts)
    assert all(chareval.is_regular(rs, p) for p in pts)


@pytest.mark.parametrize("name", ["A1", "A2", "B2", "G2", "A3", "D4"])
def test_witness_shift_row_is_the_fraction_image_of_v(name):
    # nu(v) read in integers as gram_of_M() v equals the Fraction path
    rs = from_name(name)
    count = 0
    for fd in wall_faces(rs):
        for wit in wall_witnesses(rs, fd, 1, rs.zero_weight()):
            nu = references.coroot_to_weight_space(rs, wit.v).coords
            assert all(c.denominator == 1 for c in nu)
            assert wit.rows[1] == tuple(map(int, nu))
            count += 1
    assert count > 0
