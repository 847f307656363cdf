from fractions import Fraction

import pytest

import oracles
from alcove import affine, intlinalg, rootdata, stabilizers, weyl
from alcove.rootdata import TorusPoint, from_name, inner
from alcove.stabilizers import DomainError, enumerate_faces, face_data

FACE_SYSTEMS = ["A1", "A2", "A3", "B2", "C3", "G2", "D4"]


def test_interior_point_has_trivial_stabilizer():
    rs = from_name("A2")
    mu = TorusPoint(rs.rho.scale(Fraction(1, 2 * rs.dual_coxeter)))
    fd = face_data(rs, mu)
    assert fd.realized_simple_roots == ()
    assert fd.rho_mu.mu_star == rs.zero_weight()
    assert fd.isotropy_order == 1
    assert not fd.on_affine_wall


def test_point_outside_alcove_rejected():
    rs = from_name("A2")
    with pytest.raises(DomainError):
        face_data(rs, TorusPoint(rs.weight_from_coords([3, 0])))
    with pytest.raises(DomainError):
        face_data(rs, TorusPoint(rs.weight_from_coords([-1, 0])))


def test_a1_wall_vertex():
    rs = from_name("A1")
    mu = TorusPoint(rs.fundamental_weight(0))
    fd = face_data(rs, mu)
    assert fd.on_affine_wall and fd.delta0 == ()
    assert fd.labels == ("affine",)
    assert tuple(f.mu_star for f in fd.fund_weights_mu) == (-mu.mu_star,)
    assert fd.n_value == 1


def test_g2_orbifold_vertex_has_order_two_isotropy():
    rs = from_name("G2")
    i = rs.comarks.index(2)
    mu = TorusPoint(rs.fundamental_weight(i).scale(Fraction(1, 2)))
    fd = face_data(rs, mu)
    assert fd.on_affine_wall
    assert fd.isotropy_order % 2 == 0


@pytest.mark.parametrize("name", FACE_SYSTEMS)
def test_face_enumeration_covers_all_wall_subsets(name):
    rs = from_name(name)
    faces = enumerate_faces(rs)
    assert len(faces) == 2 ** (rs.rank + 1) - 1
    seen = set()
    for walls, fd in faces:
        seen.add(walls)
        assert fd.delta0 == tuple(sorted(w for w in walls if w != "affine"))
        assert fd.on_affine_wall == ("affine" in walls)
    assert len(seen) == len(faces)


@pytest.mark.parametrize("name", FACE_SYSTEMS)
def test_duality_and_rho_mu(name):
    rs = from_name(name)
    for _, fd in enumerate_faces(rs):
        # 2(lambda_i | gamma_j)/(gamma_j|gamma_j) = delta_ij over the realized system
        for i, f in enumerate(fd.fund_weights_mu):
            for j, gamma in enumerate(fd.realized_simple_roots):
                val = 2 * inner(rs, f.mu_star, gamma) / inner(rs, gamma, gamma)
                assert val == (1 if i == j else 0)
        # rho_mu is the half sum of the sub-system's positive roots
        half = rs.zero_weight()
        for row in stabilizers.sub_positive_roots(rs, fd):
            half = half + rs.weight_from_coords(row).scale(Fraction(1, 2))
        assert half == fd.rho_mu.mu_star


@pytest.mark.parametrize("name", ["A1", "A2", "A3", "A4", "B2", "B3", "B4", "C3", "D4", "F4",
                                  "G2", "E6"])
def test_sub_root_rows_equal_the_fraction_construction(name):
    """Each row is the sub-root built as a Fraction weight, sum_k c_k gamma_k, in closure order."""
    rs = from_name(name)
    for _, fd in enumerate_faces(rs):
        gammas = fd.realized_simple_roots
        nodes = ((-1,) if fd.on_affine_wall else ()) + fd.delta0
        cartan = [[stabilizers._coroot_pairing(rs, g.coords, i) for g in gammas] for i in nodes]
        expected = [sum((g.scale(c) for c, g in zip(coeffs, gammas)), rs.zero_weight())
                    for coeffs in rootdata._positive_root_closure(cartan)]
        rows = stabilizers.sub_positive_roots(rs, fd)
        assert all(type(c) is int for row in rows for c in row)
        assert [rs.weight_from_coords(row) for row in rows] == expected


@pytest.mark.parametrize("name", FACE_SYSTEMS + ["F4", "E6"])
def test_realized_cartan_equals_form_reference(name):
    """The coordinate reads <gamma_j, gamma_i^v> equal 2(gamma_i|gamma_j)/(gamma_i|gamma_i)."""
    rs = from_name(name)
    for _, fd in enumerate_faces(rs):
        gammas = fd.realized_simple_roots
        nodes = ((-1,) if fd.on_affine_wall else ()) + fd.delta0
        read = [[stabilizers._coroot_pairing(rs, gj.coords, i) for gj in gammas] for i in nodes]
        assert read == [[2 * inner(rs, gi, gj) / inner(rs, gi, gi) for gj in gammas]
                        for gi in gammas]


@pytest.mark.parametrize("name", FACE_SYSTEMS)
def test_rho_shift_laws_exact(name):
    rs = from_name(name)
    hv = rs.dual_coxeter
    for _, fd in enumerate_faces(rs):
        ident = weyl.identity_element(rs)
        shift = stabilizers.rho_shift(rs, fd, ident)
        assert shift.sub_difference.is_zero and shift.full_difference.is_zero
        for label, fin, _ in stabilizers.stabilizer_generators(rs, fd):
            shift = stabilizers.rho_shift(rs, fd, fin)
            if label == "affine":
                assert shift.wall_correction == rs.highest_root.scale(hv)
            else:
                assert shift.wall_correction.is_zero
                assert shift.sub_difference == shift.full_difference


def test_rho_shift_off_wall_difference_is_minus_root():
    rs = from_name("A2")
    mu = TorusPoint(rs.fundamental_weight(1).scale(Fraction(1, 3)))  # alpha_0 wall only
    fd = face_data(rs, mu)
    assert fd.delta0 == (0,) and not fd.on_affine_wall
    s0 = affine.simple_reflection(rs, 0)
    shift = stabilizers.rho_shift(rs, fd, s0)
    assert shift.sub_difference == -rs.simple_root(0)
    assert shift.full_difference == -rs.simple_root(0)


def test_rho_shift_rejects_non_generators():
    rs = from_name("A2")
    mu = TorusPoint(rs.fundamental_weight(1).scale(Fraction(1, 3)))
    fd = face_data(rs, mu)
    with pytest.raises(DomainError):
        stabilizers.rho_shift(rs, fd, affine.simple_reflection(rs, 1))


@pytest.mark.parametrize("name", ["A1", "A2", "B2", "G2"])
def test_lattice_phase_law(name):
    rs = from_name(name)
    hv = rs.dual_coxeter
    for _, fd in enumerate_faces(rs):
        for k in (1, 2, 3):
            for row in rs.lattice_Mstar_basis:
                t = tuple(Fraction(x, k + hv) for x in row)
                assert stabilizers.lattice_phase_check(rs, fd, k, t)


def test_lattice_phase_rejects_non_lattice_point():
    rs = from_name("A1")
    fd = face_data(rs, TorusPoint(rs.fundamental_weight(0)))
    with pytest.raises(DomainError):
        stabilizers.lattice_phase_check(rs, fd, 1, (Fraction(1, 7),))


@pytest.mark.parametrize("name", ["A1", "A2", "B2", "G2"])
def test_lattice_phase_off_lattice_probe_fails(name):
    rs = from_name(name)
    hv = rs.dual_coxeter
    failed = False
    for _, fd in enumerate_faces(rs):
        if not fd.on_affine_wall:
            continue
        for k in (1, 2, 3):
            for row in rs.lattice_Mstar_basis:
                bad = tuple(Fraction(x, k + hv + 1) for x in row)
                if not stabilizers.lattice_phase_check(rs, fd, k, bad, require_lattice=False):
                    failed = True
    assert failed


def test_lattice_phase_shifts_are_computed_once_per_face_and_level(monkeypatch):
    rs = from_name("B3")
    n = 1 + rs.dual_coxeter
    faces = [fd for _, fd in enumerate_faces(rs)]
    rows = rs.lattice_Mstar_basis
    first = [stabilizers.lattice_phase_check(rs, fd, 1, tuple(Fraction(x, n) for x in rows[0]))
             for fd in faces]
    # every later probe reuses the cached shifts: recomputing them would walk W_mu again
    monkeypatch.setattr(stabilizers, "stabilizer_subgroup", None)
    for row in rows[1:]:
        assert all(stabilizers.lattice_phase_check(rs, fd, 1, tuple(Fraction(x, n) for x in row))
                   for fd in faces)
    assert all(first)
    assert not all(stabilizers.lattice_phase_check(
        rs, fd, 1, tuple(Fraction(x, n + 1) for x in row), require_lattice=False)
        for fd in faces for row in rows)


def test_library_reads_nu_in_integers_only(monkeypatch):
    # the Fraction nu, coroot_of and coroot_to_weight_space, and gram_weights are test
    # references; with all three made to fail, faces, lifts, alcoves and phases still run
    def fraction_nu(*args):
        raise AssertionError("the library read the Fraction nu")

    monkeypatch.setattr(rootdata.RootSystem, "coroot_of", fraction_nu)
    monkeypatch.setattr(rootdata.RootSystem, "coroot_to_weight_space", fraction_nu)
    stabilizers.stabilizer_subgroup.cache_clear()
    stabilizers._phase_shifts.cache_clear()
    for rs in map(from_name, ["A2", "B2", "G2", "B3"]):
        monkeypatch.setattr(rs, "gram_weights", None)
        n = 1 + rs.dual_coxeter
        for _, fd in enumerate_faces(rs):
            for _, aff in stabilizers.stabilizer_subgroup(rs, fd):
                assert affine.affine_act(rs, aff, fd.mu, 1) == fd.mu
            for _, fin, _ in stabilizers.stabilizer_generators(rs, fd):
                stabilizers.rho_shift(rs, fd, fin)
            assert all(stabilizers.lattice_phase_check(rs, fd, 1, tuple(Fraction(x, n) for x in row))
                       for row in rs.lattice_Mstar_basis)
        x = TorusPoint(rs.weight_from_coords([Fraction(7, 3)] + [Fraction(-5, 2)] * (rs.rank - 1)))
        g, ap = affine.find_alcove(rs, 2, x)
        assert not g.is_identity and affine.affine_act(rs, g, x, 2) == ap.point


@pytest.mark.parametrize("name", FACE_SYSTEMS)
def test_epsilon_covector_primitivity(name):
    rs = from_name(name)
    from alcove.intlinalg import content
    for _, fd in enumerate_faces(rs):
        scaled = [fd.n_value * x for x in fd.epsilon_covee]
        assert all(x.denominator == 1 for x in scaled)
        if any(scaled):
            assert content(int(x) for x in fd.epsilon_covee if x) == 1
            assert content(int(x) for x in scaled) == fd.n_value


@pytest.mark.parametrize("name", FACE_SYSTEMS)
def test_isotropy_orders_against_quotient_enumeration(name):
    rs = from_name(name)
    for _, fd in enumerate_faces(rs):
        assert oracles.isotropy_order_by_enumeration(rs, fd) == fd.isotropy_order


@pytest.mark.parametrize("name", ["A1", "A2", "A3", "A4"])
def test_a_series_has_trivial_n(name):
    rs = from_name(name)
    for _, fd in enumerate_faces(rs):
        assert fd.n_value == 1


def test_stabilizer_subgroup_is_closed_and_paired():
    for rs in map(from_name, ["A1", "A2", "A3", "B2", "B3", "C3", "G2", "D4"]):
        for _, fd in enumerate_faces(rs):
            pairs = stabilizers.stabilizer_subgroup(rs, fd)
            mu = fd.mu.mu_star
            for fin, aff in pairs:
                # each lift fixes the face point at level 1, its translation is the
                # Fraction reference nu^-1(mu - w mu) = gram_weights (mu - w mu) ...
                assert affine.affine_act(rs, aff, fd.mu, 1) == fd.mu
                assert aff.translation == intlinalg.mat_vec(rs.gram_weights, (mu - affine.act(fin, mu)).coords)
                # ... and factors through its finite part with translation in M
                assert rs.in_lattice_M(affine.factor_affine(rs, aff, fin))
            # the affine parts hold the identity and are closed under left
            # multiplication by the generators' lifts, so they are the group those generate
            keys = {(aff.finite.action, aff.translation) for _, aff in pairs}
            assert len(keys) == len(pairs) and pairs[0][1].is_identity
            for label, fin, gen in stabilizers.stabilizer_generators(rs, fd):
                for _, aff in pairs:
                    product = gen * aff
                    assert (product.finite.action, product.translation) in keys
                if label == "affine":  # s_theta, then translation by theta^v
                    assert gen == affine.AffineWeylElement(
                        affine.reflection_in_root(rs, rs.highest_root), rs.comarks)
                else:
                    assert gen == affine.AffineWeylElement(fin, (0,) * rs.rank)


def reference_closure(rs, fd):
    """(finite action, translation) of each element the generators' lifts generate, by closure."""
    gens = [gen for _, _, gen in stabilizers.stabilizer_generators(rs, fd)]
    identity = affine.identity_affine(rs)
    group, seen = [identity], {(identity.finite.action, identity.translation)}
    for g in group:  # a queue that grows while it is walked
        for gen in gens:
            product = gen * g
            key = (product.finite.action, product.translation)
            if key not in seen:
                seen.add(key)
                group.append(product)
    return seen


STABILIZER_SYSTEMS = ["A1", "A2", "A3", "A4", "B2", "B3", "B4", "C3", "C4", "D4", "D5", "G2", "F4"]


@pytest.mark.parametrize("name", STABILIZER_SYSTEMS)
def test_stabilizer_subgroup_is_the_group_its_generators_generate(name):
    # W_mu is read off the walk of W by a membership test; the wall reflections'
    # lifts generate the same group, with the same translations (Bourbaki, Lie V 3.3)
    rs = from_name(name)
    for _, fd in enumerate_faces(rs):
        pairs = stabilizers.stabilizer_subgroup(rs, fd)
        assert all(aff.finite == fin for fin, aff in pairs)
        assert {(fin.action, aff.translation) for fin, aff in pairs} == reference_closure(rs, fd)
        assert len(pairs) == len({fin.action for fin, _ in pairs})


def test_stabilizer_subgroup_multiplies_no_weyl_element(monkeypatch):
    faces = {name: [fd for _, fd in enumerate_faces(from_name(name))] for name in ["B3", "D4", "G2"]}

    def no_product(*args):
        raise AssertionError("stabilizer_subgroup multiplied Weyl elements")

    monkeypatch.setattr(weyl.WeylElement, "__mul__", no_product)
    stabilizers.stabilizer_subgroup.cache_clear()
    for name, fds in faces.items():
        rs = from_name(name)
        assert sum(len(stabilizers.stabilizer_subgroup(rs, fd)) for fd in fds) > len(fds)


def test_stabilizer_subgroup_obeys_the_group_cap(monkeypatch):
    # the walk of W refuses E7 (|W| = 2,903,040) before any work, even at an
    # interior point whose stabilizer is trivial
    def no_work(*args):
        raise AssertionError("W was walked past the group cap")

    rs = from_name("E7")
    fd = face_data(rs, TorusPoint(rs.rho.scale(Fraction(1, 2 * rs.dual_coxeter))))
    assert fd.realized_simple_roots == ()
    for module, name in ((weyl, "iter_weyl"), (weyl, "orbit"), (affine, "lift")):
        monkeypatch.setattr(module, name, no_work)
    with pytest.raises(weyl.ResourceError, match="exceeds cap"):
        stabilizers.stabilizer_subgroup(rs, fd)


def reference_fund_weights(rs, fd):
    """Fundamental weights of W_mu by exact orthogonal projection onto the realized roots.

    On the wall -mu pairs to 1 with (-theta)^v and Lambda_i - a_i^v mu pairs to
    delta_ij with the realized coroots; off it Lambda_i does.  Projection keeps
    those pairings, so the projected vectors are the fundamental weights.
    """
    span = fd.realized_simple_roots
    if not span:
        return ()
    gram_inv = intlinalg.mat_inverse([[inner(rs, a, b) for b in span] for a in span])

    def proj(v):
        c = intlinalg.mat_vec(gram_inv, [inner(rs, g, v) for g in span])
        out = rs.zero_weight()
        for ci, gi in zip(c, span):
            out = out + gi.scale(ci)
        return out

    mu = fd.mu.mu_star
    if fd.on_affine_wall:
        targets = [-mu] + [rs.fundamental_weight(i) - mu.scale(rs.comarks[i]) for i in fd.delta0]
    else:
        targets = [rs.fundamental_weight(i) for i in fd.delta0]
    return tuple(proj(v) for v in targets)


@pytest.mark.parametrize("name", FACE_SYSTEMS + ["F4"])
def test_fundamental_weights_equal_orthogonal_projection(name):
    rs = from_name(name)
    for _, fd in enumerate_faces(rs):
        expected = reference_fund_weights(rs, fd)
        assert tuple(f.mu_star for f in fd.fund_weights_mu) == expected
        rho_mu = rs.zero_weight()
        for f in expected:
            rho_mu = rho_mu + f
        assert fd.rho_mu.mu_star == rho_mu
