import random
from collections import Counter
from fractions import Fraction
from functools import lru_cache
from itertools import permutations
from operator import mul

import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

import oracles
import references
from alcove import affine, intlinalg, rootdata, weyl
from alcove.rootdata import TorusPoint, from_name, inner


def is_negative_root_vector(rs, w):
    return all(x <= 0 for x in rs.root_coords(w)) and not w.is_zero


def reference_enumeration(rs):
    """The matrix-product BFS: full products s_i * w, duplicates keyed by the whole matrix."""
    gens = [references.simple_reflection(rs, i) for i in range(rs.rank)]
    ident = weyl.identity_element(rs)
    seen = {ident.action: ident}
    frontier = [ident]
    while frontier:
        nxt = []
        for w in frontier:
            for s in gens:
                u = s * w
                if u.action not in seen:
                    seen[u.action] = u
                    nxt.append(u)
        frontier = nxt
    return sorted(seen.values(), key=lambda w: (len(w.word), w.word))


def reference_skeleton(rs):
    """The BFS that carries each element's word and sorts each word length by it."""
    supports = [{k: row[i] for k, row in enumerate(rs.cartan) if row[i]} for i in range(rs.rank)]
    rho = (1,) * rs.rank
    seen, skeleton = {rho}, [(-1, -1, 1)]
    level = [(rho, (), 0)]  # (w(rho), word, index) in discovery order
    while level:
        found = []
        for mu, word, t in level:
            for i, support in enumerate(supports):
                if mu[i] < 0:
                    continue
                key = list(mu)
                for k, a in support.items():
                    key[k] -= a * mu[i]
                key = tuple(key)
                if key not in seen:
                    seen.add(key)
                    found.append([(i,) + word, t, key])
        sign = -skeleton[-1][2]
        for entry in sorted(found):
            entry.append(len(skeleton))
            skeleton.append((entry[1], entry[0][0], sign))
        level = [(key, word, t) for word, _, key, t in found]
    return tuple(skeleton)


@lru_cache(maxsize=None)
def descent_data(rs):
    """The negative roots, and (alpha_i, s_i) for each i, in integer coordinates."""
    negative = {tuple(-int(c) for c in beta.coords) for beta in rs.positive_roots}
    return negative, [(tuple(row[i] for row in rs.cartan), references.simple_reflection(rs, i))
                      for i in range(rs.rank)]


def reference_descent_word(rs, w):
    """Greedy right descent: strip the lowest s_i with w(alpha_i) negative, then reverse.

    Negativity is read as membership in the negative roots, on integer coordinates.
    """
    negative, simples = descent_data(rs)
    applied = []
    while not w.is_identity:
        i = next(i for i, (alpha, _) in enumerate(simples)
                 if intlinalg.mat_vec(w.action, alpha) in negative)
        applied.append(i)
        w = w * simples[i][1]
    return tuple(reversed(applied))


def reference_reflection(rs, beta):
    """s_beta through the form: column j is Lambda_j - 2 (Lambda_j|beta)/(beta|beta) beta."""
    norm = inner(rs, beta, beta)  # (Lambda_j|beta) is row j of the weight Gram matrix times beta
    cols = [rs.fundamental_weight(j) - beta.scale(2 * x / norm)
            for j, x in enumerate(intlinalg.mat_vec(rs.gram_weights, beta.coords))]
    w = weyl.WeylElement(tuple(zip(*(tuple(int(c) for c in col.coords) for col in cols))), -1, ())
    return w._replace(word=reference_descent_word(rs, w))


def reference_affine_act(rs, g, x, k):
    """The level-k action through the Fraction nu: w x + k coroot_to_weight_space(t)."""
    shift = references.coroot_to_weight_space(rs, g.translation).scale(k)
    return TorusPoint(affine.act(g.finite, x.mu_star) + shift)


def reference_find_alcove(rs, k, x):
    """The Fraction loop: reflect in the lowest negative certificate entry until none is left."""
    g, current = references.identity_affine(rs), x
    r_theta = references.affine_reflection_theta(rs)
    simples = [references.affine_from_finite(references.simple_reflection(rs, i), rs.rank)
               for i in range(rs.rank)]
    while True:
        cert = references.alcove_certificate(rs, k, current)
        bad = next((i for i, p in enumerate(cert) if p < 0), None)
        if bad is None:
            return g, references.AlcovePoint(current, k, cert)
        step = simples[bad] if bad < rs.rank else r_theta
        g = references.compose(step, g)
        current = reference_affine_act(rs, step, current, k)


@pytest.mark.parametrize("name", ["A1", "A2", "A3", "A4", "A5", "B2", "B3", "B4", "B5", "C3",
                                  "C4", "D4", "D5", "G2", "F4"])
def test_enumeration_equals_matrix_product_reference(name):
    rs = from_name(name)
    expected = [(w.action, w.sign, w.word) for w in reference_enumeration(rs)]
    assert [(w.action, w.sign, w.word) for w in weyl.iter_weyl(rs)] == expected
    assert [(w.action, w.sign, w.word) for w in weyl.enumerate_weyl(rs)] == expected


@pytest.mark.parametrize("name", ["A1", "A2", "A3", "A4", "A5", "A6", "B2", "B3", "B4", "B5",
                                  "C3", "C4", "D4", "D5", "E6", "F4", "G2"])
def test_skeleton_equals_the_word_carrying_reference(name):
    rs = from_name(name)
    assert tuple(zip(*weyl._skeleton(rs))) == reference_skeleton(rs)  # columns, read row by row


@pytest.mark.parametrize("name", ["D5", "F4"])
def test_streamed_elements_hold_two_word_lengths(monkeypatch, name):
    rs = from_name(name)
    lengths = Counter(len(w.word) for w in weyl.enumerate_weyl(rs))
    alive = [0, 0]  # elements alive now, most ever alive

    class Counted(weyl.WeylElement):
        __slots__ = ()

        def __new__(cls, *fields):
            alive[0] += 1
            alive[1] = max(alive)
            return super().__new__(cls, *fields)

        def __del__(self):
            alive[0] -= 1

    monkeypatch.setattr(weyl, "WeylElement", Counted)
    assert sum(1 for _ in weyl.iter_weyl(rs)) == sum(lengths.values())
    two_lengths = max(lengths[n] + lengths[n + 1] for n in lengths)
    assert alive[1] <= two_lengths + 1 < sum(lengths.values()) / 4


@pytest.mark.parametrize("name", ["A1", "A2", "A3", "B2", "B3", "C3", "D4", "G2", "F4"])
def test_group_order_matches_classical_formula(name):
    rs = from_name(name)
    group = weyl.enumerate_weyl(rs)
    assert len(group) == oracles.weyl_order_formula(rs.series, rs.rank)
    assert weyl.weyl_order(rs) == len(group)
    assert len({w.action for w in group}) == len(group)


def test_e6_enumeration():
    rs = from_name("E6")
    group = weyl.enumerate_weyl(rs)
    assert len(group) == 51840 == weyl.weyl_order(rs)
    assert len({w.action for w in group}) == len(group)
    assert all(w.sign == (-1) ** len(w.word) for w in group)


@pytest.mark.parametrize("name", ["A1", "A2", "A3", "A4", "A5", "B2", "B3", "B4", "B5", "C3",
                                  "C4", "D4", "D5", "E6", "F4", "G2"])
def test_orbit_is_the_signed_image_under_enumerate_weyl(name):
    rs = from_name(name)
    group = weyl.enumerate_weyl(rs)
    for a in (rs.rho, rs.highest_root, rs.fundamental_weight(rs.rank - 1) + rs.rho):
        coords = [int(c) for c in a.coords]
        signs, columns = weyl.orbit(rs, coords)
        assert signs is weyl._skeleton(rs)[2]  # shared, not copied
        assert len(columns) == rs.rank and all(type(c) is list for c in columns)
        images = [tuple(sum(map(mul, row, coords)) for row in w.action) for w in group]
        assert list(zip(*columns)) == images
        assert all(type(x) is int for column in columns for x in column)
    assert signs == tuple(w.sign for w in group)


def test_e6_orbit_of_rho():
    rs = from_name("E6")
    signs, columns = weyl.orbit(rs, (1,) * 6)
    assert len(signs) == 51840 and all(len(column) == 51840 for column in columns)
    assert len(set(zip(*columns))) == 51840  # rho is regular: a free orbit
    assert sum(signs) == 0


def test_enumeration_cap(monkeypatch):
    rs = from_name("A3")
    weyl.enumerate_weyl(rs)  # cached below the cap
    monkeypatch.setattr(weyl, "DEFAULT_GROUP_CAP", 5)  # read at call time
    with pytest.raises(weyl.ResourceError, match="Weyl group of order 24 exceeds cap 5"):
        weyl.enumerate_weyl(rs)
    with pytest.raises(weyl.ResourceError, match="exceeds cap 5"):
        weyl.iter_weyl(rs)  # on the call, before any element is asked for
    with pytest.raises(weyl.ResourceError):
        weyl.weyl_order(rs)


def test_e7_refused_at_default_cap():
    rs = from_name("E7")
    with pytest.raises(weyl.ResourceError):
        weyl.weyl_order(rs)
    with pytest.raises(weyl.ResourceError):
        weyl.enumerate_weyl(rs)


@pytest.mark.parametrize("name", ["A1", "A2", "B2", "G2"])
def test_sign_properties(name):
    rs = from_name(name)
    group = weyl.enumerate_weyl(rs)
    assert sum(w.sign for w in group) == 0
    for w in group:
        assert w.sign == (-1) ** len(w.word)
        assert w.sign == (1 if det(w.action) == 1 else -1)


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


@settings(max_examples=40, deadline=None)
@given(st.integers(0, 7), st.integers(0, 7))
def test_sign_is_a_homomorphism(i, j):
    rs = from_name("B2")
    group = weyl.enumerate_weyl(rs)
    w, v = group[i], group[j]
    product = w * v
    match = next(u for u in group if u.action == product.action)
    assert match.sign == w.sign * v.sign


def test_act_examples():
    a1 = from_name("A1")
    s = references.simple_reflection(a1, 0)
    assert affine.act(s, a1.fundamental_weight(0)) == -a1.fundamental_weight(0)
    a2 = from_name("A2")
    s1 = references.simple_reflection(a2, 0)
    assert affine.act(s1, a2.simple_root(1)) == a2.simple_root(0) + a2.simple_root(1)
    ident = weyl.identity_element(a2)
    assert affine.act(ident, a2.rho) == a2.rho


@pytest.mark.parametrize("name", ["A2", "B2", "G2"])
def test_action_preserves_form_and_roots(name):
    rs = from_name(name)
    roots = set()
    for beta in rs.positive_roots:
        roots.add(beta.coords)
        roots.add((-beta).coords)
    for w in weyl.enumerate_weyl(rs):
        assert inner(rs, affine.act(w, rs.rho), affine.act(w, rs.highest_root)) == \
            inner(rs, rs.rho, rs.highest_root)
        for beta in rs.positive_roots:
            assert affine.act(w, beta).coords in roots


@pytest.mark.parametrize("name", ["A1", "A2", "B2", "G2", "A3"])
def test_flipped_root_sum_identity(name):
    # sum of w(alpha) over positive alpha sent negative equals w(rho) - rho
    rs = from_name(name)
    for w in weyl.enumerate_weyl(rs):
        total = rs.zero_weight()
        for alpha in rs.positive_roots:
            image = affine.act(w, alpha)
            if is_negative_root_vector(rs, image):
                total = total + image
        assert total == affine.act(w, rs.rho) - rs.rho


@pytest.mark.parametrize("name", ["A1", "A2", "B2", "G2"])
def test_group_closure_and_inverses(name):
    rs = from_name(name)
    group = weyl.enumerate_weyl(rs)
    actions = {w.action for w in group}
    rng = random.Random(0)
    for _ in range(10):
        w, v = rng.choice(group), rng.choice(group)
        assert (w * v).action in actions
        assert any((w * u).is_identity for u in group)


def test_affine_identity_and_base_reflection():
    a1 = from_name("A1")
    x = TorusPoint(a1.weight_from_coords([Fraction(1, 5)]))
    assert references.affine_act(a1, references.identity_affine(a1), x, 1) == x
    # reflection about (theta|x) = 1 sends 0 to nu(theta^v) = theta
    r = references.affine_reflection_theta(a1)
    origin = TorusPoint(a1.zero_weight())
    assert references.affine_act(a1, r, origin, 1).mu_star == a1.highest_root


def test_affine_composition_law():
    rs = from_name("B2")
    r = references.affine_reflection_theta(rs)
    s = references.affine_from_finite(references.simple_reflection(rs, 0), rs.rank)
    lhs = references.compose(r, s)
    # (w1,m1)(w2,m2) = (w1 w2, m1 + w1(m2)); with m2 = 0 the translation is m1
    assert lhs.translation == r.translation
    rhs = references.compose(s, r)
    assert rhs.translation == references.act_on_coroot_coords(s.finite, r.translation)
    x = TorusPoint(rs.weight_from_coords([Fraction(2, 7), Fraction(3, 11)]))
    for k in (1, 2):
        via_pair = references.affine_act(rs, r, references.affine_act(rs, s, x, k), k)
        assert references.affine_act(rs, lhs, x, k) == via_pair


@pytest.mark.parametrize("name", ["A1", "A2", "B2", "G2"])
def test_alcove_tiling_interior_is_free(name):
    # a nontrivial element (translations from the orbit lattice of theta^v)
    # never maps an interior alcove point back into the open alcove
    rs = from_name(name)
    k = 2
    interior = TorusPoint(rs.rho.scale(Fraction(k, 2 * rs.dual_coxeter)))
    assert all(p > 0 for p in references.alcove_certificate(rs, k, interior))
    rng = random.Random(1)
    group = weyl.enumerate_weyl(rs)
    for _ in range(25):
        w = rng.choice(group)
        # coordinates in the basis of M, the simple coroots
        trans = tuple(rng.randrange(-2, 3) for _ in range(rs.rank))
        g = affine.AffineWeylElement(w, trans)
        if g.is_identity:
            continue
        image = references.affine_act(rs, g, interior, k)
        assert not all(p > 0 for p in references.alcove_certificate(rs, k, image))


def test_find_alcove_examples():
    a1 = from_name("A1")
    inside = TorusPoint(a1.weight_from_coords([Fraction(1, 3)]))
    g, ap = references.find_alcove(a1, 1, inside)
    assert g.is_identity and ap.point == inside
    # (theta|x) = 3/2 reflects to 1/2
    x = TorusPoint(references.weight_from_root_coords(a1, [Fraction(3, 4)]))
    assert inner(a1, a1.highest_root, x.mu_star) == Fraction(3, 2)
    g, ap = references.find_alcove(a1, 1, x)
    assert inner(a1, a1.highest_root, ap.point.mu_star) == Fraction(1, 2)
    # idempotence
    g2, ap2 = references.find_alcove(a1, 1, ap.point)
    assert g2.is_identity and ap2.point == ap.point


@settings(max_examples=30, deadline=None)
@given(st.lists(st.fractions(min_value=-4, max_value=4, max_denominator=23),
                min_size=2, max_size=2))
def test_find_alcove_lands_in_alcove_and_certifies(coords):
    rs = from_name("A2")
    x = TorusPoint(rs.weight_from_coords(coords))
    g, ap = references.find_alcove(rs, 2, x)
    assert all(p >= 0 for p in ap.chamber_certificate)
    assert references.affine_act(rs, g, x, 2) == ap.point
    assert ap.chamber_certificate == references.alcove_certificate(rs, 2, ap.point)


@settings(max_examples=40, deadline=None)
@given(st.sampled_from(["A3", "B3", "C3", "G2", "F4"]), st.integers(0, 4),
       st.lists(st.fractions(min_value=-4, max_value=4, max_denominator=23),
                min_size=4, max_size=4))
def test_alcove_certificate_equals_form_reference(name, k, coords):
    """The comark read k - sum_i comark_i x_i equals k - (theta|x) through the form."""
    rs = from_name(name)
    x = TorusPoint(rs.weight_from_coords(coords[:rs.rank]))
    expected = x.mu_star.coords + (k - inner(rs, rs.highest_root, x.mu_star),)
    assert references.alcove_certificate(rs, k, x) == expected


@settings(max_examples=20, deadline=None)
@given(st.lists(st.fractions(min_value=-3, max_value=3, max_denominator=17),
                min_size=2, max_size=2),
       st.integers(0, 7), st.lists(st.integers(-2, 2), min_size=2, max_size=2))
def test_find_alcove_representative_is_orbit_invariant(coords, widx, trans):
    rs = from_name("B2")
    x = TorusPoint(rs.weight_from_coords(coords))
    _, ap = references.find_alcove(rs, 2, x)
    h = affine.AffineWeylElement(weyl.enumerate_weyl(rs)[widx], tuple(trans))
    moved = references.affine_act(rs, h, x, 2)
    _, ap2 = references.find_alcove(rs, 2, moved)
    assert ap2.point == ap.point


@settings(max_examples=40, deadline=None)
@given(st.sampled_from(["A2", "B2", "G2", "B3", "D4", "F4"]), st.integers(1, 3),
       st.lists(st.fractions(min_value=-4, max_value=4, max_denominator=23),
                min_size=4, max_size=4))
def test_find_alcove_equals_fraction_loop_reference(name, k, coords):
    rs = from_name(name)
    x = TorusPoint(rs.weight_from_coords(coords[:rs.rank]))
    assert references.find_alcove(rs, k, x) == reference_find_alcove(rs, k, x)


@settings(max_examples=40, deadline=None)
@given(st.sampled_from(["A2", "B2", "G2", "B3", "C3", "D4", "F4"]), st.integers(1, 3),
       st.integers(0, 10**6), st.lists(st.integers(-3, 3), min_size=4, max_size=4),
       st.lists(st.fractions(min_value=-4, max_value=4, max_denominator=23),
                min_size=4, max_size=4))
def test_affine_act_and_lift_equal_the_fraction_nu(name, k, widx, trans, coords):
    # affine_act reads nu(t) = gram_of_M() t; lift inverts it: the one element over w sending x to y
    rs = from_name(name)
    group = weyl.enumerate_weyl(rs)
    g = affine.AffineWeylElement(group[widx % len(group)], tuple(trans[:rs.rank]))
    x = TorusPoint(rs.weight_from_coords(coords[:rs.rank]))
    y = references.affine_act(rs, g, x, k)
    assert y == reference_affine_act(rs, g, x, k)
    assert affine.lift(rs, g.finite, x, y, k) == g


def test_lift_refuses_a_translation_off_the_coroot_lattice_and_a_nonpositive_level():
    rs = from_name("A2")
    ident, x = weyl.identity_element(rs), TorusPoint(rs.zero_weight())
    # nu^-1(Lambda_0) = (2/3, 1/3) in simple coroots is not in Q^v; nu^-1(theta) = theta^v is
    with pytest.raises(affine.MismatchError):
        affine.lift(rs, ident, x, TorusPoint(rs.fundamental_weight(0)), 1)
    assert affine.lift(rs, ident, x, TorusPoint(rs.highest_root), 1).translation == rs.comarks
    with pytest.raises(affine.MismatchError):  # theta / 2 at level 2 needs translation theta^v / 4
        affine.lift(rs, ident, x, TorusPoint(rs.highest_root.scale(Fraction(1, 2))), 2)
    for k in (0, -1):
        with pytest.raises(ValueError, match="affine action needs a positive level"):
            affine.lift(rs, ident, x, x, k)


@pytest.mark.parametrize("name", ["A1", "B2", "G2", "B3"])
def test_find_alcove_at_level_zero_fixes_the_origin(name):
    rs = from_name(name)
    origin = TorusPoint(rs.zero_weight())
    g, ap = references.find_alcove(rs, 0, origin)
    assert g.is_identity and ap == references.AlcovePoint(origin, 0, (0,) * (rs.rank + 1))
    assert weyl.fold(rs, (0,) * rs.rank, 0) == ((), (0,) * rs.rank)


@settings(max_examples=30, deadline=None)
@given(st.sampled_from(["A1", "B2", "G2", "B3"]), st.integers(-3, 0),
       st.lists(st.fractions(min_value=-4, max_value=4, max_denominator=23),
                min_size=3, max_size=3))
def test_nonpositive_level_raises_instead_of_looping(name, k, coords):
    # x != 0 at k = 0, or any x at k < 0, reaches the affine wall, where fold refuses
    rs = from_name(name)
    x = TorusPoint(rs.weight_from_coords(coords[:rs.rank]))
    assume(k < 0 or not x.is_zero)
    with pytest.raises(ValueError, match="affine action needs a positive level"):
        references.find_alcove(rs, k, x)


UP_TO_RANK_6 = ([f"A{r}" for r in range(1, 7)] + [f"B{r}" for r in range(2, 7)]
                + [f"C{r}" for r in range(2, 7)] + ["D4", "D5", "D6", "E6", "F4", "G2"])


@pytest.mark.parametrize("name", UP_TO_RANK_6)
def test_reflection_in_root_equals_greedy_descent_reference(name):
    rs = from_name(name)
    for beta in rs.positive_roots:
        expected = reference_reflection(rs, beta)
        assert affine.reflection_in_root(rs, beta) == expected
        assert affine.reflection_in_root(rs, -beta) == expected


@pytest.mark.parametrize("name", ["A1", "B2", "C3", "G2", "D4", "F4"])
def test_reflection_in_root_refuses_a_vector_that_is_not_a_root(name):
    # a vector that is not a root has no integral coroot, and the matrix built from it lies outside W
    rs = from_name(name)
    theta = rs.highest_root
    for v in (rs.rho, rs.zero_weight(), theta.scale(2), theta.scale(Fraction(1, 2)),
              theta + rs.simple_root(0), rs.fundamental_weight(0) - rs.highest_root):
        if v in rs.positive_roots or -v in rs.positive_roots:
            continue
        with pytest.raises(ValueError, match="is not a root"):
            affine.reflection_in_root(rs, v)


@pytest.mark.parametrize("name", ["E7", "E8"])
def test_folded_words_are_reduced_on_e7_and_e8(name):
    # len(word) = #{positive roots sent negative} = length of w, and the word spells w:
    # applied to rho (regular) letter by letter it gives w(rho), the row sums of w
    rs = from_name(name)
    positive = [tuple(int(c) for c in beta.coords) for beta in rs.positive_roots]
    negative = {tuple(-c for c in beta) for beta in positive}

    def check(w):
        inversions = sum(intlinalg.mat_vec(w.action, beta) in negative for beta in positive)
        assert len(w.word) == inversions
        u = (1,) * rs.rank
        for i in reversed(w.word):
            u = tuple(c - u[i] * row[i] for c, row in zip(u, rs.cartan))
        assert u == tuple(map(sum, w.action))

    for beta in rs.positive_roots:
        check(affine.reflection_in_root(rs, beta))
    w_long = references.longest_element(rs)
    check(w_long)
    assert len(w_long.word) == len(positive)


@pytest.mark.parametrize("name", ["A2", "B2", "G2", "B3"])
def test_fold_undoes_the_orbit_with_its_sign(name):
    rs = from_name(name)
    lam = tuple(range(1, rs.rank + 1))
    signs, columns = weyl.orbit(rs, lam)
    for sign, u in zip(signs, zip(*columns)):
        walls, image = weyl.fold(rs, u)
        assert image == lam and (-1) ** len(walls) == sign


def test_factor_affine_contracts():
    a1 = from_name("A1")
    s_theta = affine.reflection_in_root(a1, a1.highest_root)
    r_theta = references.affine_reflection_theta(a1)
    assert affine.factor_affine(a1, r_theta, s_theta) == a1.comarks
    # finite element factors trivially
    ident = weyl.identity_element(a1)
    assert affine.factor_affine(a1, references.affine_from_finite(ident, 1), ident) == (0,)
    with pytest.raises(affine.MismatchError):
        affine.factor_affine(a1, r_theta, ident)


def test_factor_affine_composition():
    # factoring g1 g2 gives v1 + w1(v2), a lattice element
    rs = from_name("B2")
    g1 = references.affine_reflection_theta(rs)
    s0 = references.affine_from_finite(references.simple_reflection(rs, 0), rs.rank)
    g2 = references.compose(references.compose(s0, g1), s0)  # conjugate: nontrivial translation part
    v1 = affine.factor_affine(rs, g1, g1.finite)
    v2 = affine.factor_affine(rs, g2, g2.finite)
    product = references.compose(g1, g2)
    v = affine.factor_affine(rs, product, g1.finite * g2.finite)
    assert v == tuple(a + b for a, b in zip(v1, references.act_on_coroot_coords(g1.finite, v2)))
    assert rs.in_lattice_M(v)


@pytest.mark.parametrize("name", ["A3", "B3", "C3", "G2", "F4"])
def test_coroot_action_preserves_pairing(name):
    # <w lam, w v> = <lam, v> for fundamental weights lam and simple coroots v
    rs = from_name(name)
    fund = [rs.fundamental_weight(i) for i in range(rs.rank)]
    coroots = [tuple(int(i == j) for j in range(rs.rank)) for i in range(rs.rank)]
    for w in weyl.enumerate_weyl(rs):
        moved = [references.act_on_coroot_coords(w, v) for v in coroots]
        assert all(type(x) is int for u in moved for x in u)
        for lam in fund:
            w_lam = affine.act(w, lam)
            for v, u in zip(coroots, moved):
                assert sum(map(mul, w_lam.coords, u)) == sum(map(mul, lam.coords, v))


ALL_TYPES = ([f"A{r}" for r in range(1, 8)] + [f"B{r}" for r in range(2, 7)]
             + [f"C{r}" for r in range(2, 7)] + [f"D{r}" for r in range(4, 8)]
             + ["E6", "E7", "E8", "F4", "G2"])


@pytest.mark.parametrize("name", ALL_TYPES)
def test_orbit_lattice_of_theta_covee_is_the_coroot_lattice(name):
    # the paper's M is the span of the Weyl orbit of theta^v; RootSystem takes
    # it to be Q^v (simple-coroot basis), with M* spanned by nu^-1(Lambda_j)
    rs = from_name(name)
    orbit = {rs.comarks}  # theta^v in simple-coroot coordinates
    frontier = [rs.comarks]
    while frontier:
        v = frontier.pop()
        for i in range(rs.rank):
            w = list(v)  # s_i on coroot coordinates: v_i <- v_i - sum_j A_ji v_j
            w[i] -= sum(rs.cartan[j][i] * v[j] for j in range(rs.rank))
            w = tuple(w)
            if w not in orbit:
                orbit.add(w)
                frontier.append(w)
    assert all(type(x) is int for v in orbit for x in v)
    assert intlinalg.elementary_divisors([list(v) for v in sorted(orbit)]) == [1] * rs.rank
    assert rs.gram_of_M() == rs.gram_coroots  # the basis of M is the simple coroots
    for j in range(rs.rank):
        assert references.coroot_to_weight_space(rs, rs.lattice_Mstar_basis[j]) == rs.fundamental_weight(j)


def test_integrity_checks_survive_python_O():
    """longest_element and weyl_dimension raise their AssertionErrors under python -O too."""
    import subprocess
    import sys
    from pathlib import Path
    src = str(Path(rootdata.__file__).resolve().parents[1])
    probe = f"""
import sys
sys.path[:0] = [{src!r}, {str(Path(__file__).resolve().parent)!r}]
import references
from alcove import chareval, rootdata
rs = rootdata.RootSystem("A", 2)  # a fresh datum, not the cached one
caught = []
d, (row, *rest) = rs.nu_inverse
rs.nu_inverse = (d, ((row[0] + 1,) + row[1:], *rest))  # a wrong nu^-1: the quotient is not integral
try:
    chareval.weyl_dimension(rs, rs.fundamental_weight(0))
except AssertionError as exc:
    caught.append(str(exc))
references.fold = lambda rs, a, n=None: ((0,), tuple(a))  # a word for s_0, not the longest element
try:
    references.longest_element(rs)
except AssertionError as exc:
    caught.append(str(exc))
print(sys.flags.optimize, len(caught))
"""
    done = subprocess.run([sys.executable, "-O", "-S", "-c", probe], capture_output=True, text=True)
    assert (done.returncode, done.stdout, done.stderr) == (0, "1 2\n", "")
