"""Acceptance suite: one test per criterion, one printed pass/fail line each.

Run with `pytest tests/test_acceptance.py -v -s`.  Tolerances are pinned here
and nowhere else; exact criteria use equality of rationals, never floats.
"""

import random
from fractions import Fraction

import oracles
from alcove import chareval, conventions, identities, rootdata, \
    stabilizers, verlinde, weyl
from alcove.identities import PoleError
from alcove.rootdata import TorusPoint, from_name

CORE_SYSTEMS = ["A1", "A2", "B2", "G2"]
ORTHOGONALITY_LEVELS = {"A1": 6, "A2": 4, "B2": 3, "G2": 2}
SEED = 20240


def report(cid: str, ok: bool, desc: str) -> None:
    print(f"[{cid}] {'PASS' if ok else 'FAIL'} {desc}")
    assert ok, f"{cid}: {desc}"


def seeded_pairs(rs, n, seed):
    rng = random.Random(seed)
    done = 0
    while done < n:
        x = identities.random_rational_point(rs, rng)
        y = identities.random_rational_point(rs, rng)
        yield x, y
        done += 1


def test_criterion_1_fundamental_formula():
    worst = 0.0
    for name in CORE_SYSTEMS:
        rs = from_name(name)
        done = 0
        rng = random.Random(SEED)
        while done < 100:
            x = identities.random_rational_point(rs, rng)
            y = identities.random_rational_point(rs, rng)
            try:
                worst = max(worst, abs(identities.fundamental_formula_residual(rs, x, y)))
            except PoleError:
                continue
            done += 1
    report("C1", worst < 1e-8,
           f"double Weyl sum vanishes on 100 pole-free pairs per system "
           f"(max |sum| = {worst:.2e} < 1e-8)")


def test_criterion_2_subset_identity():
    worst = 0.0
    for name in CORE_SYSTEMS:
        rs = from_name(name)
        rng = random.Random(SEED + 1)
        done = 0
        while done < 100:
            x = identities.random_rational_point(rs, rng)
            try:
                value = identities.subset_identity_residual(
                    rs, x, conventions.FROZEN.include_empty_subset)
            except PoleError:
                continue
            worst = max(worst, abs(value - 1))
            done += 1
    # the rejected convention misses by exactly 2 on A1
    a1 = from_name("A1")
    x = TorusPoint(a1.weight_from_coords([Fraction(1, 3)]))
    rejected = identities.subset_identity_residual(a1, x, include_empty=False)
    discriminator = abs(abs(rejected - 1) - 2.0)
    report("C2", worst < 1e-8 and discriminator < 1e-9,
           f"subset identity equals 1 (max |sum-1| = {worst:.2e}); rejected "
           f"convention off by exactly 2 on A1 (|offset-2| = {discriminator:.1e})")


def test_criterion_3_rho_shift_exact():
    checked = 0
    ok = True
    for name in CORE_SYSTEMS:
        rs = from_name(name)
        hv = rs.dual_coxeter
        for _, fd in stabilizers.enumerate_faces(rs):
            for label, fin, _ in stabilizers.stabilizer_generators(rs, fd):
                shift = stabilizers.rho_shift(rs, fd, fin)
                expected = rs.highest_root.scale(hv) if label == "affine" \
                    else rs.zero_weight()
                ok = ok and shift.wall_correction == expected
                checked += 1
    report("C3", ok, f"rho-shift laws exact (zero tolerance) for all {checked} "
                     f"face generators of A1, A2, B2, G2")


def test_criterion_4_lattice_phase_law():
    checked = 0
    ok = True
    probe_failed_everywhere = True
    for name in CORE_SYSTEMS:
        rs = from_name(name)
        hv = rs.dual_coxeter
        probe_failed = False
        for _, fd in stabilizers.enumerate_faces(rs):
            for k in (1, 2, 3):
                for row in rs.lattice_Mstar_basis:
                    t = tuple(Fraction(x, k + hv) for x in row)
                    ok = ok and stabilizers.lattice_phase_check(rs, fd, k, t)
                    checked += 1
                    bad = tuple(Fraction(x, k + hv + 1) for x in row)
                    if not stabilizers.lattice_phase_check(rs, fd, k, bad,
                                                           require_lattice=False):
                        probe_failed = True
        probe_failed_everywhere = probe_failed_everywhere and probe_failed
    report("C4", ok and probe_failed_everywhere,
           f"phase law exact on all {checked} (face, k, generator) checks for "
           f"k in 1..3, and the off-lattice probe fails per system")


def test_criterion_5_orthogonality():
    worst = 0.0
    for name, kmax in ORTHOGONALITY_LEVELS.items():
        rs = from_name(name)
        for k in range(1, kmax + 1):
            lams, matrix = identities.orthogonality_matrix(rs, k)
            n = len(lams)
            dev = max(abs(matrix[a][b] - (1.0 if a == b else 0.0))
                      for a in range(n) for b in range(n))
            worst = max(worst, dev)
    report("C5", worst < 1e-7,
           f"orthogonality matrices are the identity for A1 k<=6, A2 k<=4, "
           f"B2 k<=3, G2 k<=2 (max deviation {worst:.2e} < 1e-7)")


def test_criterion_6_multiplicity_inversion():
    rng = random.Random(SEED + 2)
    exact = True
    count = 0
    for name, kmax in ORTHOGONALITY_LEVELS.items():
        rs = from_name(name)
        for k in range(1, kmax + 1):
            lws = rootdata.weights_at_level(rs, k)
            for _ in range(100):
                m = {lam: rng.randrange(0, 10) for lam in lws}
                got = verlinde.extract_multiplicities(
                    rs, k, verlinde.synthesize(rs, k, m))
                exact = exact and got.multiplicities == m
                count += 1
    report("C6", exact, f"{count} random multiplicity vectors round-trip exactly")


def test_criterion_7_fusion_oracle():
    a1 = from_name("A1")
    cg_ok = True
    for k in range(1, 9):
        table = verlinde.fusion_table(a1, k)
        ix = table.weights.index
        labels = {lam: int(lam.coords[0]) for lam in table.weights}
        for a in table.weights:
            for b in table.weights:
                for c in table.weights:
                    expected = oracles.truncated_clebsch_gordan(
                        k, labels[a], labels[b], labels[c])
                    cg_ok = cg_ok and table.dense[ix(a)][ix(b)][ix(c)] == expected

    a2 = from_name("A2")
    z3 = verlinde.fusion_table(a2, 1)
    ix = z3.weights.index
    z3_ok = all(sum(1 for c in z3.weights if z3.dense[ix(a)][ix(b)][ix(c)]) == 1
                for a in z3.weights for b in z3.weights)

    worst = 0.0
    invariants_ok = True
    for name, k in [("A1", 8), ("A2", 2), ("B2", 2), ("G2", 2)]:
        rs = from_name(name)
        table = verlinde.fusion_table(rs, k)
        worst = max(worst, table.max_residual)
        ws = table.weights
        ix = ws.index
        zero = rs.zero_weight()
        for a in ws:
            for b in ws:
                for c in ws:
                    n = table.dense[ix(a)][ix(b)][ix(c)]
                    invariants_ok = invariants_ok and n >= 0
                    invariants_ok = invariants_ok and n == table.dense[ix(b)][ix(a)][ix(c)]
            invariants_ok = invariants_ok and table.dense[ix(zero)][ix(a)][ix(a)] == 1
        for a in ws:
            for b in ws:
                for c in ws:
                    for d in ws:
                        lhs = sum(table.dense[ix(a)][ix(b)][ix(e)]
                                  * table.dense[ix(e)][ix(c)][ix(d)] for e in ws)
                        rhs = sum(table.dense[ix(b)][ix(c)][ix(e)]
                                  * table.dense[ix(a)][ix(e)][ix(d)] for e in ws)
                        invariants_ok = invariants_ok and lhs == rhs
    report("C7", cg_ok and z3_ok and invariants_ok and worst < 1e-6,
           f"A1 tables k<=8 match the truncated tensor rule; A2 level 1 is "
           f"Z/3; integrality {worst:.2e} < 1e-6, symmetry, unit and "
           f"associativity hold")


def test_criterion_8_character_consistency():
    worst = 0.0
    dims_exact = True
    for name in CORE_SYSTEMS:
        rs = from_name(name)
        rng = random.Random(SEED + 3)
        lams = rootdata.weights_at_level(rs, 3)
        done = 0
        while done < 100:
            x = identities.random_rational_point(rs, rng)
            if not chareval.is_regular(rs, x):
                continue
            lam = lams[rng.randrange(len(lams))]
            worst = max(worst, abs(chareval.character(rs, lam, x)
                                   - chareval.localization_sum(rs, lam, x)))
            done += 1
        zero = TorusPoint(rs.zero_weight())
        for lam in lams:
            dims_exact = dims_exact and \
                chareval.character(rs, lam, zero) == chareval.weyl_dimension(rs, lam)
    report("C8", worst < 1e-9 and dims_exact,
           f"quotient vs localization agree at 100 regular points per system "
           f"(max {worst:.2e} < 1e-9); x = 0 fallback equals the dimension "
           f"formula exactly for all level-3 weights")


def test_criterion_9_isotropy_data():
    a_series_ok = True
    for name in ["A1", "A2", "A3"]:
        rs = from_name(name)
        for _, fd in stabilizers.enumerate_faces(rs):
            a_series_ok = a_series_ok and fd.n_value == 1
    orders_ok = True
    for name in CORE_SYSTEMS + ["A3", "C3"]:
        rs = from_name(name)
        for _, fd in stabilizers.enumerate_faces(rs):
            orders_ok = orders_ok and \
                oracles.isotropy_order_by_enumeration(rs, fd) == fd.isotropy_order
    report("C9", a_series_ok and orders_ok,
           "A-series has n = 1 on every face; isotropy orders match "
           "brute-force quotient-lattice enumeration on every face")


def test_criterion_10_regularity_report():
    shifted_ok = True
    full_ok = True
    worst_excl = 0.0
    rng = random.Random(SEED + 4)
    for name, kmax in ORTHOGONALITY_LEVELS.items():
        rs = from_name(name)
        for k in range(1, kmax + 1):
            shifted_ok = shifted_ok and all(
                chareval.is_regular(rs, p) for _, p in chareval.shifted_grid(rs, k))
        k = min(2, kmax)
        # non-regular full-grid points are exactly the D = 0 points
        full = chareval.full_grid(rs, k)
        for _, p in full:
            d = chareval.weyl_denominator(rs, p)
            full_ok = full_ok and (chareval.is_regular(rs, p) == (d != 0))
        # and they contribute nothing to inversion sums
        lws = rootdata.weights_at_level(rs, k)
        m = {lam: rng.randrange(0, 10) for lam in lws}
        values = verlinde.synthesize(rs, k, m, "full")
        full_table = conventions.character_table(rs, k, "full")
        measure = list(zip(full_table.labels, full_table.points, full_table.measure))
        columns = {lam: [chareval.character(rs, lam, p) if wgt else 0j
                         for _, p, wgt in measure] for lam in lws}
        for lam in lws:
            full_sum = sum(values[label] * columns[lam][i].conjugate() * wgt
                           for i, (label, p, wgt) in enumerate(measure))
            excl_sum = sum(values[label] * columns[lam][i].conjugate() * wgt
                           for i, (label, p, wgt) in enumerate(measure)
                           if chareval.is_regular(rs, p))
            worst_excl = max(worst_excl, abs(full_sum - excl_sum))
    report("C10", shifted_ok and full_ok and worst_excl < 1e-12,
           f"every shifted grid point is regular; full-grid singular points "
           f"are exactly the D = 0 points and contribute nothing "
           f"(exclusion difference {worst_excl:.1e} < 1e-12)")
