"""Numerical certification of the paper's identities: the verify suite registry.

Each suite(rs, settings) returns IdentityReports; SUITES lists the suites in
report order.  Sampled suites draw from the seeds seed .. seed+3, exact suites
count failed checks, and `samples` says how many checks a report made.
"""

from __future__ import annotations

import random
from collections import namedtuple
from fractions import Fraction
from itertools import product

from . import chareval, conventions, identities, levelshift, rootdata, stabilizers, verlinde
from .rootdata import RootSystem, TorusPoint, Weight

# Resample budget of a sampled suite: at most this many draws per requested
# sample, so a pole-heavy sampler ends in a failed report, never a hang.
MAX_DRAWS_PER_SAMPLE = 10


class Settings(namedtuple("Settings", "level grid_mode tolerance seed samples",
                          defaults=(1, None, None, rootdata.DEFAULT_SEED,
                                    rootdata.DEFAULT_SAMPLES))):
    """One verify run's choices; tolerance None keeps every suite's default."""

    __slots__ = ()

    def tol(self, default: float) -> float:
        return default if self.tolerance is None else self.tolerance


class IdentityReport(namedtuple("IdentityReport",
                                "name system samples max_residual tolerance passed detail")):
    __slots__ = ()

    def to_json_dict(self) -> dict:
        return self._asdict()


def report(name: str, rs: RootSystem, samples: int, worst: float, tolerance: float,
           ok: bool, detail: dict) -> IdentityReport:
    """A report that passes when ok holds and worst is below tolerance."""
    return IdentityReport(name, f"{rs.series}{rs.rank}", samples, worst, tolerance,
                          ok and worst < tolerance, detail)


def sampled_report(name: str, rs: RootSystem, samples: int, tolerance: float, draw,
                   ok: bool = True, detail: dict | None = None) -> IdentityReport:
    """Report the worst residual over samples pole-free draws.

    draw() returns one residual or raises PoleError; at most
    MAX_DRAWS_PER_SAMPLE * samples draws are made.  The report counts the
    samples checked, and fails when that is fewer than requested.
    """
    worst, done = 0.0, 0
    for _ in range(MAX_DRAWS_PER_SAMPLE * samples):
        if done == samples:
            break
        try:
            worst = max(worst, draw())
        except identities.PoleError:
            continue
        done += 1
    detail = dict(detail or {})
    if done < samples:
        detail["samples_requested"] = samples
    return report(name, rs, done, worst, tolerance, ok and done == samples, detail)


def exact_report(name: str, rs: RootSystem, checks: int, failures: int, ok: bool,
                 detail: dict) -> IdentityReport:
    """Report of an exact suite: max_residual is the number of failed checks."""
    return IdentityReport(name, f"{rs.series}{rs.rank}", checks, float(failures), 0.0,
                          ok and failures == 0, detail)


def fundamental_formula_suite(rs: RootSystem, settings: Settings) -> list[IdentityReport]:
    rng = random.Random(settings.seed)

    def draw() -> float:
        x = identities.random_rational_point(rs, rng)
        y = identities.random_rational_point(rs, rng)
        return abs(identities.fundamental_formula_residual(rs, x, y))

    return [sampled_report("fundamental_formula", rs, settings.samples, settings.tol(1e-8), draw)]


def subset_identity_suite(rs: RootSystem, settings: Settings) -> list[IdentityReport]:
    rng = random.Random(settings.seed + 1)
    include = conventions.FROZEN.include_empty_subset

    def draw() -> float:
        x = identities.random_rational_point(rs, rng)
        return abs(identities.subset_identity_residual(rs, x, include) - 1)

    return [sampled_report("subset_identity", rs, settings.samples, settings.tol(1e-8), draw)]


def orthogonality_suite(rs: RootSystem, settings: Settings) -> list[IdentityReport]:
    """One report per level k = 1 .. settings.level, or one at k = 0 for level 0."""
    reports = []
    for k in range(min(1, settings.level), settings.level + 1):
        lams, matrix = identities.orthogonality_matrix(rs, k, settings.grid_mode)
        worst = max(abs(matrix[a][b] - (1.0 if a == b else 0.0))
                    for a in range(len(lams)) for b in range(len(lams)))
        detail = {"k": k, "grid_mode": settings.grid_mode or conventions.FROZEN.grid_mode}
        reports.append(report("orthogonality", rs, len(lams) ** 2, worst, settings.tol(1e-7),
                              True, detail))
    return reports


def rho_shift_suite(rs: RootSystem, settings: Settings) -> list[IdentityReport]:
    failures = checks = 0
    affine = Weight(tuple(rs.dual_coxeter * c for c in rs.root_rows[-1]))  # h^v theta
    for _, fd in stabilizers.enumerate_faces(rs):
        for label, fin, _ in stabilizers.stabilizer_generators(rs, fd):
            expected = affine if label == "affine" else rs.zero_weight()
            checks += 1
            failures += stabilizers.rho_shift(rs, fd, fin).wall_correction != expected
    return [exact_report("rho_shift", rs, checks, failures, True, {"exact": True})]


def lattice_phase_suite(rs: RootSystem, settings: Settings) -> list[IdentityReport]:
    """Lattice phases on M*/(k+h^v) for k = 1..3, plus one off-lattice probe that must fail."""
    failures = checks = 0
    probe_failed = False
    d, gram = rs.nu_inverse  # the rows G_j / D generate M*: they are nu^-1(Lambda_j)
    for _, fd in stabilizers.enumerate_faces(rs):
        for k in (1, 2, 3):
            n = k + rs.dual_coxeter
            for row in gram:
                checks += 1
                failures += not stabilizers.lattice_phase_check(
                    rs, fd, k, tuple(Fraction(x, d * n) for x in row))
                probe_failed |= not stabilizers.lattice_phase_check(
                    rs, fd, 1, tuple(Fraction(x, d * (n + 1)) for x in row), require_lattice=False)
    return [exact_report("lattice_phase", rs, checks, failures, probe_failed,
                         {"exact": True, "off_lattice_probe_failed": probe_failed})]


def multiplicity_inversion_suite(rs: RootSystem, settings: Settings) -> list[IdentityReport]:
    rng = random.Random(settings.seed + 2)
    samples = min(settings.samples, 25)
    worst, ok = 0.0, True
    lams = rootdata.weights_at_level(rs, settings.level)
    for _ in range(samples):
        m = {lam: rng.randrange(0, 10) for lam in lams}
        values = verlinde.synthesize(rs, settings.level, m, settings.grid_mode)
        got = verlinde.extract_multiplicities(rs, settings.level, values, settings.grid_mode)
        worst = max(worst, got.max_residual)
        ok = ok and got.multiplicities == m
    return [report("multiplicity_inversion", rs, samples, worst, 1e-6, ok, {"k": settings.level})]


def fusion_suite(rs: RootSystem, settings: Settings) -> list[IdentityReport]:
    table = verlinde.fusion_table(rs, settings.level, settings.grid_mode)
    n, r = table.dense, range(len(table.weights))
    # (a b) c = a (b c): sum_e N_ab^e N_ec^d = sum_e N_bc^e N_ae^d
    assoc_ok = all(sum(n[a][b][e] * n[e][c][d] for e in r)
                   == sum(n[b][c][e] * n[a][e][d] for e in r)
                   for a in r for b in r for c in r for d in r)
    return [report("fusion", rs, len(r) ** 3, table.max_residual,
                   verlinde.INTEGRALITY_TOLERANCE, assoc_ok,
                   {"k": settings.level, "associative": assoc_ok})]


def character_consistency_suite(rs: RootSystem, settings: Settings) -> list[IdentityReport]:
    rng = random.Random(settings.seed + 3)
    lams = rootdata.weights_at_level(rs, min(settings.level, 3))

    def draw() -> float:
        x = identities.random_rational_point(rs, rng)
        if not chareval.is_regular(rs, x):
            raise identities.PoleError("singular sample point")
        lam = lams[rng.randrange(len(lams))]
        return abs(chareval.character(rs, lam, x) - chareval.localization_sum(rs, lam, x))

    dims_ok = all(chareval.character(rs, lam, TorusPoint(rs.zero_weight()))
                  == chareval.weyl_dimension(rs, lam) for lam in lams)
    return [sampled_report("character_consistency", rs, settings.samples, settings.tol(1e-9),
                           draw, dims_ok, {"dimension_fallback_exact": dims_ok})]


def regularity_suite(rs: RootSystem, settings: Settings) -> list[IdentityReport]:
    """Shifted-grid points are regular; full-grid regularity matches |D| > 1e-9."""
    shifted_ok = all(chareval.is_regular(rs, p)
                     for _, p in chareval.shifted_grid(rs, settings.level))
    mismatch = sum(chareval.is_regular(rs, p) != (abs(chareval.weyl_denominator(rs, p)) > 1e-9)
                   for _, p in chareval.full_grid(rs, settings.level))
    return [exact_report("regularity", rs, 1, mismatch, shifted_ok,
                         {"all_shifted_regular": shifted_ok})]


def levelshift_suite(rs: RootSystem, settings: Settings) -> list[IdentityReport]:
    """Level-shift rule at up to 8 regular grid points, which are never poles."""
    k = settings.level
    lams = rootdata.weights_at_level(rs, k)[:4]
    points = levelshift.regular_lattice_points(rs, k)[:8]
    faces = [fd for _, fd in stabilizers.enumerate_faces(rs) if fd.on_affine_wall]
    worst, count = 0.0, 0
    for fd, lam in product(faces, lams):
        for wit in levelshift.wall_witnesses(rs, fd, k, lam):
            for x in points:
                worst = max(worst, abs(levelshift.shift_rule_residual(rs, wit, x)))
                count += 1
    return [report("levelshift", rs, count, worst, settings.tol(1e-9), count > 0, {"k": k})]


SUITES = (fundamental_formula_suite, subset_identity_suite, orthogonality_suite,
          rho_shift_suite, lattice_phase_suite, multiplicity_inversion_suite, fusion_suite,
          character_consistency_suite, regularity_suite, levelshift_suite)


def run(rs: RootSystem, settings: Settings) -> list[IdentityReport]:
    """Every suite's reports for one root system, in SUITES order."""
    return [r for suite in SUITES for r in suite(rs, settings)]
