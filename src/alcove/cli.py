"""Command-line surface: data dumps, character tables, fusion, verification.

Exit codes: 0 success, 1 verification failure, 2 configuration error,
3 numerical-integrity error.  JSON is canonical; CSV is a lossy convenience
export with complex entries rendered as "re+imi" strings.  All randomness
flows from the seed in the run configuration; identical configurations
produce byte-identical artifacts.
"""

from __future__ import annotations

import argparse
import json
import sys
from dataclasses import dataclass
from fractions import Fraction

from . import chareval, conventions, identities, levelshift, rootdata, stabilizers, verlinde, weyl
from .rootdata import ConfigurationError, TorusPoint

EXIT_OK = 0
EXIT_VERIFICATION = 1
EXIT_CONFIG = 2
EXIT_INTEGRITY = 3


@dataclass
class RunConfig:
    series: str
    rank: int
    level: int = 1
    grid_mode: str | None = None
    tolerance: float | None = None  # None: per-suite defaults
    seed: int = 2024
    samples: int = 100
    fmt: str = "json"
    out: str | None = None


def format_complex(z: complex) -> str:
    return f"{z.real:.12g}{z.imag:+.12g}i"


def _emit(cfg: RunConfig, payload, csv_rows=None) -> None:
    if cfg.fmt == "csv" and csv_rows is not None:
        text = "\n".join(",".join(str(c) for c in row) for row in csv_rows) + "\n"
    else:
        text = json.dumps(payload, indent=2, sort_keys=True) + "\n"
    if cfg.out:
        with open(cfg.out, "w") as fh:
            fh.write(text)
    else:
        sys.stdout.write(text)


def _weight_label(lam) -> str:
    return "+".join(f"{int(c)}w{i}" for i, c in enumerate(lam.coords) if c) or "0"


def _parse_weight(rs, text: str):
    coords = [int(x) for x in text.split(",")]
    if len(coords) != rs.rank:
        raise ConfigurationError(f"weight needs {rs.rank} coordinates")
    return rs.weight_from_coords(coords)


def _parse_point(rs, text: str) -> TorusPoint:
    try:
        coords = [Fraction(x) for x in text.split(",")]
    except (ValueError, ZeroDivisionError):
        raise ConfigurationError(f"point {text!r} needs rational coordinates") from None
    if len(coords) != rs.rank:
        raise ConfigurationError(f"point needs {rs.rank} coordinates")
    return TorusPoint(rs.weight_from_coords(coords))


# -- subcommands ---------------------------------------------------------------

def cmd_roots(cfg: RunConfig, with_elements: bool = False) -> int:
    rs = rootdata.build_root_system(cfg.series, cfg.rank)
    data = rs.to_json_dict()
    data["schema"] = "alcove/roots/v1"
    try:
        data["weyl_order"] = weyl.weyl_order(rs)
    except weyl.ResourceError:
        data["weyl_order"] = None
    data["lattice_index_at_level"] = {str(k): rootdata.lattice_index(rs, k)
                                      for k in range(cfg.level + 1)}
    if with_elements:
        data["weyl_elements"] = [{"word": list(w.word), "sign": w.sign,
                                  "action": [list(row) for row in w.action]}
                                 for w in weyl.enumerate_weyl(rs)]
    _emit(cfg, data)
    return EXIT_OK


def cmd_faces(cfg: RunConfig) -> int:
    rs = rootdata.build_root_system(cfg.series, cfg.rank)
    rows = []
    for walls, fd in stabilizers.enumerate_faces(rs):
        rows.append({
            "walls": sorted(str(w) for w in walls),
            "on_affine_wall": fd.on_affine_wall,
            "vanishing_simple_roots": list(fd.delta0),
            "simple_system": list(fd.labels),
            "rho_mu": [str(c) for c in fd.rho_mu.coords],
            "n": fd.n_value,
            "epsilon_covee": [str(c) for c in fd.epsilon_covee],
            "isotropy_order": fd.isotropy_order,
        })
    _emit(cfg, {"schema": "alcove/faces/v1", "system": f"{cfg.series}{cfg.rank}", "faces": rows})
    return EXIT_OK


def cmd_char(cfg: RunConfig, weight_text: str, point_text: str) -> int:
    rs = rootdata.build_root_system(cfg.series, cfg.rank)
    lam = _parse_weight(rs, weight_text)
    x = _parse_point(rs, point_text)
    value = chareval.character(rs, lam, x)
    _emit(cfg, {"schema": "alcove/char/v1", "weight": _weight_label(lam),
                "point": [str(c) for c in x.mu_star.coords],
                "re": value.real, "im": value.imag})
    return EXIT_OK


def cmd_grid(cfg: RunConfig) -> int:
    rs = rootdata.build_root_system(cfg.series, cfg.rank)
    table = conventions.character_table(rs, cfg.level, cfg.grid_mode)
    lams, rows = table.weights, table.values
    points = [[str(c) for c in p.mu_star.coords] for p in table.points]
    labels = [";".join(p) for p in points]
    payload = {
        "schema": "alcove/grid/v1",
        "system": f"{cfg.series}{cfg.rank}", "level": cfg.level, "grid_mode": table.mode,
        "points": points,
        "regular": list(table.regular),
        "rows": [{"weight": _weight_label(lam),
                  "values": [None if v is None else {"re": v.real, "im": v.imag}
                             for v in row]}
                 for lam, row in zip(lams, rows)],
    }
    csv_rows = [["weight"] + labels]
    for lam, row in zip(lams, rows):
        csv_rows.append([_weight_label(lam)] +
                        ["" if v is None else format_complex(v) for v in row])
    _emit(cfg, payload, csv_rows)
    return EXIT_OK


def cmd_fusion(cfg: RunConfig, pair: tuple[str, str] | None) -> int:
    rs = rootdata.build_root_system(cfg.series, cfg.rank)
    try:
        if pair:
            a = _parse_weight(rs, pair[0])
            b = _parse_weight(rs, pair[1])
            row = verlinde.fusion_coefficients(rs, cfg.level, a, b, cfg.grid_mode)
            triples = [(_weight_label(a), _weight_label(b), _weight_label(c), n)
                       for c, n in row.items() if n]
            max_residual = None
        else:
            table = verlinde.fusion_table(rs, cfg.level, cfg.grid_mode)
            labels = [_weight_label(lam) for lam in table.weights]
            triples = [(labels[a], labels[b], labels[c], n)
                       for a, slab in enumerate(table.dense)
                       for b, row in enumerate(slab) for c, n in enumerate(row) if n]
            max_residual = table.max_residual
    except verlinde.InconsistentInputError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_INTEGRITY
    triples.sort()
    payload = {"schema": "alcove/fusion/v1", "system": f"{cfg.series}{cfg.rank}",
               "level": cfg.level,
               "triples": [{"a": a, "b": b, "c": c, "n": n} for a, b, c, n in triples]}
    if max_residual is not None:
        payload["max_rounding_residual"] = max_residual
    # CSV: dense slabs, one (a, b) row with a column per channel c
    channels = [_weight_label(c) for c in verlinde.dominant_weights(rs, cfg.level).weights]
    dense = {(a, b): {} for a, b, _, _ in triples}
    for a, b, c, n in triples:
        dense[(a, b)][c] = n
    csv_rows = [["a", "b"] + channels]
    for (a, b) in sorted(dense):
        csv_rows.append([a, b] + [dense[(a, b)].get(c, 0) for c in channels])
    _emit(cfg, payload, csv_rows)
    return EXIT_OK


# -- verification --------------------------------------------------------------

def _verify_suites(rs, cfg: RunConfig):
    """Closures for every identity suite of one root system."""
    import random

    name = f"{rs.series}{rs.rank}"

    def tol(default: float) -> float:
        return default if cfg.tolerance is None else cfg.tolerance

    suites = []
    suites.append(lambda: identities.fundamental_formula_suite(rs, cfg.samples, cfg.seed, tol(1e-8)))
    suites.append(lambda: identities.subset_identity_suite(rs, cfg.samples, cfg.seed + 1, tol(1e-8)))

    def rho_shift_suite():
        failures = 0
        count = 0
        for _, fd in stabilizers.enumerate_faces(rs):
            for label, fin, _ in stabilizers.stabilizer_generators(rs, fd):
                shift = stabilizers.rho_shift(rs, fd, fin)
                expected = rs.highest_root.scale(rs.dual_coxeter) if label == "affine" \
                    else rs.zero_weight()
                count += 1
                if shift.wall_correction != expected:
                    failures += 1
        return identities.IdentityReport("rho_shift", name, count, float(failures), 0.0,
                                         failures == 0, {"exact": True})

    def lattice_phase_suite():
        failures = 0
        count = 0
        probe_failed = False
        for _, fd in stabilizers.enumerate_faces(rs):
            for k in (1, 2, 3):
                n = k + rs.dual_coxeter
                for row in rs.lattice_Mstar_basis:
                    t = tuple(Fraction(x, n) for x in row)
                    count += 1
                    if not stabilizers.lattice_phase_check(rs, fd, k, t):
                        failures += 1
                    bad = tuple(Fraction(x, n + 1) for x in row)
                    if not stabilizers.lattice_phase_check(rs, fd, 1, bad, require_lattice=False):
                        probe_failed = True
        ok = failures == 0 and probe_failed
        return identities.IdentityReport("lattice_phase", name, count, float(failures), 0.0,
                                         ok, {"exact": True, "off_lattice_probe_failed": probe_failed})

    for k in range(1, cfg.level + 1):
        suites.append(lambda k=k: identities.orthogonality_suite(rs, k, cfg.grid_mode, tol(1e-7)))

    def multiplicity_suite():
        rng = random.Random(cfg.seed + 2)
        worst = 0.0
        exact = True
        lws = verlinde.dominant_weights(rs, cfg.level)
        for _ in range(min(cfg.samples, 25)):
            m = {lam: rng.randrange(0, 10) for lam in lws.weights}
            values = verlinde.synthesize(rs, cfg.level, m, cfg.grid_mode)
            got = verlinde.extract_multiplicities(rs, cfg.level, values, cfg.grid_mode)
            worst = max(worst, got.max_residual)
            exact = exact and got.multiplicities == m
        return identities.IdentityReport("multiplicity_inversion", name,
                                         min(cfg.samples, 25), worst, 1e-6,
                                         exact and worst < 1e-6, {"k": cfg.level})

    def fusion_suite():
        table = verlinde.fusion_table(rs, cfg.level, cfg.grid_mode)
        ws, n = table.weights, table.dense
        r = range(len(ws))
        # (a b) c = a (b c): sum_e N_ab^e N_ec^d = sum_e N_bc^e N_ae^d
        assoc_ok = all(sum(n[a][b][e] * n[e][c][d] for e in r)
                       == sum(n[b][c][e] * n[a][e][d] for e in r)
                       for a in r for b in r for c in r for d in r)
        ok = assoc_ok and table.max_residual < verlinde.INTEGRALITY_TOLERANCE
        return identities.IdentityReport("fusion", name, len(ws) ** 3, table.max_residual,
                                         verlinde.INTEGRALITY_TOLERANCE, ok,
                                         {"k": cfg.level, "associative": assoc_ok})

    def character_suite():
        rng = random.Random(cfg.seed + 3)
        lams = rootdata.weights_at_level(rs, min(cfg.level, 3))

        def draw() -> float:
            x = identities.random_rational_point(rs, rng)
            if not chareval.is_regular(rs, x):
                raise identities.PoleError("singular sample point")
            lam = lams[rng.randrange(len(lams))]
            return abs(chareval.character(rs, lam, x) - chareval.localization_sum(rs, lam, x))

        zero = TorusPoint(rs.zero_weight())
        dims_ok = all(chareval.character(rs, lam, zero) == chareval.weyl_dimension(rs, lam)
                      for lam in lams)
        return identities.sampled_report("character_consistency", rs, cfg.samples, tol(1e-9),
                                         draw, dims_ok, {"dimension_fallback_exact": dims_ok})

    def regularity_suite():
        shifted_ok = all(chareval.is_regular(rs, p)
                         for _, p in chareval.shifted_grid(rs, cfg.level))
        mismatch = 0
        for _, p in chareval.full_grid(rs, cfg.level):
            d = abs(chareval.weyl_denominator(rs, p))
            if chareval.is_regular(rs, p) != (d > 1e-9):
                mismatch += 1
        ok = shifted_ok and mismatch == 0
        return identities.IdentityReport("regularity", name, 1, float(mismatch), 0.0, ok,
                                         {"all_shifted_regular": shifted_ok})

    def levelshift_suite():
        worst = 0.0
        count = 0
        lams = rootdata.weights_at_level(rs, cfg.level)[:4]
        points = levelshift.regular_lattice_points(rs, cfg.level)[:8]
        for _, fd in stabilizers.enumerate_faces(rs):
            if not fd.on_affine_wall:
                continue
            for lam in lams:
                for wit in levelshift.wall_witnesses(rs, fd, cfg.level, lam):
                    for x in points:
                        try:
                            worst = max(worst, abs(levelshift.shift_rule_residual(rs, wit, x)))
                            count += 1
                        except identities.PoleError:
                            continue
        return identities.IdentityReport("levelshift", name, count, worst, tol(1e-9),
                                         count > 0 and worst < tol(1e-9), {"k": cfg.level})

    suites += [rho_shift_suite, lattice_phase_suite, multiplicity_suite,
               fusion_suite, character_suite, regularity_suite, levelshift_suite]
    return suites


def cmd_verify(cfg: RunConfig, systems: list[tuple[str, int]]) -> int:
    suites = []
    for series, rank in systems:
        rs = rootdata.build_root_system(series, rank)
        suites.extend(_verify_suites(rs, cfg))
    reports = [s() for s in suites]
    _emit(cfg, {"schema": "alcove/verify/v1",
                "reports": [r.to_json_dict() for r in reports]})
    return EXIT_OK if all(r.passed for r in reports) else EXIT_VERIFICATION


# -- argument parsing ----------------------------------------------------------

def _add_common(p: argparse.ArgumentParser, need_system: bool = True) -> None:
    if need_system:
        p.add_argument("--series", required=True, help="series letter A..G")
        p.add_argument("--rank", required=True, type=int)
    p.add_argument("--level", type=int, default=1)
    p.add_argument("--grid", choices=[chareval.GRID_SHIFTED, chareval.GRID_FULL], default=None)
    p.add_argument("--tolerance", type=float, default=None,
                   help="override every suite tolerance (default: per-suite)")
    p.add_argument("--seed", type=int, default=2024)
    p.add_argument("--samples", type=int, default=100)
    p.add_argument("--format", choices=["json", "csv"], default="json", dest="fmt")
    p.add_argument("--out", default=None)


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(prog="alcove",
                                     description="Alcove combinatorics, characters and fusion data "
                                                 "for simple compact Lie groups.")
    sub = parser.add_subparsers(dest="command", required=True)
    p_roots = sub.add_parser("roots")
    _add_common(p_roots)
    p_roots.add_argument("--elements", action="store_true",
                         help="include the Weyl element list")
    for name in ("faces", "grid"):
        _add_common(sub.add_parser(name))
    p_char = sub.add_parser("char")
    _add_common(p_char)
    p_char.add_argument("--weight", required=True, help="comma-separated coordinates")
    p_char.add_argument("--point", required=True, help="comma-separated rationals")
    p_fusion = sub.add_parser("fusion")
    _add_common(p_fusion)
    p_fusion.add_argument("--pair", nargs=2, metavar=("A", "B"), default=None)
    p_verify = sub.add_parser("verify")
    _add_common(p_verify, need_system=False)
    p_verify.add_argument("--series", default=None)
    p_verify.add_argument("--rank", type=int, default=None)
    return parser


def main(argv: list[str] | None = None) -> int:
    args = build_parser().parse_args(argv)
    if args.tolerance is not None and args.tolerance <= 0:
        print("error: tolerance must be positive", file=sys.stderr)
        return EXIT_CONFIG
    if args.samples <= 0:
        print("error: samples must be positive", file=sys.stderr)
        return EXIT_CONFIG
    try:
        if args.command == "verify":
            if (args.series is None) != (args.rank is None):
                print("error: give both --series and --rank, or neither", file=sys.stderr)
                return EXIT_CONFIG
            systems = [(args.series, args.rank)] if args.series else [("A", 1), ("A", 2)]
            cfg = RunConfig(series=systems[0][0], rank=systems[0][1], level=args.level,
                            grid_mode=args.grid, tolerance=args.tolerance, seed=args.seed,
                            samples=args.samples, fmt=args.fmt, out=args.out)
            return cmd_verify(cfg, systems)
        cfg = RunConfig(series=args.series, rank=args.rank, level=args.level,
                        grid_mode=args.grid, tolerance=args.tolerance, seed=args.seed,
                        samples=args.samples, fmt=args.fmt, out=args.out)
        if args.command == "roots":
            return cmd_roots(cfg, args.elements)
        if args.command == "faces":
            return cmd_faces(cfg)
        if args.command == "char":
            return cmd_char(cfg, args.weight, args.point)
        if args.command == "grid":
            return cmd_grid(cfg)
        if args.command == "fusion":
            return cmd_fusion(cfg, tuple(args.pair) if args.pair else None)
        raise AssertionError(args.command)
    except (ValueError, weyl.ResourceError) as exc:  # bad input, singular point, cap
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_CONFIG


if __name__ == "__main__":
    sys.exit(main())
