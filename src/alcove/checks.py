"""The handlers of the fixed-point checks: `alcove faces`, `alcove char` and `alcove verify`.

alcove.cli imports this module only when one of these three subcommands runs,
so the data dumps (`roots`, `grid`, `fusion`) never compile it.  It reads the
writer and the exit codes from alcove.artifacts, not from alcove.cli, which a
`python -m alcove.cli` job runs as __main__.
"""

from __future__ import annotations

from math import isfinite
from types import SimpleNamespace

from . import artifacts, rootdata
from .artifacts import EXIT_OK, EXIT_VERIFICATION, _parse_coords, _point_text, _weight_label
from .weights import ConfigurationError, TorusPoint


def cmd_faces(args: SimpleNamespace) -> int:
    from . import stabilizers
    rs = rootdata.build_root_system(args.series, args.rank)
    rows = [{
        "walls": sorted(str(w) for w in walls),
        "on_affine_wall": fd.on_affine_wall,
        "vanishing_simple_roots": list(fd.delta0),
        "simple_system": list(fd.labels),
        "rho_mu": _point_text(fd.rho_mu),
        "n": fd.n_value,
        "epsilon_covee": list(map(str, fd.epsilon_covee)),
        "isotropy_order": fd.isotropy_order,
    } for walls, fd in stabilizers.enumerate_faces(rs)]
    artifacts._emit(args.fmt, args.out, {"schema": "alcove/faces/v1",
                                         "system": f"{args.series}{args.rank}", "faces": rows})
    return EXIT_OK


def _rational(text: str):
    """An optionally signed integer n or n/d, d in digits, read by int: Fraction would expand 1e-9999999."""
    from fractions import Fraction
    num, slash, den = text.partition("/")
    if slash and not den.isdecimal():
        raise ValueError(text)
    return Fraction(int(num), int(den or 1))


def cmd_char(args: SimpleNamespace) -> int:
    from . import chareval
    rs = rootdata.build_root_system(args.series, args.rank)
    lam = _parse_coords(rs, args.weight, "weight", "integer", int)
    x = TorusPoint(_parse_coords(rs, args.point, "point", "rational", _rational))
    value = chareval.character(rs, lam, x)
    artifacts._emit(args.fmt, args.out, {"schema": "alcove/char/v1", "weight": _weight_label(lam),
                                         "point": _point_text(x),
                                         "re": value.real, "im": value.imag})
    return EXIT_OK


def cmd_verify(args: SimpleNamespace) -> int:
    from . import conventions, verify, verlinde
    if args.tolerance is not None and not (args.tolerance > 0 and isfinite(args.tolerance)):
        raise ConfigurationError("tolerance must be positive and finite")
    if args.samples <= 0:
        raise ConfigurationError("samples must be positive")
    if (args.series is None) != (args.rank is None):
        raise ConfigurationError("give both --series and --rank, or neither")
    systems = [rootdata.build_root_system(series, rank) for series, rank in
               ([(args.series, args.rank)] if args.series else [("A", 1), ("A", 2)])]
    settings = verify.Settings(args.level, args.grid, args.tolerance, args.seed, args.samples)
    for rs in systems:  # the table caps of every system before the first suite
        conventions.check_table_cost(rs, args.level, args.grid)
        verlinde.check_fusion_size(rs, args.level)
    reports = [report for rs in systems for report in verify.run(rs, settings)]
    artifacts._emit(args.fmt, args.out,
                    {"schema": "alcove/verify/v1", "reports": [r.to_json_dict() for r in reports]})
    return EXIT_OK if all(r.passed for r in reports) else EXIT_VERIFICATION
