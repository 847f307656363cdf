"""Command-line surface: parse arguments, run a subcommand's handler, exit with its code.

Exit codes: 0 success, 1 verification failure, 2 configuration error (bad
flags included), 3 numerical-integrity error, 141 stdout closed by its reader
(128 + SIGPIPE).  JSON is canonical; `grid` and `fusion` also offer
CSV, a lossy export with complex entries rendered as "re+imi" strings.  Each
subcommand takes only the flags it reads: the suites live in alcove.verify, and
--tolerance, --seed and --samples are options of `verify` only.
Each handler imports only the layers it runs: without bytecode a job compiles all it imports.
The data dumps `roots`, `grid` and `fusion` are handled here; the checks `faces`,
`char` and `verify` in alcove.checks, which only they import.  Both write through
alcove.artifacts.  --out is checked before any handler runs, and identical
configurations produce byte-identical artifacts.
"""

from __future__ import annotations

import errno
import os
import sys
from types import SimpleNamespace

from . import artifacts, rootdata, weyl
from .artifacts import (EXIT_BROKEN_PIPE, EXIT_CONFIG, EXIT_INTEGRITY, EXIT_OK, _element_writer,
                        _parse_coords, _point_text, _triple_writer, _weight_label)
from .weights import ConfigurationError


# -- subcommands ---------------------------------------------------------------

def cmd_roots(args: SimpleNamespace) -> int:
    rs = rootdata.build_root_system(args.series, args.rank)
    data = rs.to_json_dict()
    data["schema"] = "alcove/roots/v1"
    try:
        data["weyl_order"] = weyl.weyl_order(rs)
    except weyl.ResourceError:
        data["weyl_order"] = None
    data["lattice_index_at_level"] = {str(k): rootdata.lattice_index(rs, k)
                                      for k in range(args.level + 1)}
    if args.elements:
        elements = weyl.iter_weyl(rs)  # the group cap raises here, before any output
        data["weyl_elements"] = ({"word": w.word, "sign": w.sign, "action": w.action}
                                 for w in elements)
    artifacts._emit(args.fmt, args.out, data, None,
                    {"weyl_elements": _element_writer(rs.rank)})
    return EXIT_OK


def cmd_grid(args: SimpleNamespace) -> int:
    from . import conventions
    rs = rootdata.build_root_system(args.series, args.rank)
    table = conventions.character_table(rs, args.level, args.grid)
    lams, rows = table.weights, table.values
    points = list(map(_point_text, table.points))
    payload = {
        "schema": "alcove/grid/v1",
        "system": f"{args.series}{args.rank}", "level": args.level, "grid_mode": table.mode,
        "points": points,
        "regular": list(table.regular),
        "rows": ({"weight": _weight_label(lam),
                  "values": [None if v is None else {"re": v.real, "im": v.imag}
                             for v in row]}
                 for lam, row in zip(lams, rows)),
    }

    def csv_rows():
        yield ["weight"] + [";".join(p) for p in points]
        for lam, row in zip(lams, rows):
            yield [_weight_label(lam)] + ["" if v is None else f"{v.real:.12g}{v.imag:+.12g}i"
                                          for v in row]
    artifacts._emit(args.fmt, args.out, payload, csv_rows)
    return EXIT_OK


def cmd_fusion(args: SimpleNamespace) -> int:
    from . import verlinde
    rs = rootdata.build_root_system(args.series, args.rank)
    try:
        if args.pair:
            a, b = (_parse_coords(rs, text, "weight", "integer", int) for text in args.pair)
            row = verlinde.fusion_coefficients(rs, args.level, a, b, args.grid)
            weights, max_residual = list(row), None
        else:
            table = verlinde.fusion_table(rs, args.level, args.grid)
            weights, max_residual = table.weights, table.max_residual
    except verlinde.InconsistentInputError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_INTEGRITY
    labels = [_weight_label(lam) for lam in weights]
    order = sorted(range(len(labels)), key=labels.__getitem__)  # labels are distinct
    # (a, b, N_ab^* by position in weights) in label order
    slabs = ([(_weight_label(a), _weight_label(b), list(row.values()))] if args.pair else
             [(labels[a], labels[b], table.dense[a][b]) for a in order for b in order])
    payload = {"schema": "alcove/fusion/v1", "system": f"{args.series}{args.rank}",
               "level": args.level,
               "triples": ({"a": a, "b": b, "c": labels[c], "n": ns[c]}
                           for a, b, ns in slabs for c in order if ns[c])}
    if max_residual is not None:
        payload["max_rounding_residual"] = max_residual

    def csv_rows():
        """Dense slabs: one (a, b) row with a column per channel c."""
        yield ["a", "b"] + labels
        for a, b, ns in slabs:
            yield [a, b] + ns
    artifacts._emit(args.fmt, args.out, payload, csv_rows,
                    {"triples": _triple_writer(labels)})
    return EXIT_OK


# -- argument parsing ----------------------------------------------------------

def _from_checks(name: str):
    """The handler alcove.checks.<name>, a closure that imports that module when it runs."""
    def run(args: SimpleNamespace) -> int:
        from . import checks
        return getattr(checks, name)(args)
    return run


REQUIRED = object()  # the default of a flag that must be given
_SYSTEM = {"--series": ("series", str, REQUIRED, 1), "--rank": ("rank", int, REQUIRED, 1)}
_LEVEL = {"--level": ("level", int, 1, 1)}
_GRID = {**_LEVEL, "--grid": ("grid", (rootdata.GRID_SHIFTED, rootdata.GRID_FULL), None, 1)}
_JSON = {"--format": ("fmt", ("json",), "json", 1), "--out": ("out", str, None, 1)}
_CSV = {**_JSON, "--format": ("fmt", ("json", "csv"), "json", 1)}
# Each subcommand's handler and flags, a flag as (attribute, converter or choices,
# default, number of values): a subcommand takes only the flags its handler reads.
COMMANDS = {
    "roots": (cmd_roots, {**_SYSTEM, **_LEVEL, **_JSON, "--elements": ("elements", bool, False, 0)}),
    "faces": (_from_checks("cmd_faces"), {**_SYSTEM, **_JSON}),
    "grid": (cmd_grid, {**_SYSTEM, **_GRID, **_CSV}),
    "char": (_from_checks("cmd_char"), {**_SYSTEM, "--weight": ("weight", str, REQUIRED, 1),
                                        "--point": ("point", str, REQUIRED, 1), **_JSON}),
    "fusion": (cmd_fusion, {**_SYSTEM, **_GRID, **_CSV, "--pair": ("pair", str, None, 2)}),
    "verify": (_from_checks("cmd_verify"), {
        "--series": ("series", str, None, 1), "--rank": ("rank", int, None, 1),
        **_GRID, **_JSON, "--tolerance": ("tolerance", float, None, 1),
        "--seed": ("seed", int, rootdata.DEFAULT_SEED, 1),
        "--samples": ("samples", int, rootdata.DEFAULT_SAMPLES, 1)}),
}


def _usage(args) -> int:
    """Print every subcommand with its flags as COMMANDS lists them, optional ones in brackets."""
    print("usage: alcove COMMAND [--FLAG VALUE ...]")
    for command, (_, flags) in COMMANDS.items():
        words = []
        for flag, (attr, kind, default, nargs) in flags.items():
            value = "|".join(kind) if isinstance(kind, tuple) else attr.upper()
            word = " ".join([flag] + nargs * [value])
            words.append(word if default is REQUIRED else f"[{word}]")
        print(f"  {command:<7}{' '.join(words)}")
    return EXIT_OK


def parse_args(argv: list[str]) -> SimpleNamespace:
    """Handler (as run) and flag values of argv: exact flag names, --flag value or --flag=value."""
    if "-h" in argv or "--help" in argv:
        return SimpleNamespace(run=_usage)
    if not argv or argv[0] not in COMMANDS:
        raise ConfigurationError(f"argument command: invalid choice: {(argv[0] if argv else '')!r} "
                                 f"(choose from {', '.join(COMMANDS)})")
    (run, flags), rest = COMMANDS[argv[0]], argv[1:]
    args = SimpleNamespace(run=run, **{attr: default for attr, _, default, _ in flags.values()})
    while rest:
        flag, eq, value = rest.pop(0).partition("=")
        if flag not in flags:
            raise ConfigurationError(f"unrecognized arguments: {flag}{eq}{value}")
        attr, kind, _, nargs = flags[flag]
        values = [value] if eq else rest[:nargs]
        if len(values) != nargs or any(v.startswith("--") for v in values):
            raise ConfigurationError(f"argument {flag}: expected {nargs} value(s)")
        del rest[:0 if eq else nargs]
        try:
            if isinstance(kind, tuple) and values[0] not in kind:
                raise ValueError(f"invalid choice: {values[0]!r} "
                                 f"(choose from {', '.join(map(repr, kind))})")
            values = values if isinstance(kind, tuple) else [kind(v) for v in values]
        except ValueError as exc:  # int('x') says: invalid literal for int() with base 10: 'x'
            raise ConfigurationError(f"argument {flag}: {exc}") from None
        setattr(args, attr, values[0] if nargs == 1 else values or True)
    missing = [flag for flag, spec in flags.items() if getattr(args, spec[0]) is REQUIRED]
    if missing:
        raise ConfigurationError(f"the following arguments are required: {', '.join(missing)}")
    return args


def _refuse_unwritable(out: str) -> None:
    """Refuse an --out that names a directory or lies in none, with the reason open(out, "w") gives."""
    parent = os.path.dirname(out) or "."
    if os.path.isdir(out):
        reason = os.strerror(errno.EISDIR)
    elif os.path.isdir(parent):
        return
    else:
        try:
            os.stat(parent)
            reason = os.strerror(errno.ENOTDIR)  # the parent is a file
        except OSError as exc:  # the parent, or a directory above it, is missing
            reason = exc.strerror
    raise ConfigurationError(f"cannot write {out}: {reason}")


def main(argv: list[str] | None = None) -> int:
    try:
        args = parse_args(sys.argv[1:] if argv is None else argv)
        if getattr(args, "level", 0) < 0:  # faces and char take no --level
            raise ConfigurationError("level must be nonnegative")
        if getattr(args, "level", 0) > rootdata.MAX_LEVEL:
            raise ConfigurationError(f"level {args.level} exceeds cap {rootdata.MAX_LEVEL}")
        if getattr(args, "out", None):  # before the handler: no work and no file if refused
            _refuse_unwritable(args.out)
        code = args.run(args)
        sys.stdout.flush()  # a closed stdout raises here, not in the shutdown flush
        return code
    except BrokenPipeError:  # the reader closed stdout: end as a shell reports SIGPIPE
        os.dup2(os.open(os.devnull, os.O_WRONLY), sys.stdout.fileno())  # so the exit flush succeeds
        return EXIT_BROKEN_PIPE
    except (ValueError, weyl.ResourceError) as exc:  # bad input or flags, singular point, cap
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_CONFIG


if __name__ == "__main__":
    sys.exit(main())
