"""Command-line surface: parse arguments, print data dumps and verify reports.

Exit codes: 0 success, 1 verification failure, 2 configuration error (bad
flags included), 3 numerical-integrity error, 141 stdout closed by its reader
(128 + SIGPIPE).  JSON is canonical; `grid` and `fusion` also offer
CSV, a lossy export with complex entries rendered as "re+imi" strings.  Each
subcommand takes only the flags it reads: the suites live in alcove.verify, and
--tolerance, --seed and --samples are options of `verify` only.
Each handler imports only the layers it runs: without bytecode a job compiles all it imports.
Identical configurations produce byte-identical artifacts.
"""

from __future__ import annotations

import os
import sys
from collections.abc import Iterator
from itertools import chain
from math import isfinite
from types import SimpleNamespace

try:  # json's C string escaper, without importing json itself (about 2 ms per process)
    from _json import encode_basestring_ascii as _quote
except ImportError:  # an interpreter without the C accelerator
    from json.encoder import encode_basestring_ascii as _quote

from . import rootdata, weyl
from .rootdata import ConfigurationError, TorusPoint, rational_text

EXIT_OK = 0
EXIT_VERIFICATION = 1
EXIT_CONFIG = 2
EXIT_INTEGRITY = 3
EXIT_BROKEN_PIPE = 141  # 128 + SIGPIPE
_ITEM = "\n    "  # the indentation of a streamed record: an item of a top-level array


def _to_json(o, nl: str = "\n") -> str:
    """json.dumps(o, indent=2, sort_keys=True), byte for byte; keys must be strings.

    json runs its pure-Python encoder whenever indent is set; this writer
    joins a list of ints or of strings in one call.
    """
    if isinstance(o, str):
        return _quote(o)
    if o is None or o is True or o is False:
        return "null" if o is None else "true" if o else "false"
    if isinstance(o, int):
        return int.__repr__(o)
    if isinstance(o, float):
        if isfinite(o):
            return float.__repr__(o)
        return "NaN" if o != o else "Infinity" if o > 0 else "-Infinity"
    inner = nl + "  "
    if isinstance(o, dict):  # a key that is not a str fails in sorted() or in _quote
        if not o:
            return "{}"
        items = [_quote(key) + ": " + _to_json(o[key], inner) for key in sorted(o)]
        return "{" + inner + ("," + inner).join(items) + nl + "}"
    if not isinstance(o, (list, tuple)):
        raise TypeError(f"Object of type {o.__class__.__name__} is not JSON serializable")
    if not o:
        return "[]"
    kinds = set(map(type, o))
    if kinds == {int}:
        items = map(int.__repr__, o)
    elif kinds == {str}:
        items = map(_quote, o)
    else:
        items = [_to_json(x, inner) for x in o]
    return "[" + inner + ("," + inner).join(items) + nl + "]"


def _template(shape: dict, nl: str = _ITEM) -> str:
    """The %-template of a record laid out as _to_json lays out shape, whose leaves are "%d" or "%s".

    The leaves' quotes are dropped, so "%s" takes text that is already JSON.
    """
    return _to_json(shape, nl).replace('"%d"', "%d").replace('"%s"', "%s")


def _json_pieces(payload: dict, writers: dict | None = None):
    """The text _to_json(payload) + "\n" in pieces, one per record of an iterator value.

    A top-level value that is an iterator is written as a JSON array, one item
    at a time, so the output is never held whole.  writers maps such a key to
    the function that writes one of its records as _to_json(record, _ITEM) would.
    """
    sep = "{"
    for key in sorted(payload):
        value, head = payload[key], sep + "\n  " + _quote(key) + ": "
        sep = ","
        if not isinstance(value, Iterator):
            yield head + _to_json(value, "\n  ")
            continue
        write = (writers or {}).get(key) or (lambda item: _to_json(item, _ITEM))
        bracket = "["
        for item in value:
            yield head + bracket + _ITEM + write(item)
            head, bracket = "", ","
        yield head + ("[]" if bracket == "[" else "\n  ]")
    yield "{}\n" if sep == "{" else "\n}\n"


def _emit(fmt: str, out: str | None, payload: dict, csv_rows=None, writers=None) -> None:
    """Write payload as JSON, or the rows that csv_rows() yields as CSV, piece by piece.

    writers maps a streamed key to its record writer (see _json_pieces).  Every
    check that can fail runs before this call: the pieces only format data that
    is already computed.
    """
    if fmt == "csv":
        pieces = (",".join(str(c) for c in row) + "\n" for row in csv_rows())
    else:
        pieces = _json_pieces(payload, writers)
    if out:
        try:
            with open(out, "w") as fh:
                fh.writelines(pieces)
        except OSError as exc:
            raise ConfigurationError(f"cannot write {out}: {exc.strerror}") from None
    else:
        sys.stdout.writelines(pieces)


def _element_writer(rank: int):
    """The writer of a roots --elements record: one %-template for the rank, and a join for the word."""
    template = _template({"action": [["%d"] * rank] * rank, "sign": "%d", "word": "%s"})
    key, entry = _ITEM + "  ", _ITEM + "    "  # the word's closing bracket and its entries

    def write(record):
        word = record["word"]
        word = "[" + entry + ("," + entry).join(map(str, word)) + key + "]" if word else "[]"
        return template % (*chain.from_iterable(record["action"]), record["sign"], word)
    return write


def _triple_writer(labels):
    """The writer of a fusion triple: one %-template over the labels, quoted once."""
    template = _template({"a": "%s", "b": "%s", "c": "%s", "n": "%d"})
    quoted = {label: _quote(label) for label in labels}
    return lambda t: template % (quoted[t["a"]], quoted[t["b"]], quoted[t["c"]], t["n"])


def _point_text(x: TorusPoint) -> list[str]:
    """The coordinates of the point y / m as JSON strings, "n" or "n/d" in lowest terms."""
    return [rational_text(c, x.m) for c in x.y]


def _weight_label(lam) -> str:
    return "+".join(f"{int(c)}w{i}" for i, c in enumerate(lam.coords) if c) or "0"


def _parse_coords(rs, text: str, what: str, kind: str, parse):
    """The weight of rs.rank comma-separated coordinates, each read by parse (int or Fraction)."""
    try:
        coords = [parse(x) for x in text.split(",")]
    except (ValueError, ZeroDivisionError):
        raise ConfigurationError(f"{what} {text!r} needs {kind} coordinates") from None
    if len(coords) != rs.rank:
        raise ConfigurationError(f"{what} needs {rs.rank} coordinates")
    return rs.weight_from_coords(coords)


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
    _emit(args.fmt, args.out, data, None, {"weyl_elements": _element_writer(rs.rank)})
    return EXIT_OK


def cmd_faces(args: SimpleNamespace) -> int:
    from . import stabilizers
    rs = rootdata.build_root_system(args.series, args.rank)
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
    _emit(args.fmt, args.out, {"schema": "alcove/faces/v1",
                               "system": f"{args.series}{args.rank}", "faces": rows})
    return EXIT_OK


def cmd_char(args: SimpleNamespace) -> int:
    from fractions import Fraction

    from . import chareval
    rs = rootdata.build_root_system(args.series, args.rank)
    lam = _parse_coords(rs, args.weight, "weight", "integer", int)
    x = TorusPoint(_parse_coords(rs, args.point, "point", "rational", Fraction))
    value = chareval.character(rs, lam, x)
    _emit(args.fmt, args.out, {"schema": "alcove/char/v1", "weight": _weight_label(lam),
                               "point": _point_text(x),
                               "re": value.real, "im": value.imag})
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
    _emit(args.fmt, args.out, payload, csv_rows)
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
    _emit(args.fmt, args.out, payload, csv_rows, {"triples": _triple_writer(labels)})
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
    _emit(args.fmt, args.out,
          {"schema": "alcove/verify/v1", "reports": [r.to_json_dict() for r in reports]})
    return EXIT_OK if all(r.passed for r in reports) else EXIT_VERIFICATION


# -- argument parsing ----------------------------------------------------------

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
    "faces": (cmd_faces, {**_SYSTEM, **_JSON}),
    "grid": (cmd_grid, {**_SYSTEM, **_GRID, **_CSV}),
    "char": (cmd_char, {**_SYSTEM, "--weight": ("weight", str, REQUIRED, 1),
                        "--point": ("point", str, REQUIRED, 1), **_JSON}),
    "fusion": (cmd_fusion, {**_SYSTEM, **_GRID, **_CSV, "--pair": ("pair", str, None, 2)}),
    "verify": (cmd_verify, {"--series": ("series", str, None, 1), "--rank": ("rank", int, None, 1),
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


def main(argv: list[str] | None = None) -> int:
    try:
        args = parse_args(sys.argv[1:] if argv is None else argv)
        if getattr(args, "level", 0) < 0:  # faces and char take no --level
            raise ConfigurationError("level must be nonnegative")
        if getattr(args, "level", 0) > rootdata.MAX_LEVEL:
            raise ConfigurationError(f"level {args.level} exceeds cap {rootdata.MAX_LEVEL}")
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
