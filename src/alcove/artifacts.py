"""What a CLI job leaves: its artifact, the text of weights and points in it, and its exit code.

The writer renders JSON as json.dumps(..., indent=2, sort_keys=True) would,
byte for byte, and streams a top-level iterator value one record at a time;
a streamed record type is written from one %-template built by rendering its
shape through the same writer.  alcove.cli and alcove.checks both import this
module, never each other: under `python -m alcove.cli` the CLI runs as
__main__, so importing alcove.cli would compile it a second time.
"""

from __future__ import annotations

import sys
from collections.abc import Iterator
from itertools import chain
from math import isfinite

try:  # json's C string escaper, without importing json itself (about 2 ms per process)
    from _json import encode_basestring_ascii as _quote
except ImportError:  # an interpreter without the C accelerator
    from json.encoder import encode_basestring_ascii as _quote

from .weights import ConfigurationError, TorusPoint, rational_text

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
    check that can fail runs before this call, the --out directory's included
    (cli.main): the pieces only format data that is already computed.
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


# -- weights and points as text: read from flags, written in artifacts ------------

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
