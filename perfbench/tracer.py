"""Per-layer tracing of one alcove CLI job, installed from outside the package.

Every public function of every ``alcove`` module is wrapped at each module
binding that refers to it, including names bound by ``from .x import y``.
Most wrappers record a span (name, start, end, parent, job id); the hot leaf
functions in ``COUNTED`` only count calls.  Spans stay in memory and are
written out once, when the job ends.  Tracing assumes the serial default
(``ALCOVE_THREADS`` unset): the span stack is not shared between threads.

Run as a script it traces one job; stdout and the exit code are the CLI's:

    PYTHONPATH=src python3 perfbench/tracer.py spans.json JOB_ID -- \\
        fusion --series A --rank 2 --level 6
"""

from __future__ import annotations

import functools
import json
import sys
from collections import Counter
from time import perf_counter

PACKAGE = "alcove"

# Called 10^4 to 10^5 times per job: counted, not spanned.
COUNTED = frozenset({"rootdata.inner", "weyl.act", "chareval.unit_phase",
                     "chareval.is_regular", "chareval.pairing", "chareval.eval_exp"})


def _grid_points(tracer: "Tracer", grid) -> None:
    tracer.counts["chareval.grid_points"] += len(grid)


def _fusion_table(tracer: "Tracer", table) -> None:
    tracer.counts["verlinde.coefficients"] += len(table.weights) ** 3
    tracer.counts["verlinde.nonzero_coefficients"] += len(table.entries)
    tracer.note_max("verlinde.max_residual", table.max_residual)


def _fusion_row(tracer: "Tracer", row) -> None:
    tracer.counts["verlinde.coefficients"] += len(row)
    tracer.counts["verlinde.nonzero_coefficients"] += sum(1 for n in row.values() if n)


def _extraction(tracer: "Tracer", result) -> None:
    tracer.note_max("verlinde.max_residual", result.max_residual)


# Functions whose return value feeds a counter, keyed by traced name.
OBSERVERS = {
    "chareval.shifted_grid": _grid_points,
    "chareval.full_grid": _grid_points,
    "verlinde.fusion_table": _fusion_table,
    "verlinde.fusion_coefficients": _fusion_row,
    "verlinde.extract_multiplicities": _extraction,
}


class Tracer:
    """Installs wrappers on the alcove modules and records what they see."""

    def __init__(self, job_id: str = "0"):
        self.job_id = job_id
        self.spans: list[list] = []      # [name, start, end, parent index, error]
        self.counts: Counter = Counter()
        self.maxima: dict[str, float] = {}
        self._stack: list[int] = []
        self._saved: list[tuple[object, str, object]] = []

    def note_max(self, name: str, value: float) -> None:
        self.maxima[name] = max(self.maxima.get(name, value), value)

    # -- installation ----------------------------------------------------------

    def install(self) -> None:
        modules = [m for name, m in sorted(sys.modules.items())
                   if m is not None and name.partition(".")[0] == PACKAGE]
        targets: dict[int, tuple[object, object]] = {}   # id(original) -> (original, wrapper)
        for mod in modules:
            short = mod.__name__.rpartition(".")[2]
            for attr, obj in vars(mod).items():
                if (attr.startswith("_") or isinstance(obj, type) or not callable(obj)
                        or getattr(obj, "__module__", None) != mod.__name__):
                    continue
                targets[id(obj)] = (obj, self._wrap(f"{short}.{attr}", obj))
        for mod in modules:
            for attr, obj in list(vars(mod).items()):
                hit = targets.get(id(obj))
                if hit is not None and hit[0] is obj:
                    self._saved.append((mod, attr, obj))
                    setattr(mod, attr, hit[1])

    def restore(self) -> None:
        while self._saved:
            mod, attr, obj = self._saved.pop()
            setattr(mod, attr, obj)

    def __enter__(self) -> "Tracer":
        self.install()
        return self

    def __exit__(self, *exc) -> None:
        self.restore()

    def _wrap(self, name: str, fn):
        if name in COUNTED:
            counts = self.counts

            @functools.wraps(fn)
            def counted(*args, **kwargs):
                counts[name] += 1
                return fn(*args, **kwargs)
            return counted

        spans, stack, observe = self.spans, self._stack, OBSERVERS.get(name)

        @functools.wraps(fn)
        def spanned(*args, **kwargs):
            record = [name, 0.0, 0.0, stack[-1] if stack else -1, None]
            stack.append(len(spans))
            spans.append(record)
            record[1] = perf_counter()
            try:
                result = fn(*args, **kwargs)
            except BaseException as exc:
                record[4] = type(exc).__name__
                raise
            finally:
                record[2] = perf_counter()
                stack.pop()
            if observe is not None:
                observe(self, result)
            return result
        return spanned

    # -- output ----------------------------------------------------------------

    def dump(self, path: str) -> None:
        with open(path, "w") as fh:
            json.dump({"job": self.job_id, "spans": self.spans,
                       "counts": dict(self.counts), "maxima": self.maxima}, fh)


def summarize(spans: list[list]) -> dict[str, dict]:
    """Per traced name: calls, inclusive seconds, self seconds and error counts.

    Self time is a span's duration minus the time its direct child spans
    cover.  Inclusive time skips spans nested in a span of the same name.
    """
    covered = [0.0] * len(spans)
    for name, start, end, parent, _ in spans:
        if parent >= 0:
            covered[parent] += end - start
    out: dict[str, dict] = {}
    for i, (name, start, end, parent, error) in enumerate(spans):
        row = out.setdefault(name, {"calls": 0, "s": 0.0, "self_s": 0.0, "errors": Counter()})
        row["calls"] += 1
        row["self_s"] += (end - start) - covered[i]
        up = parent
        while up >= 0 and spans[up][0] != name:
            up = spans[up][3]
        if up < 0:
            row["s"] += end - start
        if error is not None:
            row["errors"][error] += 1
    return out


def main(argv: list[str]) -> int:
    if len(argv) < 3 or argv[2] != "--":
        print("usage: tracer.py SPANS_OUT JOB_ID -- CLI_ARGS...", file=sys.stderr)
        return 2
    out_path, job_id, cli_args = argv[0], argv[1], argv[3:]
    import alcove.cli

    tracer = Tracer(job_id)
    try:
        with tracer:
            return alcove.cli.main(cli_args)
    finally:
        sys.stdout.flush()
        tracer.dump(out_path)


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
