"""Peak RSS of alcove CLI jobs under two source trees, run alternately.

    python3 scripts/job_rss.py OLD_SRC NEW_SRC [--runs N] [--workload NAME ...] [JOB ...]

OLD_SRC and NEW_SRC are directories that hold the alcove package, such as the
src/ of two checkouts.  Each JOB is one quoted CLI command line; given JOBs
form the group "jobs".  --workload NAME adds the jobs of that perfbench
workload, as perfbench/run.py runs them; without JOBs or --workload every
workload runs.  Each tree gets its own perfbench/launcher.py process, started
before this script holds any results, so a job's ru_maxrss (from wait4) is
its own peak.  Every run takes each job under both trees, old first in even
runs and new first in odd ones.  The first row, "floor", is `python -c pass`:
the least any job can report.  One row per job gives, for each tree, the median
[min, max] of ru_maxrss in MB over the runs, the change of the medians and the
exit codes; one row per group gives the largest job median under each tree,
the estimate of perfbench's peak_rss_mb.  Jobs start through perfbench's own
Launcher, so they get its environment (ALCOVE_THREADS unset) and its
per-job timeout, JOB_TIMEOUT_S.  Job output is discarded; the rest of the
caller's environment is passed on: with PYTHONDONTWRITEBYTECODE=1 and no
__pycache__ in either tree, every job compiles what it imports.  The exit
code is 0 after a measurement and 2 for bad arguments.  Standard library only.
"""

from __future__ import annotations

import argparse
import os
import shlex
import statistics
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
PERFBENCH = ROOT / "perfbench"
sys.path.insert(0, str(PERFBENCH))
import run as perfbench  # noqa: E402  the workloads' job lines, read where they are defined

FLOOR = ("floor", ["-c", "pass"])


def spread(kb: list[int]) -> str:
    mb = [x / 1024 for x in kb]
    return f"{statistics.median(mb):7.2f} [{min(mb):.2f}, {max(mb):.2f}]"


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("old_src", type=Path)
    parser.add_argument("new_src", type=Path)
    parser.add_argument("jobs", nargs="*", metavar="JOB", help="one quoted CLI command line")
    parser.add_argument("--runs", type=int, default=7, help="runs of every job under each tree")
    parser.add_argument("--workload", action="append", choices=sorted(perfbench.WORKLOADS),
                        help="add a perfbench workload's jobs (repeatable)")
    args = parser.parse_intermixed_args(argv)
    trees = [args.old_src.resolve(), args.new_src.resolve()]
    for src in trees:
        if not (src / "alcove" / "__init__.py").is_file():
            parser.error(f"{src} holds no alcove package")
    if args.runs < 1:
        parser.error("--runs must be positive")
    groups = {"jobs": [shlex.split(job) for job in args.jobs]} if args.jobs else {}
    for name in args.workload or ([] if args.jobs else perfbench.WORKLOADS):
        groups[name] = [job.argv(perfbench.DEFAULT_SEED) for job in perfbench.WORKLOADS[name].jobs]
    jobs = [FLOOR] + [(shlex.join(line), ["-m", "alcove.cli", *line])
                      for lines in groups.values() for line in lines]
    kb = {label: ([], []) for label, _ in jobs}
    codes = {label: (set(), set()) for label, _ in jobs}
    launchers = []
    try:
        for src in trees:  # child_env() reads perfbench.SRC when the launcher starts
            perfbench.SRC = src
            launchers.append(perfbench.Launcher())
        for r in range(args.runs):
            for label, job in jobs:
                for side in ((0, 1) if r % 2 == 0 else (1, 0)):
                    done = launchers[side].run([sys.executable, *job], os.devnull, os.devnull)
                    kb[label][side].append(done["maxrss_kb"])
                    codes[label][side].add(done["exit_code"])
    finally:
        for launcher in launchers:
            launcher.close()

    width = max(len(label) for label in kb)
    print(f"{'job':<{width}}  {'old MB: median [min, max]':>27}  {'new MB: median [min, max]':>27}"
          f"  {'change':>7}  exit  ({args.runs} runs)")
    medians = {}
    for label, (old, new) in kb.items():
        medians[label] = [statistics.median(old) / 1024, statistics.median(new) / 1024]
        exits = "/".join(",".join(map(str, sorted(c))) for c in codes[label])
        print(f"{label:<{width}}  {spread(old):>27}  {spread(new):>27}"
              f"  {medians[label][1] - medians[label][0]:+7.2f}  {exits}")
    for name, lines in groups.items():
        old, new = (max(medians[shlex.join(line)][side] for line in lines) for side in (0, 1))
        print(f"workload {name}: largest job median {old:.2f} -> {new:.2f} MB ({new - old:+.2f})")
    return 0


if __name__ == "__main__":
    sys.exit(main())
