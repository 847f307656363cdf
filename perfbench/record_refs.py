"""Record the reference output of every benchmark job at the current commit.

    python3 perfbench/record_refs.py

Runs each job once, verify jobs at the default seed, and writes its stdout to
perfbench/refs/<job>.json.gz.  A job that fails is reported and not recorded.
Only re-record when an output change is intended: the benchmark's output
checks compare against these files.
"""

from __future__ import annotations

import gzip
import sys

import run


def main() -> int:
    run.REFS.mkdir(exist_ok=True)
    status = 0
    with run.Launcher() as launcher:
        results = [run.run_job(launcher, job, run.DEFAULT_SEED, "record") for job in run.ALL_JOBS]
    for job, result in zip(run.ALL_JOBS, results):
        if result.exit_code != 0 or "Traceback" in result.stderr:
            print(f"{job.name}: exit {result.exit_code}, not recorded", file=sys.stderr)
            status = 1
            continue
        with open(run.REFS / f"{job.name}.json.gz", "wb") as raw:
            with gzip.GzipFile(fileobj=raw, mode="wb", mtime=0, filename="") as fh:
                fh.write(result.stdout)
        print(f"{job.name}: {len(result.stdout)} bytes in {result.wall_s:.2f} s")
    return status


if __name__ == "__main__":
    sys.exit(main())
