"""Run alcove CLI jobs under two source trees and report every difference.

    python3 scripts/same_outputs.py OLD_SRC NEW_SRC [JOB ...]

OLD_SRC and NEW_SRC are directories that hold the alcove package, such as
the src/ of two checkouts.  Each JOB is one quoted CLI command line, for
example "grid --series A --rank 2 --level 1"; without JOBs the default list
below runs.  Every job runs as `python -m alcove.cli` once with each tree on
PYTHONPATH (no bytecode is written into the trees), and its stdout, stderr
and exit code must agree byte for byte.  One line per job says whether they
do, with both wall times.  The exit code is 1 if any job differs, 0 if none
does, and 2 for bad arguments.  Standard library only.
"""

from __future__ import annotations

import argparse
import os
import shlex
import subprocess
import sys
import time
from pathlib import Path

DEFAULT_JOBS = (
    # the job lines of perfbench/run.py; its verify jobs run at the default seed 2024
    "fusion --series A --rank 2 --level 6",
    "fusion --series B --rank 2 --level 4",
    "fusion --series G --rank 2 --level 4",
    "fusion --series C --rank 3 --level 2",
    "fusion --series A --rank 2 --level 6 --pair 2,1 1,2",
    "grid --series F --rank 4 --level 1",
    "grid --series D --rank 4 --level 1",
    "grid --series B --rank 2 --level 2 --grid full",
    "roots --series F --rank 4 --elements",
    "verify --level 2",
    "verify --series B --rank 2 --level 2",
    "verify --series G --rank 2 --level 1",
    # the same verify jobs at seed 7
    "verify --level 2 --seed 7",
    "verify --series B --rank 2 --level 2 --seed 7",
    "verify --series G --rank 2 --level 1 --seed 7",
    # a large Weyl group and the CSV forms
    "grid --series E --rank 6 --level 1",
    # the Weyl element list streamed at |W| = 51,840 (45 MB of JSON) and 1,920
    "roots --series E --rank 6 --elements",
    "roots --series D --rank 5 --elements",
    "grid --series B --rank 2 --level 2 --grid full --format csv",
    "fusion --series A --rank 2 --level 6 --format csv",
    # the --pair CSV slab and a large streamed table (2.8 MB of triples)
    "fusion --series A --rank 2 --level 3 --pair 1,0 0,1 --format csv",
    "fusion --series A --rank 2 --level 10",
    # every face row (rho_mu included), and rank-3 face stabilizers through verify
    # (A3 k=2 and C3 k=1 exit 1 on fundamental_formula's float tolerance)
    "faces --series A --rank 3",
    "faces --series B --rank 3",
    "faces --series C --rank 3",
    "faces --series D --rank 4",
    "faces --series G --rank 2",
    "faces --series F --rank 4",
    "faces --series E --rank 6",
    "faces --series C --rank 5",
    "faces --series D --rank 5",
    # the largest alcoves under the face cap: E7, and 511 faces at rank 8 (E8, B8)
    "faces --series E --rank 7",
    "faces --series E --rank 8",
    "faces --series B --rank 8",
    # 2^10 - 1 faces: refused with exit 2 before any face is built
    "faces --series A --rank 9",
    "verify --series A --rank 3 --level 2",
    "verify --series C --rank 3 --level 1",
    "verify --series B --rank 3 --level 1",
    # the full grid's |W| scale in the orthogonality suite (exit 1 by design), and
    # the level-shift rule at D4, the largest group verify admits (about 25 s)
    "verify --level 1 --grid full",
    "verify --series D --rank 4 --level 1",
    # one character at a regular point, at the identity and at a singular point (exit 2)
    "char --series A --rank 2 --weight 1,1 --point 1/5,2/7",
    "char --series A --rank 2 --weight 1,1 --point 0,0",
    "char --series A --rank 2 --weight 1,1 --point 1,0",
    "char --series G --rank 2 --weight 2,1 --point 1/7,2/11",
    # caps raised in the layers a subcommand loads itself (exit 2), and the
    # lattice index over many levels and at E8
    "fusion --series A --rank 3 --level 120",
    "grid --series A --rank 2 --level 100000",
    "roots --series A --rank 2 --level 60",
    "roots --series E --rank 8 --level 3",
    # flag errors (exit 2) and the full-grid fusion table
    "grid --series A --rank 1 --seed 1",
    "roots --series A --rank 1 --format csv",
    "fusion --series A --rank 2 --level 3 --grid full",
    # the one full grid of rank >= 3 under the table cap: 5,184 points off the
    # cached Smith form of D4 (divisors 1, 1, 2, 2) scaled by k+h^v = 6
    "grid --series D --rank 4 --level 0 --grid full",
    # the same grid at level 1 (9,604 points) is refused by the table cap (exit 2); its
    # non-cyclic Smith form at level 1 runs in the regularity and level-shift suites
    # of `verify --series D --rank 4 --level 1` above
    "grid --series D --rank 4 --level 1 --grid full",
    # non-simply-laced root coordinates and symmetrizers, and E7's datum, whose
    # weyl_order is null above the group cap
    "roots --series B --rank 5 --elements",
    "roots --series G --rank 2 --elements",
    "roots --series C --rank 4",
    "roots --series E --rank 7",
    # the record templates: Weyl elements at rank 1 (the identity's word is []),
    # and fusion triples at rank 1 and at rank 4
    "roots --series A --rank 1 --elements",
    "fusion --series A --rank 1 --level 3",
    "fusion --series D --rank 4 --level 1",
    # shifted grids whose points y / (k+h^v) have a common factor in some rows, the
    # contragredient of non-self-dual weights, F4's symmetrizer 1/2, and a rational
    # point whose coordinates have distinct denominators
    "grid --series G --rank 2 --level 3",
    "grid --series C --rank 3 --level 2",
    "fusion --series D --rank 5 --level 1",
    "fusion --series E --rank 6 --level 1",
    "roots --series F --rank 4",
    "char --series B --rank 3 --weight 0,0,1 --point 1/4,1/6,1/10",
    # the flag table's usage text, and the check handlers' refusals: verify's
    # sample count, faces' missing CSV form and char's point of the wrong rank
    "--help",
    "verify --samples 0",
    "faces --series A --rank 2 --format csv",
    "char --series A --rank 2 --weight 1,1 --point 1/3",
)


def run_job(src: Path, job: str, timeout: float) -> tuple[tuple[int, bytes, bytes], float]:
    """((exit code, stdout, stderr), wall seconds) of one CLI job under the tree src."""
    env = dict(os.environ, PYTHONPATH=str(src), PYTHONDONTWRITEBYTECODE="1")
    start = time.perf_counter()
    done = subprocess.run([sys.executable, "-m", "alcove.cli", *shlex.split(job)],
                          capture_output=True, env=env, timeout=timeout)
    return (done.returncode, done.stdout, done.stderr), time.perf_counter() - start


def differences(old: tuple[int, bytes, bytes], new: tuple[int, bytes, bytes]) -> list[str]:
    out = []
    if old[0] != new[0]:
        out.append(f"exit code {old[0]} != {new[0]}")
    for name, a, b in (("stdout", old[1], new[1]), ("stderr", old[2], new[2])):
        if a != b:
            at = next((i for i, (x, y) in enumerate(zip(a, b)) if x != y), min(len(a), len(b)))
            out.append(f"{name} differs at byte {at} ({len(a)} vs {len(b)} bytes)")
    return out


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("old_src", type=Path)
    parser.add_argument("new_src", type=Path)
    parser.add_argument("jobs", nargs="*", metavar="JOB", help="one quoted CLI command line")
    parser.add_argument("--timeout", type=float, default=600.0, help="seconds per job run")
    args = parser.parse_args(argv)
    for src in (args.old_src, args.new_src):
        if not (src / "alcove" / "__init__.py").is_file():
            parser.error(f"{src} holds no alcove package")
    failed = 0
    for job in args.jobs or DEFAULT_JOBS:
        old, old_s = run_job(args.old_src.resolve(), job, args.timeout)
        new, new_s = run_job(args.new_src.resolve(), job, args.timeout)
        found = differences(old, new)
        failed += bool(found)
        status = "DIFF" if found else "same"
        print(f"{status}  {old_s:7.3f} s -> {new_s:7.3f} s  exit {old[0]}  {job}"
              + "".join(f"\n      {line}" for line in found), flush=True)
    print(f"{failed} of {len(args.jobs or DEFAULT_JOBS)} jobs differ")
    return 1 if failed else 0


if __name__ == "__main__":
    sys.exit(main())
