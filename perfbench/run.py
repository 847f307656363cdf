"""The alcove benchmark: closed-loop passes of CLI jobs, each job a fresh process.

    python3 perfbench/run.py --workload fusion --seed 2024 --seconds 50 --trace 0

One client runs a workload's jobs back to back, pass after pass, until the next
pass would overrun ``--seconds``.  Every job's output is checked against the
reference recorded in ``perfbench/refs``.  ``--trace 0`` reports the
end-to-end metrics, with times scaled by the host speed that probe_host()
measures; ``--trace 1`` alternates untraced and traced passes and reports the
per-layer metrics.  The last line of stdout is one JSON object
with the keys correct, attempted, failed and metrics; the lines above it
print the same metrics by name and unit, the machine record and every
failure.  A full record of the run is written to ``perfbench/out``.  See
perfbench/README.md for the workloads and metric definitions.
"""

from __future__ import annotations

import argparse
import cmath
import gzip
import hashlib
import json
import math
import os
import platform
import statistics
import subprocess
import sys
import time
from dataclasses import dataclass
from fractions import Fraction
from pathlib import Path

import tracer

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
REFS = HERE / "refs"
OUT = HERE / "out"

DEFAULT_SEED = 2024          # the CLI's own default; the references use it
FLOAT_TOL = 1e-12
SETUP_REPEATS = 7
JOB_TIMEOUT_S = 60
# Median time of probe_host() on the reference VM (2-vCPU Intel Xeon, Python
# 3.11.7).  Timed metrics are scaled to a host on which the probe takes this long.
PROBE_REF_S = 0.15
# Pass time grows as (probe time) ** 0.8 on that VM: the least-squares slope of
# log pass time on log probe time over 84 runs of the three workloads.
PROBE_ELASTICITY = 0.8


@dataclass(frozen=True)
class Job:
    name: str
    args: tuple[str, ...]

    def argv(self, seed: int) -> list[str]:
        """CLI arguments; only verify jobs take the workload seed."""
        extra = ["--seed", str(seed)] if self.args[0] == "verify" else []
        return [*self.args, *extra]


def _jobs(*lines: str) -> tuple[Job, ...]:
    return tuple(Job(name, tuple(cmd.split())) for name, cmd in
                 (line.split(": ") for line in lines))


@dataclass(frozen=True)
class Workload:
    systems: tuple[tuple[str, int], ...]   # every root system the jobs touch
    jobs: tuple[Job, ...]


WORKLOADS = {
    "fusion": Workload((("A", 2), ("B", 2), ("G", 2), ("C", 3)), _jobs(
        "fusion.A2.k6: fusion --series A --rank 2 --level 6",
        "fusion.B2.k4: fusion --series B --rank 2 --level 4",
        "fusion.G2.k4: fusion --series G --rank 2 --level 4",
        "fusion.C3.k2: fusion --series C --rank 3 --level 2",
        "fusion.A2.k6.pair: fusion --series A --rank 2 --level 6 --pair 2,1 1,2")),
    "grid": Workload((("F", 4), ("D", 4), ("B", 2)), _jobs(
        "grid.F4.k1: grid --series F --rank 4 --level 1",
        "grid.D4.k1: grid --series D --rank 4 --level 1",
        "grid.B2.k2.full: grid --series B --rank 2 --level 2 --grid full",
        "roots.F4.elements: roots --series F --rank 4 --elements")),
    "verify": Workload((("A", 1), ("A", 2), ("B", 2), ("G", 2)), _jobs(
        "verify.A1A2.k2: verify --level 2",
        "verify.B2.k2: verify --series B --rank 2 --level 2",
        "verify.G2.k1: verify --series G --rank 2 --level 1")),
}
ALL_JOBS = tuple(job for w in WORKLOADS.values() for job in w.jobs)

END_TO_END = (("wall_s", "s"), ("setup_s", "s"), ("peak_rss_mb", "MB"))

# (name, unit, better) of every per-layer metric of a traced run.
PER_LAYER = (
    *((f"cli.job.{job.name}.s", "s", "lower") for job in ALL_JOBS),
    ("cli.self_s", "s", "lower"),
    ("cli.cpu_s", "s", "lower"),
    ("rootdata.build_root_system.s", "s", "lower"),
    ("rootdata.inner.calls", "count", "lower"),
    ("weyl.enumerate_weyl.s", "s", "lower"),
    ("weyl.act.calls", "count", "lower"),
    ("chareval.character.calls", "count", "lower"),
    ("chareval.character.self_s", "s", "lower"),
    ("chareval.unit_phase.calls", "count", "lower"),
    ("chareval.is_regular.calls", "count", "lower"),
    ("chareval.special_grid.s", "s", "lower"),
    ("chareval.grid_points", "count", "lower"),
    ("chareval.localization_sum.s", "s", "lower"),
    ("conventions.grid_measure.calls", "count", "lower"),
    ("conventions.grid_measure.s", "s", "lower"),
    ("verlinde.fusion_table.self_s", "s", "lower"),
    ("verlinde.coefficients", "count", "lower"),
    ("verlinde.nonzero_ratio", "ratio", "higher"),
    ("verlinde.extract_multiplicities.s", "s", "lower"),
    ("verlinde.max_residual", "abs", "lower"),
    ("identities.fundamental_formula_residual.s", "s", "lower"),
    ("identities.subset_identity_residual.s", "s", "lower"),
    ("identities.orthogonality_matrix.s", "s", "lower"),
    ("identities.pole_rejections", "count", "lower"),
    ("identities.pole_free_ratio", "ratio", "higher"),
    ("stabilizers.enumerate_faces.calls", "count", "lower"),
    ("stabilizers.enumerate_faces.s", "s", "lower"),
    ("levelshift.shift_rule_residual.calls", "count", "lower"),
    ("levelshift.shift_rule_residual.s", "s", "lower"),
    ("levelshift.regular_lattice_points.s", "s", "lower"),
    ("intlinalg.smith_normal_form.calls", "count", "lower"),
    ("intlinalg.self_s", "s", "lower"),
    ("trace.overhead_s", "s", "lower"),
)

# Residual functions whose escaping PoleError is one rejected sample point.
RESIDUALS = ("identities.fundamental_formula_residual", "identities.subset_identity_residual",
             "levelshift.shift_rule_residual")

SETUP_CODE = """\
import time
t0 = time.perf_counter()
import alcove.cli
from alcove import rootdata, weyl
for series, rank in {systems!r}:
    weyl.enumerate_weyl(rootdata.build_root_system(series, rank))
print(repr(time.perf_counter() - t0))
"""


# -- running jobs ---------------------------------------------------------------

def child_env() -> dict[str, str]:
    """The caller's environment with src/ importable and ALCOVE_THREADS unset."""
    env = {k: v for k, v in os.environ.items() if k != "ALCOVE_THREADS"}
    env["PYTHONPATH"] = os.pathsep.join(p for p in (str(SRC), env.get("PYTHONPATH")) if p)
    return env


@dataclass
class JobRun:
    job: Job
    wall_s: float
    cpu_s: float
    rss_mb: float
    exit_code: int
    stdout: bytes
    stderr: str
    traced: bool
    spans: dict | None = None       # what the tracer wrote, for traced runs
    failure: str | None = None      # why the job failed; None if it passed
    wrong: bool = False             # the failure is a wrong output, not a reported one


class Launcher:
    """The launcher.py process that starts every job; see its docstring."""

    def __init__(self):
        self.proc = subprocess.Popen([sys.executable, str(HERE / "launcher.py")],
                                     stdin=subprocess.PIPE, stdout=subprocess.PIPE,
                                     text=True, env=child_env(), cwd=ROOT)

    def run(self, argv: list[str], stdout: Path, stderr: Path) -> dict:
        request = {"argv": argv, "stdout": str(stdout), "stderr": str(stderr),
                   "timeout": JOB_TIMEOUT_S}
        self.proc.stdin.write(json.dumps(request) + "\n")
        self.proc.stdin.flush()
        answer = self.proc.stdout.readline()
        if not answer:
            raise RuntimeError("the job launcher exited")
        return json.loads(answer)

    def close(self) -> None:
        self.proc.stdin.close()
        try:
            self.proc.wait(timeout=JOB_TIMEOUT_S + 10)
        except subprocess.TimeoutExpired:
            self.proc.kill()
            self.proc.wait()
        self.proc.stdout.close()

    def __enter__(self) -> "Launcher":
        return self

    def __exit__(self, *exc) -> None:
        self.close()


def run_job(launcher: Launcher, job: Job, seed: int, job_id: str,
            traced: bool = False) -> JobRun:
    """Run one job in a fresh process, with its output in perfbench/out."""
    OUT.mkdir(exist_ok=True)
    stem = f"{job.name}{'.traced' if traced else ''}"
    out_path, err_path, span_path = (OUT / (stem + ext) for ext in (".out", ".err", ".spans.json"))
    if traced:
        span_path.unlink(missing_ok=True)
        argv = [sys.executable, str(HERE / "tracer.py"), str(span_path), job_id, "--"]
    else:
        argv = [sys.executable, "-m", "alcove.cli"]
    done = launcher.run(argv + job.argv(seed), out_path, err_path)
    spans = json.loads(span_path.read_text()) if traced and span_path.exists() else None
    return JobRun(job, done["wall_s"], done["cpu_s"], done["maxrss_kb"] / 1024,
                  done["exit_code"], out_path.read_bytes(),
                  err_path.read_text(errors="replace"), traced, spans)


@dataclass
class Pass:
    wall_s: float
    runs: list[JobRun]


def run_pass(launcher: Launcher, workload: Workload, seed: int, index: int,
             traced: bool = False, probes: list[float] | None = None) -> Pass:
    """Run every job once; the pass's wall time is the sum of its jobs' times.

    With a probes list, probe_host() runs before each job and its time is
    appended there.
    """
    runs = []
    for job in workload.jobs:
        if probes is not None:
            probes.append(probe_host())
        runs.append(run_job(launcher, job, seed, f"{index}:{job.name}", traced))
    return Pass(sum(run.wall_s for run in runs), runs)


def probe_host() -> float:
    """Seconds for a fixed piece of pure-Python work like alcove's hot loops.

    Its time tracks the speed the host gives this VM, which on a shared host
    drifts by tens of percent over minutes; see README.md.
    """
    start = time.perf_counter()
    total, seen = 0j, {}
    for i in range(1, 2250):
        a, b = Fraction(i % 97 + 1, 101), Fraction(7, i % 13 + 3)
        v = tuple(sum(Fraction(x) * y for x, y in zip((1, -1, 2), (a, b, a))) for _ in range(3))
        angle = v[0] - v[0].numerator // v[0].denominator
        total += cmath.exp(2j * cmath.pi * float(angle))
        seen[v] = total
    return time.perf_counter() - start


def measure_setup(systems) -> float:
    """Seconds to import alcove.cli and build every system's root datum and W."""
    done = subprocess.run([sys.executable, "-c", SETUP_CODE.format(systems=systems)],
                          env=child_env(), cwd=ROOT, capture_output=True, text=True,
                          timeout=JOB_TIMEOUT_S, check=True)
    return float(done.stdout)


# -- output checks ----------------------------------------------------------------

def load_reference(job: Job):
    with gzip.open(REFS / f"{job.name}.json.gz", "rt") as fh:
        return json.load(fh)


def compare(ref, got, path: str = "$") -> str | None:
    """First difference between reference and output JSON, or None.

    Floats may differ by FLOAT_TOL; every other value must be equal.  Keys the
    reference lacks are ignored, keys it has must be present.
    """
    if isinstance(ref, float):
        if isinstance(got, bool) or not isinstance(got, (int, float)):
            return f"{path}: expected a number, got {got!r}"
        return None if abs(got - ref) <= FLOAT_TOL else f"{path}: {got!r} != {ref!r}"
    if isinstance(ref, dict):
        if not isinstance(got, dict):
            return f"{path}: expected an object"
        for key, value in ref.items():
            if key not in got:
                return f"{path}.{key}: missing"
            diff = compare(value, got[key], f"{path}.{key}")
            if diff:
                return diff
        return None
    if isinstance(ref, list):
        if not isinstance(got, list) or len(got) != len(ref):
            return f"{path}: expected a list of {len(ref)}"
        for i, (r, g) in enumerate(zip(ref, got)):
            diff = compare(r, g, f"{path}[{i}]")
            if diff:
                return diff
        return None
    if type(got) is not type(ref) or got != ref:
        return f"{path}: {got!r} != {ref!r}"
    return None


def _suites(report: dict) -> list:
    return [[r["name"], r["system"], r["samples"], r["tolerance"]] for r in report["reports"]]


def check(run: JobRun, ref) -> None:
    """Set run.failure (and run.wrong) from the exit code, stderr and output."""
    if "Traceback (most recent call last)" in run.stderr:
        run.failure, run.wrong = f"traceback (exit {run.exit_code})", True
        return
    try:
        got = json.loads(run.stdout)
    except ValueError:
        run.failure, run.wrong = f"no JSON output (exit {run.exit_code})", True
        return
    if run.job.args[0] != "verify":
        diff = None if run.exit_code == 0 else f"exit {run.exit_code}"
        diff = diff or compare(ref, got)
        if diff:
            run.failure, run.wrong = diff, True
        return
    # Verify output depends on the seed: compare the suites run, not residuals.
    try:
        suites = _suites(got)
        failing = [f"{r['name']} ({r['system']}) {r['max_residual']:.3g} > {r['tolerance']:.3g}"
                   for r in got["reports"] if not r["passed"]]
    except (KeyError, TypeError, ValueError):
        run.failure, run.wrong = "malformed verify report", True
        return
    if suites != _suites(ref):
        run.failure, run.wrong = "suites differ from the reference", True
        return
    if failing or run.exit_code != 0:
        run.failure = f"exit {run.exit_code}; not passed: {', '.join(failing) or 'none'}"
        run.wrong = run.exit_code != 1 or not failing


# -- metrics ------------------------------------------------------------------------

def tail(values: list[float]) -> tuple[int, float] | None:
    """Highest percentile (nearest rank) with at least ten samples beyond it."""
    ordered = sorted(values)
    for p in (99, 95, 90, 75, 50):
        rank = math.ceil(p / 100 * len(ordered))
        if rank >= 1 and len(ordered) - rank >= 10:
            return p, ordered[rank - 1]
    return None


def layer_metrics(traced: list[JobRun]) -> dict[str, float]:
    """Per-layer metrics of one traced pass."""
    funcs: dict[str, dict] = {}
    counts: dict[str, float] = {}
    maxima: dict[str, float] = {}
    job_s = {job.name: 0.0 for job in ALL_JOBS}
    for run in traced:
        data = run.spans or {"spans": [], "counts": {}, "maxima": {}}
        summary = tracer.summarize(data["spans"])
        job_s[run.job.name] = summary.get("cli.main", {}).get("s", 0.0)
        for name, row in summary.items():
            acc = funcs.setdefault(name, {"calls": 0, "s": 0.0, "self_s": 0.0, "errors": {}})
            for key in ("calls", "s", "self_s"):
                acc[key] += row[key]
            for err, n in row["errors"].items():
                acc["errors"][err] = acc["errors"].get(err, 0) + n
        for name, n in data["counts"].items():
            counts[name] = counts.get(name, 0) + n
        for name, v in data["maxima"].items():
            maxima[name] = max(maxima.get(name, v), v)

    def f(name: str, key: str) -> float:
        return funcs.get(name, {}).get(key, 0)

    def layer_self(module: str) -> float:
        return sum(row["self_s"] for name, row in funcs.items() if name.startswith(module + "."))

    coefficients = counts.get("verlinde.coefficients", 0)
    attempts = sum(f(name, "calls") for name in RESIDUALS)
    poles = sum(funcs.get(name, {}).get("errors", {}).get("PoleError", 0) for name in RESIDUALS)
    out = {f"cli.job.{name}.s": s for name, s in job_s.items()}
    out.update({
        "cli.self_s": layer_self("cli"),
        "rootdata.build_root_system.s": f("rootdata.build_root_system", "s"),
        "rootdata.inner.calls": counts.get("rootdata.inner", 0),
        "weyl.enumerate_weyl.s": f("weyl.enumerate_weyl", "s"),
        "weyl.act.calls": counts.get("weyl.act", 0),
        "chareval.character.calls": f("chareval.character", "calls"),
        "chareval.character.self_s": f("chareval.character", "self_s"),
        "chareval.unit_phase.calls": counts.get("chareval.unit_phase", 0),
        "chareval.is_regular.calls": counts.get("chareval.is_regular", 0),
        "chareval.special_grid.s": f("chareval.special_grid", "s"),
        "chareval.grid_points": counts.get("chareval.grid_points", 0),
        "chareval.localization_sum.s": f("chareval.localization_sum", "s"),
        "conventions.grid_measure.calls": f("conventions.grid_measure", "calls"),
        "conventions.grid_measure.s": f("conventions.grid_measure", "s"),
        "verlinde.fusion_table.self_s": f("verlinde.fusion_table", "self_s"),
        "verlinde.coefficients": coefficients,
        "verlinde.nonzero_ratio": (counts.get("verlinde.nonzero_coefficients", 0) / coefficients
                                   if coefficients else 0.0),
        "verlinde.extract_multiplicities.s": f("verlinde.extract_multiplicities", "s"),
        "verlinde.max_residual": maxima.get("verlinde.max_residual", 0.0),
        "identities.fundamental_formula_residual.s": f("identities.fundamental_formula_residual", "s"),
        "identities.subset_identity_residual.s": f("identities.subset_identity_residual", "s"),
        "identities.orthogonality_matrix.s": f("identities.orthogonality_matrix", "s"),
        "identities.pole_rejections": poles,
        "identities.pole_free_ratio": (attempts - poles) / attempts if attempts else 0.0,
        "stabilizers.enumerate_faces.calls": f("stabilizers.enumerate_faces", "calls"),
        "stabilizers.enumerate_faces.s": f("stabilizers.enumerate_faces", "s"),
        "levelshift.shift_rule_residual.calls": f("levelshift.shift_rule_residual", "calls"),
        "levelshift.shift_rule_residual.s": f("levelshift.shift_rule_residual", "s"),
        "levelshift.regular_lattice_points.s": f("levelshift.regular_lattice_points", "s"),
        "intlinalg.smith_normal_form.calls": f("intlinalg.smith_normal_form", "calls"),
        "intlinalg.self_s": layer_self("intlinalg"),
    })
    return out


# -- machine and noise record ---------------------------------------------------

def git_revision() -> str | None:
    """HEAD of the checkout's own .git, if there is one."""
    git = ROOT / ".git"
    try:
        head = (git / "HEAD").read_text().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        if (git / ref).is_file():
            return (git / ref).read_text().strip()
        for line in (git / "packed-refs").read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    except OSError:
        pass
    return None


def source_digest() -> str:
    digest = hashlib.sha256()
    for path in sorted((SRC / "alcove").glob("*.py")):
        digest.update(path.name.encode() + b"\0" + path.read_bytes())
    return digest.hexdigest()


def cpu_model() -> str | None:
    try:
        with open("/proc/cpuinfo") as fh:
            for line in fh:
                if line.startswith("model name"):
                    return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return None


def steal_ticks() -> int | None:
    """Cumulative CPU steal ticks of the whole machine (/proc/stat)."""
    try:
        with open("/proc/stat") as fh:
            return int(fh.readline().split()[8])
    except (OSError, IndexError, ValueError):
        return None


def machine_record() -> dict:
    return {"git_revision": git_revision(), "source_sha256": source_digest(),
            "python": platform.python_version(), "nproc": len(os.sched_getaffinity(0)),
            "cpu_model": cpu_model(), "loadavg": list(os.getloadavg())}


# -- the run ----------------------------------------------------------------------

def closed_loop(step, seconds: float) -> list:
    """Call step(i) until another call would likely end after `seconds`; at least once."""
    start = time.perf_counter()
    results, durations = [], []
    while True:
        t = time.perf_counter()
        results.append(step(len(results)))
        durations.append(time.perf_counter() - t)
        if time.perf_counter() - start + statistics.median(durations) > seconds:
            return results


def timed_run(launcher: Launcher, workload: Workload, seed: int, seconds: float, refs: dict):
    """End-to-end metrics; each time is scaled by the probes of its own phase."""
    setup_probes: list[float] = []
    setups = []
    for _ in range(SETUP_REPEATS):
        setup_probes.append(probe_host())
        setups.append(measure_setup(workload.systems))
    pass_probes: list[float] = []

    def step(i: int) -> Pass:
        done = run_pass(launcher, workload, seed, i, probes=pass_probes)
        for run in done.runs:
            check(run, refs[run.job.name])
        return done

    passes = closed_loop(step, seconds)
    wall_scale = (PROBE_REF_S / statistics.median(pass_probes)) ** PROBE_ELASTICITY
    setup_scale = (PROBE_REF_S / statistics.median(setup_probes)) ** PROBE_ELASTICITY
    walls = [p.wall_s * wall_scale for p in passes]
    setup = statistics.median(setups)
    metrics = {"wall_s": statistics.median(walls),
               "setup_s": setup * setup_scale,
               "peak_rss_mb": max(run.rss_mb for p in passes for run in p.runs)}
    found = tail(walls)
    high = f"p{found[0]} {found[1]:.4f} s" if found else "no percentile has 10 passes beyond it"
    notes = {"wall_s": f"median of {len(walls)} passes, {high}; raw "
                       f"{statistics.median(p.wall_s for p in passes):.4f} s, host scale "
                       f"{wall_scale:.4f} from {len(pass_probes)} probes",
             "setup_s": f"median of {len(setups)} fresh processes; raw {setup:.4f} s, "
                        f"host scale {setup_scale:.4f} from {len(setup_probes)} probes",
             "peak_rss_mb": "largest per-job ru_maxrss from wait4"}
    return metrics, notes, passes, {"wall_scale": wall_scale, "setup_scale": setup_scale,
                                    "pass_probes_s": pass_probes, "setup_probes_s": setup_probes,
                                    "raw_pass_walls_s": [p.wall_s for p in passes],
                                    "raw_setups_s": setups}


def traced_run(launcher: Launcher, workload: Workload, seed: int, seconds: float, refs: dict):
    problems: list[str] = []

    def step(i: int) -> tuple[Pass, Pass]:
        plain = run_pass(launcher, workload, seed, i)
        traced = run_pass(launcher, workload, seed, i, traced=True)
        for run, twin in zip(plain.runs, traced.runs):
            check(run, refs[run.job.name])
            check(twin, refs[twin.job.name])
            if twin.failure is None and twin.stdout != run.stdout:
                twin.failure, twin.wrong = "traced output differs from untraced output", True
        return plain, traced

    pairs = closed_loop(step, seconds)
    per_pair = []
    for plain, traced in pairs:
        m = layer_metrics(traced.runs)
        m["cli.cpu_s"] = sum(run.cpu_s for run in plain.runs)
        m["trace.overhead_s"] = traced.wall_s - plain.wall_s
        per_pair.append(m)
    counted = [name for name, unit, _ in PER_LAYER if unit == "count"]
    for i, m in enumerate(per_pair[1:], 1):
        moved = [name for name in counted if m[name] != per_pair[0][name]]
        if moved:
            problems.append(f"traced pass {i}: counts differ from pass 0: {', '.join(moved)}")
    metrics = {name: statistics.median(m[name] for m in per_pair) for name, _, _ in PER_LAYER}
    notes = {name: f"median of {len(pairs)} traced passes" for name in metrics}
    passes = [p for pair in pairs for p in pair]
    return metrics, notes, passes, {"per_pass": per_pair, "count_problems": problems}


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, default=DEFAULT_SEED,
                        help="passed to verify jobs as --seed (default: %(default)s)")
    parser.add_argument("--seconds", type=float, default=50,
                        help="measuring time; passes stop when the next would overrun it")
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0,
                        help="1: per-layer metrics from a traced run")
    args = parser.parse_args(argv)
    if not (SRC / "alcove" / "cli.py").is_file():
        print(f"error: no alcove sources at {SRC / 'alcove'}", file=sys.stderr)
        return 2
    workload = WORKLOADS[args.workload]
    with Launcher() as launcher:
        refs = {job.name: load_reference(job) for job in workload.jobs}
        machine = machine_record()
        steal_before, start = steal_ticks(), time.perf_counter()
        run = traced_run if args.trace else timed_run
        metrics, notes, passes, extra = run(launcher, workload, args.seed, args.seconds, refs)
        elapsed, steal_after = time.perf_counter() - start, steal_ticks()

    runs = [r for p in passes for r in p.runs]
    failures = [f"{r.job.name}{' (traced)' if r.traced else ''}: {r.failure}"
                for r in runs if r.failure]
    failures += extra.get("count_problems", [])
    correct = not any(r.wrong for r in runs) and not extra.get("count_problems")
    failed = sum(1 for r in runs if r.failure)
    steal = (None if steal_before is None or steal_after is None
             else steal_after - steal_before)
    units = {name: unit for name, unit, _ in PER_LAYER} | dict(END_TO_END)

    print(f"alcove benchmark: workload {args.workload}, seed {args.seed}, trace {args.trace}, "
          f"{len(passes)} passes of {len(workload.jobs)} jobs in {elapsed:.1f} s")
    for name, value in metrics.items():
        print(f"  {name:<44} {value:>14.6g} {units[name]:<6} {notes[name]}")
    print(f"  {'fail_ratio':<44} {failed / len(runs):>14.6g} {'ratio':<6} "
          f"{failed} of {len(runs)} jobs failed")
    for job in workload.jobs:
        mine = [r for r in runs if r.job == job and not r.traced]
        print(f"  job {job.name:<20} median {statistics.median(r.wall_s for r in mine):.4f} s, "
              f"cpu {statistics.median(r.cpu_s for r in mine):.4f} s, "
              f"rss {max(r.rss_mb for r in mine):.1f} MB")
    print(f"machine: {json.dumps(machine)}")
    print(f"cpu steal: {steal} ticks over the workload "
          f"({os.sysconf('SC_CLK_TCK')} ticks/s, all CPUs)")
    for line in failures:
        print(f"FAILED {line}")

    record = {"workload": args.workload, "seed": args.seed, "seconds": args.seconds,
              "trace": args.trace, "machine": machine, "steal_ticks": steal,
              "elapsed_s": elapsed, "metrics": metrics, "failures": failures,
              "passes": [{"wall_s": p.wall_s,
                          "jobs": [{"job": r.job.name, "traced": r.traced,
                                    "wall_s": r.wall_s, "cpu_s": r.cpu_s, "rss_mb": r.rss_mb,
                                    "exit_code": r.exit_code, "failure": r.failure}
                                   for r in p.runs]} for p in passes],
              **extra}
    OUT.mkdir(exist_ok=True)
    (OUT / f"{args.workload}-seed{args.seed}-trace{args.trace}.json").write_text(
        json.dumps(record, indent=1) + "\n")
    print(json.dumps({"correct": correct, "attempted": len(runs), "failed": failed,
                      "metrics": {name: {"value": value, "unit": units[name]}
                                  for name, value in metrics.items()}}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
