"""Tests of the benchmark itself.

    python3 -m unittest discover -s perfbench -v

They run a few short CLI jobs (about 15 s in all).
"""

from __future__ import annotations

import copy
import json
import shutil
import subprocess
import sys
import unittest
from fractions import Fraction
from pathlib import Path

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE))

import run  # noqa: E402
import tracer  # noqa: E402

sys.path.insert(0, str(run.SRC))

import alcove.cli  # noqa: E402
from alcove import chareval, conventions, levelshift, rootdata, weyl  # noqa: E402

QUICK = run.Workload((("G", 2),), tuple(j for j in run.ALL_JOBS if j.name == "fusion.G2.k4"))


def _bindings() -> dict:
    return {(name, k): v for name, m in sys.modules.items() if name.split(".")[0] == "alcove"
            for k, v in vars(m).items()}


class TracerTest(unittest.TestCase):
    def test_wrappers_cover_imported_names_and_are_restored(self):
        before = _bindings()
        with tracer.Tracer() as t:
            for mod in (chareval, levelshift, weyl):
                self.assertIs(mod.inner.__wrapped__, before[("alcove.rootdata", "inner")])
            self.assertIs(conventions.weyl_order.__wrapped__, before[("alcove.weyl", "weyl_order")])
            rs = rootdata.build_root_system("A", 1)
            point = rootdata.TorusPoint(rs.weight_from_coords([Fraction(1, 3)]))
            value = chareval.character(rs, rs.weight_from_coords([1]), point)
        after = _bindings()
        self.assertEqual(before.keys(), after.keys())
        moved = [key for key in before if before[key] is not after[key]]
        self.assertEqual(moved, [])
        self.assertAlmostEqual(value, 1.0)
        names = {span[0] for span in t.spans}
        self.assertIn("chareval.character", names)
        self.assertIn("rootdata.build_root_system", names)
        self.assertGreater(t.counts["rootdata.inner"], 0)
        self.assertGreater(t.counts["weyl.act"], 0)

    def test_self_time_excludes_child_spans(self):
        spans = [["a", 0.0, 10.0, -1, None], ["b", 1.0, 4.0, 0, None],
                 ["a", 5.0, 7.0, 0, "PoleError"]]
        summary = tracer.summarize(spans)
        self.assertEqual(summary["a"]["calls"], 2)
        self.assertEqual(summary["a"]["s"], 10.0)          # nested "a" not counted twice
        self.assertEqual(summary["a"]["self_s"], 5.0 + 2.0)
        self.assertEqual(summary["a"]["errors"]["PoleError"], 1)
        self.assertEqual(summary["b"]["self_s"], 3.0)

    def test_counts_repeat_across_traced_runs(self):
        job = next(j for j in run.ALL_JOBS if j.name == "fusion.A2.k6")
        with run.Launcher() as launcher:
            first, second = (run.run_job(launcher, job, run.DEFAULT_SEED, str(i), traced=True)
                             for i in range(2))
        ref = run.load_reference(job)
        counted = [name for name, unit, _ in run.PER_LAYER if unit == "count"]
        a, b = run.layer_metrics([first]), run.layer_metrics([second])
        self.assertEqual({n: a[n] for n in counted}, {n: b[n] for n in counted})
        self.assertEqual(a["chareval.character.calls"], 28 ** 2)
        self.assertEqual(a["verlinde.coefficients"], 28 ** 3)
        self.assertGreater(a["cli.job.fusion.A2.k6.s"], 0)
        for traced in (first, second):
            run.check(traced, ref)
            self.assertIsNone(traced.failure)


class CheckTest(unittest.TestCase):
    def test_compare_rules(self):
        ref = {"a": [1, "1/3", True, None], "x": 0.5}
        self.assertIsNone(run.compare(ref, {"a": [1, "1/3", True, None], "x": 0.5 + 1e-13,
                                            "new": 1}))
        self.assertIsNotNone(run.compare(ref, {"a": [1, "1/3", True, None], "x": 0.5 + 1e-11}))
        self.assertIsNotNone(run.compare(ref, {"a": [1, "1/3", True, None]}))
        self.assertIsNotNone(run.compare(ref, {"a": [1.0, "1/3", True, None], "x": 0.5}))
        self.assertIsNotNone(run.compare(ref, {"a": [1, "1/3", 1, None], "x": 0.5}))
        self.assertIsNotNone(run.compare(ref, {"a": [1, "1/3", True], "x": 0.5}))

    def test_corrupted_reference_gives_failures(self):
        job = QUICK.jobs[0]
        good = {job.name: run.load_reference(job)}
        bad_int = copy.deepcopy(good)
        bad_int[job.name]["triples"][0]["n"] += 1
        bad_float = copy.deepcopy(good)
        bad_float[job.name]["max_rounding_residual"] += 1e-9
        with run.Launcher() as launcher:
            for refs, failing in ((good, False), (bad_int, True), (bad_float, True)):
                _, _, passes, _ = run.timed_run(launcher, QUICK, run.DEFAULT_SEED, 0.01, refs)
                runs = [r for p in passes for r in p.runs]
                fail_ratio = sum(1 for r in runs if r.failure) / len(runs)
                self.assertEqual(fail_ratio > 0, failing, runs[0].failure)
                self.assertEqual(any(r.wrong for r in runs), failing)

    def test_reported_verify_failure_counts_without_being_wrong(self):
        job = next(j for j in run.ALL_JOBS if j.name == "verify.G2.k1")
        ref = run.load_reference(job)
        report = copy.deepcopy(ref)
        report["reports"][0]["passed"] = False
        failed = run.JobRun(job, 1.0, 1.0, 1.0, 1, json.dumps(report).encode(), "", False)
        run.check(failed, ref)
        self.assertIn("fundamental_formula", failed.failure)
        self.assertFalse(failed.wrong)
        silent = run.JobRun(job, 1.0, 1.0, 1.0, 1, json.dumps(ref).encode(), "", False)
        run.check(silent, ref)
        self.assertTrue(silent.wrong)
        fewer = copy.deepcopy(ref)
        del fewer["reports"][-1]
        short = run.JobRun(job, 1.0, 1.0, 1.0, 0, json.dumps(fewer).encode(), "", False)
        run.check(short, ref)
        self.assertTrue(short.wrong)


class ContractTest(unittest.TestCase):
    def test_benchmark_json_lists_what_run_reports(self):
        spec = json.loads((run.ROOT / "BENCHMARK.json").read_text())
        # verify is left out until its fundamental_formula failures are fixed (README).
        self.assertEqual([w["name"] for w in spec["workloads"]],
                         [w for w in run.WORKLOADS if w != "verify"])
        self.assertEqual([(m["name"], m["unit"]) for m in spec["end_to_end"]],
                         list(run.END_TO_END))
        self.assertEqual([(m["name"], m["unit"], m["better"]) for m in spec["per_layer"]],
                         list(run.PER_LAYER))

    def test_exits_nonzero_without_sources(self):
        bare = run.OUT / "bare"
        shutil.rmtree(bare, ignore_errors=True)
        shutil.copytree(HERE, bare / "perfbench", ignore=shutil.ignore_patterns("out", "__pycache__"))
        shutil.copy(run.ROOT / "BENCHMARK.json", bare)
        try:
            done = subprocess.run([sys.executable, "perfbench/run.py", "--workload", "fusion",
                                   "--seed", "1", "--seconds", "1", "--trace", "0"],
                                  cwd=bare, capture_output=True, text=True, timeout=60)
        finally:
            shutil.rmtree(bare, ignore_errors=True)
        self.assertNotEqual(done.returncode, 0)
        self.assertEqual(done.stdout, "")


if __name__ == "__main__":
    unittest.main()
