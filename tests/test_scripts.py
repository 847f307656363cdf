import os
import re
import shutil
import subprocess
import sys
from pathlib import Path

from alcove import conventions

ROOT = Path(__file__).resolve().parent.parent


def test_convention_oracle_recovers_the_frozen_conventions():
    env = dict(os.environ, PYTHONPATH=str(ROOT / "src"))
    proc = subprocess.run([sys.executable, str(ROOT / "scripts" / "convention_oracle.py"),
                           "--samples", "2"], capture_output=True, text=True, env=env,
                          timeout=120)
    assert proc.returncode == 0, proc.stderr
    lines = proc.stdout.splitlines()
    frozen = f"{conventions.FROZEN.grid_mode},norm_square,plus,plain"
    [row] = [line for line in lines if line.split() and line.split()[0] == frozen]
    assert row.endswith("<- exact")
    subset_rows = [line for line in lines if "generators=simple" in line and "empty=True" in line]
    assert len(subset_rows) == 4
    assert all("value = +1.000000000" in line for line in subset_rows)


SHORT_JOBS = ["grid --series A --rank 1 --level 1", "fusion --series A --rank 1 --level 1"]


def same_outputs(old, new):
    return subprocess.run([sys.executable, str(ROOT / "scripts" / "same_outputs.py"), str(old),
                           str(new), *SHORT_JOBS], capture_output=True, text=True, timeout=120)


def test_same_outputs_accepts_the_tree_against_itself():
    proc = same_outputs(ROOT / "src", ROOT / "src")
    assert proc.returncode == 0, proc.stdout + proc.stderr
    assert [line.split()[0] for line in proc.stdout.splitlines()[:-1]] == ["same", "same"]
    assert proc.stdout.splitlines()[-1] == "0 of 2 jobs differ"


def test_same_outputs_reports_a_changed_label_format(tmp_path):
    changed = tmp_path / "src"
    shutil.copytree(ROOT / "src", changed, ignore=shutil.ignore_patterns("__pycache__"))
    writer = changed / "alcove" / "artifacts.py"
    text = writer.read_text()
    assert 'f"{int(c)}w{i}"' in text
    writer.write_text(text.replace('f"{int(c)}w{i}"', 'f"{int(c)}W{i}"'))
    proc = same_outputs(ROOT / "src", changed)
    assert proc.returncode == 1
    assert "DIFF" in proc.stdout and "stdout differs at byte" in proc.stdout
    assert proc.stdout.splitlines()[-1] == "2 of 2 jobs differ"


def test_job_rss_reports_one_job_under_both_trees():
    src = str(ROOT / "src")
    proc = subprocess.run([sys.executable, str(ROOT / "scripts" / "job_rss.py"), src, src,
                           "--runs", "1", SHORT_JOBS[0]], capture_output=True, text=True,
                          timeout=120)
    assert proc.returncode == 0, proc.stderr
    header, floor, job, workload = proc.stdout.splitlines()
    assert header.split()[0] == "job" and header.endswith("(1 runs)")
    assert floor.split()[0] == "floor" and job.startswith(SHORT_JOBS[0] + " ")
    fields = job[len(SHORT_JOBS[0]):].split()  # the medians of one run, then the exit codes
    assert float(fields[0]) > 1 and float(fields[3]) > 1 and fields[-1] == "0/0"
    medians = re.escape(f"{fields[0]} -> {fields[3]}")
    assert re.fullmatch(rf"workload jobs: largest job median {medians} MB \([+-]\d+\.\d\d\)", workload)
