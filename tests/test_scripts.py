import os
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
    cli_py = changed / "alcove" / "cli.py"
    text = cli_py.read_text()
    assert 'f"{int(c)}w{i}"' in text
    cli_py.write_text(text.replace('f"{int(c)}w{i}"', 'f"{int(c)}W{i}"'))
    proc = same_outputs(ROOT / "src", changed)
    assert proc.returncode == 1
    assert "DIFF" in proc.stdout and "stdout differs at byte" in proc.stdout
    assert proc.stdout.splitlines()[-1] == "2 of 2 jobs differ"
