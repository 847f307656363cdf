import os
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
