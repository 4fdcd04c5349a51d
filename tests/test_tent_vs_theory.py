"""scripts/tent_vs_theory.py runs end to end at a small scale."""
import os
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]


def test_prints_density_table():
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        filter(None, [str(ROOT / "src"), os.environ.get("PYTHONPATH")])))
    result = subprocess.run(
        [sys.executable, str(ROOT / "scripts" / "tent_vs_theory.py"),
         "--n-firms", "200", "--n-workers", "20000", "--iterations", "50"],
        capture_output=True, text=True, env=env)
    assert result.returncode == 0, result.stderr
    assert result.stdout.splitlines()[0] == "deviation,simulated_density,theory_density"
