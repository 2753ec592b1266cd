"""The study scripts that no other test runs start, run and print their tables."""

import os
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent


@pytest.mark.parametrize("argv, header", [
    (("strang_convergence.py", "--rungs", "2"), "L2 error"),
    (("collapse_leakage.py", "--n", "200", "--separations", "18"), "poisson leak"),
])
def test_study_script_runs(argv, header):
    done = subprocess.run([sys.executable, str(ROOT / "scripts" / argv[0]), *argv[1:]],
                          capture_output=True, text=True, timeout=120,
                          env={**os.environ, "PYTHONPATH": str(ROOT / "src")})
    assert done.returncode == 0, done.stderr
    assert header in done.stdout.splitlines()[0]
