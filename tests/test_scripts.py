"""Each experiment script runs to completion on a small input."""

import os
import subprocess
import sys
from pathlib import Path

import pytest

SCRIPTS = Path(__file__).resolve().parent.parent / "scripts"


@pytest.mark.parametrize("script,args", [
    ("reference_run.py", ["--N", "200"]),
    ("oracle_convergence.py", ["--N", "100", "200"]),
    ("weak_sweep.py", ["--hwhm", "4e-3"]),
    ("relaxation_demo.py", ["--N", "300", "--n-times", "40", "--out", "{tmp}/relax.csv"]),
])
def test_script_runs(tmp_path, script, args):
    env = dict(os.environ, DOSC_THREADS="1")
    argv = [a.format(tmp=tmp_path) for a in args]
    proc = subprocess.run([sys.executable, str(SCRIPTS / script), *argv],
                          capture_output=True, text=True, env=env, timeout=300)
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.strip()
    if "--out" in argv:
        assert (tmp_path / "relax.csv").stat().st_size > 0
