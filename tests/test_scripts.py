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


def test_bundled_outputs_layout(tmp_path):
    # one config: every command leaves its stdout, stderr and exit code
    # beside its files, with no path of the output tree in any of them,
    # so two checkouts' trees compare with one diff -r
    config = SCRIPTS.parent / "configs" / "uncoupled.json"
    proc = subprocess.run([sys.executable, str(SCRIPTS / "bundled_outputs.py"), str(tmp_path),
                           "--config", str(config)],
                          capture_output=True, text=True, timeout=300)
    assert proc.returncode == 0, proc.stderr
    codes = {cmd: (tmp_path / "uncoupled" / cmd / "exit_code.txt").read_text()
             for cmd in ("spectrum", "groundstate", "dynamics", "compare", "weak")}
    assert codes == {"spectrum": "3\n", "groundstate": "0\n", "dynamics": "1\n",
                     "compare": "0\n", "weak": "3\n"}
    run = tmp_path / "uncoupled" / "groundstate"
    assert (run / "out" / "groundstate.json").stat().st_size > 0
    assert "var_x" in (run / "stdout.txt").read_text()
    assert '"exit_code": 3' in (tmp_path / "uncoupled" / "spectrum" / "stderr.txt").read_text()
    for path in tmp_path.rglob("*"):
        assert path.is_dir() or str(tmp_path) not in path.read_text(), path
