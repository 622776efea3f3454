"""The benchmark judges every operation's output with perfbench/checks.py.
Running those checks on bundled configs here puts them in the suite: a
change that loses the report's "ok = True" line, or lets the variances
drift from the spectrum moments, fails here and not only in a benchmark
run, where it would show as a lower ok_ratio."""

import importlib.util
from pathlib import Path

import pytest

from dosc.cli import main

ROOT = Path(__file__).resolve().parent.parent
CHECKS = ROOT / "perfbench" / "checks.py"


def _load_checks():
    spec = importlib.util.spec_from_file_location("perfbench_checks", CHECKS)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


@pytest.mark.parametrize("config,commands", [
    # spectrum first: its moments are what the groundstate check compares with
    ("flat_band", ("spectrum", "groundstate", "dynamics", "compare", "weak")),
    ("two_mode", ("groundstate",)),
    # V = 0: the bare mode's report carries the same certificate
    ("uncoupled", ("groundstate",)),
])
def test_outputs_pass_benchmark_checks(capsys, tmp_path, config, commands):
    checks = _load_checks().OUTPUT_CHECKS
    seen = {}  # one per model, as the benchmark keeps it
    for cmd in commands:
        out = tmp_path / cmd
        rc = main([cmd, "--config", str(ROOT / "configs" / f"{config}.json"),
                   "--out", str(out)])
        assert rc == 0, capsys.readouterr().err
        assert checks[cmd](out, seen) is None, cmd
    if "spectrum" in commands:
        assert "moments" in seen
