"""Tests of the benchmark itself, on its smoke-sized inputs.

    python3 -m pytest perfbench/tests -q
"""

from __future__ import annotations

import json
import math
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

BENCH = Path(__file__).resolve().parents[1]
ROOT = BENCH.parent
sys.path[:0] = [str(BENCH), str(ROOT / "src")]

import checks  # noqa: E402
import workloads  # noqa: E402

SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())


def bench(*args, cwd=ROOT):
    return subprocess.run([sys.executable, "perfbench/run.py", *args],
                          cwd=cwd, capture_output=True, text=True, timeout=600)


@pytest.fixture(scope="module", params=workloads.WORKLOADS)
def results(request):
    out = {}
    for trace in ("0", "1"):
        done = bench("--workload", request.param, "--seed", "3", "--seconds", "1",
                     "--trace", trace, "--smoke")
        assert done.returncode == 0, done.stderr
        out[trace] = json.loads(done.stdout.strip().splitlines()[-1])
    return out


def test_workloads_match_benchmark_json():
    assert [w["name"] for w in SPEC["workloads"]] == list(workloads.WORKLOADS)


@pytest.mark.parametrize("trace,kind", [("0", "end_to_end"), ("1", "per_layer")])
def test_every_metric_emitted_with_its_unit(results, trace, kind):
    doc = results[trace]
    assert set(doc) == {"correct", "attempted", "failed", "metrics"}
    assert doc["correct"] is True and doc["attempted"] >= 1
    want = {m["name"]: m["unit"] for m in SPEC[kind]}
    got = {name: m["unit"] for name, m in doc["metrics"].items()}
    assert got == want
    assert all(math.isfinite(m["value"]) for m in doc["metrics"].values())


def test_self_times_add_up_to_traced_wall(results):
    m = {name: v["value"] for name, v in results["1"]["metrics"].items()}
    self_times = sum(v for name, v in m.items() if name.endswith(".s"))
    assert self_times == pytest.approx(m["trace.wall_s"], rel=1e-9)


def test_same_seed_same_inputs():
    for w in workloads.WORKLOADS:
        a, b = workloads.generate(w, 7), workloads.generate(w, 7)
        c = workloads.generate(w, 8)
        assert [(o.id, o.config, o.extra) for o in a] == [(o.id, o.config, o.extra) for o in b]
        assert [o.id for o in a] == [o.id for o in c]
        assert [o.config for o in a] != [o.config for o in c]


def run_cli(tmp_path, cmd, config):
    from dosc import cli
    path = tmp_path / f"{cmd}.json"
    path.write_text(json.dumps(config))
    out = tmp_path / cmd
    assert cli.main([cmd, "--config", str(path), "--out", str(out)]) == 0
    return out


FLAT = workloads.flat(0.15, 0.1, 2.0)


def test_checker_flags_corrupted_spectrum(tmp_path):
    out = run_cli(tmp_path, "spectrum", {"spectrum": FLAT})
    assert checks.spectrum(out, {}) is None
    summary = json.loads((out / "summary.json").read_text())
    summary["norm_defect"] = 3e-6
    (out / "summary.json").write_text(json.dumps(summary))
    assert "norm_defect" in checks.spectrum(out, {})


def test_checker_flags_corrupted_dynamics(tmp_path):
    out = run_cli(tmp_path, "dynamics",
                  {"spectrum": FLAT, "time": {"t_max": 4.0, "n_times": 41}})
    assert checks.dynamics(out, {}) is None
    lines = (out / "kernels.csv").read_text().splitlines()
    t, k_cos, *rest = lines[5].split(",")
    lines[5] = ",".join([t, "1.01", *rest])
    (out / "kernels.csv").write_text("\n".join(lines) + "\n")
    assert "k_cos" in checks.dynamics(out, {})


def test_checker_flags_groundstate_disagreeing_with_spectrum(tmp_path):
    run_cli(tmp_path, "spectrum", {"spectrum": FLAT})
    out = run_cli(tmp_path, "groundstate", {"spectrum": FLAT})
    seen = {}
    assert checks.spectrum(tmp_path / "spectrum", seen) is None
    assert checks.groundstate(out, seen) is None
    seen["moments"] = (seen["moments"][0] * (1 + 1e-4), seen["moments"][1])
    assert "variances" in checks.groundstate(out, seen)


def test_refusal_must_name_positivity():
    assert checks.refusal('{"error": "PositivityError", "exit_code": 2}\n') is None
    assert checks.refusal('{"error": "ConvergenceError", "exit_code": 3}\n')
    assert checks.refusal("")


def test_refuses_to_run_without_sources(tmp_path):
    (tmp_path / "BENCHMARK.json").write_text((ROOT / "BENCHMARK.json").read_text())
    shutil.copytree(BENCH, tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("__pycache__"))
    done = bench("--workload", "sweep", "--seed", "1", "--seconds", "1",
                 "--trace", "0", cwd=tmp_path)
    assert done.returncode != 0
    assert '"metrics"' not in done.stdout


def test_tracer_fails_on_a_missing_layer_function(monkeypatch):
    from dosc import fano
    from tracer import Tracer
    monkeypatch.delattr(fano, "refine_for_times")
    tracer = Tracer()
    try:
        with pytest.raises(AttributeError):
            tracer.install()
    finally:
        tracer.uninstall()


def test_counter_error_escapes_operation_error_handling():
    from tracer import CounterError, Tracer
    wrapped = Tracer().wrap(lambda: 1, "layer", on_ok=lambda c, a, k, r: r.missing)
    with pytest.raises(CounterError):
        try:
            wrapped()
        except Exception:
            pass
