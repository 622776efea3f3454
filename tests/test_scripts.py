"""Each experiment script runs to completion on a small input, and every
source parses at the declared Python floor."""

import ast
import importlib.util
import json
import os
import re
import subprocess
import sys
from pathlib import Path

import pytest

SCRIPTS = Path(__file__).resolve().parent.parent / "scripts"


def _sources():
    root = SCRIPTS.parent
    files = [f for d in ("src", "scripts", "tests", "perfbench")
             for f in sorted((root / d).rglob("*.py"))]
    assert len(files) > 40 and any(f.parent.name == "perfbench" for f in files)
    return files


def test_sources_parse_at_the_declared_python_floor():
    # CI's floors job runs that Python; this catches newer syntax sooner,
    # in the package, its tests and scripts, and the benchmark harness
    floor = re.search(r'requires-python = ">=(\d+)\.(\d+)"',
                      (SCRIPTS.parent / "pyproject.toml").read_text())
    version = tuple(int(v) for v in floor.groups())
    for f in _sources():
        ast.parse(f.read_text(), filename=str(f), feature_version=version)


def test_no_top_level_name_defined_twice():
    # a second def or class of a module-level name silently replaces the
    # first, so no source may bind one twice
    for f in _sources():
        names = [node.name for node in ast.parse(f.read_text()).body
                 if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef))]
        twice = sorted({n for n in names if names.count(n) > 1})
        assert not twice, f"{f.name} defines {twice} more than once"


def test_ci_floors_job_pins_the_declared_floors():
    # the floors job installs the oldest Python, numpy and scipy that
    # pyproject.toml declares, and both jobs run one pytest command; read
    # as text, since the floors job has neither yaml nor tomllib
    root = SCRIPTS.parent
    project = (root / "pyproject.toml").read_text()
    tests, floors = (root / ".github/workflows/tier1.yml").read_text().split("\n  floors:\n")

    def floor(package, block):
        lines = re.search(rf"^{block} = \[(.*?)^\]", project, re.M | re.S).group(1)
        return re.search(rf'"{package}>=([\d.]+)"', lines).group(1)

    python = re.search(r'requires-python = ">=([\d.]+)"', project).group(1)
    assert f'python-version: "{python}"' in floors
    assert f'"numpy=={floor("numpy", "dependencies")}.*"' in floors
    assert f'"scipy=={floor("scipy", "test")}.*"' in floors
    runs = [re.findall(r"- run: (.*-m pytest.*)", job) for job in (tests, floors)]
    assert len(runs[0]) == 1 and runs[0] == runs[1]


@pytest.mark.parametrize("script,args", [
    ("reference_run.py", ["--N", "200"]),
    ("oracle_convergence.py", ["--N", "100", "200"]),
    ("weak_sweep.py", ["--hwhm", "4e-3"]),
    ("relaxation_demo.py", ["--N", "300", "--n-times", "40", "--out", "{tmp}/relax.csv"]),
    ("evolve_timings.py", ["--N", "300", "--poles", "200", "--runs", "1"]),
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


def _load_script(name):
    spec = importlib.util.spec_from_file_location(name, SCRIPTS / f"{name}.py")
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_bundled_outputs_against_reports_each_moved_file(tmp_path):
    # two small trees: a CSV whose second column moved, a JSON with one
    # changed key, a changed text file, an equal file and a file only
    # one tree holds each give one line, or none if equal
    bundled = _load_script("bundled_outputs")
    old, new = tmp_path / "old", tmp_path / "new"
    files = {
        "a/out/pi.csv": ("omega,pi\n1,2\n3,-4\n", "omega,pi\n1,2\n3,-4.004\n"),
        "a/out/report.json": ('{"x": 1.5, "y": [1, 2]}', '{"y": [1, 2], "x": 1.25}'),
        "a/stdout.txt": ("one\n", "two\n"),
        "a/exit_code.txt": ("0\n", "0\n"),
        "b/out/same.csv": ("omega\nnan\n", "omega\nnan\n"),
    }
    for name, texts in files.items():
        for tree, text in zip((old, new), texts):
            (tree / name).parent.mkdir(parents=True, exist_ok=True)
            (tree / name).write_text(text)
    (new / "b" / "extra.txt").write_text("")
    assert bundled.compare(new, old) == [
        "a/out/pi.csv: pi 0.001",
        "a/out/report.json: x 1.5 -> 1.25",
        "a/stdout.txt: differs",
        f"b/extra.txt: only in {new}",
    ]
    assert bundled.compare(old, old) == []


def test_bundled_outputs_against_exit_code(tmp_path):
    # after its run the script compares its tree: a tree that differs in
    # one file and lacks the others makes it exit 1, naming each
    config = SCRIPTS.parent / "configs" / "uncoupled.json"
    other = tmp_path / "other" / "uncoupled" / "groundstate"
    other.mkdir(parents=True)
    (other / "exit_code.txt").write_text("1\n")
    proc = subprocess.run([sys.executable, str(SCRIPTS / "bundled_outputs.py"),
                           str(tmp_path / "out"), "--config", str(config),
                           "--against", str(tmp_path / "other")],
                          capture_output=True, text=True, timeout=300)
    assert proc.returncode == 1, proc.stderr
    assert "uncoupled/groundstate/exit_code.txt: differs" in proc.stdout.splitlines()
    assert f"uncoupled/groundstate/stdout.txt: only in {tmp_path / 'out'}" in proc.stdout


def test_bench_pairs_smoke(tmp_path):
    # one smoke-sized pair of the checkout against itself: both runs and
    # the summary of every end-to-end metric land in the JSON.  Each run
    # starts without dosc's bytecode and writes none
    repo = SCRIPTS.parent
    out = tmp_path / "pairs.json"
    proc = subprocess.run([sys.executable, str(SCRIPTS / "bench_pairs.py"), str(repo), str(repo),
                           "--workload", "oracle_evolve", "--seed", "1", "--pairs", "1",
                           "--smoke", "--out", str(out)],
                          capture_output=True, text=True, timeout=300)
    assert proc.returncode == 0, proc.stderr
    assert "op_p50_s" in proc.stdout
    doc = json.loads(out.read_text())
    assert "PYTHONDONTWRITEBYTECODE=1" in doc["bytecode"]
    assert not (repo / "src" / "dosc" / "__pycache__").exists()
    (run,) = doc["workloads"]["oracle_evolve@1"]
    assert run["correct"] == {"parent": True, "change": True}
    summary = doc["summary"]["oracle_evolve@1"]
    assert set(summary) == {"setup_s", "wall_s", "op_p50_s", "ok_ratio", "peak_rss_mb"}
    bounds = {m["name"]: m["bound"]
              for m in json.loads((repo / "BENCHMARK.json").read_text())["end_to_end"]}
    for metric, row in summary.items():
        assert row["pairs"] == 1
        assert row["parent"]["median"] == run["parent"][metric]
        assert row["change"]["median"] == run["change"][metric]
        assert row["bound"] == bounds[metric] and row["parent_spread"] == 0.0
        assert isinstance(row["gain"], bool)
        assert row["regression"] in ("worse", "unresolved", "within bound")
    # one side's runs against itself: no gain, and no regression
    assert run["parent"]["ok_ratio"] == run["change"]["ok_ratio"]
    assert summary["ok_ratio"]["gain"] is False
    assert summary["ok_ratio"]["regression"] == "within bound"


def test_bench_pairs_verdicts():
    # the gain and regression verdicts on made-up runs of one lower-is-
    # better metric with a bound of 0.25 and one higher-is-better metric
    bench_pairs = _load_script("bench_pairs")
    metrics = [{"name": "wall_s", "better": "lower", "bound": 0.25},
               {"name": "ok_ratio", "better": "higher", "bound": 0.02}]

    def verdicts(parent, change, ok_parent=1.0, ok_change=1.0):
        runs = [{"parent": {"wall_s": p, "ok_ratio": ok_parent},
                 "change": {"wall_s": c, "ok_ratio": ok_change}} for p, c in zip(parent, change)]
        return {name: (row["gain"], row["regression"])
                for name, row in bench_pairs.summary(runs, metrics).items()}

    tight = [10.0, 10.1, 10.2, 10.3] * 5                    # spread 0.015 of the median
    assert verdicts(tight, [v - 1.0 for v in tight]) == {
        "wall_s": (True, "within bound"), "ok_ratio": (False, "within bound")}
    # 9 of 10 pairs better, but the median gain is inside the parent IQR
    assert verdicts(tight[:10], [v - 0.01 for v in tight[:9]] + [11.0])["wall_s"] == (
        False, "within bound")
    assert verdicts(tight, [v * 1.3 for v in tight])["wall_s"] == (False, "worse")
    wide = [6.0, 8.0, 10.0, 12.0, 14.0] * 2                 # spread 0.4 of the median
    assert verdicts(wide, wide)["wall_s"] == (False, "unresolved")
    # a gain by the claim rule, but the two sides' runs overlap
    assert verdicts(wide, [v * 0.5 for v in wide])["wall_s"] == (True, "unresolved")
    assert verdicts(wide, [5.0] * 10)["wall_s"] == (True, "within bound")
    assert verdicts(tight, tight, ok_change=0.97)["ok_ratio"] == (False, "worse")
    assert verdicts(tight, tight, ok_parent=0.9)["ok_ratio"] == (True, "within bound")
