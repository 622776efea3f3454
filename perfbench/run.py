"""dosc benchmark: seeded workloads driven through the CLI, checked, timed.

    python3 perfbench/run.py --workload sweep --seed 1 --seconds 32 --trace 0

Runs from the root of a source checkout (it needs ``src/dosc``).  One
process per workload, closed loop, one operation in flight.  BLAS
threads are pinned to the usable core count before numpy loads.  Each
operation is a ``dosc.cli.main([...])`` call on a generated config, or
for ``oracle_evolve`` the library path of ``scripts/relaxation_demo.py``.
Every output is checked (see ``checks.py``).

``--trace 0`` runs the workload's fixed batch a fixed number of times
(``--seconds`` over the workload's nominal pass length) and reports the
end-to-end metrics.  The set-up interpreters it times are spread over
the whole run.  ``--trace 1`` runs every operation of one pass twice,
untraced and with the per-layer spans of ``tracer.py`` installed, in
alternating order, and reports the per-layer metrics.  ``--smoke``
shrinks every workload to a few seconds, for the benchmark's own tests.

Human-readable lines go to stdout first; the last line is one JSON
object: {"correct", "attempted", "failed", "metrics"}.  A run record
(machine, versions, per-operation outcomes) is written to
``.bench_work/<workload>-s<seed>-t<trace>/record.json``.
"""

from __future__ import annotations

import argparse
import contextlib
import ctypes
import importlib
import io
import json
import os
import platform
import resource
import shutil
import statistics
import subprocess
import sys
import time
from collections import defaultdict
from pathlib import Path

import checks
import workloads
from tracer import LAYER_METRICS, Tracer

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"

# end-to-end metrics: name -> unit
E2E_METRICS = {
    "setup_s": "s",
    "wall_s": "s",
    "op_p50_s": "s",
    "ok_ratio": "1",
    "peak_rss_mb": "MB",
}

# fresh interpreters timed for setup_s in a --trace 0 run
SETUP_SPAWNS = 7
# nominal seconds of one pass on the reference machine (see README.md);
# a run makes max(1, --seconds // this) passes, whatever the machine speed
PASS_SECONDS = {"sweep": 30.0, "oracle_compare": 15.0, "oracle_evolve": 15.0}
THREAD_VARS = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS",
               "VECLIB_MAXIMUM_THREADS", "NUMEXPR_NUM_THREADS", "DOSC_THREADS")

# the CLI and every module its commands import lazily
CLI_MODULES = ("dosc.cli", "dosc.spectra", "dosc.quadrature", "dosc.fano",
               "dosc.groundstate", "dosc.dynamics", "dosc.oracle",
               "dosc.weakcoupling")
SETUP_CODE = "import sys; sys.path.insert(0, sys.argv[1]); import " + ", ".join(CLI_MODULES)


def pin_threads() -> int:
    """Cap every BLAS pool at the usable core count; keep lower settings."""
    cores = len(os.sched_getaffinity(0))
    for var in THREAD_VARS:
        try:
            keep = 1 <= int(os.environ[var]) <= cores
        except (KeyError, ValueError):
            keep = False
        if not keep:
            os.environ[var] = str(cores)
    return cores


def time_setup() -> float:
    """Wall time of one fresh interpreter importing the CLI stack, and
    nothing of the benchmark.  No timeout: with one, subprocess polls for
    the exit in steps of up to 50 ms, and the times fall on that grid."""
    t0 = time.perf_counter()
    subprocess.run([sys.executable, "-c", SETUP_CODE, str(SRC)], check=True)
    return time.perf_counter() - t0


def spread(n_items: int, n_slots: int) -> list[int]:
    """How many of ``n_items`` go before each of ``n_slots`` slots, spread
    evenly from the first slot on."""
    counts = [0] * n_slots
    for i in range(n_items):
        counts[i * n_slots // n_items] += 1
    return counts


# ---------------------------------------------------------------------------
# operations

def relaxation_path(config_path: Path, extra: dict):
    """discretize -> normal_modes -> evolve_reduced, as relaxation_demo.py
    does, plus the dynamics kernels of the same decomposition."""
    import dataclasses

    import numpy as np
    from dosc import cli, dynamics, oracle

    cfg = cli.load_config(str(config_path), [])
    spec = dataclasses.replace(cfg.spectrum, omega_max=extra["bath_top"])
    model = oracle.discretize(spec, cfg.units, extra["N"], scheme="uniform")
    decomp = oracle.normal_modes(model)
    recurrence = oracle.recurrence_estimate(decomp)
    g, half = extra["gamma"], extra["n_times"] // 2
    ts = np.unique(np.concatenate([
        [0.0], np.geomspace(0.05 / g, 20.0 / g, half),
        np.linspace(20.0 / g, 1.2 * recurrence, half)]))
    traj = oracle.evolve_reduced(model, cfg.units, extra["x0"], 0.0, ts,
                                 decomp=decomp)
    return traj, dynamics.kernels(decomp, ts)


def exit_code_of(exc: Exception) -> int | None:
    """The CLI's exit-code contract, for the library path."""
    from dosc import errors
    for cls, code in ((errors.PositivityError, 2), (errors.ConvergenceError, 3),
                      (errors.InternalConsistencyError, 3),
                      (errors.UsageError, 1), (errors.OutsideSupportError, 1)):
        if isinstance(exc, cls):
            return code
    return None


class Runner:
    """Runs a batch; one operation in flight; keeps every outcome."""

    def __init__(self, ops, work: Path):
        self.ops = ops
        self.work = work
        self.outcomes: list[dict] = []
        self.pass_walls: list[float] = []
        for op in ops:
            path = self.config_path(op)
            path.parent.mkdir(parents=True, exist_ok=True)
            path.write_text(json.dumps(op.config, indent=1))

    def config_path(self, op) -> Path:
        return self.work / "configs" / op.model / f"{op.cmd}.json"

    def run_pass(self, before_op=None) -> None:
        """One untraced pass; ``before_op(i)`` runs outside the timed
        region before the pass's i-th operation."""
        seen: defaultdict = defaultdict(dict)
        wall = 0.0
        for i, op in enumerate(self.ops):
            if before_op is not None:
                before_op(i)
            wall += self.run_op(op, seen)
        self.pass_walls.append(wall)

    def run_pass_traced(self, tracer) -> float:
        """One pass in which every operation runs untraced and traced,
        the untraced run first on even operations and second on odd ones.
        Returns the summed untraced time."""
        seen: defaultdict = defaultdict(dict)
        untraced = 0.0
        for i, op in enumerate(self.ops):
            for traced in ((False, True) if i % 2 == 0 else (True, False)):
                if traced:
                    tracer.install()
                    try:
                        self.run_op(op, seen, tracer)
                    finally:
                        tracer.uninstall()
                else:
                    untraced += self.run_op(op, seen)
        return untraced

    def run_op(self, op, seen: dict, tracer=None) -> float:
        """Run one operation, check its output, keep its outcome; returns
        its wall time."""
        from dosc import cli

        out = self.work / "ops" / op.model / op.cmd
        shutil.rmtree(out, ignore_errors=True)
        state = {"code": None, "result": None, "crash": None}

        def call():
            try:
                if op.cmd == "evolve":
                    state["result"] = relaxation_path(self.config_path(op), op.extra)
                    state["code"] = 0
                else:
                    state["code"] = cli.main([op.cmd, "--config",
                                              str(self.config_path(op)),
                                              "--out", str(out)])
            except SystemExit as exc:
                state["code"] = exc.code
            except Exception as exc:
                code = exit_code_of(exc) if op.cmd == "evolve" else None
                if code is None:
                    state["crash"] = f"{type(exc).__name__}: {exc}"
                else:
                    state["code"] = code
                    print(json.dumps({"error": type(exc).__name__,
                                      "exit_code": code}), file=sys.stderr)

        stdout, stderr = io.StringIO(), io.StringIO()
        with contextlib.redirect_stdout(stdout), contextlib.redirect_stderr(stderr):
            if tracer is not None:
                seconds = tracer.run_op(op.id, call)
            else:
                t0 = time.perf_counter()
                call()
                seconds = time.perf_counter() - t0

        code, wrong = state["code"], False
        if state["crash"] is not None:
            reason = "crash: " + state["crash"]
        elif code != op.expect:
            wrong = code == 0        # a result for an inadmissible model
            last = stderr.getvalue().strip().splitlines()[-1:] or [""]
            reason = f"exit {code}, expected {op.expect}: {last[0][:200]}"
        else:
            try:
                if op.expect == 2:
                    reason = checks.refusal(stderr.getvalue())
                elif op.cmd == "evolve":
                    reason = checks.evolve(state["result"], op.extra["x0"])
                else:
                    reason = checks.OUTPUT_CHECKS[op.cmd](out, seen[op.model])
            except (OSError, KeyError, ValueError, TypeError, AttributeError,
                    IndexError) as exc:
                reason = f"unreadable output: {type(exc).__name__}: {exc}"
            wrong = reason is not None and op.expect == 0
        self.outcomes.append({"op": op.id, "exit": code, "seconds": seconds,
                              "ok": reason is None, "wrong": wrong,
                              "reason": reason, "traced": tracer is not None})
        return seconds


# ---------------------------------------------------------------------------
# run record

def blas_info() -> dict:
    """Threads in effect and version of each OpenBLAS that numpy and scipy
    load, read from the libraries themselves."""
    out = {}
    for pkg in ("numpy", "scipy"):
        libdir = Path(importlib.import_module(pkg).__file__).parent.parent / f"{pkg}.libs"
        for lib in sorted(libdir.glob("*openblas*.so*")):
            try:
                handle = ctypes.CDLL(str(lib))
            except OSError:
                continue
            entry = {}
            for prefix in ("scipy_openblas", "openblas"):
                for suffix in ("64_", ""):
                    threads = getattr(handle, f"{prefix}_get_num_threads{suffix}", None)
                    config = getattr(handle, f"{prefix}_get_config{suffix}", None)
                    if threads is not None and config is not None:
                        config.restype = ctypes.c_char_p
                        entry = {"threads": int(threads()),
                                 "config": config().decode(errors="replace")}
                        break
                if entry:
                    break
            out[f"{pkg}:{lib.name}"] = entry
    return out


def l3_bytes() -> int | None:
    base = Path("/sys/devices/system/cpu/cpu0/cache")
    for index in sorted(base.glob("index*")):
        try:
            if (index / "level").read_text().strip() == "3":
                size = (index / "size").read_text().strip()
                scale = {"K": 1024, "M": 1024 ** 2}.get(size[-1], 1)
                return int(size.rstrip("KM")) * scale
        except (OSError, ValueError):
            continue
    return None


def git_commit() -> str | None:
    if not (ROOT / ".git").exists():   # not a git checkout; ignore any parent repo
        return None
    try:
        done = subprocess.run(["git", "-C", str(ROOT), "rev-parse", "HEAD"],
                              capture_output=True, text=True, timeout=30)
    except (OSError, subprocess.TimeoutExpired):
        return None
    return done.stdout.strip() if done.returncode == 0 else None


def run_record(args, cores: int) -> dict:
    import numpy
    import scipy
    lines = sum(len(p.read_text().splitlines()) for p in (SRC / "dosc").glob("*.py"))
    return {
        "workload": args.workload, "seed": args.seed, "seconds": args.seconds,
        "trace": args.trace, "smoke": args.smoke,
        "nproc": os.cpu_count(), "usable_cores": cores,
        "thread_env": {var: os.environ.get(var) for var in THREAD_VARS},
        "blas": blas_info(),
        "python": platform.python_version(), "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "git_commit": git_commit(),
        "l3_bytes": l3_bytes(),
        "src_dosc_lines": lines,
    }


# ---------------------------------------------------------------------------

def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True, choices=workloads.WORKLOADS)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--smoke", action="store_true",
                    help="tiny inputs, for the benchmark's own tests")
    args = ap.parse_args(argv)

    if not (SRC / "dosc" / "cli.py").is_file():
        print(f"error: no dosc sources under {SRC}; run from a dosc checkout",
              file=sys.stderr)
        return 2
    cores = pin_threads()
    sys.path.insert(0, str(SRC))

    work = ROOT / ".bench_work" / f"{args.workload}-s{args.seed}-t{args.trace}"
    shutil.rmtree(work, ignore_errors=True)
    work.mkdir(parents=True)

    runner = Runner(workloads.generate(args.workload, args.seed, args.smoke), work)
    for name in CLI_MODULES:   # users pay imports once per call; setup_s has them
        importlib.import_module(name)

    setup_times: list[float] = []
    if args.trace:
        tracer = Tracer()
        untraced_wall_s = runner.run_pass_traced(tracer)
        tracer.write(work / "spans.csv.gz")
        metrics = tracer.metrics(untraced_wall_s)
        units = LAYER_METRICS
    else:
        passes = max(1, int(args.seconds // PASS_SECONDS[args.workload]))
        # the set-up interpreters run between operations, spread over all
        # passes, so that they see the machine as the operations do
        per_op = spread(1 if args.smoke else SETUP_SPAWNS, passes * len(runner.ops))

        def before_op(i):
            for _ in range(per_op[len(runner.pass_walls) * len(runner.ops) + i]):
                setup_times.append(time_setup())

        for _ in range(passes):
            runner.run_pass(before_op)
        untraced = runner.outcomes
        metrics = {
            "setup_s": statistics.median(setup_times),
            "wall_s": statistics.median(runner.pass_walls),
            "op_p50_s": statistics.median(o["seconds"] for o in untraced),
            "ok_ratio": sum(o["ok"] for o in untraced) / len(untraced),
            "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
        }
        units = E2E_METRICS

    outcomes = runner.outcomes
    failed = [o for o in outcomes if not o["ok"]]
    record = run_record(args, cores)
    record.update({
        "passes": len(runner.pass_walls), "pass_walls_s": runner.pass_walls,
        "setup_times_s": setup_times,
        "failed_ratio": len(failed) / len(outcomes),
        "metrics": {k: {"value": v, "unit": units[k]} for k, v in metrics.items()},
        "outcomes": outcomes,
    })
    (work / "record.json").write_text(json.dumps(record, indent=1))
    shutil.rmtree(work / "ops", ignore_errors=True)

    if args.trace:
        print(f"# {args.workload} seed={args.seed}: {len(runner.ops)} ops, each "
              f"untraced and traced; L3 {record['l3_bytes']} B")
    else:
        print(f"# {args.workload} seed={args.seed}: {passes} passes of "
              f"{len(runner.ops)} ops; setup_s is the median of {len(setup_times)} "
              f"interpreters; L3 {record['l3_bytes']} B")
    for name, value in metrics.items():
        print(f"{name} = {value:.6g} {units[name]}")
    print(f"failed_ratio = {len(failed) / len(outcomes):.6g} 1 "
          f"({len(failed)} of {len(outcomes)})")
    for name in sorted({o["op"] for o in failed}):
        reason = next(o["reason"] for o in failed if o["op"] == name)
        print(f"  failed {name}: {reason}")
    print(f"record: {work / 'record.json'}")
    print(json.dumps({
        "correct": not any(o["wrong"] for o in outcomes),
        "attempted": len(outcomes),
        "failed": len(failed),
        "metrics": {k: {"value": v, "unit": units[k]} for k, v in metrics.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
