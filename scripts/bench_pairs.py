"""Alternating benchmark pairs of two checkouts, summed up by the claim rule.

    python3 scripts/bench_pairs.py PARENT CHANGE --workload oracle_evolve \\
        --seed 31 --pairs 10 --out pairs.json

Runs ``perfbench/run.py --seconds 30 --trace 0`` in each checkout, one
run per side and pair, alternating which side runs first.  For each
end-to-end metric it prints both sides' medians and quartiles, the
parent's interquartile range, the pairs in which the change is
better, and two verdicts:

* ``gain``: the change is better in at least nine of ten pairs and its
  median beats the parent's by more than the parent's interquartile
  range;
* ``regression``: "worse" when the change's median is worse than the
  parent's by more than the metric's ``BENCHMARK.json`` bound, taken as
  a fraction of the parent's median; else "unresolved" when the
  parent's spread, (q3 - q1) / median, is wider than that bound,
  unless every run of the change beats every run of the parent; else
  "within bound".

``--out`` writes the runs and that summary as JSON, the ``workloads``
and ``summary`` of a ``BENCH_*.json``.  The script only reads
``BENCHMARK.json``.
``--smoke`` runs the benchmark's smoke-sized workloads, for a check that
the script works.

Before every run the script deletes ``src/dosc/__pycache__`` in the
tree, and it runs the benchmark with PYTHONDONTWRITEBYTECODE=1, so
both sides compile dosc at import, as a benchmark run in a fresh
checkout does.  A tree with cached bytecode skips that: on ``sweep`` at
seed 8087 one read ``peak_rss_mb`` 37.5 MB instead of 39.0 MB and
``setup_s`` 30-40 ms lower, which skews a pair whose sides differ in
it.  The JSON records this as ``bytecode``.
"""

import argparse
import json
import os
import pathlib
import shutil
import subprocess
import sys

import numpy as np

REPO = pathlib.Path(__file__).resolve().parents[1]
SECONDS = 30   # the benchmark's own run length (perfbench/README.md)
BYTECODE = ("src/dosc/__pycache__ deleted before every run, PYTHONDONTWRITEBYTECODE=1: "
            "both sides compile dosc at import")


def run(tree: pathlib.Path, args) -> dict:
    """One benchmark run in ``tree``, dosc compiled at import: its last
    stdout line, a JSON object."""
    shutil.rmtree(tree / "src" / "dosc" / "__pycache__", ignore_errors=True)
    cmd = [sys.executable, "perfbench/run.py", "--workload", args.workload,
           "--seed", str(args.seed), "--seconds", str(SECONDS), "--trace", "0"]
    proc = subprocess.run(cmd + ["--smoke"] * args.smoke, cwd=tree,
                          env=dict(os.environ, PYTHONDONTWRITEBYTECODE="1"),
                          capture_output=True, text=True, check=True)
    return json.loads(proc.stdout.strip().splitlines()[-1])


def summary(runs: list, metrics: list) -> dict:
    """Per end-to-end metric of BENCHMARK.json: each side's median and
    quartiles, the change's better pairs and both verdicts."""
    out = {}
    for metric in metrics:
        name, bound = metric["name"], metric["bound"]
        side = {s: np.array([r[s][name] for r in runs]) for s in ("parent", "change")}
        # each run's value with the sign that makes lower better
        sign = 1.0 if metric["better"] == "lower" else -1.0
        cost = {s: sign * v for s, v in side.items()}
        better_pairs = int(np.count_nonzero(cost["change"] < cost["parent"]))
        quart = {s: dict(zip(("q1", "median", "q3"), np.percentile(v, [25, 50, 75]).round(6).tolist()))
                 for s, v in side.items()}
        base = quart["parent"]["median"]
        iqr = round(quart["parent"]["q3"] - quart["parent"]["q1"], 6)
        lead = sign * (base - quart["change"]["median"])
        spread = iqr / abs(base) if base else 0.0
        if -lead > bound * abs(base):
            regression = "worse"
        elif spread > bound and not cost["change"].max() < cost["parent"].min():
            regression = "unresolved"
        else:
            regression = "within bound"
        out[name] = {
            **quart,
            "parent_iqr": iqr,
            "change_better_pairs": better_pairs,
            "pairs": len(runs),
            "median_change": round(quart["change"]["median"] / base - 1.0, 4) if base else None,
            "gain": better_pairs >= 0.9 * len(runs) and lead > iqr,
            "bound": bound,
            "parent_spread": round(spread, 4),
            "regression": regression,
        }
    return out


def main() -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("parent", type=pathlib.Path, help="checkout of the parent commit")
    ap.add_argument("change", type=pathlib.Path, help="checkout of the change")
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--pairs", type=int, default=10)
    ap.add_argument("--smoke", action="store_true")
    ap.add_argument("--out", type=pathlib.Path, help="write the runs and summary here")
    args = ap.parse_args()

    spec = json.loads((REPO / "BENCHMARK.json").read_text())
    trees = {"parent": args.parent.resolve(), "change": args.change.resolve()}
    runs = []
    for pair in range(args.pairs):
        order = ("parent", "change") if pair % 2 == 0 else ("change", "parent")
        got = {side: run(trees[side], args) for side in order}
        runs.append({"pair": pair, "first": order[0],
                     **{side: {k: round(v["value"], 6) for k, v in got[side]["metrics"].items()}
                        for side in ("parent", "change")},
                     **{key: {side: got[side][key] for side in order}
                        for key in ("correct", "failed", "attempted")}})
        print(f"pair {pair}: " + "  ".join(
            f"{side} {runs[-1][side]['op_p50_s']:.4f}/{runs[-1][side]['wall_s']:.4f}" for side in order)
            + "  (op_p50_s/wall_s)", flush=True)

    table = summary(runs, spec["end_to_end"])
    print(f"\n{args.workload} at seed {args.seed}, {args.pairs} pairs")
    print(f"{'metric':<12} {'parent q1/med/q3':>30} {'change q1/med/q3':>30} {'parent IQR':>11} "
          f"{'better':>7} {'change':>8}  {'gain':<5} regression")
    for name, row in table.items():
        p, c = row["parent"], row["change"]
        print(f"{name:<12} {p['q1']:>10.4f}{p['median']:>10.4f}{p['q3']:>10.4f} "
              f"{c['q1']:>10.4f}{c['median']:>10.4f}{c['q3']:>10.4f} {row['parent_iqr']:>11.4f} "
              f"{row['change_better_pairs']:>3}/{row['pairs']:<3} "
              f"{'' if row['median_change'] is None else format(row['median_change'], '+.1%'):>8}  "
              f"{'yes' if row['gain'] else 'no':<5} {row['regression']}")
    if args.out:
        key = f"{args.workload}@{args.seed}"
        args.out.write_text(json.dumps({"bytecode": BYTECODE, "workloads": {key: runs},
                                        "summary": {key: table}}, indent=1) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
