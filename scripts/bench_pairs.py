"""Alternating benchmark pairs of two checkouts, summed up by the claim rule.

    python3 scripts/bench_pairs.py PARENT CHANGE --workload oracle_evolve \\
        --seed 31 --pairs 10 --out pairs.json

Runs ``perfbench/run.py --seconds 30 --trace 0`` in each checkout, one
run per side and pair, alternating which side runs first.  For each
end-to-end metric it prints both sides' medians and quartiles, the
parent's interquartile range, and the pairs in which the change is
better.  A gain counts when the change is better in at least nine of
ten pairs and its median beats the parent's by more than the parent's
interquartile range.  ``--out`` writes the runs and that summary as
JSON, the ``workloads`` and ``summary`` of a ``BENCH_*.json``.
``--smoke`` runs the benchmark's smoke-sized workloads, for a check that
the script works.
"""

import argparse
import json
import pathlib
import subprocess
import sys

import numpy as np

REPO = pathlib.Path(__file__).resolve().parents[1]
SECONDS = 30   # the benchmark's own run length (perfbench/README.md)


def run(tree: pathlib.Path, args) -> dict:
    """One benchmark run in ``tree``: its last stdout line, a JSON object."""
    cmd = [sys.executable, "perfbench/run.py", "--workload", args.workload,
           "--seed", str(args.seed), "--seconds", str(SECONDS), "--trace", "0"]
    proc = subprocess.run(cmd + ["--smoke"] * args.smoke, cwd=tree,
                          capture_output=True, text=True, check=True)
    return json.loads(proc.stdout.strip().splitlines()[-1])


def summary(runs: list, better: dict) -> dict:
    """Per metric: each side's median and quartiles, and the change's
    better pairs."""
    out = {}
    for name, sense in better.items():
        side = {s: np.array([r[s][name] for r in runs]) for s in ("parent", "change")}
        gain = side["parent"] - side["change"] if sense == "lower" else side["change"] - side["parent"]
        quart = {s: dict(zip(("q1", "median", "q3"), np.percentile(v, [25, 50, 75]).round(6).tolist()))
                 for s, v in side.items()}
        base = quart["parent"]["median"]
        out[name] = {
            **quart,
            "parent_iqr": round(quart["parent"]["q3"] - quart["parent"]["q1"], 6),
            "change_better_pairs": int(np.count_nonzero(gain > 0)),
            "pairs": len(runs),
            "median_change": round(quart["change"]["median"] / base - 1.0, 4) if base else None,
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
    better = {m["name"]: m["better"] for m in spec["end_to_end"]}
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

    table = summary(runs, better)
    print(f"\n{args.workload} at seed {args.seed}, {args.pairs} pairs")
    print(f"{'metric':<12} {'parent q1/med/q3':>30} {'change q1/med/q3':>30} {'parent IQR':>11} "
          f"{'better':>7} {'change':>8}")
    for name, row in table.items():
        p, c = row["parent"], row["change"]
        print(f"{name:<12} {p['q1']:>10.4f}{p['median']:>10.4f}{p['q3']:>10.4f} "
              f"{c['q1']:>10.4f}{c['median']:>10.4f}{c['q3']:>10.4f} {row['parent_iqr']:>11.4f} "
              f"{row['change_better_pairs']:>3}/{row['pairs']:<3} "
              f"{'' if row['median_change'] is None else format(row['median_change'], '+.1%'):>8}")
    if args.out:
        key = f"{args.workload}@{args.seed}"
        args.out.write_text(json.dumps({"workloads": {key: runs}, "summary": {key: table}},
                                       indent=1) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
