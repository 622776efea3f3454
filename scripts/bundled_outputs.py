"""Every bundled config through every CLI command, outputs kept for diffing.

Runs the five commands (spectrum, groundstate, dynamics, compare, weak)
on each config and writes, under OUT/<config>/<command>, the command's
output files (in out/), its stdout, its stderr and its exit code.  The
commands run from that directory with a relative --out, so no absolute
path reaches stdout, and one BLAS thread is used.  Two checkouts then
produce the same bytes exactly when one `diff -r` of their OUT trees is
empty:

    python3 scripts/bundled_outputs.py /tmp/a
    python3 scripts/bundled_outputs.py /tmp/a --config configs/two_mode.json
    python3 scripts/bundled_outputs.py /tmp/b --against /tmp/a

With ``--against OTHER`` the script then compares OUT with the tree
OTHER and prints one line per file that differs: for a CSV file, each
column that moved, by its largest |a - b| over its largest |a|, a taken
from OTHER; for a JSON file, each key whose value differs, with both
values; for any other file, "differs".  It then exits 1 if any file
differs, and 0 if none does.
"""

import argparse
import json
import math
import os
import pathlib
import subprocess
import sys

REPO = pathlib.Path(__file__).resolve().parents[1]
COMMANDS = ("spectrum", "groundstate", "dynamics", "compare", "weak")


def _csv_columns(path: pathlib.Path) -> tuple[list[str], list[list[float]]]:
    header, *rows = path.read_text().splitlines()
    return header.split(","), [list(map(float, col)) for col in zip(*(r.split(",") for r in rows))]


def _csv_movement(a: pathlib.Path, b: pathlib.Path) -> str:
    """Each column that moved from ``a`` to ``b``: its largest |a - b| over
    its largest |a| (NaNs in the same rows count as equal)."""
    (names, cols_a), (names_b, cols_b) = _csv_columns(a), _csv_columns(b)
    if names != names_b or [len(c) for c in cols_a] != [len(c) for c in cols_b]:
        return "differs in its header or its shape"
    moved = []
    for name, ca, cb in zip(names, cols_a, cols_b):
        gaps = [abs(x - y) for x, y in zip(ca, cb)
                if x != y and not (math.isnan(x) and math.isnan(y))]
        if gaps:
            scale = max((abs(x) for x in ca if math.isfinite(x)), default=0.0)
            moved.append(f"{name} {max(gaps) / scale if scale else max(gaps):.3g}")
    return ", ".join(moved) or "differs in its text only"


def _json_movement(a: pathlib.Path, b: pathlib.Path) -> str:
    """Each top-level key whose value differs, with both values."""
    da, db = json.loads(a.read_text()), json.loads(b.read_text())
    if not (isinstance(da, dict) and isinstance(db, dict)):
        return "differs"
    keys = sorted(k for k in da.keys() | db.keys() if da.get(k) != db.get(k))
    moved = "; ".join(f"{k} {da.get(k)!r} -> {db.get(k)!r}" for k in keys)
    return moved or "differs in its text only"


def compare(out: pathlib.Path, other: pathlib.Path) -> list[str]:
    """One line per file of either tree that differs from its namesake in
    the other, or that only one tree holds."""
    lines = []
    names = {p.relative_to(t) for t in (out, other) for p in t.rglob("*") if p.is_file()}
    for name in sorted(names):
        a, b = other / name, out / name
        if not (a.is_file() and b.is_file()):
            lines.append(f"{name}: only in {out if b.is_file() else other}")
        elif a.read_bytes() != b.read_bytes():
            how = {".csv": _csv_movement, ".json": _json_movement}.get(name.suffix)
            lines.append(f"{name}: {how(a, b) if how else 'differs'}")
    return lines


def main() -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("out", type=pathlib.Path, metavar="OUT")
    ap.add_argument("--config", action="append", type=pathlib.Path, metavar="PATH",
                    help="a config to run (repeatable); default every configs/*.json")
    ap.add_argument("--against", type=pathlib.Path, metavar="OTHER",
                    help="then compare OUT with this tree; exit 1 if a file differs")
    args = ap.parse_args()

    configs = [p.resolve() for p in args.config or sorted((REPO / "configs").glob("*.json"))]
    env = dict(os.environ, PYTHONPATH=str(REPO / "src"), DOSC_THREADS="1")
    for config in configs:
        for cmd in COMMANDS:
            where = args.out / config.stem / cmd
            where.mkdir(parents=True, exist_ok=True)
            proc = subprocess.run(
                [sys.executable, "-m", "dosc", cmd, "--config", str(config), "--out", "out"],
                cwd=where, env=env, capture_output=True)
            (where / "stdout.txt").write_bytes(proc.stdout)
            (where / "stderr.txt").write_bytes(proc.stderr)
            (where / "exit_code.txt").write_text(f"{proc.returncode}\n")
            print(f"{config.stem:<16} {cmd:<12} exit {proc.returncode}")
    if args.against is None:
        return 0
    lines = compare(args.out, args.against)
    print("\n".join(lines) if lines else f"no file differs from {args.against}")
    return 1 if lines else 0


if __name__ == "__main__":
    sys.exit(main())
