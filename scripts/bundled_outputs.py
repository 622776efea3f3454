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
"""

import argparse
import os
import pathlib
import subprocess
import sys

REPO = pathlib.Path(__file__).resolve().parents[1]
COMMANDS = ("spectrum", "groundstate", "dynamics", "compare", "weak")


def main() -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("out", type=pathlib.Path, metavar="OUT")
    ap.add_argument("--config", action="append", type=pathlib.Path, metavar="PATH",
                    help="a config to run (repeatable); default every configs/*.json")
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
    return 0


if __name__ == "__main__":
    sys.exit(main())
