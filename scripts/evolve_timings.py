"""Library timings of the finite-bath oracle's relaxation path.

Times ``normal_modes`` and ``evolve_reduced`` (given the modes) on two
baths: ohmic_reference's spectrum cut at 30, 399 times on
``linspace(0, 1000)``, and a bath of poles spread log-uniformly over 12
decades (the tests' model), 241 times on ``linspace(0, 30)``.  For each
it prints the median and quartiles of ``--runs`` runs, the traced peak
of one more run of ``evolve_reduced`` (tracemalloc) and its number of
blocks of times.

    python3 scripts/evolve_timings.py
    python3 scripts/evolve_timings.py --N 4000 --poles 1200 --runs 9
"""

import argparse
import dataclasses
import math
import pathlib
import sys
import time
import tracemalloc

import numpy as np

sys.path.insert(0, str(pathlib.Path(__file__).resolve().parents[1] / "src"))

from dosc import oracle
from dosc.cli import load_config
from dosc.spectra import UnitSystem

REPO = pathlib.Path(__file__).resolve().parents[1]


def ohmic(units, n):
    cfg = load_config(str(REPO / "configs" / "ohmic_reference.json"), [])
    spec = dataclasses.replace(cfg.spectrum, omega_max=30.0)
    return oracle.discretize(spec, units, n), np.linspace(0.0, 1000.0, 399)


def log_uniform(units, n):
    freqs = np.sort(10.0 ** np.random.default_rng(12).uniform(-6.0, 6.0, n))
    model = oracle.FiniteBathModel(units.omega0, freqs, np.sqrt(0.5 * freqs / n))
    return model, np.linspace(0.0, 30.0, 241)


def timed(f, runs):
    """Seconds of ``runs`` calls of f: median, first and third quartile."""
    secs = []
    for _ in range(runs):
        t0 = time.perf_counter()
        f()
        secs.append(time.perf_counter() - t0)
    return np.percentile(secs, [50, 25, 75])


def main() -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--N", type=int, nargs="*", default=[4000, 16000],
                    help="ohmic bath sizes")
    ap.add_argument("--poles", type=int, nargs="*", default=[1200, 2400],
                    help="log-uniform bath sizes")
    ap.add_argument("--runs", type=int, default=5)
    args = ap.parse_args()

    units = UnitSystem()
    print(f"{'bath':<12} {'n':>6} {'step':<15} {'median s':>9} {'q1 s':>9} "
          f"{'q3 s':>9} {'peak MB':>8} {'blocks':>6}")
    for name, build, sizes in [("ohmic", ohmic, args.N), ("log_uniform", log_uniform, args.poles)]:
        for n in sizes:
            model, ts = build(units, n)
            decomp = oracle.normal_modes(model)
            tracemalloc.start()
            oracle.evolve_reduced(model, units, 1.0, 0.0, ts, decomp=decomp)
            peak = tracemalloc.get_traced_memory()[1] / 2**20
            tracemalloc.stop()
            blocks = math.ceil(ts.size / oracle._time_block(decomp._secular.d.size))
            for step, f, extra in [
                ("normal_modes", lambda: oracle.normal_modes(model), ""),
                ("evolve_reduced",
                 lambda: oracle.evolve_reduced(model, units, 1.0, 0.0, ts, decomp=decomp),
                 f" {peak:8.2f} {blocks:6d}"),
            ]:
                med, q1, q3 = timed(f, args.runs)
                print(f"{name:<12} {n:6d} {step:<15} {med:9.4f} {q1:9.4f} {q3:9.4f}{extra}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
