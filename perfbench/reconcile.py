"""Time the rows of the ROADMAP baseline table on configs/ohmic_reference.json.

    python3 perfbench/reconcile.py --repeats 5

Each row is timed ``--repeats`` times in one process (BLAS threads pinned
as in run.py) and printed as median with first and third quartiles, so
the one-off figures of the table can be set against a measured spread.
"""

from __future__ import annotations

import argparse
import dataclasses
import statistics
import sys
import time

import run


def main() -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--repeats", type=int, default=5)
    args = ap.parse_args()
    run.pin_threads()
    sys.path.insert(0, str(run.SRC))

    import numpy as np
    from scipy.linalg import eigh, eigvalsh

    from dosc import cli, dynamics, fano, oracle

    cfg = cli.load_config(str(run.ROOT / "configs" / "ohmic_reference.json"), [])
    spec, units, t = cfg.spectrum, cfg.units, cfg.time
    sol = fano.solve(spec, units)
    refined = fano.refine_for_times(sol, t.t_max)
    ts = np.linspace(0.0, t.t_max, t.n_times)
    kern = dynamics.kernels(refined, ts)
    bath = dataclasses.replace(spec, omega_max=cfg.oracle.bath_omega_max)
    K = oracle.discretize(bath, units, cfg.oracle.N).K

    rows = {
        "fano.solve ohmic_reference": lambda: fano.solve(spec, units),
        "refine_for_times(sol, 30)": lambda: fano.refine_for_times(sol, t.t_max),
        f"dynamics.kernels {ts.size} t x {refined.omegas.size} nodes":
            lambda: dynamics.kernels(refined, ts),
        "classify_damping": lambda: dynamics.classify_damping(kern),
        f"compare_with_continuum N={cfg.oracle.N}": lambda: oracle.compare_with_continuum(
            sol, units, cfg.oracle.N, bins=cfg.oracle.bins,
            bath_omega_max=cfg.oracle.bath_omega_max),
        f"scipy.linalg.eigh N={cfg.oracle.N}": lambda: eigh(K),
        f"scipy.linalg.eigvalsh N={cfg.oracle.N}": lambda: eigvalsh(K),
    }
    print(f"{'row':44s} {'median':>8s} {'q1':>8s} {'q3':>8s}  (s, {args.repeats} repeats)")
    for name, fn in rows.items():
        times = []
        for _ in range(args.repeats):
            t0 = time.perf_counter()
            fn()
            times.append(time.perf_counter() - t0)
        q1, _, q3 = statistics.quantiles(times, n=4)
        print(f"{name:44s} {statistics.median(times):8.3f} {q1:8.3f} {q3:8.3f}", flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
