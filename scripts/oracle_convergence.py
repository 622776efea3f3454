"""Bath-size convergence study for the finite-bath oracle.

Doubles N and tracks how fast the discrete observables approach the
continuum solution.  var_x and var_p converge like 1/N^2 under the
midpoint scheme on the full support; truncating the bath grid with
--bath-top trades that for resolution at fixed N and shows up as an
error floor.  The histogram L1 distance is limited by bin averaging
and stalls once bins resolve the density, so it is reported alongside
rather than fitted.

    python3 scripts/oracle_convergence.py
    python3 scripts/oracle_convergence.py --config configs/flat_band.json \
        --N 125 250 500 1000 --csv /tmp/convergence.csv
"""

import argparse
import csv
import pathlib
import sys
import time

sys.path.insert(0, str(pathlib.Path(__file__).resolve().parents[1] / "src"))

from dosc import fano, oracle
from dosc.cli import load_config

REPO = pathlib.Path(__file__).resolve().parents[1]

COLUMNS = ("N", "rel_var_x", "rel_var_p", "rel_mean_freq",
           "rel_mean_inv_freq", "histogram_l1", "recurrence", "seconds")


def main() -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--config", default=str(REPO / "configs" / "ohmic_reference.json"))
    ap.add_argument("--N", type=int, nargs="+",
                    default=[250, 500, 1000, 2000, 4000])
    ap.add_argument("--bath-top", type=float, default=None,
                    help="truncate the bath grid here (default: full support)")
    ap.add_argument("--csv", default=None, help="also write the table here")
    ap.add_argument("--override", action="append", default=[], metavar="KEY=VALUE")
    args = ap.parse_args()

    cfg = load_config(args.config, args.override)
    if cfg.spectrum is None:
        ap.error("this script needs a config with a continuum spectrum")

    sol = fano.solve(cfg.spectrum, cfg.units)
    print(f"spectrum {cfg.spectrum!r}, scheme {cfg.oracle.scheme}, "
          f"bins {cfg.oracle.bins}, bath top {args.bath_top}")
    header = (f"{'N':>6} {'rel var_x':>11} {'rel var_p':>11} {'rel <<w>>':>11} "
              f"{'rel <<1/w>>':>11} {'hist L1':>10} {'recur':>8} {'sec':>6}")
    print(header)

    rows = []
    for n in args.N:
        t0 = time.perf_counter()
        rep = oracle.compare_with_continuum(
            sol, cfg.units, n, scheme=cfg.oracle.scheme, bins=cfg.oracle.bins,
            bath_omega_max=args.bath_top)
        dt = time.perf_counter() - t0
        rows.append((n, rep.rel_var_x, rep.rel_var_p, rep.rel_mean_freq,
                     rep.rel_mean_inv_freq, rep.histogram_l1,
                     rep.recurrence, dt))
        print(f"{n:>6d} {rep.rel_var_x:>11.3e} {rep.rel_var_p:>11.3e} "
              f"{rep.rel_mean_freq:>11.3e} {rep.rel_mean_inv_freq:>11.3e} "
              f"{rep.histogram_l1:>10.3e} {rep.recurrence:>8.1f} {dt:>6.1f}")

    # observed order between successive doublings, on var_x
    if len(rows) >= 2:
        import math
        orders = []
        for (n1, e1, *_), (n2, e2, *_) in zip(rows, rows[1:]):
            if e1 > 0 and e2 > 0:
                orders.append(math.log(e1 / e2) / math.log(n2 / n1))
        if orders:
            print(f"observed var_x order: {', '.join(f'{p:.2f}' for p in orders)}")

    if args.csv:
        with open(args.csv, "w", newline="") as fh:
            writer = csv.writer(fh)
            writer.writerow(COLUMNS)
            writer.writerows(rows)
        print(f"wrote {args.csv}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
