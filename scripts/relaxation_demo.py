"""Relaxation of a displaced oscillator onto the global ground state.

Evolves the finite-bath model from the displaced product state and
records the reduced covariance.  On the plateau between the initial
transient and the recurrence, var_x and var_p sit on the global-ground
values to high accuracy even though the dynamics is unitary: the
displacement energy has spread over the bath.  Writes a CSV so the
approach and the eventual recurrence can be plotted.

    python3 scripts/relaxation_demo.py --out /tmp/relax.csv
"""

import argparse
import dataclasses
import pathlib
import sys

import numpy as np

sys.path.insert(0, str(pathlib.Path(__file__).resolve().parents[1] / "src"))

from dosc import fano, groundstate, oracle, weakcoupling
from dosc.cli import load_config
from dosc.csvio import write_csv

REPO = pathlib.Path(__file__).resolve().parents[1]


def main() -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--config", default=str(REPO / "configs" / "ohmic_reference.json"))
    ap.add_argument("--N", type=int, default=4000,
                    help="bath size; the plateau needs the recurrence pushed "
                         "past 40/gamma, which takes a few thousand modes")
    ap.add_argument("--bath-top", type=float, default=30.0,
                    help="truncate the bath grid here (tail mass is negligible)")
    ap.add_argument("--x0", type=float, default=1.0)
    ap.add_argument("--n-times", type=int, default=400)
    ap.add_argument("--out", default=None, help="write t, var_x, var_p, cov_xp here")
    ap.add_argument("--override", action="append", default=[], metavar="KEY=VALUE")
    args = ap.parse_args()

    cfg = load_config(args.config, args.override)
    if cfg.spectrum is None:
        ap.error("this script needs a config with a continuum spectrum")

    sol = fano.solve(cfg.spectrum, cfg.units)
    gamma = 2.0 * weakcoupling.lorentzian_fit(sol).hwhm_fit

    spec = dataclasses.replace(cfg.spectrum, omega_max=args.bath_top)
    model = oracle.discretize(spec, cfg.units, args.N, scheme="uniform")
    decomp = oracle.normal_modes(model)
    ground = groundstate.ground_state_moments(decomp, cfg.units)
    recurrence = oracle.recurrence_estimate(decomp)

    # log-spaced times past the transient plus a linear tail through the
    # first recurrence, deduplicated
    ts = np.unique(np.concatenate([
        np.geomspace(0.05 / gamma, 20.0 / gamma, args.n_times // 2),
        np.linspace(20.0 / gamma, 1.2 * recurrence, args.n_times // 2),
    ]))
    traj = oracle.evolve_reduced(model, cfg.units, args.x0, 0.0, ts, decomp=decomp)

    print(f"N = {args.N}, gamma_eff = {gamma:.4f}, recurrence ~ {recurrence:.1f}")
    print(f"ground covariance: var_x = {ground.var_x:.7f}, var_p = {ground.var_p:.7f}")
    for label, lo, hi in [("transient", 0.0, 5.0 / gamma),
                          ("plateau", 20.0 / gamma, 0.5 * recurrence),
                          ("recurrence", 0.9 * recurrence, 1.2 * recurrence)]:
        mask = (ts >= lo) & (ts <= hi)
        if not mask.any():
            continue
        dev = max(np.max(np.abs(traj.var_x[mask] / ground.var_x - 1.0)),
                  np.max(np.abs(traj.var_p[mask] / ground.var_p - 1.0)))
        print(f"  {label:<10} t in [{lo:7.1f}, {hi:7.1f}]  "
              f"max |var/ground - 1| = {dev:.3e}")

    if args.out:
        write_csv(args.out, "t,var_x,var_p,cov_xp",
                  [ts, traj.var_x, traj.var_p, traj.cov_xp])
        print(f"wrote {args.out}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
