"""End-to-end tour of one configuration.

Solves the dispersion problem for the spectrum named in a run config,
prints the frequency-density moments and the ground-state observable
block, then cross-checks against the finite-bath diagonalisation.
Useful as a smoke test after touching the solver and as the quickest
way to get oriented in a new parameter regime.

    python3 scripts/reference_run.py
    python3 scripts/reference_run.py --config configs/flat_band.json --N 2000
"""

import argparse
import pathlib
import sys
import time

sys.path.insert(0, str(pathlib.Path(__file__).resolve().parents[1] / "src"))

from dosc import fano, groundstate, oracle
from dosc.cli import load_config

REPO = pathlib.Path(__file__).resolve().parents[1]


def main() -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--config", default=str(REPO / "configs" / "ohmic_reference.json"))
    ap.add_argument("--N", type=int, default=4000, help="bath size for the cross-check")
    ap.add_argument("--override", action="append", default=[], metavar="KEY=VALUE")
    args = ap.parse_args()

    cfg = load_config(args.config, args.override)
    if cfg.spectrum is None:
        ap.error("this script needs a config with a continuum spectrum")

    t0 = time.perf_counter()
    sol = fano.solve(cfg.spectrum, cfg.units)
    t_solve = time.perf_counter() - t0
    print(f"config   {args.config}")
    print(f"spectrum {cfg.spectrum!r}")
    print(f"solve    {sol.omegas.size} nodes in {t_solve:.2f}s, "
          f"norm defect {sol.norm_defect:.3e}")
    print()

    w0 = cfg.units.omega0
    print("frequency-density moments")
    for k in (-1, 1, 2, 4):
        mk = fano.frequency_moment(sol, k)
        print(f"  <<w^{k:+d}>> = {mk:.12f}   (bare: {w0 ** k:.6f})")
    print()

    summary = groundstate.ground_state_moments(sol, cfg.units)
    print(summary.report_block())
    print()

    t0 = time.perf_counter()
    rep = oracle.compare_with_continuum(
        sol, cfg.units, args.N,
        scheme=cfg.oracle.scheme, bins=cfg.oracle.bins,
        bath_omega_max=cfg.oracle.bath_omega_max)
    t_oracle = time.perf_counter() - t0
    print(f"finite-bath cross-check, N = {args.N} ({rep.scheme}), {t_oracle:.1f}s")
    print(f"  rel var_x        {rep.rel_var_x:.3e}")
    print(f"  rel var_p        {rep.rel_var_p:.3e}")
    print(f"  rel <<w>>        {rep.rel_mean_freq:.3e}")
    print(f"  rel <<1/w>>      {rep.rel_mean_inv_freq:.3e}")
    print(f"  histogram L1     {rep.histogram_l1:.3e}")
    print(f"  recurrence est.  {rep.recurrence:.1f}")
    print(f"  discrete margin  {rep.discrete_margin:.6f}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
