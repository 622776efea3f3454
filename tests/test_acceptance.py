"""Acceptance gate: one test per release criterion, binding tolerances.

Each test prints a single PASS/FAIL line with the measured numbers, then
asserts.  Tolerances here are contractual; loosening one is a release
decision, not a test fix.
"""

import dataclasses
import json
import math
import time

import numpy as np
import pytest

from dense_evolution import symplectic_eigenvalues
from dosc import fano, groundstate, oracle, weakcoupling
from dosc.cli import main as cli_main
from dosc.spectra import OhmicExp, UnitSystem
from gauss_bath import gauss_legendre_bath
from short_time import short_time_check


def _line(num: int, name: str, ok: bool, detail: str) -> None:
    print(f"ACCEPTANCE {num:2d} {name}: {'PASS' if ok else 'FAIL'} ({detail})")


@pytest.fixture(scope="module")
def five_configs(ohmic_weak, ohmic_ref, ohmic_strong, flat_mid, flat_strong):
    return {
        "ohmic kappa^2=0.01": ohmic_weak,
        "ohmic kappa^2=0.06": ohmic_ref,
        "ohmic kappa^2=0.16": ohmic_strong,
        "flat level=0.2": flat_mid,
        "flat level=0.3": flat_strong,
    }


@pytest.fixture(scope="module")
def weak_line(units):
    # predicted line half-width 1e-3 * omega0
    spec = OhmicExp(amplitude=math.sqrt(4e-3 * math.exp(0.2) / math.pi),
                    cutoff=5.0)
    return spec, fano.solve(spec, units)


def test_criterion_01_normalisation(five_configs):
    worst = max(abs(fano.frequency_moment(sol, 0) - 1.0)
                for _, sol in five_configs.values())
    ok = worst <= 1e-6
    _line(1, "normalisation", ok, f"max |int pi - 1| = {worst:.3e}, tol 1e-6")
    assert ok


def test_criterion_02_sum_rule(five_configs, units):
    w0sq = units.omega0 ** 2
    worst = max(abs(fano.frequency_moment(sol, 2) / w0sq - 1.0)
                for _, sol in five_configs.values())
    ok = worst <= 1e-6
    _line(2, "sum rule", ok, f"max |<<w^2>>/w0^2 - 1| = {worst:.3e}, tol 1e-6")
    assert ok


def test_criterion_03_moment_inequalities(five_configs, units):
    w0 = units.omega0
    gap_mean = min(w0 - fano.frequency_moment(sol, 1)
                   for _, sol in five_configs.values())
    gap_prod = min(fano.frequency_moment(sol, 1) * fano.frequency_moment(sol, -1) - 1.0
                   for _, sol in five_configs.values())
    ok = gap_mean > 0.0 and gap_prod > 0.0
    _line(3, "strict inequalities", ok,
          f"min(w0 - <<w>>) = {gap_mean:.3e}, min(<<w>><<1/w>> - 1) = {gap_prod:.3e}")
    assert ok


def test_criterion_04_oracle_equivalence(ohmic_ref, units):
    _, sol = ohmic_ref
    t0 = time.perf_counter()
    rep = oracle.compare_with_continuum(sol, units, 4000, scheme="uniform",
                                        bins=160, bath_omega_max=40.0)
    elapsed = time.perf_counter() - t0
    ok = (rep.rel_var_x <= 0.005 and rep.rel_var_p <= 0.005
          and rep.histogram_l1 <= 0.02 and elapsed < 60.0)
    _line(4, "oracle equivalence", ok,
          f"rel_var_x = {rep.rel_var_x:.3e}, rel_var_p = {rep.rel_var_p:.3e}, "
          f"hist L1 = {rep.histogram_l1:.3e}, {elapsed:.1f}s")
    assert ok


def test_criterion_05_two_mode_closed_forms(units):
    lo, hi = math.sqrt(0.5), math.sqrt(1.5)
    m1 = 0.5 * (lo + hi)
    minv = 0.5 * (1.0 / lo + 1.0 / hi)
    want = {
        "var_x": 0.25 * (1.0 / lo + 1.0 / hi),
        "var_p": 0.25 * (lo + hi),
        "omega_c": math.sqrt(m1 / minv),
        "n_bar_c": 0.5 * (math.sqrt(m1 * minv) - 1.0),
        "mean_energy": 0.25 * (m1 + minv),
    }
    n = want["n_bar_c"]
    want["entropy"] = (n + 1.0) * math.log1p(n) - n * math.log(n)

    model = oracle.FiniteBathModel(1.0, [1.0], [0.5])
    decomp = oracle.normal_modes(model)
    summary = groundstate.ground_state_moments(decomp, units)

    freq_err = max(abs(decomp.Omegas[0] - lo), abs(decomp.Omegas[1] - hi))
    pi_err = float(np.max(np.abs(decomp.weights - 0.5)))
    worst = max(abs(getattr(summary, key) - val) for key, val in want.items())
    ok = freq_err <= 1e-6 and pi_err <= 1e-6 and worst <= 1e-6
    _line(5, "two-mode regression", ok,
          f"max |Omega - closed| = {freq_err:.1e}, max |pi - 1/2| = {pi_err:.1e}, "
          f"max observable error = {worst:.1e}, tol 1e-6")
    assert ok


def test_criterion_06_weak_coupling_limit(weak_line, units):
    spec, sol = weak_line
    rep = weakcoupling.lorentzian_fit(sol)
    hwhm_ok = abs(rep.hwhm_fit / rep.hwhm_pred - 1.0) <= 0.05
    center_ok = abs(rep.center_fit - (units.omega0 + rep.F0)) <= rep.hwhm_fit
    beta_ok = rep.max_beta_ratio_peak <= 2e-3
    # chi(xi) = exp(-(<<omega>>/omega0 xi_r^2 + omega0 <<1/omega>> xi_i^2)/2)
    # = exp(-(quad_p_unc^2 xi_r^2 + quad_x_unc^2 xi_i^2))
    summary = groundstate.ground_state_moments(sol, units)
    chi_r = math.exp(-summary.quad_p_unc ** 2)
    chi_i = math.exp(-summary.quad_x_unc ** 2)
    target = math.exp(-0.5)
    chi_err = max(abs(chi_r / target - 1.0), abs(chi_i / target - 1.0))
    chi_ok = chi_err <= 0.01
    ok = hwhm_ok and center_ok and beta_ok and chi_ok
    _line(6, "weak-coupling limit", ok,
          f"hwhm_fit/pred = {rep.hwhm_fit / rep.hwhm_pred:.4f}, "
          f"|center - (w0+F0)|/hwhm = {abs(rep.center_fit - 1.0 - rep.F0) / rep.hwhm_fit:.2e}, "
          f"max |beta/alpha| = {rep.max_beta_ratio_peak:.2e} (tol 2e-3), "
          f"chi error = {chi_err:.2e} (tol 1e-2)")
    assert ok


def test_criterion_07_short_time_cubic(ohmic_ref, units):
    _, sol = ohmic_ref
    rep = short_time_check(sol, units)
    assert not rep.skipped, rep.note
    exp_ok = abs(rep.exponent - 3.0) <= 0.1
    coeff_ok = rep.coefficient_rel_error <= 0.05
    ok = exp_ok and coeff_ok
    _line(7, "short-time cubic onset", ok,
          f"exponent = {rep.exponent:.4f} (tol 3.0 +- 0.1), "
          f"coefficient error = {rep.coefficient_rel_error:.2%} (tol 5%)")
    assert ok


def test_criterion_08_relaxation_window(ohmic_ref, units):
    spec, sol = ohmic_ref
    # covariance decays at twice the amplitude rate: gamma_eff is the
    # fitted full width at half maximum
    gamma_eff = 2.0 * weakcoupling.lorentzian_fit(sol).hwhm_fit
    model = oracle.discretize(dataclasses.replace(spec, omega_max=30.0),
                              units, 4000, scheme="uniform")
    decomp = oracle.normal_modes(model)
    t_lo = 20.0 / gamma_eff
    t_hi = 0.5 * oracle.recurrence_estimate(decomp)
    assert t_lo < t_hi, f"empty window [{t_lo:.1f}, {t_hi:.1f}]"
    ts = np.linspace(t_lo, t_hi, 60)
    traj = oracle.evolve_reduced(model, units, 1.0, 0.0, ts, decomp=decomp)
    ground = groundstate.ground_state_moments(decomp, units)
    scale = math.sqrt(ground.var_x * ground.var_p)
    worst = max(
        float(np.max(np.abs(traj.var_x / ground.var_x - 1.0))),
        float(np.max(np.abs(traj.var_p / ground.var_p - 1.0))),
        float(np.max(np.abs(traj.cov_xp))) / scale,
    )
    ok = worst <= 0.01
    _line(8, "relaxation to ground covariance", ok,
          f"window = [{t_lo:.1f}, {t_hi:.1f}], N = 4000, "
          f"max covariance deviation = {worst:.3e}, tol 1e-2")
    assert ok


def test_criterion_09_algebraic_identities(five_configs, units):
    # the low-end identity <<1/omega^2>> omega0 margin = 1 on both routes
    worst_id = 0.0
    for _, sol in five_configs.values():
        rep = groundstate.interpretation_identities(sol, units)
        assert rep.ok
        worst_id = max(worst_id, abs(rep.identity_defect))

    # oracle side: the same identity, and the symplectic eigenvalue of
    # the reduced covariance
    worst_nu = 0.0
    for model in (oracle.FiniteBathModel(1.0, [1.0], [0.5]),
                  gauss_legendre_bath(five_configs["flat level=0.2"][0], units, 200)):
        decomp = oracle.normal_modes(model)
        rep = groundstate.interpretation_identities(decomp, units)
        assert rep.ok
        worst_id = max(worst_id, abs(rep.identity_defect))
        summary = groundstate.ground_state_moments(decomp, units)
        sigma = np.diag([summary.var_x, summary.var_p])
        nu = symplectic_eigenvalues(sigma)[0]
        worst_nu = max(worst_nu, abs(2.0 * nu / units.hbar - (2.0 * summary.n_bar_c + 1.0)))

    ok = worst_id <= 1e-9 and worst_nu <= 1e-9
    _line(9, "algebraic identities", ok,
          f"max low-end identity defect = {worst_id:.1e}, "
          f"max symplectic defect = {worst_nu:.1e}, tol 1e-9")
    assert ok


def test_criterion_10_positivity_gate(units, tmp_path, capsys):
    config = {
        "units": {"omega0": 1.0, "mass": 1.0, "hbar": 1.0},
        "spectrum": {"family": "ohmic_exp",
                     "amplitude": math.sqrt(1.01 / 5.0), "cutoff": 5.0},
    }
    path = tmp_path / "reject.json"
    path.write_text(json.dumps(config))
    rc = cli_main(["spectrum", "--config", str(path), "--out", str(tmp_path)])
    err = capsys.readouterr().err
    exit2_ok = rc == 2 and json.loads(err.strip())["error"] == "PositivityError"

    sol = fano.solve(OhmicExp(amplitude=math.sqrt(0.99 / 5.0), cutoff=5.0), units)
    norm_defect = abs(fano.frequency_moment(sol, 0) - 1.0)
    sum_defect = abs(fano.frequency_moment(sol, 2) / units.omega0 ** 2 - 1.0)
    m1 = fano.frequency_moment(sol, 1)
    minv = fano.frequency_moment(sol, -1)
    ident = groundstate.interpretation_identities(sol, units)
    near_ok = (norm_defect <= 1e-5 and sum_defect <= 1e-5
               and m1 < units.omega0 and m1 * minv > 1.0 and ident.ok)
    ok = exit2_ok and near_ok
    _line(10, "positivity gate", ok,
          f"kappa^2 Lambda = 1.01 -> exit {rc}; 0.99 -> norm defect = "
          f"{norm_defect:.2e} (tol 1e-5), sum defect = {sum_defect:.2e}")
    assert ok
