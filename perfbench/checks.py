"""Output checks for every benchmark operation.

Each check returns ``None`` when the output is right and a short reason
when it is not.  Tolerances are no tighter than the package's own 1e-6
certification (or, for the Lorentzian fit, the acceptance gate's), so a
change that only moves the last digits passes.
"""

from __future__ import annotations

import json
import math
from pathlib import Path

import numpy as np

CERT_TOL = 1e-6


def _json(path: Path) -> dict:
    return json.loads(path.read_text())


def spectrum(out: Path, seen: dict) -> str | None:
    s = _json(out / "summary.json")
    if not abs(s["norm_defect"]) <= CERT_TOL:
        return f"norm_defect {s['norm_defect']:.3e}"
    if not abs(s["sum_rule_defect"]) <= CERT_TOL:
        return f"sum_rule_defect {s['sum_rule_defect']:.3e}"
    m1, minv = s["mean_frequency"], s["mean_inverse_frequency"]
    # Cauchy-Schwarz <<w>><<1/w>> >= 1 and Jensen <<w>>^2 <= <<w^2>> = 1
    if not (m1 > 0 and minv > 0 and m1 * minv >= 1 - CERT_TOL and m1 <= 1 + CERT_TOL):
        return f"moments out of range: <<w>> = {m1}, <<1/w>> = {minv}"
    table = np.loadtxt(out / "pi.csv", delimiter=",", skiprows=1, ndmin=2)
    if table.shape != (s["n_nodes"], 5):
        return f"pi.csv has shape {table.shape}, summary says {s['n_nodes']} nodes"
    if not (np.all(np.diff(table[:, 0]) > 0) and np.all(table[:, 4] >= 0)):
        return "pi.csv: omegas not increasing or pi negative"
    seen["moments"] = (m1, minv)
    return None


def groundstate(out: Path, seen: dict) -> str | None:
    g = _json(out / "groundstate.json")
    if "ok                 = True" not in (out / "report.txt").read_text():
        return "identities not ok"
    if not g["var_x"] * g["var_p"] >= 0.25 * (1 - CERT_TOL):
        return f"uncertainty relation broken: {g['var_x'] * g['var_p']}"
    if "moments" in seen:
        # same model, same solve: the variances are the spectrum moments / 2
        m1, minv = seen["moments"]
        if not (math.isclose(g["var_x"], 0.5 * minv, rel_tol=CERT_TOL)
                and math.isclose(g["var_p"], 0.5 * m1, rel_tol=CERT_TOL)):
            return "variances disagree with the spectrum moments"
    return None


def weak(out: Path, seen: dict) -> str | None:
    r = _json(out / "weak_report.json")
    if not abs(r["hwhm_fit"] / r["hwhm_pred"] - 1.0) <= 0.05:
        return f"hwhm_fit/hwhm_pred = {r['hwhm_fit'] / r['hwhm_pred']:.4f}"
    if not abs(r["center_fit"] - (1.0 + r["F0"])) <= r["hwhm_fit"]:
        return f"centre {r['center_fit']} vs predicted {1.0 + r['F0']}"
    return None


def dynamics(out: Path, seen: dict) -> str | None:
    k = np.loadtxt(out / "kernels.csv", delimiter=",", skiprows=1, ndmin=2)
    tr = np.loadtxt(out / "trajectory.csv", delimiter=",", skiprows=1, ndmin=2)
    t, k_cos = k[:, 0], k[:, 1]
    if not (t[0] == 0.0 and abs(k_cos[0] - 1.0) <= CERT_TOL):
        return f"k_cos(0) = {k_cos[0]!r}"
    if not np.max(np.abs(k_cos)) <= 1.0 + CERT_TOL:
        return f"|k_cos| reaches {np.max(np.abs(k_cos))}"
    # x0 = 1, p0 = 0: <x(t)> = k_cos(t)
    if tr.shape[0] != t.size or not np.allclose(tr[:, 1], k_cos, rtol=0, atol=CERT_TOL):
        return "trajectory disagrees with x0 * k_cos"
    d = _json(out / "damping.json")
    if d["damping_class"] not in ("underdamped", "non_oscillatory"):
        return f"damping class {d['damping_class']!r}"
    return None


def compare(out: Path, seen: dict) -> str | None:
    c = _json(out / "comparison.json")
    if c["verdict"] != "pass":
        return (f"verdict {c['verdict']}: rel_var_x {c['rel_var_x']:.2e}, "
                f"rel_var_p {c['rel_var_p']:.2e}, histogram_l1 {c['histogram_l1']:.2e}")
    return None


def evolve(result, x0: float) -> str | None:
    """The relaxation path: the finite-bath mean trajectory must equal
    x0 * k_cos from the same decomposition's dynamics kernels."""
    traj, kern = result
    if not abs(kern.k_cos[0] - 1.0) <= CERT_TOL:
        return f"k_cos(0) = {kern.k_cos[0]!r}"
    if not abs(traj.var_x[0] - 0.5) <= CERT_TOL:
        return f"var_x(0) = {traj.var_x[0]!r}, want 1/2"
    dev = float(np.max(np.abs(traj.mean_x - x0 * kern.k_cos)))
    if not dev <= CERT_TOL * abs(x0):
        return f"mean trajectory deviates from x0 * k_cos by {dev:.3e}"
    return None


def refusal(stderr_text: str) -> str | None:
    """An inadmissible model must be refused as a positivity failure."""
    lines = stderr_text.strip().splitlines()
    try:
        doc = json.loads(lines[-1])
    except (IndexError, json.JSONDecodeError):
        return "no JSON error object on stderr"
    if doc.get("error") != "PositivityError" or doc.get("exit_code") != 2:
        return f"refused as {doc.get('error')} (exit {doc.get('exit_code')})"
    return None


OUTPUT_CHECKS = {"spectrum": spectrum, "groundstate": groundstate, "weak": weak,
                 "dynamics": dynamics, "compare": compare}
