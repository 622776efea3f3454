"""Reduced ground-state observables from frequency moments.

Every observable is a function of two moments of pi(omega),
M1 = <<omega>> and Minv = <<1/omega>>, mapped in one place (_summary);
M2 = <<omega^2>> and <<1/omega^2>> enter only the certificate of the
measure's two ends (interpretation_identities).  The reduced state
is Gaussian with zero means, var_x = hbar Minv / 2m and
var_p = hbar m M1 / 2; the pair (omega_c, n_bar_c) re-expresses it as a
thermal state at the effective frequency omega_c = sqrt(M1/Minv), which
reproduces both variances identically.

Works on any (nodes, weights) measure with ``omega0`` and ``margin``: a
fano.SpectralSolution, atoms included, the oracle's modes, or bare_mode.
"""

from __future__ import annotations

import json
import math
from dataclasses import asdict, dataclass
from types import SimpleNamespace

import numpy as np

from .errors import InternalConsistencyError
from .fano import _certified, frequency_moment, identity_defect
from .spectra import UnitSystem

# Below this, a negative occupation is round-off; at or beyond it, the
# Cauchy-Schwarz invariant M1*Minv >= 1 is genuinely broken.
OCCUPATION_CLAMP = -1e-12


@dataclass(frozen=True)
class GroundStateSummary:
    """All scalar observables of the reduced oscillator state."""

    mean_x: float
    mean_p: float
    var_x: float
    var_p: float
    sym_xp: float
    quad_x_unc: float
    quad_p_unc: float
    omega_c: float
    n_bar_c: float
    T_eff: float
    entropy: float
    mutual_info: float
    mean_energy: float

    def to_json(self) -> str:
        return json.dumps(asdict(self), indent=2, sort_keys=True)

    def report_block(self) -> str:
        """Human-readable summary, one observable per line."""
        lines = [
            "ground state of the damped oscillator",
            f"  var_x        = {self.var_x:.12g}",
            f"  var_p        = {self.var_p:.12g}",
            f"  quad unc     = {self.quad_x_unc:.9g} (x), {self.quad_p_unc:.9g} (p)",
            f"  omega_c      = {self.omega_c:.12g}",
            f"  n_bar_c      = {self.n_bar_c:.12g}",
            f"  T_eff        = {self.T_eff:.12g}",
            f"  entropy      = {self.entropy:.12g} nats",
            f"  mutual info  = {self.mutual_info:.12g} nats",
            f"  mean energy  = {self.mean_energy:.12g}",
        ]
        return "\n".join(lines)


def _summary(m1: float, minv: float, units: UnitSystem) -> GroundStateSummary:
    """Every observable from M1 = <<omega>> and Minv = <<1/omega>>.

    n_bar_c = (sqrt(M1 Minv) - 1)/2 is clamped to 0 at round-off;
    T_eff = hbar omega_c / ln(1 + 1/n_bar_c) with k_B = 1, and the
    entropy S = (n+1) ln(n+1) - n ln n in nats, are 0 at n_bar_c = 0;
    E = (hbar omega0 / 4)(M1/omega0 + omega0 Minv).
    """
    hbar, m, w0 = units.hbar, units.mass, units.omega0
    n = 0.5 * (math.sqrt(m1 * minv) - 1.0)
    if n < 0.0:
        if n <= OCCUPATION_CLAMP:
            raise InternalConsistencyError(
                f"thermal occupation {n} is negative beyond round-off; "
                "the moment inequality <<omega>><<1/omega>> >= 1 is broken"
            )
        n = 0.0
    wc = math.sqrt(m1 / minv)
    t_eff = entropy = 0.0
    if n != 0.0:
        t_eff = hbar * wc / math.log1p(1.0 / n)
        entropy = (n + 1.0) * math.log1p(n) - n * math.log(n)
    return GroundStateSummary(
        mean_x=0.0, mean_p=0.0,
        var_x=hbar * minv / (2.0 * m),
        var_p=hbar * m * m1 / 2.0,
        sym_xp=0.0,
        quad_x_unc=math.sqrt(0.5 * w0 * minv),
        quad_p_unc=math.sqrt(0.5 * m1 / w0),
        omega_c=wc,
        n_bar_c=n,
        T_eff=t_eff,
        entropy=entropy,
        mutual_info=2.0 * entropy,
        mean_energy=0.25 * hbar * w0 * (m1 / w0 + w0 * minv),
    )


def ground_state_moments(sol, units: UnitSystem) -> GroundStateSummary:
    """Full observable bundle; means and sym_xp vanish by construction."""
    units.require_omega0(sol.omega0)
    return _summary(frequency_moment(sol, 1), frequency_moment(sol, -1), units)


def bare_mode(units: UnitSystem) -> SimpleNamespace:
    """pi for V = 0: one state at omega0 of weight 1, and margin omega0."""
    w0 = units.omega0
    return SimpleNamespace(nodes=np.array([w0]), weights=np.array([1.0]), omega0=w0, margin=w0)


def uncoupled_summary(units: UnitSystem) -> GroundStateSummary:
    """The textbook ground state for V identically zero, bare_mode's."""
    return ground_state_moments(bare_mode(units), units)


@dataclass(frozen=True)
class IdentityReport:
    """The certificate of a measure's two ends."""

    identity_defect: float   # <<1/omega^2>> omega0 margin - 1, signed
    sum_rule_defect: float   # |<<omega^2>> - omega0^2| / omega0^2
    ok: bool                 # the measure within compute_pi's gates


def interpretation_identities(sol, units: UnitSystem) -> IdentityReport:
    """The low end, which sets var_x, by fano.identity_defect, the high end
    by the omega^2 sum rule (on a finite bath, K[0,0] = omega0^2), and
    ``ok``, fano.compute_pi's gate, norm included: False if any misses."""
    units.require_omega0(sol.omega0)
    w0 = units.omega0
    return IdentityReport(identity_defect=identity_defect(sol),
                          sum_rule_defect=abs(frequency_moment(sol, 2) - w0 * w0) / (w0 * w0),
                          ok=_certified(sol))
