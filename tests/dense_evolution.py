"""Dense Gaussian-state evolution of a finite-bath model: the reference
for ``oracle.evolve_reduced`` and the ground covariance, kept with the
tests because no command or script needs it.

Everything here holds the full 2(N+1) x 2(N+1) covariance and builds the
propagator from ``decomp.eigenvectors``, so it is meant for small N.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Sequence

import numpy as np

from dosc.errors import UsageError
from dosc.oracle import FiniteBathModel, NormalModeDecomposition, normal_modes
from dosc.spectra import UnitSystem


@dataclass(frozen=True, eq=False)
class GaussianEvolutionState:
    """Gaussian state of the full system, mass-reduced coordinates.

    ``means`` is the 2(N+1) vector (all x, then all p); ``covariance``
    the matching symmetric matrix.  Physicality (symplectic eigenvalues
    >= hbar/2) is checked by :func:`symplectic_eigenvalues`.
    """

    means: np.ndarray
    covariance: np.ndarray

    def __post_init__(self):
        mu = np.asarray(self.means, dtype=float)
        cov = np.asarray(self.covariance, dtype=float)
        if mu.ndim != 1 or mu.size % 2 != 0:
            raise UsageError("means must be a 1-d vector of even length")
        if cov.shape != (mu.size, mu.size):
            raise UsageError("covariance shape does not match means")
        if not np.allclose(cov, cov.T, atol=1e-12):
            raise UsageError("covariance must be symmetric")
        object.__setattr__(self, "means", mu)
        object.__setattr__(self, "covariance", cov)

    @property
    def n_sites(self) -> int:
        return self.means.size // 2

    def reduced_oscillator(self, units: UnitSystem) -> tuple[np.ndarray, np.ndarray]:
        """Physical (mean_x, mean_p) and 2x2 covariance of site 0."""
        m = self.n_sites
        rm = math.sqrt(units.mass)
        means = np.array([self.means[0] / rm, self.means[m] * rm])
        cov = np.array([
            [self.covariance[0, 0] / units.mass, self.covariance[0, m]],
            [self.covariance[m, 0], self.covariance[m, m] * units.mass],
        ])
        return means, cov


def full_covariance(decomp: NormalModeDecomposition, units: UnitSystem) -> np.ndarray:
    """2(N+1) x 2(N+1) covariance of the global ground state,
    mass-reduced coordinates, ordered (all x, then all p), assembled
    from K^{+-1/2}: two dense O(N^3) products."""
    hbar = units.hbar
    o = decomp.eigenvectors
    x_block = (hbar / 2.0) * (o / decomp.Omegas) @ o.T
    p_block = (hbar / 2.0) * (o * decomp.Omegas) @ o.T
    m = o.shape[0]
    cov = np.zeros((2 * m, 2 * m))
    cov[:m, :m] = x_block
    cov[m:, m:] = p_block
    return cov


def product_ground_state(model: FiniteBathModel, units: UnitSystem,
                         x0: float = 0.0, p0: float = 0.0) -> GaussianEvolutionState:
    """Each constituent in its own bare ground state; the oscillator
    optionally displaced by physical (x0, p0)."""
    bare = np.concatenate([[model.omega0], model.bath_freqs])
    m = bare.size
    hbar = units.hbar
    cov = np.zeros((2 * m, 2 * m))
    cov[np.arange(m), np.arange(m)] = hbar / (2.0 * bare)
    cov[np.arange(m, 2 * m), np.arange(m, 2 * m)] = hbar * bare / 2.0
    means = np.zeros(2 * m)
    means[0] = x0 * math.sqrt(units.mass)
    means[m] = p0 / math.sqrt(units.mass)
    return GaussianEvolutionState(means=means, covariance=cov)


def global_ground_state(decomp: NormalModeDecomposition, units: UnitSystem) -> GaussianEvolutionState:
    """Ground state of the coupled system."""
    cov = full_covariance(decomp, units)
    return GaussianEvolutionState(means=np.zeros(cov.shape[0]), covariance=cov)


def _propagator(decomp: NormalModeDecomposition, t: float) -> np.ndarray:
    o = decomp.eigenvectors
    om = decomp.Omegas
    c = (o * np.cos(om * t)) @ o.T
    s = (o * (np.sin(om * t) / om)) @ o.T
    d = (o * (om * np.sin(om * t))) @ o.T
    m = o.shape[0]
    prop = np.zeros((2 * m, 2 * m))
    prop[:m, :m] = c
    prop[:m, m:] = s
    prop[m:, :m] = -d
    prop[m:, m:] = c
    return prop


def evolve(model: FiniteBathModel, initial: GaussianEvolutionState,
           times: Sequence[float],
           decomp: NormalModeDecomposition | None = None) -> list[GaussianEvolutionState]:
    """Exact evolution at the given times (dense propagators).

    The propagator is assembled from normal-mode cosines and sines, so
    each requested time is evaluated directly with no stepping error.
    """
    if initial.n_sites != model.n_modes + 1:
        raise UsageError("initial state size does not match the model")
    if decomp is None:
        decomp = normal_modes(model)
    out = []
    for t in np.asarray(times, dtype=float):
        prop = _propagator(decomp, float(t))
        out.append(GaussianEvolutionState(
            means=prop @ initial.means,
            covariance=prop @ initial.covariance @ prop.T,
        ))
    return out


def symplectic_eigenvalues(covariance: np.ndarray) -> np.ndarray:
    """Williamson spectrum of a covariance in (x..., p...) ordering."""
    n2 = covariance.shape[0]
    m = n2 // 2
    j = np.zeros((n2, n2))
    j[:m, m:] = np.eye(m)
    j[m:, :m] = -np.eye(m)
    ev = np.linalg.eigvals(j @ covariance)
    nus = np.sort(np.abs(ev.imag))
    # eigenvalues come in +-i nu pairs, adjacent after sorting
    return nus[::2]
