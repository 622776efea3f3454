"""A Gauss-Legendre bath: uneven modes and weights on (0, omega_max], a
second discretisation for the oracle's tests beside discretize's
uniform midpoint one, kept with the tests because no command needs it.
"""

import numpy as np

from dosc.oracle import FiniteBathModel


def gauss_legendre_bath(spec, units, N: int) -> FiniteBathModel:
    """N Gauss-Legendre nodes omega_k and weights w_k scaled to
    (0, omega_max], with couplings V(omega_k) sqrt(w_k)."""
    x, w = np.polynomial.legendre.leggauss(N)
    top = spec.omega_max
    freqs = 0.5 * top * (x + 1.0)
    couplings = np.sqrt(spec.v_sq(freqs)) * np.sqrt(0.5 * top * w)
    return FiniteBathModel(units.omega0, freqs, couplings)
