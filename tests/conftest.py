import pytest
from hypothesis import HealthCheck, settings

settings.register_profile(
    "ci",
    derandomize=True,
    max_examples=40,
    deadline=None,
    suppress_health_check=[HealthCheck.too_slow],
)
settings.load_profile("ci")


# Session-scoped spectral solutions shared across test modules; each
# named setup is solved once.

@pytest.fixture(scope="session")
def units():
    from dosc.spectra import UnitSystem

    return UnitSystem(omega0=1.0, mass=1.0, hbar=1.0)


def _solve_ohmic(kappa_sq, units):
    from dosc.fano import solve
    from dosc.spectra import OhmicExp

    spec = OhmicExp(amplitude=kappa_sq**0.5, cutoff=5.0)
    return spec, solve(spec, units)


@pytest.fixture(scope="session")
def ohmic_weak(units):
    """kappa^2 Lambda / omega0 = 0.05"""
    return _solve_ohmic(0.01, units)


@pytest.fixture(scope="session")
def ohmic_ref(units):
    """kappa^2 Lambda / omega0 = 0.3, the workhorse configuration."""
    return _solve_ohmic(0.06, units)


@pytest.fixture(scope="session")
def ohmic_strong(units):
    """kappa^2 Lambda / omega0 = 0.8"""
    return _solve_ohmic(0.16, units)


@pytest.fixture(scope="session")
def flat_mid(units):
    from dosc.fano import solve
    from dosc.spectra import FlatBand

    spec = FlatBand(level=0.2, lower=0.1, upper=2.0)
    return spec, solve(spec, units)


@pytest.fixture(scope="session")
def flat_strong(units):
    from dosc.fano import solve
    from dosc.spectra import FlatBand

    spec = FlatBand(level=0.3, lower=0.1, upper=2.0)
    return spec, solve(spec, units)
