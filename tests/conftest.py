import pytest

from threebody1d import (
    ContactInteraction,
    HarmonicInteraction,
    HarmonicTrap,
    InverseSquareInteraction,
    ModelSpec,
    NoInteraction,
    analytic_spectrum,
)


@pytest.fixture(scope="session")
def harmonic_sigma1():
    return analytic_spectrum(HarmonicTrap(1.0), 24)


@pytest.fixture(scope="session")
def spec_noninteracting():
    return ModelSpec(HarmonicTrap(1.0), NoInteraction())


@pytest.fixture(scope="session")
def spec_harm_harm():
    return ModelSpec(HarmonicTrap(1.0), HarmonicInteraction(0.5))


@pytest.fixture(scope="session")
def spec_calogero():
    return ModelSpec(HarmonicTrap(1.0), InverseSquareInteraction(1.0))


@pytest.fixture(scope="session")
def spec_unitary():
    return ModelSpec(HarmonicTrap(1.0), ContactInteraction(unitary=True))
