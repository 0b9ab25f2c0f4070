import numpy as np
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
from threebody1d.oracle import _cube_hamiltonian


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


def coincidence_mask(n: int) -> np.ndarray:
    """Boolean (n, n, n) mask of grid points with any two coordinates equal."""
    i = np.arange(n)
    a, b, c = np.meshgrid(i, i, i, indexing="ij")
    return (a == b) | (b == c) | (a == c)


@pytest.fixture(scope="session")
def cube_hamiltonian():
    """(spec, grid) -> (h, keep): the 3D Hamiltonian on the whole n^3 cube.

    ``keep`` holds the flat indices of the points a model keeps: those
    off the coincidence planes for a masked model, all of them else.
    H restricted to ``keep`` is the full-grid operator that the block
    solve of ``full_spectrum_3d`` must reproduce.
    """
    def build(spec, grid):
        h, masked = _cube_hamiltonian(spec, grid)
        keep = (np.flatnonzero(~coincidence_mask(grid.n).ravel()) if masked
                else np.arange(grid.n**3))
        return h, keep
    return build
