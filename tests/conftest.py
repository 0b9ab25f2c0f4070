import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest
import scipy.sparse as sp

import threebody1d
from threebody1d import (
    ContactInteraction,
    HarmonicInteraction,
    HarmonicTrap,
    InverseSquareInteraction,
    ModelSpec,
    NoInteraction,
    analytic_spectrum,
)
from threebody1d.grids import PolarGrid
from threebody1d.onebody import kinetic_fd_1d
from threebody1d.oracle import CM_ANGULAR_PREFACTOR, relative_potential_smooth


@pytest.fixture(scope="session")
def fresh_python():
    """(*args) -> CompletedProcess of ``python *args`` in a new interpreter
    that imports the package from the same source tree as the tests."""
    src = str(Path(threebody1d.__file__).parents[1])
    path = os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))
    env = dict(os.environ, PYTHONPATH=path)

    def run(*args):
        return subprocess.run([sys.executable, *args], env=env,
                              capture_output=True, text=True, timeout=120)
    return run


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


def _potential_3d(spec, x):
    """V on the whole n^3 cube, and whether the model is masked.

    A masked model's pair potential is set to 0 on the coincidence
    planes, which it removes.
    """
    x1, x2, x3 = x[:, None, None], x[None, :, None], x[None, None, :]
    v = (spec.trap.potential(x1, mass=spec.mass)
         + spec.trap.potential(x2, mass=spec.mass)
         + spec.trap.potential(x3, mass=spec.mass))
    v = np.broadcast_to(v, (len(x),) * 3).astype(float).copy()
    kind = spec.interaction.kind
    if kind == "harmonic":
        g = spec.interaction.gamma
        v += g * ((x1 - x2) ** 2 + (x2 - x3) ** 2 + (x3 - x1) ** 2)
    elif kind == "inverse_square":
        g = spec.interaction.gamma
        with np.errstate(divide="ignore"):
            for d in ((x1 - x2), (x2 - x3), (x3 - x1)):
                term = g / d**2
                term[~np.isfinite(term)] = 0.0
                v += term
    return v, kind in ("inverse_square", "contact")


def _cube_hamiltonian(spec, grid):
    """Sparse H on the whole n^3 cube, from the kron'd 1D stencil, and
    whether the model is masked (3-point stencil, coincidence planes
    removed) or smooth (5-point stencil)."""
    v, masked = _potential_3d(spec, grid.points())
    n = grid.n
    t1 = kinetic_fd_1d(n, grid.dx, order=2 if masked else 4, mass=spec.mass,
                       hbar=spec.hbar)
    eye = sp.identity(n)
    h = (sp.kron(sp.kron(t1, eye), eye)
         + sp.kron(sp.kron(eye, t1), eye)
         + sp.kron(sp.kron(eye, eye), t1)
         + sp.diags(v.ravel()))
    return h.tocsr(), masked


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


def _cartesian_relative_hamiltonian(spec, grid):
    x = grid.points()
    t1 = kinetic_fd_1d(grid.n, grid.dx, order=4, mass=spec.mass, hbar=spec.hbar)
    eye = sp.identity(grid.n)
    h = sp.kron(t1, eye) + sp.kron(eye, t1)
    q2, q3 = np.meshgrid(x, x, indexing="ij")
    v = relative_potential_smooth(spec)(q2, q3)
    return (h + sp.diags(v.ravel())).tocsr()


def _polar_relative_hamiltonian(spec, grid):
    """Relative Hamiltonian on the (rho, phi) grid after u = sqrt(rho) psi."""
    omega = spec.effective_omega()
    m, hbar = spec.mass, spec.hbar
    rho = grid.rho_points()
    phi = grid.phi_points()
    t_rho = kinetic_fd_1d(grid.n_rho, grid.drho, order=2, mass=m, hbar=hbar)
    t_phi = kinetic_fd_1d(grid.n_phi, grid.dphi, order=2, mass=m, hbar=hbar)
    inv_r2 = sp.diags(1.0 / rho**2)
    h = sp.kron(t_rho, sp.identity(grid.n_phi)) + sp.kron(inv_r2, t_phi)

    v = 0.5 * m * omega**2 * rho[:, None] ** 2 * np.ones_like(phi)[None, :]
    v = v - (hbar**2 / (8 * m)) / rho[:, None] ** 2  # metric term of the substitution
    if spec.interaction.kind == "inverse_square":
        v = v + (CM_ANGULAR_PREFACTOR * spec.interaction.gamma
                 / (rho[:, None] ** 2 * np.cos(3 * phi[None, :]) ** 2))
    return (h + sp.diags(v.ravel())).tocsr()


@pytest.fixture(scope="session")
def relative_hamiltonian_2d():
    """(spec, grid) -> the sparse relative 2D Hamiltonian on ``grid``.

    The Kronecker-product operator on the whole grid: Cartesian (q2, q3)
    for a Grid1D, the polar sector after u = sqrt(rho) psi for a
    PolarGrid.  Its spectrum is what the separable solve of
    ``relative_spectrum_2d`` must reproduce.
    """
    def build(spec, grid):
        if isinstance(grid, PolarGrid):
            return _polar_relative_hamiltonian(spec, grid)
        return _cartesian_relative_hamiltonian(spec, grid)
    return build
