"""Rectangular grid descriptions shared by the 1D solver and the oracle."""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np


@dataclass(frozen=True)
class Grid1D:
    """Uniform grid of ``n`` points spanning [x_min, x_max] inclusive."""

    x_min: float
    x_max: float
    n: int

    @property
    def dx(self) -> float:
        return (self.x_max - self.x_min) / (self.n - 1)

    def points(self) -> np.ndarray:
        return np.linspace(self.x_min, self.x_max, self.n)

    def halved(self) -> "Grid1D":
        return Grid1D(self.x_min, self.x_max, self.n // 2)


@dataclass(frozen=True)
class PolarGrid:
    """Interior-point grid for sector solves in (rho, phi).

    Radial points sit at (i+1)*drho with Dirichlet walls implied at 0
    and rho_max; angular points fill the open interval (phi_min,
    phi_max) the same way, with walls implied at both ends.
    """

    rho_max: float
    n_rho: int
    phi_min: float
    phi_max: float
    n_phi: int

    @property
    def drho(self) -> float:
        return self.rho_max / (self.n_rho + 1)

    @property
    def dphi(self) -> float:
        return (self.phi_max - self.phi_min) / (self.n_phi + 1)

    def rho_points(self) -> np.ndarray:
        return (np.arange(self.n_rho) + 1) * self.drho

    def phi_points(self) -> np.ndarray:
        return self.phi_min + (np.arange(self.n_phi) + 1) * self.dphi
