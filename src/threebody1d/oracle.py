"""Independent grid-diagonalization ground truth.

Two solver families cover the in-scope models:

* Cartesian finite differences (4th order) for smooth potentials, used
  for the 2D relative problem of harmonically trapped models and the
  full 3D problem at desk scale.
* A polar-grid solve of the relative problem for the singular models
  (inverse-square and unitary contact), where the coincidence lines
  phi = pi/6 + k*pi/3 are grid-aligned and enforced as Dirichlet walls.
  The substitution u = sqrt(rho) psi keeps the matrix symmetric.

Every eigensolve runs ARPACK (shift-invert for the 2D operators, plain
Lanczos for the 3D ones) with a fixed, deterministic start vector, so
repeated runs are bit-identical.
"""

from __future__ import annotations

import math
import time
from dataclasses import dataclass
from functools import lru_cache

import numpy as np
import scipy.sparse as sp
import scipy.sparse.linalg as spla

from .errors import (
    BoxTooSmall,
    GridMismatch,
    ResourceBudgetExceeded,
    SingularPotentialUnresolved,
    UnsupportedTrap,
)
from .grids import Grid1D, PolarGrid
from .models import ModelSpec
from .onebody import kinetic_fd_1d

# Prefactor of the Calogero-Moser angular barrier: the three pair terms
# gamma/(x_i - x_j)^2 sum to (9/2) gamma / (rho^2 cos^2(3 phi)).
CM_ANGULAR_PREFACTOR = 4.5


@dataclass(frozen=True)
class WaveFunctionGrid:
    """Wavefunction samples on a rectangular grid, unit norm.

    ``axes`` holds one Grid1D per dimension; ``values`` has matching
    shape.  The norm convention is sum |psi|^2 * cell volume = 1.
    """

    axes: tuple
    values: np.ndarray

    def __post_init__(self):
        shape = tuple(a.n for a in self.axes)
        if self.values.shape != shape:
            raise GridMismatch(f"values shape {self.values.shape} != grid {shape}")

    @property
    def cell_volume(self) -> float:
        out = 1.0
        for a in self.axes:
            out *= a.dx
        return out

    def norm(self) -> float:
        return float(np.sqrt(np.sum(np.abs(self.values) ** 2) * self.cell_volume))

    def normalized(self) -> "WaveFunctionGrid":
        return WaveFunctionGrid(self.axes, self.values / self.norm())


@dataclass(frozen=True)
class OracleResult:
    """Lowest eigenvalues of a grid solve, ascending.

    ``convergence_delta`` is |E - E_halved| per eigenvalue when the
    solve was refined, else None; ``wall_time`` covers the whole call.
    """

    eigenvalues: np.ndarray
    convergence_delta: np.ndarray | None
    wall_time: float


def _eigsh_deterministic(h, k, mode="shift-invert"):
    """Lowest k eigenpairs, deterministically.

    Shift-invert is the fast path for 2D operators, whose sparse LU
    stays cheap; 3D operators fill in catastrophically under LU, so
    they use plain Lanczos instead.  The start vector is fixed but
    unstructured: a structured one can be near-orthogonal to members
    of a degenerate multiplet and lose copies.
    """
    n = h.shape[0]
    v0 = np.random.default_rng(2024).standard_normal(n)
    # solve with slack so degenerate multiplets (up to 6-fold here) are
    # not truncated mid-cluster, then return the lowest k
    ks = min(k + 6, n - 1)
    if mode == "shift-invert":
        vals, vecs = spla.eigsh(h.tocsc(), k=ks, sigma=0.0, which="LM", v0=v0)
    else:
        vals, vecs = spla.eigsh(h.tocsr(), k=ks, which="SA", v0=v0,
                                maxiter=50 * n, tol=1e-10)
    order = np.argsort(vals)[:k]
    return vals[order], vecs[:, order]


# ---------------------------------------------------------------------------
# relative 2D problem
# ---------------------------------------------------------------------------

def _require_relative_frame(spec: ModelSpec) -> float:
    if not spec.harmonic_like:
        raise UnsupportedTrap(
            "the relative 2D solver needs a harmonic-like trap so the "
            "center of mass separates")
    return spec.effective_omega()


def relative_potential_smooth(spec: ModelSpec):
    """(q2, q3) -> V_rel for the coordinate-smooth interactions."""
    omega = _require_relative_frame(spec)
    m = spec.mass
    kind = spec.interaction.kind
    if kind == "none":
        coeff = 0.5 * m * omega**2
    elif kind == "harmonic":
        # the three pair terms sum to 3*gamma*rho^2
        coeff = 0.5 * m * omega**2 + 3.0 * spec.interaction.gamma
    else:
        raise ValueError(f"interaction {kind!r} is not coordinate-smooth")
    return lambda q2, q3: coeff * (q2**2 + q3**2)


def default_relative_grid(spec: ModelSpec):
    if spec.interaction.kind in ("none", "harmonic"):
        return Grid1D(-7.0, 7.0, 192)
    return PolarGrid(rho_max=7.5, n_rho=240, phi_min=math.pi / 6,
                     phi_max=math.pi / 2, n_phi=160)


def _cartesian_relative_hamiltonian(spec: ModelSpec, grid: Grid1D):
    x = grid.points()
    t1 = kinetic_fd_1d(grid.n, grid.dx, order=4, mass=spec.mass, hbar=spec.hbar)
    eye = sp.identity(grid.n)
    h = sp.kron(t1, eye) + sp.kron(eye, t1)
    q2, q3 = np.meshgrid(x, x, indexing="ij")
    v = relative_potential_smooth(spec)(q2, q3)
    return (h + sp.diags(v.ravel())).tocsr()


def _polar_relative_hamiltonian(spec: ModelSpec, grid: PolarGrid):
    """Relative Hamiltonian on the (rho, phi) grid after u = sqrt(rho) psi."""
    omega = _require_relative_frame(spec)
    m, hbar = spec.mass, spec.hbar
    rho = grid.rho_points()
    phi = grid.phi_points()
    n_rho, n_phi = grid.n_rho, grid.n_phi

    t_rho = kinetic_fd_1d(n_rho, grid.drho, order=2, mass=m, hbar=hbar)
    t_phi = kinetic_fd_1d(n_phi, grid.dphi, order=2, mass=m, hbar=hbar)
    inv_r2 = sp.diags(1.0 / rho**2)
    h = sp.kron(t_rho, sp.identity(n_phi)) + sp.kron(inv_r2, t_phi)

    v = 0.5 * m * omega**2 * rho[:, None] ** 2 * np.ones_like(phi)[None, :]
    v = v - (hbar**2 / (8 * m)) / rho[:, None] ** 2  # metric term of the substitution
    kind = spec.interaction.kind
    if kind == "inverse_square":
        v = v + (CM_ANGULAR_PREFACTOR * spec.interaction.gamma
                 / (rho[:, None] ** 2 * np.cos(3 * phi[None, :]) ** 2))
    elif not (kind == "contact" and spec.interaction.unitary):
        raise ValueError(f"polar solver does not handle interaction {kind!r}")
    return (h + sp.diags(v.ravel())).tocsr()


def relative_spectrum_2d(spec: ModelSpec, grid=None, k: int = 8, *,
                         refine: bool = False) -> OracleResult:
    """Lowest k eigenvalues of the relative two-degree-of-freedom problem.

    Smooth interactions (none, harmonic) are solved on a Cartesian
    (q2, q3) grid, whose ground state must have decayed at the box edge
    (else BoxTooSmall); the singular ones (inverse-square, unitary
    contact) on a polar grid restricted to one ordering sector.
    ``refine`` re-solves at half resolution and attaches the per-level
    delta; for the singular models a delta above 1e-3 relative raises
    SingularPotentialUnresolved.
    """
    t0 = time.perf_counter()
    if grid is None:
        grid = default_relative_grid(spec)
    singular = isinstance(grid, PolarGrid)
    hamiltonian = (_polar_relative_hamiltonian if singular
                   else _cartesian_relative_hamiltonian)
    vals, vecs = _eigsh_deterministic(hamiltonian(spec, grid), k)
    if not singular:
        ground = np.abs(vecs[:, 0].reshape(grid.n, grid.n))
        edge = max(ground[0].max(), ground[-1].max(),
                   ground[:, 0].max(), ground[:, -1].max())
        if edge > 1e-8 * ground.max():
            raise BoxTooSmall(
                f"relative box [{grid.x_min}, {grid.x_max}] too small: edge "
                f"amplitude {edge / ground.max():.1e} of max")

    delta = None
    if refine:
        cvals, _ = _eigsh_deterministic(hamiltonian(spec, grid.halved()), k)
        delta = np.abs(vals - cvals)
        if singular and np.any(delta / np.abs(vals) > 1e-3):
            raise SingularPotentialUnresolved(
                f"grid-halving instability {np.max(delta / np.abs(vals)):.2e} "
                "relative; refine the polar grid")
    return OracleResult(eigenvalues=vals, convergence_delta=delta,
                        wall_time=time.perf_counter() - t0)


# ---------------------------------------------------------------------------
# full 3D problem
# ---------------------------------------------------------------------------

def coincidence_mask(n: int) -> np.ndarray:
    """Boolean (n, n, n) mask of grid points with any two coordinates equal."""
    i = np.arange(n)
    a, b, c = np.meshgrid(i, i, i, indexing="ij")
    return (a == b) | (b == c) | (a == c)


def _potential_3d(spec: ModelSpec, x: np.ndarray):
    x1 = x[:, None, None]
    x2 = x[None, :, None]
    x3 = x[None, None, :]
    v = (spec.trap.potential(x1, mass=spec.mass)
         + spec.trap.potential(x2, mass=spec.mass)
         + spec.trap.potential(x3, mass=spec.mass))
    v = np.broadcast_to(v, (len(x),) * 3).astype(float).copy()
    kind = spec.interaction.kind
    masked = False
    if kind == "harmonic":
        g = spec.interaction.gamma
        v += g * ((x1 - x2) ** 2 + (x2 - x3) ** 2 + (x3 - x1) ** 2)
    elif kind == "inverse_square":
        g = spec.interaction.gamma
        masked = True
        with np.errstate(divide="ignore"):
            for d in ((x1 - x2), (x2 - x3), (x3 - x1)):
                term = g / d**2
                term[~np.isfinite(term)] = 0.0  # masked points are removed anyway
                v += term
    elif kind == "contact":
        if not spec.interaction.unitary:
            raise ValueError("the 3D solver handles contact only in the "
                             "unitary limit: finite gamma has no grid form "
                             "with a controlled continuum limit")
        masked = True
    return v, masked


# 2 covers all reuse: refine's two grids, full_spectrum_3d + apply_hamiltonian
@lru_cache(maxsize=2)
def _hamiltonian_3d(spec: ModelSpec, grid: Grid1D):
    """Sparse 3D Hamiltonian and keep-indices (None when unmasked)."""
    x = grid.points()
    n = grid.n
    v, masked = _potential_3d(spec, x)
    order = 2 if masked else 4
    t1 = kinetic_fd_1d(n, grid.dx, order=order, mass=spec.mass, hbar=spec.hbar)
    eye = sp.identity(n)
    h = (sp.kron(sp.kron(t1, eye), eye)
         + sp.kron(sp.kron(eye, t1), eye)
         + sp.kron(sp.kron(eye, eye), t1)
         + sp.diags(v.ravel()))
    keep = None
    if masked:
        keep = np.where(~coincidence_mask(n).ravel())[0]
    return h.tocsr(), keep


def full_spectrum_3d(spec: ModelSpec, grid: Grid1D, k: int = 4, *,
                     refine: bool = False) -> OracleResult:
    """Lowest k eigenvalues of the full three-particle discretization.

    The grid is cubic with identical axes so that particle permutations
    are exact grid symmetries.  Singular interactions remove the
    coincidence planes as interior hard walls (and drop to the 3-point
    stencil, whose radius-1 neighborhoods never cross a pinned plane).
    Finite-gamma contact raises ValueError.
    """
    if grid.n > 128:
        raise ResourceBudgetExceeded(f"n per axis {grid.n} > 128")
    if k > 20:
        raise ResourceBudgetExceeded(f"k = {k} > 20")
    t0 = time.perf_counter()
    h, keep = _hamiltonian_3d(spec, grid)
    hs = h if keep is None else h[keep][:, keep]
    vals, _ = _eigsh_deterministic(hs, k, mode="lanczos")
    delta = None
    if refine:
        coarse = grid.halved()
        hc, keepc = _hamiltonian_3d(spec, coarse)
        hcs = hc if keepc is None else hc[keepc][:, keepc]
        cvals, _ = _eigsh_deterministic(hcs, k, mode="lanczos")
        delta = np.abs(vals - cvals)
    return OracleResult(eigenvalues=vals, convergence_delta=delta,
                        wall_time=time.perf_counter() - t0)


def apply_hamiltonian(spec: ModelSpec, psi: WaveFunctionGrid) -> WaveFunctionGrid:
    """H psi with the same stencil the 3D diagonalization uses.

    Masked models apply P H P with P the projector off the coincidence
    planes, which is exactly the operator whose submatrix is
    diagonalized.
    """
    if len(psi.axes) != 3:
        raise GridMismatch("apply_hamiltonian expects a 3D wavefunction")
    a = psi.axes[0]
    if any(ax != a for ax in psi.axes):
        raise GridMismatch("3D grids must be cubic with identical axes")
    h, keep = _hamiltonian_3d(spec, a)
    flat = psi.values.ravel().copy()
    if keep is not None:
        mask = np.ones(flat.size, dtype=bool)
        mask[keep] = False
        flat[mask] = 0.0
    out = h @ flat
    if keep is not None:
        out[mask] = 0.0
    return WaveFunctionGrid(psi.axes, out.reshape(psi.values.shape))
