"""Independent grid-diagonalization ground truth.

Two solver families cover the in-scope models:

* Cartesian finite differences (4th order) for smooth potentials, used
  for the 2D relative problem of harmonically trapped models and the
  full 3D problem at desk scale.
* A polar-grid solve of the relative problem for the singular models
  (inverse-square and unitary contact), where the coincidence lines
  phi = pi/6 + k*pi/3 are grid-aligned and enforced as Dirichlet walls.
  The substitution u = sqrt(rho) psi keeps the matrix symmetric.

Both 2D operators separate exactly and are diagonalized by the banded
1D solver of ``onebody``: the Cartesian one is A (+) A for one 1D
operator A, and the polar one splits into one radial tridiagonal per
angular channel (Lynch, Rice & Thomas 1964).

The full 3D operator is diagonalized in S3 symmetry blocks, never on
the whole n^3 cube.  For the singular models the removed coincidence
planes decouple the six ordering sectors exactly, so the i < j < k
sector alone is solved and each of its levels counts six times.  The
smooth models are restricted to orthonormal bases built from orbits of
grid-index triples: the [3] and [1^3] blocks and one row of the [21]
irrep, whose levels count twice.

The 3D blocks are solved by ARPACK Lanczos from a fixed start vector,
so repeated runs are bit-identical.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import lru_cache

import numpy as np
import scipy.sparse as sp
import scipy.sparse.linalg as spla

from .errors import (
    ResourceBudgetExceeded,
    SingularPotentialUnresolved,
    UnsupportedTrap,
)
from .grids import Grid1D, PolarGrid
from .models import ModelSpec
from .onebody import (_band_eigenvectors, _check_box_edges, _solve_banded,
                      kinetic_fd_1d)

# Prefactor of the Calogero-Moser angular barrier: the three pair terms
# gamma/(x_i - x_j)^2 sum to (9/2) gamma / (rho^2 cos^2(3 phi)).
CM_ANGULAR_PREFACTOR = 4.5


@dataclass(frozen=True)
class OracleResult:
    """Lowest eigenvalues of a grid solve, ascending.

    ``convergence_delta`` is |E - E_halved| per eigenvalue when the
    solve was refined, else None.
    """

    eigenvalues: np.ndarray
    convergence_delta: np.ndarray | None


def _eigsh_deterministic(h, k):
    """Lowest k eigenpairs of a 3D block, deterministically.

    Plain Lanczos: 3D operators fill in catastrophically under sparse
    LU, so shift-invert does not pay.  The start vector is fixed but
    unstructured: a structured one can be near-orthogonal to members
    of a degenerate multiplet and lose copies.
    """
    n = h.shape[0]
    v0 = np.random.default_rng(2024).standard_normal(n)
    # solve with slack so degenerate multiplets (up to 6-fold here) are
    # not truncated mid-cluster, then return the lowest k
    ks = min(k + 6, n - 1)
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


def _cartesian_relative_levels(spec: ModelSpec, grid: Grid1D, k: int):
    """Lowest k levels of A (+) A, the pairwise sums of the lowest k levels
    of A = T + c x^2, and the ground state of A as a column."""
    x = grid.points()
    v = relative_potential_smooth(spec)(x, 0.0)
    a, bands = _solve_banded(x, v, min(k, grid.n) - 1, 4, spec.mass, spec.hbar)
    levels = np.sort((a[:, None] + a[None, :]).ravel())[:k]
    return levels, _band_eigenvectors(bands, a[:1])


def _polar_relative_levels(spec: ModelSpec, grid: PolarGrid, k: int):
    """Lowest k levels of (T_rho + U) (x) I + diag(1/rho^2) (x) (T_phi + W).

    Each eigenvalue mu of T_phi + W leaves the radial tridiagonal
    T_rho + U + mu/rho^2, whose l-th level grows with mu, so the lowest
    k levels lie among the lowest k levels of the lowest k channels.
    """
    omega = _require_relative_frame(spec)
    m, hbar = spec.mass, spec.hbar
    rho, phi = grid.rho_points(), grid.phi_points()
    kind = spec.interaction.kind
    if kind == "inverse_square":
        w = (CM_ANGULAR_PREFACTOR * spec.interaction.gamma
             / np.cos(3 * phi) ** 2)
    elif kind == "contact" and spec.interaction.unitary:
        w = np.zeros_like(phi)
    else:
        raise ValueError(f"polar solver does not handle interaction {kind!r}")
    mu, _ = _solve_banded(phi, w, min(k, grid.n_phi) - 1, 2, m, hbar)
    # the metric term of the substitution is -hbar^2 / (8 m rho^2)
    u = 0.5 * m * omega**2 * rho**2 - (hbar**2 / (8 * m)) / rho**2
    channels = [_solve_banded(rho, u + mu_j / rho**2, min(k, grid.n_rho) - 1,
                              2, m, hbar)[0] for mu_j in mu]
    return np.sort(np.concatenate(channels))[:k], None


def relative_spectrum_2d(spec: ModelSpec, grid=None, k: int = 8, *,
                         refine: bool = False) -> OracleResult:
    """Lowest k eigenvalues of the relative two-degree-of-freedom problem.

    Smooth interactions (none, harmonic) are solved on a Cartesian
    (q2, q3) grid, whose ground state must have decayed at the box edge
    (else BoxTooSmall); the singular ones (inverse-square, unitary
    contact) on a polar grid restricted to one ordering sector.  Both
    operators separate and are diagonalized exactly by banded 1D solves.
    ``refine`` re-solves at half resolution and attaches the per-level
    delta; for the singular models a delta above 1e-3 relative raises
    SingularPotentialUnresolved.
    """
    if grid is None:
        grid = default_relative_grid(spec)
    singular = isinstance(grid, PolarGrid)
    levels = _polar_relative_levels if singular else _cartesian_relative_levels
    vals, ground = levels(spec, grid, k)
    if not singular:
        # the 2D ground state is v0 (x) v0, with the edge ratio of v0
        _check_box_edges(grid, ground)

    delta = None
    if refine:
        cvals, _ = levels(spec, grid.halved(), k)
        delta = np.abs(vals - cvals)
        if singular and np.any(delta / np.abs(vals) > 1e-3):
            raise SingularPotentialUnresolved(
                f"grid-halving instability {np.max(delta / np.abs(vals)):.2e} "
                "relative; refine the polar grid")
    return OracleResult(eigenvalues=vals, convergence_delta=delta)


# ---------------------------------------------------------------------------
# full 3D problem
# ---------------------------------------------------------------------------

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
                term[~np.isfinite(term)] = 0.0  # no block reaches masked points
                v += term
    elif kind == "contact":
        if not spec.interaction.unitary:
            raise ValueError("the 3D solver handles contact only in the "
                             "unitary limit: finite gamma has no grid form "
                             "with a controlled continuum limit")
        masked = True
    return v, masked


def _cube_hamiltonian(spec: ModelSpec, grid: Grid1D):
    """Sparse H on the whole n^3 cube, and whether the model is masked.

    A masked model's coincidence points are not removed here: its blocks
    never reach them (see ``_hamiltonian_3d``).
    """
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
    return h.tocsr(), masked


def _flat(n, a, b, c):
    return (a * n + b) * n + c


def _ordered_triples(n):
    """Index arrays (a, b, c) of every grid triple with a < b < c."""
    i = np.arange(n)
    a, b, c = np.meshgrid(i, i, i, indexing="ij")
    keep = (a < b) & (b < c)
    return a[keep], b[keep], c[keep]


def _orbit_basis(n, orbits, coeffs):
    """Sparse (n^3, m) matrix, one column per orbit, weights ``coeffs``.

    ``orbits`` lists the flat indices of the orbits' members, one array
    of length m per member; member j of every orbit has weight coeffs[j].
    """
    m = len(orbits[0])
    j = np.flatnonzero(coeffs)
    rows = np.concatenate([orbits[jj] for jj in j])
    cols = np.tile(np.arange(m), len(j))
    return sp.csc_matrix((np.repeat(coeffs[j], m), (rows, cols)),
                         shape=(n**3, m))


@lru_cache(maxsize=4)
def _irrep_bases(n: int):
    """Orthonormal bases of the S3 blocks of the n^3 grid, as sparse columns.

    Returns (b3, b111, b21): b3 the normalized orbit sums ([3]); b111
    the signed orbit sums over distinct triples ([1^3]); b21 one row of
    the [21] irrep, the (12)-even vectors of each orbit orthogonal to
    its orbit sum: two per distinct orbit, one per orbit with two equal
    indices.  They depend on n alone, not on the model.
    """
    a, b, c = _ordered_triples(n)
    # members paired by (12): abc|bac, acb|cab, bca|cba
    six = [_flat(n, *t) for t in ((a, b, c), (b, a, c), (a, c, b),
                                  (c, a, b), (b, c, a), (c, b, a))]
    i = np.arange(n)
    p, q = np.meshgrid(i, i, indexing="ij")
    p, q = p[p != q], q[p != q]
    three = [_flat(n, p, p, q), _flat(n, p, q, p), _flat(n, q, p, p)]

    def basis(*parts):
        return sp.hstack([_orbit_basis(n, orbits, np.divide(w, math.hypot(*w)))
                          for orbits, w in parts]).tocsc()

    b3 = basis((six, [1] * 6), (three, [1] * 3), ([_flat(n, i, i, i)], [1]))
    b111 = basis((six, [1, -1, -1, 1, 1, -1]))
    b21 = basis((six, [2, 2, -1, -1, -1, -1]), (six, [0, 0, -1, -1, 1, 1]),
                (three, [2, -1, -1]))
    return b3, b111, b21


# 2 covers all reuse: refine's two grids
@lru_cache(maxsize=2)
def _hamiltonian_3d(spec: ModelSpec, grid: Grid1D):
    """The S3 blocks of the 3D Hamiltonian: ((block, copies), ...).

    A masked model is six identical copies of its i < j < k sector
    block.  A smooth one splits into [3], [1^3] and [21] blocks; each
    [21] level appears twice in the full spectrum.
    """
    h, masked = _cube_hamiltonian(spec, grid)
    if masked:
        sector = _flat(grid.n, *_ordered_triples(grid.n))
        return ((h[sector][:, sector], 6),)
    b3, b111, b21 = _irrep_bases(grid.n)
    return tuple(((b.T @ h @ b).tocsr(), copies)
                 for b, copies in ((b3, 1), (b111, 1), (b21, 2)))


def _block_spectrum(blocks, k):
    """Lowest k levels of the union of the block spectra, with copies."""
    vals = [np.repeat(_eigsh_deterministic(h, -(-k // copies))[0], copies)
            for h, copies in blocks]
    return np.sort(np.concatenate(vals))[:k]


def full_spectrum_3d(spec: ModelSpec, grid: Grid1D, k: int = 4, *,
                     refine: bool = False) -> OracleResult:
    """Lowest k eigenvalues of the full three-particle discretization.

    The grid is cubic with identical axes so that particle permutations
    are exact grid symmetries, and H is diagonalized in S3 blocks.
    Singular interactions remove the coincidence planes as interior hard
    walls and drop to the 3-point stencil, whose radius-1 neighborhoods
    never cross a removed plane: the six ordering sectors decouple
    exactly, so only the i < j < k sector is solved and each of its
    levels is reported six times.  Smooth interactions are solved in
    the [3], [1^3] and [21] blocks, each [21] level reported twice.
    Finite-gamma contact raises ValueError.
    """
    if grid.n > 128:
        raise ResourceBudgetExceeded(f"n per axis {grid.n} > 128")
    if k > 20:
        raise ResourceBudgetExceeded(f"k = {k} > 20")
    vals = _block_spectrum(_hamiltonian_3d(spec, grid), k)
    delta = None
    if refine:
        cvals = _block_spectrum(_hamiltonian_3d(spec, grid.halved()), k)
        delta = np.abs(vals - cvals)
    return OracleResult(eigenvalues=vals, convergence_delta=delta)
