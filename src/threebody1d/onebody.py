"""One-particle 1D bound-state spectra.

Closed forms cover the harmonic trap and the infinite well; everything
else goes through a finite-difference grid diagonalization.  Smooth
confining traps use a 4th-order stencil, hard-wall boxes the plain
3-point one, whose eigenvectors on the box are exact discrete sines.
Both matrices are banded.  Eigenvalues come from the band reduction
alone (O(N^2) for N points), never from the N x N eigenvector matrix
a full solve would build.  Eigenvectors are computed by banded inverse
iteration (two O(N) band solves each), and only where they are read:
the box-edge checks and ``grid_orbitals_1d``.  The oracle's separable
2D and 3D solves reuse this banded path.

scipy is imported at the first grid solve (or ``kinetic_fd_1d`` call),
not with this module: the closed forms need numpy alone.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import BoxTooSmall, GridMismatch, TooFewPoints, UnsupportedTrap
from .grids import Grid1D
from .models import HarmonicTrap, InfiniteWell

_BANDED = ("eig_banded", "solve_banded")


def _bind_banded():
    """Bind scipy's ``eig_banded`` and ``solve_banded`` as globals of
    this module, importing scipy.linalg on the first call.  A binding
    already in place (a wrapper put there from outside) is kept."""
    g = globals()
    if all(name in g for name in _BANDED):
        return
    import scipy.linalg
    for name in _BANDED:
        g.setdefault(name, getattr(scipy.linalg, name))


def __getattr__(name):
    # PEP 562: ``onebody.eig_banded`` resolves before the first solve
    if name in _BANDED:
        _bind_banded()
        return globals()[name]
    raise AttributeError(f"module {__name__!r} has no attribute {name!r}")


@dataclass(frozen=True)
class OneBodySpectrum:
    """Ordered bound-state energies eps_0 <= eps_1 <= ...

    For the confining potentials supported here 1D bound states are
    non-degenerate, so the sequence is strictly increasing.
    """

    energies: np.ndarray
    source: str  # "analytic" | "grid"
    est_error: np.ndarray | None = None


def analytic_spectrum(trap, n_max: int, *, mass: float = 1.0,
                      hbar: float = 1.0) -> OneBodySpectrum:
    """Closed-form spectrum for the algebraically solvable traps.

    harmonic:      eps_n = hbar*omega*(n + 1/2)
    infinite well: eps_n = (n+1)^2 pi^2 hbar^2 / (2 m L^2)
    """
    n = np.arange(n_max + 1)
    if isinstance(trap, HarmonicTrap):
        e = hbar * trap.omega * (n + 0.5)
    elif isinstance(trap, InfiniteWell):
        e = (n + 1) ** 2 * math.pi**2 * hbar**2 / (2 * mass * trap.length**2)
    else:
        raise UnsupportedTrap(
            f"no closed form for trap kind {trap.kind!r}; use grid_spectrum_1d")
    return OneBodySpectrum(energies=e.astype(float), source="analytic",
                           est_error=np.zeros(n_max + 1))


def _stencil(dx: float, order: int, mass: float, hbar: float):
    """The one finite-difference table: weights (t_0, t_1, ...) of
    -(hbar^2/2m) d^2/dx^2 at ``order``, t_k on the k-th off-diagonal."""
    c = hbar**2 / (2 * mass * dx**2)
    if order == 2:
        return (2 * c, -c)
    if order == 4:
        return (30 * c / 12, -16 * c / 12, c / 12)
    raise ValueError("order must be 2 or 4")


def kinetic_fd_1d(n: int, dx: float, *, order: int = 4, mass: float = 1.0,
                  hbar: float = 1.0) -> scipy.sparse.dia_matrix:
    """-(hbar^2/2m) d^2/dx^2 with implicit Dirichlet beyond the ends.

    ``order`` 2 is the 3-point stencil, 4 the 5-point one.
    """
    import scipy.sparse as sp

    coeffs = _stencil(dx, order, mass, hbar)
    offsets = range(1 - len(coeffs), len(coeffs))
    return sp.diags([np.full(n - abs(k), coeffs[abs(k)]) for k in offsets],
                    offsets)


def _solve_banded(x, v, n_max, order, mass, hbar):
    """Lowest n_max+1 eigenvalues and the lower band form of H = T + V."""
    n = len(x)
    coeffs = _stencil(x[1] - x[0], order, mass, hbar)
    # lower band form: row k holds the k-th subdiagonal, zero past its end
    bands = np.zeros((len(coeffs), n))
    for k, t in enumerate(coeffs):
        bands[k, :n - k] = t
    bands[0] += v
    _bind_banded()
    vals = eig_banded(bands, lower=True, eigvals_only=True, select="i",
                      select_range=(0, n_max))
    return vals, bands


def _band_eigenvectors(bands, vals):
    """Unit eigenvectors, one column per eigenvalue in ``vals``, of the
    symmetric matrix whose lower band form is ``bands``.

    Inverse iteration (Peters & Wilkinson 1971): two solves with
    H - sigma for each eigenvalue, sigma moved 1e-14 of the matrix scale
    off it so the LU never meets an exact zero pivot.  Each iterate is
    orthogonalized against the vectors already found, which keeps a
    near-degenerate pair apart.  The start vector is fixed but
    unstructured: a constant one is orthogonal to every odd state of a
    symmetric trap.
    """
    p, n = bands.shape[0] - 1, bands.shape[1]
    # solve_banded's form holds the superdiagonals too: the mirrored rows
    ab = np.vstack([np.pad(bands[k, :n - k], (k, 0)) for k in range(p, 0, -1)]
                   + [bands])
    shift = 1e-14 * np.max(np.abs(bands))
    start = np.random.default_rng(2024).standard_normal(n)
    _bind_banded()
    vecs = np.empty((n, len(vals)))
    for i, lam in enumerate(vals):
        a = ab.copy()
        a[p] -= lam + shift
        v = start
        for _ in range(2):
            v = solve_banded((p, p), a, v)
            v -= vecs[:, :i] @ (vecs[:, :i].T @ v)
            v /= np.linalg.norm(v)
        vecs[:, i] = v
    return vecs


def grid_spectrum_1d(trap, grid: Grid1D, n_max: int, *, mass: float = 1.0,
                     hbar: float = 1.0) -> OneBodySpectrum:
    """Lowest n_max+1 eigenvalues of the discretized one-body problem.

    The estimated error attached to each level is the grid-halving
    delta |E(N) - E(N/2)|, a conservative bound for both stencils in
    use.  Both grids are solved for eigenvalues only, and only once the
    halved one is known to hold enough points.  Raises BoxTooSmall when
    any requested eigenfunction has not decayed at the box edges; the
    fine grid's eigenvectors are computed by inverse iteration for that
    check alone, and not at all for a hard-wall box.
    """
    _check_points(grid, n_max, 2)
    energies, bands, _ = _grid_solve(trap, grid, n_max, mass, hbar)
    half, _, _ = _grid_solve(trap, grid.halved(), n_max, mass, hbar)
    if not isinstance(trap, InfiniteWell):
        # hard walls pin the edges to zero by construction
        _check_box_edges(grid, _band_eigenvectors(bands, energies))
    return OneBodySpectrum(energies=energies, source="grid",
                           est_error=np.abs(energies - half))


def _check_box_edges(grid, vecs):
    """Raise BoxTooSmall when any column of ``vecs`` has not decayed at
    the box edges."""
    edge = np.maximum(np.abs(vecs[0]), np.abs(vecs[-1]))
    peak = np.max(np.abs(vecs), axis=0)
    worst = np.max(edge / peak)
    if worst > 1e-8:
        raise BoxTooSmall(
            f"edge amplitude {worst:.2e} of max exceeds 1e-8; "
            f"enlarge [{grid.x_min}, {grid.x_max}]")


def _check_points(grid, n_max, scale):
    """Raise TooFewPoints unless ``grid`` holds 64 * scale points and
    4 * scale per level (scale 2: its halved grid holds 64 and 4)."""
    if grid.n < 64 * scale:
        raise TooFewPoints(f"need at least {64 * scale} grid points, got {grid.n}")
    if n_max + 1 > grid.n // (4 * scale):
        raise TooFewPoints(f"n_max={n_max} too large for {grid.n} points")


def _grid_solve(trap, grid, n_max, mass, hbar):
    if isinstance(trap, InfiniteWell):
        width = grid.x_max - grid.x_min
        if abs(width - trap.length) > 1e-9 * trap.length:
            raise GridMismatch(
                f"grid spans {width}, well walls are {trap.length} apart")
        # interior points only; psi = 0 at both walls
        dx = trap.length / (grid.n + 1)
        x = grid.x_min + (np.arange(grid.n) + 1) * dx
        v = np.zeros(grid.n)
        vals, bands = _solve_banded(x, v, n_max, 2, mass, hbar)
    else:
        x = grid.points()
        v = trap.potential(x, mass=mass)
        vals, bands = _solve_banded(x, v, n_max, 4, mass, hbar)
    return vals, bands, x


def grid_orbitals_1d(trap, grid: Grid1D, n_max: int, *, mass: float = 1.0,
                     hbar: float = 1.0):
    """Eigenfunctions on the grid, unit-normalized with the dx weight.

    Returns (energies, orbitals, x) with orbitals of shape
    (n_max+1, len(x)).  The energies are those ``grid_spectrum_1d``
    reports for the same grid; the orbitals come from banded inverse
    iteration at those energies.  Raises BoxTooSmall under the same
    box-edge check.  The sign convention makes each orbital positive at
    its first appreciable point, so results are reproducible.
    """
    _check_points(grid, n_max, 1)
    vals, bands, x = _grid_solve(trap, grid, n_max, mass, hbar)
    vecs = _band_eigenvectors(bands, vals)
    if not isinstance(trap, InfiniteWell):
        _check_box_edges(grid, vecs)
    orbs = vecs.T / math.sqrt(x[1] - x[0])
    for k in range(orbs.shape[0]):
        j = np.argmax(np.abs(orbs[k]) > 1e-3 * np.max(np.abs(orbs[k])))
        if orbs[k, j] < 0:
            orbs[k] = -orbs[k]
    return vals, orbs, x

