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

The full 3D operator is never diagonalized on the whole n^3 cube.  Two
models separate exactly on it and take one banded 1D solve of
A = T + V(x) on the axis:

* noninteracting: the cube operator is A (+) A (+) A, whose levels are
  the sums e_a + e_b + e_c of the levels of A;
* unitary contact: the coincidence planes are removed and the 3-point
  stencil never crosses one, so the six ordering sectors decouple and
  the i < j < k sector block is the fermionic [1^3] block of
  A (+) A (+) A.  Its levels are the sums over a < b < c, each counted
  six times (the Bose-Fermi mapping, Girardeau 1960).

The others are diagonalized in S3 symmetry blocks by ARPACK Lanczos
from a fixed start vector, so repeated runs are bit-identical.
Inverse-square keeps the sector block of unitary contact.  Harm-harm is
restricted to orthonormal bases built from orbits of grid-index
triples: the [3] and [1^3] blocks and one row of the [21] irrep, whose
levels count twice.  Each block's kinetic part is built once per grid
and the S3-invariant potential adds only its diagonal.  Lanczos asks
each block for exactly the ceil(k / copies) levels it must supply: the
copies come from the irrep, and what symmetry the block keeps (global
parity) has 1-dimensional irreps, so it forces no degeneracy.  For
harm-harm, a min-max bound from the noninteracting levels skips the
[1^3] solve when that block cannot reach the lowest k.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import lru_cache
from itertools import combinations

import numpy as np
import scipy.sparse as sp
import scipy.sparse.linalg as spla

from .errors import ResourceBudgetExceeded, TooFewPoints, UnsupportedTrap
from .grids import Grid1D, PolarGrid
from .models import ModelSpec
from .onebody import (_band_eigenvectors, _check_box_edges, _solve_banded,
                      kinetic_fd_1d)

# Prefactor of the Calogero-Moser angular barrier: the three pair terms
# gamma/(x_i - x_j)^2 sum to (9/2) gamma / (rho^2 cos^2(3 phi)).
CM_ANGULAR_PREFACTOR = 4.5


@dataclass(frozen=True)
class OracleResult:
    """Lowest eigenvalues of a grid solve, ascending."""

    eigenvalues: np.ndarray


def _eigsh_deterministic(h, k):
    """Lowest k eigenvalues of one S3 block, ascending, deterministically.

    Plain Lanczos: 3D operators fill in catastrophically under sparse
    LU, so shift-invert does not pay.  The start vector is fixed but
    unstructured (a parity-even one misses every parity-odd level).  No
    slack beyond k: no symmetry forces a degeneracy within one block.
    """
    n = h.shape[0]
    v0 = np.random.default_rng(2024).standard_normal(n)
    return np.sort(spla.eigsh(h.tocsr(), k=k, which="SA", v0=v0,
                              maxiter=50 * n, tol=1e-10,
                              return_eigenvectors=False))


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


def relative_spectrum_2d(spec: ModelSpec, grid=None,
                         k: int = 8) -> OracleResult:
    """Lowest k eigenvalues of the relative two-degree-of-freedom problem.

    Smooth interactions (none, harmonic) are solved on a Cartesian
    (q2, q3) grid, whose ground state must have decayed at the box edge
    (else BoxTooSmall); the singular ones (inverse-square, unitary
    contact) on a polar grid restricted to one ordering sector.  Both
    operators separate and are diagonalized exactly by banded 1D solves.
    Exactly k levels are returned: k < 1 raises ValueError, a grid of
    fewer than k points TooFewPoints.
    """
    if k < 1:
        raise ValueError(f"k = {k} < 1")
    if grid is None:
        grid = default_relative_grid(spec)
    singular = isinstance(grid, PolarGrid)
    if (points := grid.n_rho * grid.n_phi if singular else grid.n**2) < k:
        raise TooFewPoints(f"{points} grid points are too few for k = {k}")
    levels = _polar_relative_levels if singular else _cartesian_relative_levels
    vals, ground = levels(spec, grid, k)
    if not singular:
        # the 2D ground state is v0 (x) v0, with the edge ratio of v0
        _check_box_edges(grid, ground)
    return OracleResult(eigenvalues=vals)


# ---------------------------------------------------------------------------
# full 3D problem
# ---------------------------------------------------------------------------

def _flat(n, a, b, c):
    return (a * n + b) * n + c


def _ordered_triples(n):
    """(3, C(n, 3)) index array (a, b, c) of the triples a < b < c, in order."""
    return np.array(list(combinations(range(n), 3)), dtype=int).reshape(-1, 3).T


def _orbit_basis(n, orbits, coeffs):
    """Sparse (n^3, m) matrix, one column per orbit, weights ``coeffs``.

    ``orbits`` lists the members' index triples (a, b, c), each a length-m
    array; member j of every orbit has weight coeffs[j].
    """
    m = len(orbits[0][0])
    j = np.flatnonzero(coeffs)
    rows = np.concatenate([_flat(n, *orbits[jj]) for jj in j])
    cols = np.tile(np.arange(m), len(j))
    return sp.csc_matrix((np.repeat(coeffs[j], m), (rows, cols)),
                         shape=(n**3, m))


def _irrep_bases(n: int):
    """Orthonormal bases of the S3 blocks of the n^3 grid, as sparse columns.

    Returns ((b3, t3), (b111, t111), (b21, t21)), each t (3, m) holding a
    member of each column's orbit: b3 the normalized orbit sums ([3]);
    b111 the signed orbit sums over distinct triples ([1^3]); b21 one row
    of the [21] irrep, the (12)-even vectors of each orbit orthogonal to
    its orbit sum: two per distinct orbit, one per orbit with two equal
    indices.
    """
    a, b, c = _ordered_triples(n)
    # members paired by (12): abc|bac, acb|cab, bca|cba
    six = [(a, b, c), (b, a, c), (a, c, b), (c, a, b), (b, c, a), (c, b, a)]
    i = np.arange(n)
    p, q = np.meshgrid(i, i, indexing="ij")
    p, q = p[p != q], q[p != q]
    three = [(p, p, q), (p, q, p), (q, p, p)]

    def basis(*parts):
        b = sp.hstack([_orbit_basis(n, orbits, np.divide(w, math.hypot(*w)))
                       for orbits, w in parts]).tocsc()
        return b, np.hstack([orbits[0] for orbits, _ in parts])

    return (basis((six, [1] * 6), (three, [1] * 3), ([(i, i, i)], [1])),
            basis((six, [1, -1, -1, 1, 1, -1])),
            basis((six, [2, 2, -1, -1, -1, -1]), (six, [0, 0, -1, -1, 1, 1]),
                  (three, [2, -1, -1])))


@lru_cache(maxsize=2)
def _kinetic_blocks(n, dx, mass, hbar, masked):
    """((K, t, copies), ...): T (+) T (+) T on each S3 block, t as in
    ``_irrep_bases``.  Masked: the i < j < k sector of the 3-point
    stencil.  Smooth: the 5-point stencil on [3], [1^3] and [21].  The
    model does not enter, so one build serves every coupling on a grid."""
    t1 = kinetic_fd_1d(n, dx, order=2 if masked else 4, mass=mass, hbar=hbar)
    cube = sp.kronsum(t1, sp.kronsum(t1, t1), format="csr")
    if masked:
        sector = _ordered_triples(n)
        flat = _flat(n, *sector)
        return ((cube[flat][:, flat], sector, 6),)
    return tuple(((b.T @ cube @ b).tocsr(), t, copies)
                 for (b, t), copies in zip(_irrep_bases(n), (1, 1, 2)))


def _potential_3d(spec: ModelSpec, x1, x2, x3):
    """V at (x1, x2, x3), elementwise; the inverse-square term is only
    evaluated on the sector's distinct triples, where it is finite."""
    v = sum(spec.trap.potential(xi, mass=spec.mass) for xi in (x1, x2, x3))
    kind, pairs = spec.interaction.kind, (x1 - x2, x2 - x3, x3 - x1)
    if kind == "harmonic":
        v = v + spec.interaction.gamma * sum(d**2 for d in pairs)
    elif kind == "inverse_square":
        v = v + sum(spec.interaction.gamma / d**2 for d in pairs)
    return v


def _hamiltonian_3d(spec: ModelSpec, grid: Grid1D):
    """The S3 blocks of the 3D Hamiltonian, ((block, copies), ...): six
    copies of the i < j < k sector if masked, else [3], [1^3] and [21]
    (two copies).  V is S3-invariant and each column lives on one orbit,
    so B^T V B is V on the orbits, added to the cached kinetic block."""
    x = grid.points()
    masked = spec.interaction.kind not in ("none", "harmonic")
    blocks = _kinetic_blocks(grid.n, grid.dx, spec.mass, spec.hbar, masked)
    return tuple((kin + sp.diags(_potential_3d(spec, *x[t])), copies)
                 for kin, t, copies in blocks)


def _block_spectrum(spec: ModelSpec, grid: Grid1D, k: int):
    """Lowest k levels of the union of the block spectra, with copies.

    Harm-harm with gamma >= 0 is H0 + W, H0 noninteracting and W >= 0
    diagonal, so by min-max each level of a block of H is at least that
    level of the same block of H0.  [1^3] is solved last, and only for
    its H0 levels (``_fermion_sums``) at or below the k-th level so far.
    """
    blocks = list(_hamiltonian_3d(spec, grid))
    bound = spec.interaction.kind == "harmonic" and spec.interaction.gamma >= 0
    if bound:
        blocks.append(blocks.pop(1))
    vals = np.empty(0)
    for j, (h, copies) in enumerate(blocks):
        need = -(-k // copies)
        if bound and j == 2:
            need = np.count_nonzero(_fermion_sums(spec, grid, k, 4) <= vals[-1])
        if need:
            new = np.repeat(_eigsh_deterministic(h, need), copies)
            vals = np.sort(np.r_[vals, new])[:k]
    return vals


def _separable(spec: ModelSpec) -> bool:
    """Whether the cube operator is built from one 1D operator alone."""
    kind = spec.interaction.kind
    return kind == "none" or (kind == "contact" and spec.interaction.unitary)


def _axis_levels(spec: ModelSpec, grid: Grid1D, count: int, order: int):
    """Lowest min(n, count) levels of A = T + V(x) on the axis."""
    x = grid.points()
    return _solve_banded(x, spec.trap.potential(x, mass=spec.mass),
                         min(grid.n, count) - 1, order, spec.mass, spec.hbar)[0]


def _fermion_sums(spec: ModelSpec, grid: Grid1D, m: int, order: int):
    """Lowest m sums e_a + e_b + e_c over a < b < c of the levels e of A:
    the [1^3] levels of A (+) A (+) A.  They lie among the lowest m + 2
    levels of A; a grid with fewer triples gives fewer sums."""
    e = _axis_levels(spec, grid, m + 2, order)
    return np.sort(e[_ordered_triples(len(e))].sum(axis=0))[:m]


def _separable_spectrum(spec: ModelSpec, grid: Grid1D, k: int):
    """Lowest k levels from the levels e of A = T + V(x) on the axis:
    noninteracting, every e_a + e_b + e_c from the lowest min(n, k)
    levels; unitary contact, the lowest ceil(k/6) sums over a < b < c,
    each repeated six times."""
    if spec.interaction.kind == "none":
        e = _axis_levels(spec, grid, k, 4)
        return np.sort((e[:, None, None] + e[:, None] + e).ravel())[:k]
    return np.repeat(_fermion_sums(spec, grid, -(-k // 6), 2), 6)[:k]


def _check_blocks(spec: ModelSpec, n: int, k: int):
    """Raise TooFewPoints unless each block of the n-point cube holds the
    levels it must supply to the lowest k: ceil(k / copies) of them, and
    one state more for ARPACK, which returns at most dim - 1."""
    if n < 2:
        raise TooFewPoints(f"n = {n} points per axis; the stencil needs 2")
    sector = math.comb(n, 3)
    blocks = {"none": ((n**3, 1),),
              "harmonic": ((math.comb(n + 2, 3), 1), (sector, 1),
                           (2 * sector + n * (n - 1), 2))
              }.get(spec.interaction.kind, ((sector, 6),))
    spare = 0 if _separable(spec) else 1
    for states, copies in blocks:
        need = -(-k // copies)
        if states - spare < need:
            raise TooFewPoints(
                f"n = {n} points per axis: a block of {states} states is "
                f"too small for the {need} levels k = {k} needs from it")


def full_spectrum_3d(spec: ModelSpec, grid: Grid1D,
                     k: int = 4) -> OracleResult:
    """Lowest k eigenvalues of the full three-particle discretization.

    The grid is cubic with identical axes so that particle permutations
    are exact grid symmetries.  Singular interactions remove the
    coincidence planes as interior hard walls and drop to the 3-point
    stencil, whose radius-1 neighborhoods never cross a removed plane:
    the six ordering sectors decouple exactly, so only the i < j < k
    sector is solved and each of its levels is reported six times.
    Smooth interactions keep the 5-point stencil.

    Noninteracting and unitary contact take one banded 1D solve of the
    axis operator A = T + V(x).  The unitary sector block is the [1^3]
    block of A (+) A (+) A with the 3-point stencil: a stencil step moves
    one particle by one point, into the sector or onto a removed point,
    where every antisymmetric state vanishes.  Harm-harm and
    inverse-square take Lanczos in S3 blocks: a kinetic block cached per
    grid plus the potential on the diagonal, and for harm-harm with
    gamma >= 0 the [1^3] block only as far as a min-max bound requires.

    Exactly k levels are returned.  k < 1 and finite-gamma contact raise
    ValueError; a grid on which some block holds too few states for the
    levels it must supply raises TooFewPoints.
    """
    if k < 1:
        raise ValueError(f"k = {k} < 1")
    if spec.interaction.kind == "contact" and not spec.interaction.unitary:
        raise ValueError("the 3D solver handles contact only in the unitary "
                         "limit: finite gamma has no controlled grid form")
    if grid.n > 128:
        raise ResourceBudgetExceeded(f"n per axis {grid.n} > 128")
    if k > 20:
        raise ResourceBudgetExceeded(f"k = {k} > 20")
    _check_blocks(spec, grid.n, k)
    solve = _separable_spectrum if _separable(spec) else _block_spectrum
    return OracleResult(eigenvalues=solve(spec, grid, k))
