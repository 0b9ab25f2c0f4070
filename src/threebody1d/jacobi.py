"""Jacobi coordinates and the geometric action of permutations and parities.

The transform is orthogonal with determinant +1:

    q1 = (x1 + x2 + x3) / sqrt(3)
    q2 = (x1 - x2) / sqrt(2)
    q3 = (x1 + x2 - 2 x3) / sqrt(6)

The cylindrical view uses rho^2 = q2^2 + q3^2 and phi = atan2(q3, q2)
reduced to [0, 2pi).  Note this makes sum over pairs (xi - xj)^2 equal
3 rho^2, so rho is 1/sqrt(3) of the Euclidean distance version that
appears in some displays; only this normalization keeps the relative
potential coefficients coherent with the rectangular form.
"""

from __future__ import annotations

import math

import numpy as np

JACOBI_MATRIX = np.array([
    [1 / math.sqrt(3), 1 / math.sqrt(3), 1 / math.sqrt(3)],
    [1 / math.sqrt(2), -1 / math.sqrt(2), 0.0],
    [1 / math.sqrt(6), 1 / math.sqrt(6), -2 / math.sqrt(6)],
])

# Permutations in destination notation: perm (2,3,1) sends particle 1 to
# slot 2, particle 2 to slot 3, particle 3 to slot 1.  This matches the
# geometric statements used throughout: (2,1,3) reflects across x1=x2 and
# maps phi -> pi - phi, while the 3-cycle (2,3,1) rotates phi by +2pi/3.
# The same tuple orders the six ordering sectors: sector (i, j, k) is the
# region x_i > x_j > x_k (``solvable.SECTOR_ORDER``).
PERMUTATIONS = (
    (1, 2, 3),
    (1, 3, 2),
    (2, 1, 3),
    (2, 3, 1),
    (3, 1, 2),
    (3, 2, 1),
)


def perm_compose(p, q):
    """(p o q)(a) = p(q(a))."""
    return tuple(p[q[a] - 1] for a in range(3))


def perm_sign(p) -> int:
    s = 1
    for i in range(3):
        for j in range(i + 1, 3):
            if p[i] > p[j]:
                s = -s
    return s


def perm_matrix(p) -> np.ndarray:
    """3x3 orthogonal matrix with (M x)_b = x_{p^-1(b)}."""
    m = np.zeros((3, 3))
    for a in range(3):
        m[p[a] - 1, a] = 1.0
    return m


def to_jacobi(x) -> np.ndarray:
    """Particle coordinates (..., 3) -> Jacobi rectangular (..., 3)."""
    x = np.asarray(x, dtype=float)
    return x @ JACOBI_MATRIX.T


def from_jacobi(q) -> np.ndarray:
    """Exact inverse of :func:`to_jacobi` (orthogonal transpose)."""
    q = np.asarray(q, dtype=float)
    return q @ JACOBI_MATRIX


def to_cylindrical(q):
    """(q1, q2, q3) -> (q1, rho, phi) with phi in [0, 2pi)."""
    q = np.asarray(q, dtype=float)
    rho = np.hypot(q[..., 1], q[..., 2])
    phi = np.mod(np.arctan2(q[..., 2], q[..., 1]), 2 * np.pi)
    return q[..., 0], rho, phi


def from_cylindrical(q1, rho, phi) -> np.ndarray:
    return np.stack(
        [np.asarray(q1, dtype=float),
         rho * np.cos(phi),
         rho * np.sin(phi)], axis=-1)


# phi image of each permutation: (s, c) represents phi -> s*phi + c.
_PHI_RULES = {
    (1, 2, 3): (1, 0.0),
    (2, 1, 3): (-1, math.pi),
    (1, 3, 2): (-1, math.pi / 3),
    (3, 2, 1): (-1, 5 * math.pi / 3),
    (2, 3, 1): (1, 2 * math.pi / 3),
    (3, 1, 2): (1, -2 * math.pi / 3),
}


def permutation_action(perm, coords):
    """Apply a permutation in either coordinate view.

    ``coords`` is a length-3 particle vector (x1, x2, x3) or a
    cylindrical triple (q1, rho, phi); the two paths agree through
    :func:`to_jacobi`.
    """
    perm = tuple(perm)
    if perm not in _PHI_RULES:
        raise ValueError(f"not a permutation of (1, 2, 3): {perm!r}")
    if isinstance(coords, tuple) and len(coords) == 3 and np.isscalar(coords[1]):
        q1, rho, phi = coords
        s, c = _PHI_RULES[perm]
        return (q1, rho, float(np.mod(s * phi + c, 2 * np.pi)))
    x = np.asarray(coords, dtype=float)
    return perm_matrix(perm) @ x


def parity_action(kind, coords):
    """Total, relative or center-of-mass inversion on (q1, rho, phi).

    total:    (q1, rho, phi) -> (-q1, rho, phi + pi)
    relative: (q1, rho, phi) -> ( q1, rho, phi + pi)
    com:      (q1, rho, phi) -> (-q1, rho, phi)
    """
    q1, rho, phi = coords
    if kind == "total":
        return (-q1, rho, float(np.mod(phi + np.pi, 2 * np.pi)))
    if kind == "relative":
        return (q1, rho, float(np.mod(phi + np.pi, 2 * np.pi)))
    if kind == "com":
        return (-q1, rho, float(np.mod(phi, 2 * np.pi)))
    raise ValueError(f"unknown parity kind {kind!r}")


def parity_matrix(kind) -> np.ndarray:
    """The corresponding orthogonal matrix on particle coordinates."""
    if kind == "total":
        return -np.eye(3)
    blocks = {
        "relative": np.diag([1.0, -1.0, -1.0]),
        "com": np.diag([-1.0, 1.0, 1.0]),
    }
    if kind not in blocks:
        raise ValueError(f"unknown parity kind {kind!r}")
    # relative / com act diagonally in the Jacobi frame
    return JACOBI_MATRIX.T @ blocks[kind] @ JACOBI_MATRIX


def p3_matrices() -> dict:
    """The six 3x3 matrices realizing particle permutations."""
    return {p: perm_matrix(p) for p in PERMUTATIONS}


def p3_relative_blocks() -> dict:
    """2x2 orthogonal action of each permutation on the (q2, q3) plane.

    Conjugating each permutation matrix into the Jacobi frame block
    diagonalizes it as 1 (+) 2x2; the 2x2 blocks realize the mixed
    two-dimensional representation geometrically.
    """
    out = {}
    for p, m in p3_matrices().items():
        mj = JACOBI_MATRIX @ m @ JACOBI_MATRIX.T
        out[p] = mj[1:, 1:].copy()
    return out
