"""Closed-form spectra for the three solvable interacting models.

Shipped coefficient conventions (both verified against the grid oracle
by the fit protocol below; see the README erratum notes):

* harmonic trap + harmonic interaction: the relative frequency is
  omega_rel = sqrt(omega^2 + 6*gamma/m).  The three pair terms sum to
  3*gamma*rho^2, so (1/2) m omega_rel^2 = (1/2) m omega^2 + 3 gamma.
* Calogero-Moser: the angular exponent is
  alpha = (1 + sqrt(1 + 4 m gamma / hbar^2)) / 2 and the total energy is
  E = hbar omega [eta + 2 nu + |mu| + (3/2)(2 + sqrt(1 + 4 m gamma/hbar^2))]
  with mu running over all integer multiples of 3.  In the gamma -> 0+
  limit this reproduces the fermionized ground energy (9/2) hbar omega,
  as the hard-wall picture requires.
* unitary contact: Girardeau mapping; energies are sums over strictly
  increasing triples of one-body levels, each level carrying a
  six-dimensional ordering-sector degeneracy space.
"""

from __future__ import annotations

import itertools
import json
import math
from dataclasses import dataclass

import numpy as np

from .composition import default_group_tolerance, energy_cutoff
from .errors import GridResolutionTooCoarse, TruncationRisk
from .grids import Grid1D
from .jacobi import perm_sign
from .onebody import OneBodySpectrum, _csv_text

# Ordering sectors x_i > x_j > x_k, lexicographic in (i, j, k).
SECTOR_ORDER = (
    (1, 2, 3), (1, 3, 2), (2, 1, 3), (2, 3, 1), (3, 1, 2), (3, 2, 1),
)


@dataclass(frozen=True)
class SilverLevel:
    """One level of a cylindrically separable model.

    eta labels the center-of-mass mode, nu the radial mode and mu the
    angular momentum; mu is restricted to multiples of 3 for the
    Calogero-Moser model.
    """

    eta: int
    nu: int
    mu: int
    energy: float


def relative_frequency(omega: float, gamma: float, mass: float = 1.0) -> float:
    """omega_rel = sqrt(omega^2 + 6 gamma / m) for the harmonic interaction."""
    return math.sqrt(omega**2 + 6.0 * gamma / mass)


def harm_harm_spectrum(omega: float, gamma: float, e_max: float, *,
                       mass: float = 1.0, hbar: float = 1.0):
    """Levels E = hbar*omega*(eta+1/2) + hbar*omega_rel*(2 nu + |mu| + 1).

    mu runs over all signed integers.  Levels are returned sorted by
    energy, then (eta, nu, mu).
    """
    w_rel = relative_frequency(omega, gamma, mass)
    e_com0 = 0.5 * hbar * omega
    e_rel0 = hbar * w_rel
    levels = []
    eta = 0
    while e_com0 + hbar * omega * eta + e_rel0 <= e_max + 1e-12:
        e_com = e_com0 + hbar * omega * eta
        kmax = int(math.floor((e_max - e_com - e_rel0) / (hbar * w_rel) + 1e-12))
        for kk in range(kmax + 1):
            for nu in range(kk // 2 + 1):
                amu = kk - 2 * nu
                e = e_com + hbar * w_rel * (kk + 1)
                for mu in ({0} if amu == 0 else {-amu, amu}):
                    levels.append(SilverLevel(eta, nu, mu, e))
        eta += 1
    levels.sort(key=lambda l: (l.energy, l.eta, l.nu, l.mu))
    return levels


def cm_angular_exponent(gamma: float, *, mass: float = 1.0,
                        hbar: float = 1.0) -> float:
    """alpha = (1 + sqrt(1 + 4 m gamma / hbar^2)) / 2.

    This is the exponent of the pair wavefunction |x_i - x_j|^alpha and
    simultaneously the angular exponent at the sector walls.
    """
    return 0.5 * (1.0 + math.sqrt(1.0 + 4.0 * mass * gamma / hbar**2))


def calogero_moser_spectrum(omega: float, gamma: float, e_max: float, *,
                            mass: float = 1.0, hbar: float = 1.0):
    """Calogero-Moser levels with mu over all integer multiples of 3.

    E = hbar*omega*(eta + 1/2) + hbar*omega*(2 nu + |mu| + 3 alpha + 1),
    i.e. the constant block is (3/2)(2 + sqrt(1 + 4 m gamma / hbar^2)).
    """
    if gamma <= 0:
        raise ValueError("Calogero-Moser requires gamma > 0")
    alpha = cm_angular_exponent(gamma, mass=mass, hbar=hbar)
    base = hbar * omega * (1.5 + 3 * alpha)  # eta = nu = mu = 0
    levels = []
    eta = 0
    while base + hbar * omega * eta <= e_max + 1e-12:
        rem = (e_max - base) / (hbar * omega) - eta
        for nu in range(int(rem // 2) + 1):
            jmax = int((rem - 2 * nu) // 3)
            for j in range(jmax + 1):
                e = base + hbar * omega * (eta + 2 * nu + 3 * j)
                for mu in ({0} if j == 0 else {-3 * j, 3 * j}):
                    levels.append(SilverLevel(eta, nu, mu, e))
        eta += 1
    levels.sort(key=lambda l: (l.energy, l.eta, l.nu, l.mu))
    return levels


# ---------------------------------------------------------------------------
# unitary contact limit
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class SectorState:
    """Amplitudes over the six ordering sectors on a fermionic base.

    ``base`` is the strictly increasing one-body triple (n1, n2, n3);
    ``amplitudes`` multiply the unsigned sector copies in SECTOR_ORDER,
    so a uniform pattern is the bosonic Tonks-Girardeau state and the
    sign-alternating pattern reproduces the free-fermion state.
    """

    base: tuple
    amplitudes: np.ndarray

    def __post_init__(self):
        a, b, c = self.base
        assert a < b < c, "base quantum numbers must strictly increase"
        nrm = np.linalg.norm(self.amplitudes)
        assert abs(nrm - 1.0) < 1e-10, "amplitudes must be normalized"


@dataclass(frozen=True)
class ContactLevel:
    energy: float
    base: tuple  # (n1 < n2 < n3)
    degeneracy: int  # always 6: one copy per ordering sector

    def sector_basis(self):
        """The six basis SectorStates spanning the degeneracy space."""
        eye = np.eye(6)
        return tuple(SectorState(self.base, eye[i]) for i in range(6))


def fermionic_amplitudes() -> np.ndarray:
    """Sector pattern reproducing the global free-fermion eigenfunction."""
    return np.array([perm_sign(s) for s in SECTOR_ORDER]) / math.sqrt(6.0)


def bosonic_amplitudes() -> np.ndarray:
    """Uniform pattern: the Tonks-Girardeau |det| state."""
    return np.full(6, 1.0 / math.sqrt(6.0))


def unitary_contact_spectrum(sigma1: OneBodySpectrum, e_max: float):
    """Girardeau spectrum: sums over fermionic triples n1 < n2 < n3.

    Each level is six-fold degenerate for distinguishable particles
    (one copy per ordering sector).  A level within the grouping
    tolerance of e_max (``default_group_tolerance``, as in
    ``compose_spectrum``) is kept, so triples that are degenerate in
    exact arithmetic are never split by rounding at the edge.  Raises
    TruncationRisk when the one-body spectrum is too shallow to exhaust
    the window.
    """
    eps = np.asarray(sigma1.energies, dtype=float)
    if len(eps) < 3:
        raise TruncationRisk("need at least three one-body levels")
    cut = energy_cutoff(e_max, default_group_tolerance(sigma1))
    if eps[0] + eps[1] + eps[-1] <= cut:
        raise TruncationRisk(
            f"one-body spectrum too shallow: eps0+eps1+eps_max = "
            f"{eps[0] + eps[1] + eps[-1]:.6g} does not exceed the window "
            f"edge {cut:.6g} (e_max = {e_max:.6g})")
    levels = []
    n = len(eps)
    for i in range(n - 2):
        if eps[i] + eps[i + 1] + eps[i + 2] > cut:
            break
        for j in range(i + 1, n - 1):
            if eps[i] + eps[j] + eps[j + 1] > cut:
                break
            for k in range(j + 1, n):
                e = eps[i] + eps[j] + eps[k]
                if e > cut:
                    break
                levels.append(ContactLevel(float(e), (i, j, k), 6))
    levels.sort(key=lambda l: (l.energy, l.base))
    return levels


def girardeau_wavefunction(base, amplitudes, orbitals: np.ndarray,
                           axis: Grid1D, *, check_tol: float = 1e-6):
    """Sector-patterned eigenfunction of the unitary contact model.

    ``orbitals`` holds the one-body eigenfunctions on the axis grid
    (rows indexed by quantum number, unit-normalized with the dx
    weight).  In each ordering sector the result equals
    amplitude * sqrt(6) * |Slater determinant| with the determinant's
    sector sign stripped, so it vanishes on the coincidence manifold by
    construction.  Raises GridResolutionTooCoarse when the nodal
    structure is unresolved.
    """
    from .oracle import WaveFunctionGrid  # deferred: oracle imports grids only

    n1, n2, n3 = base
    if not (n1 < n2 < n3):
        raise ValueError("base must be strictly increasing")
    amplitudes = np.asarray(amplitudes, dtype=float)
    if amplitudes.shape != (6,):
        raise ValueError("amplitudes must have shape (6,)")
    nrm = np.linalg.norm(amplitudes)
    if abs(nrm - 1.0) > 1e-10:
        amplitudes = amplitudes / nrm

    phi = [orbitals[n] for n in (n1, n2, n3)]
    x = axis.points()
    n = axis.n
    # Slater determinant via its six product terms
    det = np.zeros((n, n, n))
    for p in itertools.permutations(range(3)):
        sign = perm_sign(p)
        det += sign * (phi[p[0]][:, None, None]
                       * phi[p[1]][None, :, None]
                       * phi[p[2]][None, None, :])
    det /= math.sqrt(6.0)

    # permutation-invariant |det| carrier: strip the sector sign
    x1 = x[:, None, None]
    x2 = x[None, :, None]
    x3 = x[None, None, :]
    carrier_sign = (np.sign(x1 - x2) * np.sign(x2 - x3) * np.sign(x1 - x3))
    psi = np.zeros_like(det)
    for amp, sector in zip(amplitudes, SECTOR_ORDER):
        i, j, k = sector
        coords = (x1, x2, x3)
        mask = (coords[i - 1] > coords[j - 1]) & (coords[j - 1] > coords[k - 1])
        psi[mask] = amp * math.sqrt(6.0) * (carrier_sign * det)[mask]

    plane = (x1 == x2) | (x2 == x3) | (x1 == x3)
    peak = np.max(np.abs(psi))
    if peak == 0 or np.max(np.abs(psi[plane])) > check_tol * peak:
        raise GridResolutionTooCoarse(
            "wavefunction does not vanish on the coincidence manifold")
    wf = WaveFunctionGrid((axis, axis, axis), psi)
    return wf.normalized()


# ---------------------------------------------------------------------------
# coefficient resolution protocol
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class CoefficientFit:
    """Outcome of fitting oracle levels to a closed-form level pattern."""

    model: str
    gamma: float
    fitted: float  # omega_rel, or the angular exponent alpha
    candidates: dict  # name -> candidate value
    winner: str
    fit_residual: float  # rms misfit of the oracle levels to the pattern


# relative-level patterns: multiples of omega_rel for the 2D oscillator,
# and offsets 2 nu + 3 j above the sector ground for the wall models
_OSC2D_PATTERN = np.array([1, 2, 2, 3, 3, 3], dtype=float)
_SECTOR_OFFSETS = np.array([0, 2, 3, 4, 5, 6], dtype=float)


def fit_harm_harm_frequency(omega: float, gamma: float, *,
                            mass: float = 1.0, hbar: float = 1.0,
                            oracle_levels=None, grid=None) -> CoefficientFit:
    """Fit omega_rel to the oracle's lowest six relative levels.

    Decides between the two candidate radicals sqrt(omega^2 + 4 m gamma)
    and sqrt(omega^2 + 6 gamma / m); the second is the one derived from
    the Hamiltonian and is what the package ships.
    """
    if oracle_levels is None:
        from .models import HarmonicInteraction, HarmonicTrap, ModelSpec, NoInteraction
        from .oracle import relative_spectrum_2d

        inter = HarmonicInteraction(gamma) if gamma > 0 else NoInteraction()
        spec = ModelSpec(trap=HarmonicTrap(omega), interaction=inter,
                         mass=mass, hbar=hbar)
        oracle_levels = relative_spectrum_2d(spec, grid=grid, k=6).eigenvalues
    e = np.asarray(oracle_levels, dtype=float)[:6]
    m = _OSC2D_PATTERN
    w_fit = float(np.dot(m, e) / np.dot(m, m)) / hbar
    resid = float(np.sqrt(np.mean((e - hbar * w_fit * m) ** 2)))
    candidates = {
        "printed_4mg": math.sqrt(omega**2 + 4.0 * mass * gamma),
        "derived_6g_over_m": relative_frequency(omega, gamma, mass),
    }
    winner = min(candidates, key=lambda k: abs(candidates[k] - w_fit))
    return CoefficientFit("harm_harm", gamma, w_fit, candidates, winner, resid)


def fit_cm_exponent(omega: float, gamma: float, *, mass: float = 1.0,
                    hbar: float = 1.0, oracle_levels=None,
                    grid=None) -> CoefficientFit:
    """Fit the Calogero-Moser angular exponent from sector oracle levels.

    The sector relative spectrum is hbar*omega*(2 nu + 3 j + 3 alpha + 1);
    the lowest six levels share the offset pattern (0, 2, 3, 4, 5, 6),
    so alpha comes from the fitted additive constant.  Candidates are
    the printed radical sqrt(1 + 2 m^2 gamma) and the derived
    sqrt(1 + 4 m gamma / hbar^2).
    """
    if oracle_levels is None:
        from .models import HarmonicTrap, InverseSquareInteraction, ModelSpec
        from .oracle import relative_spectrum_2d

        spec = ModelSpec(trap=HarmonicTrap(omega),
                         interaction=InverseSquareInteraction(gamma),
                         mass=mass, hbar=hbar)
        oracle_levels = relative_spectrum_2d(spec, grid=grid, k=6).eigenvalues
    e = np.asarray(oracle_levels, dtype=float)[:6]
    const = float(np.mean(e / (hbar * omega) - _SECTOR_OFFSETS))
    alpha_fit = (const - 1.0) / 3.0
    resid = float(np.sqrt(np.mean(
        (e - hbar * omega * (_SECTOR_OFFSETS + const)) ** 2)))
    candidates = {
        "printed_2m2g": 0.5 * math.sqrt(1.0 + 2.0 * mass**2 * gamma),
        "derived_4mg": cm_angular_exponent(gamma, mass=mass, hbar=hbar),
    }
    winner = min(candidates, key=lambda k: abs(candidates[k] - alpha_fit))
    return CoefficientFit("calogero_moser", gamma, alpha_fit, candidates,
                          winner, resid)


# ---------------------------------------------------------------------------
# exports
# ---------------------------------------------------------------------------

def silver_levels_to_csv(model: str, levels) -> str:
    """Columns: model, eta, nu, mu, energy, degeneracy (within the list)."""
    groups: dict = {}
    for lv in levels:
        groups.setdefault(round(lv.energy, 9), []).append(lv)
    return _csv_text(["model", "eta", "nu", "mu", "energy", "degeneracy"], (
        [model, lv.eta, lv.nu, lv.mu, repr(lv.energy),
         len(groups[round(lv.energy, 9)])] for lv in levels))


def contact_levels_to_csv(levels) -> str:
    """Columns: model, n1, n2, n3, energy, degeneracy."""
    return _csv_text(["model", "n1", "n2", "n3", "energy", "degeneracy"], (
        ["unitary_contact", *lv.base, repr(lv.energy), lv.degeneracy]
        for lv in levels))


def sector_state_to_json(state: SectorState) -> str:
    return json.dumps({
        "base": list(state.base),
        "sector_order": [list(s) for s in SECTOR_ORDER],
        "amplitudes": [float(a) for a in state.amplitudes],
    })
