"""Closed-form spectra for the three solvable interacting models.

Shipped coefficient conventions.  Two radicals printed in the source
paper are errata: sqrt(omega^2 + 4 m gamma) for the harmonic-interaction
relative frequency and sqrt(1 + 2 m^2 gamma) in the Calogero-Moser
exponent.  The package ships the radicals derived from the Hamiltonian,
sqrt(omega^2 + 6 gamma / m) and sqrt(1 + 4 m gamma / hbar^2), and the
grid-oracle fits below (``fit_harm_harm_frequency``, ``fit_cm_exponent``)
pick the derived radical over the printed one:

* harmonic trap + harmonic interaction: the relative frequency is
  omega_rel = sqrt(omega^2 + 6*gamma/m).  The three pair terms sum to
  3*gamma*rho^2, so (1/2) m omega_rel^2 = (1/2) m omega^2 + 3 gamma.
* Calogero-Moser: the angular exponent is
  alpha = (1 + sqrt(1 + 4 m gamma / hbar^2)) / 2 and the total energy is
  E = hbar omega [eta + 2 nu + |mu| + (3/2)(2 + sqrt(1 + 4 m gamma/hbar^2))]
  with mu running over all integer multiples of 3, so the degeneracy
  column of ``spectrum`` counts one state per (eta, nu, mu), mu signed.
  In the gamma -> 0+ limit this reproduces the fermionized ground
  energy (9/2) hbar omega, as the hard-wall picture requires.
* unitary contact: Girardeau mapping; energies are sums over strictly
  increasing triples of one-body levels, each level carrying a
  six-dimensional ordering-sector degeneracy space.

Every spectrum here is cut by the package's one energy window,
``composition.window_top``, and returned as one ``LevelColumns`` record.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass

import numpy as np

from .composition import (
    GROUP_TOLERANCE,
    _column,
    _csv_text,
    _triples,
    default_group_tolerance,
    energy_cutoff,
    energy_runs,
    window_top,
)
from .errors import GridResolutionTooCoarse
from .grids import Grid1D
# ordering sector (i, j, k) is the region x_i > x_j > x_k
from .jacobi import PERMUTATIONS as SECTOR_ORDER, perm_sign
from .onebody import OneBodySpectrum


@dataclass(frozen=True, eq=False)
class LevelColumns:
    """A closed-form spectrum as columns, sorted by energy, then labels.

    Row r is the level at ``energy[r]`` with the quantum numbers
    ``labels[r]`` named by ``names``: (eta, nu, mu), the center-of-mass,
    radial and angular ones, or the unitary-contact base (n1, n2, n3).
    ``len`` is the level count; ``==`` compares every column exactly.
    """

    names: tuple
    labels: np.ndarray  # (levels, 3) ints
    energy: np.ndarray  # (levels,) floats

    def __len__(self):
        return len(self.energy)

    def __eq__(self, other):
        return (isinstance(other, LevelColumns) and self.names == other.names
                and np.array_equal(self.labels, other.labels)
                and np.array_equal(self.energy, other.energy))


def relative_frequency(omega: float, gamma: float, mass: float = 1.0) -> float:
    """omega_rel = sqrt(omega^2 + 6 gamma / m) for the harmonic interaction."""
    return math.sqrt(omega**2 + 6.0 * gamma / mass)


def _cylindrical_levels(energy, mu_step: int, e_max: float):
    """Levels of a cylindrically separable model inside the window.

    The one enumerator of both such models.  ``energy(eta, nu, amu)``
    is the model's level energy at amu = |mu|, a multiple of
    ``mu_step``, and grows in each quantum number.  It is evaluated on
    numpy index arrays over a box that holds every level a kept run
    can reach; the window is ``window_top`` at GROUP_TOLERANCE.  Returns
    the ``LevelColumns`` of (eta, nu, mu), sorted by energy, then
    (eta, nu, mu).
    """
    reach = energy_cutoff(energy_cutoff(e_max, GROUP_TOLERANCE),
                          GROUP_TOLERANCE)
    # box edges: the first value of each quantum number, the others at
    # 0, whose level is not within the reach (a NaN e_max gives no box)
    sizes = [next(n for n in itertools.count()
                  if not energy(*(n * unit)) <= reach)
             for unit in np.diag((1, 1, mu_step))]
    eta, nu, j = np.ix_(*map(np.arange, sizes))
    e = energy(eta, nu, mu_step * j)
    eta, nu, j = np.nonzero(e <= window_top(np.sort(e[e <= reach]), e_max,
                                            GROUP_TOLERANCE))
    e, amu = e[eta, nu, j], mu_step * j
    signed = amu > 0  # the -|mu| copies
    eta, nu, e = (np.concatenate([q, q[signed]]) for q in (eta, nu, e))
    mu = np.concatenate([amu, -amu[signed]])
    order = np.lexsort((mu, nu, eta, e))
    return LevelColumns(("eta", "nu", "mu"),
                        np.stack([eta, nu, mu], axis=1)[order], e[order])


def harm_harm_spectrum(omega: float, gamma: float, e_max: float, *,
                       mass: float = 1.0, hbar: float = 1.0):
    """Levels E = hbar*omega*(eta+1/2) + hbar*omega_rel*(2 nu + |mu| + 1).

    mu runs over all signed integers.  The window is the package's one
    rule (``composition.window_top`` at GROUP_TOLERANCE): a level
    within the grouping tolerance of e_max is kept, with its whole
    degenerate multiplet.  Returns the ``LevelColumns`` of (eta, nu, mu),
    sorted by energy, then (eta, nu, mu).
    """
    w_rel = relative_frequency(omega, gamma, mass)
    e_com0 = 0.5 * hbar * omega
    return _cylindrical_levels(
        lambda eta, nu, amu: (e_com0 + hbar * omega * eta
                              + hbar * w_rel * (2 * nu + amu + 1)), 1, e_max)


def cm_angular_exponent(gamma: float, *, mass: float = 1.0,
                        hbar: float = 1.0) -> float:
    """alpha = (1 + sqrt(1 + 4 m gamma / hbar^2)) / 2.

    This is the exponent of the pair wavefunction |x_i - x_j|^alpha and
    simultaneously the angular exponent at the sector walls.
    """
    return 0.5 * (1.0 + math.sqrt(1.0 + 4.0 * mass * gamma / hbar**2))


def calogero_moser_spectrum(omega: float, gamma: float, e_max: float, *,
                            mass: float = 1.0, hbar: float = 1.0):
    """Calogero-Moser levels with mu over all integer multiples of 3: one
    state per (eta, nu, mu), mu signed, is what the degeneracy column
    of ``spectrum`` counts.

    E = hbar*omega*(eta + 1/2) + hbar*omega*(2 nu + |mu| + 3 alpha + 1),
    i.e. the constant block is (3/2)(2 + sqrt(1 + 4 m gamma / hbar^2)).
    The window (``composition.window_top`` at GROUP_TOLERANCE) and the
    order are those of ``harm_harm_spectrum``.
    """
    if gamma <= 0:
        raise ValueError("Calogero-Moser requires gamma > 0")
    alpha = cm_angular_exponent(gamma, mass=mass, hbar=hbar)
    base = hbar * omega * (1.5 + 3 * alpha)  # eta = nu = mu = 0
    return _cylindrical_levels(
        lambda eta, nu, amu: base + hbar * omega * (eta + 2 * nu + amu),
        3, e_max)


# ---------------------------------------------------------------------------
# unitary contact limit
# ---------------------------------------------------------------------------

def fermionic_amplitudes() -> np.ndarray:
    """Sector pattern reproducing the global free-fermion eigenfunction."""
    return np.array([perm_sign(s) for s in SECTOR_ORDER]) / math.sqrt(6.0)


def bosonic_amplitudes() -> np.ndarray:
    """Uniform pattern: the Tonks-Girardeau |det| state."""
    return np.full(6, 1.0 / math.sqrt(6.0))


def unitary_contact_spectrum(sigma1: OneBodySpectrum, e_max: float):
    """Girardeau spectrum: sums over fermionic triples n1 < n2 < n3.

    Each level is six-fold degenerate for distinguishable particles
    (one copy per ordering sector).  The triples come from the
    enumerator of ``compose_spectrum``, with its window (the package's
    one rule, ``composition.window_top``) and its TruncationRisk check,
    so triples degenerate in exact arithmetic are never split by
    rounding at the edge.  Returns the ``LevelColumns`` of the base
    triples (n1, n2, n3), sorted by energy, then base.
    """
    e, base = _triples(sigma1, e_max, default_group_tolerance(sigma1),
                       distinct=True)
    return LevelColumns(("n1", "n2", "n3"), base, e)


def girardeau_wavefunction(base, amplitudes, orbitals: np.ndarray,
                           axis: Grid1D):
    """Sector-patterned eigenfunction of the unitary contact model.

    ``amplitudes`` weight the ordering sectors in SECTOR_ORDER on the
    base triple n1 < n2 < n3; ``orbitals`` holds the one-body
    eigenfunctions on the axis grid (rows indexed by quantum number,
    unit-normalized with the dx weight).  In each ordering sector psi
    equals amplitude * sqrt(6) * |Slater determinant| with the
    determinant's sector sign stripped, so it vanishes on the
    coincidence manifold by construction.  Returns psi on the
    ``axis``^3 cube, an (n, n, n) array with sum(psi**2) * dx**3 = 1.
    Raises GridResolutionTooCoarse when the nodal structure is
    unresolved.
    """
    n1, n2, n3 = base
    if not (n1 < n2 < n3):
        raise ValueError("base must be strictly increasing")
    amplitudes = np.asarray(amplitudes, dtype=float)
    if amplitudes.shape != (6,):
        raise ValueError("amplitudes must have shape (6,)")

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
    if peak == 0 or np.max(np.abs(psi[plane])) > 1e-6 * peak:
        raise GridResolutionTooCoarse(
            "wavefunction does not vanish on the coincidence manifold")
    return psi / math.sqrt(np.sum(psi**2) * axis.dx**3)


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
                            grid=None) -> CoefficientFit:
    """Fit omega_rel to the oracle's lowest six relative levels.

    Decides between the two candidate radicals sqrt(omega^2 + 4 m gamma)
    and sqrt(omega^2 + 6 gamma / m); the second is the one derived from
    the Hamiltonian and is what the package ships.
    """
    from .models import HarmonicInteraction, HarmonicTrap, ModelSpec, NoInteraction
    from .oracle import relative_spectrum_2d

    inter = HarmonicInteraction(gamma) if gamma > 0 else NoInteraction()
    spec = ModelSpec(trap=HarmonicTrap(omega), interaction=inter,
                     mass=mass, hbar=hbar)
    e = relative_spectrum_2d(spec, grid=grid, k=6).eigenvalues[:6]
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
                    hbar: float = 1.0, grid=None) -> CoefficientFit:
    """Fit the Calogero-Moser angular exponent from sector oracle levels.

    The sector relative spectrum is hbar*omega*(2 nu + 3 j + 3 alpha + 1);
    the lowest six levels share the offset pattern (0, 2, 3, 4, 5, 6),
    so alpha comes from the fitted additive constant.  Candidates are
    (1 + r)/2 for the printed radical r = sqrt(1 + 2 m^2 gamma) and the
    derived r = sqrt(1 + 4 m gamma / hbar^2).
    """
    from .models import HarmonicTrap, InverseSquareInteraction, ModelSpec
    from .oracle import relative_spectrum_2d

    spec = ModelSpec(trap=HarmonicTrap(omega),
                     interaction=InverseSquareInteraction(gamma),
                     mass=mass, hbar=hbar)
    e = relative_spectrum_2d(spec, grid=grid, k=6).eigenvalues[:6]
    const = float(np.mean(e / (hbar * omega) - _SECTOR_OFFSETS))
    alpha_fit = (const - 1.0) / 3.0
    resid = float(np.sqrt(np.mean(
        (e - hbar * omega * (_SECTOR_OFFSETS + const)) ** 2)))
    candidates = {
        "printed_2m2g": 0.5 * (1.0 + math.sqrt(1.0 + 2.0 * mass**2 * gamma)),
        "derived_4mg": cm_angular_exponent(gamma, mass=mass, hbar=hbar),
    }
    winner = min(candidates, key=lambda k: abs(candidates[k] - alpha_fit))
    return CoefficientFit("calogero_moser", gamma, alpha_fit, candidates,
                          winner, resid)


# ---------------------------------------------------------------------------
# exports
# ---------------------------------------------------------------------------

def _columns_csv(model: str, levels: LevelColumns, degeneracy) -> str:
    """Columns: model, the three labels, energy, degeneracy (a column, or
    one cell for every row).  Each distinct value is formatted once."""
    return _csv_text(["model", *levels.names, "energy", "degeneracy"], [
        model, *map(_column, levels.labels.T), _column(levels.energy, repr),
        degeneracy], len(levels))


def silver_levels_to_csv(model: str, levels: LevelColumns) -> str:
    """Columns: model, eta, nu, mu, energy, degeneracy.

    A level's degeneracy is the size of its degenerate run
    (``composition.energy_runs`` at GROUP_TOLERANCE) within the record.
    """
    runs = np.diff(energy_runs(levels.energy, GROUP_TOLERANCE))
    return _columns_csv(model, levels, _column(np.repeat(runs, runs)))


def contact_levels_to_csv(levels: LevelColumns) -> str:
    """Columns: model, n1, n2, n3, energy, degeneracy.

    Every level is six-fold degenerate: one copy per ordering sector.
    """
    return _columns_csv("unitary_contact", levels, "6")
