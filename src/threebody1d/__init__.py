"""Spectra, symmetries and entanglement structures of three particles in 1D."""

from time import perf_counter as _perf_counter

_import_start = _perf_counter()

__version__ = "0.1.0"

from .models import (
    ContactInteraction,
    HarmonicInteraction,
    HarmonicTrap,
    InfiniteWell,
    InverseSquareInteraction,
    ModelSpec,
    NoInteraction,
    NoTrap,
    QuadraticTrap,
    TabulatedTrap,
    UnitsConvention,
    classify_separability,
    classify_symmetry_group,
    load_config,
    parse_config,
    validate_model,
)
from .grids import Grid1D, PolarGrid
from .onebody import OneBodySpectrum, analytic_spectrum, grid_spectrum_1d
from .jacobi import from_jacobi, parity_action, permutation_action, to_jacobi
from .composition import compose_spectrum, detect_accidental
from .solvable import (
    calogero_moser_spectrum,
    girardeau_wavefunction,
    harm_harm_spectrum,
    unitary_contact_spectrum,
)
from .symmetry import (
    build_group,
    decompose_eigenspace,
    irrep_towers,
)

# seconds this file took to import the package; manifest.json records it
_import_s = _perf_counter() - _import_start
