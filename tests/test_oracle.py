import math
from math import comb

import numpy as np
import pytest
import scipy.sparse.linalg as spla
from hypothesis import given, settings
from hypothesis import strategies as st

from threebody1d import oracle
from threebody1d.errors import (
    BoxTooSmall,
    ResourceBudgetExceeded,
    SingularPotentialUnresolved,
    UnsupportedTrap,
)
from threebody1d.grids import Grid1D, PolarGrid
from threebody1d.models import (
    ContactInteraction,
    HarmonicTrap,
    InfiniteWell,
    InverseSquareInteraction,
    ModelSpec,
    NoInteraction,
)
from threebody1d.oracle import (
    _eigsh_deterministic,
    _hamiltonian_3d,
    _irrep_bases,
    full_spectrum_3d,
    relative_spectrum_2d,
)

MODELS = ("noninteracting", "harm_harm", "unitary", "calogero")
MASKED = ("unitary", "calogero")


def distinct_levels(vals, tol=1e-8):
    vals = np.sort(vals)
    return vals[np.r_[True, np.diff(vals) > tol]]


def sector_grid(n_rho, n_phi):
    """A polar grid on one ordering sector, n_rho x n_phi points."""
    return PolarGrid(7.5, n_rho, math.pi / 6, math.pi / 2, n_phi)


# a coarse polar grid on one ordering sector, 60 x 40 points
SECTOR_GRID = sector_grid(60, 40)


# each model's grid for the dense whole-spectrum test, and its fit-probe
# grid in perfbench for the sparse one
DENSE_GRIDS = {"noninteracting": Grid1D(-7.0, 7.0, 16),
               "harm_harm": Grid1D(-7.0, 7.0, 16),
               "unitary": sector_grid(20, 12), "calogero": sector_grid(20, 12)}
PROBE_GRIDS = {"noninteracting": Grid1D(-7.0, 7.0, 48),
               "harm_harm": Grid1D(-7.0, 7.0, 48),
               "unitary": SECTOR_GRID, "calogero": SECTOR_GRID}


class TestRelativeSpectrum2D:
    @pytest.mark.parametrize("model", MODELS)
    def test_separable_levels_are_the_whole_spectrum(
            self, model, request, relative_hamiltonian_2d):
        # every channel and every level kept: all eigenvalues, dense
        spec = request.getfixturevalue(f"spec_{model}")
        grid = DENSE_GRIDS[model]
        full = np.linalg.eigvalsh(relative_hamiltonian_2d(spec, grid).toarray())
        vals = relative_spectrum_2d(spec, grid, k=len(full)).eigenvalues
        np.testing.assert_allclose(vals, full, rtol=1e-10, atol=0)

    @pytest.mark.parametrize("model", MODELS)
    def test_probe_grid_levels_match_the_kronecker_operator(
            self, model, request, relative_hamiltonian_2d):
        spec = request.getfixturevalue(f"spec_{model}")
        grid = PROBE_GRIDS[model]
        h = relative_hamiltonian_2d(spec, grid).tocsc()
        v0 = np.random.default_rng(2024).standard_normal(h.shape[0])
        full = np.sort(spla.eigsh(h, k=12, sigma=0.0, which="LM", v0=v0,
                                  tol=1e-13)[0])[:6]
        vals = relative_spectrum_2d(spec, grid, k=6).eigenvalues
        np.testing.assert_allclose(vals, full, rtol=1e-10, atol=0)

    @settings(max_examples=25, deadline=None)
    @given(gamma=st.floats(0.0, 2.0), n_rho=st.integers(2, 16),
           n_phi=st.integers(2, 12), k=st.integers(1, 40))
    def test_random_polar_inputs_match_the_kronecker_operator(
            self, relative_hamiltonian_2d, gamma, n_rho, n_phi, k):
        spec = ModelSpec(HarmonicTrap(1.0), InverseSquareInteraction(gamma))
        grid = sector_grid(n_rho, n_phi)
        k = min(k, n_rho * n_phi)
        full = np.linalg.eigvalsh(relative_hamiltonian_2d(spec, grid).toarray())
        vals = relative_spectrum_2d(spec, grid, k=k).eigenvalues
        np.testing.assert_allclose(vals, full[:k], rtol=1e-10, atol=0)

    @pytest.mark.parametrize("grid", [None, Grid1D(-7.0, 7.0, 48)])
    def test_harm_harm_exchange_pairs_are_bit_equal(self, spec_harm_harm, grid):
        # levels omega_rel (1, 2, 2, 3, 3, 3): a0+a0, a0+a1 twice, a0+a2
        # twice, then 2 a1, which the grid splits from a0+a2 by its
        # discretization error, not by rounding
        vals = relative_spectrum_2d(spec_harm_harm, grid, k=6).eigenvalues
        assert vals[1] == vals[2] and vals[3] == vals[4]
        assert vals[0] < vals[1] < vals[3] < vals[5]
        np.testing.assert_allclose(vals, 2.0 * np.array([1, 2, 2, 3, 3, 3]),
                                   rtol=3e-3)

    def test_unitary_contact_sector_levels(self, spec_unitary):
        # hard walls on the sector: hbar omega (2 nu + 3 j + 4), j >= 0
        vals = relative_spectrum_2d(spec_unitary, SECTOR_GRID, k=6).eigenvalues
        np.testing.assert_allclose(vals, 4.0 + np.array([0, 2, 3, 4, 5, 6]),
                                   rtol=1e-2)

    def test_small_box_raises(self, spec_harm_harm):
        with pytest.raises(BoxTooSmall, match="edge amplitude"):
            relative_spectrum_2d(spec_harm_harm, Grid1D(-4.0, 4.0, 48))

    def test_box_edge_check_reads_the_ground_state_only(self):
        # omega = 0.8 on the default box: the ground state passes, while
        # the first excited 1D state keeps 1.7e-8 of its peak at the edge
        spec = ModelSpec(HarmonicTrap(0.8), NoInteraction())
        vals = relative_spectrum_2d(spec, k=6).eigenvalues
        np.testing.assert_allclose(vals, 0.8 * np.array([1, 2, 2, 3, 3, 3]),
                                   rtol=1e-4)

    def test_unresolved_singular_potential_raises(self, spec_calogero):
        with pytest.raises(SingularPotentialUnresolved,
                           match="grid-halving instability"):
            relative_spectrum_2d(spec_calogero, SECTOR_GRID, k=6, refine=True)

    def test_trap_without_relative_frame_raises(self):
        spec = ModelSpec(InfiniteWell(2.0), ContactInteraction(unitary=True))
        with pytest.raises(UnsupportedTrap):
            relative_spectrum_2d(spec, SECTOR_GRID)


class TestFullSpectrum3D:
    def test_harm_harm_ground_level(self, spec_harm_harm):
        # E0 = omega/2 + omega_rel with omega_rel = sqrt(1 + 6 gamma) = 2
        result = full_spectrum_3d(spec_harm_harm, Grid1D(-6.0, 6.0, 24), k=1)
        assert result.eigenvalues[0] == pytest.approx(2.5, rel=1e-2)
        assert result.convergence_delta is None

    def test_finite_contact_raises(self):
        spec = ModelSpec(HarmonicTrap(1.0), ContactInteraction(gamma=2.0))
        with pytest.raises(ValueError, match="unitary limit"):
            full_spectrum_3d(spec, Grid1D(-6.0, 6.0, 12))

    @pytest.mark.parametrize("n, k, match", [(129, 4, "n per axis 129"),
                                             (128, 21, "k = 21")],
                             ids=("n_129", "k_21"))
    def test_budget_raises_before_assembly(self, spec_harm_harm, monkeypatch,
                                           n, k, match):
        def assemble(spec, grid):
            raise AssertionError("assembled a 3D operator over budget")

        monkeypatch.setattr(oracle, "_hamiltonian_3d", assemble)
        with pytest.raises(ResourceBudgetExceeded, match=match):
            full_spectrum_3d(spec_harm_harm, Grid1D(-6.0, 6.0, n), k=k)

    @pytest.mark.parametrize("model", MODELS)
    def test_blocks_hold_the_whole_spectrum(self, model, request,
                                            cube_hamiltonian):
        # every eigenvalue of the kept-point operator, dense, at n = 8
        spec = request.getfixturevalue(f"spec_{model}")
        grid = Grid1D(-4.0, 4.0, 8)
        h, keep = cube_hamiltonian(spec, grid)
        full = np.linalg.eigvalsh(h[keep][:, keep].toarray())
        union = np.sort(np.concatenate([
            np.repeat(np.linalg.eigvalsh(b.toarray()), copies)
            for b, copies in _hamiltonian_3d(spec, grid)]))
        np.testing.assert_allclose(union, full, rtol=0, atol=1e-10)

    @pytest.mark.parametrize("model", MODELS)
    def test_block_union_matches_full_grid(self, model, request,
                                           cube_hamiltonian):
        spec = request.getfixturevalue(f"spec_{model}")
        grid = Grid1D(-6.0, 6.0, 24)
        h, keep = cube_hamiltonian(spec, grid)
        full, _ = _eigsh_deterministic(h[keep][:, keep], 10)
        blocks = full_spectrum_3d(spec, grid, k=18).eigenvalues
        if model in MASKED:
            # Lanczos on the full grid can drop copies of a sixfold
            # level, so compare the levels without their copies
            full, blocks = distinct_levels(full), distinct_levels(blocks)
        np.testing.assert_allclose(blocks[:len(full)], full, rtol=0, atol=1e-10)

    @pytest.mark.parametrize("n", [12, 32])
    def test_masked_ground_level_is_sixfold(self, spec_unitary, n):
        vals = full_spectrum_3d(spec_unitary, Grid1D(-6.0, 6.0, n), k=7).eigenvalues
        assert np.all(vals[:6] == vals[0])
        assert vals[6] > vals[0] * (1 + 1e-6)

    def test_refine_solves_the_halved_grid_in_blocks(self, spec_unitary):
        grid = Grid1D(-6.0, 6.0, 16)
        result = full_spectrum_3d(spec_unitary, grid, k=6, refine=True)
        coarse = full_spectrum_3d(spec_unitary, grid.halved(), k=6)
        np.testing.assert_array_equal(
            result.convergence_delta,
            np.abs(result.eigenvalues - coarse.eigenvalues))


@pytest.mark.parametrize("n", [5, 12])
def test_irrep_bases_are_orthonormal(n):
    sizes = (comb(n + 2, 3), comb(n, 3), 2 * comb(n, 3) + n * (n - 1))
    bases = _irrep_bases(n)
    assert tuple(b.shape[1] for b in bases) == sizes
    for b in bases:
        gram = (b.T @ b).toarray()
        np.testing.assert_allclose(gram, np.eye(b.shape[1]), rtol=0, atol=1e-14)
    # the three blocks are mutually orthogonal
    for i in range(3):
        for j in range(i):
            assert abs(bases[i].T @ bases[j]).max() < 1e-14


def test_irrep_bases_transform_as_their_irreps():
    n = 5
    b3, b111, b21 = (b.toarray().reshape(n, n, n, -1) for b in _irrep_bases(n))

    def swap12(v):
        return v.transpose(1, 0, 2, 3)

    def swap23(v):
        return v.transpose(0, 2, 1, 3)

    def cycle(v):
        return v.transpose(1, 2, 0, 3)

    for swap in (swap12, swap23):
        np.testing.assert_array_equal(swap(b3), b3)
        np.testing.assert_array_equal(swap(b111), -b111)
    # one row of [21]: (12)-even, and no 3-cycle-invariant part
    np.testing.assert_array_equal(swap12(b21), b21)
    np.testing.assert_allclose(b21 + cycle(b21) + cycle(cycle(b21)), 0,
                               atol=1e-15)
