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
    TooFewPoints,
    UnsupportedTrap,
)
from threebody1d.grids import Grid1D, PolarGrid
from threebody1d.models import (
    ContactInteraction,
    HarmonicInteraction,
    HarmonicTrap,
    InfiniteWell,
    InverseSquareInteraction,
    ModelSpec,
    NoInteraction,
    QuadraticTrap,
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

    @pytest.mark.parametrize("grid, k, error, match", [
        (sector_grid(3, 2), 20, TooFewPoints, "6 grid points"),
        (Grid1D(-7.0, 7.0, 4), 17, TooFewPoints, "16 grid points"),
        (SECTOR_GRID, 0, ValueError, "k = 0"),
        (Grid1D(-7.0, 7.0, 48), -1, ValueError, "k = -1"),
    ], ids=("polar_6_k20", "cartesian_16_k17", "k_0", "k_neg"))
    def test_bad_k_or_grid_raises_before_solving(
            self, monkeypatch, spec_calogero, spec_harm_harm, grid, k,
            error, match):
        def solve(spec, grid, k):
            raise AssertionError("solved with a bad k or grid")

        monkeypatch.setattr(oracle, "_cartesian_relative_levels", solve)
        monkeypatch.setattr(oracle, "_polar_relative_levels", solve)
        spec = spec_calogero if isinstance(grid, PolarGrid) else spec_harm_harm
        with pytest.raises(error, match=match):
            relative_spectrum_2d(spec, grid, k=k)

    def test_trap_without_relative_frame_raises(self):
        spec = ModelSpec(InfiniteWell(2.0), ContactInteraction(unitary=True))
        with pytest.raises(UnsupportedTrap):
            relative_spectrum_2d(spec, SECTOR_GRID)


class TestFullSpectrum3D:
    def test_harm_harm_ground_level(self, spec_harm_harm):
        # E0 = omega/2 + omega_rel with omega_rel = sqrt(1 + 6 gamma) = 2
        result = full_spectrum_3d(spec_harm_harm, Grid1D(-6.0, 6.0, 24), k=1)
        assert result.eigenvalues[0] == pytest.approx(2.5, rel=1e-2)

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

    @pytest.mark.parametrize("model, n, k, error, match", [
        ("harm_harm", 12, 0, ValueError, "k = 0"),
        ("harm_harm", 12, -1, ValueError, "k = -1"),
        ("harm_harm", 3, 4, TooFewPoints, "block of 1 states"),
        ("noninteracting", 1, 1, TooFewPoints, "n = 1"),
        ("calogero", 4, 20, TooFewPoints, "block of 4 states"),
    ], ids=("k_0", "k_neg", "n_3", "n_1", "calogero_n4_k20"))
    def test_bad_k_or_grid_raises_before_solving(
            self, monkeypatch, request, model, n, k, error, match):
        def solve(spec, grid, k):
            raise AssertionError("solved with a bad k or grid")

        monkeypatch.setattr(oracle, "_separable_spectrum", solve)
        monkeypatch.setattr(oracle, "_block_spectrum", solve)
        spec = request.getfixturevalue(f"spec_{model}")
        with pytest.raises(error, match=match):
            full_spectrum_3d(spec, Grid1D(-3.0, 3.0, n), k=k)

    @pytest.mark.parametrize("n", [4, 8, 10])
    @pytest.mark.parametrize("trap", [
        HarmonicTrap(0.7), HarmonicTrap(1.0), HarmonicTrap(1.3),
        QuadraticTrap(0.6, 0.3, -0.2)], ids=("w0.7", "w1", "w1.3", "quadratic"))
    @pytest.mark.parametrize("interaction", [
        NoInteraction(), ContactInteraction(unitary=True)],
        ids=("noninteracting", "unitary"))
    def test_separable_levels_match_the_cube(self, cube_hamiltonian,
                                             interaction, trap, n):
        # the banded 1D path against every level of the kept-point cube;
        # at n = 4 the unitary sector holds 4 states, so k = 20 takes all
        # of them, where Lanczos returns at most dim - 1
        spec = ModelSpec(trap, interaction)
        grid = Grid1D(-5.0, 5.0, n)
        h, keep = cube_hamiltonian(spec, grid)
        full = np.linalg.eigvalsh(h[keep][:, keep].toarray())
        vals = full_spectrum_3d(spec, grid, k=20).eigenvalues
        np.testing.assert_allclose(vals, full[:20], rtol=0, atol=1e-12)

    def test_only_harm_harm_and_inverse_square_run_lanczos(
            self, monkeypatch, spec_noninteracting, spec_unitary,
            spec_harm_harm, spec_calogero):
        def eigsh(*args, **kwargs):
            raise RuntimeError("Lanczos ran")

        monkeypatch.setattr(spla, "eigsh", eigsh)
        grid = Grid1D(-6.0, 6.0, 12)
        for spec in (spec_noninteracting, spec_unitary):
            assert len(full_spectrum_3d(spec, grid, k=6).eigenvalues) == 6
        for spec in (spec_harm_harm, spec_calogero):
            with pytest.raises(RuntimeError, match="Lanczos ran"):
                full_spectrum_3d(spec, grid, k=6)

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
        cube = h[keep][:, keep]
        # the whole grid has exact S3 doublets, which blocks never see, so
        # it needs its own slack: 16 levels asked, the lowest 10 kept
        v0 = np.random.default_rng(2024).standard_normal(cube.shape[0])
        full = np.sort(spla.eigsh(cube, k=16, which="SA", v0=v0, tol=1e-10,
                                  return_eigenvectors=False))[:10]
        blocks = full_spectrum_3d(spec, grid, k=18).eigenvalues
        if model in MASKED:
            # Lanczos on the full grid can drop copies of a sixfold
            # level, so compare the levels without their copies
            full, blocks = distinct_levels(full), distinct_levels(blocks)
        np.testing.assert_allclose(blocks[:len(full)], full, rtol=0, atol=1e-10)

    @pytest.mark.parametrize("k, solves_antisymmetric", [(4, False),
                                                         (6, True)])
    def test_antisymmetric_block_is_solved_only_when_in_reach(
            self, monkeypatch, k, solves_antisymmetric):
        # gamma = 0.4: the lowest noninteracting [1^3] level, about 4.50,
        # lies above the 4th harm-harm level (4.19), below the 6th (5.19)
        sizes = []

        def eigsh(h, k):
            sizes.append(h.shape[0])
            return _eigsh_deterministic(h, k)

        monkeypatch.setattr(oracle, "_eigsh_deterministic", eigsh)
        spec = ModelSpec(HarmonicTrap(1.0), HarmonicInteraction(0.4))
        full_spectrum_3d(spec, Grid1D(-6.0, 6.0, 12), k=k)
        assert len(sizes) == 2 + solves_antisymmetric
        assert (comb(12, 3) in sizes) == solves_antisymmetric

    @pytest.mark.parametrize("k", [1, 4, 6, 12])
    @pytest.mark.parametrize("gamma", [0.0, 0.4, 1.0])
    def test_skipped_blocks_leave_the_levels_unchanged(self, gamma, k):
        spec = ModelSpec(HarmonicTrap(1.0), HarmonicInteraction(gamma))
        grid = Grid1D(-6.0, 6.0, 12)
        every = np.sort(np.concatenate([
            np.repeat(_eigsh_deterministic(h, -(-k // copies)), copies)
            for h, copies in _hamiltonian_3d(spec, grid)]))[:k]
        vals = full_spectrum_3d(spec, grid, k=k).eigenvalues
        np.testing.assert_allclose(vals, every, rtol=0, atol=1e-12)

    @pytest.mark.parametrize("k, calls", [
        (4, [(364, 4, False), (572, 2, False)]),
        (6, [(364, 6, False), (572, 3, False), (220, 2, False)])],
        ids=("k4", "k6"))
    def test_lanczos_asks_each_block_for_its_need(self, monkeypatch, k, calls):
        # [3], then [21] (two copies), then [1^3] of the 12-point cube:
        # ceil(k / copies) levels each, and no eigenvectors
        asked, eigsh = [], spla.eigsh

        def record(h, *args, **kwargs):
            asked.append((h.shape[0], kwargs["k"],
                          kwargs.get("return_eigenvectors", True)))
            return eigsh(h, *args, **kwargs)

        monkeypatch.setattr(spla, "eigsh", record)
        spec = ModelSpec(HarmonicTrap(1.0), HarmonicInteraction(0.4))
        full_spectrum_3d(spec, Grid1D(-6.0, 6.0, 12), k=k)
        assert asked == calls

    @pytest.mark.parametrize("n", [8, 12])
    @pytest.mark.parametrize("omega", [0.7, 1.3])
    @pytest.mark.parametrize("interaction", [
        HarmonicInteraction(0.0), HarmonicInteraction(0.4),
        HarmonicInteraction(1.0), InverseSquareInteraction(0.5),
        InverseSquareInteraction(1.0)],
        ids=("hh0", "hh0.4", "hh1", "is0.5", "is1"))
    def test_levels_match_the_dense_blocks(self, interaction, omega, n):
        # no Lanczos slack, so near-degenerate clusters must not lose a
        # member: the inverse-square levels eta + 2 nu + 3 j cluster and
        # only the grid error splits them
        spec = ModelSpec(HarmonicTrap(omega), interaction)
        grid = Grid1D(-5.0, 5.0, n)
        union = np.sort(np.concatenate([
            np.repeat(np.linalg.eigvalsh(h.toarray()), copies)
            for h, copies in _hamiltonian_3d(spec, grid)]))
        for k in (1, 4, 6, 12, 20):
            vals = full_spectrum_3d(spec, grid, k=k).eigenvalues
            np.testing.assert_allclose(vals, union[:k], rtol=0, atol=1e-10)

    @pytest.mark.parametrize("model", ["harm_harm", "calogero"])
    def test_repeated_solves_are_bit_identical(self, model, request):
        spec = request.getfixturevalue(f"spec_{model}")
        grid = Grid1D(-6.0, 6.0, 12)
        first = full_spectrum_3d(spec, grid, k=6).eigenvalues
        oracle._kinetic_blocks.cache_clear()
        again = full_spectrum_3d(spec, grid, k=6).eigenvalues
        np.testing.assert_array_equal(again, first)

    def test_kinetic_blocks_are_built_once_per_grid(self):
        oracle._kinetic_blocks.cache_clear()
        grid = Grid1D(-6.0, 6.0, 12)
        for gamma in (0.3, 0.4):
            spec = ModelSpec(HarmonicTrap(1.0), HarmonicInteraction(gamma))
            full_spectrum_3d(spec, grid, k=4)
        info = oracle._kinetic_blocks.cache_info()
        assert (info.misses, info.hits) == (1, 1)

    @pytest.mark.parametrize("n", [12, 32])
    def test_masked_ground_level_is_sixfold(self, spec_unitary, n):
        vals = full_spectrum_3d(spec_unitary, Grid1D(-6.0, 6.0, n), k=7).eigenvalues
        assert np.all(vals[:6] == vals[0])
        assert vals[6] > vals[0] * (1 + 1e-6)


@pytest.mark.parametrize("n", [5, 12])
def test_irrep_bases_are_orthonormal(n):
    sizes = (comb(n + 2, 3), comb(n, 3), 2 * comb(n, 3) + n * (n - 1))
    bases = [b for b, _ in _irrep_bases(n)]
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
    b3, b111, b21 = (b.toarray().reshape(n, n, n, -1)
                     for b, _ in _irrep_bases(n))

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
