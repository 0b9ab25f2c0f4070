import math

import numpy as np
import pytest
from scipy.sparse import diags

from threebody1d import onebody, oracle
from threebody1d.errors import BoxTooSmall, GridMismatch, TooFewPoints, UnsupportedTrap
from threebody1d.grids import Grid1D
from threebody1d.models import HarmonicTrap, InfiniteWell, QuadraticTrap, TabulatedTrap
from threebody1d.onebody import (
    analytic_spectrum,
    grid_orbitals_1d,
    grid_spectrum_1d,
    kinetic_fd_1d,
)


def quartic_trap(half_width=6.0):
    xs = np.linspace(-half_width, half_width, 4001)
    return TabulatedTrap(tuple(xs), tuple(xs**4))


def double_well(half_width=8.0):
    xs = np.linspace(-half_width, half_width, 4001)
    return TabulatedTrap(tuple(xs), tuple(2.0 * (xs**2 - 9.0) ** 2 / 9.0))


class TestAnalytic:
    def test_harmonic_ground(self):
        assert analytic_spectrum(HarmonicTrap(1.0), 0).energies[0] == 0.5

    def test_harmonic_n5(self):
        assert analytic_spectrum(HarmonicTrap(1.0), 5).energies[5] == 5.5

    def test_well_ground(self):
        sp = analytic_spectrum(InfiniteWell(math.pi), 1)
        assert sp.energies[0] == pytest.approx(0.5, abs=1e-14)
        assert sp.energies[1] == pytest.approx(2.0, abs=1e-14)

    def test_explicit_units(self):
        sp = analytic_spectrum(HarmonicTrap(2.0), 3, mass=3.0, hbar=1.5)
        assert np.allclose(sp.energies, 1.5 * 2.0 * (np.arange(4) + 0.5))
        spw = analytic_spectrum(InfiniteWell(2.0), 0, mass=2.0, hbar=1.0)
        assert spw.energies[0] == pytest.approx(math.pi**2 / 16)

    def test_unsupported(self):
        with pytest.raises(UnsupportedTrap):
            analytic_spectrum(quartic_trap(), 3)


class TestGrid:
    def test_harmonic_matches_analytic(self):
        sp = grid_spectrum_1d(HarmonicTrap(1.0), Grid1D(-8.0, 8.0, 2000), 5)
        exact = np.arange(6) + 0.5
        assert np.max(np.abs(sp.energies - exact)) < 1e-6
        assert np.all(sp.est_error < 1e-6)

    def test_well_first_excited(self):
        sp = grid_spectrum_1d(InfiniteWell(math.pi),
                              Grid1D(-math.pi / 2, math.pi / 2, 2000), 3)
        assert abs(sp.energies[1] - 2.0) < 1e-5

    def test_quartic_by_grid_halving(self):
        # Richardson-style oracle: two resolutions agreeing to 1e-6 fix
        # the value; the scaling relation E0(x^4) = 2^(-2/3) E0(-d^2 + x^4)
        # ties it to the standard quartic constant as a cross-check.
        fine = grid_spectrum_1d(quartic_trap(), Grid1D(-6.0, 6.0, 2400), 0)
        coarse = grid_spectrum_1d(quartic_trap(), Grid1D(-6.0, 6.0, 1200), 0)
        assert abs(fine.energies[0] - coarse.energies[0]) < 1e-6
        assert fine.energies[0] == pytest.approx(
            2.0 ** (-2.0 / 3.0) * 1.0603620904841829, abs=5e-6)

    def test_count_and_order(self):
        sp = grid_spectrum_1d(HarmonicTrap(1.0), Grid1D(-8.0, 8.0, 512), 7)
        assert len(sp.energies) == 8
        assert np.all(np.diff(sp.energies) > 0)

    def test_monotone_grid_convergence(self):
        errs = []
        for n in (250, 500, 1000):
            sp = grid_spectrum_1d(HarmonicTrap(1.0), Grid1D(-8.0, 8.0, n), 0)
            errs.append(abs(sp.energies[0] - 0.5))
        assert errs[0] > errs[1] > errs[2]

    def test_box_too_small(self):
        with pytest.raises(BoxTooSmall):
            grid_spectrum_1d(HarmonicTrap(1.0), Grid1D(-2.5, 2.5, 256), 5)

    def test_orbitals_box_too_small(self):
        with pytest.raises(BoxTooSmall):
            grid_orbitals_1d(HarmonicTrap(1.0), Grid1D(-2.5, 2.5, 256), 5)

    def test_edge_check_covers_every_state(self):
        # the ground state has decayed at +-7, state 10 has not
        axis = Grid1D(-7.0, 7.0, 512)
        grid_spectrum_1d(HarmonicTrap(1.0), axis, 0)
        with pytest.raises(BoxTooSmall):
            grid_spectrum_1d(HarmonicTrap(1.0), axis, 10)

    def test_energies_match_dense_eigh(self):
        trap, axis = QuadraticTrap(0.5, 0.1, 0.2), Grid1D(-16.0, 16.0, 256)
        spec = grid_spectrum_1d(trap, axis, 10)
        x = axis.points()
        dense = np.linalg.eigvalsh(hamiltonian(trap, x).toarray())[:11]
        np.testing.assert_allclose(spec.energies, dense, rtol=1e-10)

    def test_too_few_points(self):
        with pytest.raises(TooFewPoints):
            grid_spectrum_1d(HarmonicTrap(1.0), Grid1D(-8.0, 8.0, 32), 1)

    @pytest.mark.parametrize("n, n_max, match", [
        (100, 0, "need at least 128 grid points, got 100"),
        (160, 20, "n_max=20 too large for 160 points"),
    ], ids=("n_100", "n_160_nmax_20"))
    def test_halved_grid_is_checked_before_solving(self, monkeypatch, n,
                                                   n_max, match):
        # both grids pass on their own; their halved partners do not
        def solve(*args, **kwargs):
            raise AssertionError("solved a grid that is refused")

        monkeypatch.setattr(onebody, "eig_banded", solve)
        with pytest.raises(TooFewPoints, match=match):
            grid_spectrum_1d(HarmonicTrap(1.0), Grid1D(-8.0, 8.0, n), n_max)

    def test_well_grid_must_match_walls(self):
        with pytest.raises(GridMismatch):
            grid_spectrum_1d(InfiniteWell(2.0), Grid1D(-8.0, 8.0, 256), 1)

    def test_orbitals_orthonormal(self):
        axis = Grid1D(-8.0, 8.0, 512)
        evals, orbs, x = grid_orbitals_1d(HarmonicTrap(1.0), axis, 4)
        dx = x[1] - x[0]
        gram = orbs @ orbs.T * dx
        assert np.max(np.abs(gram - np.eye(5))) < 1e-9
        # ground state of the harmonic trap is a positive gaussian
        assert np.all(orbs[0] > -1e-12)
        # the trap is even, so orbital k has parity (-1)^k
        for k in range(5):
            assert np.allclose(orbs[k][::-1], (-1) ** k * orbs[k], atol=1e-9)

    @pytest.mark.parametrize("trap, axis, n_max", [
        (QuadraticTrap(0.5, 0.1, 0.2), Grid1D(-16.0, 16.0, 2048), 40),
        # levels in tunnelling pairs split by 2e-9
        (double_well(), Grid1D(-8.0, 8.0, 1024), 5),
    ], ids=["quadratic", "double-well"])
    def test_orbitals_are_eigenvectors(self, trap, axis, n_max):
        evals, orbs, x = grid_orbitals_1d(trap, axis, n_max)
        dx = x[1] - x[0]
        assert np.max(np.abs(orbs @ orbs.T * dx - np.eye(n_max + 1))) < 1e-9
        h = hamiltonian(trap, x)
        for lam, v in zip(evals, orbs):
            assert np.linalg.norm(h @ v - lam * v) <= 1e-10 * abs(lam) * np.linalg.norm(v)
        # orbital k has k nodes, so none of the odd states is missing
        for k, v in enumerate(orbs):
            v = v[np.abs(v) > 1e-8 * np.max(np.abs(v))]
            assert np.count_nonzero(np.diff(np.sign(v))) == k


def hamiltonian(trap, x):
    """The grid Hamiltonian, rebuilt from the stencil and the potential."""
    return kinetic_fd_1d(len(x), x[1] - x[0]) + diags(trap.potential(x))


def test_banded_solver_resolves_before_any_solve(fresh_python):
    # scipy loads on first use, yet a lookup by name (as a tracer wrapping
    # the solver does) already finds the function the solves will call
    proc = fresh_python("-c", """if True:
        import sys
        from threebody1d import onebody
        assert "scipy.linalg" not in sys.modules
        found = getattr(onebody, "eig_banded")
        import scipy.linalg
        assert found is scipy.linalg.eig_banded is vars(onebody)["eig_banded"]
        """)
    assert proc.returncode == 0, proc.stderr


@pytest.mark.parametrize("install", ["setattr", "module-dict"])
def test_replaced_eig_banded_is_the_one_the_solvers_call(
        monkeypatch, install, spec_harm_harm):
    from scipy.linalg import eig_banded

    # back to the state before the first solve: nothing bound yet
    for name in ("eig_banded", "solve_banded"):
        monkeypatch.delitem(vars(onebody), name, raising=False)
    sizes = []

    def counting(bands, *args, **kwargs):
        sizes.append(bands.shape[1])
        return eig_banded(bands, *args, **kwargs)

    if install == "setattr":
        monkeypatch.setattr(onebody, "eig_banded", counting)
    else:  # in place before scipy loads, with solve_banded still unbound
        monkeypatch.setitem(vars(onebody), "eig_banded", counting)
    grid_spectrum_1d(HarmonicTrap(1.0), Grid1D(-8.0, 8.0, 256), 3)
    assert sizes == [256, 128]
    oracle.relative_spectrum_2d(spec_harm_harm, Grid1D(-7.0, 7.0, 48), k=6)
    assert sizes[2:] == [48]
    assert onebody.eig_banded is counting
