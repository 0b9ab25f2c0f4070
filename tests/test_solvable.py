import math
from collections import Counter

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from threebody1d.composition import (
    GROUP_TOLERANCE,
    compose_spectrum,
    energy_cutoff,
    energy_runs,
)
from threebody1d.errors import GridResolutionTooCoarse, TruncationRisk
from threebody1d.grids import Grid1D, PolarGrid
from threebody1d.models import HarmonicTrap
from threebody1d.onebody import analytic_spectrum, grid_orbitals_1d
from threebody1d.oracle import relative_spectrum_2d
from threebody1d.solvable import (
    LevelColumns,
    bosonic_amplitudes,
    calogero_moser_spectrum,
    cm_angular_exponent,
    contact_levels_to_csv,
    fermionic_amplitudes,
    fit_cm_exponent,
    fit_harm_harm_frequency,
    girardeau_wavefunction,
    harm_harm_spectrum,
    relative_frequency,
    silver_levels_to_csv,
    unitary_contact_spectrum,
)


def group_energies(levels, tol=1e-9):
    counts = Counter()
    for e in levels.energy.tolist():
        counts[round(e / tol) * tol] += 1
    return dict(sorted(counts.items()))


def rows(levels):
    """(label, label, label, energy) tuples, one per row of a LevelColumns."""
    return list(zip(*levels.labels.T.tolist(), levels.energy.tolist()))


def head(levels, n):
    """The first n levels of a spectrum, columnar or a list."""
    if isinstance(levels, LevelColumns):
        return LevelColumns(levels.names, levels.labels[:n], levels.energy[:n])
    return levels[:n]


class TestHarmHarm:
    def test_gamma_zero_matches_composition(self, harmonic_sigma1):
        # level-by-level identity with the non-interacting composition
        silver = group_energies(harm_harm_spectrum(1.0, 0.0, 8.6))
        composed = compose_spectrum(harmonic_sigma1, 8.6)
        assert len(silver) == len(composed)
        for (e_s, d_s), lv in zip(silver.items(), composed):
            assert abs(e_s - lv.energy) < 1e-12
            assert d_s == lv.degeneracy

    def test_relative_shell_degeneracy(self):
        # 2 nu + |mu| = 2 admits (1, 0) and (0, +-2)
        levels = [(nu, mu) for eta, nu, mu, _ in rows(harm_harm_spectrum(
            1.0, 0.0, 3.6)) if eta == 0 and 2 * nu + abs(mu) == 2]
        assert len(levels) == 3
        assert set(levels) == {(1, 0), (0, 2), (0, -2)}

    def test_relative_frequency_values(self):
        assert relative_frequency(1.0, 0.0) == 1.0
        assert relative_frequency(1.0, 0.5) == pytest.approx(2.0)
        assert relative_frequency(2.0, 1.0, mass=2.0) == pytest.approx(
            math.sqrt(4.0 + 3.0))

    def test_signed_mu(self):
        mu = harm_harm_spectrum(1.0, 0.25, 5.0).labels[:, 2]
        assert (mu < 0).any()
        assert (mu > 0).any()

    def test_units_rescaling(self):
        m, hb, w, gn = 2.0, 3.0, 1.7, 0.4
        nat = harm_harm_spectrum(1.0, gn, 6.0).energy
        exp = harm_harm_spectrum(
            w, gn * m * w**2, 6.0 * hb * w, mass=m, hbar=hb).energy
        assert np.allclose(exp, hb * w * np.array(nat), rtol=1e-12)

    def test_fit_protocol_prefers_derived_radical(self):
        fit = fit_harm_harm_frequency(1.0, 0.5, grid=Grid1D(-7.0, 7.0, 128))
        assert fit.winner == "derived_6g_over_m"
        assert fit.fitted == pytest.approx(2.0, rel=1e-3)
        assert fit.fit_residual < 1e-3


class TestCalogeroMoser:
    def test_exponent_formula(self):
        assert cm_angular_exponent(0.0) == 1.0
        assert cm_angular_exponent(1.0) == pytest.approx((1 + math.sqrt(5)) / 2)
        assert cm_angular_exponent(2.0, mass=2.0, hbar=2.0) == pytest.approx(
            0.5 * (1 + math.sqrt(1 + 4.0)))

    def test_ground_energy(self):
        levels = calogero_moser_spectrum(1.0, 1.0, 8.0)
        assert levels.energy[0] == pytest.approx(1.5 * (2 + math.sqrt(5)))
        assert levels.labels[0].tolist() == [0, 0, 0]

    def test_fermionized_limit(self):
        # gamma -> 0+ reproduces the hard-wall (Tonks-Girardeau) ground energy
        levels = calogero_moser_spectrum(1.0, 1e-12, 6.0)
        assert levels.energy[0] == pytest.approx(4.5, abs=1e-5)

    def test_radial_spacing_two_quanta(self):
        levels = calogero_moser_spectrum(1.0, 1.0, 14.0)
        by_qn = {(eta, nu, mu): e for eta, nu, mu, e in rows(levels)}
        for (eta, nu, mu), e in by_qn.items():
            nxt = by_qn.get((eta, nu + 1, mu))
            if nxt is not None:
                assert nxt - e == pytest.approx(2.0, abs=1e-12)

    def test_mu_multiples_of_three(self):
        mu = calogero_moser_spectrum(1.0, 1.0, 14.0).labels[:, 2].tolist()
        assert all(m % 3 == 0 for m in mu)
        nonzero = sorted({abs(m) for m in mu if m != 0})
        assert nonzero[0] == 3

    def test_units_rescaling(self):
        m, hb, w, gn = 0.5, 2.0, 1.3, 0.7
        nat = calogero_moser_spectrum(1.0, gn, 9.0).energy
        exp = calogero_moser_spectrum(
            w, gn * hb**2 / m, 9.0 * hb * w, mass=m, hbar=hb).energy
        assert np.allclose(exp, hb * w * np.array(nat), rtol=1e-12)

    def test_fit_protocol_prefers_derived_radical(self):
        fit = fit_cm_exponent(1.0, 1.0,
                              grid=PolarGrid(7.5, 120, math.pi / 6, math.pi / 2, 80))
        assert fit.winner == "derived_4mg"
        assert fit.fitted == pytest.approx((1 + math.sqrt(5)) / 2, abs=2e-3)

    def test_candidates_share_the_half_plus_radical_rule(self):
        # 2 m^2 gamma = 4 m gamma / hbar^2 at m = 2, hbar = 1
        grid = PolarGrid(7.5, 60, math.pi / 6, math.pi / 2, 40)
        same = fit_cm_exponent(1.0, 1.0, mass=2.0, grid=grid).candidates
        assert same["printed_2m2g"] == same["derived_4mg"] == 2.0
        apart = fit_cm_exponent(1.0, 1.0, grid=grid).candidates
        assert apart["printed_2m2g"] == pytest.approx((1 + math.sqrt(3)) / 2)
        assert apart["derived_4mg"] == pytest.approx((1 + math.sqrt(5)) / 2)

    def test_requires_positive_gamma(self):
        with pytest.raises(ValueError):
            calogero_moser_spectrum(1.0, 0.0, 5.0)

    def test_degeneracy_column_counts_signed_mu_not_sector_states(
            self, spec_calogero):
        # The polar sector oracle has one relative level per (nu, j >= 0)
        # at 2 nu + 3 j + 3 alpha + 1; with the center of mass eta the
        # lowest four levels hold 1, 1, 2, 3 states per ordering sector.
        rel = relative_spectrum_2d(spec_calogero, k=8).eigenvalues
        total = np.add.outer(np.arange(4) + 0.5, rel).ravel()
        steps = total - total.min()
        assert np.abs(steps - np.rint(steps)).max() < 0.05
        assert np.bincount(np.rint(steps).astype(int))[:4].tolist() == [
            1, 1, 2, 3]
        # the shipped column counts (eta, nu, mu) with mu over signed
        # multiples of 3: mu = +-3 makes the fourth level twofold in mu
        levels = calogero_moser_spectrum(1.0, 1.0, 9.5)
        runs = np.diff(energy_runs(levels.energy, GROUP_TOLERANCE))
        assert runs.tolist() == [1, 1, 2, 4]


class TestUnitaryContact:
    def test_ground_is_fermionic_filling(self, harmonic_sigma1):
        levels = unitary_contact_spectrum(harmonic_sigma1, 7.0)
        assert levels.names == ("n1", "n2", "n3")
        assert levels.energy[0] == pytest.approx(4.5)
        assert levels.labels[0].tolist() == [0, 1, 2]

    def test_every_level_sixfold(self, harmonic_sigma1):
        levels = unitary_contact_spectrum(harmonic_sigma1, 9.0)
        lines = contact_levels_to_csv(levels).splitlines()[1:]
        assert len(lines) == len(levels) > 0
        assert all(line.endswith(",6") for line in lines)

    def test_energies_subset_of_composition(self, harmonic_sigma1):
        contact = {round(e, 9) for e in unitary_contact_spectrum(
            harmonic_sigma1, 8.6).energy.tolist()}
        composed = {round(lv.energy, 9)
                    for lv in compose_spectrum(harmonic_sigma1, 8.6)}
        assert contact <= composed

    def test_degenerate_triples_at_cutoff_kept_together(self):
        # omega = 0.3: (0,1,4) and (0,2,3) both lie at 0.3 * (3/2 + 5) = 1.95,
        # but their float sums round to either side of 1.95
        sigma1 = analytic_spectrum(HarmonicTrap(0.3), 12)
        eps = sigma1.energies
        assert eps[0] + eps[1] + eps[4] < 1.95 < eps[0] + eps[2] + eps[3]
        levels = unitary_contact_spectrum(sigma1, 1.95)
        top = [(n1, n2, n3) for n1, n2, n3, e in rows(levels)
               if abs(e - 1.95) < 1e-9]
        assert top == [(0, 1, 4), (0, 2, 3)]
        assert len(levels) == 4  # base index sums 3, 4, 5 and 5

    def test_truncation_risk(self, harmonic_sigma1):
        with pytest.raises(TruncationRisk):
            unitary_contact_spectrum(
                analytic_spectrum(HarmonicTrap(1.0), 4), 9.0)


@pytest.fixture(scope="module")
def harmonic_orbitals():
    axis = Grid1D(-7.5, 7.5, 64)
    evals, orbs, _ = grid_orbitals_1d(HarmonicTrap(1.0), axis, 4)
    return axis, evals, orbs


def apply_hamiltonian(h, keep, psi):
    """P H P psi, P the projector onto the points in ``keep``: the operator
    whose restriction the 3D solve diagonalizes."""
    flat = np.zeros(psi.size)
    flat[keep] = psi.ravel()[keep]
    out = np.zeros(psi.size)
    out[keep] = (h @ flat)[keep]
    return out.reshape(psi.shape)


class TestGirardeau:
    def test_fermionic_pattern_is_global_slater(self, harmonic_orbitals):
        axis, _, orbs = harmonic_orbitals
        wf = girardeau_wavefunction((0, 1, 2), fermionic_amplitudes(), orbs, axis)
        # independent construction: the Slater determinant, term by term
        from itertools import permutations

        det = np.zeros((axis.n,) * 3)
        for p in permutations(range(3)):
            sgn = (-1) ** sum(1 for i in range(3) for j in range(i + 1, 3)
                              if p[i] > p[j])
            det += sgn * (orbs[p[0]][:, None, None] * orbs[p[1]][None, :, None]
                          * orbs[p[2]][None, None, :])
        det /= np.linalg.norm(det) * math.sqrt(axis.dx**3)
        diff = min(np.max(np.abs(wf - det)), np.max(np.abs(wf + det)))
        assert diff < 1e-12

    def test_bosonic_pattern_is_absolute_value(self, harmonic_orbitals):
        axis, _, orbs = harmonic_orbitals
        wf_f = girardeau_wavefunction((0, 1, 2), fermionic_amplitudes(), orbs, axis)
        wf_b = girardeau_wavefunction((0, 1, 2), bosonic_amplitudes(), orbs, axis)
        assert np.allclose(np.abs(wf_b), np.abs(wf_f), atol=1e-12)
        assert np.min(wf_b) >= -1e-12  # |det| is non-negative for 012

    def test_vanishes_on_coincidence_manifold(self, harmonic_orbitals):
        axis, _, orbs = harmonic_orbitals
        wf = girardeau_wavefunction((0, 1, 3), bosonic_amplitudes(), orbs, axis)
        x = axis.points()
        x1, x2, x3 = np.meshgrid(x, x, x, indexing="ij")
        plane = (x1 == x2) | (x2 == x3) | (x1 == x3)
        assert np.max(np.abs(wf[plane])) == 0.0

    def test_eigen_residual_under_masked_hamiltonian(self, harmonic_orbitals,
                                                     cube_hamiltonian,
                                                     spec_unitary):
        axis, evals, orbs = harmonic_orbitals
        h, keep = cube_hamiltonian(spec_unitary, axis)
        e = float(evals[0] + evals[1] + evals[2])
        for amps in (fermionic_amplitudes(), bosonic_amplitudes()):
            wf = girardeau_wavefunction((0, 1, 2), amps, orbs, axis)
            hw = apply_hamiltonian(h, keep, wf)
            resid = np.linalg.norm(hw - e * wf) * math.sqrt(axis.dx**3)
            assert resid < 2e-2 * e

    def test_coarse_grid_raises(self):
        axis = Grid1D(-7.0, 7.0, 16)
        orbs = np.zeros((3, 16))
        with pytest.raises(GridResolutionTooCoarse):
            girardeau_wavefunction((0, 1, 2), fermionic_amplitudes(), orbs, axis)


def test_csv_and_json_exports(harmonic_sigma1):
    text = silver_levels_to_csv("harm_harm", harm_harm_spectrum(1.0, 0.5, 4.6))
    assert text.splitlines()[0] == "model,eta,nu,mu,energy,degeneracy"
    levels = unitary_contact_spectrum(harmonic_sigma1, 6.0)
    ctext = contact_levels_to_csv(levels)
    assert "unitary_contact,0,1,2,4.5,6" in ctext


def test_csv_degeneracy_counts_runs_not_rounding_buckets():
    # 2e-13 apart, but on either side of a 9-decimal rounding boundary
    levels = LevelColumns(("eta", "nu", "mu"),
                          np.array([[0, 0, 0], [1, 0, 0], [0, 1, 0]]),
                          np.array([1.0000000004999, 1.0000000005001, 3.0]))
    rows = silver_levels_to_csv("harm_harm", levels).splitlines()[1:]
    assert [r.rsplit(",", 1)[1] for r in rows] == ["2", "2", "1"]


def _one_body(omega):
    return analytic_spectrum(HarmonicTrap(omega), 40)


# spectrum(omega, gamma, e_max) and the lowest member energy of each level
SPECTRA = {
    "harm_harm": (harm_harm_spectrum,
                  lambda levels, eps: levels.energy.tolist()),
    "calogero_moser": (calogero_moser_spectrum,
                       lambda levels, eps: levels.energy.tolist()),
    "noninteracting": (
        lambda w, g, e_max: compose_spectrum(_one_body(w), e_max),
        lambda levels, eps: [min(eps[i] + eps[j] + eps[k]
                                 for i, j, k in lv.multisets)
                             for lv in levels]),
    "unitary_contact": (
        lambda w, g, e_max: unitary_contact_spectrum(_one_body(w), e_max),
        lambda levels, eps: levels.energy.tolist()),
}


def _loop_levels(energy, mu_step, e_max):
    """Reference enumeration: plain loops over (eta, nu, j), |mu| = mu_step * j."""
    out = []
    for eta in range(int(e_max) + 1):
        for nu in range(int(e_max) + 1):
            for j in range(int(e_max) + 1):
                e = energy(eta, nu, mu_step * j)
                if e <= e_max:
                    out += [(e, eta, nu, mu) for mu in sorted(
                        {-mu_step * j, mu_step * j})]
    out.sort()
    return LevelColumns(("eta", "nu", "mu"),
                        np.array([r[1:] for r in out]).reshape(-1, 3),
                        np.array([r[0] for r in out]))


@pytest.mark.parametrize("omega, gamma", [(1.0, 0.5), (0.83, 0.21), (1.21, 1.7)])
def test_cylindrical_spectra_equal_loop_reference(omega, gamma):
    # same float expressions as the closed forms, so levels are bit-equal;
    # e_max = 9.3 omega lies between levels for these couplings
    e_max = 9.3 * omega
    w_rel = relative_frequency(omega, gamma)
    base = omega * (1.5 + 3 * cm_angular_exponent(gamma))
    hh = _loop_levels(lambda eta, nu, amu: (
        0.5 * omega + omega * eta + w_rel * (2 * nu + amu + 1)), 1, e_max)
    cm = _loop_levels(lambda eta, nu, amu: (
        base + omega * (eta + 2 * nu + amu)), 3, e_max)
    assert harm_harm_spectrum(omega, gamma, e_max) == hh
    assert calogero_moser_spectrum(omega, gamma, e_max) == cm


class TestWindow:
    """The one energy window of the closed-form spectra."""

    def test_calogero_keeps_the_multiplet_at_e_max(self):
        # e_max equals a level energy; flooring (e_max - base) / omega
        # in quanta dropped that level's whole multiplet
        w, g, e_max = 1.1349896734588634, 1.0043112108304078, 20.83827543607893
        wider = calogero_moser_spectrum(w, g, e_max + 5.0)
        n_in = int(np.count_nonzero(wider.energy <= e_max))
        assert n_in == 155
        assert calogero_moser_spectrum(w, g, e_max) == head(wider, n_in)

    def test_nan_window_is_empty(self):
        assert len(harm_harm_spectrum(1.0, 0.5, math.nan)) == 0
        assert len(calogero_moser_spectrum(1.0, 1.0, math.nan)) == 0

    @given(model=st.sampled_from(sorted(SPECTRA)),
           omega=st.floats(0.5, 2.0), gamma=st.floats(0.01, 2.0),
           level=st.integers(0, 10**6), shift=st.sampled_from(
               [-2.0, -1.0, -1e-7, 0.0, 1e-7, 1.0, 2.0]))
    @example(model="calogero_moser", omega=1.1349896734588634,
             gamma=1.0043112108304078, level=150, shift=0.0)
    @settings(max_examples=150, deadline=None)
    def test_window_is_the_wider_spectrum_cut_at_energy_cutoff(
            self, model, omega, gamma, level, shift):
        """spectrum(e_max) is spectrum(wider window) cut at
        energy_cutoff(e_max): every level at or below the cutoff, and past
        it only members of a degenerate run that began at or below it."""
        spectrum, lowest = SPECTRA[model]
        eps = _one_body(omega).energies.tolist()
        wide = spectrum(omega, gamma, 16 * omega)
        lows = lowest(wide, eps)
        # e_max at, or a few grouping widths from, a level in the lower half
        e_at = lows[level % (len(lows) // 2 + 1)]
        e_max = e_at * (1 + shift * GROUP_TOLERANCE)
        cut = energy_cutoff(e_max, GROUP_TOLERANCE)
        levels = spectrum(omega, gamma, e_max)
        assert levels == head(wide, len(levels))
        n_in = sum(1 for e in lows if e <= cut)
        assert len(levels) >= n_in
        for e in lows[n_in:len(levels)]:
            assert e - lows[n_in - 1] <= GROUP_TOLERANCE * max(1.0, abs(e))
