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
)
from threebody1d.errors import GridResolutionTooCoarse, TruncationRisk
from threebody1d.grids import Grid1D, PolarGrid
from threebody1d.models import HarmonicTrap
from threebody1d.onebody import analytic_spectrum, grid_orbitals_1d
from threebody1d.solvable import (
    SilverLevel,
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
    for lv in levels:
        counts[round(lv.energy / tol) * tol] += 1
    return dict(sorted(counts.items()))


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
        levels = [l for l in harm_harm_spectrum(1.0, 0.0, 3.6)
                  if l.eta == 0 and 2 * l.nu + abs(l.mu) == 2]
        assert len(levels) == 3
        assert {(l.nu, l.mu) for l in levels} == {(1, 0), (0, 2), (0, -2)}

    def test_relative_frequency_values(self):
        assert relative_frequency(1.0, 0.0) == 1.0
        assert relative_frequency(1.0, 0.5) == pytest.approx(2.0)
        assert relative_frequency(2.0, 1.0, mass=2.0) == pytest.approx(
            math.sqrt(4.0 + 3.0))

    def test_signed_mu(self):
        levels = harm_harm_spectrum(1.0, 0.25, 5.0)
        assert any(l.mu < 0 for l in levels)
        assert any(l.mu > 0 for l in levels)

    def test_units_rescaling(self):
        m, hb, w, gn = 2.0, 3.0, 1.7, 0.4
        nat = [l.energy for l in harm_harm_spectrum(1.0, gn, 6.0)]
        exp = [l.energy for l in harm_harm_spectrum(
            w, gn * m * w**2, 6.0 * hb * w, mass=m, hbar=hb)]
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
        assert levels[0].energy == pytest.approx(1.5 * (2 + math.sqrt(5)))
        assert (levels[0].eta, levels[0].nu, levels[0].mu) == (0, 0, 0)

    def test_fermionized_limit(self):
        # gamma -> 0+ reproduces the hard-wall (Tonks-Girardeau) ground energy
        levels = calogero_moser_spectrum(1.0, 1e-12, 6.0)
        assert levels[0].energy == pytest.approx(4.5, abs=1e-5)

    def test_radial_spacing_two_quanta(self):
        levels = calogero_moser_spectrum(1.0, 1.0, 14.0)
        by_qn = {(l.eta, l.nu, l.mu): l.energy for l in levels}
        for (eta, nu, mu), e in by_qn.items():
            nxt = by_qn.get((eta, nu + 1, mu))
            if nxt is not None:
                assert nxt - e == pytest.approx(2.0, abs=1e-12)

    def test_mu_multiples_of_three(self):
        levels = calogero_moser_spectrum(1.0, 1.0, 14.0)
        assert all(l.mu % 3 == 0 for l in levels)
        nonzero = sorted({abs(l.mu) for l in levels if l.mu != 0})
        assert nonzero[0] == 3

    def test_units_rescaling(self):
        m, hb, w, gn = 0.5, 2.0, 1.3, 0.7
        nat = [l.energy for l in calogero_moser_spectrum(1.0, gn, 9.0)]
        exp = [l.energy for l in calogero_moser_spectrum(
            w, gn * hb**2 / m, 9.0 * hb * w, mass=m, hbar=hb)]
        assert np.allclose(exp, hb * w * np.array(nat), rtol=1e-12)

    def test_fit_protocol_prefers_derived_radical(self):
        fit = fit_cm_exponent(1.0, 1.0,
                              grid=PolarGrid(7.5, 120, math.pi / 6, math.pi / 2, 80))
        assert fit.winner == "derived_4mg"
        assert fit.fitted == pytest.approx((1 + math.sqrt(5)) / 2, abs=2e-3)

    def test_requires_positive_gamma(self):
        with pytest.raises(ValueError):
            calogero_moser_spectrum(1.0, 0.0, 5.0)


class TestUnitaryContact:
    def test_ground_is_fermionic_filling(self, harmonic_sigma1):
        levels = unitary_contact_spectrum(harmonic_sigma1, 7.0)
        assert levels[0].energy == pytest.approx(4.5)
        assert levels[0].base == (0, 1, 2)

    def test_every_level_sixfold(self, harmonic_sigma1):
        levels = unitary_contact_spectrum(harmonic_sigma1, 9.0)
        assert all(lv.degeneracy == 6 for lv in levels)

    def test_energies_subset_of_composition(self, harmonic_sigma1):
        contact = {round(lv.energy, 9)
                   for lv in unitary_contact_spectrum(harmonic_sigma1, 8.6)}
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
        top = [lv.base for lv in levels if abs(lv.energy - 1.95) < 1e-9]
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
    levels = [SilverLevel(0, 0, 0, 1.0000000004999),
              SilverLevel(1, 0, 0, 1.0000000005001),
              SilverLevel(0, 1, 0, 3.0)]
    rows = silver_levels_to_csv("harm_harm", levels).splitlines()[1:]
    assert [r.rsplit(",", 1)[1] for r in rows] == ["2", "2", "1"]


def _one_body(omega):
    return analytic_spectrum(HarmonicTrap(omega), 40)


# spectrum(omega, gamma, e_max) and the lowest member energy of a level
SPECTRA = {
    "harm_harm": (harm_harm_spectrum, lambda lv, eps: lv.energy),
    "calogero_moser": (calogero_moser_spectrum, lambda lv, eps: lv.energy),
    "noninteracting": (
        lambda w, g, e_max: compose_spectrum(_one_body(w), e_max),
        lambda lv, eps: min(eps[i] + eps[j] + eps[k]
                            for i, j, k in lv.multisets)),
    "unitary_contact": (
        lambda w, g, e_max: unitary_contact_spectrum(_one_body(w), e_max),
        lambda lv, eps: lv.energy),
}


def _loop_levels(energy, mu_step, e_max):
    """Reference enumeration: plain loops over (eta, nu, j), |mu| = mu_step * j."""
    out = []
    for eta in range(int(e_max) + 1):
        for nu in range(int(e_max) + 1):
            for j in range(int(e_max) + 1):
                e = energy(eta, nu, mu_step * j)
                if e <= e_max:
                    out += [SilverLevel(eta, nu, mu, e) for mu in sorted(
                        {-mu_step * j, mu_step * j})]
    return sorted(out, key=lambda l: (l.energy, l.eta, l.nu, l.mu))


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
        wider = [lv for lv in calogero_moser_spectrum(w, g, e_max + 5.0)
                 if lv.energy <= e_max]
        assert len(wider) == 155
        assert calogero_moser_spectrum(w, g, e_max) == wider

    def test_nan_window_is_empty(self):
        assert harm_harm_spectrum(1.0, 0.5, math.nan) == []
        assert calogero_moser_spectrum(1.0, 1.0, math.nan) == []

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
        lows = [lowest(lv, eps) for lv in wide]
        # e_max at, or a few grouping widths from, a level in the lower half
        e_at = lows[level % (len(lows) // 2 + 1)]
        e_max = e_at * (1 + shift * GROUP_TOLERANCE)
        cut = energy_cutoff(e_max, GROUP_TOLERANCE)
        levels = spectrum(omega, gamma, e_max)
        assert levels == wide[:len(levels)]
        n_in = sum(1 for e in lows if e <= cut)
        assert len(levels) >= n_in
        for e in lows[n_in:len(levels)]:
            assert e - lows[n_in - 1] <= GROUP_TOLERANCE * max(1.0, abs(e))
