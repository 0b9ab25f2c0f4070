import math
from collections import Counter

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from threebody1d.composition import (
    CLASS_SIZE,
    compose_spectrum,
    detect_accidental,
    levels_to_csv,
    multiset_class,
)
from threebody1d.errors import TruncationRisk
from threebody1d.models import HarmonicTrap, InfiniteWell
from threebody1d.onebody import analytic_spectrum


def brute_force_ordered_triples(eps, e_max):
    """Independent enumeration oracle: all ordered triples with E <= e_max."""
    eps = np.asarray(eps)
    out = []
    n = len(eps)
    for a in range(n):
        for b in range(n):
            for c in range(n):
                e = eps[a] + eps[b] + eps[c]
                if e <= e_max + 1e-12:
                    out.append((float(e), (a, b, c)))
    return out


class TestClasses:
    def test_class_tags(self):
        assert multiset_class((3, 3, 3)) == "nondegenerate"
        assert multiset_class((0, 0, 1)) == "threefold"
        assert multiset_class((1, 2, 2)) == "threefold"
        assert multiset_class((0, 1, 2)) == "sixfold"

    def test_class_sizes_are_orbit_sizes(self):
        from itertools import permutations

        for ms in [(0, 0, 0), (0, 0, 1), (0, 1, 1), (0, 1, 2), (2, 5, 9)]:
            assert CLASS_SIZE[multiset_class(ms)] == len(set(permutations(ms)))


class TestHarmonic:
    def test_ground_level(self, harmonic_sigma1):
        levels = compose_spectrum(harmonic_sigma1, 3.0)
        assert len(levels) == 2
        lv = levels[0]
        assert lv.energy == pytest.approx(1.5)
        assert lv.degeneracy == 1
        assert lv.multisets == ((0, 0, 0),)
        assert lv.classes == ("nondegenerate",)

    def test_first_excited(self, harmonic_sigma1):
        lv = compose_spectrum(harmonic_sigma1, 2.6)[1]
        assert lv.energy == pytest.approx(2.5)
        assert lv.multisets == ((0, 0, 1),)
        assert lv.classes == ("threefold",)
        assert lv.degeneracy == 3

    def test_accidental_at_3_5(self, harmonic_sigma1):
        lv = compose_spectrum(harmonic_sigma1, 3.6)[2]
        assert lv.energy == pytest.approx(3.5)
        assert lv.multisets == ((0, 0, 2), (0, 1, 1))
        assert lv.degeneracy == 6
        assert lv.accidental

    def test_oscillator_degeneracy_formula(self, harmonic_sigma1):
        levels = compose_spectrum(harmonic_sigma1, 8.6)
        for i, lv in enumerate(levels):
            assert lv.degeneracy == (i + 1) * (i + 2) // 2

    def test_total_count_matches_ordered_triples(self, harmonic_sigma1):
        e_max = 6.5
        levels = compose_spectrum(harmonic_sigma1, e_max)
        ordered = brute_force_ordered_triples(harmonic_sigma1.energies, e_max)
        assert sum(lv.degeneracy for lv in levels) == len(ordered)

    def test_accidental_report(self, harmonic_sigma1):
        levels = compose_spectrum(harmonic_sigma1, 6.6)
        flagged = {round(r["energy"], 6) for r in detect_accidental(levels)}
        assert flagged == {3.5, 4.5, 5.5, 6.5}


class TestWell:
    def test_report_matches_enumeration_oracle(self):
        # energies (n+1)^2/2 for L = pi; coincidences are Pythagorean-type
        sigma1 = analytic_spectrum(InfiniteWell(math.pi), 9)
        e_max = 30.0
        levels = compose_spectrum(sigma1, e_max)
        ordered = brute_force_ordered_triples(sigma1.energies, e_max)
        counts = Counter(round(e, 9) for e, _ in ordered)
        by_energy = {round(lv.energy, 9): lv.degeneracy for lv in levels}
        assert by_energy == dict(counts)
        # flags = energies whose ordered-triple count exceeds the largest
        # orbit of a single multiset at that energy
        expected_flags = set()
        for e, cnt in counts.items():
            multis = {tuple(sorted(t)) for ee, t in ordered if round(ee, 9) == e}
            if len(multis) > 1:
                expected_flags.add(e)
        got_flags = {round(r["energy"], 9) for r in detect_accidental(levels)}
        assert got_flags == expected_flags
        # 54/2 = 27: three distinct multisets coincide there
        assert 27.0 in got_flags

    def test_known_coincidence_54(self):
        sigma1 = analytic_spectrum(InfiniteWell(math.pi), 9)
        levels = compose_spectrum(sigma1, 28.0)
        at27 = [lv for lv in levels if abs(lv.energy - 27.0) < 1e-9]
        assert len(at27) == 1
        assert set(at27[0].multisets) == {(0, 1, 6), (1, 4, 4), (2, 2, 5)}


class TestGeneric:
    def test_incommensurate_spectrum_no_accidentals(self):
        rng = np.random.default_rng(11)
        eps = np.cumsum(rng.uniform(0.5, 1.5, 30))
        levels = compose_spectrum(eps, eps[0] * 2 + eps[12])
        assert detect_accidental(levels) == []
        assert all(len(lv.multisets) == 1 for lv in levels)

    def test_window_keeps_group_straddling_cutoff(self):
        # the group anchored at 3.0 is admitted, and its members at
        # 3 + 1.4e-6 and 3 + 2.8e-6 lie past the cut at about 3 + 1e-6
        eps = [1.0, 1.0 + 1.4e-6, 5.0, 6.0]
        levels = compose_spectrum(eps, 3.0 - 2e-6, tol_group=1e-6)
        assert len(levels) == 1
        assert levels[0].multisets == ((0, 0, 0), (0, 0, 1), (0, 1, 1))
        assert levels[0].degeneracy == 7

    def test_truncation_risk(self, harmonic_sigma1):
        with pytest.raises(TruncationRisk):
            compose_spectrum(harmonic_sigma1.energies[:4], 6.5)

    @given(st.lists(st.floats(min_value=0.1, max_value=3.0), min_size=6,
                    max_size=15))
    # (0,0,3) and (0,1,2) coincide at e_max, but their float sums round
    # to either side of it
    @example(gaps=[2.379148381250149, 0.1, 0.5, 0.1, 1.0, 1.0])
    @example(gaps=[1.0, 0.5498725342535943, 3.0, 0.5498725342535943, 1.0, 1.0])
    @settings(max_examples=40, deadline=None)
    def test_count_identity_random_spectra(self, gaps):
        eps = np.cumsum(np.asarray(gaps))
        e_max = 2 * eps[0] + eps[len(eps) // 2]
        if 2 * eps[0] + eps[-1] <= e_max:
            return
        levels = compose_spectrum(eps, e_max, tol_group=1e-12)
        assert sum(lv.degeneracy for lv in levels) == len(
            brute_force_ordered_triples(eps, e_max))
        for lv in levels:
            assert lv.energy == pytest.approx(
                sum(eps[i] for i in lv.multisets[0]), rel=1e-12)


def test_csv_export(harmonic_sigma1):
    text = levels_to_csv(compose_spectrum(harmonic_sigma1, 3.6))
    lines = text.strip().split("\n")
    assert lines[0] == "E,degeneracy,class_list,accidental"
    assert lines[1] == "1.5,1,0+0+0:nondegenerate,0"
    assert lines[3].endswith(",1")  # accidental level
