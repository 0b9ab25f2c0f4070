import csv
import io
import math
from collections import Counter
from itertools import permutations

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from threebody1d.composition import (
    CLASS_SIZE,
    _column,
    _csv_text,
    _triples,
    compose_spectrum,
    energy_cutoff,
    energy_runs,
    levels_to_csv,
    multiset_class,
)
from threebody1d.errors import TruncationRisk
from threebody1d.grids import Grid1D
from threebody1d.models import HarmonicTrap, InfiniteWell
from threebody1d.onebody import analytic_spectrum, grid_spectrum_1d


def loop_window_top(energies, e_max, tol):
    """Reference window rule: runs of the distinct energies, each kept
    whole when its lowest member is within the widened edge."""
    cut, top, e0 = e_max + tol * max(1.0, abs(e_max)), -math.inf, None
    for e in sorted(set(energies)):
        if e0 is None or e - e0 > tol * max(1.0, abs(e0)):
            if e > cut:
                break
            e0 = e
        top = e
    return top


def loop_triples(eps, e_max, tol, distinct):
    """Reference enumerator: nested loops over i <= j <= k (i < j < k when
    ``distinct``), each cut where (eps_i + eps_j) + eps_k first passes
    the window's reach, then sorted and cut by the window rule."""
    eps = [float(x) for x in eps]
    d, n = int(distinct), len(eps)
    if n < 1 + 2 * d:
        raise TruncationRisk("too few one-body levels")
    cut = e_max + tol * max(1.0, abs(e_max))
    if eps[0] + eps[d] + eps[2 * d] > cut:
        return []
    reach = cut + tol * max(1.0, abs(cut))
    if eps[0] + eps[d] + eps[-1] <= reach:
        raise TruncationRisk("one-body spectrum too shallow")
    entries = []
    for i in range(n - 2 * d):
        if eps[i] + eps[i + d] + eps[i + 2 * d] > reach:
            break
        for j in range(i + d, n - d):
            if eps[i] + eps[j] + eps[j + d] > reach:
                break
            for k in range(j + d, n):
                e = eps[i] + eps[j] + eps[k]
                if e > reach:
                    break
                entries.append((e, (i, j, k)))
    entries.sort()
    top = loop_window_top([e for e, _ in entries], e_max, tol)
    return [t for t in entries if t[0] <= top]


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
        flagged = {round(lv.energy, 6) for lv in levels if lv.accidental}
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
        got_flags = {round(lv.energy, 9) for lv in levels if lv.accidental}
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
        assert not any(lv.accidental for lv in levels)
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


@given(eps0=st.floats(0.01, 2.0), gaps=st.lists(st.one_of(
    st.floats(0.05, 3.0), st.sampled_from([0.0, 1e-12, 1e-9])),
    min_size=3, max_size=12))
@settings(max_examples=100, deadline=None)
def test_degeneracy_counts_the_ordered_triples(eps0, gaps):
    """Per level: degeneracy = the sum of its class sizes = the number of
    distinct ordered triples its multisets refine into."""
    eps = np.cumsum([eps0, *gaps])
    try:
        levels = compose_spectrum(eps, 3 * eps[len(eps) // 3])
    except TruncationRisk:
        return
    for lv in levels:
        ordered = {t for ms in lv.multisets for t in permutations(ms)}
        assert lv.degeneracy == sum(CLASS_SIZE[c] for c in lv.classes) \
            == len(ordered)


def test_grid_spectrum_groups_within_its_error():
    # a grid spectrum is grouped within 10x its error estimate; grouped
    # as bare floats, the same energies split each oscillator shell
    sigma1 = grid_spectrum_1d(HarmonicTrap(1.0), Grid1D(-8.0, 8.0, 512), 7)
    levels = compose_spectrum(sigma1, 4.6)
    assert [lv.degeneracy for lv in levels] == [1, 3, 6, 10]
    raw = compose_spectrum(np.asarray(sigma1.energies), 4.6)
    assert [lv.degeneracy for lv in raw] == [1, 3, 3, 3, 3, 6, 1]


def test_csv_export(harmonic_sigma1):
    text = levels_to_csv(compose_spectrum(harmonic_sigma1, 3.6))
    lines = text.strip().split("\n")
    assert lines[0] == "E,degeneracy,class_list,accidental"
    assert lines[1] == "1.5,1,0+0+0:nondegenerate,0"
    assert lines[3].endswith(",1")  # accidental level


# cells of any ASCII but NUL, the writer's pad byte
WORDS = st.text(st.characters(min_codepoint=1, max_codepoint=127), max_size=4)
INTS = st.one_of(st.integers(-3, 3), st.integers(-10**12, 10**12))


@given(data=st.data(), rows=st.integers(0, 8), width=st.integers(1, 4))
@settings(max_examples=300, deadline=None)
def test_csv_text_is_csv_writer_or_refuses(data, rows, width):
    # int columns through _column; word columns coded by first use
    header = data.draw(st.lists(WORDS, min_size=width, max_size=width))
    columns, table = [], []
    for _ in range(width):
        if data.draw(st.booleans()):
            values = data.draw(st.lists(INTS, min_size=rows, max_size=rows))
            columns.append(_column(values))
        else:
            values = data.draw(st.lists(WORDS, min_size=rows, max_size=rows))
            cells = list(dict.fromkeys(values))
            columns.append((cells, np.array([cells.index(v) for v in values],
                                            dtype=int)))
        table.append(values)
    buf = io.StringIO()
    csv.writer(buf, lineterminator="\n").writerows([header, *zip(*table)])
    plain = "".join(",".join(map(str, row)) + "\n"
                    for row in [header, *zip(*table)])
    # csv.writer leaves a \r unquoted, but its reader ends a line there
    if buf.getvalue() == plain and "\r" not in plain:
        assert _csv_text(header, columns, rows) == plain
    else:
        with pytest.raises(ValueError):
            _csv_text(header, columns, rows)


@pytest.mark.parametrize("cell", ["a,b", 'a"b', "a\rb", "a\nb"])
def test_csv_text_refuses_a_cell_that_needs_quoting(cell):
    assert _csv_text(["x", "y"], ["a", _column([1])], 1) == "x,y\na,1\n"
    for header, columns in ((["x", "y"], [([cell], [0]), _column([1])]),
                            (["x", "y"], [cell, _column([1])]),
                            (["x", cell], ["a", _column([1])])):
        with pytest.raises(ValueError):
            _csv_text(header, columns, 1)


def test_csv_text_with_no_rows_is_its_header():
    empty = np.zeros(0, dtype=int)
    assert _csv_text(["E", "n"], [([], empty), _column(empty)], 0) \
        == "E,n\n"
    assert levels_to_csv([]) == "E,degeneracy,class_list,accidental\n"


# one-body gaps: ordinary ones, and ones at or below the grouping widths
GAPS = st.one_of(st.floats(0.05, 3.0), st.sampled_from(
    [0.0, 1e-15, 1e-12, 4e-10, 1e-9, 3e-7, 1e-6]))


@given(eps0=st.floats(0.01, 2.0), gaps=st.lists(GAPS, max_size=14),
       distinct=st.booleans(), tol=st.sampled_from([1e-12, 1e-9, 1e-6]),
       edge=st.tuples(*[st.integers(0, 20)] * 3),
       shift=st.sampled_from([-2.0, -1.0, -0.3, 0.0, 0.3, 1.0, 2.0, 1e3]))
# fewer one-body levels than a distinct triple needs
@example(eps0=0.5, gaps=[1.0], distinct=True, tol=1e-9, edge=(0, 0, 0),
         shift=0.0)
# a window reaching past the top one-body level
@example(eps0=0.5, gaps=[1.0, 1.0, 1.0], distinct=False, tol=1e-9,
         edge=(3, 3, 3), shift=0.0)
# index triples tied at one float energy, ordered by i before j
@example(eps0=1.1052707323049993, gaps=[
    1e-12, 1e-06, 1e-15, 1e-12, 2.693229348671444, 0.36826595508851584,
    1.5504902254159303, 1e-12, 1e-09, 2.147285143935831, 1e-15, 1e-12, 4e-10],
    distinct=False, tol=1e-06, edge=(2, 2, 5), shift=0.3)
@settings(max_examples=300, deadline=None)
def test_triples_equal_loop_reference(eps0, gaps, distinct, tol, edge, shift):
    """The numpy enumerator returns the loop enumerator's triples: the
    same index triples in the same order, at bit-equal energies, or the
    same TruncationRisk."""
    eps = np.cumsum([eps0, *gaps])
    # e_max at, or a few grouping widths from, a triple energy
    a, b, c = (min(q, len(eps) - 1) for q in edge)
    e_max = (eps[a] + eps[b] + eps[c]) * (1 + shift * tol)
    try:
        ref = loop_triples(eps, e_max, tol, distinct)
    except TruncationRisk:
        with pytest.raises(TruncationRisk):
            _triples(eps, e_max, tol, distinct=distinct)
        return
    e, ijk = _triples(eps, e_max, tol, distinct=distinct)
    assert e.tolist() == [x for x, _ in ref]
    assert list(map(tuple, ijk.tolist())) == [t for _, t in ref]


def test_triples_keep_the_sum_that_rounds_onto_the_reach():
    # the cut falls on (0,0,0) and the reach on (0,0,1), one grouping
    # width above it, so (0,0,1) is kept; but reach - (eps_0 + eps_0)
    # rounds below eps_1, so a search on that difference alone drops it
    eps = np.array([0.4716536944319778, 0.4716551093930611,
                    0.4716607692373943, 4.7165369443197775, 5.188190638751756])
    e_max, tol = 1.414959668336265, 1e-6
    reach = energy_cutoff(energy_cutoff(e_max, tol), tol)
    assert reach == eps[0] + eps[0] + eps[1]
    assert reach - (eps[0] + eps[0]) < eps[1]
    e, ijk = _triples(eps, e_max, tol, distinct=False)
    assert ijk.tolist() == [[0, 0, 0], [0, 0, 1]]
    assert e.tolist() == [x for x, _ in loop_triples(eps, e_max, tol, False)]


def test_energy_runs_hold_what_lies_within_the_width_of_their_start():
    # a run holds every energy within tol * max(1, |E0|) of its first, E0
    assert energy_runs([], 1e-9) == [0]
    assert energy_runs([1.0, 1.0 + 2**-20, 1.0 + 2**-19], 2**-20) == [0, 2, 3]
    # below 1 the width is tol itself
    assert energy_runs([0.5, 0.5 + 0.75e-9, 0.5 + 1.5e-9], 1e-9) == [0, 2, 3]
    assert energy_runs([3.0, 3.0, 3.0 + 2e-9, 4.0, 4.0], 1e-9) == [0, 3, 5]
