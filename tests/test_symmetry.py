import dataclasses
import json
import math
from itertools import permutations

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from threebody1d import jacobi as J
from threebody1d.errors import NonIntegerMultiplicity, NonInvariantSubspace
from threebody1d.models import HarmonicTrap
from threebody1d.onebody import analytic_spectrum
from threebody1d.composition import compose_spectrum, multiset_class
from threebody1d.solvable import unitary_contact_spectrum
from threebody1d.symmetry import (
    build_group,
    decompose_eigenspace,
    decompositions_to_json,
    irrep_towers,
    orbit_rep_for_multisets,
    sector_permutation_rep,
)

# S3 content of the orbit of one multiset {n1 <= n2 <= n3}, by its class
CLASS_TABLE = {
    "sixfold": {"[3]": 1, "[21]": 2, "[1^3]": 1},
    "threefold": {"[3]": 1, "[21]": 1},
    "nondegenerate": {"[3]": 1},
}

MULTISETS = st.lists(st.tuples(*[st.integers(-3, 8)] * 3), max_size=6)


def as_matrices(perm):
    """Dense 0/1 matrices D(g)[perm[g, i], i] = 1 of index arrays."""
    order, dim = perm.shape
    mats = np.zeros((order, dim, dim))
    mats[np.arange(order)[:, None], perm, np.arange(dim)] = 1.0
    return mats


def loop_orbit_rep(multisets, group):
    """Reference for ``orbit_rep_for_multisets``: one lambda call per
    (element, triple)."""
    triples = tuple(sorted({t for ms in multisets for t in permutations(ms)}))
    index = {t: i for i, t in enumerate(triples)}
    image = lambda p, t: tuple(t[p.index(b)] for b in (1, 2, 3))  # noqa: E731
    mats = np.zeros((group.order, len(triples), len(triples)))
    for gi, p in enumerate(group.elements):
        for i, t in enumerate(triples):
            mats[gi, index[image(p, t)], i] = 1.0
    return mats, triples


def is_homomorphism(group, mats):
    """Dense reference: whether D(g) D(h) = D(gh) holds for all pairs of
    matrices, per ``group.table``."""
    for i in range(group.order):
        resid = np.linalg.norm(mats[i] @ mats - mats[group.table[i]],
                               axis=(-2, -1))
        if not np.all(resid <= 1e-8):
            return False
    return True


def dense_decompose(group, mats):
    """Dense reference for ``decompose_eigenspace``: the same rules and
    errors on (order, d, d) matrices, with the table checked by
    ``is_homomorphism`` and the traces taken as diagonal sums."""
    if not is_homomorphism(group, mats):
        raise NonIntegerMultiplicity(
            "matrices do not satisfy the multiplication table, so they "
            "are not a representation and have no multiplicities")
    traces = np.einsum("gii->g", mats)
    mult = {}
    for label, chi in group.irreps.items():
        m = float(np.real(np.dot(chi, traces))) / group.order
        if abs(m - round(m)) > 1e-6:
            raise NonIntegerMultiplicity(
                f"multiplicity of {label} is {m:.8f}, not an integer")
        mult[label] = round(m)
    if sum(mult[l] * group.dims[l] for l in mult) != mats.shape[1]:
        raise NonInvariantSubspace(
            "multiplicities do not exhaust the space; the subspace is "
            "probably not invariant")
    return mult


def outcome(decompose, group, rep):
    """The multiplicities, or the type and message of the error raised."""
    try:
        return decompose(group, rep)
    except (NonIntegerMultiplicity, NonInvariantSubspace) as exc:
        return type(exc), str(exc)


class TestGroups:
    @pytest.mark.parametrize("name,order", [("S3", 6), ("D3d", 12), ("D6h", 24)])
    def test_orders(self, name, order):
        g = build_group(name)
        assert g.order == order
        assert sum(d * d for d in g.dims.values()) == order

    def test_s3_irrep_dimensions(self):
        g = build_group("S3")
        assert g.dims == {"[3]": 1, "[21]": 2, "[1^3]": 1}

    def test_character_orthogonality_exact(self):
        for name in ("S3", "D3d", "D6h"):
            g = build_group(name)
            labels = list(g.irreps)
            for a in labels:
                for b in labels:
                    dot = int(np.dot(g.irreps[a], g.irreps[b]))
                    assert dot == (g.order if a == b else 0)

    def test_s3_classes(self):
        g = build_group("S3")
        sizes = sorted(len(c) for c in g.classes)
        assert sizes == [1, 2, 3]

    def test_21_characters_from_geometric_blocks(self):
        # traces of the explicit orthogonal 2x2 matrices acting on (q2, q3)
        g = build_group("S3")
        blocks = J.p3_relative_blocks()
        chi = g.irreps["[21]"]
        for i, p in enumerate(g.elements):
            assert np.trace(blocks[p]) == pytest.approx(chi[i], abs=1e-12)

    def test_d3d_is_s3_times_z2(self):
        g = build_group("D3d")
        assert all(isinstance(e, tuple) and e[1] in (1, -1) for e in g.elements)
        # the parity-odd totally symmetric irrep flips sign on odd elements
        chi = g.irreps["[3]-"]
        for i, (perm, s) in enumerate(g.elements):
            assert chi[i] == (1 if s == 1 else -1)


class TestRepresentations:
    def test_sector_rep_is_regular(self):
        mats = as_matrices(sector_permutation_rep())
        # regular representation: identity is the only element with trace 6
        traces = [np.trace(m) for m in mats]
        assert sorted(traces) == [0, 0, 0, 0, 0, 6]


class TestDecomposition:
    def test_regular_rep_content(self):
        g = build_group("S3")
        perm = sector_permutation_rep()
        mult = decompose_eigenspace(g, perm)
        assert mult == {"[3]": 1, "[21]": 2, "[1^3]": 1}
        assert dense_decompose(g, as_matrices(perm).astype(complex)) == mult

    def test_threefold_space(self):
        g = build_group("S3")
        perm, _ = orbit_rep_for_multisets([(0, 0, 1)], g)
        mult = decompose_eigenspace(g, perm)
        assert mult == {"[3]": 1, "[21]": 1, "[1^3]": 0}
        assert dense_decompose(g, as_matrices(perm).astype(complex)) == mult

    def test_singlet_space(self):
        g = build_group("S3")
        perm, _ = orbit_rep_for_multisets([(0, 0, 0)], g)
        mult = decompose_eigenspace(g, perm)
        assert mult == {"[3]": 1, "[21]": 0, "[1^3]": 0}
        assert dense_decompose(g, as_matrices(perm).astype(complex)) == mult

    @settings(max_examples=60, deadline=None)
    @given(st.sets(st.tuples(*[st.integers(0, 8)] * 3).map(sorted).map(tuple),
                   min_size=1, max_size=6))
    def test_multiplicities_equal_class_table(self, multisets):
        # the character of the permutation representation on the orbits
        # of distinct multisets is the sum of the class table over them
        g = build_group("S3")
        perm, _ = orbit_rep_for_multisets(multisets, g)
        expected = dict.fromkeys(g.irreps, 0)
        for ms in multisets:
            for mu, m in CLASS_TABLE[multiset_class(ms)].items():
                expected[mu] += m
        assert decompose_eigenspace(g, perm) == expected

    def test_non_integer_character_raises(self):
        # a representation checked against characters that are not the
        # group's: the table holds, but m_[3] = 3/6 is not an integer
        g = build_group("S3")
        perm, _ = orbit_rep_for_multisets([(0, 0, 1)], g)
        identity_only = (np.arange(6) == g.index((1, 2, 3))).astype(int)
        wrong = dataclasses.replace(g, irreps={**g.irreps, "[3]": identity_only})
        with pytest.raises(NonIntegerMultiplicity, match="not an integer"):
            decompose_eigenspace(wrong, perm)

    def test_corrupted_permutation_index_raises(self):
        g = build_group("S3")
        perm, triples = orbit_rep_for_multisets([(0, 1, 2)], g)
        p = g.index((2, 1, 3))
        col = triples.index((0, 1, 2))
        perm[p, col] = (perm[p, col] + 1) % 6
        assert not is_homomorphism(g, as_matrices(perm))
        # the exact check, on the index arrays themselves, raises
        with pytest.raises(NonIntegerMultiplicity, match="multiplication table"):
            decompose_eigenspace(g, perm)

    @settings(max_examples=150, deadline=None)
    @given(MULTISETS.filter(bool), st.data())
    def test_exact_check_agrees_with_dense(self, multisets, data):
        # a permutation representation with its points relabelled and up
        # to two indices overwritten: any one-per-column 0/1 set
        g = build_group("S3")
        perm, _ = orbit_rep_for_multisets(multisets, g)
        d = perm.shape[1]
        sigma = np.array(data.draw(st.permutations(range(d))))
        perm = sigma[perm[:, np.argsort(sigma)]]
        for _ in range(data.draw(st.integers(0, 2))):
            perm[data.draw(st.integers(0, 5)),
                 data.draw(st.integers(0, d - 1))] = data.draw(
                     st.integers(0, d - 1))
        mats = as_matrices(perm)
        assert np.array_equal(mats.argmax(axis=1), perm)
        fast = outcome(decompose_eigenspace, g, perm)
        dense = outcome(dense_decompose, g, mats)
        assert fast == dense
        table_error = isinstance(fast, tuple) and "table" in fast[1]
        assert is_homomorphism(g, mats) != table_error

    def test_dimension_bookkeeping(self, harmonic_sigma1):
        g = build_group("S3")
        for lv in compose_spectrum(harmonic_sigma1, 6.6):
            perm, triples = orbit_rep_for_multisets(lv.multisets, g)
            mult = decompose_eigenspace(g, perm)
            total = sum(m * g.dims[mu] for mu, m in mult.items())
            assert total == lv.degeneracy == len(triples)


class TestPermutationMatrices:
    @settings(max_examples=150, deadline=None)
    @given(MULTISETS)
    def test_orbit_rep_equals_loop_reference(self, multisets):
        g = build_group("S3")
        perm, triples = orbit_rep_for_multisets(multisets, g)
        assert perm.dtype.kind == "i" and perm.shape == (6, len(triples))
        mats = as_matrices(perm)
        ref_mats, ref_triples = loop_orbit_rep(multisets, g)
        assert triples == ref_triples
        assert mats.dtype == ref_mats.dtype and mats.shape == ref_mats.shape
        assert np.array_equal(mats, ref_mats)

    def test_empty_space_has_no_content(self):
        g = build_group("S3")
        perm, triples = orbit_rep_for_multisets([], g)
        assert perm.shape == (6, 0) and triples == ()
        assert decompose_eigenspace(g, perm) == dict.fromkeys(g.irreps, 0)

    def test_sector_rep_is_the_multiplication_table(self):
        g = build_group("S3")
        assert np.array_equal(sector_permutation_rep(g), g.table)


class TestTowers:
    def test_noninteracting_towers(self, harmonic_sigma1):
        g = build_group("S3")
        decomps = []
        for lv in compose_spectrum(harmonic_sigma1, 6.6):
            perm, _ = orbit_rep_for_multisets(lv.multisets, g)
            decomps.append((lv.energy, decompose_eigenspace(g, perm)))
        towers = irrep_towers(decomps)
        assert towers["[3]"][0][0] == pytest.approx(1.5)
        assert towers["[1^3]"][0][0] == pytest.approx(4.5)

    def test_unitary_contact_towers(self, harmonic_sigma1):
        g = build_group("S3")
        mats = as_matrices(sector_permutation_rep()).astype(complex)
        energies = unitary_contact_spectrum(harmonic_sigma1, 7.6).energy
        decomps = [(e, dense_decompose(g, mats)) for e in energies.tolist()]
        towers = irrep_towers(decomps)
        # Bose-Fermi degeneracy at unitarity
        assert towers["[3]"][0][0] == pytest.approx(4.5)
        assert towers["[1^3]"][0][0] == pytest.approx(4.5)

    def test_unitary_contact_towers_one_row_per_energy(self, harmonic_sigma1):
        g = build_group("S3")
        regular = decompose_eigenspace(g, sector_permutation_rep())
        levels = unitary_contact_spectrum(harmonic_sigma1, 12.0)
        towers = irrep_towers([(e, regular) for e in levels.energy.tolist()])
        # E = 7.5 has the three bases (0,1,5), (0,2,4) and (1,2,3)
        assert (7.5, 3) in towers["[3]"] and (7.5, 6) in towers["[21]"]
        for rows in towers.values():
            energies = [e for e, _ in rows]
            assert energies == sorted(set(energies))
        assert sum(m for _, m in towers["[3]"]) == len(levels)

    @given(st.lists(st.tuples(
        st.one_of(st.floats(-50, 50), st.sampled_from([0.5, 1.5, math.inf])),
        st.dictionaries(st.sampled_from(["[3]", "[21]", "[1^3]"]) | st.text(),
                        st.integers(-9, 9))), max_size=8))
    def test_json_export_is_json_dumps(self, decomps):
        rows = [{"E": e, "multiplicities": m}
                for e, m in sorted(decomps, key=lambda t: t[0])]
        assert decompositions_to_json(decomps) == json.dumps(
            rows, indent=2, sort_keys=True)

    def test_json_export(self):
        g = build_group("S3")
        mult = decompose_eigenspace(g, sector_permutation_rep())
        text = decompositions_to_json([(4.5, mult)])
        assert '"E": 4.5' in text
        assert '"[21]": 2' in text
