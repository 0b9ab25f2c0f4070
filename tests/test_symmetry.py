import math
from itertools import permutations
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from threebody1d import jacobi as J
from threebody1d import symmetry
from threebody1d.errors import (
    NonIntegerMultiplicity,
    NonInvariantSubspace,
    NotClosed,
    NotUnitary,
)
from threebody1d.models import HarmonicTrap
from threebody1d.onebody import analytic_spectrum
from threebody1d.composition import compose_spectrum, multiset_class
from threebody1d.solvable import unitary_contact_spectrum
from threebody1d.symmetry import (
    build_group,
    decompose_eigenspace,
    decompositions_to_json,
    bosonic_spectrum,
    fermionic_spectrum,
    irrep_towers,
    orbit_rep_for_multisets,
    project,
    projector,
    representation_on_space,
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


def outcome(group, rep):
    """The multiplicities, or the type and message of the error raised."""
    try:
        return decompose_eigenspace(group, rep)
    except (NonIntegerMultiplicity, NonInvariantSubspace) as exc:
        return type(exc), str(exc)


def dense_check():
    """Patch that records whether ``_is_homomorphism`` runs."""
    return mock.patch.object(symmetry, "_is_homomorphism",
                             wraps=symmetry._is_homomorphism)


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
    def test_p3_on_configuration_coords(self):
        g = build_group("S3")
        mats = representation_on_space(
            g, lambda p, v: J.perm_matrix(p) @ v, np.eye(3))
        for i, p in enumerate(g.elements):
            assert np.allclose(mats[i], J.perm_matrix(p))
        assert np.allclose(mats[g.index((1, 2, 3))], np.eye(3))

    def test_sector_rep_is_regular(self):
        mats = as_matrices(sector_permutation_rep())
        # regular representation: identity is the only element with trace 6
        traces = [np.trace(m) for m in mats]
        assert sorted(traces) == [0, 0, 0, 0, 0, 6]

    def test_not_closed(self):
        g = build_group("S3")
        basis = np.eye(3)[:, :1]  # span{e1} is not permutation invariant
        with pytest.raises(NotClosed):
            representation_on_space(g, lambda p, v: J.perm_matrix(p) @ v, basis)

    def test_not_unitary(self):
        g = build_group("S3")
        with pytest.raises((NotUnitary, NotClosed)):
            representation_on_space(
                g, lambda p, v: 2.0 * (J.perm_matrix(p) @ v), np.eye(3))


class TestProjectors:
    def setup_method(self):
        self.g = build_group("S3")
        perm, self.triples = orbit_rep_for_multisets([(0, 1, 2)], self.g)
        self.mats = as_matrices(perm).astype(complex)

    def test_projector_identities(self):
        ps = {mu: projector(self.g, mu, self.mats) for mu in self.g.irreps}
        total = sum(ps.values())
        assert np.linalg.norm(total - np.eye(6)) < 1e-10
        for mu, p in ps.items():
            assert np.linalg.norm(p @ p - p) < 1e-10
            for nu, q in ps.items():
                if nu != mu:
                    assert np.linalg.norm(p @ q) < 1e-10

    def test_symmetrizer_rank_one(self):
        basis = project(self.g, "[3]", self.mats)
        assert basis.shape[1] == 1
        # the symmetric combination is uniform over the orbit
        v = np.abs(basis[:, 0])
        assert np.allclose(v, 1 / math.sqrt(6), atol=1e-12)

    def test_antisymmetrizer_slater_signs(self):
        basis = project(self.g, "[1^3]", self.mats)
        assert basis.shape[1] == 1
        v = basis[:, 0].real
        v /= v[self.triples.index((0, 1, 2))] * math.sqrt(6)
        for i, t in enumerate(self.triples):
            sign = J.perm_sign(tuple(np.argsort(t) + 1))
            assert v[i] * math.sqrt(6) * sign == pytest.approx(
                v[self.triples.index((0, 1, 2))] * math.sqrt(6), abs=1e-12)

    def test_mixed_irrep_rank_four(self):
        basis = project(self.g, "[21]", self.mats)
        assert basis.shape[1] == 4  # 2 copies x dimension 2


class TestDecomposition:
    def test_regular_rep_content(self):
        g = build_group("S3")
        perm = sector_permutation_rep()
        mult = decompose_eigenspace(g, perm)
        assert mult == {"[3]": 1, "[21]": 2, "[1^3]": 1}
        assert decompose_eigenspace(g, as_matrices(perm).astype(complex)) == mult

    def test_threefold_space(self):
        g = build_group("S3")
        perm, _ = orbit_rep_for_multisets([(0, 0, 1)], g)
        mult = decompose_eigenspace(g, perm)
        assert mult == {"[3]": 1, "[21]": 1, "[1^3]": 0}
        assert decompose_eigenspace(g, as_matrices(perm).astype(complex)) == mult

    def test_singlet_space(self):
        g = build_group("S3")
        perm, _ = orbit_rep_for_multisets([(0, 0, 0)], g)
        mult = decompose_eigenspace(g, perm)
        assert mult == {"[3]": 1, "[21]": 0, "[1^3]": 0}
        assert decompose_eigenspace(g, as_matrices(perm).astype(complex)) == mult

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

    def test_non_integer_multiplicity_raises(self):
        g = build_group("S3")
        mats = as_matrices(sector_permutation_rep()).astype(complex)
        mats[1] *= 0.9  # break the representation
        with pytest.raises(NonIntegerMultiplicity), dense_check() as dense:
            decompose_eigenspace(g, mats)
        assert dense.called

    def test_non_integer_character_raises(self):
        # a near-representation within the table tolerance whose
        # characters are off by more than the multiplicity tolerance
        g = build_group("S3")
        mats = as_matrices(sector_permutation_rep()).astype(complex)
        mats[0] *= 1 + 1e-10  # m_[3] = 1 + 1e-10
        with pytest.raises(NonIntegerMultiplicity, match="not an integer"), \
                dense_check() as dense:
            decompose_eigenspace(g, mats, tol=1e-12)
        assert dense.called

    def test_corrupted_permutation_index_raises(self):
        g = build_group("S3")
        perm, triples = orbit_rep_for_multisets([(0, 1, 2)], g)
        p = g.index((2, 1, 3))
        col = triples.index((0, 1, 2))
        perm[p, col] = (perm[p, col] + 1) % 6
        assert not symmetry._is_homomorphism(g, as_matrices(perm))
        # the exact check, on the index arrays themselves, raises
        with pytest.raises(NonIntegerMultiplicity, match="multiplication table"), \
                dense_check() as dense:
            decompose_eigenspace(g, perm)
        assert not dense.called

    @pytest.mark.parametrize("entry", (1.0, 0.5, -1.0, np.nan))
    def test_other_sets_take_the_dense_check(self, entry):
        # a second nonzero in one column of the regular representation
        g = build_group("S3")
        mats = as_matrices(sector_permutation_rep(g))
        row = mats[3, :, 2].argmin()
        mats[3, row, 2] = entry
        with pytest.raises(NonIntegerMultiplicity, match="table"), \
                dense_check() as dense:
            decompose_eigenspace(g, mats)
        assert dense.called

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
        fast = outcome(g, perm)
        dense = outcome(g, mats)
        assert fast == dense
        table_error = isinstance(fast, tuple) and "table" in fast[1]
        assert symmetry._is_homomorphism(g, mats) != table_error

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
        assert bosonic_spectrum(towers)[0] == pytest.approx(1.5)
        assert fermionic_spectrum(towers)[0] == pytest.approx(4.5)

    def test_unitary_contact_towers(self, harmonic_sigma1):
        g = build_group("S3")
        mats = as_matrices(sector_permutation_rep()).astype(complex)
        decomps = [(lv.energy, decompose_eigenspace(g, mats))
                   for lv in unitary_contact_spectrum(harmonic_sigma1, 7.6)]
        towers = irrep_towers(decomps)
        # Bose-Fermi degeneracy at unitarity
        assert bosonic_spectrum(towers)[0] == pytest.approx(4.5)
        assert fermionic_spectrum(towers)[0] == pytest.approx(4.5)

    def test_unitary_contact_towers_one_row_per_energy(self, harmonic_sigma1):
        g = build_group("S3")
        regular = decompose_eigenspace(g, sector_permutation_rep())
        levels = unitary_contact_spectrum(harmonic_sigma1, 12.0)
        towers = irrep_towers([(lv.energy, regular) for lv in levels])
        # E = 7.5 has the three bases (0,1,5), (0,2,4) and (1,2,3)
        assert (7.5, 3) in towers["[3]"] and (7.5, 6) in towers["[21]"]
        for rows in towers.values():
            energies = [e for e, _ in rows]
            assert energies == sorted(set(energies))
        assert sum(m for _, m in towers["[3]"]) == len(levels)

    def test_json_export(self):
        g = build_group("S3")
        mult = decompose_eigenspace(g, sector_permutation_rep())
        text = decompositions_to_json([(4.5, mult)])
        assert '"E": 4.5' in text
        assert '"[21]": 2' in text
