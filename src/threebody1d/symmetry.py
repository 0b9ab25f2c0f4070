"""Finite-group representation machinery for the permutation symmetry.

S3 is built from the six particle permutations; D3d and D6h are its
direct products with one and two inversion factors (total parity, and
relative plus center-of-mass parity).  Character tables are stored as
integers so the orthogonality relations hold exactly.
"""

from __future__ import annotations

import json
from dataclasses import dataclass, field

import numpy as np

from .composition import GROUP_TOLERANCE, group_by_energy
from .errors import NonIntegerMultiplicity, NonInvariantSubspace, NotClosed, NotUnitary
from .jacobi import (
    PERMUTATIONS,
    THREE_CYCLES,
    TRANSPOSITIONS,
    perm_compose,
    perm_sign,
)

S3_IRREP_LABELS = ("[3]", "[21]", "[1^3]")


@dataclass(frozen=True)
class GroupSpec:
    """A finite group with verified multiplication and character tables."""

    name: str
    elements: tuple  # hashable element labels
    table: np.ndarray  # table[i, j] = index of elements[i] * elements[j]
    classes: tuple  # tuple of tuples of element indices
    irreps: dict  # label -> integer character array indexed by element
    dims: dict = field(default_factory=dict)  # label -> irrep dimension

    @property
    def order(self) -> int:
        return len(self.elements)

    def index(self, element) -> int:
        return self.elements.index(element)


def _conjugacy_classes(table: np.ndarray):
    n = table.shape[0]
    inv = np.empty(n, dtype=int)
    identity = next(i for i in range(n) if all(table[i, j] == j for j in range(n)))
    for i in range(n):
        inv[i] = next(j for j in range(n) if table[i, j] == identity)
    seen = set()
    classes = []
    for g in range(n):
        if g in seen:
            continue
        orbit = sorted({table[table[h, g], inv[h]] for h in range(n)})
        classes.append(tuple(orbit))
        seen.update(orbit)
    return tuple(classes)


def _verify_group(g: GroupSpec):
    n = g.order
    assert g.table.shape == (n, n)
    # closure and cancellation: every row/column is a permutation
    for i in range(n):
        assert sorted(g.table[i]) == list(range(n))
        assert sorted(g.table[:, i]) == list(range(n))
    # character row orthogonality, exact in integer arithmetic
    labels = list(g.irreps)
    for a, la in enumerate(labels):
        for lb in labels[a:]:
            dot = int(np.dot(g.irreps[la], g.irreps[lb]))
            assert dot == (n if la == lb else 0), (la, lb, dot)
    assert sum(d * d for d in g.dims.values()) == n


def _build_s3() -> GroupSpec:
    elements = PERMUTATIONS
    n = len(elements)
    table = np.empty((n, n), dtype=int)
    for i, p in enumerate(elements):
        for j, q in enumerate(elements):
            table[i, j] = elements.index(perm_compose(p, q))
    chi = {
        "[3]": np.ones(n, dtype=int),
        "[1^3]": np.array([perm_sign(p) for p in elements], dtype=int),
    }
    chi21 = np.empty(n, dtype=int)
    for i, p in enumerate(elements):
        if p == (1, 2, 3):
            chi21[i] = 2
        elif p in TRANSPOSITIONS:
            chi21[i] = 0
        else:
            assert p in THREE_CYCLES
            chi21[i] = -1
    chi["[21]"] = chi21
    g = GroupSpec(
        name="S3", elements=elements, table=table,
        classes=_conjugacy_classes(table),
        irreps={"[3]": chi["[3]"], "[21]": chi["[21]"], "[1^3]": chi["[1^3]"]},
        dims={"[3]": 1, "[21]": 2, "[1^3]": 1},
    )
    _verify_group(g)
    return g


def _product_with_z2(g: GroupSpec, name: str, suffix=("+", "-")) -> GroupSpec:
    """Direct product G x Z2 with irreps labelled by a parity suffix."""
    elements = tuple((e, s) for e in g.elements for s in (1, -1))
    n = len(elements)
    idx = {e: i for i, e in enumerate(elements)}
    table = np.empty((n, n), dtype=int)
    for i, (a, sa) in enumerate(elements):
        for j, (b, sb) in enumerate(elements):
            prod = (g.elements[g.table[g.index(a), g.index(b)]], sa * sb)
            table[i, j] = idx[prod]
    irreps = {}
    dims = {}
    for label, chi in g.irreps.items():
        for s, suf in zip((1, -1), suffix):
            lab = label + suf
            irreps[lab] = np.array(
                [chi[g.index(a)] * (1 if sa == 1 else s) for a, sa in elements],
                dtype=int)
            dims[lab] = g.dims[label]
    out = GroupSpec(name=name, elements=elements, table=table,
                    classes=_conjugacy_classes(table), irreps=irreps, dims=dims)
    _verify_group(out)
    return out


_CACHE: dict[str, GroupSpec] = {}


def build_group(name: str) -> GroupSpec:
    """S3 (order 6), D3d = S3 x Z2 (12) or D6h = S3 x Z2 x Z2 (24)."""
    if name not in _CACHE:
        if name == "S3":
            _CACHE[name] = _build_s3()
        elif name == "D3d":
            _CACHE[name] = _product_with_z2(build_group("S3"), "D3d")
        elif name == "D6h":
            _CACHE[name] = _product_with_z2(build_group("D3d"), "D6h")
        else:
            raise ValueError(f"unknown group {name!r}")
    return _CACHE[name]


# ---------------------------------------------------------------------------
# representations
# ---------------------------------------------------------------------------

def representation_on_space(group: GroupSpec, action, basis: np.ndarray,
                            tol: float = 1e-10) -> np.ndarray:
    """Matrices of a linear group action restricted to a subspace.

    ``action(element, vector) -> vector`` must map the span of the
    orthonormal ``basis`` columns into itself; the matrix for element i
    lands in result[i].  Raises NotClosed when the action leaves the
    span, NotUnitary when the restriction is not unitary, and checks
    the homomorphism property against the multiplication table.
    """
    basis = np.asarray(basis)
    dim = basis.shape[1]
    mats = np.empty((group.order, dim, dim), dtype=complex)
    for i, g in enumerate(group.elements):
        img = np.column_stack([action(g, basis[:, k]) for k in range(dim)])
        d = basis.conj().T @ img
        if np.linalg.norm(img - basis @ d) > tol * max(1.0, np.linalg.norm(img)):
            raise NotClosed(f"action of {g!r} leaves the given span")
        if np.linalg.norm(d.conj().T @ d - np.eye(dim)) > tol:
            raise NotUnitary(f"restriction of {g!r} is not unitary")
        mats[i] = d
    if not _is_homomorphism(group, mats):
        raise NotClosed("matrices do not satisfy the multiplication table")
    return mats


def _is_homomorphism(group: GroupSpec, mats: np.ndarray,
                     tol: float = 1e-8) -> bool:
    """Whether D(g) D(h) = D(gh) holds for all pairs, per ``group.table``."""
    for i in range(group.order):
        resid = np.linalg.norm(mats[i] @ mats - mats[group.table[i]],
                               axis=(-2, -1))
        if not np.all(resid <= tol):
            return False
    return True


def projector(group: GroupSpec, irrep: str, mats: np.ndarray) -> np.ndarray:
    """P_mu = (d_mu / |G|) sum_g chi_mu(g)* D(g)."""
    chi = group.irreps[irrep]
    d = group.dims[irrep]
    return (d / group.order) * np.tensordot(chi, mats, axes=(0, 0))


def project(group: GroupSpec, irrep: str, mats: np.ndarray,
            tol: float = 1e-10):
    """Projected orthonormal basis (columns) of the isotypic component.

    The projector is checked for idempotence; vectors below ``tol`` in
    singular value are discarded.
    """
    p = projector(group, irrep, mats)
    if np.linalg.norm(p @ p - p) > tol * max(1.0, np.linalg.norm(p)):
        raise NonInvariantSubspace(f"projector for {irrep} is not idempotent")
    u, s, _ = np.linalg.svd(p)
    rank = int(np.sum(s > 0.5))  # eigenvalues of an idempotent are 0 or 1
    return u[:, :rank]


@dataclass(frozen=True)
class IrrepDecomposition:
    energy: float | None
    multiplicities: dict  # irrep label -> int
    bases: dict  # irrep label -> orthonormal columns spanning the component
    dimension: int

    def __post_init__(self):
        total = sum(b.shape[1] for b in self.bases.values())
        assert total == self.dimension


def decompose_eigenspace(group: GroupSpec, mats: np.ndarray,
                         energy: float | None = None,
                         tol: float = 1e-6) -> IrrepDecomposition:
    """Irrep multiplicities of an invariant (eigen)space.

    m_mu = (1/|G|) sum_g chi_mu(g)* tr D(g), rounded to the nearest
    integer; a deviation above ``tol`` is a hard error because it
    signals a missed symmetry or a broken representation.  The matrices
    are first checked against the multiplication table: a set that is
    not a representation has no multiplicities, so it raises
    NonIntegerMultiplicity (CLI exit 3) even when its characters
    happen to be integers.
    """
    if not _is_homomorphism(group, mats):
        raise NonIntegerMultiplicity(
            "matrices do not satisfy the multiplication table, so they "
            "are not a representation and have no multiplicities")
    traces = np.einsum("gii->g", mats)
    mult = {}
    bases = {}
    for label, chi in group.irreps.items():
        m = float(np.real(np.dot(chi, traces))) / group.order
        m_int = round(m)
        if abs(m - m_int) > tol:
            raise NonIntegerMultiplicity(
                f"multiplicity of {label} is {m:.8f}, not an integer")
        mult[label] = m_int
        if m_int > 0:
            bases[label] = project(group, label, mats)
        else:
            bases[label] = np.zeros((mats.shape[1], 0))
    dim = mats.shape[1]
    if sum(mult[l] * group.dims[l] for l in mult) != dim:
        raise NonInvariantSubspace(
            "multiplicities do not exhaust the space; the subspace is "
            "probably not invariant")
    return IrrepDecomposition(energy=energy, multiplicities=mult,
                              bases=bases, dimension=dim)


# ---------------------------------------------------------------------------
# standard actions
# ---------------------------------------------------------------------------

def sector_permutation_rep(group: GroupSpec | None = None) -> np.ndarray:
    """S3 acting on the six ordering sectors by relabelling.

    Sector (i, j, k) is the region x_i > x_j > x_k; a permutation p
    sends it to (p(i), p(j), p(k)).  The action is simply transitive,
    i.e. this is the regular representation.
    """
    from .solvable import SECTOR_ORDER  # local import to avoid a cycle

    group = group or build_group("S3")
    mats = np.zeros((group.order, 6, 6))
    for gi, p in enumerate(group.elements):
        for si, s in enumerate(SECTOR_ORDER):
            target = tuple(p[a - 1] for a in s)
            mats[gi, SECTOR_ORDER.index(target), si] = 1.0
    return mats


def orbit_rep_for_multisets(multisets, group: GroupSpec | None = None):
    """S3 permutation action on the ordered triples refining ``multisets``.

    Returns (mats, triples): the distinct ordered triples spanning the
    degeneracy space of a composed level, and the representation
    matrices U(p)|n1 n2 n3> = |n_{p^-1(1)} n_{p^-1(2)} n_{p^-1(3)}>.
    """
    from itertools import permutations as iperm

    group = group or build_group("S3")
    triples = []
    for ms in multisets:
        for t in sorted(set(iperm(ms))):
            triples.append(t)
    triples = sorted(set(triples))
    d = len(triples)
    mats = np.zeros((group.order, d, d))
    for gi, p in enumerate(group.elements):
        pinv = tuple(np.argsort([p[a] for a in range(3)]) + 1)
        for ti, t in enumerate(triples):
            target = tuple(t[pinv[b] - 1] for b in range(3))
            mats[gi, triples.index(target), ti] = 1.0
    return mats, tuple(triples)


# ---------------------------------------------------------------------------
# towers
# ---------------------------------------------------------------------------

def irrep_towers(decompositions):
    """Group (energy, decomposition) pairs into per-irrep towers.

    Returns {irrep: [(E, multiplicity), ...]} keeping only nonzero
    multiplicities, ordered by energy, with one row per energy: pairs
    whose energies agree within ``GROUP_TOLERANCE`` (the rule of
    ``compose_spectrum``) merge into one row at their mean energy, with
    their multiplicities summed.
    """
    towers: dict[str, list] = {}
    ordered = sorted(decompositions, key=lambda t: t[0])
    for group in group_by_energy(ordered, GROUP_TOLERANCE):
        energy = float(np.mean([e for e, _ in group]))
        for label in group[0][1].multiplicities:
            m = sum(dec.multiplicities[label] for _, dec in group)
            if m > 0:
                towers.setdefault(label, []).append((energy, m))
    return towers


def bosonic_spectrum(towers):
    return [e for e, _ in towers.get("[3]", [])]


def fermionic_spectrum(towers):
    return [e for e, _ in towers.get("[1^3]", [])]


def decompositions_to_json(decompositions) -> str:
    """JSON export: [{"E": ..., "multiplicities": {irrep: m}}, ...]."""
    rows = [
        {"E": float(e), "multiplicities": {k: int(v) for k, v in d.multiplicities.items()}}
        for e, d in sorted(decompositions, key=lambda t: t[0])
    ]
    return json.dumps(rows, indent=2, sort_keys=True)
