"""Finite-group representation machinery for the permutation symmetry.

S3 is built from the six particle permutations; D3d and D6h are its
direct products with one and two inversion factors (total parity, and
relative plus center-of-mass parity).  Character tables are stored as
integers so the orthogonality relations hold exactly.
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass, field
from itertools import permutations

import numpy as np

from .composition import GROUP_TOLERANCE, _column, _rows_text, energy_runs
from .errors import NonIntegerMultiplicity, NonInvariantSubspace
from .jacobi import PERMUTATIONS, perm_compose, perm_sign


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
    # [21] is the permutation representation on three points less [3]:
    # its character is the number of fixed points less one
    g = GroupSpec(
        name="S3", elements=elements, table=table,
        classes=_conjugacy_classes(table),
        irreps={"[3]": np.ones(n, dtype=int),
                "[21]": np.array([sum(p[a] == a + 1 for a in range(3)) - 1
                                  for p in elements], dtype=int),
                "[1^3]": np.array([perm_sign(p) for p in elements], dtype=int)},
        dims={"[3]": 1, "[21]": 2, "[1^3]": 1},
    )
    _verify_group(g)
    return g


def _product_with_z2(g: GroupSpec, name: str) -> GroupSpec:
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
        for s, suf in ((1, "+"), (-1, "-")):
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

def decompose_eigenspace(group: GroupSpec, perm: np.ndarray) -> dict:
    """Irrep multiplicities {label: m} of a permutation representation.

    ``perm`` is an integer (order, d) array of index arrays,
    D(g) e_i = e_{perm[g, i]}, as ``orbit_rep_for_multisets`` and
    ``sector_permutation_rep`` return it.  The multiplication table is
    checked exactly, perm[g][perm[h]] == perm[gh], and each trace is a
    count of fixed points.

    m_mu = (1/|G|) sum_g chi_mu(g)* tr D(g), rounded to the nearest
    integer; a deviation above 1e-6 is a hard error because it signals
    a missed symmetry or a broken representation.  A set that breaks
    the table is not a representation and has no multiplicities, so it
    raises NonIntegerMultiplicity (CLI exit 3) even when its characters
    happen to be integers.
    """
    if not np.array_equal(perm[:, perm], perm[group.table]):
        raise NonIntegerMultiplicity(
            "matrices do not satisfy the multiplication table, so they "
            "are not a representation and have no multiplicities")
    traces = np.count_nonzero(perm == np.arange(perm.shape[1]), axis=1)
    mult = {}
    for label, chi in group.irreps.items():
        m = float(np.dot(chi, traces)) / group.order
        m_int = round(m)
        if abs(m - m_int) > 1e-6:
            raise NonIntegerMultiplicity(
                f"multiplicity of {label} is {m:.8f}, not an integer")
        mult[label] = m_int
    if sum(mult[l] * group.dims[l] for l in mult) != perm.shape[1]:
        raise NonInvariantSubspace(
            "multiplicities do not exhaust the space; the subspace is "
            "probably not invariant")
    return mult


# ---------------------------------------------------------------------------
# standard actions
# ---------------------------------------------------------------------------

def sector_permutation_rep(group: GroupSpec | None = None) -> np.ndarray:
    """S3 acting on the six ordering sectors by relabelling, as index
    arrays (see ``decompose_eigenspace``).

    Sector (i, j, k) is the region x_i > x_j > x_k; a permutation p
    sends it to (p(i), p(j), p(k)).  The action is simply transitive:
    this is the regular representation, whose index arrays are the
    rows of the multiplication table.
    """
    return (group or build_group("S3")).table.copy()  # the group is cached


def orbit_rep_for_multisets(multisets, group: GroupSpec | None = None):
    """S3 permutation action on the ordered triples refining ``multisets``.

    Returns (perm, triples): the integer (order, d) index arrays of the
    representation U(p)|n1 n2 n3> = |n_{p^-1(1)} n_{p^-1(2)} n_{p^-1(3)}>,
    that is U(p) e_i = e_{perm[p, i]}, and the d distinct ordered
    triples spanning the degeneracy space of a composed level.
    """
    group = group or build_group("S3")
    triples = tuple(sorted({t for ms in multisets for t in permutations(ms)}))
    labels = np.array(triples).reshape(-1, 3)
    lo = labels.min(initial=0)
    base = int(labels.max(initial=0)) - int(lo) + 1

    def keys(t):
        # lexicographic order of the triples is the order of their keys
        t = t - lo
        return (t[..., 0] * base + t[..., 1]) * base + t[..., 2]

    # U(p) moves label b of a triple to slot p(b)
    inverses = np.array([[p.index(b) for b in (1, 2, 3)]
                         for p in group.elements])
    return np.searchsorted(keys(labels), keys(labels[:, inverses]).T), triples


# ---------------------------------------------------------------------------
# towers
# ---------------------------------------------------------------------------

def irrep_towers(decompositions):
    """Group (energy, multiplicities) pairs into per-irrep towers.

    Returns {irrep: [(E, multiplicity), ...]} keeping only nonzero
    multiplicities, ordered by energy, with one row per energy: pairs
    whose energies agree within ``GROUP_TOLERANCE`` (the rule of
    ``compose_spectrum``) merge into one row at their mean energy, with
    their multiplicities summed.
    """
    towers: dict[str, list] = {}
    ordered = sorted(decompositions, key=lambda t: t[0])
    energies = [e for e, _ in ordered]
    bounds = energy_runs(energies, GROUP_TOLERANCE)
    for a, b in zip(bounds, bounds[1:]):
        energy = float(np.mean(energies[a:b]))
        for label in ordered[a][1]:
            m = sum(mult[label] for _, mult in ordered[a:b])
            if m > 0:
                towers.setdefault(label, []).append((energy, m))
    return towers


def decompositions_to_json(decompositions) -> str:
    """JSON export: [{"E": ..., "multiplicities": {irrep: m}}, ...].

    The text is ``json.dumps(rows, indent=2, sort_keys=True)`` byte for
    byte; each distinct energy and multiplicity block is formatted once.
    """
    ordered = sorted(decompositions, key=lambda t: t[0])
    blocks: dict = {}  # multiplicity items -> code
    codes = [blocks.setdefault(tuple(mult.items()), len(blocks))
             for _, mult in ordered]
    text = _rows_text([
        '  {\n    "E": ',
        # json writes a finite float as its repr
        _column(np.array([float(e) for e, _ in ordered]),
                lambda e: repr(e) if math.isfinite(e) else json.dumps(e)),
        ',\n    "multiplicities": ',
        # a block as json.dumps(..., indent=2, sort_keys=True) writes it
        (["{\n      " + ",\n      ".join(f"{json.dumps(k)}: {int(v)}"
                                        for k, v in sorted(key)) + "\n    }"
          if key else "{}" for key in blocks], codes),
        "\n  },\n"], len(ordered))
    return "[\n" + text[:-2] + "\n]" if ordered else "[]"
