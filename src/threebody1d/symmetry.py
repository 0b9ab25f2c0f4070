"""Representation machinery for the particle-permutation group S3.

``S3`` is the package's one group: the six particle permutations with
their multiplication table and integer characters, so the orthogonality
relations hold exactly.
"""

from __future__ import annotations

import itertools
import json
import math
from dataclasses import dataclass

import numpy as np

from .composition import GROUP_TOLERANCE, _column, _rows_text, energy_runs
from .errors import NonIntegerMultiplicity, NonInvariantSubspace
from .jacobi import PERMUTATIONS, perm_compose, perm_sign


@dataclass(frozen=True)
class GroupSpec:
    """A finite group: its multiplication and character tables."""

    elements: tuple  # hashable element labels
    table: np.ndarray  # table[i, j] = index of elements[i] * elements[j]
    irreps: dict  # label -> integer character array indexed by element
    dims: dict  # label -> irrep dimension

    @property
    def order(self) -> int:
        return len(self.elements)


# [21] is the permutation representation on three points less [3]: its
# character is the number of fixed points less one
S3 = GroupSpec(
    elements=PERMUTATIONS,
    table=np.array([[PERMUTATIONS.index(perm_compose(p, q))
                     for q in PERMUTATIONS] for p in PERMUTATIONS]),
    irreps={"[3]": np.ones(6, dtype=int),
            "[21]": np.array([sum(p[a] == a + 1 for a in range(3)) - 1
                              for p in PERMUTATIONS]),
            "[1^3]": np.array([perm_sign(p) for p in PERMUTATIONS])},
    dims={"[3]": 1, "[21]": 2, "[1^3]": 1},
)


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

def sector_permutation_rep() -> np.ndarray:
    """S3 acting on the six ordering sectors by relabelling, as index
    arrays (see ``decompose_eigenspace``).

    Sector (i, j, k) is the region x_i > x_j > x_k; a permutation p
    sends it to (p(i), p(j), p(k)).  The action is simply transitive:
    this is the regular representation, whose index arrays are the
    rows of the multiplication table.
    """
    return S3.table.copy()


# U(p) moves label b of a triple to slot p(b), so t[:, _SLOTS[p]] is U(p) t
_SLOTS = np.array([[p.index(b) for b in (1, 2, 3)] for p in S3.elements])
# multisets gathered by one pass of ``orbit_reps``: six triples each
_BLOCK_TRIPLES = 1 << 16


def _orbit_block(labels, sizes):
    """The core of ``orbit_reps``: ``labels`` is an (R, 3) integer array
    of multisets, ``sizes`` how many of them each level holds, in order.

    Gathers the six orderings U(p) m of every multiset m and keys each
    as (level, lexicographic rank), so one ``np.unique`` sorts the
    distinct triples by level, then lexicographically, and gives each
    ordering its column.  Since U(g) U(p) m = U(gp) m, the column of
    U(g) applied to ordering p is that of ordering gp: the index arrays
    are filled by scattering, with no search.  Returns (perm, triples,
    bounds): level q owns columns bounds[q]:bounds[q + 1] of perm, whose
    entries index all columns of the block.
    """
    lo = int(labels.min(initial=0))
    base = int(labels.max(initial=0)) - lo + 1
    level = np.repeat(np.arange(len(sizes)), sizes)
    t = labels[:, _SLOTS] - lo  # (R, 6, 3): ordering p of multiset r
    keys = (level[:, None] * base + t[..., 0]) * base ** 2 \
        + t[..., 1] * base + t[..., 2]
    uniq, pos = np.unique(keys.ravel(), return_inverse=True)
    pos = pos.reshape(keys.shape)
    perm = np.empty((S3.order, len(uniq)), dtype=np.intp)
    perm[:, pos.ravel()] = pos[:, S3.table].transpose(1, 0, 2).reshape(
        S3.order, -1)
    lex = uniq % base ** 3
    triples = np.stack([lex // base ** 2, lex // base % base, lex % base],
                       axis=1) + lo
    bounds = np.searchsorted(uniq, np.arange(len(sizes) + 1) * base ** 3)
    return perm, triples, bounds


def orbit_reps(levels):
    """The index arrays ``orbit_rep_for_multisets(ms)[0]`` of each ``ms``
    in ``levels``, in order.

    Levels are taken in blocks of whole levels, each gathering at most
    ``_BLOCK_TRIPLES`` triples (six per multiset) unless one level alone
    gathers more; ``_orbit_block`` builds a block's arrays in one pass.
    """
    levels = list(levels)
    sizes = [len(ms) for ms in levels]
    starts, gathered = [], math.inf
    for q, n in enumerate(sizes):
        if gathered + 6 * n > _BLOCK_TRIPLES:
            starts.append(q)
            gathered = 0
        gathered += 6 * n
    chain = itertools.chain.from_iterable
    for start, stop in zip(starts, starts[1:] + [len(levels)]):
        n = sum(sizes[start:stop])
        labels = np.fromiter(chain(chain(levels[start:stop])), np.int64,
                             3 * n).reshape(n, 3)
        perm, _, bounds = _orbit_block(labels, sizes[start:stop])
        for a, b in zip(bounds.tolist(), bounds[1:].tolist()):
            yield perm[:, a:b] - a


def orbit_rep_for_multisets(multisets):
    """S3 permutation action on the ordered triples refining ``multisets``.

    Returns (perm, triples): the integer (order, d) index arrays of the
    representation U(p)|n1 n2 n3> = |n_{p^-1(1)} n_{p^-1(2)} n_{p^-1(3)}>,
    that is U(p) e_i = e_{perm[p, i]}, and the d distinct ordered
    triples spanning the degeneracy space of a composed level, sorted.
    """
    labels = np.array(list(multisets), dtype=np.int64).reshape(-1, 3)
    perm, triples, _ = _orbit_block(labels, [len(labels)])
    return perm, tuple(map(tuple, triples.tolist()))


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
    byte; each distinct energy, and each multiplicity dict, is formatted
    once.  Dicts are told apart by identity: the unitary-contact rows all
    share one.
    """
    ordered = sorted(decompositions, key=lambda t: t[0])
    blocks = {id(mult): mult for _, mult in ordered}
    code = {key: i for i, key in enumerate(blocks)}
    text = _rows_text([
        '  {\n    "E": ',
        # json writes a finite float as its repr
        _column(np.array([float(e) for e, _ in ordered]),
                lambda e: repr(e) if math.isfinite(e) else json.dumps(e)),
        ',\n    "multiplicities": ',
        # a block as json.dumps(..., indent=2, sort_keys=True) writes it
        (["{\n      " + ",\n      ".join(f"{json.dumps(k)}: {int(v)}"
                                        for k, v in sorted(mult.items()))
          + "\n    }" if mult else "{}" for mult in blocks.values()],
         [code[id(mult)] for _, mult in ordered]),
        "\n  },\n"], len(ordered))
    return "[\n" + text[:-2] + "\n]" if ordered else "[]"
