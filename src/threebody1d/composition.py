"""Non-interacting three-particle spectra composed from a one-body spectrum."""

from __future__ import annotations

import csv
import io
import math
from dataclasses import dataclass

import numpy as np

from .errors import TruncationRisk
from .onebody import OneBodySpectrum

CLASS_SIZE = {"nondegenerate": 1, "threefold": 3, "sixfold": 6}
# class of a multiset n1 <= n2 <= n3, indexed by (n1 != n2) + (n2 != n3)
CLASS_NAMES = ("nondegenerate", "threefold", "sixfold")
_CLASS_STATES = np.array([CLASS_SIZE[c] for c in CLASS_NAMES])

# Relative energy tolerance under which levels of an exact spectrum count
# as degenerate.
GROUP_TOLERANCE = 1e-9


def multiset_class(ms) -> str:
    """Degeneracy class of one multiset {n1 <= n2 <= n3}."""
    a, b, c = ms
    return CLASS_NAMES[(a != b) + (b != c)]


@dataclass(frozen=True)
class SpectrumLevel:
    energy: float
    degeneracy: int
    multisets: tuple  # sorted (n1, n2, n3) tuples at this energy
    classes: tuple  # per-multiset class tags
    accidental: bool  # more than one multiset coincides here


def _as_energies(sigma1):
    if isinstance(sigma1, OneBodySpectrum):
        return np.asarray(sigma1.energies, dtype=float), sigma1
    return np.asarray(sigma1, dtype=float), None


def default_group_tolerance(sigma1) -> float:
    """Energy equivalence tolerance for grouping composed levels.

    Analytic spectra get 1e-9 * max(1, |E|); numeric spectra widen to
    10x their own grid-error estimate because nearby levels cannot be
    distinguished below the discretization error anyway.
    """
    eps, spec = _as_energies(sigma1)
    base = GROUP_TOLERANCE
    if spec is not None and spec.source == "grid" and spec.est_error is not None:
        base = max(base, 10.0 * float(np.max(spec.est_error)))
    return base


def energy_cutoff(e_max: float, tol: float) -> float:
    """Upper edge of an energy window: e_max widened by the grouping
    tolerance, so that a level equal to e_max within ``tol`` is kept."""
    return e_max + tol * max(1.0, abs(e_max))


def energy_runs(energies, tol: float) -> list:
    """Offsets of the degenerate runs of a sorted energy column.

    A run collects every energy within ``tol * max(1, |E0|)`` of its
    lowest energy E0; the next energy beyond that starts a new run.
    Only the distinct energies are visited.  Returns
    [b_0 = 0, b_1, ..., len(energies)]: run q is energies[b_q:b_(q+1)].
    """
    e = np.asarray(energies, dtype=float)
    if not len(e):
        return [0]
    first = np.concatenate(([0], (e[1:] != e[:-1]).nonzero()[0] + 1))
    bounds, e0 = [], math.nan
    for i, v in zip(first.tolist(), e[first].tolist()):
        if not bounds or v - e0 > tol * max(1.0, abs(e0)):
            bounds.append(i)
            e0 = v
    return bounds + [len(e)]


def window_top(energies, e_max: float, tol: float) -> float:
    """Highest of the sorted ``energies`` in the window up to e_max, or -inf.

    The package's one window rule: a degenerate run (``energy_runs``)
    is kept whole when its lowest member lies within
    ``energy_cutoff(e_max, tol)``, so rounding never splits a multiplet
    at the edge.  ``energies`` must hold every value up to the highest
    a kept run can reach, ``energy_cutoff`` applied twice.
    """
    e = np.asarray(energies, dtype=float)
    bounds = energy_runs(e, tol)
    kept = np.searchsorted(e[bounds[:-1]], energy_cutoff(e_max, tol), "right")
    return float(e[bounds[kept] - 1]) if kept else -math.inf


def _triples(sigma1, e_max: float, tol: float, *, distinct: bool):
    """Columns (energy, ijk) of the one-body triples in the window.

    The one enumerator of composed spectra: rows (i, j, k), i <= j <= k
    or i < j < k when ``distinct``, at energy (eps_i + eps_j) + eps_k,
    sorted by energy, then ijk, and cut by ``window_top``.  Raises
    TruncationRisk unless the lowest triple holding the top one-body
    level lies beyond the window's reach, so no triple inside the
    window is lost to the one-body cutoff.
    """
    eps, _ = _as_energies(sigma1)
    d = int(distinct)
    if len(eps) < 1 + 2 * d:
        raise TruncationRisk(
            f"one-body spectrum has fewer than {1 + 2 * d} levels")
    if eps[0] + eps[d] + eps[2 * d] > energy_cutoff(e_max, tol):
        return np.zeros(0), np.zeros((0, 3), dtype=int)
    reach = energy_cutoff(energy_cutoff(e_max, tol), tol)
    shallow = eps[0] + eps[d] + eps[-1]
    if shallow <= reach:
        raise TruncationRisk(
            f"one-body spectrum too shallow: the lowest triple with "
            f"eps_max, {shallow:.6g}, does not exceed the window edge "
            f"{reach:.6g} (e_max = {e_max:.6g})")
    # every index of a triple in reach: (eps_0 + eps_d) + eps_k <= reach
    eps = eps[:np.count_nonzero(eps[0] + eps[d] + eps <= reach)]
    # the pairs j >= i + d, as np.triu_indices(len(eps), d) gives them
    n = np.arange(len(eps))
    i, j = np.less_equal.outer(n + d, n).nonzero()
    pair = eps[i] + eps[j]
    # k runs from j + d to the end of pair + eps_k <= reach.  searchsorted
    # finds that end up to rounding; the loop steps it past every k still
    # in reach, and the window drops a k it overshoots (a sum past reach)
    end = np.searchsorted(eps, reach - pair, "right")
    padded = np.append(eps, np.inf)
    while (step := pair + padded[end] <= reach).any():
        end += step
    count = np.maximum(end - (j + d), 0)
    i, j, pair = (np.repeat(q, count) for q in (i, j, pair))
    k = np.arange(len(i)) - np.repeat(np.cumsum(count) - count, count) + j + d
    e = pair + eps[k]
    order = np.lexsort((k, j, i, e))
    e, ijk = e[order], np.stack([i, j, k], axis=1)[order]
    keep = np.searchsorted(e, window_top(e, e_max, tol), "right")
    return e[:keep], ijk[:keep]


def compose_spectrum(sigma1, e_max: float, tol_group: float | None = None):
    """All three-particle levels with energy <= e_max.

    Enumerates multisets n1 <= n2 <= n3 over the one-body spectrum
    (``_triples``, as columns), splits their energy column into runs
    (``energy_runs``) and classifies each run into one ``SpectrumLevel``.
    The window is the package's one rule (``window_top``): a level whose
    lowest multiset lies within ``energy_cutoff(e_max, tol_group)`` is
    kept whole.  Raises TruncationRisk when the one-body spectrum is too
    shallow to exhaust the window.
    """
    if tol_group is None:
        tol_group = default_group_tolerance(sigma1)
    e, ijk = _triples(sigma1, e_max, tol_group, distinct=False)
    tag = (ijk[:, 0] != ijk[:, 1]).astype(int) + (ijk[:, 1] != ijk[:, 2])
    classes = [CLASS_NAMES[t] for t in tag.tolist()]
    states = [0, *np.cumsum(_CLASS_STATES[tag]).tolist()]
    multisets = list(zip(*ijk.T.tolist()))
    bounds = energy_runs(e, tol_group)
    # np.add.reduce(x) / len(x) is x.mean(), bit for bit, without its wrapper
    return [SpectrumLevel(energy=float(np.add.reduce(e[a:b]) / (b - a)),
                          degeneracy=states[b] - states[a],
                          multisets=tuple(multisets[a:b]),
                          classes=tuple(classes[a:b]),
                          accidental=b - a > 1)
            for a, b in zip(bounds, bounds[1:])]


def detect_accidental(levels):
    """Energies whose degeneracy exceeds the largest single-multiset class.

    Those are the candidate accidental (or emergent) degeneracies: the
    permutation classes alone cannot account for them.
    """
    report = []
    for lv in levels:
        if lv.degeneracy > max(CLASS_SIZE[c] for c in lv.classes):
            report.append({
                "energy": lv.energy,
                "degeneracy": lv.degeneracy,
                "multisets": lv.multisets,
            })
    return report


def _csv_text(header, rows) -> str:
    """The package's one CSV table writer: a header row, then ``rows``."""
    buf = io.StringIO()
    w = csv.writer(buf, lineterminator="\n")
    w.writerow(header)
    w.writerows(rows)
    return buf.getvalue()


def levels_to_csv(levels) -> str:
    """Columns: E, degeneracy, class_list, accidental."""
    return _csv_text(["E", "degeneracy", "class_list", "accidental"], (
        [repr(lv.energy), lv.degeneracy,
         ";".join(f"{i}+{j}+{k}:{c}"
                  for (i, j, k), c in zip(lv.multisets, lv.classes)),
         int(lv.accidental)] for lv in levels))
