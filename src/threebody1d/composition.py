"""Non-interacting three-particle spectra composed from a one-body spectrum."""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import TruncationRisk
from .onebody import OneBodySpectrum, _csv_text

CLASS_SIZE = {"nondegenerate": 1, "threefold": 3, "sixfold": 6}

# Relative energy tolerance under which levels of an exact spectrum count
# as degenerate.
GROUP_TOLERANCE = 1e-9


def multiset_class(ms) -> str:
    """Degeneracy class of one multiset {n1 <= n2 <= n3}."""
    a, b, c = ms
    if a == b == c:
        return "nondegenerate"
    if a == b or b == c:
        return "threefold"
    return "sixfold"


@dataclass(frozen=True)
class SpectrumLevel:
    energy: float
    degeneracy: int
    multisets: tuple  # sorted (n1, n2, n3) tuples at this energy
    classes: tuple  # per-multiset class tags
    accidental: bool  # more than one multiset coincides here

    def __post_init__(self):
        assert self.degeneracy == sum(CLASS_SIZE[c] for c in self.classes)


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


def group_by_energy(entries, tol: float):
    """Split (energy, item) pairs, sorted by energy, into degenerate runs.

    A run collects every entry within ``tol * max(1, |E0|)`` of its
    lowest energy E0; the next entry beyond that starts a new run.
    """
    group = []
    for entry in entries:
        e0 = group[0][0] if group else entry[0]
        if entry[0] - e0 > tol * max(1.0, abs(e0)):
            yield group
            group = []
        group.append(entry)
    if group:
        yield group


def window_top(energies, e_max: float, tol: float) -> float:
    """The highest of ``energies`` inside the window up to e_max, or -inf.

    The package's one window rule: a degenerate run of the distinct
    energies (``group_by_energy``) is kept whole when its lowest member
    lies within ``energy_cutoff(e_max, tol)``, so rounding never splits
    a multiplet at the edge.  ``energies`` must hold every value up to
    the highest a kept run can reach, ``energy_cutoff`` applied twice.
    """
    cut, top = energy_cutoff(e_max, tol), -math.inf
    for run in group_by_energy(((e, None) for e in np.unique(energies).tolist()),
                               tol):
        if run[0][0] > cut:
            break
        top = run[-1][0]
    return top


def _triples(sigma1, e_max: float, tol: float, *, distinct: bool):
    """Sorted (energy, (i, j, k)) of the one-body triples in the window.

    The one enumerator of composed spectra: i <= j <= k, or i < j < k
    when ``distinct``, at energy eps_i + eps_j + eps_k, cut by
    ``window_top``.  Raises TruncationRisk unless the lowest triple
    holding the top one-body level lies beyond the window's reach, so
    no triple inside the window is lost to the one-body cutoff.
    """
    eps, _ = _as_energies(sigma1)
    d = int(distinct)
    if len(eps) < 1 + 2 * d:
        raise TruncationRisk(
            f"one-body spectrum has fewer than {1 + 2 * d} levels")
    eps, n = eps.tolist(), len(eps)
    if eps[0] + eps[d] + eps[2 * d] > energy_cutoff(e_max, tol):
        return []
    reach = energy_cutoff(energy_cutoff(e_max, tol), tol)
    shallow = eps[0] + eps[d] + eps[-1]
    if shallow <= reach:
        raise TruncationRisk(
            f"one-body spectrum too shallow: the lowest triple with "
            f"eps_max, {shallow:.6g}, does not exceed the window edge "
            f"{reach:.6g} (e_max = {e_max:.6g})")
    entries = []  # each break is at the lowest triple energy left
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
    top = window_top([e for e, _ in entries], e_max, tol)
    return [t for t in entries if t[0] <= top]


def compose_spectrum(sigma1, e_max: float, tol_group: float | None = None):
    """All three-particle levels with energy <= e_max.

    Enumerates multisets n1 <= n2 <= n3 over the one-body spectrum
    (``_triples``), groups them by energy (``group_by_energy``) and
    classifies each group.  The window is the package's one rule
    (``window_top``): a level whose lowest multiset lies within
    ``energy_cutoff(e_max, tol_group)`` is kept whole.  Raises
    TruncationRisk when the one-body spectrum is too shallow to exhaust
    the window.
    """
    if tol_group is None:
        tol_group = default_group_tolerance(sigma1)
    levels = []
    for group in group_by_energy(
            _triples(sigma1, e_max, tol_group, distinct=False), tol_group):
        classes = tuple(multiset_class(ms) for _, ms in group)
        levels.append(SpectrumLevel(
            energy=float(np.mean([e for e, _ in group])),
            degeneracy=sum(CLASS_SIZE[c] for c in classes),
            multisets=tuple(ms for _, ms in group),
            classes=classes,
            accidental=len(group) > 1,
        ))
    return levels


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


def total_state_count(levels) -> int:
    """Sum of degeneracies = number of ordered triples in the window."""
    return sum(lv.degeneracy for lv in levels)


def levels_to_csv(levels) -> str:
    """Columns: E, degeneracy, class_list, accidental."""
    return _csv_text(["E", "degeneracy", "class_list", "accidental"], (
        [repr(lv.energy), lv.degeneracy,
         ";".join(f"{'+'.join(map(str, ms))}:{c}"
                  for ms, c in zip(lv.multisets, lv.classes)),
         int(lv.accidental)] for lv in levels))
