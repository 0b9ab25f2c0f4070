"""Non-interacting three-particle spectra composed from a one-body spectrum."""

from __future__ import annotations

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


def compose_spectrum(sigma1, e_max: float, tol_group: float | None = None):
    """All three-particle levels with energy <= e_max.

    Enumerates multisets n1 <= n2 <= n3 over the one-body spectrum,
    groups them by energy and classifies each group.  A level within
    the grouping tolerance of e_max is kept whole: the window admits
    every group whose lowest member lies within
    ``energy_cutoff(e_max, tol_group)``, so rounding never splits a
    degenerate multiplet at the edge.  Raises TruncationRisk unless
    2*eps0 + eps_nmax lies more than one grouping width beyond that
    cutoff, which guarantees no admissible multiset is lost to the
    one-body cutoff.
    """
    eps, _ = _as_energies(sigma1)
    if len(eps) < 1:
        raise TruncationRisk("empty one-body spectrum")
    if tol_group is None:
        tol_group = default_group_tolerance(sigma1)
    cut = energy_cutoff(e_max, tol_group)
    # enumerate one grouping width past the cut so that a group whose
    # lowest member is admitted is collected whole
    reach = energy_cutoff(cut, tol_group)
    if 3 * eps[0] > cut:
        return []
    if 2 * eps[0] + eps[-1] <= reach:
        raise TruncationRisk(
            f"one-body spectrum too shallow: 2*eps0 + eps_max = "
            f"{2 * eps[0] + eps[-1]:.6g} does not exceed the window edge "
            f"{reach:.6g} (e_max = {e_max:.6g})")

    entries = []
    n = len(eps)
    for i in range(n):
        if 3 * eps[i] > reach:
            break
        for j in range(i, n):
            if eps[i] + 2 * eps[j] > reach:
                break
            for k in range(j, n):
                e = eps[i] + eps[j] + eps[k]
                if e > reach:
                    break
                entries.append((e, (i, j, k)))
    entries.sort(key=lambda t: (t[0], t[1]))

    levels = []
    for group in group_by_energy(entries, tol_group):
        if group[0][0] > cut:
            break
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
