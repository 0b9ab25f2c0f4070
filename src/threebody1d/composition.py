"""Non-interacting three-particle spectra composed from a one-body spectrum."""

from __future__ import annotations

import itertools
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


def _rows_text(pieces, rows: int) -> str:
    """The package's one table row writer: ``rows`` rows of ``pieces``,
    each literal ``str`` text or a column ``(cells, codes)`` that writes
    ``cells[codes[r]]`` in row r.  The distinct cells are encoded once as
    zero-padded fixed-width ASCII (no cell may hold a NUL byte); blocks
    of about 1 MB of rows gather them by code into a (rows, width) byte
    matrix, and ``bytes.translate`` drops the pad bytes."""
    cols = [(np.asarray([p], dtype=bytes), None) if isinstance(p, str)
            else (np.asarray(p[0], dtype=bytes), p[1]) for p in pieces]
    width = sum(cells.itemsize for cells, _ in cols)
    step = max(1, (1 << 20) // width)
    matrix, text = np.empty((min(step, rows), width), np.uint8), bytearray()
    for a in range(0, rows, step):
        m, at = matrix[:rows - a], 0
        for cells, codes in cols:
            # gather whole cells, then see them as bytes; a literal broadcasts
            block = cells if codes is None else cells[codes[a:a + step]]
            m[:, at:at + cells.itemsize] = block.view(np.uint8).reshape(
                -1, cells.itemsize)
            at += cells.itemsize
        text += m.tobytes().translate(None, b"\0")
    return text.decode("ascii")


def _column(values, fmt=str):
    """A column as ``(cells, codes)``.  Ints spanning fewer values than
    rows are their own codes, into cells for 0, 1, ..., max, then min,
    ..., -1 (a negative code counts from the end); other values are
    formatted once per run of equal neighbours, so once each if sorted."""
    v = np.asarray(values)
    if v.dtype.kind == "i" and len(v):
        lo, hi = min(int(v.min()), 0), max(int(v.max()), -1)
        if hi - lo < len(v):
            return list(map(fmt, [*range(hi + 1), *range(lo, 0)])), v
    new = np.ones(len(v), dtype=bool)
    new[1:] = v[1:] != v[:-1]
    return list(map(fmt, v[new].tolist())), np.cumsum(new) - 1


def _csv_text(header, columns, rows: int) -> str:
    """The package's one CSV table: a header line, then ``rows`` rows of
    ``columns`` (``(cells, codes)`` pairs, or a ``str`` for one cell in
    every row), as ``csv.writer(lineterminator="\\n")`` writes them.
    Raises ValueError for a cell that csv would quote, or with ``\\r``
    (csv reads it as a line end) or a NUL byte."""
    for cells in (header, *([col] if isinstance(col, str) else col[0]
                            for col in columns)):
        text = "".join(cells)
        if (any(ch in text for ch in ',"\r\n\0')
                or len(header) == 1 and "" in cells):
            raise ValueError(f"a CSV cell needs quoting: {cells[:8]!r}")
    pieces = [p for col in columns for p in (",", col)][1:]
    return ",".join(header) + "\n" + _rows_text([*pieces, "\n"], rows)


def levels_to_csv(levels) -> str:
    """Columns: E, degeneracy, class_list, accidental.  Written one
    multiset per row: a level's first opens with its E and degeneracy,
    and each closes with ``;``, or the last with the accidental flag."""
    chain = itertools.chain.from_iterable
    sizes = np.array([len(lv.multisets) for lv in levels], dtype=int)
    last, rows = np.cumsum(sizes) - 1, int(sizes.sum())
    ijk = np.fromiter(chain(chain(lv.multisets for lv in levels)), np.int32,
                      3 * rows).reshape(rows, 3)
    tags = np.fromiter(map(CLASS_NAMES.index,
                           chain(lv.classes for lv in levels)), np.int8, rows)
    opens = np.full(rows, len(levels))
    opens[last - sizes + 1] = np.arange(len(levels))
    closes = np.zeros(rows, dtype=int)
    closes[last] = [1 + lv.accidental for lv in levels]
    return "E,degeneracy,class_list,accidental\n" + _rows_text([
        ([f"{lv.energy!r},{lv.degeneracy}," for lv in levels] + [""], opens),
        _column(ijk[:, 0]), "+", _column(ijk[:, 1]), "+", _column(ijk[:, 2]),
        ":", (CLASS_NAMES, tags), ([";", ",0\n", ",1\n"], closes)], rows)
