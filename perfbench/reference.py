"""Reference values and output checks, computed apart from the program.

Nothing here imports ``threebody1d``.  State counts come from brute-force
enumeration, energies from closed forms written out below, and the irrep
multiplicities from counting multisets.  Every check returns a list of
the names of the properties that failed (empty when the output is
right), so a caller can tell a known program fault from a new one.
"""

from __future__ import annotations

import csv
import io
import json
import math

import numpy as np

REL_TOL = 1e-9  # energies written with repr() must match to this relative width
VERIFY_TOL = 1e-4  # tolerance of ``verify --check oracle``
SIXFOLD_TOL = 1e-10  # masked 3D ground multiplet, relative


def _close(a: float, b: float, tol: float = REL_TOL) -> bool:
    return abs(a - b) <= tol * max(1.0, abs(b))


def _edge(e: float, emax: float) -> int:
    """-1 inside the window, 0 within rounding of its edge, +1 outside."""
    if _close(e, emax):
        return 0
    return -1 if e < emax else 1


# ---------------------------------------------------------------------------
# closed forms
# ---------------------------------------------------------------------------

def omega_rel(omega: float, gamma: float, mass: float = 1.0) -> float:
    """Relative frequency of the harmonic interaction: sqrt(w^2 + 6 g / m)."""
    return math.sqrt(omega * omega + 6.0 * gamma / mass)


def cm_alpha(gamma: float, mass: float = 1.0, hbar: float = 1.0) -> float:
    """Calogero-Moser exponent (1 + sqrt(1 + 4 m g / hbar^2)) / 2."""
    return 0.5 * (1.0 + math.sqrt(1.0 + 4.0 * mass * gamma / hbar ** 2))


def oscillator_levels(omega: float, shift: float, n_levels: int) -> np.ndarray:
    """(n + 1/2) omega + shift for n = 0 .. n_levels - 1."""
    return (np.arange(n_levels) + 0.5) * omega + shift


def _cylindrical_levels(omega, w_rel, offset, mu_step, emax):
    """(eta, nu, mu, E) with E = w (eta + 1/2) + w_rel (2 nu + |mu|) + offset."""
    out = []
    eta = 0
    while omega * (eta + 0.5) + offset <= emax * (1 + REL_TOL):
        e_eta = omega * (eta + 0.5) + offset
        nu = 0
        while e_eta + 2 * nu * w_rel <= emax * (1 + REL_TOL):
            j = 0
            while True:
                e = e_eta + w_rel * (2 * nu + mu_step * j)
                if e > emax * (1 + REL_TOL):
                    break
                for mu in ((0,) if j == 0 else (-mu_step * j, mu_step * j)):
                    out.append((eta, nu, mu, e))
                j += 1
            nu += 1
        eta += 1
    return out


def harm_harm_levels(omega, gamma, emax):
    """E = w (eta + 1/2) + w_rel (2 nu + |mu| + 1), mu over all integers."""
    w = omega_rel(omega, gamma)
    return _cylindrical_levels(omega, w, w, 1, emax)


def calogero_levels(omega, gamma, emax):
    """E = w (eta + 1/2) + w (2 nu + |mu| + 3 alpha + 1), mu in 3Z."""
    return _cylindrical_levels(omega, omega,
                               omega * (3 * cm_alpha(gamma) + 1), 3, emax)


def quanta_window(omega: float, emax: float) -> int:
    """Largest N with (N + 3/2) omega <= emax: the total one-body quanta."""
    return int(math.floor(emax / omega - 1.5 + REL_TOL))


def ordered_triple_counts(n_top: int) -> np.ndarray:
    """Ordered triples of one-body labels per total N = n1 + n2 + n3.

    Brute force over the cube: counts[N] for N = 0 .. n_top.
    """
    n = np.arange(n_top + 1)
    total = (n[:, None, None] + n[None, :, None] + n[None, None, :]).ravel()
    return np.bincount(total[total <= n_top], minlength=n_top + 1)


def multisets_by_total(n_top: int, strict: bool = False) -> dict:
    """{N: sorted list of triples a <= b <= c (a < b < c if strict)}."""
    n = np.arange(n_top + 1)
    a, b, c = (g.ravel() for g in np.meshgrid(n, n, n, indexing="ij"))
    keep = (a <= b) & (b <= c) & (a + b + c <= n_top)
    if strict:
        keep &= (a < b) & (b < c)
    out: dict = {}
    for t in sorted(zip(a[keep].tolist(), b[keep].tolist(), c[keep].tolist())):
        out.setdefault(sum(t), []).append(t)
    return out


def multiset_class(t) -> str:
    distinct = len(set(t))
    return {1: "nondegenerate", 2: "threefold", 3: "sixfold"}[distinct]


def group_sizes(energies: dict, tol: float = REL_TOL) -> dict:
    """{key: number of keys whose energy lies within ``tol`` of its level}."""
    groups: list = []
    for key, e in sorted(energies.items(), key=lambda kv: kv[1]):
        if groups and _close(e, groups[-1][0], tol):
            groups[-1][1].append(key)
        else:
            groups.append((e, [key]))
    return {key: len(keys) for _, keys in groups for key in keys}


# ---------------------------------------------------------------------------
# spectrum outputs
# ---------------------------------------------------------------------------

def _rows(text: str):
    return list(csv.DictReader(io.StringIO(text)))


def check_noninteracting_csv(text: str, omega: float, emax: float,
                             multisets: dict, counts: np.ndarray):
    """levels.csv of ``spectrum --model noninteracting``."""
    fails = []
    rows = _rows(text)
    n_top = quanta_window(omega, emax)
    if len(rows) != n_top + 1:
        return ["level_count"]
    for n_tot, row in enumerate(rows):
        if not _close(float(row["E"]), (n_tot + 1.5) * omega):
            fails.append("energy")
        if int(row["degeneracy"]) != counts[n_tot]:
            fails.append("degeneracy")
        tags = [item.split(":") for item in row["class_list"].split(";")]
        got = [tuple(int(q) for q in ms.split("+")) for ms, _ in tags]
        if sorted(got) != multisets[n_tot]:  # order within a level is free
            fails.append("multisets")
        if any(tag != multiset_class(t) for t, (_, tag) in zip(got, tags)):
            fails.append("classes")
        if int(row["accidental"]) != int(len(multisets[n_tot]) > 1):
            fails.append("accidental")
    return sorted(set(fails))


def cylindrical_reference(levels, emax: float):
    """Reference for ``check_cylindrical_csv``.

    ({(eta, nu, mu): E}, {(eta, nu, mu): states at that energy}, the
    keys strictly inside the window).
    """
    energies = {(eta, nu, mu): e for eta, nu, mu, e in levels}
    inside = {k for k, e in energies.items() if _edge(e, emax) < 0}
    return energies, group_sizes(energies), inside


def _table(text: str):
    reader = csv.reader(io.StringIO(text))
    return next(reader, []), list(reader)


def _all_close(got, want, tol: float = REL_TOL) -> bool:
    got, want = np.asarray(got, dtype=float), np.asarray(want, dtype=float)
    return bool(np.all(np.abs(got - want) <= tol * np.maximum(1.0, np.abs(want))))


def check_cylindrical_csv(text: str, model: str, reference):
    """levels.csv of ``spectrum --model harm-harm|calogero``.

    ``reference`` is what ``cylindrical_reference`` returns.  A state
    within rounding of the window edge may be present or not.
    """
    ref, degeneracy, inside = reference
    header, body = _table(text)
    if header != ["model", "eta", "nu", "mu", "energy", "degeneracy"]:
        return ["header"]
    fails = []
    if {r[0] for r in body} - {model}:
        fails.append("model_column")
    keys = [(int(r[1]), int(r[2]), int(r[3])) for r in body]
    got = set(keys)
    if len(got) != len(keys):
        fails.append("duplicate_rows")
    if not inside <= got or not got <= ref.keys():
        return sorted(set(fails + ["state_set"]))
    if not _all_close([r[4] for r in body], [ref[k] for k in keys]):
        fails.append("energy")
    if [int(r[5]) for r in body] != [degeneracy[k] for k in keys]:
        fails.append("degeneracy")
    return fails


def check_contact_csv(text: str, omega: float, emax: float, strict: dict):
    """levels.csv of ``spectrum --model unitary-contact``."""
    header, body = _table(text)
    if header != ["model", "n1", "n2", "n3", "energy", "degeneracy"]:
        return ["header"]
    fails = []
    want = sorted(t for n in strict for t in strict[n]
                  if (n + 1.5) * omega <= emax)
    got = [(int(r[1]), int(r[2]), int(r[3])) for r in body]
    if sorted(got) != want:
        return ["state_set"]
    if not _all_close([r[4] for r in body],
                      [(sum(t) + 1.5) * omega for t in got]):
        fails.append("energy")
    if {r[5] for r in body} != {"6"}:
        fails.append("degeneracy")
    return fails


# ---------------------------------------------------------------------------
# irreps outputs
# ---------------------------------------------------------------------------

def irreps_reference_noninteracting(multisets: dict, counts, n_top: int):
    """{N: (m_[3], m_[21], m_[1^3])} from the multisets of each level.

    Every multiset spans one [3]; one with three distinct entries also
    spans one [1^3]; the rest of the level's ordered triples are [21]
    pairs.
    """
    out = {}
    for n_tot in range(n_top + 1):
        ms = multisets[n_tot]
        m3 = len(ms)
        m13 = sum(1 for t in ms if len(set(t)) == 3)
        out[n_tot] = (m3, (int(counts[n_tot]) - m3 - m13) // 2, m13)
    return out


def irreps_reference_contact(strict: dict, n_top: int):
    """{N: (t, 2t, t)}: each base triple spans the regular representation."""
    return {n: (len(strict[n]), 2 * len(strict[n]), len(strict[n]))
            for n in range(n_top + 1) if strict.get(n)}


LABELS = ("[3]", "[21]", "[1^3]")


def check_irreps_output(irreps_text: str, towers_text: str, omega: float,
                        reference: dict):
    """irreps.json and towers.json against {N: multiplicities}.

    Rows of irreps.json that share an energy are summed, so a regrouping
    of the rows does not matter there; towers.json must hold one row
    per energy in each tower.
    """
    fails = []
    rows = json.loads(irreps_text)
    summed: dict = {}
    for row in rows:
        n_tot = round(row["E"] / omega - 1.5)
        if not _close(row["E"], (n_tot + 1.5) * omega):
            fails.append("energy")
            continue
        acc = summed.setdefault(n_tot, [0, 0, 0])
        for i, lab in enumerate(LABELS):
            acc[i] += row["multiplicities"].get(lab, 0)
    if {n: tuple(v) for n, v in summed.items()} != reference:
        fails.append("multiplicities")
    towers = json.loads(towers_text)
    for i, lab in enumerate(LABELS):
        tower = towers.get(lab, [])
        energies = [e for e, _ in tower]
        if any(b <= a for a, b in zip(energies, energies[1:])):
            fails.append("towers_one_row_per_energy")
        per_level: dict = {}
        for e, m in tower:
            n_tot = round(e / omega - 1.5)
            per_level[n_tot] = per_level.get(n_tot, 0) + m
        want = {n: mult[i] for n, mult in reference.items() if mult[i] > 0}
        if per_level != want:
            fails.append("tower_multiplicities")
    return sorted(set(fails))


# ---------------------------------------------------------------------------
# classify and verify outputs
# ---------------------------------------------------------------------------

CLASSIFY_GRADE = {
    "noninteracting": "gold",
    "harm-harm": "gold",
    "calogero": "silver",
    "unitary-contact": "none",
}


def check_classify(code: int, stdout: str, model: str):
    fails = [] if code == 0 else ["exit_code"]
    lines = stdout.splitlines()
    grade = lines[0].split()[1] if lines and lines[0].startswith(
        "separability:") else None
    if grade != CLASSIFY_GRADE[model]:
        fails.append("grade")
    sector = "sector-solvable: yes (unitary contact limit)" in lines
    if sector != (model == "unitary-contact"):
        fails.append("sector_solvable")
    return fails


def check_verify(code: int, report_text: str):
    fails = [] if code == 0 else ["exit_code"]
    reports = json.loads(report_text)
    if not reports or not all(r.get("pass") is True for r in reports):
        fails.append("pass")
    return fails


# ---------------------------------------------------------------------------
# grid oracle outputs
# ---------------------------------------------------------------------------

def check_fit(fitted: float, exact: float, tol: float = VERIFY_TOL):
    """(failures, relative deviation) of a fitted coefficient."""
    rel = abs(fitted - exact) / abs(exact)
    return ([] if rel <= tol else ["fit_within_verify_tol"]), rel


def smooth_3d_tolerance(energy: float, dx: float) -> float:
    """Error bound of the 5-point stencil on a harmonic eigenstate (m = hbar = 1).

    The stencil's leading error is (h^4 / 90) (1/2) d^6 per axis, so a
    level moves by (h^4 / 180) sum_i <p_i^6>.  For oscillator states
    <p^6> <= 15 <p^2>^3 and, by the virial theorem, sum_i <p_i^2> = E,
    which gives |dE| <= h^4 E^3 / 12.
    """
    return dx ** 4 * energy ** 3 / 12.0


def check_smooth_3d(eigenvalues, omega, gamma, dx):
    k = len(eigenvalues)
    # the eta ladder alone puts k levels below this edge
    emax = omega * (k + 0.5) + omega_rel(omega, gamma)
    ref = sorted(e for *_, e in harm_harm_levels(omega, gamma, emax))[:k]
    bad = any(abs(e - r) > smooth_3d_tolerance(r, dx)
              for e, r in zip(sorted(eigenvalues), ref))
    return ["levels_within_stencil_error"] if bad else []


def check_masked_3d(eigenvalues):
    """The six ordering sectors are exact images: ground level 6-fold."""
    e = np.sort(np.asarray(eigenvalues))
    if len(e) < 6:
        return ["ground_sixfold"]
    spread = (e[5] - e[0]) / abs(e[0])
    return [] if spread <= SIXFOLD_TOL else ["ground_sixfold"]


def check_grid_1d(energies, est_error, omega, shift, n_levels):
    """|eps_n - (n + 1/2) w - shift| <= est_error for every level."""
    if len(energies) != n_levels:
        return ["level_count"]
    ref = oscillator_levels(omega, shift, n_levels)
    bad = np.abs(np.asarray(energies) - ref) > np.asarray(est_error)
    return ["within_est_error"] if np.any(bad) else []
