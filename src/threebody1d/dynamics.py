"""Tensor-product-structure bookkeeping, Schmidt spectra and algebra checks.

States live as coefficient tensors over labelled product bases; time
evolution multiplies by eigenphases, so all dynamics here happens in
eigenbases rather than on grids.  The operator checks (SO(2,1) ladder,
superintegrability invariants, Hamiltonian locality) run in truncated
oscillator mode bases with an explicit interior-block convention: the
top 4 indices of every mode are excluded, because truncating the basis
corrupts operator products only in those rows.
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass, field

import numpy as np
import scipy.sparse as sp

from .errors import DimensionMismatch, MissingEnergyLabel, NotGold, UnsupportedTrap
from .jacobi import JACOBI_MATRIX
from .models import ModelSpec, QuadraticTrap, validate_model
from .models import classify_separability

EDGE_EXCLUSION = 4


# ---------------------------------------------------------------------------
# states, cuts, Schmidt
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class TPSBipartition:
    """A bipartition of tensor axes into left and right factors."""

    left: tuple
    right: tuple

    def validate(self, ndim: int):
        axes = sorted(self.left + self.right)
        if axes != list(range(ndim)):
            raise DimensionMismatch(
                f"cut {self.left}|{self.right} does not partition {ndim} axes")


@dataclass(frozen=True)
class TruncatedState:
    """Normalized coefficient tensor over a labelled product basis.

    ``energies`` (same shape as the tensor, or broadcastable to it)
    attaches an eigenenergy to every basis label; it may be None for
    kinematic-only states.
    """

    tensor: np.ndarray
    energies: np.ndarray | None = None

    def __post_init__(self):
        nrm = np.linalg.norm(self.tensor)
        if abs(nrm - 1.0) > 1e-12:
            object.__setattr__(self, "tensor", self.tensor / nrm)
        if self.energies is not None:
            np.broadcast_shapes(np.shape(self.energies), self.tensor.shape)


def schmidt(state: TruncatedState, cut: TPSBipartition) -> np.ndarray:
    """Schmidt coefficients of the state across the given cut, descending
    (their squares sum to 1)."""
    t = state.tensor
    cut.validate(t.ndim)
    perm = cut.left + cut.right
    dl = int(np.prod([t.shape[a] for a in cut.left]))
    dr = int(np.prod([t.shape[a] for a in cut.right]))
    mat = np.transpose(t, perm).reshape(dl, dr)
    # the full decomposition, not compute_uv=False: the values-only
    # LAPACK path rounds them differently in the last bits
    return np.linalg.svd(mat, full_matrices=False)[1]


def evolve(state: TruncatedState, t: float, *, hbar: float = 1.0) -> TruncatedState:
    """Multiply every coefficient by exp(-i E t / hbar)."""
    if state.energies is None:
        raise MissingEnergyLabel("state carries no energy labels")
    phases = np.exp(-1j * np.asarray(state.energies) * t / hbar)
    return TruncatedState(tensor=state.tensor * phases,
                          energies=state.energies)


@dataclass(frozen=True)
class CheckReport:
    """Uniform result record for the verification suites."""

    check: str
    tolerance: float
    max_residual: float
    details: dict = field(default_factory=dict)

    @property
    def passed(self) -> bool:
        """Residual within tolerance and, where the check carries a
        negative control, the control tripped."""
        return (self.max_residual <= self.tolerance
                and self.details.get("negative_control_ok", True))

    def as_dict(self) -> dict:
        """The record as ``report.json`` holds it.  ``details`` may hold
        numpy scalars (a numpy.bool_ from a comparison, say)."""
        return {
            "check": self.check,
            "tolerance": self.tolerance,
            "max_residual": self.max_residual,
            "pass": bool(self.passed),
            "details": self.details,
        }


def schmidt_invariance_check(state: TruncatedState, cut: TPSBipartition,
                             times, *, hbar: float = 1.0) -> CheckReport:
    """Maximal drift of the sorted Schmidt spectrum under evolution.

    For a spin-independent Hamiltonian and the spatial (x) spin cut the
    evolution operator is local, so the drift must vanish to numerical
    precision.
    """
    ref = schmidt(state, cut)
    worst = 0.0
    for t in times:
        lam = schmidt(evolve(state, t, hbar=hbar), cut)
        worst = max(worst, float(np.max(np.abs(lam - ref))))
    return CheckReport("schmidt_invariance", 1e-10, worst,
                       details={"n_times": len(list(times))})


# ---------------------------------------------------------------------------
# oscillator mode operators
# ---------------------------------------------------------------------------

def mode_operators(n: int, *, mass: float = 1.0, hbar: float = 1.0,
                   omega: float = 1.0):
    """Truncated position and momentum matrices in an oscillator basis."""
    rt = np.sqrt(np.arange(1, n))
    a = sp.diags(rt, 1)
    adag = sp.diags(rt, -1)
    x = math.sqrt(hbar / (2 * mass * omega)) * (a + adag)
    p = 1j * math.sqrt(mass * hbar * omega / 2) * (adag - a)
    return x.tocsr(), p.tocsr()


def so21_ladder_operators(n: int, *, mass: float = 1.0, hbar: float = 1.0,
                          omega: float = 1.0):
    """h, W+ and W- assembled from truncated X and P.

    W+ = (1/(4 sqrt 2)) [P^2/(m hbar w) - (m w/hbar) X^2
                         + (i/hbar)(XP + PX)]
    and W- is its adjoint.  In the untruncated algebra W+ is
    proportional to the squared raising operator, shifting energy by
    2 hbar w.
    """
    x, p = mode_operators(n, mass=mass, hbar=hbar, omega=omega)
    h = (p @ p) / (2 * mass) + 0.5 * mass * omega**2 * (x @ x)
    wp = (1.0 / (4 * math.sqrt(2.0))) * (
        (p @ p) / (mass * hbar * omega)
        - (mass * omega / hbar) * (x @ x)
        + (1j / hbar) * (x @ p + p @ x))
    wm = wp.conj().T
    return h.tocsr(), wp.tocsr(), wm.tocsr()


def _interior_norm(mat, n: int, modes: int = 1) -> float:
    """Frobenius norm of the sparse block of a ``modes``-mode operator
    (basis dim n**modes) whose every mode index lies below
    n - EDGE_EXCLUSION."""
    good = np.arange(n) < n - EDGE_EXCLUSION
    ix = np.flatnonzero(functools.reduce(np.logical_and.outer, [good] * modes))
    block = mat[ix][:, ix]
    return float(np.sqrt(abs(block.multiply(block.conj())).sum()))


def ladder_check(omega: float = 1.0, n: int = 40, *, mass: float = 1.0,
                 hbar: float = 1.0) -> CheckReport:
    """Verify [h, W+-] = +-2 hbar w W+- and [W+, W-] = -h/(2 hbar w).

    All three identities are exact on the interior block; only the top
    EDGE_EXCLUSION rows feel the truncation.
    """
    if n < 20:
        raise ValueError("need n >= 20")
    h, wp, wm = so21_ladder_operators(n, mass=mass, hbar=hbar, omega=omega)
    r_up = h @ wp - wp @ h - 2 * hbar * omega * wp
    r_dn = h @ wm - wm @ h + 2 * hbar * omega * wm
    r_comm = wp @ wm - wm @ wp + h / (2 * hbar * omega)
    residuals = {
        "raise": _interior_norm(r_up, n),
        "lower": _interior_norm(r_dn, n),
        "so21_commutator": _interior_norm(r_comm, n),
    }
    return CheckReport("ladder", 1e-8, max(residuals.values()),
                       details=residuals)


# ---------------------------------------------------------------------------
# three-mode assembly
# ---------------------------------------------------------------------------

def _embed3(op, slot: int, n: int):
    eye = sp.identity(n, format="csr")
    ops = [eye, eye, eye]
    ops[slot] = op
    return sp.kron(sp.kron(ops[0], ops[1]), ops[2]).tocsr()


def three_mode_operators(n: int, *, mass: float = 1.0, hbar: float = 1.0,
                         omega: float = 1.0):
    """Embedded X_i, P_i for three oscillator modes (basis dim n^3)."""
    x, p = mode_operators(n, mass=mass, hbar=hbar, omega=omega)
    xs = [_embed3(x, i, n) for i in range(3)]
    ps = [_embed3(p, i, n) for i in range(3)]
    return xs, ps


def _from_jacobi(ops):
    """Particle-coordinate operators X_i = sum_a R_ai Q_a from Jacobi-mode
    operators Q_a (momenta likewise)."""
    return [sum(JACOBI_MATRIX[a, i] * ops[a] for a in range(3))
            for i in range(3)]


def _hamiltonian(xs, ps, omega: float, gamma: float, mass: float):
    """Harmonic trap + harmonic interaction from particle X_i and P_i."""
    h = sum((ps[i] @ ps[i]) / (2 * mass)
            + 0.5 * mass * omega**2 * (xs[i] @ xs[i]) for i in range(3))
    if gamma:
        for i, j in ((0, 1), (1, 2), (2, 0)):
            d = xs[i] - xs[j]
            h = h + gamma * (d @ d)
    return h.tocsr()


def superintegrability_check(n: int = 12, *, omega: float = 1.0,
                             mass: float = 1.0, hbar: float = 1.0,
                             gamma_control: float = 0.5) -> CheckReport:
    """The nine invariants of the non-interacting harmonic model.

    Checks that the three one-particle Hamiltonians, the three angular
    momentum analogues Q_i P_j - P_i Q_j and the three Demkov operators
    P_i P_j + m^2 w^2 X_i X_j all commute with H on the interior block;
    that the relative angular momentum still commutes with the
    interacting (harmonic-interaction) Hamiltonian in Jacobi modes; and
    that the single-particle Hamiltonian does NOT commute with the
    interacting one (negative control, part of ``passed``: a
    ``gamma_control`` too small to break it fails the check).
    """
    xs, ps = three_mode_operators(n, mass=mass, hbar=hbar, omega=omega)
    hs = [(ps[i] @ ps[i]) / (2 * mass)
          + 0.5 * mass * omega**2 * (xs[i] @ xs[i]) for i in range(3)]
    h0 = (hs[0] + hs[1] + hs[2]).tocsr()

    invariants = {f"h{i + 1}": hs[i] for i in range(3)}
    for i, j in ((0, 1), (1, 2), (2, 0)):
        invariants[f"L{i + 1}{j + 1}"] = xs[i] @ ps[j] - ps[i] @ xs[j]
        invariants[f"Demkov{i + 1}{j + 1}"] = (
            ps[i] @ ps[j] + (mass * omega) ** 2 * xs[i] @ xs[j])

    residuals = {name: _interior_norm(h0 @ op - op @ h0, n, 3)
                 for name, op in invariants.items()}

    # interacting case: the relative angular momentum survives
    h_int_j = _hamiltonian(_from_jacobi(xs), _from_jacobi(ps), omega,
                           gamma_control, mass)
    l_rel = xs[1] @ ps[2] - ps[1] @ xs[2]
    residuals["L_rel_interacting"] = _interior_norm(
        h_int_j @ l_rel - l_rel @ h_int_j, n, 3)

    # negative control: h1 fails against the interacting Hamiltonian
    h_int = _hamiltonian(xs, ps, omega, gamma_control, mass)
    negative = _interior_norm(h_int @ hs[0] - hs[0] @ h_int, n, 3)

    return CheckReport("superintegrability", 1e-8, max(residuals.values()),
                       details={**residuals, "negative_control": negative,
                                "negative_control_ok": negative > 1e-2})


# ---------------------------------------------------------------------------
# locality of gold-separable Hamiltonians
# ---------------------------------------------------------------------------

def local_projection(h: np.ndarray, dims):
    """Hilbert-Schmidt projection of H onto sums of single-factor operators.

    Returns ((A_1, A_2, A_3), |H - P(H)|_F / |H|_F), where
    P(H) = A_1 (x) 1 (x) 1 + 1 (x) A_2 (x) 1 + 1 (x) 1 (x) A_3 and
    each A_i is H's partial average over the other two factors, with
    the trace part split evenly across the three factors.
    """
    ht = h.reshape(*dims, *dims)
    c0 = np.trace(h) / h.shape[0]
    factors = []
    for sub, d in zip(("ibcjbc->ij", "aicajc->ij", "abiabj->ij"), dims):
        a = np.einsum(sub, ht) / (h.shape[0] // d)
        factors.append(a - (np.trace(a) / d - c0 / 3) * np.eye(d))
    eyes = [np.eye(d) for d in dims]
    local = sum(functools.reduce(np.kron, eyes[:i] + [f] + eyes[i + 1:])
                for i, f in enumerate(factors))
    return tuple(factors), float(np.linalg.norm(h - local) / np.linalg.norm(h))


def gold_locality_check(spec: ModelSpec) -> CheckReport:
    """Verify the two gold-separability signatures in Jacobi modes.

    The Hamiltonian assembled from particle-coordinate operators,
    truncated to 8 modes per Jacobi coordinate, must (a) be a sum of
    three factor-local operators in the Jacobi mode basis and (b) leave
    the Schmidt spectrum of 4 random states (seed 7) invariant over 12
    random times under its own evolution with respect to the gold cut;
    the tolerance is 1e-8.  Raises NotGold for non-gold models and
    UnsupportedTrap for a gold model whose trap is not harmonic-like (no
    mode frequency).
    """
    spec = validate_model(spec)
    verdict = classify_separability(spec)
    if verdict.grade != "gold":
        raise NotGold(f"model classifies {verdict.grade!r}, not gold")
    if not spec.harmonic_like:
        raise UnsupportedTrap(
            f"the gold check needs a harmonic-like trap, got {spec.trap.kind!r}")
    gamma = spec.interaction.gamma if spec.interaction.kind == "harmonic" else 0.0
    omega = spec.effective_omega()
    n = 8
    xs, ps = (_from_jacobi(ops) for ops in three_mode_operators(
        n, mass=spec.mass, hbar=spec.hbar, omega=omega))
    h = _hamiltonian(xs, ps, omega, gamma, spec.mass).toarray()
    if isinstance(spec.trap, QuadraticTrap):
        # linear and constant trap terms stay local; add them explicitly
        for x in xs:
            h = h + (spec.trap.b * x).toarray()
        h = h + 3 * spec.trap.c * np.eye(n**3)

    dims = (n, n, n)
    factors, resid_local = local_projection(h, dims)

    # entanglement invariance under the factorized evolution
    e1, e2, e3 = (np.linalg.eigvalsh(a) for a in factors)
    energies = e1[:, None, None] + e2[None, :, None] + e3[None, None, :]
    rng = np.random.default_rng(7)
    cut = TPSBipartition((0,), (1, 2))
    worst_schmidt = 0.0
    for _ in range(4):
        tensor = rng.standard_normal(dims) + 1j * rng.standard_normal(dims)
        state = TruncatedState(tensor, energies=energies)
        rep = schmidt_invariance_check(
            state, cut, rng.uniform(0, 20, 12), hbar=spec.hbar)
        worst_schmidt = max(worst_schmidt, rep.max_residual)

    worst = max(resid_local, worst_schmidt)
    return CheckReport("gold_locality", 1e-8, worst,
                       details={"locality_residual": resid_local,
                                "schmidt_drift": worst_schmidt})
