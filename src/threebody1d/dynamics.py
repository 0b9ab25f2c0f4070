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

import json
import math
from dataclasses import dataclass, field

import numpy as np
import scipy.sparse as sp

from .errors import DimensionMismatch, MissingEnergyLabel, NotGold
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
    names: tuple = ()

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
    factor_names: tuple = ()

    def __post_init__(self):
        nrm = np.linalg.norm(self.tensor)
        if abs(nrm - 1.0) > 1e-12:
            object.__setattr__(self, "tensor", self.tensor / nrm)
        if self.energies is not None:
            np.broadcast_shapes(np.shape(self.energies), self.tensor.shape)


@dataclass(frozen=True)
class SchmidtResult:
    coefficients: np.ndarray  # descending, sum of squares = 1
    left_vectors: np.ndarray  # columns in the left factor
    right_vectors: np.ndarray
    entropy: float  # -sum lambda^2 ln lambda^2


def schmidt(state: TruncatedState, cut: TPSBipartition) -> SchmidtResult:
    """Schmidt decomposition of the state across the given cut."""
    t = state.tensor
    cut.validate(t.ndim)
    perm = cut.left + cut.right
    dl = int(np.prod([t.shape[a] for a in cut.left]))
    dr = int(np.prod([t.shape[a] for a in cut.right]))
    mat = np.transpose(t, perm).reshape(dl, dr)
    u, s, vh = np.linalg.svd(mat, full_matrices=False)
    s2 = s**2
    nz = s2 > 1e-300
    entropy = float(-np.sum(s2[nz] * np.log(s2[nz])))
    return SchmidtResult(coefficients=s, left_vectors=u,
                         right_vectors=vh.conj().T, entropy=entropy)


def evolve(state: TruncatedState, t: float, *, hbar: float = 1.0) -> TruncatedState:
    """Multiply every coefficient by exp(-i E t / hbar)."""
    if state.energies is None:
        raise MissingEnergyLabel("state carries no energy labels")
    phases = np.exp(-1j * np.asarray(state.energies) * t / hbar)
    return TruncatedState(tensor=state.tensor * phases,
                          energies=state.energies,
                          factor_names=state.factor_names)


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

    def to_json(self) -> str:
        # the default turns numpy scalars in details (a numpy.bool_ from a
        # comparison, say) into the Python values they hold
        return json.dumps({
            "check": self.check,
            "tolerance": self.tolerance,
            "max_residual": self.max_residual,
            "pass": bool(self.passed),
            "details": self.details,
        }, sort_keys=True, default=np.generic.item)


def schmidt_invariance_check(state: TruncatedState, cut: TPSBipartition,
                             times, *, hbar: float = 1.0,
                             tolerance: float = 1e-10) -> CheckReport:
    """Maximal drift of the sorted Schmidt spectrum under evolution.

    For a spin-independent Hamiltonian and the spatial (x) spin cut the
    evolution operator is local, so the drift must vanish to numerical
    precision.
    """
    ref = schmidt(state, cut).coefficients
    worst = 0.0
    for t in times:
        lam = schmidt(evolve(state, t, hbar=hbar), cut).coefficients
        worst = max(worst, float(np.max(np.abs(lam - ref))))
    return CheckReport("schmidt_invariance", tolerance, worst,
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


def _interior_norm(mat, n: int) -> float:
    """Frobenius norm of the block excluding the top EDGE_EXCLUSION rows."""
    cut = n - EDGE_EXCLUSION
    block = mat[:cut, :cut]
    if sp.issparse(block):
        return float(np.sqrt(abs(block.multiply(block.conj())).sum()))
    return float(np.linalg.norm(block))


def ladder_check(omega: float = 1.0, n: int = 40, *, mass: float = 1.0,
                 hbar: float = 1.0, tolerance: float = 1e-8) -> CheckReport:
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
    return CheckReport("ladder", tolerance, max(residuals.values()),
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


def interacting_hamiltonian(n: int, omega: float, gamma: float, *,
                            mass: float = 1.0, hbar: float = 1.0,
                            basis: str = "particle"):
    """Harmonic trap + harmonic interaction in a truncated mode basis.

    ``basis='particle'`` uses one oscillator mode per particle;
    ``basis='jacobi'`` expresses the same particle-coordinate operators
    through Jacobi modes (X_i = sum_a R_ai Q_a), in which the
    interaction's cross terms cancel and the operator becomes a sum of
    factor-local pieces.
    """
    xs, ps = three_mode_operators(n, mass=mass, hbar=hbar, omega=omega)
    if basis == "jacobi":
        r = JACOBI_MATRIX
        xs = [sum(r[a, i] * xs[a] for a in range(3)) for i in range(3)]
        ps = [sum(r[a, i] * ps[a] for a in range(3)) for i in range(3)]
    elif basis != "particle":
        raise ValueError(f"unknown basis {basis!r}")
    h = sum((ps[i] @ ps[i]) / (2 * mass)
            + 0.5 * mass * omega**2 * (xs[i] @ xs[i]) for i in range(3))
    if gamma:
        for i, j in ((0, 1), (1, 2), (2, 0)):
            d = xs[i] - xs[j]
            h = h + gamma * (d @ d)
    return h.tocsr()


def _interior_mask3(n: int) -> np.ndarray:
    good = np.arange(n) < n - EDGE_EXCLUSION
    return (good[:, None, None] & good[None, :, None]
            & good[None, None, :]).ravel()


def _interior_norm3(mat, n: int) -> float:
    ix = np.where(_interior_mask3(n))[0]
    block = mat[ix][:, ix]
    return float(np.sqrt(abs(block.multiply(block.conj())).sum()))


def superintegrability_check(n: int = 12, *, omega: float = 1.0,
                             mass: float = 1.0, hbar: float = 1.0,
                             gamma_control: float = 0.5,
                             tolerance: float = 1e-8) -> CheckReport:
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

    invariants = {}
    for i in range(3):
        invariants[f"h{i + 1}"] = hs[i]
    for i, j in ((0, 1), (1, 2), (2, 0)):
        invariants[f"L{i + 1}{j + 1}"] = xs[i] @ ps[j] - ps[i] @ xs[j]
        invariants[f"Demkov{i + 1}{j + 1}"] = (
            ps[i] @ ps[j] + (mass * omega) ** 2 * xs[i] @ xs[j])

    residuals = {}
    for name, op in invariants.items():
        residuals[name] = _interior_norm3(h0 @ op - op @ h0, n)

    # interacting case: the relative angular momentum survives
    h_int_j = interacting_hamiltonian(n, omega, gamma_control, mass=mass,
                                      hbar=hbar, basis="jacobi")
    l_rel = xs[1] @ ps[2] - ps[1] @ xs[2]
    residuals["L_rel_interacting"] = _interior_norm3(
        h_int_j @ l_rel - l_rel @ h_int_j, n)

    # negative control: h1 fails against the interacting Hamiltonian
    h_int = interacting_hamiltonian(n, omega, gamma_control, mass=mass,
                                    hbar=hbar, basis="particle")
    negative = _interior_norm3(h_int @ hs[0] - hs[0] @ h_int, n)

    worst = max(residuals.values())
    report = CheckReport("superintegrability", tolerance, worst,
                         details={**residuals,
                                  "negative_control": negative,
                                  "negative_control_ok": negative > 1e-2})
    return report


# ---------------------------------------------------------------------------
# locality of gold-separable Hamiltonians
# ---------------------------------------------------------------------------

def _partial_averages(h: np.ndarray, dims):
    """H as a 6-index tensor, its partial averages over the two
    complementary factors of each factor, and tr(H) / dim."""
    d1, d2, d3 = dims
    ht = h.reshape(d1, d2, d3, d1, d2, d3)
    a1 = np.einsum("ibcjbc->ij", ht) / (d2 * d3)
    a2 = np.einsum("aicajc->ij", ht) / (d1 * d3)
    a3 = np.einsum("abiabj->ij", ht) / (d1 * d2)
    return ht, (a1, a2, a3), np.trace(h) / (d1 * d2 * d3)


def best_local_residual(h: np.ndarray, dims) -> float:
    """Relative distance of H from the span of single-factor operators.

    Projects H onto sum_i A_i (x) identity in the Hilbert-Schmidt inner
    product and returns |H - P(H)|_F / |H|_F.
    """
    d1, d2, d3 = dims
    dim = d1 * d2 * d3
    eyes = [np.eye(d) for d in dims]
    ht, (a1, a2, a3), c0 = _partial_averages(h, dims)
    a1 = a1 - np.trace(a1) / d1 * eyes[0]
    a2 = a2 - np.trace(a2) / d2 * eyes[1]
    a3 = a3 - np.trace(a3) / d3 * eyes[2]
    # uniform signature: (i,j) factor 1, (a,b) factor 2, (c,d) factor 3
    local = (np.einsum("ij,ab,cd->iacjbd", a1, eyes[1], eyes[2])
             + np.einsum("ij,ab,cd->iacjbd", eyes[0], a2, eyes[2])
             + np.einsum("ij,ab,cd->iacjbd", eyes[0], eyes[1], a3)
             + c0 * np.einsum("ij,ab,cd->iacjbd", eyes[0], eyes[1], eyes[2]))
    resid = np.linalg.norm((ht - local).reshape(dim, dim))
    return float(resid / np.linalg.norm(h))


def extract_local_factors(h: np.ndarray, dims):
    """The three factor-local Hamiltonians of a (numerically) local H.

    The trace-part constant is split evenly across the factors.
    """
    d1, d2, d3 = dims
    _, (a1, a2, a3), c0 = _partial_averages(h, dims)
    a1 = a1 - (np.trace(a1) / d1 - c0 / 3) * np.eye(d1)
    a2 = a2 - (np.trace(a2) / d2 - c0 / 3) * np.eye(d2)
    a3 = a3 - (np.trace(a3) / d3 - c0 / 3) * np.eye(d3)
    return a1, a2, a3


def gold_locality_check(spec: ModelSpec, n: int = 8, *,
                        tolerance: float = 1e-8,
                        n_states: int = 4, n_times: int = 12,
                        seed: int = 7) -> CheckReport:
    """Verify the two gold-separability signatures in Jacobi modes.

    The truncated Hamiltonian assembled from particle-coordinate
    operators must (a) be a sum of three factor-local operators in the
    Jacobi mode basis and (b) leave the Schmidt spectrum of random
    states invariant under its own evolution with respect to the gold
    cut.  Raises NotGold for non-gold models.
    """
    spec = validate_model(spec)
    verdict = classify_separability(spec)
    if verdict.grade != "gold":
        raise NotGold(f"model classifies {verdict.grade!r}, not gold")
    if spec.interaction.kind == "harmonic":
        gamma = spec.interaction.gamma
    else:
        gamma = 0.0
    omega = spec.effective_omega()
    h = interacting_hamiltonian(n, omega, gamma, mass=spec.mass,
                                hbar=spec.hbar, basis="jacobi").toarray()
    if isinstance(spec.trap, QuadraticTrap):
        # linear and constant trap terms stay local; add them explicitly
        xs, _ = three_mode_operators(n, mass=spec.mass, hbar=spec.hbar,
                                     omega=omega)
        r = JACOBI_MATRIX
        xs_p = [sum(r[a, i] * xs[a] for a in range(3)) for i in range(3)]
        for i in range(3):
            h = h + (spec.trap.b * xs_p[i]).toarray()
        h = h + 3 * spec.trap.c * np.eye(n**3)

    dims = (n, n, n)
    resid_local = best_local_residual(h, dims)

    # entanglement invariance under the factorized evolution
    a1, a2, a3 = extract_local_factors(h, dims)
    e1 = np.linalg.eigvalsh(a1)
    e2 = np.linalg.eigvalsh(a2)
    e3 = np.linalg.eigvalsh(a3)
    energies = e1[:, None, None] + e2[None, :, None] + e3[None, None, :]
    rng = np.random.default_rng(seed)
    cut = TPSBipartition((0,), (1, 2))
    worst_schmidt = 0.0
    for _ in range(n_states):
        tensor = rng.standard_normal(dims) + 1j * rng.standard_normal(dims)
        state = TruncatedState(tensor, energies=energies)
        rep = schmidt_invariance_check(
            state, cut, rng.uniform(0, 20, n_times), hbar=spec.hbar,
            tolerance=1e-10)
        worst_schmidt = max(worst_schmidt, rep.max_residual)

    worst = max(resid_local, worst_schmidt)
    return CheckReport("gold_locality", tolerance, worst,
                       details={"locality_residual": resid_local,
                                "schmidt_drift": worst_schmidt})
