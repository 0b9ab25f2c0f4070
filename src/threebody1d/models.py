"""Model specification, validation and rule-based classifiers.

A model is a one-body trap plus a pairwise interaction, with mass and
hbar carried explicitly.  Internal computations default to natural
units (hbar = m = 1); explicit-unit results come out of the closed
forms and grid solvers directly because every formula keeps its hbar/m
factors.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, replace

import numpy as np

from .errors import (
    ConfigError,
    MissingParameter,
    ModelValidationError,
    NegativeCoupling,
    NonConfiningTrap,
)

# The eleven orthonormal coordinate systems in which the 3D Schroedinger
# equation can separate at all.
COORDINATE_SYSTEMS = (
    "rectangular",
    "cylindrical",
    "elliptic_cylindrical",
    "parabolic_cylindrical",
    "spherical",
    "conical",
    "parabolic",
    "prolate_spheroidal",
    "oblate_spheroidal",
    "ellipsoidal",
    "paraboloidal",
)

# An isotropic harmonic trap with no interaction separates in every
# system except the three parabolic families.
_HARMONIC_FREE_SEPARABLE = frozenset(
    s for s in COORDINATE_SYSTEMS
    if s not in ("parabolic", "parabolic_cylindrical", "paraboloidal")
)


# ---------------------------------------------------------------------------
# traps
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class HarmonicTrap:
    kind = "harmonic"
    omega: float

    def potential(self, x, mass=1.0):
        return 0.5 * mass * self.omega**2 * np.asarray(x) ** 2


@dataclass(frozen=True)
class InfiniteWell:
    """Hard-wall box of width ``length`` centered at the origin."""

    kind = "infinite_well"
    length: float

    def potential(self, x, mass=1.0):
        # Interior value; the walls are boundary conditions, not finite values.
        return np.zeros_like(np.asarray(x, dtype=float))


@dataclass(frozen=True)
class QuadraticTrap:
    """V(x) = a*x^2 + b*x + c.  Confining requires a > 0."""

    kind = "quadratic"
    a: float
    b: float = 0.0
    c: float = 0.0

    def potential(self, x, mass=1.0):
        x = np.asarray(x)
        return self.a * x**2 + self.b * x + self.c


@dataclass(frozen=True)
class TabulatedTrap:
    """Trap sampled on an increasing abscissa grid; interpolated linearly.

    The only trap whose asymmetry leaves the paper's bare P3 ~ C3v (a
    shifted QuadraticTrap stays harmonic-like and keeps D6h).
    """

    kind = "custom_tabulated"
    xs: tuple
    vs: tuple

    def potential(self, x, mass=1.0):
        return np.interp(np.asarray(x), self.xs, self.vs)

    def is_parity_symmetric(self, tol=1e-9):
        xs = np.asarray(self.xs)
        vs = np.asarray(self.vs)
        mirrored = np.interp(-xs, xs, vs)
        scale = max(1.0, float(np.max(np.abs(vs))))
        return bool(np.max(np.abs(mirrored - vs)) <= tol * scale)


@dataclass(frozen=True)
class NoTrap:
    kind = "none"

    def potential(self, x, mass=1.0):
        return np.zeros_like(np.asarray(x, dtype=float))


# ---------------------------------------------------------------------------
# interactions
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class NoInteraction:
    kind = "none"


@dataclass(frozen=True)
class HarmonicInteraction:
    """V2(r) = gamma * r^2."""

    kind = "harmonic"
    gamma: float


@dataclass(frozen=True)
class InverseSquareInteraction:
    """V2(r) = gamma / r^2 (Calogero-Moser type)."""

    kind = "inverse_square"
    gamma: float


@dataclass(frozen=True)
class ContactInteraction:
    """V2(r) = gamma * delta(r).

    The unitary limit is flagged symbolically with ``unitary=True`` and
    ``gamma=None``; a float infinity is never stored.
    """

    kind = "contact"
    gamma: float | None = None
    unitary: bool = False


@dataclass(frozen=True)
class UnitsConvention:
    mode: str = "natural"  # "natural" (hbar=m=omega=1) or "explicit"


@dataclass(frozen=True)
class ModelSpec:
    trap: object
    interaction: object = NoInteraction()
    mass: float = 1.0
    hbar: float = 1.0
    units: UnitsConvention = UnitsConvention("natural")

    @property
    def parity_symmetric_trap(self) -> bool:
        """Every trap but a tabulated one is parity-symmetric (a shifted
        parabola about its own vertex)."""
        return self.trap.kind != "custom_tabulated" or self.trap.is_parity_symmetric()

    @property
    def harmonic_like(self) -> bool:
        """True when the trap is a (possibly shifted) parabola."""
        t = self.trap
        return t.kind == "harmonic" or (t.kind == "quadratic" and t.a > 0)

    def effective_omega(self) -> float:
        """Oscillator frequency of a harmonic-like trap."""
        t = self.trap
        if t.kind == "harmonic":
            return t.omega
        if t.kind == "quadratic" and t.a > 0:
            return math.sqrt(2.0 * t.a / self.mass)
        raise ValueError(f"trap {t.kind!r} has no oscillator frequency")


# ---------------------------------------------------------------------------
# validation
# ---------------------------------------------------------------------------

def collect_violations(spec: ModelSpec) -> list[str]:
    """All invariant violations of ``spec``, empty when valid.  A NaN or
    infinite number is one violation, in place of its range rule."""
    bad = []

    def rule(name, x, ok=True, message=None):
        if not math.isfinite(x):
            bad.append(f"MissingParameter: {name} must be finite")
        elif not ok:
            bad.append(message)

    t = spec.trap
    if t.kind == "harmonic":
        rule("trap omega", t.omega, t.omega > 0,
             "NegativeCoupling: harmonic trap requires omega > 0")
    elif t.kind == "infinite_well":
        rule("trap length", t.length, t.length > 0,
             "NegativeCoupling: infinite well requires length L > 0")
    elif t.kind == "quadratic":
        rule("trap a", t.a, t.a > 0,
             "NonConfiningTrap: quadratic trap requires a > 0")
        rule("trap b", t.b)
        rule("trap c", t.c)
    elif t.kind == "custom_tabulated":
        xs = np.asarray(t.xs, dtype=float)
        vs = np.asarray(t.vs, dtype=float)
        if xs.ndim != 1 or xs.size < 4 or xs.size != vs.size:
            bad.append("MissingParameter: tabulated trap needs >= 4 (x, V) samples")
        elif not np.all(np.isfinite((xs, vs))):
            bad.append("MissingParameter: tabulated trap samples must be finite")
        elif not np.all(np.diff(xs) > 0):
            bad.append("MissingParameter: tabulated trap abscissa must increase")
        elif not (vs[-1] > vs[-2] and vs[0] > vs[1]):
            # confinement: the samples must rise toward both grid ends
            bad.append("NonConfiningTrap: tabulated trap must increase toward both ends")
    elif t.kind != "none":
        bad.append(f"MissingParameter: unknown trap kind {t.kind!r}")

    v = spec.interaction
    if v.kind == "contact" and v.unitary:
        if v.gamma is not None:
            bad.append("MissingParameter: unitary contact must not carry a finite gamma")
    elif v.kind == "contact" and v.gamma is None:
        bad.append("MissingParameter: finite contact interaction requires gamma")
    elif v.kind in ("harmonic", "inverse_square", "contact"):
        rule("interaction gamma", v.gamma, v.gamma >= 0,
             f"NegativeCoupling: {v.kind} interaction requires gamma >= 0")

    for name, x in (("mass", spec.mass), ("hbar", spec.hbar)):
        rule(name, x, x > 0, f"MissingParameter: {name} must be positive")
    if spec.units.mode not in ("natural", "explicit"):
        bad.append(f"MissingParameter: unknown units mode {spec.units.mode!r}")
    return bad


_ERROR_BY_TAG = {
    "NonConfiningTrap": NonConfiningTrap,
    "NegativeCoupling": NegativeCoupling,
    "MissingParameter": MissingParameter,
}


def validate_model(spec: ModelSpec) -> ModelSpec:
    """Return a normalized spec or raise with the list of violations.

    In natural mode hbar and mass are forced to 1.
    """
    bad = collect_violations(spec)
    if bad:
        tag = bad[0].split(":", 1)[0]
        raise _ERROR_BY_TAG.get(tag, ModelValidationError)(bad)
    if spec.units.mode == "natural" and (spec.mass != 1.0 or spec.hbar != 1.0):
        spec = replace(spec, mass=1.0, hbar=1.0)
    return spec


# ---------------------------------------------------------------------------
# separability classifier
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class SeparabilityVerdict:
    systems: dict  # coordinate system name -> bool
    grade: str  # gold | silver | bronze | none
    witness: str | None  # system witnessing the grade
    sector_solvable: bool = False

    @property
    def separable_systems(self):
        return tuple(s for s in COORDINATE_SYSTEMS if self.systems[s])


def classify_separability(spec: ModelSpec) -> SeparabilityVerdict:
    """Rule table over the declared trap/interaction kinds.

    Custom tabulated potentials always classify none: deciding
    separability for an arbitrary potential would need a full
    Staeckel-type analysis, which this package does not attempt.
    """
    systems = {s: False for s in COORDINATE_SYSTEMS}
    kind = spec.interaction.kind
    harm = spec.harmonic_like
    quad = spec.trap.kind in ("harmonic", "quadratic", "none")

    if kind == "contact" and spec.interaction.unitary:
        # solvable through ordering sectors, not a separable system
        return SeparabilityVerdict(systems, "none", None, sector_solvable=True)

    if kind == "none":
        if spec.trap.kind == "custom_tabulated":
            return SeparabilityVerdict(systems, "none", None)
        systems["rectangular"] = True  # particle coordinates already separate
        if harm:
            for s in _HARMONIC_FREE_SEPARABLE:
                systems[s] = True
        return SeparabilityVerdict(systems, "gold", "rectangular")

    if kind == "harmonic" and quad:
        systems["rectangular"] = True
        if harm:
            systems["cylindrical"] = True
        return SeparabilityVerdict(systems, "gold", "rectangular")

    if kind == "inverse_square" and harm:
        systems["cylindrical"] = True
        return SeparabilityVerdict(systems, "silver", "cylindrical")

    return SeparabilityVerdict(systems, "none", None)


# ---------------------------------------------------------------------------
# symmetry-group classifier
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class SymmetryClassification:
    label: str  # P3 | P3xO(1) | P3xO(1)xO(1)
    point_group: str  # C3v | D3d | D6h
    phase_space: str


def classify_symmetry_group(spec: ModelSpec) -> SymmetryClassification:
    """Minimal configuration-space symmetry group of the model.

    Particle permutations always survive.  A parity-symmetric trap adds
    total inversion; a harmonic-like trap additionally makes relative
    parity good on its own, because center-of-mass and relative motion
    decouple.  The point-group names C3v, D3d and D6h are labels only:
    nothing decomposes under them, and ``symmetry.S3`` is the one group
    the package builds.
    """
    if spec.harmonic_like:
        return SymmetryClassification(
            "P3xO(1)xO(1)", "D6h",
            "T_t x P3 x O(1) x U(1)  (harmonic COM adds a U(1) phase-space circle)",
        )
    if spec.parity_symmetric_trap:
        return SymmetryClassification("P3xO(1)", "D3d", "T_t x P3 x O(1)")
    return SymmetryClassification("P3", "C3v", "T_t x P3")


# ---------------------------------------------------------------------------
# config files
# ---------------------------------------------------------------------------

# trap.kind -> (trap class, its number keys in field order, each with its
# default; None marks a required key)
_TRAPS = {
    "harmonic": (HarmonicTrap, {"trap.omega": None}),
    "infinite_well": (InfiniteWell, {"trap.length": None}),
    "quadratic": (QuadraticTrap, {"trap.A": None, "trap.B": 0.0, "trap.C": 0.0}),
    "none": (NoTrap, {}),
}
# interaction.kind -> interaction class; each but "none" needs gamma
_INTERACTIONS = {"none": NoInteraction, "harmonic": HarmonicInteraction,
                 "inverse_square": InverseSquareInteraction,
                 "contact": ContactInteraction}
_CONFIG_KEYS = {"trap.kind", "interaction.kind", "interaction.gamma",
                "units.mode", "mass", "hbar",
                *(k for _, keys in _TRAPS.values() for k in keys)}


def parse_config(text: str) -> ModelSpec:
    """Parse the flat key=value config format into a validated ModelSpec.

    Lines are ``key = value``; blank lines and ``#`` comments are
    skipped; unknown and duplicate keys are errors (with their line
    number).  The keys:

    - ``trap.kind`` (required): ``harmonic`` needs ``trap.omega``,
      ``infinite_well`` needs ``trap.length``, ``quadratic`` needs
      ``trap.A`` and takes ``trap.B`` and ``trap.C`` (default 0) for
      V(x) = A x^2 + B x + C, and ``none`` needs nothing.
    - ``interaction.kind``: ``none`` (the default), or ``harmonic``,
      ``inverse_square`` or ``contact``, each of which needs
      ``interaction.gamma``.  A contact interaction takes
      ``interaction.gamma = unitary`` for its unitary limit.
    - ``units.mode``: ``natural`` (the default), whose ``mass`` and
      ``hbar`` are 1 whatever valid values the file gives, or
      ``explicit``.
    - ``mass`` and ``hbar``: default 1.

    Every number must be finite: a NaN or +-inf value is a ConfigError
    that names the key and its line, as a value that is not a number is.
    """
    values: dict[str, str] = {}
    lines: dict[str, int] = {}
    for i, raw in enumerate(text.splitlines(), start=1):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        if "=" not in line:
            raise ConfigError(f"expected 'key = value', got {raw.strip()!r}", line=i)
        key, _, val = line.partition("=")
        key, val = key.strip(), val.strip()
        if key not in _CONFIG_KEYS:
            raise ConfigError(f"unknown key {key!r}", line=i)
        if key in values:
            raise ConfigError(f"duplicate key {key!r}", line=i)
        values[key] = val
        lines[key] = i

    def need(key, default=None):
        """The text of ``key``, or ``default`` when it is absent; a key
        without a default is required."""
        if key in values:
            return values[key]
        if default is None:
            raise ConfigError(f"missing required key {key!r}")
        return default

    def fnum(key, default=None):
        """The finite number at ``key``, or ``default`` when it is absent."""
        if key not in values and default is not None:
            return default
        text = need(key)
        try:
            x = float(text)
        except ValueError:
            raise ConfigError(f"key {key!r} is not a number: {text!r}",
                              line=lines[key]) from None
        if not math.isfinite(x):
            raise ConfigError(f"key {key!r} is not finite: {text!r}",
                              line=lines[key])
        return x

    def kind_of(key, table, default=None):
        kind = need(key, default)
        if kind not in table:
            raise ConfigError(f"unknown {key} {kind!r}", line=lines[key])
        return kind

    trap_cls, trap_keys = _TRAPS[kind_of("trap.kind", _TRAPS)]
    trap = trap_cls(*(fnum(k, d) for k, d in trap_keys.items()))
    ikind = kind_of("interaction.kind", _INTERACTIONS, "none")
    if ikind == "none":
        inter = NoInteraction()
    elif ikind == "contact" and need("interaction.gamma") == "unitary":
        inter = ContactInteraction(unitary=True)
    else:
        inter = _INTERACTIONS[ikind](fnum("interaction.gamma"))
    spec = ModelSpec(trap=trap, interaction=inter, mass=fnum("mass", 1.0),
                     hbar=fnum("hbar", 1.0),
                     units=UnitsConvention(need("units.mode", "natural")))
    try:
        return validate_model(spec)
    except ModelValidationError as exc:
        raise ConfigError(str(exc)) from exc


def load_config(path) -> ModelSpec:
    """The ModelSpec of a config file; a file that cannot be read, or is
    not UTF-8 text, is a ConfigError."""
    try:
        with open(path, encoding="utf-8") as fh:
            text = fh.read()
    except UnicodeDecodeError as exc:
        raise ConfigError(f"{path} is not UTF-8 text: {exc}") from None
    except OSError as exc:
        raise ConfigError(str(exc)) from None
    return parse_config(text)
