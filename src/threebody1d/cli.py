"""Batch command-line front end.

Exit codes: 0 success, 1 internal failure, 2 config error, 3 check
failure.  Every output directory receives exactly one manifest.json;
all other outputs are byte-identical across reruns with the same
config and seed.
"""

from __future__ import annotations

import argparse
import json
import math
import sys
import time
from pathlib import Path

import numpy as np

from . import __version__, _import_s
from .composition import compose_spectrum, levels_to_csv
from .errors import ConfigError, NonIntegerMultiplicity, ThreeBodyError
from .models import (
    HarmonicInteraction,
    InverseSquareInteraction,
    classify_separability,
    classify_symmetry_group,
    load_config,
)
from .onebody import analytic_spectrum
from .solvable import (
    calogero_moser_spectrum,
    contact_levels_to_csv,
    fit_cm_exponent,
    fit_harm_harm_frequency,
    harm_harm_spectrum,
    silver_levels_to_csv,
    unitary_contact_spectrum,
)
from .symmetry import (
    build_group,
    decompose_eigenspace,
    decompositions_to_json,
    irrep_towers,
    orbit_rep_for_multisets,
    sector_permutation_rep,
)

MODELS = ("noninteracting", "harm-harm", "calogero", "unitary-contact")
CHECKS = ("oracle", "ladder", "invariants", "schmidt", "gold")
# Widest energy window of ``spectrum`` and ``irreps``, in quanta of
# hbar*omega.  The states in a window grow as the cube of its width: at
# 250 quanta, on a 2-core host, ``spectrum`` takes 2.5-5.8 s and
# 120-390 MB peak RSS for the four models, and ``irreps`` 7.9 s and
# 140 MB (noninteracting) or 4.5 s and 260 MB (unitary contact).
MAX_WINDOW_QUANTA = 250


def _write_json(path: Path, obj):
    """The one JSON file writer; numpy scalars go in as Python values."""
    path.write_text(json.dumps(obj, indent=2, sort_keys=True,
                               default=np.generic.item) + "\n",
                    encoding="utf-8")


def _require_omega(spec):
    if not spec.harmonic_like:
        raise ConfigError("this model needs a harmonic trap (key 'trap.omega')")
    return spec.effective_omega()


def _require_gamma(spec, kinds, model):
    inter = spec.interaction
    if inter.kind not in kinds:
        raise ConfigError(
            f"model {model!r} needs interaction.kind in {kinds}, "
            f"got {inter.kind!r}")
    if inter.kind == "none":
        return None
    if inter.kind == "contact":
        if not inter.unitary:
            raise ConfigError(
                "model 'unitary-contact' needs interaction.gamma = unitary")
        return None
    if inter.gamma is None:
        raise ConfigError(f"missing required key 'interaction.gamma' for {model!r}")
    return inter.gamma


def _check_window(spec, emax):
    """Refuse a window wider than MAX_WINDOW_QUANTA before enumerating it."""
    quanta = emax / (spec.hbar * _require_omega(spec))
    if quanta > MAX_WINDOW_QUANTA:
        raise ConfigError(
            f"--emax {emax:g} is {quanta:g} quanta of hbar*omega, above the "
            f"limit of {MAX_WINDOW_QUANTA}")


def _one_body(spec, emax, floor):
    """Harmonic one-body levels, enough to fill a window of triples up to
    emax; at least ``floor + 1`` of them."""
    omega = _require_omega(spec)
    return analytic_spectrum(
        spec.trap, max(floor, int(emax / (spec.hbar * omega)) + 2),
        mass=spec.mass, hbar=spec.hbar)


def _spectrum_csv(spec, model, emax):
    if model == "noninteracting":
        _require_gamma(spec, ("none",), model)
        return levels_to_csv(compose_spectrum(_one_body(spec, emax, 4), emax))
    if model == "harm-harm":
        omega = _require_omega(spec)
        gamma = _require_gamma(spec, ("harmonic",), model)
        levels = harm_harm_spectrum(omega, gamma, emax, mass=spec.mass,
                                    hbar=spec.hbar)
        return silver_levels_to_csv("harm_harm", levels)
    if model == "calogero":
        omega = _require_omega(spec)
        gamma = _require_gamma(spec, ("inverse_square",), model)
        levels = calogero_moser_spectrum(omega, gamma, emax, mass=spec.mass,
                                         hbar=spec.hbar)
        return silver_levels_to_csv("calogero_moser", levels)
    if model == "unitary-contact":
        _require_omega(spec)
        _require_gamma(spec, ("contact",), model)
        return contact_levels_to_csv(
            unitary_contact_spectrum(_one_body(spec, emax, 8), emax))
    raise ConfigError(f"unknown model {model!r}")


def cmd_spectrum(args) -> int:
    spec = load_config(args.config)
    _check_window(spec, args.emax)
    csv_text = _spectrum_csv(spec, args.model, args.emax)
    out = Path(args.out)
    out.mkdir(parents=True, exist_ok=True)
    (out / "levels.csv").write_text(csv_text, encoding="utf-8")
    return 0


def cmd_irreps(args) -> int:
    spec = load_config(args.config)
    _check_window(spec, args.emax)
    decomps = []
    group = build_group("S3")
    if args.model == "unitary-contact":
        _require_gamma(spec, ("contact",), args.model)
        # every level carries the same six-sector (regular) representation
        regular = decompose_eigenspace(group, sector_permutation_rep(group))
        decomps = [(lv.energy, regular) for lv in unitary_contact_spectrum(
            _one_body(spec, args.emax, 8), args.emax)]
    elif args.model == "noninteracting":
        _require_gamma(spec, ("none",), args.model)
        for lv in compose_spectrum(_one_body(spec, args.emax, 4), args.emax):
            perm, _ = orbit_rep_for_multisets(lv.multisets, group)
            decomps.append((lv.energy, decompose_eigenspace(group, perm)))
    else:
        raise ConfigError(
            f"irreps supports noninteracting and unitary-contact, got {args.model!r}")
    towers = irrep_towers(decomps)
    out = Path(args.out)
    out.mkdir(parents=True, exist_ok=True)
    (out / "irreps.json").write_text(decompositions_to_json(decomps) + "\n",
                                     encoding="utf-8")
    _write_json(out / "towers.json", {
        label: [[float(e), int(m)] for e, m in rows]
        for label, rows in towers.items()
    })
    return 0


def cmd_classify(args) -> int:
    spec = load_config(args.config)
    verdict = classify_separability(spec)
    sym = classify_symmetry_group(spec)
    names = ", ".join(verdict.separable_systems) or "-"
    print(f"separability: {verdict.grade}"
          + (f" (witness {verdict.witness})" if verdict.witness else ""))
    print(f"separable systems: {names}")
    if verdict.sector_solvable:
        print("sector-solvable: yes (unitary contact limit)")
    print(f"symmetry group: {sym.label} ~ {sym.point_group}")
    print(f"phase space: {sym.phase_space}")
    return 0


def _run_checks(spec, which: str):
    from . import dynamics

    reports = []
    if which in ("ladder",):
        reports.append(dynamics.ladder_check(omega=_require_omega(spec), n=40,
                                             mass=spec.mass, hbar=spec.hbar))
    elif which == "invariants":
        reports.append(dynamics.superintegrability_check(
            n=10, omega=_require_omega(spec), mass=spec.mass, hbar=spec.hbar))
    elif which == "schmidt":
        rng = np.random.default_rng(0)
        d_spatial, d_spin = 12, 8
        tensor = rng.standard_normal((d_spatial, d_spin)) * 1.0 \
            + 1j * rng.standard_normal((d_spatial, d_spin))
        energies = np.sort(rng.uniform(0.5, 8.0, d_spatial))[:, None]
        state = dynamics.TruncatedState(tensor, energies=energies)
        reports.append(dynamics.schmidt_invariance_check(
            state, dynamics.TPSBipartition((0,), (1,)),
            rng.uniform(0.0, 50.0, 50), hbar=spec.hbar))
    elif which == "gold":
        _require_omega(spec)
        reports.append(dynamics.gold_locality_check(spec))
    elif which == "oracle":
        omega = _require_omega(spec)
        inter = spec.interaction
        if inter.kind == "contact":
            raise ConfigError("verify --check oracle has no oracle for a "
                              "contact interaction")
        if isinstance(inter, InverseSquareInteraction):
            fit = fit_cm_exponent(omega, inter.gamma, mass=spec.mass,
                                  hbar=spec.hbar)
            shipped = fit.candidates["derived_4mg"]
        else:
            gamma = inter.gamma if isinstance(inter, HarmonicInteraction) else 0.0
            fit = fit_harm_harm_frequency(omega, gamma, mass=spec.mass,
                                          hbar=spec.hbar)
            shipped = fit.candidates["derived_6g_over_m"]
        rel_err = abs(fit.fitted - shipped) / shipped
        reports.append(dynamics.CheckReport(
            "oracle", 1e-4, rel_err,
            details={"fitted": fit.fitted, "winner": fit.winner,
                     "candidates": fit.candidates,
                     "fit_residual": fit.fit_residual}))
    else:
        raise ConfigError(f"unknown check {which!r}")
    return reports


def cmd_verify(args) -> int:
    spec = load_config(args.config)
    reports = _run_checks(spec, args.check)
    out = Path(args.out)
    out.mkdir(parents=True, exist_ok=True)
    _write_json(out / "report.json", [r.as_dict() for r in reports])
    for r in reports:
        status = "pass" if r.passed else "FAIL"
        print(f"{r.check}: max_residual={r.max_residual:.3e} "
              f"tol={r.tolerance:.0e} {status}")
    return 0 if all(r.passed for r in reports) else 3


def _write_manifest(args, t0: float):
    out = getattr(args, "out", None)
    if out is None:
        return
    manifest = {
        "command": args.command,
        "config": str(args.config),
        "import_s": round(_import_s, 6),
        "output_dir": str(out),
        "seed": args.seed,
        "tool_version": __version__,
        "wall_time_s": round(time.perf_counter() - t0, 6),
    }
    Path(out).mkdir(parents=True, exist_ok=True)
    _write_json(Path(out) / "manifest.json", manifest)


def _finite_float(text: str) -> float:
    """``--emax``: a float that is neither NaN nor infinite."""
    try:
        value = float(text)
    except ValueError:
        raise argparse.ArgumentTypeError(f"not a number: {text!r}") from None
    if not math.isfinite(value):
        raise argparse.ArgumentTypeError(f"must be finite, got {text!r}")
    return value


def build_parser() -> argparse.ArgumentParser:
    ap = argparse.ArgumentParser(
        prog="threebody1d",
        description="Spectra, symmetries and entanglement structures of "
                    "three particles in one dimension")
    ap.add_argument("--seed", type=int, default=0,
                    help="seed recorded in the manifest and used by "
                         "stochastic checks")
    sub = ap.add_subparsers(dest="command", required=True)

    sp = sub.add_parser("spectrum", help="tabulate a model spectrum")
    sp.add_argument("--config", required=True)
    sp.add_argument("--model", required=True, choices=MODELS)
    sp.add_argument("--emax", type=_finite_float, required=True)
    sp.add_argument("--out", required=True)
    sp.set_defaults(func=cmd_spectrum)

    vf = sub.add_parser("verify", help="run a verification suite")
    vf.add_argument("--config", required=True)
    vf.add_argument("--check", required=True, choices=CHECKS)
    vf.add_argument("--out", required=True)
    vf.set_defaults(func=cmd_verify)

    ir = sub.add_parser("irreps", help="per-level irrep multiplicities")
    ir.add_argument("--config", required=True)
    ir.add_argument("--model", required=True, choices=MODELS)
    ir.add_argument("--emax", type=_finite_float, required=True)
    ir.add_argument("--out", required=True)
    ir.set_defaults(func=cmd_irreps)

    cl = sub.add_parser("classify", help="separability and symmetry verdicts")
    cl.add_argument("--config", required=True)
    cl.set_defaults(func=cmd_classify)
    return ap


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    t0 = time.perf_counter()
    try:
        code = args.func(args)
    except ConfigError as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return 2
    except FileNotFoundError as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return 2
    except NonIntegerMultiplicity as exc:
        print(f"check failure: {exc}", file=sys.stderr)
        return 3
    except ThreeBodyError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    _write_manifest(args, t0)
    return code


if __name__ == "__main__":
    sys.exit(main())
