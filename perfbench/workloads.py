"""The two workloads: seeded inputs, the operations of a round, checks.

A round is a fixed list of operations, so every run attempts whole
rounds and the share of failed operations does not depend on the seed
or on the run length.  Operations a workload exists for are its main
operations; every workload also runs small fixed probes of the other
operation kinds, several times per round, so that each end-to-end
metric is measured on each workload (see README.md).
"""

from __future__ import annotations

import contextlib
import io
import math
import subprocess
import sys
from dataclasses import dataclass, field
from pathlib import Path
from typing import Callable

import numpy as np

import reference as ref

# Known program faults: the check names each one fails.  An operation that
# carries one of these and fails exactly these checks counts as failed;
# any other failure makes the run incorrect.
FAULTS = {
    "cm-fit-grid": frozenset({"fit_within_verify_tol"}),
    "contact-towers": frozenset({"towers_one_row_per_energy"}),
    "masked-multiplet": frozenset({"ground_sixfold"}),
}

MODELS = ("noninteracting", "harm-harm", "calogero", "unitary-contact")
CHECKS = ("ladder", "invariants", "schmidt", "gold")
CSV_MODEL = {"harm-harm": "harm_harm", "calogero": "calogero_moser"}
PROBE_TOL = 1e-2  # fit tolerance on the coarse probe grids
# Probes are short: each runs several times per round, so that its median
# rests on many samples spread over the run.
PROBE_REPEATS = {"cli-towers": 6, "grid-oracle": 4}


@dataclass
class Op:
    name: str
    kinds: tuple  # metric families the operation's time feeds
    run: Callable[[], object]
    check: Callable[[object], tuple]  # output -> (failed checks, values)
    states: int = 0  # states in the energy window, counted by the benchmark
    fault: str | None = None
    out: Path | None = None  # output directory, emptied before each run


@dataclass
class Session:
    """Seeded inputs shared by every round of a run."""

    root: Path  # checkout root, holding src/
    work: Path  # work directory for configs and command outputs
    seed: int
    in_process: bool = False  # drive CLI commands through cli.main
    omega: float = 1.0
    gamma_hh: float = 0.5
    gamma_cm: float = 1.0
    configs: dict = field(default_factory=dict)
    env: dict = field(default_factory=dict)
    _refs: dict = field(default_factory=dict)

    def rng(self, *stream) -> np.random.Generator:
        return np.random.default_rng([self.seed, *stream])


def build_session(root: Path, work: Path, seed: int, env: dict,
                  in_process: bool = False) -> Session:
    """Draw the model parameters and write the four config files."""
    s = Session(root=root, work=work, seed=seed, env=env,
                in_process=in_process)
    draw = s.rng(0)
    s.omega = float(draw.uniform(0.8, 1.25))
    # gamma_hh scales with omega^2 so that omega_rel / omega, and with it
    # the number of harm-harm states in a window, barely moves
    s.gamma_hh = float(draw.uniform(0.45, 0.55)) * s.omega ** 2
    s.gamma_cm = float(draw.uniform(0.8, 1.25))
    cfg = work / "configs"
    cfg.mkdir(parents=True, exist_ok=True)
    interaction = {
        "noninteracting": "",
        "harm-harm": f"interaction.kind = harmonic\n"
                     f"interaction.gamma = {s.gamma_hh!r}\n",
        "calogero": f"interaction.kind = inverse_square\n"
                    f"interaction.gamma = {s.gamma_cm!r}\n",
        "unitary-contact": "interaction.kind = contact\n"
                           "interaction.gamma = unitary\n",
    }
    for model in MODELS:
        path = cfg / f"{model}.cfg"
        path.write_text(f"trap.kind = harmonic\ntrap.omega = {s.omega!r}\n"
                        + interaction[model], encoding="utf-8")
        s.configs[model] = path
    return s


# ---------------------------------------------------------------------------
# references, built once per (model, window) and kept in the session
# ---------------------------------------------------------------------------

def _refs(s: Session, model: str, emax: float):
    key = (model, emax)
    if key not in s._refs:
        n_top = ref.quanta_window(s.omega, emax)
        if model == "noninteracting":
            counts = ref.ordered_triple_counts(n_top)
            multisets = ref.multisets_by_total(n_top)
            s._refs[key] = {
                "states": int(counts.sum()), "counts": counts,
                "multisets": multisets,
                "irreps": ref.irreps_reference_noninteracting(
                    multisets, counts, n_top)}
        elif model == "unitary-contact":
            strict = ref.multisets_by_total(n_top, strict=True)
            s._refs[key] = {
                "states": 6 * sum(len(v) for v in strict.values()),
                "strict": strict,
                "irreps": ref.irreps_reference_contact(strict, n_top)}
        else:
            levels = (ref.harm_harm_levels(s.omega, s.gamma_hh, emax)
                      if model == "harm-harm"
                      else ref.calogero_levels(s.omega, s.gamma_cm, emax))
            s._refs[key] = {"states": sum(1 for *_, e in levels if e <= emax),
                            "levels": ref.cylindrical_reference(levels, emax)}
    return s._refs[key]


# ---------------------------------------------------------------------------
# CLI commands
# ---------------------------------------------------------------------------

def _command(s: Session, argv: list, in_process: bool):
    """Callable running one CLI command; returns (exit code, stdout)."""
    if in_process:
        def run():
            import threebody1d.cli as cli  # looked up per call: tracing patches it
            buf = io.StringIO()
            with contextlib.redirect_stdout(buf), \
                    contextlib.redirect_stderr(io.StringIO()):
                code = cli.main(argv)
            return code, buf.getvalue()
    else:
        cmd = [sys.executable, "-m", "threebody1d.cli", *argv]

        def run():
            p = subprocess.run(cmd, cwd=s.root, env=s.env, capture_output=True,
                               text=True, timeout=170, check=False)
            return p.returncode, p.stdout
    return run


def classify_op(s: Session, model: str) -> Op:
    argv = ["classify", "--config", str(s.configs[model])]
    return Op(f"classify-{model}", ("cmd",), _command(s, argv, s.in_process),
              lambda res: (ref.check_classify(res[0], res[1], model), {}))


def _placement(s: Session, in_process: bool | None, throughput: str):
    """Where a tower command runs, and the metrics its time feeds.

    It runs the session's way unless told otherwise.  Its time counts
    toward ``cli_cmd_p50_s`` when it runs the session's way, and toward a
    throughput only in-process: a fresh interpreter's time is mostly
    start-up and import.
    """
    if in_process is None:
        in_process = s.in_process
    kinds = (("cmd",) if in_process == s.in_process else ()) \
        + ((throughput,) if in_process else ())
    return in_process, kinds


def spectrum_op(s: Session, model: str, emax_quanta: float,
                in_process: bool | None = None) -> Op:
    emax = emax_quanta * s.omega
    out = s.work / f"spectrum-{model}-{emax_quanta:g}"
    argv = ["spectrum", "--config", str(s.configs[model]), "--model", model,
            "--emax", repr(emax), "--out", str(out)]
    r = _refs(s, model, emax)

    def check(res):
        if res[0] != 0:
            return ["exit_code"], {}
        text = (out / "levels.csv").read_text(encoding="utf-8")
        if model == "noninteracting":
            fails = ref.check_noninteracting_csv(text, s.omega, emax,
                                                 r["multisets"], r["counts"])
        elif model == "unitary-contact":
            fails = ref.check_contact_csv(text, s.omega, emax, r["strict"])
        else:
            fails = ref.check_cylindrical_csv(
                text, CSV_MODEL[model], r["levels"])
        return fails, {}

    in_process, kinds = _placement(s, in_process, "spectrum")
    return Op(f"spectrum-{model}-{emax_quanta:g}", kinds,
              _command(s, argv, in_process), check, states=r["states"],
              out=out)


def irreps_op(s: Session, model: str, emax_quanta: float,
              in_process: bool | None = None) -> Op:
    emax = emax_quanta * s.omega
    out = s.work / f"irreps-{model}-{emax_quanta:g}"
    argv = ["irreps", "--config", str(s.configs[model]), "--model", model,
            "--emax", repr(emax), "--out", str(out)]
    r = _refs(s, model, emax)

    def check(res):
        if res[0] != 0:
            return ["exit_code"], {}
        return ref.check_irreps_output(
            (out / "irreps.json").read_text(encoding="utf-8"),
            (out / "towers.json").read_text(encoding="utf-8"),
            s.omega, r["irreps"]), {}

    large = model == "noninteracting"
    in_process, kinds = _placement(
        s, in_process, "irreps_large" if large else "irreps_small")
    return Op(f"irreps-{model}-{emax_quanta:g}", kinds,
              _command(s, argv, in_process), check, states=r["states"],
              fault=None if large else "contact-towers", out=out)


def verify_op(s: Session, check_name: str) -> Op:
    model = "harm-harm" if check_name == "gold" else "noninteracting"
    out = s.work / f"verify-{check_name}"
    argv = ["verify", "--config", str(s.configs[model]), "--check", check_name,
            "--out", str(out)]

    def check(res):
        report = out / "report.json"
        text = report.read_text(encoding="utf-8") if report.exists() else "[]"
        return ref.check_verify(res[0], text), {}

    return Op(f"verify-{check_name}", ("cmd",),
              _command(s, argv, s.in_process), check, out=out)


def tower_commands(s: Session, spectrum_quanta, large_quanta, small_quanta,
                   in_process: bool | None = None):
    """spectrum for the four models and irreps for the two that support it."""
    return ([spectrum_op(s, m, spectrum_quanta, in_process) for m in MODELS]
            + [irreps_op(s, "noninteracting", large_quanta, in_process),
               irreps_op(s, "unitary-contact", small_quanta, in_process)])


# ---------------------------------------------------------------------------
# grid oracle
# ---------------------------------------------------------------------------

def fit_op(kind: str, gamma: float, grid=None,
           tol: float = ref.VERIFY_TOL) -> Op:
    """fit_harm_harm_frequency(1, gamma) or fit_cm_exponent(1, gamma)."""
    from threebody1d import solvable

    if kind == "fit_hh":
        run = lambda: solvable.fit_harm_harm_frequency(1.0, gamma, grid=grid)
        exact = ref.omega_rel(1.0, gamma)
    else:
        run = lambda: solvable.fit_cm_exponent(1.0, gamma, grid=grid)
        exact = ref.cm_alpha(gamma)

    def check(fit):
        fails, rel = ref.check_fit(fit.fitted, exact, tol)
        return fails, {f"{kind}_rel_dev": rel}

    fault = "cm-fit-grid" if kind == "fit_cm" and grid is None else None
    return Op(kind, (kind,), run, check, fault=fault)


def smooth_3d_op(gamma: float, n: int) -> Op:
    from threebody1d import oracle
    from threebody1d.grids import Grid1D
    from threebody1d.models import HarmonicInteraction, HarmonicTrap, ModelSpec

    spec = ModelSpec(HarmonicTrap(1.0), HarmonicInteraction(gamma))
    grid = Grid1D(-6.0, 6.0, n)
    return Op("full3d_smooth", ("full3d_smooth",),
              lambda: oracle.full_spectrum_3d(spec, grid, k=4),
              lambda res: (ref.check_smooth_3d(res.eigenvalues, 1.0, gamma,
                                               grid.dx), {}))


def masked_3d_op(omega: float, n: int) -> Op:
    from threebody1d import oracle
    from threebody1d.grids import Grid1D
    from threebody1d.models import ContactInteraction, HarmonicTrap, ModelSpec

    spec = ModelSpec(HarmonicTrap(omega), ContactInteraction(unitary=True))
    grid = Grid1D(-6.0, 6.0, n)
    return Op("full3d_masked", ("full3d_masked",),
              lambda: oracle.full_spectrum_3d(spec, grid, k=6),
              lambda res: (ref.check_masked_3d(res.eigenvalues), {}),
              fault="masked-multiplet")


def grid_1d_op(a: float, b: float, c: float, n: int, half_width: float,
               n_max: int) -> Op:
    from threebody1d import onebody
    from threebody1d.grids import Grid1D
    from threebody1d.models import QuadraticTrap

    trap = QuadraticTrap(a, b, c)
    grid = Grid1D(-half_width, half_width, n)
    omega = math.sqrt(2.0 * a)  # V = a x^2 + b x + c, m = 1
    shift = c - b * b / (4.0 * a)
    return Op("grid1d", ("grid1d",),
              lambda: onebody.grid_spectrum_1d(trap, grid, n_max),
              lambda res: (ref.check_grid_1d(res.energies, res.est_error,
                                             omega, shift, n_max + 1), {}))


def fit_couplings(s: Session):
    """gamma for the two fits: 0.5 and 1, each moved by up to 1 % per seed."""
    u = s.rng(3).uniform(-1.0, 1.0, 2)
    return 0.5 * (1 + 0.01 * u[0]), 1.0 * (1 + 0.01 * u[1])


def oracle_probes(s: Session) -> list:
    """Small oracle solves, one of each kind, on fixed coarse grids."""
    from threebody1d.grids import Grid1D, PolarGrid

    g_hh, g_cm = fit_couplings(s)
    return [
        fit_op("fit_hh", g_hh, Grid1D(-7.0, 7.0, 48), PROBE_TOL),
        fit_op("fit_cm", g_cm, PolarGrid(7.5, 60, math.pi / 6, math.pi / 2, 40),
               PROBE_TOL),
        smooth_3d_op(0.4, 12),
        masked_3d_op(1.0, 12),
        grid_1d_op(0.5, 0.1, 0.2, 512, 10.0, 10),
    ]


def grid_oracle_main(s: Session, r: int) -> list:
    """The workload's own solves; the 3D ones draw a new coupling each round."""
    draw = s.rng(1, r)
    # two smooth solves: ARPACK's time jumps between nearby couplings
    gamma, omega = draw.uniform(0.35, 0.45, 2), draw.uniform(0.9, 1.1)
    a, b, c = draw.uniform(0.45, 0.55), draw.uniform(-0.2, 0.2), draw.uniform(-1, 1)
    g_hh, g_cm = fit_couplings(s)
    # two Calogero fits: one takes about 1.3 s and varies by about 13 %
    # from call to call, so one a round left its run median unsettled
    return [
        fit_op("fit_hh", g_hh),
        fit_op("fit_cm", g_cm),
        smooth_3d_op(float(gamma[0]), 32),
        fit_op("fit_cm", g_cm),
        smooth_3d_op(float(gamma[1]), 32),
        masked_3d_op(float(omega), 32),
        grid_1d_op(float(a), float(b), float(c), 2048, 16.0, 40),
    ]


# ---------------------------------------------------------------------------
# workloads
# ---------------------------------------------------------------------------

@dataclass
class Workload:
    name: str
    round_ops: Callable[[Session, int], list]  # operations of round r
    warmup_op: Callable[[Session, int], Op]  # one operation for set-up j
    primed: Callable[[Session], list] = lambda s: []  # run before timing starts
    fresh_interpreter: bool = False  # CLI commands as subprocesses when untraced


def interleave(main: list, probes: list) -> list:
    """The probes spread evenly between the main operations.

    Host speed changes over seconds; spread out, the probe samples of a
    round see the host across the whole round instead of in one burst.
    """
    out, j = [], 0
    for i, op in enumerate(main, start=1):
        k = round(i * len(probes) / len(main))
        out += [op] + probes[j:k]
        j = k
    return out


def _cli_towers(s: Session, r: int) -> list:
    session = ([classify_op(s, m) for m in MODELS]
               + tower_commands(s, 12, 12, 12)
               + [verify_op(s, c) for c in CHECKS])
    # the large windows run in this process even when the session's
    # commands run in fresh interpreters: their throughputs are meant to
    # measure composition, solvable and symmetry, not the import
    towers = tower_commands(s, 120, 30, 60, in_process=True)
    return interleave(interleave(session, towers),
                      oracle_probes(s) * PROBE_REPEATS["cli-towers"])


def _grid_oracle(s: Session, r: int) -> list:
    # windows large enough that each probe command takes tens of ms:
    # millisecond commands here read the state the big solves leave behind
    return interleave(grid_oracle_main(s, r),
                      tower_commands(s, 40, 16, 24)
                      * PROBE_REPEATS["grid-oracle"])


WORKLOADS = {
    "cli-towers": Workload(
        "cli-towers", _cli_towers,
        lambda s, j: spectrum_op(s, "noninteracting", 120, in_process=True),
        oracle_probes, fresh_interpreter=True),
    "grid-oracle": Workload(
        "grid-oracle", _grid_oracle,
        # a draw of its own, so no timed solve finds its matrix cached
        lambda s, j: masked_3d_op(float(s.rng(2, j).uniform(0.9, 1.1)), 32)),
}
