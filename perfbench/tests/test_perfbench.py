"""Tests of the benchmark harness: every workload runs, every check can fail.

Run from the repository root with ``python -m pytest perfbench/tests -q``.
"""

import json
import os
import subprocess
import sys

import numpy as np
import pytest

import reference as ref
import run
import workloads as wl
from conftest import BENCH, ROOT
from tracing import OP_SPAN, Tracer


@pytest.fixture
def session(tmp_path):
    return wl.build_session(ROOT, tmp_path, seed=5, env=run.child_env(ROOT / "src"),
                            in_process=True)


@pytest.mark.parametrize("name", sorted(wl.WORKLOADS))
def test_each_workload_runs_one_operation(name, tmp_path):
    w = wl.WORKLOADS[name]
    s = wl.build_session(ROOT, tmp_path, seed=3, env=run.child_env(ROOT / "src"),
                         in_process=not w.fresh_interpreter)
    op = w.round_ops(s, 0)[0]
    seconds, fails, _ = run.execute(op)
    assert seconds > 0
    assert fails == []


def test_round_is_the_same_list_for_every_seed(tmp_path):
    for name, w in wl.WORKLOADS.items():
        names = {seed: [op.name for op in w.round_ops(
            wl.build_session(ROOT, tmp_path / f"{name}{seed}", seed, {}, True), 1)]
            for seed in (0, 1)}
        assert names[0] == names[1]


def test_same_seed_same_inputs(tmp_path):
    a = wl.build_session(ROOT, tmp_path / "a", 9, {}, True)
    b = wl.build_session(ROOT, tmp_path / "b", 9, {}, True)
    assert (a.omega, a.gamma_hh, a.gamma_cm) == (b.omega, b.gamma_hh, b.gamma_cm)
    assert a.configs["calogero"].read_text() == b.configs["calogero"].read_text()


# ---------------------------------------------------------------------------
# each check passes on the program's output and fails on a perturbed copy
# ---------------------------------------------------------------------------

def _spectrum_text(session, model, quanta=8):
    op = wl.spectrum_op(session, model, quanta)
    fails, _ = op.check(op.run())
    assert fails == []
    return op, (op.out / "levels.csv").read_text()


def _check_text(op, text):
    (op.out / "levels.csv").write_text(text)
    return op.check((0, ""))[0]


def test_noninteracting_spectrum_check_fails_on_perturbation(session):
    op, text = _spectrum_text(session, "noninteracting")
    lines = text.splitlines(keepends=True)
    # drop one multiset (a dropped state) from the last level
    e, deg, tags, acc = lines[-1].split(",")
    dropped = ",".join([e, deg, tags.rsplit(";", 1)[0], acc])
    assert "multisets" in _check_text(op, "".join(lines[:-1]) + dropped)
    # shift one energy
    e, rest = lines[2].split(",", 1)
    shifted = repr(float(e) + 1e-6) + "," + rest
    assert "energy" in _check_text(op, "".join(lines[:2] + [shifted] + lines[3:]))
    # drop a whole level
    assert _check_text(op, "".join(lines[:-1])) == ["level_count"]


@pytest.mark.parametrize("model", ["harm-harm", "calogero"])
def test_cylindrical_spectrum_check_fails_on_perturbation(session, model):
    op, text = _spectrum_text(session, model, quanta=16)
    lines = text.splitlines(keepends=True)
    assert "state_set" in _check_text(op, "".join(lines[:3] + lines[4:]))
    cells = lines[3].rstrip("\n").split(",")
    energy = cells[:4] + [repr(float(cells[4]) * (1 + 1e-6)), cells[5]]
    assert "energy" in _check_text(
        op, "".join(lines[:3] + [",".join(energy) + "\n"] + lines[4:]))
    degeneracy = cells[:5] + [str(int(cells[5]) + 1)]
    assert "degeneracy" in _check_text(
        op, "".join(lines[:3] + [",".join(degeneracy) + "\n"] + lines[4:]))


def test_contact_spectrum_check_fails_on_perturbation(session):
    op, text = _spectrum_text(session, "unitary-contact")
    lines = text.splitlines(keepends=True)
    assert "state_set" in _check_text(op, "".join(lines[:-1]))
    cells = lines[1].rstrip("\n").split(",")
    cells[4] = repr(float(cells[4]) + 1e-3)
    assert "energy" in _check_text(op, "".join([lines[0], ",".join(cells) + "\n"]
                                               + lines[2:]))


def test_irreps_check_fails_on_swapped_multiplicity(session):
    op = wl.irreps_op(session, "noninteracting", 8)
    assert op.check(op.run())[0] == []
    rows = json.loads((op.out / "irreps.json").read_text())
    towers = (op.out / "towers.json").read_text()
    row = next(r for r in rows if r["multiplicities"]["[3]"]
               != r["multiplicities"]["[1^3]"])
    m = row["multiplicities"]
    m["[3]"], m["[1^3]"] = m["[1^3]"], m["[3]"]
    assert "multiplicities" in ref.check_irreps_output(
        json.dumps(rows), towers, session.omega,
        wl._refs(session, "noninteracting", 8 * session.omega)["irreps"])


def test_irreps_check_fails_on_repeated_tower_energy(session):
    op = wl.irreps_op(session, "noninteracting", 8)
    op.run()
    irreps = (op.out / "irreps.json").read_text()
    towers = json.loads((op.out / "towers.json").read_text())
    e, m = towers["[3]"][-1]
    towers["[3]"][-1:] = [[e, 1], [e, m - 1]] if m > 1 else [[e, m], [e, 0]]
    fails = ref.check_irreps_output(
        irreps, json.dumps(towers), session.omega,
        wl._refs(session, "noninteracting", 8 * session.omega)["irreps"])
    assert "towers_one_row_per_energy" in fails


def test_contact_irreps_fails_only_on_its_known_fault(session):
    op = wl.irreps_op(session, "unitary-contact", 12)
    fails, _ = op.check(op.run())
    assert set(fails) <= wl.FAULTS[op.fault]


def test_classify_check():
    good = "separability: silver (witness cylindrical)\nseparable systems: x\n"
    assert ref.check_classify(0, good, "calogero") == []
    assert ref.check_classify(0, good.replace("silver", "gold"), "calogero") == ["grade"]
    assert "exit_code" in ref.check_classify(2, good, "calogero")
    assert ref.check_classify(0, "separability: none\n", "unitary-contact") \
        == ["sector_solvable"]


def test_verify_check():
    assert ref.check_verify(0, json.dumps([{"pass": True}])) == []
    assert ref.check_verify(0, json.dumps([{"pass": False}])) == ["pass"]
    assert ref.check_verify(3, json.dumps([{"pass": True}])) == ["exit_code"]
    assert ref.check_verify(0, "[]") == ["pass"]


def test_fit_check():
    exact = ref.cm_alpha(1.0)
    assert ref.check_fit(exact * (1 + 5e-5), exact)[0] == []
    fails, rel = ref.check_fit(exact * (1 + 2.9e-4), exact)
    assert fails == ["fit_within_verify_tol"] and rel == pytest.approx(2.9e-4)
    assert ref.omega_rel(1.0, 0.5) == 2.0


def test_smooth_3d_check():
    op = wl.smooth_3d_op(0.4, 16)
    result = op.run()
    assert op.check(result)[0] == []
    dx = 12.0 / 15
    shifted = np.array(result.eigenvalues)
    shifted[0] += 2 * ref.smooth_3d_tolerance(shifted[0], dx)
    assert ref.check_smooth_3d(shifted, 1.0, 0.4, dx) == ["levels_within_stencil_error"]
    dropped = np.append(result.eigenvalues[1:], result.eigenvalues[-1] + 1.0)
    assert ref.check_smooth_3d(dropped, 1.0, 0.4, dx) == ["levels_within_stencil_error"]


def test_masked_3d_check():
    assert ref.check_masked_3d([4.4] * 6) == []
    assert ref.check_masked_3d([4.4] * 5 + [5.3]) == ["ground_sixfold"]
    assert ref.check_masked_3d([4.4] * 5) == ["ground_sixfold"]


def test_grid_1d_check():
    op = wl.grid_1d_op(0.5, 0.1, 0.2, 512, 10.0, 10)
    result = op.run()
    assert op.check(result)[0] == []
    shifted = result.energies.copy()
    shifted[3] += 2 * result.est_error[3] + 1e-12
    assert ref.check_grid_1d(shifted, result.est_error, 1.0, 0.2 - 0.005, 11) \
        == ["within_est_error"]
    assert ref.check_grid_1d(result.energies[:-1], result.est_error, 1.0,
                             0.195, 11) == ["level_count"]


def test_reference_counts_match_brute_force():
    counts = ref.ordered_triple_counts(10)
    assert list(counts[:4]) == [1, 3, 6, 10]
    strict = ref.multisets_by_total(9, strict=True)
    assert strict[3] == [(0, 1, 2)] and strict[6] == [(0, 1, 5), (0, 2, 4), (1, 2, 3)]
    assert ref.irreps_reference_contact(strict, 9)[6] == (3, 6, 3)
    ms = ref.multisets_by_total(4)
    assert ref.irreps_reference_noninteracting(ms, ref.ordered_triple_counts(4), 4)[3] \
        == (3, 3, 1)  # 10 = 3 + 2*3 + 1


# ---------------------------------------------------------------------------
# harness mechanics
# ---------------------------------------------------------------------------

def test_unexpected_failure_is_told_apart_from_known_fault(session):
    op = wl.masked_3d_op(1.0, 12)
    known = run.Record(0, op, 1.0, ["ground_sixfold"], {}, False)
    other = run.Record(0, op, 1.0, ["ground_sixfold", "exit_code"], {}, False)
    plain = run.Record(0, wl.smooth_3d_op(0.4, 12), 1.0, ["x"], {}, False)
    assert not run.unexpected(known, wl.FAULTS)
    assert run.unexpected(other, wl.FAULTS)
    assert run.unexpected(plain, wl.FAULTS)


def test_tracer_self_times_add_up_and_uninstall_restores(session):
    import threebody1d.cli as cli
    import threebody1d.symmetry as symmetry

    original = (cli.main, cli.decompose_eigenspace, symmetry.decompose_eigenspace)
    tracer = Tracer()
    tracer.install()
    try:
        assert cli.decompose_eigenspace is symmetry.decompose_eigenspace
        assert cli.decompose_eigenspace is not original[1]
        op = wl.irreps_op(session, "noninteracting", 10)
        tracer.run_op(0, op.run)
    finally:
        tracer.uninstall()
    assert (cli.main, cli.decompose_eigenspace, symmetry.decompose_eigenspace) == original
    selfs = tracer.self_times()
    total = sum(end - start for name, start, end, parent, _ in tracer.spans
                if name == OP_SPAN)
    assert sum(selfs.values()) == pytest.approx(total, rel=1e-9)
    assert tracer.counts["symmetry.decompose_calls"] == 9  # one per level, N = 0..8
    assert tracer.counts["symmetry.decompose_dim_max"] == 45


def test_run_refuses_a_directory_without_the_package(tmp_path):
    p = subprocess.run([sys.executable, str(BENCH / "run.py"), "--workload",
                        "grid-oracle", "--seed", "1", "--seconds", "1",
                        "--trace", "0"], cwd=tmp_path, capture_output=True,
                       text=True, timeout=60, env=dict(os.environ))
    assert p.returncode != 0
    assert p.stdout == ""
