"""The batch CLI, driven in-process through ``cli.main``.

Table outputs are compared byte for byte with the files under
``tests/golden/``; ``manifest.json`` is left out because it records the
wall time.  The golden files hold exactly what the commands below write
for the four configs in ``CONFIGS`` (harmonic trap, omega = 1) at
emax 12.
"""

import contextlib
import io
import json
from pathlib import Path

import pytest

from threebody1d import cli

GOLDEN = Path(__file__).parent / "golden"
EMAX = "12"
MODELS = ("noninteracting", "harm-harm", "calogero", "unitary-contact")
TRAP = "trap.kind = harmonic\ntrap.omega = 1.0\n"
CONFIGS = {
    "noninteracting": TRAP,
    "harm-harm": TRAP + "interaction.kind = harmonic\ninteraction.gamma = 0.5\n",
    "calogero": TRAP + "interaction.kind = inverse_square\n"
                       "interaction.gamma = 1.0\n",
    "unitary-contact": TRAP + "interaction.kind = contact\n"
                              "interaction.gamma = unitary\n",
}


@pytest.fixture(scope="module")
def configs(tmp_path_factory):
    root = tmp_path_factory.mktemp("configs")
    paths = {}
    for model, text in CONFIGS.items():
        paths[model] = root / f"{model}.cfg"
        paths[model].write_text(text, encoding="utf-8")
    return paths


def run(*argv):
    """(exit code, stdout) of one command."""
    out = io.StringIO()
    with contextlib.redirect_stdout(out), \
            contextlib.redirect_stderr(io.StringIO()):
        code = cli.main([str(a) for a in argv])
    return code, out.getvalue()


def table_outputs(command, config, model, out):
    """The files ``spectrum`` or ``irreps`` writes, except the manifest."""
    code, _ = run(command, "--config", config, "--model", model,
                  "--emax", EMAX, "--out", out)
    assert code == 0
    names = ("levels.csv",) if command == "spectrum" \
        else ("irreps.json", "towers.json")
    return {name: (out / name).read_bytes() for name in names}


def golden(name):
    return (GOLDEN / name).read_bytes()


@pytest.mark.parametrize("model", MODELS)
def test_spectrum_matches_golden_and_reruns(model, configs, tmp_path):
    first = table_outputs("spectrum", configs[model], model, tmp_path / "a")
    again = table_outputs("spectrum", configs[model], model, tmp_path / "b")
    assert first == again
    assert first["levels.csv"] == golden(f"spectrum-{model}.csv")


@pytest.mark.parametrize("model", ("noninteracting", "unitary-contact"))
def test_irreps_match_golden_and_rerun(model, configs, tmp_path):
    first = table_outputs("irreps", configs[model], model, tmp_path / "a")
    again = table_outputs("irreps", configs[model], model, tmp_path / "b")
    assert first == again
    for name, data in first.items():
        assert data == golden(f"irreps-{model}-{name}")


@pytest.mark.parametrize("model", MODELS)
def test_classify_matches_golden(model, configs):
    code, stdout = run("classify", "--config", configs[model])
    assert code == 0
    assert stdout.encode("utf-8") == golden(f"classify-{model}.txt")


@pytest.mark.parametrize("check, model, name, tol", [
    ("ladder", "noninteracting", "ladder", 1e-8),
    ("invariants", "noninteracting", "superintegrability", 1e-8),
    ("schmidt", "noninteracting", "schmidt_invariance", 1e-10),
    ("gold", "harm-harm", "gold_locality", 1e-8),
])
def test_verify_reports(check, model, name, tol, configs, tmp_path):
    code, stdout = run("verify", "--config", configs[model], "--check", check,
                       "--out", tmp_path)
    assert code == 0
    (report,) = json.loads((tmp_path / "report.json").read_text())
    assert (report["check"], report["tolerance"], report["pass"]) \
        == (name, tol, True)
    assert stdout.startswith(f"{name}: ") and stdout.rstrip().endswith("pass")


def test_gold_check_on_silver_model_exits_1(configs, tmp_path):
    code, _ = run("verify", "--config", configs["calogero"], "--check", "gold",
                  "--out", tmp_path)
    assert code == 1


def test_missing_config_exits_2(tmp_path):
    code, _ = run("classify", "--config", tmp_path / "absent.cfg")
    assert code == 2


def test_model_mismatching_config_exits_2(configs, tmp_path):
    code, _ = run("spectrum", "--config", configs["noninteracting"],
                  "--model", "calogero", "--emax", EMAX, "--out", tmp_path)
    assert code == 2


def test_verify_report_keeps_details(configs, tmp_path):
    def report(check):
        out = tmp_path / check
        code, _ = run("verify", "--config", configs["noninteracting"],
                      "--check", check, "--out", out)
        assert code == 0
        (rep,) = json.loads((out / "report.json").read_text())
        return rep

    ladder = report("ladder")
    assert ladder["max_residual"] == max(
        ladder["details"][k] for k in ("raise", "lower", "so21_commutator"))
    invariants = report("invariants")["details"]
    assert invariants["negative_control_ok"] is True
    assert invariants["negative_control"] > 1e-2
