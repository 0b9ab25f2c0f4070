"""The batch CLI, driven in-process through ``cli.main``.

Table outputs are compared byte for byte with the files under
``tests/golden/``; ``manifest.json`` is left out because it records the
wall time.  The golden files hold exactly what the commands below write
for the four configs in ``CONFIGS`` (harmonic trap, omega = 1) at
emax 12, and for the benchmark's large ``irreps`` window (noninteracting,
emax 30).
"""

import contextlib
import io
import json
import time
from pathlib import Path

import pytest

from threebody1d import HarmonicTrap, ModelSpec, NoInteraction, cli
from threebody1d.dynamics import CheckReport
from threebody1d.errors import ConfigError, NonIntegerMultiplicity

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


def table_outputs(command, config, model, out, emax=EMAX):
    """The files ``spectrum`` or ``irreps`` writes, except the manifest."""
    code, _ = run(command, "--config", config, "--model", model,
                  "--emax", emax, "--out", out)
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


def test_irreps_large_window_matches_golden(configs, tmp_path):
    outputs = table_outputs("irreps", configs["noninteracting"],
                            "noninteracting", tmp_path, emax="30")
    for name, data in outputs.items():
        assert data == golden(f"irreps-noninteracting-30-{name}")


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


def verify_oracle(config, out):
    code, _ = run("verify", "--config", config, "--check", "oracle",
                  "--out", out)
    (report,) = json.loads((out / "report.json").read_text())
    assert report["check"] == "oracle"
    return code, report


def test_verify_oracle_harm_harm_passes(configs, tmp_path):
    code, report = verify_oracle(configs["harm-harm"], tmp_path)
    assert code == 0 and report["pass"] is True
    assert report["details"]["winner"] == "derived_6g_over_m"


def test_verify_oracle_calogero_exit_code_follows_pass(configs, tmp_path):
    code, report = verify_oracle(configs["calogero"], tmp_path)
    assert report["details"]["winner"] == "derived_4mg"
    assert code == (0 if report["pass"] else 3)


@pytest.mark.parametrize("gamma", ("unitary", "2.0"))
def test_verify_oracle_on_contact_exits_2(gamma, tmp_path):
    # no oracle fits a contact spectrum; before, the noninteracting fit
    # ran in its place and passed
    path = tmp_path / "contact.cfg"
    path.write_text(TRAP + "interaction.kind = contact\n"
                           f"interaction.gamma = {gamma}\n", encoding="utf-8")
    err = io.StringIO()
    with contextlib.redirect_stderr(err):
        code = cli.main(["verify", "--config", str(path), "--check", "oracle",
                         "--out", str(tmp_path / "out")])
    assert code == 2
    assert "no oracle for a contact interaction" in err.getvalue()
    assert not (tmp_path / "out").exists()


def test_gold_check_on_silver_model_exits_1(configs, tmp_path):
    code, _ = run("verify", "--config", configs["calogero"], "--check", "gold",
                  "--out", tmp_path)
    assert code == 1


@pytest.mark.parametrize("config", [
    "trap.kind = infinite_well\ntrap.length = 5.0\n",
    "trap.kind = none\ninteraction.kind = harmonic\ninteraction.gamma = 0.5\n",
], ids=["infinite_well", "no_trap"])
def test_gold_check_without_harmonic_trap_exits_2(config, tmp_path):
    path = tmp_path / "gold.cfg"
    path.write_text(config, encoding="utf-8")
    code, _ = run("verify", "--config", path, "--check", "gold",
                  "--out", tmp_path / "out")
    assert code == 2


def test_missing_config_exits_2(tmp_path):
    code, _ = run("classify", "--config", tmp_path / "absent.cfg")
    assert code == 2


def test_model_mismatching_config_exits_2(configs, tmp_path):
    code, _ = run("spectrum", "--config", configs["noninteracting"],
                  "--model", "calogero", "--emax", EMAX, "--out", tmp_path)
    assert code == 2


def test_irreps_non_representation_exits_3(configs, tmp_path, monkeypatch):
    def broken(group, mats):
        raise NonIntegerMultiplicity("not a representation")

    monkeypatch.setattr(cli, "decompose_eigenspace", broken)
    code, _ = run("irreps", "--config", configs["noninteracting"],
                  "--model", "noninteracting", "--emax", EMAX,
                  "--out", tmp_path)
    assert code == 3


def test_verify_over_tolerance_exits_3(configs, tmp_path, monkeypatch):
    monkeypatch.setattr(cli, "_run_checks", lambda spec, which: [
        CheckReport("ladder", 1e-8, 1e-3)])
    code, stdout = run("verify", "--config", configs["noninteracting"],
                       "--check", "ladder", "--out", tmp_path)
    assert code == 3
    assert stdout.rstrip().endswith("FAIL")
    (report,) = json.loads((tmp_path / "report.json").read_text())
    assert report["pass"] is False


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


def test_manifest_records_import_time(configs, tmp_path):
    import threebody1d

    table_outputs("spectrum", configs["noninteracting"], "noninteracting",
                  tmp_path)
    manifest = json.loads((tmp_path / "manifest.json").read_text())
    assert set(manifest) == {"command", "config", "import_s", "output_dir",
                             "seed", "tool_version", "wall_time_s"}
    assert manifest["import_s"] == round(threebody1d._import_s, 6) > 0


@pytest.mark.parametrize("command", ("spectrum", "irreps"))
@pytest.mark.parametrize("emax", ("nan", "inf", "-inf"))
def test_non_finite_emax_exits_2(command, emax, configs, tmp_path):
    err = io.StringIO()
    with pytest.raises(SystemExit) as exc, contextlib.redirect_stderr(err):
        cli.build_parser().parse_args([
            command, "--config", str(configs["noninteracting"]),
            "--model", "noninteracting", f"--emax={emax}", "--out",
            str(tmp_path)])
    assert exc.value.code == 2
    assert "--emax: must be finite" in err.getvalue()


@pytest.mark.parametrize("command", ("spectrum", "irreps"))
@pytest.mark.parametrize("model", MODELS)
def test_huge_emax_exits_2_at_once(command, model, configs, tmp_path):
    err = io.StringIO()
    start = time.perf_counter()
    with contextlib.redirect_stderr(err):
        code = cli.main([command, "--config", str(configs[model]), "--model",
                         model, "--emax", "1e6", "--out", str(tmp_path)])
    assert time.perf_counter() - start < 1.0
    assert code == 2
    assert f"limit of {cli.MAX_WINDOW_QUANTA}" in err.getvalue()
    assert not list(tmp_path.iterdir())


@pytest.mark.parametrize("omega", (0.8, 1.0, 1.25))
def test_window_limit_admits_120_quanta(omega):
    # the widest window the tests and the benchmark ask for
    spec = ModelSpec(HarmonicTrap(omega), NoInteraction())
    cli._check_window(spec, 120 * omega)
    with pytest.raises(ConfigError, match="limit"):
        cli._check_window(spec, (cli.MAX_WINDOW_QUANTA + 1) * omega)


@pytest.mark.parametrize("command", ("spectrum", "irreps"))
@pytest.mark.parametrize("model", ("harm-harm", "calogero", "unitary-contact"))
def test_noninteracting_refuses_an_interacting_config(command, model, configs,
                                                       tmp_path):
    err = io.StringIO()
    with contextlib.redirect_stderr(err):
        code = cli.main([command, "--config", str(configs[model]), "--model",
                         "noninteracting", "--emax", EMAX, "--out",
                         str(tmp_path)])
    assert code == 2
    assert "needs interaction.kind in ('none',)" in err.getvalue()
    assert not list(tmp_path.iterdir())


def test_irreps_at_120_quanta_fits_in_1_gib(configs, tmp_path, fresh_python):
    # the address space is capped after the imports, so only the
    # command's own arrays count against it
    proc = fresh_python("-c", f"""if True:
        import resource
        from threebody1d import cli

        _, hard = resource.getrlimit(resource.RLIMIT_AS)
        resource.setrlimit(resource.RLIMIT_AS, (2**30, hard))
        raise SystemExit(cli.main([
            "irreps", "--config", {str(configs["noninteracting"])!r},
            "--model", "noninteracting", "--emax", "120",
            "--out", {str(tmp_path)!r}]))
        """)
    assert proc.returncode == 0, proc.stderr
    rows = json.loads((tmp_path / "irreps.json").read_text())
    dims = {"[3]": 1, "[21]": 2, "[1^3]": 1}
    assert len(rows) == 119  # E = N + 3/2 for N = 0..118
    for row in rows:
        n = round(row["E"] - 1.5)
        states = sum(m * dims[mu] for mu, m in row["multiplicities"].items())
        assert states == (n + 1) * (n + 2) // 2  # ordered triples of total N


def test_python_m_runs_the_cli(configs, fresh_python):
    argv = ("classify", "--config", str(configs["calogero"]))
    proc = fresh_python("-m", "threebody1d", *argv)
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout == run(*argv)[1]


def test_closed_form_commands_do_not_load_scipy(configs, tmp_path,
                                                 fresh_python):
    commands = [["classify", "--config", configs["noninteracting"]]]
    for model in MODELS:
        commands.append(["spectrum", "--config", configs[model], "--model",
                         model, "--emax", EMAX, "--out", tmp_path / model])
    for model in ("noninteracting", "unitary-contact"):
        commands.append(["irreps", "--config", configs[model], "--model",
                         model, "--emax", EMAX, "--out", tmp_path / model])
    oracle = ["verify", "--config", configs["harm-harm"], "--check", "oracle",
              "--out", tmp_path / "fresh"]
    proc = fresh_python("-c", f"""if True:
        import contextlib, io, sys
        from threebody1d import cli

        def main(argv):
            with contextlib.redirect_stdout(io.StringIO()):
                assert cli.main(argv) == 0, argv

        for argv in {[[str(a) for a in c] for c in commands]!r}:
            main(argv)
        loaded = [m for m in sys.modules if m.split(".")[0] == "scipy"]
        assert not loaded, loaded
        main({[str(a) for a in oracle]!r})
        assert "scipy.linalg" in sys.modules
        """)
    assert proc.returncode == 0, proc.stderr
    # loading scipy on first use leaves the report as the in-process run
    # (scipy already loaded) writes it
    assert run(*oracle[:-1], tmp_path / "warm")[0] == 0
    assert (tmp_path / "fresh" / "report.json").read_bytes() \
        == (tmp_path / "warm" / "report.json").read_bytes()
