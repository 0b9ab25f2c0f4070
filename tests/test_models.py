import math
from types import SimpleNamespace

import numpy as np
import pytest

from threebody1d.errors import (
    ConfigError,
    MissingParameter,
    ModelValidationError,
    NegativeCoupling,
    NonConfiningTrap,
)
from threebody1d.models import (
    COORDINATE_SYSTEMS,
    ContactInteraction,
    HarmonicInteraction,
    HarmonicTrap,
    InfiniteWell,
    InverseSquareInteraction,
    ModelSpec,
    NoInteraction,
    QuadraticTrap,
    TabulatedTrap,
    UnitsConvention,
    classify_separability,
    classify_symmetry_group,
    collect_violations,
    parse_config,
    validate_model,
)


def asymmetric_trap():
    xs = np.linspace(-8, 8, 801)
    vs = np.where(xs < 0, 0.3 * xs**2, 0.7 * xs**2)
    return TabulatedTrap(tuple(xs), tuple(vs))


def symmetric_tabulated_trap():
    xs = np.linspace(-6, 6, 601)
    return TabulatedTrap(tuple(xs), tuple(xs**4))


class TestValidation:
    def test_wellformed_harmonic(self):
        spec = ModelSpec(HarmonicTrap(1.0), NoInteraction())
        assert validate_model(spec) is spec

    def test_negative_well_length(self):
        with pytest.raises(NegativeCoupling):
            validate_model(ModelSpec(InfiniteWell(-1.0), NoInteraction()))

    def test_nonconfining_tabulated(self):
        xs = np.linspace(-4, 4, 101)
        vs = xs**2.0
        vs[-1] = vs[-2] - 1.0  # decreasing at the right edge
        with pytest.raises(NonConfiningTrap):
            validate_model(ModelSpec(TabulatedTrap(tuple(xs), tuple(vs)),
                                     NoInteraction()))

    def test_negative_gamma(self):
        with pytest.raises(NegativeCoupling):
            validate_model(ModelSpec(HarmonicTrap(1.0), HarmonicInteraction(-0.5)))

    def test_unitary_contact_is_symbolic(self):
        spec = ModelSpec(HarmonicTrap(1.0), ContactInteraction(unitary=True))
        validate_model(spec)
        assert spec.interaction.gamma is None
        bad = ModelSpec(HarmonicTrap(1.0),
                        ContactInteraction(gamma=2.0, unitary=True))
        with pytest.raises(ModelValidationError):
            validate_model(bad)

    def test_contact_requires_gamma(self):
        with pytest.raises(ModelValidationError):
            validate_model(ModelSpec(HarmonicTrap(1.0), ContactInteraction()))

    def test_natural_mode_normalizes_units(self):
        spec = ModelSpec(HarmonicTrap(1.0), NoInteraction(), mass=2.0, hbar=3.0,
                         units=UnitsConvention("natural"))
        out = validate_model(spec)
        assert out.mass == 1.0 and out.hbar == 1.0

    def test_violations_all_collected(self):
        spec = ModelSpec(InfiniteWell(-1.0), HarmonicInteraction(-2.0))
        bad = collect_violations(spec)
        assert len(bad) == 2


class TestSeparability:
    def test_harm_harm_is_gold(self):
        v = classify_separability(ModelSpec(HarmonicTrap(1.0),
                                            HarmonicInteraction(0.5)))
        assert v.grade == "gold"
        assert v.witness == "rectangular"
        assert v.systems["rectangular"] and v.systems["cylindrical"]

    def test_calogero_is_silver(self):
        v = classify_separability(ModelSpec(HarmonicTrap(1.0),
                                            InverseSquareInteraction(1.0)))
        assert v.grade == "silver"
        assert v.witness == "cylindrical"
        assert not v.systems["rectangular"]

    def test_harmonic_free_eight_of_eleven(self):
        v = classify_separability(ModelSpec(HarmonicTrap(1.0), NoInteraction()))
        assert v.grade == "gold"
        assert len(v.separable_systems) == 8
        assert v.systems["spherical"]  # the bronze witness
        assert not v.systems["parabolic"]

    def test_unitary_contact_sector_solvable(self):
        v = classify_separability(ModelSpec(HarmonicTrap(1.0),
                                            ContactInteraction(unitary=True)))
        assert v.grade == "none"
        assert v.sector_solvable
        assert not any(v.systems.values())

    def test_quadratic_with_harmonic_gold(self):
        v = classify_separability(ModelSpec(QuadraticTrap(0.7, 0.2, 0.0),
                                            HarmonicInteraction(0.3)))
        assert v.grade == "gold"

    def test_generic_combination_none(self):
        v = classify_separability(ModelSpec(InfiniteWell(3.0),
                                            HarmonicInteraction(0.3)))
        assert v.grade == "none"

    def test_tabulated_always_none(self):
        v = classify_separability(ModelSpec(symmetric_tabulated_trap(),
                                            NoInteraction()))
        assert v.grade == "none"

    def test_gold_implies_rectangular(self):
        # invariant: gold requires the rectangular entry
        specs = [
            ModelSpec(HarmonicTrap(1.0), NoInteraction()),
            ModelSpec(HarmonicTrap(2.0), HarmonicInteraction(1.0)),
            ModelSpec(QuadraticTrap(1.0), HarmonicInteraction(0.1)),
        ]
        for s in specs:
            v = classify_separability(s)
            assert v.grade == "gold"
            assert v.systems["rectangular"]

    def test_eleven_systems_enumerated(self):
        assert len(COORDINATE_SYSTEMS) == 11
        v = classify_separability(ModelSpec(HarmonicTrap(1.0), NoInteraction()))
        assert set(v.systems) == set(COORDINATE_SYSTEMS)


class TestSymmetryGroup:
    def test_asymmetric_trap_p3(self):
        spec = ModelSpec(asymmetric_trap(), ContactInteraction(gamma=2.0))
        assert classify_symmetry_group(spec).label == "P3"

    def test_symmetric_well_p3xo1(self):
        spec = ModelSpec(InfiniteWell(2.0), ContactInteraction(gamma=2.0))
        sym = classify_symmetry_group(spec)
        assert sym.label == "P3xO(1)"
        assert sym.point_group == "D3d"

    def test_harmonic_d6h_any_interaction(self):
        for inter in (NoInteraction(), HarmonicInteraction(0.5),
                      InverseSquareInteraction(1.0),
                      ContactInteraction(gamma=3.0)):
            sym = classify_symmetry_group(ModelSpec(HarmonicTrap(1.0), inter))
            assert sym.label == "P3xO(1)xO(1)"
            assert sym.point_group == "D6h"
            assert "U(1)" in sym.phase_space

    def test_monotone_in_trap_symmetry(self):
        # adding trap symmetry never shrinks the group
        order = {"P3": 6, "P3xO(1)": 12, "P3xO(1)xO(1)": 24}
        inter = ContactInteraction(gamma=1.0)
        chain = [asymmetric_trap(), symmetric_tabulated_trap(), HarmonicTrap(1.0)]
        labels = [classify_symmetry_group(ModelSpec(t, inter)).label for t in chain]
        sizes = [order[l] for l in labels]
        assert sizes == sorted(sizes)

    def test_units_mode_does_not_change_verdicts(self):
        for units in (UnitsConvention("natural"), UnitsConvention("explicit")):
            spec = ModelSpec(HarmonicTrap(1.0), HarmonicInteraction(0.5),
                             mass=1.0, hbar=1.0, units=units)
            assert classify_separability(spec).grade == "gold"
            assert classify_symmetry_group(spec).label == "P3xO(1)xO(1)"


CONFIG_OK = """
# comment line
trap.kind = harmonic
trap.omega = 1.0
interaction.kind = harmonic
interaction.gamma = 0.5
units.mode = natural
mass = 1.0
hbar = 1.0
"""


class TestConfig:
    def test_parse_valid(self):
        spec = parse_config(CONFIG_OK)
        assert isinstance(spec.trap, HarmonicTrap)
        assert spec.interaction.gamma == 0.5

    def test_unknown_key_reports_line(self):
        text = "trap.kind = harmonic\ntrap.omega = 1.0\nbogus.key = 3\n"
        with pytest.raises(ConfigError) as exc:
            parse_config(text)
        assert exc.value.line == 3
        assert "bogus.key" in str(exc.value)

    def test_missing_required_key(self):
        with pytest.raises(ConfigError, match="interaction.gamma"):
            parse_config("trap.kind = harmonic\ntrap.omega = 1\n"
                         "interaction.kind = harmonic\n")

    def test_duplicate_key(self):
        with pytest.raises(ConfigError, match="duplicate"):
            parse_config("trap.kind = harmonic\ntrap.omega = 1\ntrap.omega = 2\n")

    def test_bad_number(self):
        with pytest.raises(ConfigError, match="not a number"):
            parse_config("trap.kind = harmonic\ntrap.omega = abc\n")

    def test_unitary_gamma_string(self):
        spec = parse_config("trap.kind = harmonic\ntrap.omega = 1\n"
                            "interaction.kind = contact\n"
                            "interaction.gamma = unitary\n")
        assert spec.interaction.unitary

    def test_invalid_model_rejected(self):
        with pytest.raises(ConfigError):
            parse_config("trap.kind = infinite_well\ntrap.length = -2\n")

    @pytest.mark.parametrize("text, message, line", [
        ("trap.kind = harmonic\ntrap.omega\n",
         "expected 'key = value', got 'trap.omega'", 2),
        ("trap.omega = 1\n", "missing required key 'trap.kind'", None),
        ("trap.kind = harmonic\n", "missing required key 'trap.omega'", None),
        ("trap.kind = infinite_well\n", "missing required key 'trap.length'",
         None),
        ("trap.kind = quadratic\ntrap.B = 1\n", "missing required key 'trap.A'",
         None),
        ("trap.kind = quartic\n", "unknown trap.kind 'quartic'", 1),
        ("trap.kind = harmonic\ntrap.omega = 1\ninteraction.kind = yukawa\n",
         "unknown interaction.kind 'yukawa'", 3),
        ("trap.kind = harmonic\ntrap.omega = 1\ninteraction.kind = contact\n",
         "missing required key 'interaction.gamma'", None),
    ], ids=["no_equals", "no_trap_kind", "no_omega", "no_length", "no_A",
            "unknown_trap", "unknown_interaction", "contact_without_gamma"])
    def test_parse_errors(self, text, message, line):
        with pytest.raises(ConfigError) as exc:
            parse_config(text)
        assert exc.value.line == line
        assert str(exc.value) == (f"line {line}: " if line else "") + message

    def test_quadratic_trap_defaults(self):
        spec = parse_config("trap.kind = quadratic\ntrap.A = 0.5\n")
        assert spec.trap == QuadraticTrap(0.5, 0.0, 0.0)
        spec = parse_config("trap.kind = quadratic\ntrap.C = -1\n"
                            "trap.A = 0.5\ntrap.B = 0.2\n")
        assert spec.trap == QuadraticTrap(0.5, 0.2, -1.0)


@pytest.mark.parametrize("spec, error, message", [
    (ModelSpec(HarmonicTrap(0.0)), NegativeCoupling,
     "NegativeCoupling: harmonic trap requires omega > 0"),
    (ModelSpec(InfiniteWell(0.0)), NegativeCoupling,
     "NegativeCoupling: infinite well requires length L > 0"),
    (ModelSpec(QuadraticTrap(-1.0)), NonConfiningTrap,
     "NonConfiningTrap: quadratic trap requires a > 0"),
    (ModelSpec(TabulatedTrap((0.0, 1.0, 2.0), (1.0, 0.0, 1.0))),
     MissingParameter,
     "MissingParameter: tabulated trap needs >= 4 (x, V) samples"),
    (ModelSpec(TabulatedTrap((0.0, 2.0, 1.0, 3.0), (1.0, 0.0, 0.0, 1.0))),
     MissingParameter,
     "MissingParameter: tabulated trap abscissa must increase"),
    (ModelSpec(SimpleNamespace(kind="quartic")), MissingParameter,
     "MissingParameter: unknown trap kind 'quartic'"),
    (ModelSpec(HarmonicTrap(1.0), ContactInteraction(gamma=-1.0)),
     NegativeCoupling,
     "NegativeCoupling: contact interaction requires gamma >= 0"),
    (ModelSpec(HarmonicTrap(1.0), mass=0.0), MissingParameter,
     "MissingParameter: mass must be positive"),
    (ModelSpec(HarmonicTrap(1.0), hbar=-1.0), MissingParameter,
     "MissingParameter: hbar must be positive"),
    (ModelSpec(HarmonicTrap(1.0), units=UnitsConvention("cgs")),
     MissingParameter, "MissingParameter: unknown units mode 'cgs'"),
], ids=["omega", "length", "a", "few_samples", "non_increasing",
        "unknown_trap", "contact_gamma", "mass", "hbar", "units"])
def test_each_violation_raises_its_error(spec, error, message):
    assert collect_violations(spec) == [message]
    with pytest.raises(error) as exc:
        validate_model(spec)
    assert type(exc.value) is error
    assert exc.value.violations == [message]


# each numeric key, last in a config that is valid without it
NUMERIC_KEYS = {
    "trap.omega": "trap.kind = harmonic\n",
    "trap.length": "trap.kind = infinite_well\n",
    "trap.A": "trap.kind = quadratic\n",
    "trap.B": "trap.kind = quadratic\ntrap.A = 1\n",
    "trap.C": "trap.kind = quadratic\ntrap.A = 1\n",
    "interaction.gamma": "trap.kind = harmonic\ntrap.omega = 1\n"
                         "interaction.kind = harmonic\n",
    "mass": "trap.kind = harmonic\ntrap.omega = 1\nunits.mode = explicit\n",
    "hbar": "trap.kind = harmonic\ntrap.omega = 1\nunits.mode = explicit\n",
}


@pytest.mark.parametrize("value", ("nan", "inf", "-inf"))
@pytest.mark.parametrize("key", NUMERIC_KEYS)
def test_non_finite_number_is_a_config_error(key, value):
    text = NUMERIC_KEYS[key] + f"{key} = {value}\n"
    line = text.count("\n")
    with pytest.raises(ConfigError) as exc:
        parse_config(text)
    assert exc.value.line == line
    assert str(exc.value) == f"line {line}: key {key!r} is not finite: {value!r}"


@pytest.mark.parametrize("spec", [
    ModelSpec(HarmonicTrap(1.0), HarmonicInteraction(math.nan)),
    ModelSpec(HarmonicTrap(1.0), InverseSquareInteraction(math.nan)),
    ModelSpec(HarmonicTrap(1.0), ContactInteraction(gamma=math.nan)),
    ModelSpec(HarmonicTrap(1.0), mass=math.nan),
    ModelSpec(HarmonicTrap(1.0), hbar=math.nan),
    ModelSpec(InfiniteWell(math.nan)),
    ModelSpec(QuadraticTrap(math.nan)),
    ModelSpec(TabulatedTrap((0.0, math.nan, 2.0, 3.0), (1.0, 0.0, 0.0, 1.0))),
], ids=["harmonic_gamma", "inverse_square_gamma", "contact_gamma", "mass",
        "hbar", "length", "a", "abscissa"])
def test_nan_parameter_is_a_violation(spec):
    assert len(collect_violations(spec)) == 1
    with pytest.raises(ModelValidationError):
        validate_model(spec)


@pytest.mark.parametrize("spec, name", [
    (ModelSpec(TabulatedTrap((0, 1, 2, 3, 4), (1, 0, math.nan, 0.5, 1))),
     "tabulated trap samples"),
    (ModelSpec(TabulatedTrap((0, 1, 2, 3, 4), (1, 0, math.inf, 0.5, 1))),
     "tabulated trap samples"),
    (ModelSpec(TabulatedTrap((0, 1, 2, 3, 4), (1, 0, -math.inf, 0.5, 1))),
     "tabulated trap samples"),
    (ModelSpec(HarmonicTrap(math.inf)), "trap omega"),
    (ModelSpec(QuadraticTrap(1.0, math.nan, 0.0)), "trap b"),
    (ModelSpec(QuadraticTrap(1.0, 0.0, -math.inf)), "trap c"),
    (ModelSpec(InfiniteWell(math.inf)), "trap length"),
    (ModelSpec(HarmonicTrap(1.0), HarmonicInteraction(math.inf)),
     "interaction gamma"),
    (ModelSpec(HarmonicTrap(1.0), InverseSquareInteraction(math.inf)),
     "interaction gamma"),
    (ModelSpec(HarmonicTrap(1.0), mass=math.inf,
               units=UnitsConvention("explicit")), "mass"),
    (ModelSpec(HarmonicTrap(1.0), hbar=math.inf,
               units=UnitsConvention("explicit")), "hbar"),
], ids=["tabulated_nan", "tabulated_inf", "tabulated_neg_inf", "omega",
        "b", "c", "length", "harmonic_gamma", "inverse_square_gamma",
        "mass", "hbar"])
def test_non_finite_number_is_one_violation(spec, name):
    message = f"MissingParameter: {name} must be finite"
    assert collect_violations(spec) == [message]
    with pytest.raises(MissingParameter) as exc:
        validate_model(spec)
    assert exc.value.violations == [message]
