import pytest

import numpy as np

from threebody1d.dynamics import (
    TPSBipartition,
    TruncatedState,
    evolve,
    gold_locality_check,
    interacting_hamiltonian,
    ladder_check,
    local_projection,
    schmidt,
    superintegrability_check,
)
from threebody1d.errors import (
    DimensionMismatch,
    MissingEnergyLabel,
    NotGold,
    UnsupportedTrap,
)
from threebody1d.models import (
    HarmonicInteraction,
    HarmonicTrap,
    InfiniteWell,
    InverseSquareInteraction,
    ModelSpec,
    NoTrap,
    QuadraticTrap,
)


def test_silent_negative_control_fails_superintegrability():
    # with no interaction h1 commutes with H, so the control cannot trip
    report = superintegrability_check(10, gamma_control=0.0)
    assert report.max_residual <= report.tolerance
    assert not report.details["negative_control_ok"]
    assert not report.passed
    assert report.as_dict()["pass"] is False


def test_evolve_without_energies_raises():
    state = TruncatedState(np.ones((2, 3)))
    with pytest.raises(MissingEnergyLabel):
        evolve(state, 1.0)


@pytest.mark.parametrize("left, right", [((0,), ()), ((0,), (0, 1)),
                                         ((0,), (2,)), ((0, 1), (1, 2))])
def test_schmidt_cut_must_partition_the_axes(left, right):
    state = TruncatedState(np.ones((2, 3, 4)))
    with pytest.raises(DimensionMismatch, match="does not partition 3 axes"):
        schmidt(state, TPSBipartition(left, right))


class TestLadder:
    def test_passes_at_default_size(self):
        report = ladder_check(n=40)
        assert report.passed
        assert set(report.details) == {"raise", "lower", "so21_commutator"}
        assert report.max_residual == max(report.details.values())

    def test_rejects_small_basis(self):
        with pytest.raises(ValueError, match="n >= 20"):
            ladder_check(n=19)


class TestGoldLocality:
    def test_shifted_quadratic_trap_is_local(self):
        spec = ModelSpec(QuadraticTrap(0.7, 0.3, -0.2), HarmonicInteraction(0.4))
        report = gold_locality_check(spec)
        assert report.passed
        assert report.details["locality_residual"] < 1e-12
        assert report.details["schmidt_drift"] < 1e-10

    def test_silver_model_is_not_gold(self):
        spec = ModelSpec(HarmonicTrap(1.0), InverseSquareInteraction(1.0))
        with pytest.raises(NotGold):
            gold_locality_check(spec)

    @pytest.mark.parametrize("spec", [
        ModelSpec(InfiniteWell(5.0)),
        ModelSpec(NoTrap(), HarmonicInteraction(0.5)),
    ], ids=["infinite_well", "no_trap"])
    def test_gold_model_without_harmonic_trap_is_unsupported(self, spec):
        with pytest.raises(UnsupportedTrap, match="harmonic-like trap"):
            gold_locality_check(spec)

    def test_particle_basis_is_not_local(self):
        # negative control: the pair terms couple the particle modes, so
        # the same operator in the particle basis is far from local
        n = 8
        h = interacting_hamiltonian(n, 1.0, 0.5, basis="particle").toarray()
        assert local_projection(h, (n, n, n))[1] > 1e-2
        h0 = interacting_hamiltonian(n, 1.0, 0.0, basis="particle").toarray()
        assert local_projection(h0, (n, n, n))[1] < 1e-12
