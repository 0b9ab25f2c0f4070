import pytest

from threebody1d.grids import Grid1D
from threebody1d.models import ContactInteraction, HarmonicTrap, ModelSpec
from threebody1d.oracle import full_spectrum_3d


class TestFullSpectrum3D:
    def test_harm_harm_ground_level(self, spec_harm_harm):
        # E0 = omega/2 + omega_rel with omega_rel = sqrt(1 + 6 gamma) = 2
        result = full_spectrum_3d(spec_harm_harm, Grid1D(-6.0, 6.0, 24), k=1)
        assert result.eigenvalues[0] == pytest.approx(2.5, rel=1e-2)
        assert result.convergence_delta is None

    def test_finite_contact_raises(self):
        spec = ModelSpec(HarmonicTrap(1.0), ContactInteraction(gamma=2.0))
        with pytest.raises(ValueError, match="unitary limit"):
            full_spectrum_3d(spec, Grid1D(-6.0, 6.0, 12))
