"""Initial-data constructors: determinism, rescaling, band discipline."""

import numpy as np
import pytest
from numpy.testing import assert_allclose

from dnlslab import DataSpec, TorusGrid, build, mass


@pytest.fixture
def grid():
    return TorusGrid(2 * np.pi, 64)


class TestPlaneWave:
    def test_unit_mode(self, grid):
        f = build(DataSpec(kind="plane_wave", amplitude=1.0, mode=1), grid)
        assert_allclose(f.values, np.exp(1j * grid.x), atol=1e-14)
        assert_allclose(mass(f), 2 * np.pi, rtol=1e-13)

    def test_out_of_band_mode_rejected(self, grid):
        with pytest.raises(ValueError):
            build(DataSpec(kind="plane_wave", mode=grid.N // 3 + 1), grid)


class TestMultimode:
    def test_deterministic(self, grid):
        spec = DataSpec(kind="multimode", modes=(1, -2, 3),
                        amplitudes=(1.0, 0.5, 0.2), seed=42)
        a = build(spec, grid)
        b = build(spec, grid)
        assert np.array_equal(a.values, b.values)

    def test_needs_modes(self, grid):
        with pytest.raises(ValueError):
            build(DataSpec(kind="multimode"), grid)

    def test_amplitude_broadcast_and_mismatch(self, grid):
        f = build(DataSpec(kind="multimode", modes=(1, 2), amplitude=0.5,
                           seed=0), grid)
        assert mass(f) > 0
        with pytest.raises(ValueError):
            build(DataSpec(kind="multimode", modes=(1, 2),
                           amplitudes=(1.0,), seed=0), grid)

    def test_out_of_band_rejected(self, grid):
        with pytest.raises(ValueError):
            build(DataSpec(kind="multimode", modes=(1, grid.N // 2), seed=0), grid)


class TestBump:
    def test_smooth_and_periodic(self, grid):
        f = build(DataSpec(kind="bump", amplitude=1.0, width=0.5), grid)
        coeffs = np.abs(f.spectrum().coefficients)
        # analytic profile: spectral tail decayed far below the peak
        assert coeffs[grid.N // 3] < 1e-10 * coeffs.max()

    def test_rejects_bad_width(self, grid):
        with pytest.raises(ValueError):
            build(DataSpec(kind="bump", width=-0.1), grid)

    @pytest.mark.parametrize("width", [1e-300, 5e-324])
    def test_rejects_width_whose_scale_overflows(self, grid, width):
        # (L/(2 pi width))^2 overflows; at 5e-324 the ratio itself is inf
        with pytest.raises(ValueError, match="too narrow"):
            build(DataSpec(kind="bump", width=width), grid)


class TestRescaling:
    def test_target_mass_exact(self, grid):
        spec = DataSpec(kind="multimode", modes=(1, 2, -1),
                        amplitudes=(1.0, 0.4, 0.3), target_mass=2.5, seed=7)
        f = build(spec, grid)
        assert abs(mass(f) - 2.5) <= 1e-12 * 2.5

    def test_shape_preserved(self, grid):
        base = DataSpec(kind="multimode", modes=(1, 2, -1),
                        amplitudes=(1.0, 0.4, 0.3), seed=7)
        f = build(base, grid)
        from dataclasses import replace
        g = build(replace(base, target_mass=5.0), grid)
        fn = f.values / np.sqrt(mass(f))
        gn = g.values / np.sqrt(mass(g))
        assert np.max(np.abs(fn - gn)) < 1e-13

    def test_rejects_nonpositive_target(self):
        with pytest.raises(ValueError):
            DataSpec(kind="plane_wave", target_mass=0.0)

    def test_zero_field_cannot_be_rescaled(self, grid):
        with pytest.raises(ValueError):
            build(DataSpec(kind="plane_wave", amplitude=0.0, target_mass=1.0),
                  grid)


def test_unknown_kind_rejected():
    with pytest.raises(ValueError):
        DataSpec(kind="soliton")
