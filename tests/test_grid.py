"""Spectral grid operations against closed forms and exact identities."""

import math
import struct

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from numpy.testing import assert_allclose

from dnlslab import (Field, TorusGrid, antideriv_meanzero, deriv, lp_norm, mass,
                     translate)

from dnlslab import grid as grid_module
from dnlslab.grid import check_grid

from conftest import l2_dist, plane_wave, random_band_field


class TestFftSeam:
    """The seam calls numpy's pocketfft gufuncs itself, a private module:
    its results must be those of np.fft.fft/ifft bit for bit."""

    @staticmethod
    def inputs(rng, shape):
        z = rng.standard_normal(shape) + 1j * rng.standard_normal(shape)
        # complex128, float64, and the strided real view antideriv_meanzero
        # transforms
        return {"complex": z, "real": rng.standard_normal(shape), "real view": z.real}

    @pytest.mark.parametrize("N", [8, 96, 128, 256])
    @pytest.mark.parametrize("rows", [None, 5, (2, 3)])
    @pytest.mark.parametrize("seam,reference", [(grid_module.fft, np.fft.fft),
                                                (grid_module.ifft, np.fft.ifft)])
    def test_equals_numpy_bit_for_bit(self, rng, N, rows, seam, reference):
        # one row, a stack, and the (2, 3, N) stack that the gauged kernel's
        # batch transforms in place
        shape = ((N,) if rows is None else (rows, N) if isinstance(rows, int)
                 else (*rows, N))
        for kind, a in self.inputs(rng, shape).items():
            want = reference(a).tobytes()
            assert seam(a).tobytes() == want, kind
            out = np.empty(shape, np.complex128)
            assert seam(a, out) is out and out.tobytes() == want, kind
        # in place, out aliasing the input
        a = self.inputs(rng, shape)["complex"]
        want = reference(a).tobytes()
        assert seam(a, a) is a and a.tobytes() == want

    def test_inverse_factor_follows_the_node_count(self, rng):
        """ifft's factor 1/n is cached per n: a factor kept for another n
        shows when the node count changes and changes back."""
        for N in (128, 96, 128):
            a = self.inputs(rng, (3, N))["complex"]
            assert grid_module.ifft(a).tobytes() == np.fft.ifft(a).tobytes(), N

    def test_cached_factors_are_read_only(self):
        grid_module.ifft(np.ones(64, np.complex128))
        factors = [grid_module._FFT_FACTOR, *grid_module._IFFT_FACTORS.values()]
        assert grid_module._FFT_FACTOR == 1.0
        assert grid_module._IFFT_FACTORS[64] == 1.0 / 64
        for factor in factors:
            assert factor.shape == () and factor.dtype == np.float64
            assert not factor.flags.writeable
            with pytest.raises(ValueError, match="read-only"):
                factor[...] = 2.0


class TestTorusGrid:
    def test_nodes_and_wavenumbers_2pi(self):
        grid = TorusGrid(2 * np.pi, 8)
        assert_allclose(grid.x, np.arange(8) * np.pi / 4)
        assert sorted(grid.modes) == list(range(-4, 4))
        assert sorted(grid.k) == list(range(-4, 4))

    def test_wavenumbers_unit_period(self):
        grid = TorusGrid(1.0, 16)
        assert set(np.rint(grid.k / (2 * np.pi)).astype(int)) == set(range(-8, 8))
        assert np.count_nonzero(grid.k == 0.0) == 1

    def test_nodes_strictly_increasing_in_period(self):
        grid = TorusGrid(3.0, 32)
        assert np.all(np.diff(grid.x) > 0)
        assert grid.x[0] == 0.0 and grid.x[-1] < grid.L

    @pytest.mark.parametrize("L,N", [(-1.0, 8), (0.0, 8), (2.0, 9), (2.0, 6)])
    def test_rejects_bad_parameters(self, L, N):
        with pytest.raises(ValueError):
            TorusGrid(L, N)

    @pytest.mark.parametrize("L,N", [(5e-324, 256), (2e-308, 128), (2e-308, None),
                                     (1e-307, 8), (1.0, 10 ** 400)])
    def test_rejects_a_period_whose_largest_wavenumber_overflows(self, L, N):
        with pytest.raises(ValueError, match="largest wavenumber"):
            check_grid(L, N)

    @pytest.mark.filterwarnings("error::RuntimeWarning")
    @pytest.mark.parametrize("L,N", [(1e-307, None), (1e-305, 256)])
    def test_a_period_just_inside_the_rule_builds_finite_wavenumbers(self, L, N):
        check_grid(L, N)
        if N is not None:
            grid = TorusGrid(L, N)
            assert np.all(np.isfinite(grid.k)) and np.all(np.isfinite(grid._ik))

    @pytest.mark.filterwarnings("error::RuntimeWarning")
    def test_a_period_near_the_limit_builds_its_grid_but_not_its_refinement(self):
        # the rule checks the grid it is given, not its 2x refinement:
        # (2 pi/L)*32 is finite, (2 pi/L)*64 is not
        grid = TorusGrid(1.5e-306, 64)
        assert np.all(np.isfinite(grid.k))
        with pytest.raises(ValueError, match="largest wavenumber"):
            check_grid(1.5e-306, 128)

    def test_equality_is_by_shape(self):
        assert TorusGrid(1.0, 16) == TorusGrid(1.0, 16)
        assert TorusGrid(1.0, 16) != TorusGrid(2.0, 16)

    @pytest.mark.parametrize("N", [8, 10, 12, 96, 128])
    def test_the_band_and_the_refined_weight(self, N):
        assert grid_module.dealias_band(N) == N // 3
        assert TorusGrid(0.7, N).refined_dx == 0.7 / (2 * N)


class TestField:
    def test_rejects_wrong_length(self, grid2pi):
        with pytest.raises(ValueError):
            Field(grid2pi, np.zeros(grid2pi.N - 1))

    def test_rejects_non_finite(self, grid2pi):
        bad = np.zeros(grid2pi.N, dtype=complex)
        bad[3] = np.nan
        with pytest.raises(ValueError):
            Field(grid2pi, bad)

    def test_values_read_only(self, grid2pi):
        f = plane_wave(grid2pi)
        with pytest.raises(ValueError):
            f.values[0] = 0.0

    def test_copies_writeable_samples_and_shares_read_only_ones(self, grid2pi):
        v = np.ones(grid2pi.N, dtype=complex)
        f = Field(grid2pi, v)
        v[0] = 2.0
        assert f.values[0] == 1.0 and v.flags.writeable
        assert Field(grid2pi, f.values).values is f.values

    def test_spectrum_round_trip(self, grid2pi, rng):
        f = random_band_field(grid2pi, rng)
        g = f.spectrum().field()
        tol = 100 * np.finfo(float).eps * np.max(np.abs(f.values))
        assert np.max(np.abs(g.values - f.values)) <= tol


class TestDeriv:
    def test_plane_wave_eigenfunction(self, grid2pi):
        f = plane_wave(grid2pi)
        assert_allclose(deriv(f).values, 1j * f.values, atol=1e-13)

    def test_constant_has_zero_derivative(self, grid2pi):
        f = Field(grid2pi, np.full(grid2pi.N, 3 + 2j))
        assert_allclose(deriv(f).values, 0, atol=1e-13)

    def test_cosine(self, grid2pi):
        f = Field(grid2pi, np.cos(grid2pi.x))
        assert_allclose(deriv(f).values.real, -np.sin(grid2pi.x), atol=1e-12)
        assert_allclose(deriv(f).values.imag, 0, atol=1e-13)


class TestAntideriv:
    def test_cosine(self, grid2pi):
        g = Field(grid2pi, np.cos(grid2pi.x))
        assert_allclose(antideriv_meanzero(g).values.real, np.sin(grid2pi.x),
                        atol=1e-12)

    def test_constant_maps_to_zero(self, grid2pi):
        g = Field(grid2pi, np.ones(grid2pi.N))
        assert_allclose(antideriv_meanzero(g).values, 0, atol=1e-13)

    def test_sine(self, grid2pi):
        g = Field(grid2pi, np.sin(grid2pi.x))
        assert_allclose(antideriv_meanzero(g).values.real, -np.cos(grid2pi.x),
                        atol=1e-12)

    def test_rejects_complex_input(self, grid2pi):
        g = plane_wave(grid2pi)
        with pytest.raises(ValueError):
            antideriv_meanzero(g)

    def test_deriv_of_antideriv_recovers_meanfree_part(self, grid2pi, rng):
        # band 16 so that |raw|^2 stays strictly below the Nyquist mode
        raw = random_band_field(grid2pi, rng, band=16)
        g = Field(grid2pi, np.abs(raw.values) ** 2)
        got = deriv(antideriv_meanzero(g)).values
        want = g.values - np.mean(g.values)
        scale = np.max(np.abs(want))
        assert np.max(np.abs(got - want)) <= 1e-10 * scale


class TestIntegrate:
    """The rectangle rule behind mass, exact on band-limited |f|^2."""

    def test_constant(self):
        grid = TorusGrid(5.0, 16)
        f = Field(grid, np.ones(16))
        assert_allclose(mass(f), 5.0, rtol=1e-14)

    def test_cosine_squared(self, grid2pi):
        f = Field(grid2pi, np.cos(grid2pi.x))
        assert_allclose(mass(f), np.pi, rtol=1e-13)


class TestLpNorm:
    @pytest.mark.parametrize("p", [2, 4, 6])
    def test_constant_modulus(self, p):
        grid = TorusGrid(3.0, 32)
        A = 1.7
        f = Field(grid, A * np.exp(1j * (2 * np.pi / 3.0) * grid.x))
        assert_allclose(lp_norm(f, p), A * 3.0 ** (1 / p), rtol=1e-13)

    def test_cosine_l2(self, grid2pi):
        f = Field(grid2pi, np.cos(grid2pi.x))
        assert_allclose(lp_norm(f, 2), np.sqrt(np.pi), rtol=1e-13)

    def test_cosine_l4(self, grid2pi):
        f = Field(grid2pi, np.cos(grid2pi.x))
        assert_allclose(lp_norm(f, 4), (3 * np.pi / 4) ** 0.25, rtol=1e-13)

    def test_rejects_unsupported_p(self, grid2pi):
        with pytest.raises(ValueError):
            lp_norm(plane_wave(grid2pi), 3)

    def test_parseval(self, grid2pi, rng):
        f = random_band_field(grid2pi, rng)
        coeffs = f.spectrum().coefficients
        rhs = grid2pi.L * np.sum(np.abs(coeffs) ** 2)
        assert_allclose(lp_norm(f, 2) ** 2, rhs, rtol=1e-12)


def float_bits(x):
    return struct.pack("<d", x)


# non-negative floats: normal, subnormal and the extremes an L^p total can
# take, 0, 1.7e308, inf and NaN
TOTALS = (st.floats(0.0, allow_infinity=True)
          | st.floats(0.0, 2.2250738585072014e-308)
          | st.sampled_from([0.0, 5e-324, 1e-310, 1.7e308, math.inf, math.nan]))


class TestRoot:
    """lp_norm's root is a Python float power: libm pow, as a numpy float64
    scalar power is, so the two give equal bits."""

    @settings(max_examples=500, deadline=None, derandomize=True)
    @given(x=TOTALS, p=st.sampled_from([4, 6]))
    def test_python_float_power_equals_numpy_scalar_power(self, x, p):
        with np.errstate(all="raise"):
            want = float(np.float64(x) ** (1.0 / p))
        assert float_bits(float(x) ** (1.0 / p)) == float_bits(want)

    @pytest.mark.parametrize("p", [2, 4, 6])
    def test_a_row_and_a_stack_give_python_floats(self, grid2pi, rng, p):
        f = random_band_field(grid2pi, rng)
        assert type(lp_norm(f, p)) is float
        stack = lp_norm(Field(grid2pi, np.stack([f.values, 2.0 * f.values])), p)
        assert [type(x) for x in stack] == [float, float]
        assert float_bits(stack[0]) == float_bits(lp_norm(f, p))


class TestTranslate:
    def test_zero_shift_is_identity(self, grid2pi, rng):
        f = random_band_field(grid2pi, rng)
        assert l2_dist(translate(f, 0.0), f) < 1e-13

    def test_full_period_is_identity(self, grid2pi, rng):
        f = random_band_field(grid2pi, rng)
        assert l2_dist(translate(f, grid2pi.L), f) < 1e-12 * lp_norm(f, 2)

    def test_plane_wave_phase(self, grid2pi):
        f = plane_wave(grid2pi)
        got = translate(f, np.pi / 2)
        assert_allclose(got.values, np.exp(1j * (grid2pi.x - np.pi / 2)),
                        atol=1e-13)

    def test_round_trip(self, grid2pi, rng):
        f = random_band_field(grid2pi, rng)
        back = translate(translate(f, 0.37), -0.37)
        assert l2_dist(back, f) <= 1e-12 * lp_norm(f, 2)
