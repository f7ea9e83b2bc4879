"""Gauge transform: profile-level identities and the trajectory frame shift."""

import numpy as np
import pytest
from numpy.testing import assert_allclose

from dnlslab import (Field, Trajectory, gauge_profile, gauge_trajectory,
                     lp_norm, mass, psi)

from conftest import l2_dist, plane_wave, random_band_field


def psi_signed(v, beta, mu_val, sign):
    """psi with the beta^2 mu^2 offset of either sign: "plus" is psi itself,
    "minus" the reading the gauge-consistency oracle rejects."""
    value = psi(v, beta, mu_val)
    if sign == "plus":
        return value
    shift = 2 * beta**2 * mu_val**2
    return value - shift if isinstance(value, float) else [p - shift for p in value]


class TestGaugeProfile:
    def test_plane_wave_unchanged(self, grid2pi):
        f = plane_wave(grid2pi, A=1.2, m=2)
        assert l2_dist(gauge_profile(f, 0.75), f) < 1e-12

    def test_beta_zero_identity(self, grid2pi, rng):
        f = random_band_field(grid2pi, rng)
        assert l2_dist(gauge_profile(f, 0.0), f) == 0.0

    def test_modulus_preserved(self, grid2pi, rng):
        f = random_band_field(grid2pi, rng, band=16)
        g = gauge_profile(f, 0.75)
        assert np.max(np.abs(np.abs(g.values) - np.abs(f.values))) < 1e-13

    def test_mass_preserved(self, grid2pi, rng):
        f = random_band_field(grid2pi, rng, band=16)
        for beta in (0.5, 0.75, 1.0):
            assert_allclose(mass(gauge_profile(f, beta)), mass(f), rtol=1e-12)

    def test_composition_in_beta(self, grid2pi, rng):
        f = random_band_field(grid2pi, rng, band=16)
        a = gauge_profile(gauge_profile(f, 0.5), 0.25)
        b = gauge_profile(f, 0.75)
        assert l2_dist(a, b) <= 1e-12 * lp_norm(f, 2)


class TestUngauge:
    """gauge_profile(f, -beta) inverts gauge_profile(f, beta)."""

    def test_round_trip(self, grid2pi, rng):
        f = random_band_field(grid2pi, rng, band=16)
        back = gauge_profile(gauge_profile(f, 0.75), -0.75)
        assert l2_dist(back, f) <= 1e-12 * lp_norm(f, 2)

    def test_beta_zero_identity(self, grid2pi, rng):
        f = random_band_field(grid2pi, rng)
        assert l2_dist(gauge_profile(f, -0.0), f) == 0.0

    def test_two_mode_round_trip(self, grid2pi):
        x = grid2pi.x
        f = Field(grid2pi, np.exp(1j * x) + 0.5 * np.exp(2j * x))
        back = gauge_profile(gauge_profile(f, 0.75), -0.75)
        assert l2_dist(back, f) < 1e-12


class TestPsi:
    def test_plane_wave_closed_form(self, grid2pi):
        A, m, beta = 0.8, 2, 0.75
        k = 2 * np.pi * m / grid2pi.L
        v = plane_wave(grid2pi, A=A, m=m)
        want = beta * (-2 * k * A**2 + (1.5 - 2 * beta) * A**4) + beta**2 * A**4
        assert_allclose(psi(v, beta, A**2), want, rtol=1e-12)

    def test_zero_field(self, grid2pi):
        z = Field(grid2pi, np.zeros(grid2pi.N))
        assert psi(z, 0.75, 0.0) == 0.0

    def test_beta_zero(self, grid2pi, rng):
        v = random_band_field(grid2pi, rng)
        assert psi(v, 0.0, 1.0) == 0.0

    def test_sign_choices_differ_by_offset(self, grid2pi, rng):
        # the kept coefficient is the integral plus beta^2 mu^2, the rejected
        # one the integral minus it
        v = random_band_field(grid2pi, rng, band=16)
        beta, mu_val = 0.75, 1.3
        offset = beta**2 * mu_val**2
        integral = psi(v, beta, 0.0)
        plus = psi(v, beta, mu_val)
        minus = psi_signed(v, beta, mu_val, "minus")
        assert_allclose(plus - integral, offset, rtol=1e-12)
        assert_allclose(minus - integral, -offset, rtol=1e-12)

    def test_unknown_sign_rejected(self, grid2pi):
        # the sign is no longer an argument, so a caller still asking for
        # one, even the kept "plus", fails instead of getting either
        v = plane_wave(grid2pi)
        for sign in ("maybe", "minus", "plus"):
            with pytest.raises(TypeError):
                psi(v, 0.75, 1.0, sign)
            with pytest.raises(TypeError):
                psi(v, 0.75, 1.0, sign_mu2=sign)

    @pytest.mark.parametrize("sign", ["plus", "minus"])
    @pytest.mark.parametrize("beta", [0.75, 0.5])
    def test_stack_gives_each_row_its_own_value(self, grid2pi, rng, sign, beta):
        rows = [random_band_field(grid2pi, rng, band=16, scale=s).values
                for s in (0.2, 0.6, 1.1)]
        got = psi_signed(Field(grid2pi, np.stack(rows)), beta, 1.3, sign)
        want = [psi_signed(Field(grid2pi, row), beta, 1.3, sign) for row in rows]
        assert got == want
        assert all(type(value) is float for value in got + want)


class TestGaugeTrajectory:
    def _plane_wave_trajectory(self, grid, A, m, times):
        k = 2 * np.pi * m / grid.L
        omega = k**2 - k * A**2
        values = [A * np.exp(1j * (k * grid.x - omega * t)) for t in times]
        return Trajectory(grid, times, values), omega, k

    def test_plane_wave_closed_form(self, grid2pi):
        A, m, beta = 1.1, 1, 0.75
        times = (0.0, 0.25, 0.5, 0.75)
        traj, omega, k = self._plane_wave_trajectory(grid2pi, A, m, times)
        gauged = gauge_trajectory(traj, beta)
        mu0 = A**2
        for (t, v) in gauged.frames:
            want = A * np.exp(1j * (k * (grid2pi.x - 2 * beta * mu0 * t) - omega * t))
            assert np.max(np.abs(v.values - want)) < 1e-11

    def test_beta_zero_identity(self, grid2pi):
        traj, _, _ = self._plane_wave_trajectory(grid2pi, 0.9, 2, (0.0, 0.5))
        gauged = gauge_trajectory(traj, 0.0)
        for (_, a), (_, b) in zip(gauged.frames, traj.frames):
            assert l2_dist(a, b) < 1e-13

    def test_initial_frame_has_no_shift(self, grid2pi, rng):
        f = random_band_field(grid2pi, rng, band=16)
        traj = Trajectory(grid2pi, [0.0, 0.5], [f.values] * 2)
        gauged = gauge_trajectory(traj, 0.75)
        assert l2_dist(gauged.frames[0][1], gauge_profile(f, 0.75)) < 1e-13
