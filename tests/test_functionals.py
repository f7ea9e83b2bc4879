"""Conserved functionals against plane-wave and real-field closed forms."""

import math

import numpy as np
import pytest
from hypothesis import assume, example, given, settings
from hypothesis import strategies as st
from numpy.testing import assert_allclose

from dnlslab import (Field, Spectrum, TorusGrid, conserved_report, ecal,
                     energy_u, f_ratio, gauge_profile, gauged_E, gauged_H,
                     hamiltonian_u, im_momentum, lp_norm, mass, momentum_v, mu,
                     proof_sample, psi, translate)
from dnlslab.functionals import _im_cubic_term, h1dot_sq

from conftest import plane_wave, random_band_field


@pytest.fixture
def wave_params():
    return 0.8, 2, 2 * np.pi  # amplitude, mode, period


class TestMassMu:
    def test_plane_wave(self, grid2pi):
        A = 1.3
        f = plane_wave(grid2pi, A=A, m=3)
        assert_allclose(mass(f), A * A * grid2pi.L, rtol=1e-13)
        assert_allclose(mu(f), A * A, rtol=1e-13)

    def test_zero(self, grid2pi):
        z = Field(grid2pi, np.zeros(grid2pi.N))
        assert mass(z) == 0.0 and mu(z) == 0.0

    def test_cosine(self, grid2pi):
        f = Field(grid2pi, np.cos(grid2pi.x))
        assert_allclose(mass(f), np.pi, rtol=1e-13)
        assert_allclose(mu(f), 0.5, rtol=1e-13)


class TestHamiltonian:
    def test_plane_wave_closed_form(self, grid2pi, wave_params):
        A, m, L = wave_params
        k = 2 * np.pi * m / L
        f = plane_wave(grid2pi, A=A, m=m)
        want = -k * A**2 * L + 0.5 * A**4 * L
        assert_allclose(hamiltonian_u(f), want, rtol=1e-12)

    def test_zero(self, grid2pi):
        assert hamiltonian_u(Field(grid2pi, np.zeros(grid2pi.N))) == 0.0

    def test_real_cosine(self, grid2pi):
        f = Field(grid2pi, np.cos(grid2pi.x))
        assert_allclose(hamiltonian_u(f), 3 * np.pi / 8, rtol=1e-12)


class TestEnergy:
    def test_plane_wave_literal(self, grid2pi, wave_params):
        A, m, L = wave_params
        k = 2 * np.pi * m / L
        f = plane_wave(grid2pi, A=A, m=m)
        want = k**2 * A**2 * L - 3 * k * A**4 * L + 0.5 * A**6 * L
        assert_allclose(energy_u(f, "literal"), want, rtol=1e-12)

    def test_plane_wave_standard(self, grid2pi, wave_params):
        A, m, L = wave_params
        k = 2 * np.pi * m / L
        f = plane_wave(grid2pi, A=A, m=m)
        want = k**2 * A**2 * L - 1.5 * k * A**4 * L + 0.5 * A**6 * L
        assert_allclose(energy_u(f, "standard"), want, rtol=1e-12)

    def test_zero(self, grid2pi):
        assert energy_u(Field(grid2pi, np.zeros(grid2pi.N))) == 0.0

    def test_literal_reading_doubles_the_standard_one(self, grid2pi, rng):
        # identical as functions: f^2 conj(d/dx f^2) = 2 |f|^2 f conj(f_x)
        f = random_band_field(grid2pi, rng)
        lit = _im_cubic_term(f, "literal")
        std = _im_cubic_term(f, "standard")
        assert_allclose(lit, 2.0 * std, rtol=1e-11)

    def test_unknown_form_rejected(self, grid2pi):
        with pytest.raises(ValueError):
            energy_u(plane_wave(grid2pi), "other")


class TestMomentum:
    def test_plane_wave(self, grid2pi, wave_params):
        A, m, L = wave_params
        k = 2 * np.pi * m / L
        f = plane_wave(grid2pi, A=A, m=m)
        assert_allclose(momentum_v(f), -k * A**2 * L - 0.25 * A**4 * L,
                        rtol=1e-12)

    def test_zero(self, grid2pi):
        assert momentum_v(Field(grid2pi, np.zeros(grid2pi.N))) == 0.0

    def test_real_cosine(self, grid2pi):
        f = Field(grid2pi, np.cos(grid2pi.x))
        assert_allclose(momentum_v(f), -3 * np.pi / 16, atol=1e-13)


class TestGaugedForms:
    def test_beta_zero_reduces_to_ungauged(self, grid2pi, rng):
        f = random_band_field(grid2pi, rng)
        assert gauged_H(f, 0.0) == hamiltonian_u(f)
        for form in ("literal", "standard"):
            assert gauged_E(f, 0.0, form) == energy_u(f, form)

    def test_gauged_H_plane_wave(self, grid2pi, wave_params):
        A, m, L = wave_params
        k = 2 * np.pi * m / L
        f = plane_wave(grid2pi, A=A, m=m)
        want = -k * A**2 * L - 0.25 * A**4 * L + 0.75 * L * A**4
        assert_allclose(gauged_H(f, 0.75), want, rtol=1e-12)

    @pytest.mark.parametrize("A", [0.8, 1.5])
    @pytest.mark.parametrize("beta", [0.3, 0.75, 1.0])
    def test_gauged_E_plane_wave(self, grid2pi, wave_params, A, beta):
        # |f| is constant, so the gauge leaves f as it is and the gauged
        # energy is the energy itself at every beta; at mu = A^2 != 1 this
        # needs the factor mu on the momentum term
        _, m, L = wave_params
        k = 2 * np.pi * m / L
        f = plane_wave(grid2pi, A=A, m=m)
        want = k**2 * A**2 * L - 1.5 * k * A**4 * L + 0.5 * A**6 * L
        assert_allclose(gauged_E(f, beta), want, rtol=1e-12)

    def test_cubic_term_drops_out_at_three_quarters(self, grid2pi, rng):
        # (3/2 - 2 beta) = 0, so the two readings must coincide there
        f = random_band_field(grid2pi, rng)
        assert_allclose(gauged_E(f, 0.75, "literal"),
                        gauged_E(f, 0.75, "standard"), rtol=1e-12)

    def test_zero(self, grid2pi):
        z = Field(grid2pi, np.zeros(grid2pi.N))
        assert gauged_H(z, 0.75) == 0.0
        assert gauged_E(z, 0.75) == 0.0


@st.composite
def band_fields(draw, periods=(1.0, 2 * np.pi, 10.0)):
    """A field on 256 nodes of one of the periods, with modes |m| <= 8 whose
    parts lie on a lattice of step 1e-3 under a decaying envelope."""
    grid = TorusGrid(draw(st.sampled_from(periods)), 256)
    band = draw(st.integers(1, 8))
    parts = draw(st.lists(st.integers(-1000, 1000), min_size=4 * band + 2,
                          max_size=4 * band + 2))
    c = np.zeros(grid.N, dtype=np.complex128)
    for i, m in enumerate(range(-band, band + 1)):
        c[m % grid.N] = ((parts[2 * i] + 1j * parts[2 * i + 1]) / 1000.0
                         * math.exp(-abs(m) / 3))
    return Spectrum(grid, c).field()


class TestGaugeIdentity:
    """The gauged forms of H and E are H and E of the ungauged field:
    gauged_H(G_b u, b) = hamiltonian_u(u), gauged_E(G_b u, b) = energy_u(u)."""

    # relative to the sum of the magnitudes of the ungauged terms, which the
    # rounding scales with; measured at about 1e-15
    RTOL = 1e-12

    @settings(max_examples=60, deadline=None, derandomize=True)
    @given(u=band_fields(), beta=st.floats(0.0, 1.0))
    def test_gauged_forms_equal_the_ungauged_ones(self, u, beta):
        v = gauge_profile(u, beta)
        scale_H = abs(im_momentum(u)) + 0.5 * lp_norm(u, 4) ** 4
        scale_E = (h1dot_sq(u) + 1.5 * abs(_im_cubic_term(u, "standard"))
                   + 0.5 * lp_norm(u, 6) ** 6)
        assert abs(gauged_H(v, beta) - hamiltonian_u(u)) <= self.RTOL * scale_H
        assert abs(gauged_E(v, beta) - energy_u(u)) <= self.RTOL * scale_E


def _report_column(name):
    return lambda f: getattr(conserved_report(f), name)


def _real_field_times_phase(L):
    """(cos(2 pi x/L) + 0.3 sin(4 pi x/L)) e^{0.7i} on 32 nodes of period L."""
    grid = TorusGrid(L, 32)
    y = 2 * np.pi * grid.x / L
    return Field(grid, (np.cos(y) + 0.3 * np.sin(2 * y)) * np.exp(0.7j))


class TestPeriodCovariance:
    """u -> u_lam = lam^(1/2) u(lam x) maps a field of period L to one of
    period L/lam; on a grid of N nodes its samples are lam^(1/2) times
    those of u. Each functional F(u_lam) = lam^k F(u), k its degree."""

    LAM = 3.0
    RTOL = 1e-13
    BETA = 0.6
    DELTA = 0.7
    # name: (functional of a field, degree)
    DEGREES = {
        "mass": (mass, 0),
        "mu": (mu, 1),
        "im_momentum": (im_momentum, 1),
        "h1dot_sq": (h1dot_sq, 2),
        "hamiltonian_u": (hamiltonian_u, 1),
        "energy_u": (energy_u, 2),
        "momentum_v": (momentum_v, 1),
        "gauged_H": (lambda f: gauged_H(f, TestPeriodCovariance.BETA), 1),
        "gauged_E": (lambda f: gauged_E(f, TestPeriodCovariance.BETA), 2),
        "ecal": (ecal, 2),
        "psi": (lambda f: psi(f, TestPeriodCovariance.BETA, mu(f)), 2),
        "l4": (lambda f: lp_norm(f, 4), 0.25),
        "l6": (lambda f: lp_norm(f, 6), 1 / 3),
        "f_ratio": (f_ratio, 0),
        "conserved_report.M": (_report_column("M"), 0),
        "conserved_report.H": (_report_column("H"), 1),
        "conserved_report.E": (_report_column("E"), 2),
        "conserved_report.P": (_report_column("P"), 1),
        "conserved_report.mu": (_report_column("mu"), 1),
        "conserved_report.Ecal": (_report_column("Ecal"), 2),
    }
    # the columns of degree 1 with the momentum integral among their terms,
    # which can cancel: each is held to an absolute floor of RTOL lam
    # sqrt(M ||f_x||^2) as well, the Cauchy-Schwarz bound of that integral
    # at the scaled period, which its rounding error scales with
    CANCELLING = {"im_momentum", "hamiltonian_u", "momentum_v", "gauged_H",
                  "conserved_report.H", "conserved_report.P"}
    # proof_sample column: degree, where delta scales to delta/lam and the
    # supplied ecal_val to lam^2 ecal_val (Ecal's degree)
    SAMPLE_DEGREES = {"l4": 0.25, "l6": 1 / 3, "h1dot": 1, "f": 0, "gamma": 0,
                      "eta": 0, "lower_bound_f": 0, "holder_upper": 0}

    @settings(max_examples=30, deadline=None, derandomize=True)
    @given(u=band_fields())
    # real fields times a constant phase, whose momentum is 0: its rounding
    # error of about 1e-15 misses a pure rtol of 1e-13 of the computed value
    @example(u=_real_field_times_phase(0.3))
    @example(u=_real_field_times_phase(1.0))
    @example(u=_real_field_times_phase(2 * np.pi))
    def test_functionals_scale_with_their_degree(self, u):
        assume(mass(u) > 0)  # f_ratio is undefined on the zero field
        lam = self.LAM
        scaled = Field(TorusGrid(u.grid.L / lam, u.grid.N), math.sqrt(lam) * u.values)
        floor = self.RTOL * lam * math.sqrt(mass(u) * h1dot_sq(u))
        for name, (functional, degree) in self.DEGREES.items():
            want = lam ** degree * functional(u)
            assert_allclose(functional(scaled), want, rtol=self.RTOL,
                            atol=floor if name in self.CANCELLING else 0,
                            err_msg=name)

    @settings(max_examples=30, deadline=None, derandomize=True)
    @given(u=band_fields())
    def test_proof_sample_columns_scale_with_their_degree(self, u):
        assume(mass(u) > 0)  # proof_sample is undefined on the zero field
        lam, ecal_val = self.LAM, ecal(u)
        scaled = Field(TorusGrid(u.grid.L / lam, u.grid.N), math.sqrt(lam) * u.values)
        sample = proof_sample(u, self.DELTA, ecal_val)
        got = proof_sample(scaled, self.DELTA / lam, lam ** 2 * ecal_val)
        assert got.case_tag == sample.case_tag
        for name, degree in self.SAMPLE_DEGREES.items():
            want = lam ** degree * getattr(sample, name)
            assert_allclose(getattr(got, name), want, rtol=self.RTOL, err_msg=name)


class TestEcal:
    def test_plane_wave(self, grid2pi, wave_params):
        A, m, L = wave_params
        k = 2 * np.pi * m / L
        f = plane_wave(grid2pi, A=A, m=m)
        assert_allclose(ecal(f), k**2 * A**2 * L + (5 / 16) * A**6 * L,
                        rtol=1e-12)

    def test_constant(self):
        grid = TorusGrid(3.0, 64)
        A = 1.1
        f = Field(grid, np.full(64, A, dtype=complex))
        assert_allclose(ecal(f), (5 / 16) * A**6 * 3.0, rtol=1e-13)

    def test_zero(self, grid2pi):
        assert ecal(Field(grid2pi, np.zeros(grid2pi.N))) == 0.0


class TestConservedReport:
    def test_zero_field_all_zero(self, grid2pi):
        rep = conserved_report(Field(grid2pi, np.zeros(grid2pi.N)), t=0.5)
        assert rep.t == 0.5
        assert rep.M == rep.H == rep.E == rep.P == rep.mu == rep.Ecal == 0.0

    def test_plane_wave_matches_components(self, grid2pi):
        f = plane_wave(grid2pi, A=0.9, m=1)
        rep = conserved_report(f)
        assert rep.M == mass(f) and rep.H == hamiltonian_u(f)
        assert rep.E == energy_u(f) and rep.P == momentum_v(f)
        assert rep.Ecal == ecal(f)

    def test_mu_times_L_is_mass(self, grid2pi, rng):
        f = random_band_field(grid2pi, rng)
        rep = conserved_report(f)
        assert abs(rep.mu * grid2pi.L - rep.M) <= 1e-14 * rep.M


class TestInvariances:
    def test_translation_and_phase_invariance(self, grid2pi, rng):
        f = random_band_field(grid2pi, rng, band=20)
        g = translate(f, 1.234)
        h = Field(grid2pi, np.exp(1j * 0.7) * f.values)
        for probe in (g, h):
            assert_allclose(mass(probe), mass(f), rtol=1e-12)
            assert_allclose(lp_norm(probe, 4), lp_norm(f, 4), rtol=1e-12)
            assert_allclose(lp_norm(probe, 6), lp_norm(f, 6), rtol=1e-12)
            assert_allclose(ecal(probe), ecal(f), rtol=1e-11)

    def test_modulation_identities(self, grid2pi, rng):
        # exact algebra for phi = e^{i alpha x} v with lattice alpha
        v = random_band_field(grid2pi, rng, band=20)
        for j in (1, 2, 3):
            alpha = 2 * np.pi * j / grid2pi.L
            phi = Field(grid2pi, np.exp(1j * alpha * grid2pi.x) * v.values)
            assert_allclose(mass(phi), mass(v), rtol=1e-12)
            assert_allclose(im_momentum(phi),
                            im_momentum(v) - alpha * mass(v), rtol=1e-11)
            assert_allclose(ecal(phi),
                            ecal(v) + alpha**2 * mass(v)
                            - 2 * alpha * im_momentum(v), rtol=1e-11)
