"""Sharp constant, flap integrals, inequality audits, and the mass threshold."""

import math

import mpmath as mp
import numpy as np
import pytest
from numpy.testing import assert_allclose
from scipy.integrate import quad

from dnlslab import Field, TorusGrid, cgn, flap_integrals, lp_norm, mass_threshold
from dnlslab.config import GnAuditBlock
from dnlslab.functionals import h1dot_sq
from dnlslab.gn import (CGN, CGN_POW_M18, CGN_POW_M92, field_norms,
                        gn0_extension_record, gn1_record)
from dnlslab.grid import Spectrum
from dnlslab.harness import GN_AUDIT_COLUMNS, audit_coefficients, run_gn_audit

from conftest import plane_wave, random_band_field


class TestSharpConstant:
    def test_value_against_extended_precision(self):
        mp.mp.dps = 50
        want = float(mp.power(3, mp.mpf(1) / 6) * mp.power(2 * mp.pi, mp.mpf(-1) / 9))
        assert abs(cgn() - want) < 1e-15
        assert abs(cgn() - 0.9791) < 1e-4

    def test_derived_powers_consistent(self):
        assert abs(CGN_POW_M92 - cgn() ** -4.5) <= 1e-14 * CGN_POW_M92
        assert abs(CGN_POW_M18 - cgn() ** -18) <= 1e-14 * CGN_POW_M18

    def test_below_one(self):
        assert cgn() < 1.0

    def test_threshold_identity(self):
        # threshold^2 (1 + 2d/5L)^4 == 108 * C^-18, the closed-form link
        # between the sharp constant and the mass threshold
        for L, d in ((1.0, 0.5), (2 * np.pi, 1.0), (10.0, 0.1)):
            th = mass_threshold(L, d)
            shape = (1 + 2 * d / (5 * L)) ** 4
            assert_allclose(th**2 * shape, 108.0 * CGN_POW_M18, rtol=1e-12)


class TestMassThreshold:
    def test_supremum_is_four_pi(self):
        prev = None
        for d in (1.0, 0.1, 0.01, 1e-6):
            th = mass_threshold(2 * np.pi, d)
            assert th < 4 * np.pi
            if prev is not None:
                assert th > prev
            prev = th
        assert mass_threshold(1.0, 0.0) == 4 * np.pi

    def test_closed_form_point(self):
        assert mass_threshold(1.0, 2.5) == np.pi

    def test_monotone(self):
        assert mass_threshold(1.0, 0.2) > mass_threshold(1.0, 0.4)
        assert mass_threshold(2.0, 0.2) > mass_threshold(1.0, 0.2)

    @pytest.mark.parametrize("L,d", [(-1.0, 0.1), (0.0, 0.1), (1.0, -0.5)])
    def test_rejects_bad_arguments(self, L, d):
        with pytest.raises(ValueError):
            mass_threshold(L, d)


class TestBaseShift:
    """The base value f0_abs of the flap extension: |f| at its minimum node,
    which is at most L^(-1/4) ||f||_L4."""

    def test_constant_modulus_saturation(self, grid2pi):
        f = plane_wave(grid2pi, A=1.3, m=2)
        f0 = field_norms(f).f0_abs
        bound = grid2pi.L ** -0.25 * lp_norm(f, 4)
        assert f0 <= bound * (1 + 1e-9)
        assert_allclose(f0, bound, rtol=1e-12)

    def test_cosine_base_at_zero_crossing(self, grid2pi):
        f = Field(grid2pi, np.cos(grid2pi.x))
        assert field_norms(f).f0_abs < 1e-12

    def test_zero_field(self, grid2pi):
        z = Field(grid2pi, np.zeros(grid2pi.N))
        assert field_norms(z).f0_abs == 0.0

    def test_bound_on_random_fields(self, grid2pi, rng):
        for _ in range(25):
            f = random_band_field(grid2pi, rng, band=16)
            bound = grid2pi.L ** -0.25 * lp_norm(f, 4)
            assert field_norms(f).f0_abs <= bound * (1 + 1e-9)


class TestFlapIntegrals:
    def test_unit_values(self):
        prof = flap_integrals(1.0, 1.0)
        assert_allclose((prof.flap_l4, prof.flap_l2grad, prof.flap_l6),
                        (2 / 5, 2.0, 2 / 7), rtol=1e-15)

    def test_zero_boundary_value(self):
        prof = flap_integrals(0.0, 2.0)
        assert prof.flap_l4 == prof.flap_l2grad == prof.flap_l6 == 0.0

    def test_rejects_nonpositive_delta(self):
        with pytest.raises(ValueError):
            flap_integrals(1.0, -1.0)
        with pytest.raises(ValueError):
            flap_integrals(1.0, 0.0)

    @pytest.mark.parametrize("f0,delta", [(0.7, 0.3), (1.9, 2.5)])
    def test_against_adaptive_quadrature(self, f0, delta):
        # both flaps are |f0| t/delta ramps; quadrature of the exact profile
        ramp = lambda t, p: (f0 * t / delta) ** p
        l4, _ = quad(ramp, 0, delta, args=(4,))
        l6, _ = quad(ramp, 0, delta, args=(6,))
        grad, _ = quad(lambda t: (f0 / delta) ** 2, 0, delta)
        prof = flap_integrals(f0, delta)
        assert_allclose(prof.flap_l4, 2 * l4, rtol=1e-10)
        assert_allclose(prof.flap_l6, 2 * l6, rtol=1e-10)
        assert_allclose(prof.flap_l2grad, 2 * grad, rtol=1e-10)


class TestCheckGn1:
    def test_zero_field(self, grid2pi):
        rec = gn1_record(field_norms(Field(grid2pi, np.zeros(grid2pi.N))), 1.0)
        assert rec.lhs == rec.rhs == 0.0 and rec.satisfied

    def test_constant_field_closed_forms(self):
        grid = TorusGrid(2 * np.pi, 64)
        f = Field(grid, np.ones(64, dtype=complex))
        rec = gn1_record(field_norms(f), 1.0)
        L = 2 * np.pi
        assert_allclose(rec.lhs, L ** (1 / 6), rtol=1e-13)
        want_rhs = (cgn() * (1 + 1 / (5 * np.pi)) ** (2 / 9)
                    * 2 ** (1 / 18) * L ** (2 / 9))
        assert_allclose(rec.rhs, want_rhs, rtol=1e-13)
        assert rec.satisfied

    def test_rejects_nonpositive_delta(self, grid2pi):
        with pytest.raises(ValueError):
            gn1_record(field_norms(plane_wave(grid2pi)), 0.0)

    def test_random_corpus_zero_violations(self, rng):
        for L in (0.5, 2 * np.pi, 10.0):
            grid = TorusGrid(L, 64)
            for _ in range(20):
                f = random_band_field(grid, rng, band=16,
                                      scale=10 ** rng.uniform(-1, 1))
                for delta in (0.1, 1.0, 10.0):
                    assert gn1_record(field_norms(f), delta).satisfied


class TestGn0OnExtension:
    def test_zero_field(self, grid2pi):
        zero = Field(grid2pi, np.zeros(grid2pi.N))
        rec, _ = gn0_extension_record(field_norms(zero), 1.0)
        assert rec.satisfied

    def test_constant_field_assembly(self):
        grid = TorusGrid(2 * np.pi, 64)
        f = Field(grid, np.ones(64, dtype=complex))
        delta = 1.0
        rec, _ = gn0_extension_record(field_norms(f), delta)
        L = 2 * np.pi
        # flap-only gradient, torus-plus-flap L^p integrals
        lhs = (L + 2 * delta / 7) ** (1 / 6)
        rhs = cgn() * (2 / delta) ** (1 / 18) * (L + 2 * delta / 5) ** (2 / 9)
        assert_allclose(rec.lhs, lhs, rtol=1e-13)
        assert_allclose(rec.rhs, rhs, rtol=1e-13)
        assert rec.satisfied

    def test_extension_enlarges_l6(self, grid2pi, rng):
        f = random_band_field(grid2pi, rng, band=16)
        rec, _ = gn0_extension_record(field_norms(f), 0.5)
        assert rec.lhs >= lp_norm(f, 6)

    def test_chain_and_satisfaction_on_corpus(self, rng):
        for L in (1.0, 2 * np.pi):
            grid = TorusGrid(L, 64)
            for _ in range(15):
                f = random_band_field(grid, rng, band=16,
                                      scale=10 ** rng.uniform(-1, 1))
                norms = field_norms(f)
                for delta in (0.1, 1.0, 10.0):
                    rec0, _ = gn0_extension_record(norms, delta)
                    rec1 = gn1_record(norms, delta)
                    assert rec0.satisfied and rec1.satisfied
                    # the periodic rhs is an enlargement of the line rhs
                    assert rec0.rhs <= rec1.rhs * (1 + 1e-12)


def scalar_corpus(block):
    """The audit corpus drawn one normal at a time: mode by mode from -band
    up, the real part first."""
    rng = np.random.default_rng(block.seed)
    band = min(block.max_mode, block.N // 3)
    envelope_scale = max(2.0, band / 3.0)
    coeffs = [np.zeros(block.N, dtype=np.complex128)]
    for _ in range(block.num_fields):
        c = np.zeros(block.N, dtype=np.complex128)
        scale = 10.0 ** rng.uniform(-1.0, 1.0)
        for m in range(-band, band + 1):
            z = rng.standard_normal() + 1j * rng.standard_normal()
            c[m % block.N] = scale * z * math.exp(-abs(m) / envelope_scale)
        coeffs.append(c)
    return coeffs


def reference_rows(block):
    """gn_audit.csv rows rebuilt from the rotated field and the GN formulas."""
    rows = []
    for L in block.L_values:
        grid = TorusGrid(L, block.N)
        for field_id, c in enumerate(scalar_corpus(block)):
            f = Spectrum(grid, c).field()
            f0 = float(np.abs(f.values[np.argmin(np.abs(f.values))]))
            l4, l6, grad_sq = lp_norm(f, 4), lp_norm(f, 6), h1dot_sq(f)
            for delta in block.delta_values:
                bracket = grad_sq + 2.0 / (delta * np.sqrt(L)) * l4 ** 2
                rhs1 = (CGN * (1.0 + 2.0 * delta / (5.0 * L)) ** (2.0 / 9.0)
                        * bracket ** (1.0 / 18.0) * l4 ** (8.0 / 9.0))
                flap_l2grad = 2.0 * f0 ** 2 / delta
                flap_l4 = 2.0 * delta * f0 ** 4 / 5.0
                flap_l6 = 2.0 * delta * f0 ** 6 / 7.0
                lhs0 = (l6 ** 6 + flap_l6) ** (1.0 / 6.0)
                rhs0 = (CGN * (grad_sq + flap_l2grad) ** (1.0 / 18.0)
                        * (l4 ** 4 + flap_l4) ** (2.0 / 9.0))
                ok = (rhs1 - l6 >= -1e-12 * rhs1 and rhs0 - lhs0 >= -1e-12 * rhs0
                      and rhs0 <= rhs1 * (1.0 + 1e-12))
                rows.append((field_id, L, delta, l6, rhs1, rhs1 - l6, ok,
                             flap_l2grad, flap_l4, flap_l6))
    return rows


class TestAuditRowPath:
    """The audit's corpus, norms and rows against their per-item references."""

    @pytest.mark.parametrize("seed", [0, 7, 12345])
    @pytest.mark.parametrize("N, max_mode", [(32, 16), (128, 5)])
    def test_corpus_equals_scalar_draws(self, seed, N, max_mode):
        block = GnAuditBlock(num_fields=12, N=N, max_mode=max_mode, seed=seed)
        got, want = audit_coefficients(block), scalar_corpus(block)
        assert len(got) == len(want) == 13
        assert all(np.array_equal(a, b) for a, b in zip(got, want))

    def test_field_norms_base_equals_base_shift(self):
        grid = TorusGrid(1.0, 64)
        block = GnAuditBlock(num_fields=40, N=64, seed=3)
        fields = [Spectrum(grid, c).field() for c in audit_coefficients(block)]
        fields.append(Field(grid, np.cos(grid.x)))
        for f in fields:
            base = f.values[np.argmin(np.abs(f.values))]
            assert field_norms(f).f0_abs == float(np.abs(base))

    def test_rows_equal_reference(self):
        block = GnAuditBlock(num_fields=19, L_values=(1.0, 2 * np.pi),
                             delta_values=(0.1, 1.0), N=32)
        outcome = run_gn_audit(block)
        columns, rows = outcome.tables["gn_audit.csv"]
        assert columns == GN_AUDIT_COLUMNS
        want = reference_rows(block)
        assert len(rows) == len(want) == 20 * 2 * 2
        assert rows == want
        assert outcome.exit_code == 0
