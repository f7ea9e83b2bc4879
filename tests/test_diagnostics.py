"""Proof-side quantities: ratio bounds, modulation identity, case machinery."""

import numpy as np
import pytest
from numpy.testing import assert_allclose

from dnlslab import (Field, Trajectory, ZeroFieldError, case_report,
                     conserved_report, ecal, f_ratio, lp_norm,
                     m1_identity_check, mass, mass_threshold, modulate,
                     proof_sample)
from dnlslab import diagnostics, gn
from dnlslab.diagnostics import DiagnosticsSample
from dnlslab.gn import CGN, FieldNorms, audit_sweep, field_norms

from conftest import plane_wave, random_band_field


class TestFRatio:
    def test_constant_modulus_saturates_hoelder(self, grid2pi):
        f = plane_wave(grid2pi, A=1.4, m=2)
        assert_allclose(f_ratio(f), np.sqrt(mass(f)), rtol=1e-12)

    def test_zero_field_rejected(self, grid2pi):
        with pytest.raises(ZeroFieldError):
            f_ratio(Field(grid2pi, np.zeros(grid2pi.N)))

    def test_two_level_modulus_strictly_below(self, grid2pi):
        # |v| varies smoothly between levels, so Hoelder cannot saturate
        v = Field(grid2pi, 0.2 + 0.8 * (1 + np.cos(grid2pi.x)) / 2)
        assert f_ratio(v) < np.sqrt(mass(v)) * (1 - 1e-3)

    def test_stack_gives_each_row_its_own_ratio(self, grid2pi, rng):
        rows = [random_band_field(grid2pi, rng, band=12, scale=s).values
                for s in (0.3, 1.0, 4.0)]
        got = f_ratio(Field(grid2pi, np.array(rows)))
        assert isinstance(got, list) and len(got) == 3
        for ratio, row in zip(got, rows):
            f = Field(grid2pi, row)
            assert type(ratio) is float
            assert ratio == f_ratio(f)
            assert ratio == lp_norm(f, 4) ** 4 / lp_norm(f, 6) ** 3

    def test_zero_row_of_a_stack_rejected(self, grid2pi, rng):
        rows = np.array([random_band_field(grid2pi, rng).values,
                         np.zeros(grid2pi.N)])
        with pytest.raises(ZeroFieldError):
            f_ratio(Field(grid2pi, rows))


class TestProofSample:
    def test_constant_field_gamma_direct_transcription(self):
        from dnlslab import TorusGrid
        A, L, delta = 1.0, 2 * np.pi, 1.0
        grid = TorusGrid(L, 64)
        v = Field(grid, np.full(64, A, dtype=complex))
        s = proof_sample(v, delta, ecal(v))
        # direct transcription with closed-form norms of the constant field
        l4 = A * L ** 0.25
        l6 = A * L ** (1 / 6)
        gamma_direct = ((2 / (delta * np.sqrt(L)) - 0.375 * A**2 * l4**2)
                        * l4**2 / l6**6)
        assert_allclose(s.gamma, gamma_direct, rtol=1e-12)
        assert_allclose(s.gamma, 2 / (delta * A**4 * L) - 0.375, rtol=1e-12)

    def test_eta_vanishes_at_algebraic_root(self, grid2pi, rng):
        # eta = 0 exactly when f = 2 C^{-9/2} (1 + 2d/5L)^{-1}
        delta = 0.7
        shape = 1 + 2 * delta / (5 * grid2pi.L)
        f_root = 2 * CGN ** -4.5 / shape
        v = random_band_field(grid2pi, rng, band=12)
        s = proof_sample(v, delta, ecal(v))
        eta_at_root = 1 / 16 - shape ** -4 * CGN ** -18 / f_root ** 4
        assert abs(eta_at_root) < 1e-12

    def test_hoelder_and_lower_bound_on_random_fields(self, grid2pi, rng):
        for _ in range(40):
            v = random_band_field(grid2pi, rng, band=16,
                                  scale=10 ** rng.uniform(-1, 0.7))
            s = proof_sample(v, 1.0, ecal(v))
            assert s.f <= s.holder_upper * (1 + 1e-12)
            assert s.lower_bound_f is not None
            assert s.f >= s.lower_bound_f * (1 - 1e-10)

    def test_base_positive_when_ecal_instantaneous(self, grid2pi, rng):
        # 1 + 16 ecal/l6^6 + 16 gamma equals 16(|v_x|^2 + 2 l4^2/(d sqrt(L)))/l6^6
        v = random_band_field(grid2pi, rng, band=12)
        s = proof_sample(v, 0.5, ecal(v))
        assert s.lower_bound_f is not None

    def test_lower_bound_absent_for_hostile_ecal(self, grid2pi, rng):
        v = random_band_field(grid2pi, rng, band=12)
        s = proof_sample(v, 0.5, -1e12 * lp_norm(v, 6) ** 6)
        assert s.lower_bound_f is None

    def test_rejects_zero_field_and_bad_delta(self, grid2pi):
        with pytest.raises(ZeroFieldError):
            proof_sample(Field(grid2pi, np.zeros(grid2pi.N)), 1.0, 0.0)
        with pytest.raises(ValueError):
            proof_sample(plane_wave(grid2pi), -1.0, 0.0)


class TestCaseAlpha:
    def _sample(self, eta, gamma, l6):
        return DiagnosticsSample(t=0.0, l4=1.0, l6=l6, h1dot=0.0, f=1.0,
                                 gamma=gamma, eta=eta, lower_bound_f=None,
                                 holder_upper=1.0, alpha=None, case_tag="case2")

    @staticmethod
    def alpha(s, M, L):
        """The case alpha of sample s at conserved mass M and period L."""
        return diagnostics._case_alpha(s.eta + s.gamma, s.l6, M, L)

    def test_synthetic_value(self):
        # target = sqrt(0.01/1) * 2^3 = 0.8 -> first lattice point above is 1
        s = self._sample(eta=0.01, gamma=0.0, l6=2.0)
        assert_allclose(self.alpha(s, 1.0, 2 * np.pi), 1.0, rtol=1e-14)

    def test_integer_target_still_bumped_up(self):
        # target exactly 2 on the unit lattice -> alpha = 3
        s = self._sample(eta=0.04, gamma=0.0, l6=(2.0 / 0.2) ** (1 / 3))
        target = np.sqrt(0.04) * s.l6 ** 3
        assert_allclose(target, 2.0, rtol=1e-12)
        assert_allclose(self.alpha(s, 1.0, 2 * np.pi), 3.0, rtol=1e-14)

    @pytest.mark.parametrize("L", [0.5, 2 * np.pi, 10.0])
    def test_case1_gives_the_unit_frequency(self, L):
        # eta + gamma <= 0: alpha = 2 pi/L, whatever the mass and the L6 norm
        for eta, gamma in ((-0.1, 0.05), (0.0, 0.0)):
            s = self._sample(eta=eta, gamma=gamma, l6=1.0)
            assert self.alpha(s, 1.0, L) == 2.0 * np.pi / L
            assert self.alpha(s, 0.0, L) == 2.0 * np.pi / L

    def test_rejects_nonpositive_mass(self):
        s = self._sample(eta=0.01, gamma=0.0, l6=1.0)
        with pytest.raises(ValueError):
            self.alpha(s, 0.0, 2 * np.pi)

    def test_smallest_lattice_frequency_above_target(self, rng):
        # brute force over integer candidates
        for _ in range(50):
            L = float(rng.uniform(0.5, 10.0))
            s = self._sample(eta=float(rng.uniform(0.001, 0.3)),
                             gamma=float(rng.uniform(-0.05, 0.3)), l6=float(rng.uniform(0.5, 3.0)))
            if s.eta + s.gamma <= 0:
                continue
            M = float(rng.uniform(0.1, 20.0))
            alpha = self.alpha(s, M, L)
            unit = 2 * np.pi / L
            target = np.sqrt((s.eta + s.gamma) / M) * s.l6 ** 3
            j = alpha / unit
            assert abs(j - round(j)) < 1e-9
            j = round(j)
            assert j >= 1 and j * unit > target
            brute = min(n for n in range(1, j + 2) if n * unit > target)
            assert j == brute


class TestM1Identity:
    def test_plane_wave_closed_form(self, grid2pi):
        A, m = 0.9, 2
        k = 2 * np.pi * m / grid2pi.L
        v = plane_wave(grid2pi, A=A, m=m)
        alpha = 2 * np.pi / grid2pi.L
        # both sides equal Im int v conj(v_x) = -k A^2 L
        from dnlslab import momentum_v
        lhs = momentum_v(v) + 0.25 * lp_norm(v, 4) ** 4
        assert_allclose(lhs, -k * A**2 * grid2pi.L, rtol=1e-12)
        assert m1_identity_check(v, alpha) < 1e-11 * max(abs(lhs), 1.0)

    def test_zero_field(self, grid2pi):
        z = Field(grid2pi, np.zeros(grid2pi.N))
        assert m1_identity_check(z, 2 * np.pi / grid2pi.L) == 0.0

    def test_random_fields_all_lattice_alphas(self, grid2pi, rng):
        from dnlslab import momentum_v
        for _ in range(20):
            v = random_band_field(grid2pi, rng, band=16)
            lhs = momentum_v(v) + 0.25 * lp_norm(v, 4) ** 4
            for j in (1, 2, 3):
                alpha = 2 * np.pi * j / grid2pi.L
                assert m1_identity_check(v, alpha) < 1e-11 * max(abs(lhs), 1.0)

    def test_stack_gives_each_row_its_own_gap(self, grid2pi, rng):
        rows = [random_band_field(grid2pi, rng, band=16).values for _ in range(3)]
        rows.append(np.zeros(grid2pi.N))
        for j in (1, -2):
            alpha = 2 * np.pi * j / grid2pi.L
            got = m1_identity_check(Field(grid2pi, np.stack(rows)), alpha)
            assert got == [m1_identity_check(Field(grid2pi, row), alpha)
                           for row in rows]
            assert got[-1] == 0.0

    def test_rejects_zero_or_off_lattice_alpha(self, grid2pi):
        v = plane_wave(grid2pi)
        with pytest.raises(ValueError):
            m1_identity_check(v, 0.0)
        with pytest.raises(ValueError):
            m1_identity_check(v, 0.37)

    def test_modulate_off_lattice_rejected(self, grid2pi):
        with pytest.raises(ValueError):
            modulate(plane_wave(grid2pi), 0.5)


def gauged_plane_wave_trajectory(grid, A, m, beta, times):
    k = 2 * np.pi * m / grid.L
    omega2 = k**2 - (1 - 2 * beta) * k * A**2
    values = [A * np.exp(1j * (k * grid.x - omega2 * t)) for t in times]
    return Trajectory(grid, times, values)


class TestCaseReport:
    def test_plane_wave_constant_in_time(self, grid2pi):
        A = 0.8  # mass below threshold on this grid
        traj = gauged_plane_wave_trajectory(grid2pi, A, 1, 0.75,
                                            tuple(0.1 * i for i in range(6)))
        rep0 = conserved_report(traj.frames[0][1])
        records = case_report(traj, 1.0, rep0)
        f0 = records[0].sample.f
        for rec in records:
            assert rec.sample.case_tag == records[0].sample.case_tag
            assert abs(rec.sample.f - f0) <= 1e-10 * f0
            assert not rec.violations

    def test_case1_uses_unit_lattice_alpha(self, grid2pi):
        # large mass pushes gamma strongly negative on this (L, delta)
        A = 1.6
        traj = gauged_plane_wave_trajectory(grid2pi, A, 1, 0.75, (0.0, 0.1))
        rep0 = conserved_report(traj.frames[0][1])
        records = case_report(traj, 1.0, rep0)
        for rec in records:
            assert rec.sample.case_tag == "case1"
            assert rec.sample.alpha == 2 * np.pi / grid2pi.L

    def test_case2_reachable_and_clean(self, grid2pi):
        # moderate constant-modulus mass with delta = 1 lands in case 2
        M = 0.5 * mass_threshold(grid2pi.L, 1.0)
        A = np.sqrt(M / grid2pi.L)
        traj = gauged_plane_wave_trajectory(grid2pi, A, 1, 0.75, (0.0, 0.1, 0.2))
        rep0 = conserved_report(traj.frames[0][1])
        records = case_report(traj, 1.0, rep0)
        for rec in records:
            assert rec.sample.case_tag == "case2"
            j = rec.sample.alpha * grid2pi.L / (2 * np.pi)
            assert abs(j - round(j)) < 1e-9 and round(j) >= 1
            assert not rec.violations
            assert rec.below_threshold and rec.defect < 0

    def test_below_threshold_random_data_no_violations(self, grid2pi, rng):
        from dnlslab import DataSpec, SimConfig, build, gauge_profile, simulate
        from dnlslab.gn import mass_threshold as th
        target = 0.9 * th(grid2pi.L, 1.0)
        u0 = build(DataSpec(kind="multimode", modes=(1, 2, -1),
                            amplitudes=(1.0, 0.4, 0.3), target_mass=target,
                            seed=5), grid2pi)
        v0 = gauge_profile(u0, 0.75)
        traj = simulate(v0, SimConfig(dt=2e-4, T=0.1, record_stride=50,
                                      equation="dnls2", beta=0.75))
        rep0 = conserved_report(traj.frames[0][1])
        records = case_report(traj, 1.0, rep0)
        assert all(not r.violations for r in records)
        assert all(r.below_threshold for r in records)

    def test_degenerate_zero_frame(self, grid2pi):
        z = Field(grid2pi, np.zeros(grid2pi.N))
        traj = Trajectory(grid2pi, [0.0, 0.1], [z.values] * 2)
        records = case_report(traj, 1.0, conserved_report(z))
        assert all(r.sample.case_tag == "degenerate" for r in records)
        assert all(not r.violations for r in records)

    def test_defect_negative_below_threshold(self, grid2pi, rng):
        # strict negativity across the admissible f range is what the
        # argument exploits; check it on sampled fields
        delta = 1.0
        for _ in range(10):
            v = random_band_field(grid2pi, rng, band=10)
            M = mass(v)
            if M >= mass_threshold(grid2pi.L, delta):
                continue
            traj = Trajectory(grid2pi, [0.0], [v.values])
            records = case_report(traj, delta, conserved_report(v))
            assert records[0].defect < 0


class TestEachFactorIsOnePatchPoint:
    """A mutant of one factor of the bound chain is one patch, and it moves
    each quantity the factor enters and no other."""

    @staticmethod
    def readings(v, traj):
        """The quantities a factor can enter: the threshold, the periodic
        audit rhs and a proof sample's terms on v, and the case bound and
        defect of a case-1 frame of traj."""
        sample = proof_sample(v, 1.0, ecal(v))
        norms = FieldNorms(*field_norms(v)[0].tolist())
        record = case_report(traj, 1.0, conserved_report(traj.frames[0][1]))[0]
        assert record.sample.case_tag == "case1"
        return {"threshold": mass_threshold(1.0, 0.1),
                "audit_rhs": next(audit_sweep(v.grid.L, [norms], [0.1]))[3],
                "gamma": sample.gamma, "eta": sample.eta,
                "lower_bound_f": sample.lower_bound_f,
                "case_rhs": record.case_rhs, "defect": record.defect}

    @pytest.fixture
    def moved(self, grid2pi, rng):
        """The names of the readings that a patch made in its body moves."""
        v = random_band_field(grid2pi, rng, band=10)
        traj = gauged_plane_wave_trajectory(grid2pi, 1.6, 1, 0.75, (0.0, 0.1))
        before = self.readings(v, traj)
        assert before["lower_bound_f"] is not None

        def moved():
            after = self.readings(v, traj)
            return {name for name in before if after[name] != before[name]}
        return moved

    def test_shape_factor(self, moved, monkeypatch):
        shape_factor = gn.shape_factor
        monkeypatch.setattr(gn, "shape_factor",
                            lambda L, delta: shape_factor(L, delta) * (1 + 1e-3))
        assert moved() == {"threshold", "audit_rhs", "eta", "lower_bound_f", "defect"}

    def test_flap_scale(self, moved, monkeypatch):
        flap_scale = gn.flap_scale
        monkeypatch.setattr(gn, "flap_scale",
                            lambda L, delta: flap_scale(L, delta) * (1 + 1e-3))
        assert moved() == {"audit_rhs", "gamma", "lower_bound_f"}

    def test_case1_alpha(self, moved, monkeypatch):
        case_alpha = diagnostics._case_alpha

        def mutant(excess, *args):
            alpha = case_alpha(excess, *args)
            return alpha * (1 + 1e-3) if excess <= 0 else alpha
        monkeypatch.setattr(diagnostics, "_case_alpha", mutant)
        assert moved() == {"case_rhs"}
