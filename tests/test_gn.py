"""Sharp constant, flap integrals, inequality audits, and the mass threshold."""

import math
from collections import Counter

import mpmath as mp
import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from numpy.testing import assert_allclose
from scipy.integrate import quad
from scipy.optimize import minimize

from dnlslab import Field, TorusGrid, lp_norm, mass_threshold
from dnlslab.config import GnAuditBlock
from dnlslab.functionals import h1dot_sq
from dnlslab.gn import (CGN, CGN_POW_M18, CGN_POW_M92, FieldNorms, audit_sweep,
                        field_norms)
from dnlslab.grid import Spectrum
from dnlslab import harness
from dnlslab.harness import GN_AUDIT_COLUMNS, audit_coefficients, run_gn_audit
from dnlslab.runio import write_csv

from conftest import plane_wave, random_band_field, write_reference_csv


def row_norms(f):
    """The FieldNorms of one row f on its own period."""
    return FieldNorms(*field_norms(f)[0].tolist())


# the periodic inequality, the line inequality and the flaps of an
# audit_sweep tuple, each (lhs, rhs, slack, satisfied) or
# (flap_l2grad, flap_l4, flap_l6)
PERIODIC, LINE, FLAPS = slice(2, 6), slice(6, 10), slice(10, 13)


def sweep_at(L, norms, delta, constant=CGN):
    """The audit_sweep tuple of one field of period L at one delta."""
    return next(audit_sweep(L, [norms], [delta], constant))


def sweep_field(f, delta, constant=CGN):
    """The audit_sweep tuple of f, on its own period, at one delta."""
    return sweep_at(f.grid.L, row_norms(f), delta, constant)


def sweep_flaps(f0_abs, delta):
    """The flaps of audit_sweep at base value f0_abs and width delta, which
    depend on these two alone: the other norms are 0."""
    return sweep_at(1.0, FieldNorms(0.0, 0.0, 0.0, f0_abs), delta)[FLAPS]


class TestSharpConstant:
    def test_value_against_extended_precision(self):
        mp.mp.dps = 50
        want = float(mp.power(3, mp.mpf(1) / 6) * mp.power(2 * mp.pi, mp.mpf(-1) / 9))
        assert abs(CGN - want) < 1e-15
        assert abs(CGN - 0.9791) < 1e-4

    def test_derived_powers_consistent(self):
        assert abs(CGN_POW_M92 - CGN ** -4.5) <= 1e-14 * CGN_POW_M92
        assert abs(CGN_POW_M18 - CGN ** -18) <= 1e-14 * CGN_POW_M18

    def test_below_one(self):
        assert CGN < 1.0

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

    # at a NaN threshold no mass is below it, so a member would never gate;
    # at an infinite delta the threshold would read 0
    @pytest.mark.parametrize("L,d", [(-1.0, 0.1), (0.0, 0.1), (1.0, -0.5),
                                     (1.0, math.nan), (1.0, math.inf)])
    def test_rejects_bad_arguments(self, L, d):
        with pytest.raises(ValueError):
            mass_threshold(L, d)


class TestBaseShift:
    """The base value f0_abs of the flap extension: |f| at its minimum node,
    which is at most L^(-1/4) ||f||_L4."""

    def test_constant_modulus_saturation(self, grid2pi):
        f = plane_wave(grid2pi, A=1.3, m=2)
        f0 = row_norms(f).f0_abs
        bound = grid2pi.L ** -0.25 * lp_norm(f, 4)
        assert f0 <= bound * (1 + 1e-9)
        assert_allclose(f0, bound, rtol=1e-12)

    def test_cosine_base_at_zero_crossing(self, grid2pi):
        f = Field(grid2pi, np.cos(grid2pi.x))
        assert row_norms(f).f0_abs < 1e-12

    def test_zero_field(self, grid2pi):
        z = Field(grid2pi, np.zeros(grid2pi.N))
        assert row_norms(z).f0_abs == 0.0

    def test_bound_on_random_fields(self, grid2pi, rng):
        for _ in range(25):
            f = random_band_field(grid2pi, rng, band=16)
            bound = grid2pi.L ** -0.25 * lp_norm(f, 4)
            assert row_norms(f).f0_abs <= bound * (1 + 1e-9)


class TestSweepFlaps:
    def test_unit_values(self):
        assert_allclose(sweep_flaps(1.0, 1.0), (2.0, 2 / 5, 2 / 7), rtol=1e-15)

    def test_zero_boundary_value(self):
        assert sweep_flaps(0.0, 2.0) == (0.0, 0.0, 0.0)

    @pytest.mark.parametrize("f0,delta", [(0.7, 0.3), (1.9, 2.5)])
    def test_against_adaptive_quadrature(self, f0, delta):
        # both flaps are |f0| t/delta ramps; quadrature of the exact profile
        ramp = lambda t, p: (f0 * t / delta) ** p
        l4, _ = quad(ramp, 0, delta, args=(4,))
        l6, _ = quad(ramp, 0, delta, args=(6,))
        grad, _ = quad(lambda t: (f0 / delta) ** 2, 0, delta)
        flap_l2grad, flap_l4, flap_l6 = sweep_flaps(f0, delta)
        assert_allclose(flap_l4, 2 * l4, rtol=1e-10)
        assert_allclose(flap_l6, 2 * l6, rtol=1e-10)
        assert_allclose(flap_l2grad, 2 * grad, rtol=1e-10)


class TestSweepPeriodic:
    def test_zero_field(self, grid2pi):
        zero = Field(grid2pi, np.zeros(grid2pi.N))
        lhs, rhs, _, satisfied = sweep_field(zero, 1.0)[PERIODIC]
        assert lhs == rhs == 0.0 and satisfied

    def test_constant_field_closed_forms(self):
        grid = TorusGrid(2 * np.pi, 64)
        f = Field(grid, np.ones(64, dtype=complex))
        lhs, rhs, _, satisfied = sweep_field(f, 1.0)[PERIODIC]
        L = 2 * np.pi
        assert_allclose(lhs, L ** (1 / 6), rtol=1e-13)
        want_rhs = (CGN * (1 + 1 / (5 * np.pi)) ** (2 / 9)
                    * 2 ** (1 / 18) * L ** (2 / 9))
        assert_allclose(rhs, want_rhs, rtol=1e-13)
        assert satisfied

    def test_random_corpus_zero_violations(self, rng):
        for L in (0.5, 2 * np.pi, 10.0):
            grid = TorusGrid(L, 64)
            for _ in range(20):
                f = random_band_field(grid, rng, band=16,
                                      scale=10 ** rng.uniform(-1, 1))
                for delta in (0.1, 1.0, 10.0):
                    assert sweep_field(f, delta)[PERIODIC][3]


class TestSweepLine:
    def test_zero_field(self, grid2pi):
        zero = Field(grid2pi, np.zeros(grid2pi.N))
        assert sweep_field(zero, 1.0)[LINE][3]

    def test_constant_field_assembly(self):
        grid = TorusGrid(2 * np.pi, 64)
        f = Field(grid, np.ones(64, dtype=complex))
        delta = 1.0
        got_lhs, got_rhs, _, satisfied = sweep_field(f, delta)[LINE]
        L = 2 * np.pi
        # flap-only gradient, torus-plus-flap L^p integrals
        lhs = (L + 2 * delta / 7) ** (1 / 6)
        rhs = CGN * (2 / delta) ** (1 / 18) * (L + 2 * delta / 5) ** (2 / 9)
        assert_allclose(got_lhs, lhs, rtol=1e-13)
        assert_allclose(got_rhs, rhs, rtol=1e-13)
        assert satisfied

    def test_extension_enlarges_l6(self, grid2pi, rng):
        f = random_band_field(grid2pi, rng, band=16)
        assert sweep_field(f, 0.5)[LINE][0] >= lp_norm(f, 6)

    def test_chain_and_satisfaction_on_corpus(self, rng):
        for L in (1.0, 2 * np.pi):
            grid = TorusGrid(L, 64)
            for _ in range(15):
                f = random_band_field(grid, rng, band=16,
                                      scale=10 ** rng.uniform(-1, 1))
                norms = row_norms(f)
                for delta in (0.1, 1.0, 10.0):
                    case = sweep_at(L, norms, delta)
                    _, line_rhs, _, line_satisfied = case[LINE]
                    _, rhs, _, satisfied = case[PERIODIC]
                    assert line_satisfied and satisfied
                    # the periodic rhs is an enlargement of the line rhs
                    assert line_rhs <= rhs * (1 + 1e-12)


class TestAscent:
    """The line quotient line_lhs/line_rhs of audit_sweep, ascended by scipy
    L-BFGS-B (finite-difference gradients) over the spectra of the band
    |m| <= N/3 at the shipped audit's N, from a fixed Gaussian spectrum:
    random fields reach about 0.88 of the sharp constant, an ascent comes
    within 1e-4 of it, so a constant wrong by 1e-4 is caught on the field it
    finds. Points where the ascent stops closer to the 0.9999 bound, such as
    (2 pi, 0.1), are left out."""

    N = 128
    MODES = np.arange(-(N // 3), N // 3 + 1)

    def field_of(self, x, grid):
        """The field whose coefficient of mode MODES[i] is x[i] + i x[n + i]."""
        c = np.zeros(self.N, dtype=complex)
        c[self.MODES % self.N] = x[:len(self.MODES)] + 1j * x[len(self.MODES):]
        return Field(grid, np.fft.ifft(c * self.N))

    def sweep(self, x, grid, delta, constant=CGN):
        return sweep_field(self.field_of(x, grid), delta, constant)

    @pytest.mark.parametrize("L, delta", [(1.0, 1.0), (0.5, 10.0)])
    def test_ascent_nears_the_sharp_constant_and_a_smaller_one_is_flagged(
            self, L, delta):
        grid = TorusGrid(L, self.N)
        start = np.concatenate([np.exp(-(self.MODES / 2.0) ** 2),
                                np.zeros(len(self.MODES))])

        def quotient(x):
            line_lhs, line_rhs, _, _ = self.sweep(x, grid, delta)[LINE]
            return line_lhs / line_rhs

        found = minimize(lambda x: -quotient(x), start, method="L-BFGS-B",
                         options={"maxiter": 300, "maxfun": 15000}).x
        assert 0.9999 < quotient(found) <= 1.0 + 1e-12
        assert self.sweep(found, grid, delta)[0]
        assert not self.sweep(found, grid, delta, 0.9999 * CGN)[0]


# The per-row formulas of the audit as they were before audit_sweep, frozen:
# the sweep must give these values and types bit for bit.
def frozen_flaps(f0_abs, delta):
    return (2.0 * f0_abs ** 2 / delta, 2.0 * delta * f0_abs ** 4 / 5.0,
            2.0 * delta * f0_abs ** 6 / 7.0)


def frozen_satisfied(lhs, rhs):
    return bool(rhs - lhs >= -1e-12 * rhs)


def frozen_gn1(L, norms, delta, constant=CGN):
    """(lhs, rhs, slack, satisfied) of the periodic inequality on period L."""
    bracket = norms.grad_sq + 2.0 / (delta * math.sqrt(L)) * norms.l4 ** 2
    rhs = (constant * (1.0 + 2.0 * delta / (5.0 * L)) ** (2.0 / 9.0)
           * bracket ** (1.0 / 18.0) * norms.l4 ** (8.0 / 9.0))
    return norms.l6, rhs, rhs - norms.l6, frozen_satisfied(norms.l6, rhs)


def frozen_gn0(norms, delta, constant=CGN):
    """(lhs, rhs, slack, satisfied) of the line inequality on the extension,
    and the flaps."""
    flaps = frozen_flaps(norms.f0_abs, delta)
    lhs = (norms.l6 ** 6 + flaps[2]) ** (1.0 / 6.0)
    rhs = (constant * (norms.grad_sq + flaps[0]) ** (1.0 / 18.0)
           * (norms.l4 ** 4 + flaps[1]) ** (2.0 / 9.0))
    return (lhs, rhs, rhs - lhs, frozen_satisfied(lhs, rhs)), flaps


def frozen_case(L, norms, delta, constant=CGN):
    """(ok, finite, periodic, line, flaps) of one field of period L at one
    delta, as run_gn_audit formed them from the two records."""
    periodic = frozen_gn1(L, norms, delta, constant)
    line, flaps = frozen_gn0(norms, delta, constant)
    ok = periodic[3] and line[3] and line[1] <= periodic[1] * (1.0 + 1e-12)
    finite = all(map(math.isfinite, (periodic[0], periodic[1], line[0], line[1])))
    return ok, finite, periodic, line, flaps


def flat(case):
    """A frozen_case as the one flat tuple audit_sweep yields."""
    ok, finite, periodic, line, flaps = case
    return (ok, finite, *periodic, *line, *flaps)


def frozen_rows(L, norms_of, deltas, constant):
    """The rows of one period of gn_audit.csv, and the violation and
    non-finite counts, row by row from frozen_case."""
    rows, n_violations, n_non_finite = [], 0, 0
    for field_id, norms in enumerate(norms_of):
        for delta in deltas:
            ok, finite, periodic, _, flaps = frozen_case(L, norms, delta, constant)
            if not finite:
                n_non_finite += 1
            elif not ok:
                n_violations += 1
            rows.append((field_id, L, delta, *periodic[:3], ok, *flaps))
    return rows, n_violations, n_non_finite


def bits(value):
    """value with each number replaced by (type, repr), recursively: equal
    bits of equal types compare equal, NaN and -0.0 included."""
    if isinstance(value, (tuple, list)):
        return [bits(v) for v in value]
    return type(value).__name__, repr(value)


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
    """gn_audit.csv rows, and the violation and non-finite counts, rebuilt
    field by field from the rotated field and the frozen formulas."""
    rows, n_violations, n_non_finite = [], 0, 0
    for L in block.L_values:
        grid = TorusGrid(L, block.N)
        norms_of = []
        with np.errstate(over="ignore", invalid="ignore"):
            for c in scalar_corpus(block):
                f = Spectrum(grid, c).field()
                f0 = float(np.abs(f.values[np.argmin(np.abs(f.values))]))
                norms_of.append(FieldNorms(lp_norm(f, 4), lp_norm(f, 6),
                                           h1dot_sq(f), f0))
        got = frozen_rows(L, norms_of, block.delta_values,
                          CGN * block.corrupt_constant)
        rows += got[0]
        n_violations += got[1]
        n_non_finite += got[2]
    return rows, n_violations, n_non_finite


def audit_bytes(tmp_path, outcome):
    """The bytes write_csv writes for the audit's table."""
    columns, lines = outcome.tables["gn_audit.csv"]
    write_csv(str(tmp_path / "gn_audit.csv"), columns, lines)
    return (tmp_path / "gn_audit.csv").read_bytes()


def reference_bytes(tmp_path, rows):
    """The bytes csv.writer writes for rows under the audit's header."""
    write_reference_csv(tmp_path / "reference.csv", GN_AUDIT_COLUMNS, rows)
    return (tmp_path / "reference.csv").read_bytes()


# periods with the overflowing 1e-300 and 1e308, and deltas, each list with
# repeats or not
AUDIT_PERIODS = st.lists(st.sampled_from([1e-300, 0.5, 1.0, 2 * np.pi, 10.0, 1e308]),
                         min_size=1, max_size=4)
AUDIT_DELTAS = st.lists(st.sampled_from([0.1, 1.0, 10.0]) | st.floats(1e-3, 1e3),
                        min_size=1, max_size=3)


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
            assert row_norms(f).f0_abs == float(np.abs(base))

    def test_rows_equal_reference(self, tmp_path):
        block = GnAuditBlock(num_fields=19, L_values=(1.0, 2 * np.pi),
                             delta_values=(0.1, 1.0), N=32)
        outcome = run_gn_audit(block)
        columns, lines = outcome.tables["gn_audit.csv"]
        assert columns == GN_AUDIT_COLUMNS
        # the table holds its text lines, no value tuples
        assert all(type(line) is str for line in lines)
        want, _, _ = reference_rows(block)
        assert len(lines) == len(want) == 20 * 2 * 2
        assert audit_bytes(tmp_path, outcome) == reference_bytes(tmp_path, want)
        assert outcome.exit_code == 0

    @pytest.mark.parametrize("L_values, corrupt, code", [
        ((0.5, 1.0, 2 * np.pi, 10.0), 1.0, 0),
        ((0.5, 1.0, 2 * np.pi, 10.0), 0.8934, 0),
        ((0.5, 1.0, 2 * np.pi, 10.0), 0.5, 4),
        ((1e-300, 1.0, 1e308), 1.0, 3),
    ])
    def test_table_and_counts_equal_reference_bit_for_bit(self, tmp_path, L_values,
                                                           corrupt, code):
        block = GnAuditBlock(num_fields=19, L_values=L_values, seed=11,
                             delta_values=(0.1, 1.0, 10.0), N=32,
                             corrupt_constant=corrupt)
        outcome = run_gn_audit(block)
        _, lines = outcome.tables["gn_audit.csv"]
        want, n_violations, n_non_finite = reference_rows(block)
        assert len(lines) == 20 * len(L_values) * 3
        assert audit_bytes(tmp_path, outcome) == reference_bytes(tmp_path, want)
        assert outcome.summary == {"rows": len(want), "violations": n_violations}
        assert outcome.exit_code == code
        assert (n_violations > 0) == (code == 4) and (n_non_finite > 0) == (code == 3)

    @settings(max_examples=60, deadline=None, derandomize=True)
    @given(num_fields=st.integers(1, 40), L_values=AUDIT_PERIODS,
           delta_values=AUDIT_DELTAS, corrupt=st.sampled_from([0.5, 0.8934, 1.0]),
           seed=st.integers(0, 2 ** 32 - 1))
    def test_file_equals_reference_property(self, tmp_path_factory, num_fields,
                                            L_values, delta_values, corrupt, seed):
        """Small audits, periods and deltas repeated or not: the written file
        is the csv.writer file of the frozen-formula rows, and the summary
        and exit code follow from their counts. A text of one period or
        delta reused for another (an lhs, a flap) shows here."""
        block = GnAuditBlock(num_fields=num_fields, L_values=tuple(L_values),
                             delta_values=tuple(delta_values), N=32, seed=seed,
                             corrupt_constant=corrupt)
        outcome = run_gn_audit(block)
        want, n_violations, n_non_finite = reference_rows(block)
        tmp = tmp_path_factory.mktemp("audit")
        assert audit_bytes(tmp, outcome) == reference_bytes(tmp, want)
        assert outcome.summary == {"rows": len(want), "violations": n_violations}
        assert outcome.exit_code == (3 if n_non_finite else 4 if n_violations else 0)

    def test_each_chunk_is_analysed_once_for_all_periods(self, monkeypatch):
        """Per chunk of the corpus, one field_norms call with its one pad,
        however many periods are audited; and one grid per period per run."""
        block = GnAuditBlock(num_fields=150, L_values=(0.5, 1.0, 10.0), N=128)
        chunks = TorusGrid(1.0, block.N).row_chunks(block.num_fields + 1)
        calls = Counter()

        def counted(name, fn):
            def call(*args):
                calls[name] += 1
                return fn(*args)
            return call

        monkeypatch.setattr(TorusGrid, "pad2", counted("pad2", TorusGrid.pad2))
        monkeypatch.setattr(TorusGrid, "__init__", counted("grid", TorusGrid.__init__))
        monkeypatch.setattr(harness, "field_norms",
                            counted("field_norms", harness.field_norms))
        run_gn_audit(block)
        assert len(chunks) == 3
        assert calls == {"pad2": len(chunks), "field_norms": len(chunks),
                         "grid": len(block.L_values)}

    def test_field_norms_takes_grids_of_its_own_n_only(self):
        f = Field(TorusGrid(1.0, 32), np.ones(32))
        with pytest.raises(ValueError, match="every grid must have N = 32"):
            field_norms(f, [TorusGrid(1.0, 32), TorusGrid(2.0, 64)])


def sweep_rows(L, norms_of, deltas, constant):
    """frozen_rows from audit_sweep, assembled as run_gn_audit does."""
    rows, n_violations, n_non_finite = [], 0, 0
    cases = [(i, d) for i in range(len(norms_of)) for d in deltas]
    for (field_id, delta), case in zip(
            cases, audit_sweep(L, norms_of, deltas, constant), strict=True):
        ok, finite, lhs, rhs, slack = case[:5]
        if not finite:
            n_non_finite += 1
        elif not ok:
            n_violations += 1
        rows.append((field_id, L, delta, lhs, rhs, slack, ok, *case[10:]))
    return rows, n_violations, n_non_finite


def audit_norms(block):
    """field_norms of the audit corpus of block on each of its periods, the
    zero field first."""
    corpus = audit_coefficients(block)
    f = Spectrum(TorusGrid(block.L_values[0], block.N), corpus).field()
    grids = [TorusGrid(L, block.N) for L in block.L_values]
    with np.errstate(over="ignore", invalid="ignore"):
        norms = field_norms(f, grids)
    return {L: [FieldNorms(*row) for row in zip(*columns.tolist())]
            for L, columns in zip(block.L_values, norms)}


# (period, norms) from real fields: the zero field, finite ones, and the
# inf/NaN norms of the periods 1e308 (l4, l6, grad_sq overflow) and 1e-300
# (grad_sq)
REAL_NORMS = [(L, n) for L, norms in audit_norms(GnAuditBlock(
    num_fields=3, N=32, L_values=(1e-300, 1.0, 2 * np.pi, 1e308))).items() for n in norms]
BIG_BASE = FieldNorms(1.0, 1.0, 1.0, 1e60)
BIG_L6 = FieldNorms(1.0, 1e60, 1.0, 1.0)
# norms of the period 1e-300
TINY_L = FieldNorms(1.0, 1.0, 1.0, 0.5)
SPECIAL = st.sampled_from([0.0, 5e-324, math.inf, math.nan])
# (period, norms), bounded so that no power of a norm overflows a Python
# float, and no delta*sqrt(L) underflows; TestAuditSweep covers those
# raising cases
NORMS = st.one_of(
    st.sampled_from(REAL_NORMS),
    st.tuples(st.floats(1e-100, 1e100) | st.sampled_from([1e-300, 1e308]),
              st.builds(FieldNorms, st.floats(0.0, 1e50) | SPECIAL,
                        st.floats(0.0, 1e50) | SPECIAL, st.floats(0.0, 1e300) | SPECIAL,
                        st.floats(0.0, 1e50) | SPECIAL)))
DELTAS = st.lists(st.floats(1e-100, 1e100) | st.sampled_from([0.1, 1.0, 10.0]),
                  min_size=1, max_size=3)
CONSTANTS = st.sampled_from([0.5, 0.8934, 1.0]).map(lambda c: CGN * c)


class TestAuditSweep:
    """audit_sweep against the frozen per-row formulas."""

    @settings(max_examples=300, deadline=None, derandomize=True)
    @given(norms_of=st.lists(NORMS, min_size=1, max_size=4), deltas=DELTAS,
           constant=CONSTANTS)
    def test_sweep_equals_frozen_formulas(self, norms_of, deltas, constant):
        # one sweep per period, as run_gn_audit takes them
        for L in dict.fromkeys(L for L, _ in norms_of):
            of_L = [norms for period, norms in norms_of if period == L]
            got = list(audit_sweep(L, of_L, deltas, constant))
            want = [flat(frozen_case(L, n, d, constant)) for n in of_L for d in deltas]
            assert bits(got) == bits(want)
            assert all(type(ok) is bool and type(finite) is bool
                       for ok, finite, *_ in got)
            assert bits(sweep_rows(L, of_L, deltas, constant)) == bits(
                frozen_rows(L, of_L, deltas, constant))

    @settings(max_examples=200, deadline=None, derandomize=True)
    @given(period_norms=NORMS, delta=DELTAS.map(lambda d: d[0]), constant=CONSTANTS)
    def test_single_delta_slices_equal_frozen_formulas(self, period_norms, delta,
                                                       constant):
        L, norms = period_norms
        case = sweep_at(L, norms, delta, constant)
        line, want_flaps = frozen_gn0(norms, delta, constant)
        assert bits(case[PERIODIC]) == bits(frozen_gn1(L, norms, delta, constant))
        assert bits(case[LINE]) == bits(line)
        assert bits(case[FLAPS]) == bits(want_flaps)
        assert bits(sweep_flaps(norms.f0_abs, delta)) == bits(frozen_flaps(norms.f0_abs, delta))

    def test_special_fields(self):
        """The zero field, a zero base value, and overflowing norms."""
        L, zero = REAL_NORMS[0]
        assert (zero.l4, zero.l6, zero.grad_sq, zero.f0_abs) == (0.0, 0.0, 0.0, 0.0)
        case = next(audit_sweep(L, [zero], [1.0]))
        assert case[0] is True and case[1] is True
        assert case[2:6] == (0.0, 0.0, 0.0, True) and case[10:] == (0.0, 0.0, 0.0)
        base0 = FieldNorms(1.0, 1.0, 1.0, 0.0)
        assert bits(next(audit_sweep(1.0, [base0], [0.1]))) == bits(
            flat(frozen_case(1.0, base0, 0.1)))
        norms = audit_norms(GnAuditBlock(num_fields=3, N=32, L_values=(1e308, 1e-300)))
        for L in (1e308, 1e-300):
            assert not any(finite for _, finite, *_ in audit_sweep(L, norms[L][1:], [1.0]))

    @pytest.mark.parametrize("sweep, frozen", [
        # f0_abs ** 6 overflows a Python float
        (lambda: sweep_flaps(1e60, 1.0), lambda: frozen_flaps(1e60, 1.0)),
        (lambda: sweep_at(1.0, BIG_BASE, 1.0), lambda: frozen_gn0(BIG_BASE, 1.0)),
        # ||f||_L6 ** 6 overflows
        (lambda: sweep_at(1.0, BIG_L6, 1.0), lambda: frozen_gn0(BIG_L6, 1.0)),
        # delta * sqrt(L) underflows to 0
        (lambda: sweep_at(1e-300, TINY_L, 1e-200),
         lambda: frozen_gn1(1e-300, TINY_L, 1e-200)),
        (lambda: list(audit_sweep(1e-300, [TINY_L], [1.0, 1e-200])),
         lambda: frozen_case(1e-300, TINY_L, 1e-200)),
    ])
    def test_sweep_raises_where_the_frozen_formulas_raise(self, sweep, frozen):
        with pytest.raises(ArithmeticError) as want:
            frozen()
        with pytest.raises(want.type):
            sweep()

    @pytest.mark.parametrize("norms, delta", [
        (FieldNorms(1.0, 1.0, 1.0, -0.5), 1.0),
        (FieldNorms(1.0, 1.0, 1.0, 1.0), math.nan),
    ])
    def test_sweep_takes_its_arguments_unchecked(self, norms, delta):
        # GnAuditBlock checks delta > 0, and field_norms gives f0_abs >= 0
        assert bits(sweep_at(1.0, norms, delta)) == bits(
            flat(frozen_case(1.0, norms, delta)))
