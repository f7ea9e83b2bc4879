"""Stacked (n, N) analysis against per-row Field calls, bit for bit, and the
chunk rule that keeps it so."""

import json
import os
import warnings
from dataclasses import fields, is_dataclass, replace

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from dnlslab import (ConservedReport, DiagnosticsSample, Field, Spectrum,
                     TorusGrid, Trajectory, ZeroFieldError, case_report,
                     conserved_report, gauge_profile, gauge_trajectory, mu,
                     lp_norm, proof_sample, simulate, translate)
from dnlslab import harness
from dnlslab.config import GnAuditBlock, load_config
from dnlslab.diagnostics import _case_alpha
from dnlslab.functionals import _moments, h1dot_sq
from dnlslab.gn import (CGN_POW_M18, CGN_POW_M92, FieldNorms, field_norms,
                        mass_threshold)
from dnlslab.grid import ELIDE_BYTES
from dnlslab.harness import audit_coefficients
from dnlslab.initial_data import build

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))


def config_path(name):
    return os.path.join(ROOT, "configs", name)


def same(a, b):
    """Equal under == on every field of two records, dataclasses or
    NamedTuples; NaN matches NaN."""
    assert type(a) is type(b)
    names = a._fields if isinstance(a, tuple) else [f.name for f in fields(a)]
    for name in names:
        x, y = getattr(a, name), getattr(b, name)
        assert x == y or (x != x and y != y), (name, x, y)


# The one-field arithmetic before the functions took stacks, frozen: a row of
# a stack, and a Field of one row, must give these bits, not only agree with
# each other (an array power, say, would change both the same way).


def frozen_lp(f, p):
    g = f.grid
    total = np.sum(np.abs(g.refine2(f.values)) ** p) * (g.L / (2 * g.N))
    return float(total ** (1.0 / p))


def frozen_parts(f):
    """mass, Im int f conj(f_x), int |f_x|^2, the standard cubic term."""
    g = f.grid
    df = np.fft.ifft(g._ik * np.fft.fft(f.values))
    v2, dv2 = g.refine2(f.values), g.refine2(df)
    cubic = np.abs(v2) ** 2 * v2 * np.conj(dv2)
    return (float(np.sum(np.abs(f.values) ** 2) * g.dx),
            float(np.sum((f.values * np.conj(df)).imag) * g.dx),
            float(np.sum(np.abs(df) ** 2) * g.dx),
            float(np.sum(cubic.imag) * (g.L / (2 * g.N))))


def frozen_report(f, t):
    M, im, h1, cubic = frozen_parts(f)
    l4, l6, m = frozen_lp(f, 4), frozen_lp(f, 6), M / f.grid.L
    return ConservedReport(float(t), M, im + 0.5 * l4 ** 4,
                           h1 + 1.5 * cubic + 0.5 * l6 ** 6, im - 0.25 * l4 ** 4,
                           m, h1 - l6 ** 6 / 16.0 + 0.375 * m * l4 ** 4)


def frozen_norms(f):
    return FieldNorms(frozen_lp(f, 4), frozen_lp(f, 6), frozen_parts(f)[2],
                      float(np.abs(f.values).min()))


def frozen_sample(v, delta, ecal_val, t):
    L = v.grid.L
    M, _, h1, _ = frozen_parts(v)
    l6, l4, mu_val = frozen_lp(v, 6), frozen_lp(v, 4), M / L
    f = l4 ** 4 / l6 ** 3
    gamma = (2.0 / (delta * np.sqrt(L)) - 0.375 * mu_val * l4 ** 2) * l4 ** 2 / l6 ** 6
    shape = 1.0 + 2.0 * delta / (5.0 * L)
    eta = 1.0 / 16.0 - shape ** -4 * CGN_POW_M18 / f ** 4
    base = 1.0 + 16.0 * ecal_val / l6 ** 6 + 16.0 * gamma
    lower = 2.0 * CGN_POW_M92 / shape * base ** -0.25 if base > 0 else None
    return DiagnosticsSample(float(t), l4, l6, float(np.sqrt(h1)), f, gamma, eta,
                             lower, float(np.sqrt(M)), None,
                             "case1" if eta + gamma <= 0 else "case2")


def frozen_gauged(u, beta, s):
    """gauge_profile, then translate by s unless s is 0."""
    g = u.grid
    mult = np.zeros(g.N, dtype=np.complex128)
    mult[1:] = 1.0 / (1j * g.k[1:])
    I = np.fft.ifft(np.fft.fft(np.abs(u.values) ** 2) * mult).real
    w = np.exp(-1j * beta * I) * u.values
    return np.fft.ifft(np.fft.fft(w) * np.exp(-1j * g.k * s)) if s != 0.0 else w


def stacks(traj):
    """(times, Field) per chunk of traj."""
    return [(traj.times[rows], f) for rows, f in traj.chunks]


def rows_of(traj):
    """(t, Field) per frame of traj, each Field one row."""
    return [(t, Field(traj.grid, row))
            for t, row in zip(traj.times.tolist(), traj.values)]


def chunked_norms(grid, values, periods):
    """field_norms of a stack of samples on the grid of each period, in the
    chunks of grid.row_chunks, as run_gn_audit takes them: shape
    (len(periods), 4, rows)."""
    grids = [TorusGrid(L, grid.N) for L in periods]
    return np.concatenate([field_norms(Field(grid, values[rows]), grids)
                           for rows in grid.row_chunks(len(values))], axis=-1)


@pytest.mark.parametrize("N", [32, 128])
def test_field_norms_of_a_stack_equal_each_row(N):
    with open(config_path("gn_audit.json")) as fh:
        doc = json.load(fh)["gn_audit"]
    corpus = audit_coefficients(GnAuditBlock(**{**doc, "N": N}))
    periods = doc["L_values"]
    grid = TorusGrid(periods[0], N)
    assert len(grid.row_chunks(len(corpus))) < len(corpus)
    stacked = chunked_norms(grid, Spectrum(grid, corpus).field().values, periods)
    for L, columns in zip(periods, stacked):
        rows = [FieldNorms(*row) for row in zip(*columns.tolist())]
        assert len(rows) == len(corpus)
        for norms, c in zip(rows, corpus):
            f = Spectrum(TorusGrid(L, N), c).field()
            same(norms, FieldNorms(*field_norms(f)[0].tolist()))
            same(norms, frozen_norms(f))


# periods of every size, with 1e-300, where k^2 overflows, and 1e308, where
# the quadrature weight makes the power sums overflow
PERIODS = st.lists(st.sampled_from([1e-300, 0.5, 1.0, 2 * np.pi, 10.0, 1e308])
                   | st.floats(1e-3, 1e3), min_size=1, max_size=4)


def bits(values):
    return [(type(x), repr(x)) for x in values]


@settings(max_examples=60, deadline=None, derandomize=True)
@given(n=st.integers(1, 70), zero=st.integers(0, 69),
       seed=st.integers(0, 2 ** 32 - 1), periods=PERIODS)
@example(n=70, zero=69, seed=0, periods=[1e-300, 1.0, 1e308])
def test_field_norms_equal_the_norms_on_each_period(n, zero, seed, periods):
    """Each row's norms on each period, computed once for all periods, are
    those of its samples on TorusGrid(L, N): lp_norm at p = 4 and 6,
    h1dot_sq and min |f|, bit for bit. Up to 70 rows cross the 63-row chunk
    at N = 128; one row is the zero row."""
    N = 128
    rng = np.random.default_rng(seed)
    modes = np.arange(-(N // 4), N // 4 + 1)
    draws = rng.standard_normal((n, len(modes))) + 1j * rng.standard_normal((n, len(modes)))
    c = np.zeros((n, N), dtype=np.complex128)
    c[:, modes % N] = (10.0 ** rng.uniform(-1.0, 1.0, (n, 1)) * draws
                       * np.exp(-np.abs(modes) / (N / 12)))
    c[zero % n] = 0.0
    grid = TorusGrid(periods[0], N)
    values = Spectrum(grid, c).field().values
    with np.errstate(all="ignore"):
        got = chunked_norms(grid, values, periods)
        for L, columns in zip(periods, got):
            grid_L = TorusGrid(L, N)
            for row, v in zip(zip(*columns.tolist()), values, strict=True):
                f = Field(grid_L, v)
                want = (lp_norm(f, 4), lp_norm(f, 6), h1dot_sq(f),
                        float(np.abs(v).min()))
                assert bits(row) == bits(want)


@pytest.fixture(scope="module")
def frames_traj():
    """The gauged trajectory of the diagnose config at N = 256, 301 frames:
    1,500 ungauged steps, every 5th recorded, then gauged at beta = 3/4."""
    cfg = load_config(config_path("diagnose.json"))
    grid = TorusGrid(cfg.grid.L, cfg.grid.N)
    u0 = build(cfg.data, grid)
    traj = simulate(u0, replace(cfg.sim, T=0.15, record_stride=5))
    assert traj.values.shape == (301, 256)
    return gauge_trajectory(traj, 0.75)


def assert_reports_equal_rows(traj):
    stacked = [r for t, f in stacks(traj) for r in conserved_report(f, t)]
    assert len(stacked) == len(traj.times)
    for report, (t, f) in zip(stacked, rows_of(traj)):
        same(report, conserved_report(f, t))
        same(report, frozen_report(f, t))
    return stacked


def assert_case_report_equals_rows(traj, delta=1.0):
    reports = assert_reports_equal_rows(traj)
    records = case_report(traj, delta, reports[0])
    assert len(records) == len(traj.times)
    for rec, (t, f) in zip(records, rows_of(traj)):
        # the record of one frame alone, moved to time t
        (alone,) = case_report(Trajectory(traj.grid, [0.0], f.values[None]),
                               delta, reports[0])
        same(rec.sample, replace(alone.sample, t=t))
        assert (rec.case_lhs, rec.case_rhs, rec.defect, rec.below_threshold,
                rec.violations) == (alone.case_lhs, alone.case_rhs, alone.defect,
                                    alone.below_threshold, alone.violations)
        if alone.sample.case_tag != "degenerate":
            same(rec.sample, replace(frozen_sample(f, delta, reports[0].Ecal, t),
                                     alpha=rec.sample.alpha))
    return records


def test_conserved_and_case_reports_of_chunks_equal_each_frame(frames_traj):
    assert len(frames_traj.chunks) > 1
    records = assert_case_report_equals_rows(frames_traj)
    assert {r.sample.case_tag for r in records} <= {"case1", "case2"}


def test_proof_sample_of_a_stack_equals_each_row(frames_traj):
    rows, stack = frames_traj.chunks[1]
    times = frames_traj.times[rows]
    samples = proof_sample(stack, 1.0, 0.5, times)
    assert len(samples) == len(times)
    for sample, t, row in zip(samples, times.tolist(), stack.values):
        f = Field(frames_traj.grid, row)
        same(sample, proof_sample(f, 1.0, 0.5, t))
        same(sample, frozen_sample(f, 1.0, 0.5, t))


def with_rows(traj, rows):
    """traj with the given frames (index -> samples) replaced."""
    values = traj.values.copy()
    for i, row in rows.items():
        values[i] = row
    return Trajectory(traj.grid, traj.times, values)


def test_a_chunk_with_a_zero_frame_equals_each_frame(frames_traj):
    traj = with_rows(frames_traj, {40: 0.0})
    records = assert_case_report_equals_rows(traj)
    assert records[40].sample.case_tag == "degenerate"
    assert records[41].sample.case_tag != "degenerate"


def test_a_chunk_with_an_underflowing_frame_raises_as_the_frame_does(frames_traj):
    tiny = 1e-300 * frames_traj.values[40]
    traj = with_rows(frames_traj, {40: tiny})
    assert_reports_equal_rows(traj)
    with pytest.raises(ZeroFieldError):
        proof_sample(Field(traj.grid, tiny), 1.0, 0.5)
    with pytest.raises(ZeroFieldError):
        case_report(traj, 1.0, conserved_report(Field(traj.grid, traj.values[0])))


def test_the_first_failing_frame_of_a_chunk_sets_the_error(frames_traj):
    # a frame whose L6 norm overflows (its f is 0, and eta divides by it)
    # before one whose L6 norm underflows, in the same chunk: case_report
    # raises what the first of them raises alone
    grid = frames_traj.grid
    huge, tiny = 1e60 * frames_traj.values[38], 1e-300 * frames_traj.values[40]
    traj = with_rows(frames_traj, {38: huge, 40: tiny})
    assert any(rows.start <= 38 and 40 < rows.stop for rows, _ in traj.chunks)
    c0 = conserved_report(Field(grid, traj.values[0]))
    with warnings.catch_warnings():
        warnings.simplefilter("ignore", RuntimeWarning)
        with pytest.raises(ZeroDivisionError):
            proof_sample(Field(grid, huge), 1.0, c0.Ecal)
        with pytest.raises(ZeroDivisionError):
            case_report(traj, 1.0, c0)


def same_bits(a, b):
    """Equal field by field and type for type, a float (Python or numpy)
    bit for bit through float.hex, and a record inside a record alike."""
    assert type(a) is type(b)
    for field in fields(a):
        x, y = getattr(a, field.name), getattr(b, field.name)
        assert type(x) is type(y), (field.name, type(x), type(y))
        if is_dataclass(x):
            same_bits(x, y)
        elif isinstance(x, float):
            assert float.hex(x) == float.hex(y), (field.name, x, y)
        else:
            assert x == y, (field.name, x, y)


def assert_bound_chain_is_the_public_path(traj, delta, reason):
    """harness._bound_chain's reports, records and flagged count against
    conserved_report per chunk, then case_report of the trajectory, each
    taking its own moment pass; returns the records."""
    reports, records, n_flagged, _ = harness._bound_chain(traj, delta, reason)
    want_reports = [r for t, f in stacks(traj) for r in conserved_report(f, t)]
    want_records = case_report(traj, delta, want_reports[0])
    assert len(reports) == len(want_reports) == len(traj.times)
    assert len(records) == len(want_records) == len(traj.times)
    for got, want in zip(reports + records, want_reports + want_records):
        same_bits(got, want)
    assert n_flagged == sum(r.flagged for r in want_records)
    return records


def test_bound_chain_shares_one_pass_with_the_public_bits(frames_traj):
    v = frames_traj.values
    traj = with_rows(frames_traj, {40: 0.0, 100: 2.0 * v[100], 200: 3.0 * v[200]})
    assert len(traj.chunks) >= 3
    records = assert_bound_chain_is_the_public_path(traj, 1.0, "ok")
    samples = [r.sample for r in records]
    assert samples[40].case_tag == "degenerate"
    assert samples[100].case_tag == samples[200].case_tag == "case1"
    assert samples[100].lower_bound_f is None
    assert samples[41].case_tag == "case2"
    assert samples[41].lower_bound_f is not None
    # case 1 takes the Python float 2 pi/L, case 2 the lattice frequency of
    # _case_alpha, a numpy scalar
    assert type(samples[100].alpha) is float
    assert type(samples[41].alpha) is np.float64
    M0 = conserved_report(Field(traj.grid, traj.values[0])).M
    s = samples[41]
    assert float.hex(s.alpha) == float.hex(
        _case_alpha(s.eta + s.gamma, s.l6, M0, traj.grid.L))
    # a pass per chunk of the trajectory, or none
    moments = [_moments(f) for _, f in traj.chunks]
    with pytest.raises(ValueError):
        case_report(traj, 1.0, conserved_report(Field(traj.grid, traj.values[0])),
                    moments=moments[:-1])


def test_chunks_are_built_once_per_trajectory(frames_traj):
    assert frames_traj.chunks is frames_traj.chunks


def test_bound_chain_builds_no_field(frames_traj, monkeypatch):
    # every stack it reads is a chunk the trajectory built already
    assert len(frames_traj.chunks) == 10
    built = []
    init = Field.__init__
    monkeypatch.setattr(Field, "__init__",
                        lambda self, *args: built.append(args) or init(self, *args))
    harness._bound_chain(frames_traj, 1.0, "ok")
    assert built == []


def test_bound_chain_of_a_guard_stopped_trajectory_has_the_public_bits():
    cfg = load_config(config_path("diagnose.json"))
    u0 = build(cfg.data, TorusGrid(cfg.grid.L, 64))
    traj, reason, hit = harness._simulate_partial(
        u0, replace(cfg.sim, T=0.3, record_stride=2, guard_factor=1.05))
    assert reason == "blowup-guard" and hit < 0.3
    vtraj = gauge_trajectory(traj, 0.75)
    assert len(vtraj.chunks) >= 3
    assert_bound_chain_is_the_public_path(vtraj, cfg.delta, reason)
    assert harness._bound_chain(vtraj, cfg.delta, reason)[3] == "blowup-guard"


@pytest.mark.parametrize("beta", [0.75, 0.5])
def test_gauge_trajectory_of_chunks_equals_each_frame(frames_traj, beta):
    traj = frames_traj
    got = gauge_trajectory(traj, beta)
    mu0 = mu(Field(traj.grid, traj.values[0]))
    for (t, u), row in zip(rows_of(traj), got.values):
        w = gauge_profile(u, beta)
        s = 2.0 * beta * mu0 * t
        want = (translate(w, s) if s != 0.0 else w).values
        assert np.array_equal(row, want)
        assert np.array_equal(row, frozen_gauged(u, beta, s))


def test_row_chunks_cover_the_rows_in_order_under_the_elision_size():
    for N in range(8, 4097, 2):
        grid = TorusGrid(1.0, N)
        row_bytes = 2 * N * 16  # one complex row of the 2x padded grid
        for n in (1, 301):
            chunks = grid.row_chunks(n)
            covered = [i for rows in chunks for i in range(rows.start, rows.stop)]
            assert covered == list(range(n))
            sizes = [rows.stop - rows.start for rows in chunks]
            assert all(size * row_bytes < ELIDE_BYTES for size in sizes)
            # as few chunks as the rule allows
            assert all((size + 1) * row_bytes >= ELIDE_BYTES for size in sizes[:-1])
        assert grid.row_chunks(0) == []


def count_transforms(monkeypatch):
    """Wrap np.fft.fft and ifft; return the list each call appends to."""
    calls = []
    for name in ("fft", "ifft"):
        transform = getattr(np.fft, name)
        monkeypatch.setattr(np.fft, name, lambda *a, transform=transform, **kw:
                            calls.append(transform) or transform(*a, **kw))
    return calls


def test_gn_audit_transforms_per_chunk_not_per_field(monkeypatch):
    calls = count_transforms(monkeypatch)
    block = GnAuditBlock(num_fields=300, L_values=(1.0, 2.0), delta_values=(0.5,),
                         N=32)
    chunks = len(TorusGrid(1.0, 32).row_chunks(301))
    assert chunks == 2
    outcome = harness.run_gn_audit(block)
    assert outcome.summary["rows"] == 2 * 301
    # per chunk, for all periods: one inverse transform of the corpus, one
    # forward transform of the samples, and the inverse one of its pad,
    # which the L4 and L6 sums share; per chunk and period, the inverse
    # transform of that spectrum's derivative
    assert len(calls) == (3 + len(block.L_values)) * chunks


def count_bound_chain(monkeypatch):
    """Wrap harness._bound_chain; return the list that each call appends its
    (transforms, pads) to."""
    calls = count_transforms(monkeypatch)
    pads = []
    pad2 = TorusGrid.pad2
    monkeypatch.setattr(TorusGrid, "pad2", lambda self, F:
                        pads.append(F) or pad2(self, F))
    in_analysis = []
    bound_chain = harness._bound_chain

    def counted(*args):
        before = len(calls), len(pads)
        result = bound_chain(*args)
        in_analysis.append((len(calls) - before[0], len(pads) - before[1]))
        return result

    monkeypatch.setattr(harness, "_bound_chain", counted)
    return in_analysis


# per chunk, one full moment pass, which the conserved reports and the case
# records share: the forward transform of the values, the derivative's
# inverse, the values' pad of that spectrum (one inverse), and the
# derivative's pad (a forward and an inverse)
PASS_TRANSFORMS, PASS_PADS = 5, 2


def test_diagnose_analysis_transforms_per_chunk_not_per_frame(monkeypatch):
    in_analysis = count_bound_chain(monkeypatch)
    cfg = load_config(config_path("diagnose.json"))
    cfg = replace(cfg, grid=replace(cfg.grid, N=64),
                  sim=replace(cfg.sim, T=0.03, record_stride=1))
    outcome = harness.run_diagnose(cfg)
    assert outcome.exit_code == 0
    frames = len(outcome.tables["diagnostics.csv"][1])
    chunks = len(TorusGrid(1.0, 64).row_chunks(frames))
    assert (frames, chunks) == (301, 3)
    assert in_analysis == [(PASS_TRANSFORMS * chunks, PASS_PADS * chunks)]


def test_scan_group_analysis_transforms_per_chunk_not_per_frame(monkeypatch):
    cfg = load_config(config_path("threshold_scan.json"))
    cfg = replace(cfg, sim=replace(cfg.sim, T=0.03))
    pair = cfg.threshold_scan.pairs[0]
    grid = TorusGrid(pair.L, pair.N)
    threshold = mass_threshold(pair.L, pair.delta)
    members = [(pair, frac, gauge_profile(
                    build(replace(cfg.data, target_mass=frac * threshold), grid), 0.75))
               for frac in cfg.threshold_scan.mass_fractions[:2]]
    in_analysis = count_bound_chain(monkeypatch)
    results = harness.run_scan_group(cfg, members)
    assert [row[-1] for row, _ in results] == ["ok", "ok"]
    frames = len(results[0][1][1])
    chunks = len(grid.row_chunks(frames))
    assert (frames, chunks) == (151, 3)
    assert in_analysis == [(PASS_TRANSFORMS * chunks, PASS_PADS * chunks)] * 2
