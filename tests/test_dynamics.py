"""Integrators, right-hand sides, guards, and the residual instrument."""

import math
import warnings
from types import SimpleNamespace

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from dnlslab import (BlowupGuardError, CflWarning, Field, NonFiniteError,
                     SimConfig, TorusGrid, Trajectory, dispersion_symbol,
                     gauge_profile, hamiltonian_u, mass, mu, pde_residual,
                     rhs_dnls1, rhs_dnls2, simulate)
from dnlslab import grid as grid_module
from dnlslab.config import RunConfig, ScanPair, ThresholdScanBlock
from dnlslab.dynamics import (_ifrk4_coeffs, _ifrk4_step, _make_nonlinear,
                              simulate_batch)
from dnlslab.harness import SCAN_COLUMNS, run_threshold_scan
from dnlslab.initial_data import DataSpec

from conftest import l2_dist, plane_wave, random_band_field


def exact_plane_wave(grid, A, m, t):
    k = 2 * np.pi * m / grid.L
    omega = k**2 - k * A**2
    return Field(grid, A * np.exp(1j * (k * grid.x - omega * t)))


def counted_transforms(monkeypatch) -> list:
    """The list that every numpy.fft.fft and ifft call appends to from now
    on: the package seam calls a replaced numpy.fft, so it counts them all."""
    calls = []
    for name in ("fft", "ifft"):
        transform = getattr(np.fft, name)
        monkeypatch.setattr(np.fft, name, lambda *a, transform=transform, **kw:
                            calls.append(transform) or transform(*a, **kw))
    return calls


class TestSimConfig:
    def test_rejects_dt_above_horizon(self):
        with pytest.raises(ValueError):
            SimConfig(dt=2.0, T=1.0)

    @pytest.mark.parametrize("kw", [
        dict(dt=-1e-3, T=1.0), dict(dt=1e-3, T=-1.0),
        dict(dt=1e-3, T=1.0, record_stride=0),
        dict(dt=1e-3, T=1.0, beta=math.nan),
        dict(dt=1e-3, T=1.0, integrator="euler"),
        dict(dt=1e-3, T=1.0, equation="kdv"),
        dict(dt=1e-3, T=1.0, guard_factor=0.0),
    ])
    def test_rejects_bad_fields(self, kw):
        with pytest.raises(ValueError):
            SimConfig(**kw)


class TestTrajectory:
    def test_requires_t0_zero_and_increasing(self, grid2pi):
        f = plane_wave(grid2pi).values
        with pytest.raises(ValueError):
            Trajectory(grid2pi, [0.1, 0.2], [f, f])
        with pytest.raises(ValueError):
            Trajectory(grid2pi, [0.0, 0.0], [f, f])

    def test_requires_one_finite_row_per_time(self, grid2pi):
        f = plane_wave(grid2pi).values
        nan, inf = f.copy(), f.copy()
        nan[3], inf[3] = math.nan, math.inf
        for times, values in (([], np.empty((0, grid2pi.N))),  # no frame
                              ([0.0, 1.0], [f]),               # one row, two times
                              ([0.0, 1.0], np.ones((2, 64))),  # another grid's N
                              ([0.0, 1.0], [f, nan]), ([0.0, 1.0], [f, inf])):
            with pytest.raises(ValueError):
                Trajectory(grid2pi, times, values)

    def test_stores_read_only_without_copy_and_frames_share_rows(self, grid2pi):
        values = np.stack([plane_wave(grid2pi).values] * 3)
        traj = Trajectory(grid2pi, np.array([0.0, 0.5, 1.0]), values)
        assert traj.values is values and not values.flags.writeable
        assert not traj.times.flags.writeable
        assert traj.frames is traj.frames
        for (t, f), want_t, row in zip(traj.frames, [0.0, 0.5, 1.0], values):
            assert type(t) is float and t == want_t
            assert np.shares_memory(f.values, row) and f.grid == grid2pi


class TestRhsDnls1:
    def test_plane_wave(self, grid2pi):
        A, m = 0.9, 2
        k = 2 * np.pi * m / grid2pi.L
        u = plane_wave(grid2pi, A=A, m=m)
        want = 1j * (k * A**2 - k**2) * u.values
        assert np.max(np.abs(rhs_dnls1(u).values - want)) < 1e-11

    def test_constant(self, grid2pi):
        u = Field(grid2pi, np.full(grid2pi.N, 0.7 + 0.1j))
        assert np.max(np.abs(rhs_dnls1(u).values)) < 1e-13

    def test_zero(self, grid2pi):
        u = Field(grid2pi, np.zeros(grid2pi.N))
        assert np.max(np.abs(rhs_dnls1(u).values)) == 0.0


class TestRhsDnls2:
    def test_gauged_plane_wave_is_exact(self, grid2pi):
        A, m, beta = 0.8, 2, 0.75
        k = 2 * np.pi * m / grid2pi.L
        v = plane_wave(grid2pi, A=A, m=m)
        omega2 = k**2 - (1 - 2 * beta) * k * A**2
        want = -1j * omega2 * v.values
        got = rhs_dnls2(v, beta, A**2).values
        assert np.max(np.abs(got - want)) < 1e-10

    def test_zero(self, grid2pi):
        v = Field(grid2pi, np.zeros(grid2pi.N))
        assert np.max(np.abs(rhs_dnls2(v, 0.75, 0.0).values)) == 0.0

    def test_rejects_negative_mu(self, grid2pi):
        with pytest.raises(ValueError) as err:
            rhs_dnls2(plane_wave(grid2pi), 0.75, -1.0)
        # the one check of a flow's arguments
        assert err.traceback[-1].name == "_rhs"

    @pytest.mark.parametrize("beta", [0.75, 0.5])
    def test_stack_equals_each_row_alone(self, grid2pi, rng, beta):
        rows = np.stack([random_band_field(grid2pi, rng, band=8, scale=0.5).values
                         for _ in range(3)])
        got = rhs_dnls2(Field(grid2pi, rows), beta, 0.4).values
        for row, values in zip(got, rows, strict=True):
            assert np.array_equal(row, rhs_dnls2(Field(grid2pi, values), beta, 0.4).values)

    def test_beta_zero_is_the_ungauged_rhs(self, grid2pi, rng):
        v = random_band_field(grid2pi, rng, band=8, scale=0.5)
        assert np.array_equal(rhs_dnls2(v, 0.0, mu(v)).values, rhs_dnls1(v).values)


class TestStep:
    """One step of the IFRK4 core (_ifrk4_step) and its use by simulate."""

    @staticmethod
    def ifrk4(f, dt, nl):
        coeffs = _ifrk4_coeffs(dispersion_symbol(f.grid), dt)
        return Field(f.grid, np.fft.ifft(_ifrk4_step(np.fft.fft(f.values), nl, coeffs)))

    def test_linear_only_is_exact_for_any_dt(self, grid2pi):
        f = plane_wave(grid2pi, A=1.0, m=3)
        k = 2 * np.pi * 3 / grid2pi.L
        out = self.ifrk4(f, 0.7, np.zeros_like)
        want = np.exp(-1j * k**2 * 0.7) * f.values
        assert np.max(np.abs(out.values - want)) < 1e-12

    def test_zero_field(self, grid2pi):
        z = Field(grid2pi, np.zeros(grid2pi.N))
        nl = _make_nonlinear(grid2pi, "dnls1", 0.0, 0.0)
        assert np.max(np.abs(self.ifrk4(z, 0.1, nl).values)) == 0.0

    def test_fourth_order_on_plane_wave(self):
        grid = TorusGrid(2 * np.pi, 64)
        A, m, T = 1.0, 1, 0.5
        u0 = exact_plane_wave(grid, A, m, 0.0)
        exact = exact_plane_wave(grid, A, m, T)
        errs = []
        for n in (50, 100):
            traj = simulate(u0, SimConfig(dt=T / n, T=T, record_stride=n))
            errs.append(l2_dist(traj.frames[-1][1], exact))
        ratio = errs[0] / errs[1]
        assert 16 * 0.8 < ratio < 16 * 1.2


class TestSimulate:
    def test_plane_wave_matches_exact_solution(self):
        grid = TorusGrid(2 * np.pi, 64)
        A, m, T = 1.0, 2, 0.25
        u0 = exact_plane_wave(grid, A, m, 0.0)
        traj = simulate(u0, SimConfig(dt=1e-3, T=T, record_stride=50))
        t_end, f_end = traj.frames[-1]
        assert t_end == pytest.approx(T)
        assert l2_dist(f_end, exact_plane_wave(grid, A, m, T)) < 1e-9

    def test_zero_data_stays_zero(self, grid2pi):
        z = Field(grid2pi, np.zeros(grid2pi.N))
        traj = simulate(z, SimConfig(dt=1e-2, T=0.1))
        for _, f in traj.frames:
            assert np.max(np.abs(f.values)) == 0.0

    def test_mass_conserved_on_random_data(self, grid2pi, rng):
        u0 = random_band_field(grid2pi, rng, band=8, scale=0.3)
        traj = simulate(u0, SimConfig(dt=5e-4, T=0.2, record_stride=40))
        m0 = mass(traj.frames[0][1])
        drift = max(abs(mass(f) - m0) for _, f in traj.frames) / m0
        assert drift < 1e-8

    def test_deterministic_and_frame_times(self, grid2pi, rng):
        u0 = random_band_field(grid2pi, rng, band=8, scale=0.3)
        cfg = SimConfig(dt=1e-3, T=0.05, record_stride=10)
        a = simulate(u0, cfg)
        b = simulate(u0, cfg)
        assert [t for t, _ in a.frames] == [0.0, 0.01, 0.02, 0.03, 0.04, 0.05]
        for (_, fa), (_, fb) in zip(a.frames, b.frames):
            assert np.array_equal(fa.values, fb.values)

    def test_final_frame_recorded_off_stride(self, grid2pi):
        u0 = plane_wave(grid2pi)
        traj = simulate(u0, SimConfig(dt=1e-3, T=0.025, record_stride=10))
        assert [t for t, _ in traj.frames] == pytest.approx([0.0, 0.01, 0.02, 0.025])

    def test_blowup_guard_reports_hit_time(self, grid2pi, rng):
        u0 = random_band_field(grid2pi, rng, band=8, scale=0.5)
        cfg = SimConfig(dt=1e-3, T=0.1, guard_factor=1e-6)
        with pytest.raises(BlowupGuardError) as info:
            simulate(u0, cfg)
        assert info.value.t == pytest.approx(1e-3)
        assert info.value.partial is not None
        assert info.value.h1dot > 0

    def test_nonfinite_on_wildly_unstable_step(self):
        grid = TorusGrid(2 * np.pi, 64)
        u0 = Field(grid, 30.0 * np.exp(1j * 20 * grid.x) + 10.0 * np.exp(-1j * 3 * grid.x))
        cfg = SimConfig(dt=0.5, T=5.0, guard_factor=1e30)
        with pytest.warns(CflWarning):
            with pytest.raises(NonFiniteError):
                simulate(u0, cfg)

    @pytest.mark.filterwarnings("ignore::dnlslab.CflWarning")
    @pytest.mark.filterwarnings("error::RuntimeWarning")
    @pytest.mark.parametrize("equation", ["dnls1", "dnls2"])
    def test_overflow_in_a_step_stops_with_no_numpy_warning(self, equation):
        # the first step overflows; the guard reports it, numpy does not
        u0 = plane_wave(TorusGrid(2 * np.pi, 64), A=1e30, m=2)
        with pytest.raises(NonFiniteError) as info:
            simulate(u0, SimConfig(dt=1e-3, T=0.01, equation=equation))
        assert info.value.t == 1e-3
        assert len(info.value.partial.times) == 1

    @pytest.mark.parametrize("run", [
        lambda u0, cfg: simulate(u0, cfg),
        lambda u0, cfg: simulate_batch([u0, u0], cfg)], ids=["simulate", "batch"])
    def test_cfl_warning(self, grid2pi, run):
        # attributed to the line that called simulate or simulate_batch
        u0 = plane_wave(grid2pi, A=2.0, m=1)
        with pytest.warns(CflWarning) as caught:
            run(u0, SimConfig(dt=0.05, T=0.1))
        assert {w.filename for w in caught} == {__file__}

    def test_etdrk4_plane_wave(self):
        grid = TorusGrid(2 * np.pi, 64)
        A, m, T = 1.0, 2, 0.25
        u0 = exact_plane_wave(grid, A, m, 0.0)
        traj = simulate(u0, SimConfig(dt=1e-3, T=T, record_stride=50,
                                      integrator="etdrk4"))
        assert l2_dist(traj.frames[-1][1], exact_plane_wave(grid, A, m, T)) < 1e-8

    def test_dealias_toggle_keeps_conservation(self, grid2pi, rng):
        u0 = random_band_field(grid2pi, rng, band=8, scale=0.3)
        traj = simulate(u0, SimConfig(dt=5e-4, T=0.1, record_stride=40))
        h0 = hamiltonian_u(traj.frames[0][1])
        drift = max(abs(hamiltonian_u(f) - h0) for _, f in traj.frames) / abs(h0)
        assert drift < 1e-8

    def test_dnls2_gauged_plane_wave(self, grid2pi):
        A, m, beta = 0.9, 1, 0.75
        k = 2 * np.pi * m / grid2pi.L
        v0 = plane_wave(grid2pi, A=A, m=m)
        T = 0.2
        traj = simulate(v0, SimConfig(dt=1e-3, T=T, record_stride=50,
                                      equation="dnls2", beta=beta))
        omega2 = k**2 - (1 - 2 * beta) * k * A**2
        want = A * np.exp(1j * (k * grid2pi.x - omega2 * T))
        assert np.max(np.abs(traj.frames[-1][1].values - want)) < 1e-9

    @pytest.mark.parametrize("integrator", ["ifrk4", "etdrk4"])
    @pytest.mark.parametrize("equation,beta,design", [
        ("dnls1", 0.75, 8), ("dnls2", 0.75, 8), ("dnls2", 0.5, 12)])
    def test_fft_calls_per_step(self, monkeypatch, integrator, equation, beta, design):
        # four kernel calls per step; at small N the number of transforms,
        # not their size, sets the cost. Exactly the design count: every
        # transform must reach numpy.fft through the package seam, so a
        # seam that bound numpy.fft.fft once would read 0 here
        grid = TorusGrid(2 * np.pi, 32)
        u0 = random_band_field(grid, np.random.default_rng(3), band=4, scale=0.3)
        calls = counted_transforms(monkeypatch)

        def count(n):
            calls.clear()
            simulate(u0, SimConfig(dt=1e-3, T=n * 1e-3, record_stride=n,
                                   integrator=integrator, equation=equation,
                                   beta=beta))
            return len(calls)

        # the set-up transform and the two recorded frames cancel
        assert (count(20) - count(10)) / 10 == design

    @pytest.mark.parametrize("integrator", ["ifrk4", "etdrk4"])
    @pytest.mark.parametrize("beta,design,apart", [(0.75, 8, 16), (0.5, 12, 20)])
    def test_fft_calls_per_step_of_both_flows_in_one_batch(
            self, monkeypatch, integrator, beta, design, apart):
        # gauge-check's dnls1 and dnls2 flows stepped as one batch share each
        # stage's inverse and forward transforms; apart, each makes its own
        grid = TorusGrid(2 * np.pi, 32)
        u0 = random_band_field(grid, np.random.default_rng(3), band=4, scale=0.3)
        calls = counted_transforms(monkeypatch)

        def count(n, batches):
            calls.clear()
            configs = [SimConfig(dt=1e-3, T=n * 1e-3, record_stride=n,
                                 integrator=integrator, equation=equation, beta=beta)
                       for equation in ("dnls1", "dnls2")]
            for batch in batches(configs):
                simulate_batch([u0] * len(batch), batch)
            return len(calls)

        for batches, want in ((lambda configs: [configs], design),
                              (lambda configs: [[c] for c in configs], apart)):
            assert (count(20, batches) - count(10, batches)) / 10 == want

    @pytest.mark.parametrize("integrator", ["ifrk4", "etdrk4"])
    @pytest.mark.parametrize("equation,beta,design", [
        ("dnls1", 0.75, 8), ("dnls2", 0.75, 8), ("dnls2", 0.5, 12)])
    def test_fft_calls_take_the_gufunc_unless_numpy_fft_is_replaced(
            self, monkeypatch, integrator, equation, beta, design):
        # the seam calls numpy's pocketfft gufuncs itself, and a replaced
        # numpy.fft.fft/ifft instead of them: every transform is counted on
        # exactly one of the two paths, the gufunc counter reading the design
        # count while numpy.fft is left alone
        grid = TorusGrid(2 * np.pi, 32)
        u0 = random_band_field(grid, np.random.default_rng(3), band=4, scale=0.3)
        gufunc_calls, numpy_calls = [], []

        def counted(owner, name, calls):
            transform = getattr(owner, name)
            return lambda *a, **kw: calls.append(name) or transform(*a, **kw)

        monkeypatch.setattr(grid_module, "_pocketfft", SimpleNamespace(
            **{name: counted(grid_module._pocketfft, name, gufunc_calls)
               for name in ("fft", "ifft")}))

        def count(n):
            gufunc_calls.clear()
            numpy_calls.clear()
            simulate(u0, SimConfig(dt=1e-3, T=n * 1e-3, record_stride=n,
                                   integrator=integrator, equation=equation,
                                   beta=beta))
            return len(gufunc_calls), len(numpy_calls)

        fast = [count(10), count(20)]
        assert (fast[1][0] - fast[0][0]) / 10 == design
        assert [calls for _, calls in fast] == [0, 0]
        for name in ("fft", "ifft"):
            monkeypatch.setattr(np.fft, name, counted(np.fft, name, numpy_calls))
        assert [count(10), count(20)] == [(0, calls) for calls, _ in fast]


def real_factor_buffers(nl):
    """The complex arrays that the kernel nl writes its real factors into:
    the bases of the real-part views among its bound arguments."""
    args = [a for arg in nl.args for a in (arg if isinstance(arg, tuple) else (arg,))]
    return [a.base for a in args if isinstance(a, np.ndarray)
            and a.dtype == np.float64 and a.base is not None
            and a.base.dtype == np.complex128]


def check_kernel_result_is_unchanged_by_its_next_call(grid, rng, equation, beta,
                                                      shape, mu_val):
    # the kernel writes its inverse transforms and its real factors into
    # arrays it owns; what it returns must not be one of them
    nl = _make_nonlinear(grid, equation, beta, mu_val, shape[:-1])
    F, G = (np.fft.fft(random_band_field(grid, rng, band=8, scale=0.3).values
                       * np.ones(shape)) for _ in range(2))
    first = nl(F)
    kept = first.copy()
    second = nl(G)
    assert np.array_equal(first, kept)
    assert not np.shares_memory(first, second)
    fresh = _make_nonlinear(grid, equation, beta, mu_val, shape[:-1])
    assert np.array_equal(nl(F), fresh(F)) and np.array_equal(second, fresh(G))
    # |u|^2 for dnls1; [beta*mu; 2(1-beta)]|v|^2, beta(1/2-beta)|v|^4 and psi
    # for dnls2: their imaginary parts stay +0.0, also after a NaN input, so
    # the next call is unchanged
    buffers = real_factor_buffers(nl)
    assert len(buffers) == (1 if equation == "dnls1" else 3)
    bad = F.copy()
    bad[..., 1] = np.nan
    with np.errstate(invalid="ignore"):
        assert np.isnan(nl(bad)).any()
    for buf in buffers:
        assert not buf.imag.any() and not np.signbit(buf.imag).any()
    assert np.array_equal(nl(G), second)


KERNEL_FLOWS = [("dnls1", 0.75), ("dnls2", 0.75), ("dnls2", 0.5)]


@pytest.mark.parametrize("equation,beta", KERNEL_FLOWS)
@pytest.mark.parametrize("B", [None, 3])
def test_kernel_result_is_unchanged_by_its_next_call(grid2pi, rng, equation, beta, B):
    shape = (grid2pi.N,) if B is None else (B, grid2pi.N)
    mu_val = 0.4 if B is None else np.full((B, 1), 0.4)
    check_kernel_result_is_unchanged_by_its_next_call(grid2pi, rng, equation, beta,
                                                      shape, mu_val)


@pytest.mark.parametrize("equation,beta", KERNEL_FLOWS)
def test_one_call_kernel_result_is_unchanged_by_its_next_call(grid2pi, rng,
                                                              equation, beta):
    # a stack that shares one scalar mu: the kernel of rhs_* and pde_residual,
    # with (N,) constants and buffers at the stack's shape
    check_kernel_result_is_unchanged_by_its_next_call(grid2pi, rng, equation, beta,
                                                      (3, grid2pi.N), 0.4)


class TestPdeResidual:
    def test_zero_trajectory(self, grid2pi):
        z = Field(grid2pi, np.zeros(grid2pi.N))
        traj = Trajectory(grid2pi, 0.1 * np.arange(5), [z.values] * 5)
        assert np.max(pde_residual(traj, "dnls1")) == 0.0

    def test_analytic_plane_wave_second_order(self):
        grid = TorusGrid(2 * np.pi, 64)
        A, m = 1.0, 2
        res = []
        for h in (0.02, 0.01):
            times = h * np.arange(9)
            traj = Trajectory(grid, times, [exact_plane_wave(grid, A, m, t).values
                                            for t in times])
            res.append(np.max(pde_residual(traj, "dnls1")))
        ratio = res[0] / res[1]
        assert 4 * 0.7 < ratio < 4 * 1.3

    def test_requires_three_frames(self, grid2pi):
        f = plane_wave(grid2pi)
        traj = Trajectory(grid2pi, [0.0, 0.1], [f.values] * 2)
        with pytest.raises(ValueError):
            pde_residual(traj, "dnls1")

    def test_dnls2_rejects_negative_mu(self, grid2pi):
        f = plane_wave(grid2pi)
        traj = Trajectory(grid2pi, [0.0, 0.1, 0.2], [f.values] * 3)
        with pytest.raises(ValueError) as err:
            pde_residual(traj, "dnls2", 0.75, -1.0)
        assert err.traceback[-1].name == "_rhs"

    def test_rejects_unknown_equation(self, grid2pi):
        f = plane_wave(grid2pi)
        traj = Trajectory(grid2pi, [0.0, 0.1, 0.2], [f.values] * 3)
        with pytest.raises(ValueError, match="equation must be one of") as err:
            pde_residual(traj, "nls")
        assert err.traceback[-1].name == "_rhs"

    def test_requires_uniform_spacing(self, grid2pi):
        f = plane_wave(grid2pi)
        traj = Trajectory(grid2pi, [0.0, 0.1, 0.3], [f.values] * 3)
        with pytest.raises(ValueError):
            pde_residual(traj, "dnls1")

    def test_dnls2_mu_defaults_to_first_frame(self, grid2pi):
        A, m, beta = 0.8, 1, 0.75
        k = 2 * np.pi * m / grid2pi.L
        omega2 = k**2 - (1 - 2 * beta) * k * A**2
        h = 0.005
        times = h * np.arange(7)
        traj = Trajectory(grid2pi, times,
                          A * np.exp(1j * (k * grid2pi.x - omega2 * times[:, None])))
        res = pde_residual(traj, "dnls2", beta=beta)
        assert np.max(res) < 1e-3  # centered-difference truncation only

    @pytest.mark.parametrize("equation", ["dnls1", "dnls2"])
    def test_batched_equals_per_frame_rhs(self, grid2pi, rng, equation):
        beta = 0.75
        u0 = random_band_field(grid2pi, rng, band=8, scale=0.3)
        if equation == "dnls2":
            u0 = gauge_profile(u0, beta)
        sim = SimConfig(dt=1e-3, T=0.02, record_stride=4, equation=equation,
                        beta=beta)
        traj = simulate(u0, sim)
        mu0 = mu(u0)
        frames = traj.frames
        h = frames[1][0] - frames[0][0]
        want = []
        for i in range(1, len(frames) - 1):
            dt_u = (frames[i + 1][1].values - frames[i - 1][1].values) / (2.0 * h)
            f = frames[i][1]
            r = rhs_dnls1(f) if equation == "dnls1" else rhs_dnls2(f, beta, mu0)
            want.append(math.sqrt(float(np.sum(np.abs(dt_u - r.values) ** 2))
                                  * grid2pi.dx))
        assert np.array_equal(pde_residual(traj, equation, beta, mu0), want)


class TestPeriodIndependence:
    """u(x, t) -> lam^(1/2) u(lam x, lam^2 t) maps a solution of period L to
    one of period L/lam, for both flows; the grid keeps its N nodes, so the
    rescaled run steps the same samples times lam^(1/2)."""

    STEPS = 50

    @settings(max_examples=40, deadline=None, derandomize=True)
    @given(lam=st.floats(0.1, 10.0),
           flow=st.sampled_from([("dnls1", 0.75), ("dnls2", 0.5), ("dnls2", 0.75)]),
           integrator=st.sampled_from(["ifrk4", "etdrk4"]))
    def test_rescaled_run_is_the_rescaled_trajectory(self, lam, flow, integrator):
        equation, beta = flow
        grid = TorusGrid(2 * np.pi, 64)
        u0 = random_band_field(grid, np.random.default_rng(7), band=6, scale=0.3)
        dt = 1e-3

        def run(L, scale, dt):
            sim = SimConfig(dt=dt, T=self.STEPS * dt, record_stride=10,
                            integrator=integrator, equation=equation, beta=beta)
            return simulate(Field(TorusGrid(L, grid.N), scale * u0.values), sim)

        ref = run(grid.L, 1.0, dt)
        scaled = run(grid.L / lam, math.sqrt(lam), dt / lam ** 2)
        np.testing.assert_allclose(scaled.times * lam ** 2, ref.times, rtol=1e-12)
        back = scaled.values / math.sqrt(lam)
        assert np.max(np.abs(back - ref.values)) <= 1e-12 * np.max(np.abs(ref.values))

    @settings(max_examples=30, deadline=None, derandomize=True)
    @given(j=st.sampled_from([1, 2, 6, 18]),
           flow=st.sampled_from([("dnls1", 0.75), ("dnls2", 0.5), ("dnls2", 0.75)]),
           integrator=st.sampled_from(["ifrk4", "etdrk4"]))
    def test_power_of_four_rescaling_is_bit_for_bit(self, j, flow, integrator):
        # at lam = 4^j every factor of the rescaling is a power of two, so
        # the rescaled run is the base run scaled exactly: values times
        # lam^(1/2) = 2^j, times over lam^2, to the last bit
        equation, beta = flow
        lam, root = 4.0 ** j, 2.0 ** j
        grid = TorusGrid(2 * np.pi, 64)
        u0 = random_band_field(grid, np.random.default_rng(7), band=6, scale=0.3)
        dt = 1e-3

        def run(L, scale, dt):
            sim = SimConfig(dt=dt, T=self.STEPS * dt, record_stride=10,
                            integrator=integrator, equation=equation, beta=beta)
            return simulate(Field(TorusGrid(L, grid.N), scale * u0.values), sim)

        ref = run(grid.L, 1.0, dt)
        scaled = run(grid.L / lam, root, dt / lam ** 2)
        assert (scaled.times * lam ** 2).tobytes() == ref.times.tobytes()
        assert scaled.values.tobytes() == (root * ref.values).tobytes()

    @pytest.mark.parametrize("lam", [2 * np.pi, 0.37, 3.0])
    def test_rescaled_scan_gives_the_same_rows(self, lam):
        # The pairs reach case 1 and case 2 frames; at 30 times the threshold
        # mass one member ends non-finite and the other at the guard.
        def scan(s):
            cfg = RunConfig(
                sim=SimConfig(dt=1e-3 / s ** 2, T=0.02 / s ** 2, record_stride=4,
                              equation="dnls2"),
                data=DataSpec(kind="multimode", modes=(1, 2, -1),
                              amplitudes=(1.0, 0.4, 0.3), seed=5),
                threshold_scan=ThresholdScanBlock(
                    mass_fractions=(0.5, 0.99, 30.0),
                    pairs=tuple(ScanPair(L=2 * np.pi / s, delta=delta / s, N=32)
                                for delta in (0.05, 1.0))))
            with warnings.catch_warnings():
                warnings.simplefilter("ignore", CflWarning)
                outcome = run_threshold_scan(cfg)
            rows = outcome.tables["scan_summary.csv"][1]
            return outcome, [dict(zip(SCAN_COLUMNS, row)) for row in rows]

        ref, ref_rows = scan(1.0)
        got, got_rows = scan(lam)
        assert (got.exit_code, got.exit_reason) == (ref.exit_code, ref.exit_reason)
        assert {r["exit_reason"] for r in ref_rows} == {"ok", "non-finite", "blowup-guard"}
        assert sum(r["n_case1"] for r in ref_rows) and sum(r["n_case2"] for r in ref_rows)
        for want, row in zip(ref_rows, got_rows, strict=True):
            for key in ("mass_fraction", "below_threshold", "n_case1", "n_case2",
                        "n_violations", "exit_reason"):
                assert row[key] == want[key], key
            # invariant values to 1e-12 relative; the drifts are relative to
            # their conserved quantity, so they get max(|drift|, 1) as scale
            for key in ("mass", "threshold", "h1dot_ratio"):
                assert row[key] == pytest.approx(want[key], rel=1e-12, abs=0), key
            assert row["max_h1dot"] == pytest.approx(lam * want["max_h1dot"], rel=1e-12)
            for key in ("drift_M", "drift_P", "drift_Ecal"):
                assert abs(row[key] - want[key]) <= 1e-12 * max(abs(want[key]), 1.0), key
