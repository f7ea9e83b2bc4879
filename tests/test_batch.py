"""Batched (B, N) stepping against serial runs, bit for bit."""

import math
import warnings
from dataclasses import replace

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from dnlslab import (BlowupGuardError, CflWarning, Field, NonFiniteError,
                     SimConfig, TorusGrid, Trajectory, simulate)
from dnlslab import mu as mu_of
from dnlslab.config import RunConfig, ScanPair, ThresholdScanBlock
from dnlslab.dynamics import (_dealias_drop, _etdrk4_coeffs, _etdrk4_step,
                              _gauged_constants, _h1dot_from_spectrum,
                              _ifrk4_coeffs, _ifrk4_step, _make_nonlinear,
                              _nl_dnls1, _nl_dnls2, _precheck_bound,
                              _quartic_integral, dispersion_symbol,
                              simulate_batch, step_count)
from dnlslab.harness import run_threshold_scan
from dnlslab.initial_data import DataSpec

from conftest import random_band_field

TWO_PI = 2 * math.pi


@pytest.fixture
def grid():
    return TorusGrid(TWO_PI, 32)


def nl1(grid, F):
    """_nl_dnls1 with the derivative multiplier its kernel gets from
    _make_nonlinear, on a buffer of its own."""
    ik_keep = grid._ik.copy()
    ik_keep[_dealias_drop(grid)] = 0.0
    return _nl_dnls1(ik_keep, F, np.empty(F.shape, dtype=complex))


def nl2(grid, drop, consts, F):
    """_nl_dnls2 on a stack of its own."""
    return _nl_dnls2(grid, drop, consts, F, np.empty((2,) + F.shape, dtype=complex))


@pytest.fixture
def members(grid):
    rng = np.random.default_rng(7)
    return [random_band_field(grid, rng, band=4, scale=s) for s in (0.1, 0.4, 0.8)]


def serial(u0s, config):
    out = []
    for u0 in u0s:
        try:
            out.append(simulate(u0, config))
        except (BlowupGuardError, NonFiniteError) as e:
            out.append(e)
    return out


def assert_same_trajectory(a, b):
    assert len(a.frames) == len(b.frames)
    for (ta, fa), (tb, fb) in zip(a.frames, b.frames):
        assert ta == tb
        assert np.array_equal(fa.values, fb.values)


def assert_same_results(batched, serial_runs):
    for got, want in zip(batched, serial_runs, strict=True):
        assert type(got) is type(want)
        if isinstance(want, (BlowupGuardError, NonFiniteError)):
            assert str(got) == str(want)
            assert got.t == want.t
            assert_same_trajectory(got.partial, want.partial)
        else:
            assert_same_trajectory(got, want)


def unskipped_nl_dnls2(grid, beta, mu_val, F):
    """The gauged kernel with the quartic integral always computed, serial."""
    N = grid.N
    v = np.fft.ifft(F)
    vx = np.fft.ifft(grid._ik * F)
    absq = np.abs(v) ** 2
    im_mom = -(grid.L / N ** 2) * float(np.sum(grid._ik.imag * np.abs(F) ** 2))
    F2 = np.zeros(2 * N, dtype=np.complex128)
    F2[: N // 2] = F[: N // 2]
    F2[2 * N - N // 2:] = F[N // 2:]
    v2 = 2.0 * np.fft.ifft(F2)
    quartic = float(np.sum(np.abs(v2) ** 4) * (grid.L / (2 * N)))
    psi_val = beta / grid.L * (2.0 * im_mom + (1.5 - 2.0 * beta) * quartic)
    psi_val += beta * beta * mu_val * mu_val
    nl = (2.0 * (1.0 - beta) * absq * vx
          + (1.0 - 2.0 * beta) * v * v * np.conj(vx)
          - 1j * (beta * mu_val * absq * v
                  + beta * (0.5 - beta) * absq ** 2 * v
                  - psi_val * v))
    out = np.fft.fft(nl)
    out[~grid.dealias_keep] = 0.0
    return out


def frozen_nl_dnls1(grid, F):
    """The ungauged kernel with a boolean dealiasing mask, serial."""
    u = np.fft.ifft(F)
    cubic = np.fft.fft(np.abs(u) ** 2 * u)
    cubic[~grid.dealias_keep] = 0.0
    return grid._ik * cubic


def frozen_ifrk4_step(F, dt, nl, E1, E2):
    """The IFRK4 step with every coefficient formed inside the step."""
    a = nl(F)
    b = nl(E1 * (F + 0.5 * dt * a))
    c = nl(E1 * F + 0.5 * dt * b)
    d = nl(E2 * F + dt * E1 * c)
    return E2 * F + (dt / 6.0) * (E2 * a + 2.0 * E1 * (b + c) + d)


def frozen_etdrk4_coeffs(symbol, dt, n_contour=32):
    """The ETDRK4 contour coefficients E, E2, Q, f1, f2, f3."""
    lc = symbol * dt
    r = np.exp(2j * np.pi * (np.arange(n_contour) + 0.5) / n_contour)
    LR = lc[:, None] + r[None, :]
    expLR = np.exp(LR)
    Q = dt * ((np.exp(LR / 2.0) - 1.0) / LR).mean(axis=1)
    f1 = dt * ((-4.0 - LR + expLR * (4.0 - 3.0 * LR + LR ** 2)) / LR ** 3).mean(axis=1)
    f2 = dt * ((2.0 + LR + expLR * (LR - 2.0)) / LR ** 3).mean(axis=1)
    f3 = dt * ((-4.0 - 3.0 * LR - LR ** 2 + expLR * (4.0 - LR)) / LR ** 3).mean(axis=1)
    return np.exp(lc), np.exp(lc / 2.0), Q, f1, f2, f3


def frozen_etdrk4_step(F, nl, coeffs):
    """The ETDRK4 step with E2*F and 2*f2 formed where they are used."""
    E, E2, Q, f1, f2, f3 = coeffs
    Nv = nl(F)
    a = E2 * F + Q * Nv
    Na = nl(a)
    b = E2 * F + Q * Na
    Nb = nl(b)
    c = E2 * a + Q * (2.0 * Nb - Nv)
    Nc = nl(c)
    return E * F + f1 * Nv + 2.0 * f2 * (Na + Nb) + f3 * Nc


@pytest.mark.parametrize("N", [32, 128, 256])
@pytest.mark.parametrize("B", [1, 3])
@pytest.mark.parametrize("beta", [0.5, 0.75, 1.0])
def test_gauged_kernel_equals_the_serial_reference(N, B, beta):
    grid = TorusGrid(TWO_PI, N)
    rng = np.random.default_rng(N + B)
    F = np.fft.fft(np.stack([random_band_field(grid, rng, band=6, scale=0.5).values
                             for _ in range(B)]))
    mu = np.linspace(0.2, 1.4, B).reshape(B, 1)
    if B == 1:  # a lone member steps as a 1-D spectrum, as in simulate_batch
        F, mu = F[0], mu[0]
    got = nl2(grid, _dealias_drop(grid), _gauged_constants(grid, beta, mu), F)
    for m, row, out in zip(np.ravel(mu), np.atleast_2d(F), np.atleast_2d(got)):
        assert np.array_equal(out, unskipped_nl_dnls2(grid, beta, float(m), row))


@pytest.mark.parametrize("integrator", ["ifrk4", "etdrk4"])
@pytest.mark.parametrize("equation,beta", [("dnls1", 0.75), ("dnls2", 0.75),
                                           ("dnls2", 0.5)])
@pytest.mark.parametrize("B", [1, 3])
def test_twenty_steps_equal_the_frozen_reference(members, integrator, equation,
                                                 beta, B):
    grid, dt, n = members[0].grid, 1e-3, 20
    u0s = members[:B]
    config = SimConfig(dt=dt, T=n * dt, record_stride=n, equation=equation,
                       beta=beta, integrator=integrator)
    symbol = dispersion_symbol(grid)
    E1 = np.exp(0.5 * dt * symbol)
    coeffs = frozen_etdrk4_coeffs(symbol, dt)
    for u0, traj in zip(u0s, simulate_batch(u0s, config), strict=True):
        if equation == "dnls1":
            nl = lambda G: frozen_nl_dnls1(grid, G)
        else:
            nl = lambda G, m=mu_of(u0): unskipped_nl_dnls2(grid, beta, m, G)
        F = np.fft.fft(u0.values)
        for _ in range(n):
            F = (frozen_ifrk4_step(F, dt, nl, E1, E1 * E1) if integrator == "ifrk4"
                 else frozen_etdrk4_step(F, nl, coeffs))
        assert np.array_equal(traj.values[-1], np.fft.ifft(F))


@pytest.mark.parametrize("integrator", ["ifrk4", "etdrk4"])
@pytest.mark.parametrize("equation,beta", [("dnls1", 0.75), ("dnls2", 0.75),
                                           ("dnls2", 0.5), ("dnls2", 0.0)])
def test_batch_equals_serial(members, integrator, equation, beta):
    config = SimConfig(dt=1e-3, T=0.05, record_stride=7, equation=equation,
                       beta=beta, integrator=integrator)
    assert_same_results(simulate_batch(members, config), serial(members, config))


@pytest.mark.parametrize("beta", [0.75, 0.5, 0.0])
def test_kernels_and_steps_act_row_by_row(grid, members, beta):
    drop = _dealias_drop(grid)
    F = np.fft.fft(np.stack([u.values for u in members]))
    mu = np.array([[0.3], [1.1], [2.0]])
    assert np.array_equal(nl1(grid, F), np.stack([nl1(grid, row) for row in F]))
    rows = [nl2(grid, drop, _gauged_constants(grid, beta, float(m)), row)
            for m, row in zip(mu[:, 0], F)]
    assert np.array_equal(nl2(grid, drop, _gauged_constants(grid, beta, mu), F),
                          np.stack(rows))
    assert np.array_equal(_quartic_integral(grid, F)[:, 0],
                          [_quartic_integral(grid, row) for row in F])

    dt = 1e-3
    symbol = dispersion_symbol(grid)
    ifrk4, etdrk4 = _ifrk4_coeffs(symbol, dt), _etdrk4_coeffs(symbol, dt)
    batched_nl = lambda G: nl2(grid, drop, _gauged_constants(grid, beta, mu), G)
    for one_step in (lambda G, nl: _ifrk4_step(G, nl, ifrk4),
                     lambda G, nl: _etdrk4_step(G, nl, etdrk4)):
        batched = one_step(F, batched_nl)
        for m, row, got in zip(mu[:, 0], F, batched):
            row_nl = lambda G, m=float(m): nl2(
                grid, drop, _gauged_constants(grid, beta, m), G)
            assert np.array_equal(got, one_step(row, row_nl))


@pytest.mark.parametrize("N", [8, 10, 12, 32, 128, 256])
def test_dealias_slice_drops_what_dealias_keep_drops(N):
    grid = TorusGrid(TWO_PI, N)
    kept = np.ones(N, dtype=bool)
    kept[_dealias_drop(grid)] = False
    assert np.array_equal(kept, grid.dealias_keep)


def test_quartic_skip_at_three_quarters_equals_unskipped_kernel(grid, members):
    drop = _dealias_drop(grid)
    for u in members:
        F = np.fft.fft(u.values)
        for mu_val in (0.0, 0.7):
            assert np.array_equal(
                nl2(grid, drop, _gauged_constants(grid, 0.75, mu_val), F),
                unskipped_nl_dnls2(grid, 0.75, mu_val, F))


def test_pad2_is_the_refine2_pad_on_the_trailing_axis(grid, members):
    F = np.fft.fft(np.stack([u.values for u in members]))
    padded = grid.pad2(F)
    for u, row in zip(members, padded):
        assert np.array_equal(grid.refine2(u.values), 2.0 * np.fft.ifft(row))
        assert np.array_equal(row, grid.pad2(np.fft.fft(u.values)))


def test_stopped_members_leave_the_batch_and_the_rest_carry_on(grid, members):
    heavy = random_band_field(grid, np.random.default_rng(7), band=4, scale=2.0)
    wild = Field(grid, members[0].values * 1e100)
    u0s = [members[0], heavy, members[1], wild, members[2]]
    config = SimConfig(dt=1e-3, T=0.2, record_stride=3, equation="dnls2",
                       guard_factor=1.5)
    with warnings.catch_warnings(), np.errstate(all="ignore"):
        warnings.simplefilter("ignore")
        batched = simulate_batch(u0s, config)
        want = serial(u0s, config)
    assert [type(r).__name__ for r in batched] == [
        "Trajectory", "BlowupGuardError", "Trajectory", "NonFiniteError",
        "Trajectory"]
    assert len(batched[1].partial.frames) > 1
    assert batched[1].t < config.T
    assert_same_results(batched, want)


@pytest.mark.parametrize("integrator", ["ifrk4", "etdrk4"])
@pytest.mark.parametrize("equation", ["dnls1", "dnls2"])
def test_a_guard_stop_at_256_nodes_leaves_the_rest_equal_to_serial(integrator,
                                                                   equation):
    # frames before the stop are recorded from all four rows, frames after it
    # from the rows of the members left
    grid = TorusGrid(TWO_PI, 256)
    rng = np.random.default_rng(7)
    light = [random_band_field(grid, rng, band=4, scale=s) for s in (0.1, 0.4, 0.8)]
    heavy = random_band_field(grid, np.random.default_rng(7), band=4, scale=2.0)
    u0s = [light[0], heavy, light[1], light[2]]
    config = SimConfig(dt=1e-3, T=0.05, record_stride=3, equation=equation,
                       integrator=integrator, guard_factor=1.5)
    with warnings.catch_warnings():
        warnings.simplefilter("ignore", CflWarning)
        batched = simulate_batch(u0s, config)
        want = serial(u0s, config)
    assert type(batched[0]).__name__ == "Trajectory"
    assert isinstance(batched[1], BlowupGuardError)
    assert 1 < len(batched[1].partial.times) < len(batched[0].times) - 1
    assert_same_results(batched, want)


def exact_guard_run(u0, config):
    """u0 stepped alone as simulate steps it, with the exact guard rule on
    every step and no pre-check: the stop step (None for none), the guard's
    seminorm of each step taken, the last spectrum, and the times and rows
    recorded."""
    grid = u0.grid
    n, stride = step_count(config.T, config.dt), config.record_stride
    scale = grid.L / grid.N ** 2
    with np.errstate(over="ignore", invalid="ignore"):
        symbol = dispersion_symbol(grid)
        step, coeffs = ((_ifrk4_step, _ifrk4_coeffs(symbol, config.dt))
                        if config.integrator == "ifrk4"
                        else (_etdrk4_step, _etdrk4_coeffs(symbol, config.dt)))
        nl = _make_nonlinear(grid, config.equation, config.beta, mu_of(u0))
        F = np.fft.fft(u0.values)
        h0 = float(_h1dot_from_spectrum(grid._ik, scale, F))
        limit = min(config.guard_factor * h0 if h0 > 0 else math.inf,
                    np.finfo(np.float64).max)
        seminorms, times, rows = [h0], [0.0], [u0.values]
        for i in range(1, n + 1):
            F = step(F, nl, coeffs)
            seminorms.append(float(_h1dot_from_spectrum(grid._ik, scale, F)))
            if not seminorms[-1] <= limit:
                return i, seminorms, F, times, rows
            if i % stride == 0 or i == n:
                times.append(i * config.dt)
                rows.append(np.fft.ifft(F))
    return None, seminorms, F, times, rows


def assert_exact_guard(result, u0, config):
    """result is u0's simulate_batch result under the exact guard rule alone:
    the same stop step and time, error type and h1dot, and recorded bytes."""
    stop, seminorms, F, times, rows = exact_guard_run(u0, config)
    if stop is None:
        assert isinstance(result, Trajectory)
        traj = result
    else:
        finite = np.all(np.isfinite(F)) and math.isfinite(seminorms[-1])
        assert type(result) is (BlowupGuardError if finite else NonFiniteError)
        assert result.t == stop * config.dt
        if finite:
            assert result.h1dot == seminorms[-1]
        traj = result.partial
    assert traj.times.tobytes() == np.array(times).tobytes()
    assert traj.values.tobytes() == np.array(rows).tobytes()
    return stop


def guard_factor_for(limit, h0):
    """A guard_factor whose limit, guard_factor * h0, rounds to limit
    exactly, or None where none of the floats next to limit / h0 does."""
    down = up = [limit / h0]
    for _ in range(3):
        down = down + [math.nextafter(down[-1], 0.0)]
        up = up + [math.nextafter(up[-1], math.inf)]
    return next((g for g in down + up if g * h0 == limit), None)


@st.composite
def guarded_spectra(draw):
    """Spectra of 1-3 rows on a grid of 8 or 32 nodes, each row on a scale
    from subnormal squares to overflowing ones, and per row a guard limit a
    few ulps from its seminorm or from any other float up to 1e300."""
    grid = TorusGrid(draw(st.sampled_from([1e-3, TWO_PI, 1e4])),
                     draw(st.sampled_from([8, 32])))
    rows = draw(st.integers(1, 3))
    F = np.empty((rows, grid.N), dtype=np.complex128)
    for r in range(rows):
        parts = np.array(draw(st.lists(st.integers(-1000, 1000), min_size=2 * grid.N,
                                       max_size=2 * grid.N))) / 1000.0
        F[r] = (parts[:grid.N] + 1j * parts[grid.N:]) * 10.0 ** draw(
            st.sampled_from([-170, -158, -150, 0, 100, 150, 153, 156]))
    with np.errstate(over="ignore", invalid="ignore"):
        h1 = np.atleast_1d(_h1dot_from_spectrum(grid._ik, grid.L / grid.N ** 2, F))
    limits = []
    for seminorm in h1.tolist():
        limit = draw(st.just(seminorm if math.isfinite(seminorm) else 1e300)
                     | st.floats(0.0, 1e300))
        steps = draw(st.integers(-3, 3))
        for _ in range(abs(steps)):
            limit = math.nextafter(limit, math.inf if steps > 0 else 0.0)
        limits.append(limit)
    return grid, F, h1, np.array(limits)


@settings(max_examples=400, deadline=None, derandomize=True)
@given(case=guarded_spectra())
def test_a_passed_precheck_is_a_pass_of_the_exact_rule(case):
    grid, F, h1, limits = case
    kk = np.repeat(np.abs(grid._ik.imag), 2)
    with np.errstate(over="ignore", invalid="ignore"):
        w = F.view(np.float64) * kk
        passed = np.vdot(w, w) <= _precheck_bound(limits, grid.L / grid.N ** 2, F.size)
    if passed:
        assert np.all(h1 <= limits)


def test_the_precheck_passes_a_seminorm_clear_of_its_limit(members):
    grid = members[0].grid
    F = np.fft.fft(np.stack([u.values for u in members]))
    scale = grid.L / grid.N ** 2
    h1 = _h1dot_from_spectrum(grid._ik, scale, F)
    w = F.view(np.float64) * np.repeat(np.abs(grid._ik.imag), 2)
    total = np.vdot(w, w)
    # the sum of all rows within the smallest limit, shrunk by the margin
    limits = np.full(3, math.sqrt(total * scale) * (1 + 1e-12))
    assert total <= _precheck_bound(limits, scale, F.size)
    assert not total <= _precheck_bound(limits / (1 + 1e-11), scale, F.size)
    assert np.all(h1 < limits)


@pytest.mark.parametrize("L", [1e-3, TWO_PI, 1e4])
@pytest.mark.parametrize("N", [8, 32])
def test_the_precheck_fails_a_limit_just_below_the_seminorm(L, N):
    # The dot and the exact seminorm round differently: without its margin
    # the bound would pass about one row in 200 here at a limit one to three
    # ulps below the row's seminorm, where the exact rule stops.
    grid = TorusGrid(L, N)
    scale = L / N ** 2
    kk = np.repeat(np.abs(grid._ik.imag), 2)
    rng = np.random.default_rng(0)
    for _ in range(500):
        F = (rng.integers(-1000, 1001, N) + 1j * rng.integers(-1000, 1001, N)) / 1000
        w = F.view(np.float64) * kk
        limit = float(_h1dot_from_spectrum(grid._ik, scale, F))
        for _ in range(3):
            limit = math.nextafter(limit, 0.0)
            assert not np.vdot(w, w) <= _precheck_bound(np.array([limit]), scale, N)


class TestGuardPrecheck:
    """The guard's one-dot pre-check only lets a step pass where the exact
    rule would: every stop, hit time, h1dot and recorded byte is that of the
    exact rule alone."""

    @pytest.fixture
    def heavy(self, grid):
        return random_band_field(grid, np.random.default_rng(7), band=4, scale=2.0)

    @pytest.mark.parametrize("integrator", ["ifrk4", "etdrk4"])
    @pytest.mark.parametrize("equation", ["dnls1", "dnls2"])
    def test_a_limit_at_an_attained_seminorm_and_one_ulp_below(self, heavy,
                                                               integrator, equation):
        config = SimConfig(dt=1e-3, T=0.04, record_stride=3, equation=equation,
                           integrator=integrator, guard_factor=1e300)
        stop, h1, _, _, _ = exact_guard_run(heavy, config)
        assert stop is None
        # a step from the middle on whose seminorm tops every earlier one,
        # reachable as a limit and one ulp below it
        for j in range(len(h1) // 2, len(h1)):
            below = math.nextafter(h1[j], 0.0)
            at = guard_factor_for(h1[j], h1[0])
            under = guard_factor_for(below, h1[0])
            if h1[j] > max(h1[1:j], default=0.0) and at and under:
                break
        else:
            pytest.fail("no attained seminorm is reachable as a limit")
        at_limit = simulate_batch([heavy], replace(config, guard_factor=at))[0]
        assert assert_exact_guard(at_limit, heavy, replace(config, guard_factor=at)) != j
        stopped = simulate_batch([heavy], replace(config, guard_factor=under))[0]
        assert assert_exact_guard(stopped, heavy,
                                  replace(config, guard_factor=under)) == j
        assert isinstance(stopped, BlowupGuardError)

    def test_the_zero_field_and_a_field_below_the_floor(self, grid):
        config = SimConfig(dt=1e-3, T=0.02, record_stride=4)
        zero = Field(grid, np.zeros(grid.N))
        tiny = random_band_field(grid, np.random.default_rng(3), band=4, scale=1e-170)
        for u0 in (zero, tiny):
            for guard_factor in (1e3, 1.0 + 1e-15):
                cfg = replace(config, guard_factor=guard_factor)
                assert_exact_guard(simulate_batch([u0], cfg)[0], u0, cfg)

    @pytest.mark.filterwarnings("ignore::dnlslab.CflWarning")
    @pytest.mark.filterwarnings("error::RuntimeWarning")
    def test_a_nan_row_and_an_overflowing_seminorm(self, members):
        # wild overflows to NaN in its first step; on the period 2 pi 1e-100
        # the step stays finite while every (|k| F)^2 overflows
        wild = Field(members[0].grid, members[0].values * 1e100)
        config = SimConfig(dt=1e-3, T=0.01, record_stride=2)
        assert_exact_guard(simulate_batch([wild], config)[0], wild, config)
        small = TorusGrid(TWO_PI * 1e-100, 32)
        steep = Field(small, members[1].values * 1e60)
        config = SimConfig(dt=1e-250, T=5e-250, record_stride=2)
        result = simulate_batch([steep], config)[0]
        assert isinstance(result, NonFiniteError) and "overflowed" in str(result)
        assert_exact_guard(result, steep, config)

    @pytest.mark.parametrize("equation", ["dnls1", "dnls2"])
    def test_a_batch_of_three_with_one_stop(self, members, heavy, equation):
        u0s = [members[0], heavy, members[1]]
        config = SimConfig(dt=1e-3, T=0.2, record_stride=3, equation=equation,
                           guard_factor=1.5)
        with warnings.catch_warnings():
            warnings.simplefilter("ignore", CflWarning)
            batched = simulate_batch(u0s, config)
            assert_same_results(batched, serial(u0s, config))
        assert [type(r) for r in batched] == [Trajectory, BlowupGuardError, Trajectory]
        for result, u0 in zip(batched, u0s):
            assert_exact_guard(result, u0, config)


def test_members_must_share_one_grid(members):
    other = random_band_field(TorusGrid(TWO_PI, 64), np.random.default_rng(1))
    with pytest.raises(ValueError):
        simulate_batch([members[0], other], SimConfig(dt=1e-3, T=0.01))


def scan_config():
    # pairs 0 and 2 share (L, N, dt) and form one batch around pair 1
    return RunConfig(
        sim=SimConfig(dt=1e-3, T=0.02, equation="dnls2"),
        data=DataSpec(kind="multimode", modes=(1, 2, -1),
                      amplitudes=(1.0, 0.4, 0.3), seed=5),
        threshold_scan=ThresholdScanBlock(
            mass_fractions=(0.5, 0.9),
            pairs=(ScanPair(L=TWO_PI, delta=1.0, N=32),
                   ScanPair(L=1.0, delta=0.1, dt=1e-4, N=32),
                   ScanPair(L=TWO_PI, delta=0.5, N=32))))


def test_scan_groups_keep_task_order_and_equal_serial_members():
    cfg = scan_config()
    outcome = run_threshold_scan(cfg)
    rows = outcome.tables["scan_summary.csv"][1]
    assert [(row[0], row[1], row[2]) for row in rows] == [
        (TWO_PI, 1.0, 0.5), (TWO_PI, 1.0, 0.9), (1.0, 0.1, 0.5),
        (1.0, 0.1, 0.9), (TWO_PI, 0.5, 0.5), (TWO_PI, 0.5, 0.9)]
    members = [(pair, frac) for pair in cfg.threshold_scan.pairs
               for frac in cfg.threshold_scan.mass_fractions]
    for row, (pair, frac) in zip(rows, members):
        one = run_threshold_scan(replace(cfg, threshold_scan=ThresholdScanBlock(
            mass_fractions=(frac,),
            pairs=(ScanPair(L=pair.L, delta=pair.delta,
                            dt=pair.dt if pair.dt is not None else cfg.sim.dt,
                            N=pair.N),))))
        assert one.tables["scan_summary.csv"][1] == [row]
        (name,) = set(one.tables) - {"scan_summary.csv"}
        assert one.tables[name] == outcome.tables[name]


def test_scan_jobs_do_not_change_results():
    cfg = scan_config()
    a = run_threshold_scan(cfg, jobs=1)
    b = run_threshold_scan(cfg, jobs=2)
    assert a.tables == b.tables
    assert (a.exit_code, a.exit_reason) == (b.exit_code, b.exit_reason)
    assert a == b


def test_scan_pool_has_at_most_one_worker_per_group(monkeypatch):
    opened = []

    class RecordingPool:
        """Records max_workers, starts no process and maps serially."""

        def __init__(self, max_workers):
            opened.append(max_workers)

        def __enter__(self):
            return self

        def __exit__(self, *exc):
            return False

        def map(self, fn, items):
            return map(fn, items)

    monkeypatch.setattr("dnlslab.harness.ProcessPoolExecutor", RecordingPool)
    cfg = scan_config()  # two (L, N, dt) groups
    assert run_threshold_scan(cfg, jobs=8) == run_threshold_scan(cfg, jobs=1)
    assert opened == [2]

    one_group = replace(cfg, threshold_scan=replace(
        cfg.threshold_scan, pairs=cfg.threshold_scan.pairs[:1]))
    run_threshold_scan(one_group, jobs=8)
    assert opened == [2]  # one group runs serially
