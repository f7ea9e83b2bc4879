"""Batched (B, N) stepping against serial runs, bit for bit."""

import math
import warnings
from dataclasses import replace

import numpy as np
import pytest

from dnlslab import (BlowupGuardError, Field, NonFiniteError, SimConfig,
                     TorusGrid, simulate)
from dnlslab import mu as mu_of
from dnlslab.config import RunConfig, ScanPair, ThresholdScanBlock
from dnlslab.dynamics import (_dealias_drop, _etdrk4_coeffs, _etdrk4_step,
                              _gauged_constants, _ifrk4_coeffs, _ifrk4_step,
                              _nl_dnls1, _nl_dnls2, _quartic_integral,
                              dispersion_symbol, simulate_batch)
from dnlslab.harness import run_threshold_scan
from dnlslab.initial_data import DataSpec

from conftest import random_band_field

TWO_PI = 2 * math.pi


@pytest.fixture
def grid():
    return TorusGrid(TWO_PI, 32)


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
    got = _nl_dnls2(grid, _dealias_drop(grid), _gauged_constants(grid, beta, mu), F)
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
    assert np.array_equal(_nl_dnls1(grid, drop, F),
                          np.stack([_nl_dnls1(grid, drop, row) for row in F]))
    rows = [_nl_dnls2(grid, drop, _gauged_constants(grid, beta, float(m)), row)
            for m, row in zip(mu[:, 0], F)]
    assert np.array_equal(_nl_dnls2(grid, drop, _gauged_constants(grid, beta, mu), F),
                          np.stack(rows))
    assert np.array_equal(_quartic_integral(grid, F)[:, 0],
                          [_quartic_integral(grid, row)[0] for row in F])

    dt = 1e-3
    symbol = dispersion_symbol(grid)
    ifrk4, etdrk4 = _ifrk4_coeffs(symbol, dt), _etdrk4_coeffs(symbol, dt)
    batched_nl = lambda G: _nl_dnls2(grid, drop, _gauged_constants(grid, beta, mu), G)
    for one_step in (lambda G, nl: _ifrk4_step(G, nl, ifrk4),
                     lambda G, nl: _etdrk4_step(G, nl, etdrk4)):
        batched = one_step(F, batched_nl)
        for m, row, got in zip(mu[:, 0], F, batched):
            row_nl = lambda G, m=float(m): _nl_dnls2(
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
                _nl_dnls2(grid, drop, _gauged_constants(grid, 0.75, mu_val), F),
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
