"""Acceptance suite: one test per criterion, each printing a PASS/FAIL line.

Run with `pytest tests/test_acceptance.py -v -s` to see the per-criterion
lines. Several criteria share the same simulations through session fixtures;
total runtime is a couple of minutes, dominated by the threshold scan.
"""

import math
import time

import numpy as np
import pytest

from dnlslab import (CGN, DataSpec, Field, SimConfig, Spectrum, TorusGrid,
                     Trajectory, build, conserved_report, ecal, energy_u,
                     f_ratio, gauge_profile, gauge_trajectory, hamiltonian_u,
                     lp_norm, m1_identity_check, mass, mass_threshold,
                     momentum_v, mu, pde_residual, proof_sample, simulate)
from dnlslab.config import GnAuditBlock, RunConfig, ThresholdScanBlock, ScanPair
from dnlslab.dynamics import rhs_dnls2
from dnlslab.harness import (EXIT_OK, audit_coefficients, case_report,
                             run_gn_audit, run_threshold_scan)

from conftest import literal_energy

TWO_PI = 2 * math.pi
BIG_MASS = 0.9 * 4 * math.pi
MASSES = (1.0, 4.0, BIG_MASS)
# dt pairs for the order measurement, chosen per mass so the truncation error
# sits well above the roundoff floor and inside the advective stability range
RATIO_DT = {1.0: (6e-3, 3e-3), 4.0: (1e-3, 5e-4), BIG_MASS: (3.2e-4, 1.6e-4)}
RATIO_WINDOW = (16 * 0.8, 16 * 1.2)


def report(criterion: int, ok: bool, detail: str) -> None:
    print(f"criterion {criterion:2d}: {'PASS' if ok else 'FAIL'} ({detail})")
    assert ok, f"criterion {criterion}: {detail}"


def family(target_mass: float) -> DataSpec:
    return DataSpec(kind="multimode", modes=(1, 2, 3, -1),
                    amplitudes=(1.0, 0.5, 0.25, 0.3), target_mass=target_mass,
                    seed=4)


@pytest.fixture(scope="session")
def grid256():
    return TorusGrid(TWO_PI, 256)


@pytest.fixture(scope="session")
def dnls1_runs(grid256):
    """dt = 1e-4, T = 1 trajectories of the ungauged flow, one per mass."""
    out = {}
    for m in MASSES:
        u0 = build(family(m), grid256)
        out[m] = simulate(u0, SimConfig(dt=1e-4, T=1.0, record_stride=100))
    return out


@pytest.fixture(scope="session")
def dnls1_fine_mass4(grid256):
    """Finely recorded run used for the residual refinement of criterion 4."""
    u0 = build(family(4.0), grid256)
    return simulate(u0, SimConfig(dt=1e-4, T=1.0, record_stride=25))


@pytest.fixture(scope="session")
def dnls2_runs(grid256):
    """Gauged-flow trajectories from gauged initial data, one per mass."""
    out = {}
    for m in MASSES:
        v0 = gauge_profile(build(family(m), grid256), 0.75)
        out[m] = simulate(v0, SimConfig(dt=1e-4, T=1.0, record_stride=100,
                                        equation="dnls2", beta=0.75))
    return out


@pytest.fixture(scope="session")
def audit_outcome():
    t0 = time.time()
    outcome = run_gn_audit(GnAuditBlock())
    return outcome, time.time() - t0


def drift(frames, functional):
    vals = [functional(f) for _, f in frames]
    x0 = vals[0]
    scale = abs(x0) if x0 != 0 else 1.0
    return max(abs(v - x0) for v in vals) / scale


def test_criterion_1_exact_plane_wave(grid256):
    A, k, T = 1.0, 1, 1.0
    omega = k**2 - k * A**2
    u0 = Field(grid256, A * np.exp(1j * k * grid256.x))
    traj = simulate(u0, SimConfig(dt=1e-4, T=T, record_stride=1000))
    exact = A * np.exp(1j * (k * grid256.x - omega * T))
    err = math.sqrt(float(np.sum(np.abs(traj.frames[-1][1].values - exact) ** 2))
                    * grid256.dx)
    report(1, err < 1e-8, f"plane-wave L2 error {err:.3e} < 1e-8")


def test_criterion_2_conservation_dnls1(grid256, dnls1_runs):
    details = []
    ok = True
    for m in MASSES:
        drifts = {name: drift(dnls1_runs[m].frames, fn)
                  for name, fn in (("M", mass), ("H", hamiltonian_u),
                                   ("E", energy_u))}
        worst = max(drifts.values())
        ok &= worst < 1e-8
        u0 = build(family(m), grid256)
        coarse = []
        for dt in RATIO_DT[m]:
            traj = simulate(u0, SimConfig(dt=dt, T=1.0,
                                          record_stride=max(1, round(0.05 / dt))))
            coarse.append(max(drift(traj.frames, fn)
                              for fn in (mass, hamiltonian_u, energy_u)))
        ratio = coarse[0] / coarse[1]
        ok &= RATIO_WINDOW[0] < ratio < RATIO_WINDOW[1]
        details.append(f"mass {m:.3g}: drift {worst:.1e}, ratio {ratio:.1f}")
    report(2, ok, "; ".join(details))


def test_criterion_3_term_form_oracle(dnls1_runs):
    frames = dnls1_runs[4.0].frames
    # the rejected reading of the cubic term, Im int f^2 conj((f^2)_x) on
    # the refined grid, must leave an O(1) drift
    drift_std = drift(frames, energy_u)
    drift_lit = drift(frames, literal_energy)
    ok = (drift_std < 1e-8
          and drift_lit > 1e-3
          and drift_lit > 1e4 * drift_std)
    report(3, ok, f"standard drift {drift_std:.1e} (conserved), "
                  f"literal drift {drift_lit:.1e} (O(1))")


def test_criterion_4_gauge_consistency(grid256, dnls1_fine_mass4, dnls2_runs):
    beta = 0.75
    gauged = gauge_trajectory(dnls1_fine_mass4, beta)
    sim_v = dnls2_runs[4.0]
    # frames at t = 0.01 k in both (fine run subsampled 4:1)
    sub = gauged.frames[::4]
    assert [t for t, _ in sub] == pytest.approx([t for t, _ in sim_v.frames])
    disc = max(math.sqrt(float(np.sum(np.abs(a.values - b.values) ** 2))
                         * grid256.dx)
               for (_, a), (_, b) in zip(sub, sim_v.frames))

    mu0 = mu(dnls1_fine_mass4.frames[0][1])
    res = {}
    for step_, spacing in ((2, 0.005), (1, 0.0025)):
        subtraj = Trajectory(grid256, gauged.times[::step_],
                             gauged.values[::step_])
        res[spacing] = float(np.max(pde_residual(subtraj, "dnls2", beta, mu0)))
    ratio = res[0.005] / res[0.0025]

    # the rejected sign of the nonlocal coefficient must leave an O(1) residual
    h = 0.0025
    i = len(gauged.frames) // 2
    dtv = (gauged.frames[i + 1][1].values - gauged.frames[i - 1][1].values) / (2 * h)
    vmid = gauged.frames[i][1]
    plus = dtv - rhs_dnls2(vmid, beta, mu0).values
    minus = plus + 2j * beta**2 * mu0**2 * vmid.values
    res_minus = math.sqrt(float(np.sum(np.abs(minus) ** 2)) * grid256.dx)

    ok = (disc < 1e-6 and 0.8 * 4 < ratio < 1.2 * 4
          and res_minus > 50 * res[0.0025])
    report(4, ok, f"discrepancy {disc:.2e} < 1e-6, residual ratio {ratio:.2f} "
                  f"~ 4, minus-sign residual {res_minus:.2f} is O(1)")


def test_criterion_5_conservation_dnls2(dnls2_runs):
    details = []
    ok = True
    for m in MASSES:
        drifts = {name: drift(dnls2_runs[m].frames, fn)
                  for name, fn in (("M", mass), ("P", momentum_v),
                                   ("Ecal", ecal))}
        worst = max(drifts.values())
        ok &= worst < 1e-7
        details.append(f"mass {m:.3g}: {worst:.1e}")
    report(5, ok, "max of M/P/Ecal drifts per mass: " + "; ".join(details))


def test_criterion_6_gn_audit(audit_outcome):
    outcome, elapsed = audit_outcome
    block = GnAuditBlock()
    want_rows = (block.num_fields + 1) * len(block.L_values) * len(block.delta_values)
    rows = outcome.tables["gn_audit.csv"][1]
    n_violations = outcome.summary["violations"]
    ok = (outcome.exit_code == EXIT_OK and n_violations == 0
          and len(rows) == want_rows and elapsed < 60.0)
    report(6, ok, f"{len(rows)} audit rows, {n_violations} "
                  f"violations, {elapsed:.1f}s < 60s")


@pytest.fixture(scope="session")
def audit_fields():
    block = GnAuditBlock()
    corpus = audit_coefficients(block)[1:]  # drop the zero field
    fields = []
    for L in block.L_values:
        grid = TorusGrid(L, block.N)
        fields.extend(Spectrum(grid, c).field() for c in corpus)
    return fields


def test_criterion_7_hoelder_upper_bound(audit_fields):
    worst = 0.0
    for f in audit_fields:
        worst = max(worst, f_ratio(f) / math.sqrt(mass(f)))
    grid = TorusGrid(TWO_PI, 128)
    const = Field(grid, 1.3 * np.exp(1j * 2 * grid.x))
    sat = abs(f_ratio(const) / math.sqrt(mass(const)) - 1.0)
    ok = worst <= 1.0 + 1e-12 and sat <= 1e-12
    report(7, ok, f"max f/sqrt(M) = 1 {worst - 1.0:+.1e} over "
                  f"{len(audit_fields)} fields; constant-modulus "
                  f"saturation defect {sat:.1e}")


def test_criterion_8_gn_lower_bound(audit_fields, dnls2_runs):
    checked = 0
    worst = math.inf
    for f in audit_fields:
        for delta in (0.1, 1.0, 10.0):
            s = proof_sample(f, delta, ecal(f))
            if s.lower_bound_f is None:
                continue
            checked += 1
            worst = min(worst, s.f / s.lower_bound_f)
    ok = worst >= 1.0 - 1e-10
    frames_checked = 0
    for m in MASSES:
        traj = dnls2_runs[m]
        rep0 = conserved_report(traj.frames[0][1])
        for rec in case_report(traj, 1.0, rep0):
            if rec.sample.lower_bound_f is not None:
                frames_checked += 1
                ok &= rec.sample.f >= rec.sample.lower_bound_f * (1 - 1e-10)
                worst = min(worst, rec.sample.f / rec.sample.lower_bound_f)
    report(8, ok, f"min f/lower_bound = 1 {worst - 1.0:+.1e} over "
                  f"{checked} audited (field, delta) pairs and "
                  f"{frames_checked} trajectory frames")


def test_criterion_9_modulation_identity():
    grid = TorusGrid(TWO_PI, 128)
    rng = np.random.default_rng(99)
    worst = 0.0
    pairs = 0
    while pairs < 100:
        c = np.zeros(grid.N, dtype=np.complex128)
        for m in range(-16, 17):
            z = rng.standard_normal() + 1j * rng.standard_normal()
            c[m % grid.N] = z * math.exp(-abs(m) / 5.0)
        v = Spectrum(grid, c).field()
        lhs_scale = max(abs(momentum_v(v) + 0.25 * lp_norm(v, 4) ** 4), 1.0)
        for j in (1, 2, 3):
            resid = m1_identity_check(v, 2 * math.pi * j / grid.L)
            worst = max(worst, resid / lhs_scale)
            pairs += 1
    A, k = 1.2, 2
    pw = Field(grid, A * np.exp(1j * k * grid.x))
    alpha = 2 * math.pi / grid.L
    lhs = momentum_v(pw) + 0.25 * lp_norm(pw, 4) ** 4
    closed = abs(lhs - (-k * A**2 * grid.L))
    ok = worst < 1e-11 and closed < 1e-12 * abs(lhs)
    report(9, ok, f"max relative residual {worst:.1e} over {pairs} pairs; "
                  f"plane-wave closed form agrees to {closed:.1e}")


def test_criterion_10_constants():
    import mpmath as mp
    mp.mp.dps = 50
    want = float(mp.power(3, mp.mpf(1) / 6) * mp.power(2 * mp.pi, mp.mpf(-1) / 9))
    c_ok = abs(CGN - want) < 1e-15
    sup_ok = all(mass_threshold(1.0, d) < 4 * math.pi for d in (1.0, 0.1, 1e-8))
    sup_ok &= abs(mass_threshold(1.0, 1e-9) - 4 * math.pi) < 1e-6
    point_ok = mass_threshold(1.0, 2.5) == math.pi
    ok = c_ok and sup_ok and point_ok
    report(10, ok, f"CGN within {abs(CGN - want):.1e} of extended precision; "
                   f"threshold(1, 5/2) == pi exactly; supremum 4*pi")


def test_criterion_11_threshold_scan():
    cfg = RunConfig(
        sim=SimConfig(dt=1e-3, T=1.0, record_stride=100, equation="dnls2"),
        data=DataSpec(kind="multimode", modes=(1, 2, 3, -1),
                      amplitudes=(1.0, 0.5, 0.25, 0.3), seed=4),
        threshold_scan=ThresholdScanBlock(
            mass_fractions=(0.5, 0.9, 0.99),
            pairs=(ScanPair(L=TWO_PI, delta=1.0, dt=2e-4, N=128),
                   ScanPair(L=1.0, delta=0.1, dt=2e-5, N=128))),
    )
    t0 = time.time()
    outcome = run_threshold_scan(cfg)
    elapsed = time.time() - t0
    ok = outcome.exit_code == EXIT_OK
    details = []
    rows = outcome.tables["scan_summary.csv"][1]
    for row in rows:
        (L, delta, frac, m, th, below, max_h1, h1_ratio,
         dM, dP, dE, n1, n2, nviol, reason) = row
        ok &= below and reason == "ok" and nviol == 0 and h1_ratio < 10.0
        details.append(f"(L={L:g},d={delta:g},f={frac:g}): "
                       f"h1 ratio {h1_ratio:.2f}, {nviol} violations")
    report(11, ok, f"{len(rows)} runs in {elapsed:.0f}s; "
                   + "; ".join(details))
