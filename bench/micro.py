"""Micro-timings of the public layer functions at N = 128, 256 and 1024."""

from __future__ import annotations

import math
import statistics
import time
import warnings

SIZES = (128, 256, 1024)
# simulate steps per timing: enough that set-up (ETDRK4 contour quadrature)
# stays a small part of the time per step
STEPS = {128: 200, 256: 200, 1024: 50}
REPEATS = 5
TARGET_S = 0.02  # duration of one repeat


def _time_us(fn, per_call: int = 1) -> float:
    """Median over REPEATS of µs per call, each repeat about TARGET_S long."""
    start = time.perf_counter()
    fn()
    once = max(time.perf_counter() - start, 1e-7)
    number = max(1, int(TARGET_S / once))
    samples = []
    for _ in range(REPEATS):
        start = time.perf_counter()
        for _ in range(number):
            fn()
        samples.append((time.perf_counter() - start) / number)
    return 1e6 * statistics.median(samples) / per_call


def _field(grid, seed: int):
    """A smooth band-limited field of mass 2 drawn from the seed."""
    import numpy as np
    from dnlslab import Field, Spectrum, mass

    rng = np.random.default_rng(seed)
    c = np.zeros(grid.N, dtype=np.complex128)
    for m in range(-8, 9):
        c[m % grid.N] = (rng.standard_normal() + 1j * rng.standard_normal()) * math.exp(-abs(m) / 3)
    f = Spectrum(grid, c).field()
    return Field(grid, f.values * math.sqrt(2.0 / mass(f)))


def micro_timings(seed: int) -> dict:
    """µs per call of each public layer function, keyed by metric name."""
    from dnlslab import (SimConfig, TorusGrid, conserved_report, ecal,
                         gauge_profile, mu, proof_sample, rhs_dnls1, rhs_dnls2,
                         simulate)
    from dnlslab.gn import field_norms

    out = {}
    for N in SIZES:
        grid = TorusGrid(2.0 * math.pi, N)
        u = _field(grid, seed)
        v = gauge_profile(u, 0.75)
        mu_v, ecal_v = mu(v), ecal(v)
        n = STEPS[N]
        timed = {
            "dynamics.rhs_dnls1_us": (lambda: rhs_dnls1(u), 1),
            "dynamics.rhs_dnls2_us": (lambda: rhs_dnls2(v, 0.75, mu_v), 1),
            "functionals.conserved_report_us": (lambda: conserved_report(v), 1),
            "diagnostics.proof_sample_us": (lambda: proof_sample(v, 1.0, ecal_v), 1),
            "gn.field_norms_us": (lambda: field_norms(v), 1),
            "gauge.gauge_profile_us": (lambda: gauge_profile(u, 0.75), 1),
        }
        for integrator in ("ifrk4", "etdrk4"):
            sim = SimConfig(dt=1e-5, T=n * 1e-5, record_stride=n,
                            equation="dnls2", integrator=integrator)
            timed[f"dynamics.step_us.{integrator}"] = (
                lambda sim=sim: simulate(v, sim), n)
        with warnings.catch_warnings():
            warnings.simplefilter("ignore")
            for name, (fn, per_call) in timed.items():
                out[f"{name}.N{N}"] = _time_us(fn, per_call)
    return out
