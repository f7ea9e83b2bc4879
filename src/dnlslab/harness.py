"""Experiment drivers behind the CLI subcommands.

Each driver is a pure-ish function from a validated RunConfig to one
Outcome: the CSV tables it produces, the fields it adds to summary.json, its
status line and its exit code. The CLI writes every Outcome the same way, so
it stays a thin argparse/IO shell and tests can exercise the drivers directly.
"""

from __future__ import annotations

import math
from concurrent.futures import ProcessPoolExecutor
from dataclasses import dataclass, replace
from functools import partial

import numpy as np

from .config import ConfigError, GnAuditBlock, RunConfig, ScanPair
from .diagnostics import (CaseRecord, DiagnosticsSample, ZeroFieldError,
                          case_report)
from .dynamics import (BlowupGuardError, NonFiniteError, SimConfig,
                       SimulationError, Trajectory, pde_residual, simulate,
                       simulate_batch, step_count)
from .functionals import ConservedReport, conserved_report, mu
from .gauge import gauge_profile, gauge_trajectory
from .gn import (CGN, field_norms, gn0_extension_record, gn1_record,
                 mass_threshold)
from .grid import Field, Spectrum, TorusGrid
from .initial_data import DataSpec, build

EXIT_OK = 0
EXIT_CONFIG = 1
EXIT_BLOWUP = 2
EXIT_NONFINITE = 3
EXIT_GN_VIOLATION = 4
EXIT_VERIFICATION = 5

GAUGE_BETA = 0.75

GN_AUDIT_COLUMNS = ("field_id", "L", "delta", "lhs", "rhs", "slack", "satisfied",
                    "flap_l2grad", "flap_l4", "flap_l6")
SCAN_COLUMNS = ("L", "delta", "mass_fraction", "mass", "threshold",
                "below_threshold", "max_h1dot", "h1dot_ratio", "drift_M",
                "drift_P", "drift_Ecal", "n_case1", "n_case2", "n_violations",
                "exit_reason")
GAUGE_CHECK_COLUMNS = ("t", "discrepancy", "residual")


@dataclass
class Outcome:
    """What one command produces.

    tables: CSV file name -> (columns, rows); summary: the fields summary.json
    adds to the config echo; status: the console text after
    "<command>: <exit_reason>, "; traj: the trajectory behind frames.npz and
    the drift plot script, set by simulate only.
    """
    tables: dict[str, tuple[tuple[str, ...], list[tuple]]]
    summary: dict
    status: str
    exit_code: int
    exit_reason: str
    traj: Trajectory | None = None


def grid_of(cfg: RunConfig) -> TorusGrid:
    return TorusGrid(cfg.grid.L, cfg.grid.N)


def _build_data(spec: DataSpec, grid: TorusGrid, where: str = "", **changes) -> Field:
    """build spec, with changes applied, on grid; a spec that does not fit is
    a config error on the data block, and where names the grid for it."""
    try:
        return build(replace(spec, **changes), grid)
    except ValueError as e:
        raise ConfigError(f"data: {e}{where}") from e


def _table(cls, records) -> tuple[tuple[str, ...], list[tuple]]:
    """A CSV table of records of type cls: its COLUMNS, read off each record."""
    return cls.COLUMNS, [tuple(getattr(r, c) for c in cls.COLUMNS) for r in records]


def drift_stats(reports: list[ConservedReport]) -> dict[str, float]:
    """Max drift per conserved column, relative to max(|X(0)|, 1e-9).

    The floor keeps the ratio meaningful when a conserved value sits at
    roundoff zero (e.g. the energy of a unit plane wave).
    """
    out = {}
    first = reports[0]
    for name in ConservedReport.COLUMNS[1:]:
        x0 = getattr(first, name)
        worst = max(abs(getattr(r, name) - x0) for r in reports)
        out[name] = worst / max(abs(x0), 1e-9)
    return out


def _conserved_outputs(reports: list[ConservedReport]) -> tuple[dict, dict]:
    """conserved.csv, and the summary fields on it: the max drift and the
    initial value of each conserved column."""
    first = reports[0]
    initial = {name: getattr(first, name) for name in ConservedReport.COLUMNS[1:]}
    return ({"conserved.csv": _table(ConservedReport, reports)},
            {"max_drifts": drift_stats(reports), "conserved_initial": initial})


def _conserved_reports(traj: Trajectory) -> list[ConservedReport]:
    """conserved_report of every frame of traj, one call per chunk of
    Trajectory.chunks."""
    return [report for rows, f in traj.chunks()
            for report in conserved_report(f, traj.times[rows])]


def _bound_chain(vtraj: Trajectory, delta: float, exit_code: int, reason: str
                 ) -> tuple[list[ConservedReport], list[CaseRecord], int, int, str]:
    """Conserved reports, case records and flagged-frame count of a gauged
    trajectory, then the exit code and reason: a flagged frame turns an ok
    exit into a bound-chain violation. An overflow or a division by an
    underflowed norm in the case report, or a nonzero frame whose norm
    underflows to zero there, ends the analysis with no records, and turns an
    ok exit into non-finite."""
    reports = _conserved_reports(vtraj)
    try:
        records = case_report(vtraj, delta, reports[0])
    except (ArithmeticError, ZeroFieldError):
        records = []
        if exit_code == EXIT_OK:
            exit_code, reason = EXIT_NONFINITE, "non-finite"
    n_flagged = sum(1 for r in records if r.flagged)
    if n_flagged and exit_code == EXIT_OK:
        exit_code, reason = EXIT_VERIFICATION, "bound-chain-violation"
    return reports, records, n_flagged, exit_code, reason


def _member_record(result: Trajectory | SimulationError
                   ) -> tuple[Trajectory, int, str, float | None]:
    """(trajectory, exit code, exit reason, hit time) of one simulated member;
    on a guard or non-finite stop, the trajectory is the partial one."""
    if isinstance(result, BlowupGuardError):
        return result.partial, EXIT_BLOWUP, "blowup-guard", result.t
    if isinstance(result, NonFiniteError):
        return result.partial, EXIT_NONFINITE, "non-finite", result.t
    return result, EXIT_OK, "ok", None


def _simulate_partial(u0: Field, sim: SimConfig
                      ) -> tuple[Trajectory, int, str, float | None]:
    try:
        result = simulate(u0, sim)
    except (BlowupGuardError, NonFiniteError) as e:
        result = e
    return _member_record(result)


def run_simulation(cfg: RunConfig) -> Outcome:
    """Simulate the configured equation from the configured data."""
    u0 = _build_data(cfg.data, grid_of(cfg))
    traj, code, reason, guard_t = _simulate_partial(u0, cfg.sim)
    tables, summary = _conserved_outputs(_conserved_reports(traj))
    return Outcome(tables, {**summary, "guard_time": guard_t},
                   f"max drifts {summary['max_drifts']}", code, reason, traj)


def run_gauge_check(cfg: RunConfig) -> Outcome:
    """Evolve the ungauged flow, gauge the trajectory, evolve the gauged flow
    from the gauged initial data, and compare frame by frame."""
    grid = grid_of(cfg)
    beta, tol = cfg.gauge_check.beta, cfg.gauge_check.tolerance
    u0 = _build_data(cfg.data, grid)
    sim_u = replace(cfg.sim, equation="dnls1")
    sim_v = replace(cfg.sim, equation="dnls2", beta=beta)
    traj_u, code, reason, _ = _simulate_partial(u0, sim_u)
    if code == EXIT_OK:
        traj_v, code, reason, _ = _simulate_partial(gauge_profile(u0, beta), sim_v)
    rows, max_disc, max_res = [], None, None  # None when a flow stopped early
    if code == EXIT_OK:
        gauged = gauge_trajectory(traj_u, beta)
        discrepancies = [math.sqrt(float(np.sum(np.abs(d) ** 2)) * grid.dx)
                         for d in gauged.values - traj_v.values]
        residuals = [None] * len(gauged.times)
        uniform = _uniform_prefix(gauged)
        if len(uniform.times) >= 3:
            mu0 = mu(Field(grid, traj_u.values[0]))
            inner = pde_residual(uniform, "dnls2", beta, mu0)
            residuals[1:1 + len(inner)] = inner.tolist()
        rows = list(zip(gauged.times.tolist(), discrepancies, residuals))
        max_disc = max(discrepancies)
        max_res = max((r for r in residuals if r is not None), default=None)
        if not max_disc < tol:
            code, reason = EXIT_VERIFICATION, "verification-failed"
    shown = "n/a" if max_disc is None else f"{max_disc:.3e}"
    return Outcome({"gauge_check.csv": (GAUGE_CHECK_COLUMNS, rows)},
                   {"max_discrepancy": max_disc, "max_residual": max_res,
                    "tolerance": tol},
                   f"max discrepancy {shown} (tolerance {tol:g})", code, reason)


def _uniform_prefix(traj: Trajectory) -> Trajectory:
    """traj without its final frame when that frame closes a shorter interval
    (record_stride not dividing the step count), so the frames left are
    uniformly spaced."""
    times = traj.times
    if len(times) >= 3 and not math.isclose(times[-1] - times[-2],
                                            times[1] - times[0], rel_tol=1e-9):
        return Trajectory(traj.grid, times[:-1], traj.values[:-1])
    return traj


def audit_coefficients(block: GnAuditBlock) -> np.ndarray:
    """Deterministic corpus of random band-limited spectra, FFT order: one
    row of length block.N per field id, the zero field first, as id 0."""
    rng = np.random.default_rng(block.seed)
    band = min(block.max_mode, block.N // 3)
    envelope_scale = max(2.0, band / 3.0)
    modes = range(-band, band + 1)
    slots = np.array(modes) % block.N
    envelope = np.array([math.exp(-abs(m) / envelope_scale) for m in modes])
    coeffs = np.zeros((block.num_fields + 1, block.N), dtype=np.complex128)
    for c in coeffs[1:]:
        scale = 10.0 ** rng.uniform(-1.0, 1.0)
        # the draws of mode m, from -band up: its real part, then its imaginary
        normals = rng.standard_normal(2 * len(modes))
        z = normals[0::2] + 1j * normals[1::2]
        c[slots] = scale * z * envelope
    return coeffs


def run_gn_audit(block: GnAuditBlock) -> Outcome:
    """Audit the periodic inequality, the line inequality on the flap
    extension, and the enlargement chain between their right sides, for every
    (field, L, delta) combination.

    corrupt_constant multiplies the sharp constant inside the audited bounds
    only (a fault-injection hook; 1.0 in production). A row whose norms
    overflow (an lhs or rhs that is not finite) audits nothing: it is not a
    violation, and it makes the exit non-finite. The norms of each L are
    computed on the corpus in the chunks of TorusGrid.row_chunks, with
    numpy's overflow warnings off: the exit code reports an overflow."""
    constant = CGN * block.corrupt_constant
    rows = []
    n_violations = n_non_finite = 0
    corpus = audit_coefficients(block)
    for L in block.L_values:
        grid = TorusGrid(L, block.N)
        with np.errstate(over="ignore", invalid="ignore"):
            norms_of = [norms for rows in grid.row_chunks(len(corpus))
                        for norms in field_norms(Spectrum(grid, corpus[rows]).field())]
        for field_id, norms in enumerate(norms_of):
            for delta in block.delta_values:
                rec1 = gn1_record(norms, delta, constant)
                rec0, prof = gn0_extension_record(norms, delta, constant)
                chain_ok = rec0.rhs <= rec1.rhs * (1.0 + 1e-12)
                ok = rec1.satisfied and rec0.satisfied and chain_ok
                if not all(map(math.isfinite, (rec1.lhs, rec1.rhs, rec0.lhs, rec0.rhs))):
                    n_non_finite += 1
                elif not ok:
                    n_violations += 1
                rows.append((field_id, L, delta, rec1.lhs, rec1.rhs, rec1.slack,
                             ok, prof.flap_l2grad, prof.flap_l4, prof.flap_l6))
    code, reason = ((EXIT_NONFINITE, "non-finite") if n_non_finite
                    else (EXIT_GN_VIOLATION, "gn-violations") if n_violations
                    else (EXIT_OK, "ok"))
    return Outcome({"gn_audit.csv": (GN_AUDIT_COLUMNS, rows)},
                   {"rows": len(rows), "violations": n_violations},
                   f"{len(rows)} rows, {n_violations} violations",
                   code, reason)


def run_scan_group(cfg: RunConfig, members: list[tuple]) -> list[tuple]:
    """Step scan members that share (L, N, dt) as one gauged batch.

    A member is (pair, mass fraction, gauged initial field), its pair's N and
    dt resolved; returns (summary row, diagnostics table, exit code) per
    member, in order."""
    dt = members[0][0].dt
    # about 100 recorded frames regardless of dt
    sim = replace(cfg.sim, equation="dnls2", beta=GAUGE_BETA, dt=dt,
                  record_stride=max(1, step_count(cfg.sim.T, dt) // 100))
    results = []
    for (pair, frac, _), member in zip(
            members, simulate_batch([v0 for _, _, v0 in members], sim)):
        traj, exit_code, reason, _ = _member_record(member)
        reports, records, n_violations, exit_code, reason = _bound_chain(
            traj, pair.delta, exit_code, reason)
        threshold = mass_threshold(pair.L, pair.delta)
        target_mass = frac * threshold
        drifts = drift_stats(reports)
        h1 = [r.sample.h1dot for r in records if not math.isnan(r.sample.f)]
        max_h1 = max(h1) if h1 else 0.0
        h1_0 = records[0].sample.h1dot if records else 0.0
        ratio = max_h1 / h1_0 if h1_0 > 0 else math.inf if max_h1 > 0 else 0.0
        n_case1 = sum(1 for r in records if r.sample.case_tag == "case1")
        n_case2 = sum(1 for r in records if r.sample.case_tag == "case2")
        row = (pair.L, pair.delta, frac, target_mass, threshold,
               target_mass < threshold, max_h1, ratio, drifts["M"],
               drifts["P"], drifts["Ecal"], n_case1, n_case2, n_violations, reason)
        results.append((row, _table(DiagnosticsSample, [r.sample for r in records]),
                        exit_code))
    return results


def diagnostics_name(pair: ScanPair, frac: float) -> str:
    """The diagnostics file of one scan member."""
    return f"diagnostics_L{pair.L:g}_d{pair.delta:g}_f{frac:g}.csv"


def run_threshold_scan(cfg: RunConfig, jobs: int = 1) -> Outcome:
    """Run the gauged simulation for every (pair, mass fraction) and collect
    per-frame diagnostics.

    Exit is nonzero only when a BELOW-threshold run violates the bound chain
    (or its numerics fail); above-threshold rows are reported but never gate.
    Every member's data is built on its pair's grid before anything is
    stepped, so a pair dt above sim.T, data that does not build there, or
    two members whose diagnostics files would share a name, is a ConfigError.
    """
    members, names = [], {}
    for i, pair in enumerate(cfg.threshold_scan.pairs):
        try:  # the grid rule again, at the resolved N
            pair = replace(pair, N=pair.N or cfg.grid.N, dt=pair.dt or cfg.sim.dt)
        except ValueError as e:
            raise ConfigError(f"threshold_scan.pairs[{i}]: {e}") from e
        if not pair.dt <= cfg.sim.T:
            raise ConfigError(f"threshold_scan.pairs[{i}].dt: must be in (0, sim.T]")
        grid = TorusGrid(pair.L, pair.N)
        where = (f", on the grid of threshold_scan.pairs[{i}] "
                 f"(L = {pair.L:g}, N = {pair.N})")
        threshold = mass_threshold(pair.L, pair.delta)
        for frac in cfg.threshold_scan.mass_fractions:
            name = diagnostics_name(pair, frac)
            if name in names:
                raise ConfigError(f"{names[name]} and threshold_scan.pairs[{i}] at "
                                  f"mass fraction {frac!r} both write {name}")
            names[name] = f"threshold_scan.pairs[{i}] at mass fraction {frac!r}"
            u0 = _build_data(cfg.data, grid, where, target_mass=frac * threshold)
            members.append((pair, frac, gauge_profile(u0, GAUGE_BETA)))
    # Members sharing (L, N, dt) are stepped as one batch; groups keep the
    # order of their first member, and results go back to member order.
    groups: dict[tuple, list[int]] = {}
    for i, (pair, _, _) in enumerate(members):
        groups.setdefault((pair.L, pair.N, pair.dt), []).append(i)
    batches = [[members[i] for i in idx] for idx in groups.values()]
    run_group = partial(run_scan_group, cfg)
    # a fork-based pool starts all its workers at the first submit
    workers = min(jobs, len(batches))
    if workers > 1:
        with ProcessPoolExecutor(max_workers=workers) as pool:
            done = list(pool.map(run_group, batches))
    else:
        done = [run_group(batch) for batch in batches]
    results = [None] * len(members)
    for idx, group_results in zip(groups.values(), done):
        for i, res in zip(idx, group_results):
            results[i] = res

    below = SCAN_COLUMNS.index("below_threshold")
    exit_code, reason = next(((code, row[-1]) for row, _, code in results
                              if row[below] and code != EXIT_OK), (EXIT_OK, "ok"))
    tables = {"scan_summary.csv": (SCAN_COLUMNS, [row for row, _, _ in results])}
    tables.update(zip(names, (diagnostics for _, diagnostics, _ in results)))
    return Outcome(tables, {"runs": len(results)}, f"{len(results)} runs",
                   exit_code, reason)


def run_diagnose(cfg: RunConfig) -> Outcome:
    """Produce the per-frame proof diagnostics of a beta = 3/4 gauged
    trajectory of the configured data.

    The configured data is always the ungauged initial state: with equation
    dnls1 the trajectory is simulated then gauged, with dnls2 the gauged flow
    is simulated from the gauged data directly.
    """
    u0 = _build_data(cfg.data, grid_of(cfg))
    if cfg.sim.equation == "dnls1":
        traj, exit_code, reason, _ = _simulate_partial(u0, cfg.sim)
        # rebinding frees the ungauged stack before the analysis
        traj = gauge_trajectory(traj, GAUGE_BETA)
    else:
        traj, exit_code, reason, _ = _simulate_partial(
            gauge_profile(u0, GAUGE_BETA), replace(cfg.sim, beta=GAUGE_BETA))

    reports, records, n_violations, exit_code, reason = _bound_chain(
        traj, cfg.delta, exit_code, reason)
    tables, summary = _conserved_outputs(reports)
    table = _table(DiagnosticsSample, [r.sample for r in records])
    return Outcome({"diagnostics.csv": table, **tables},
                   {**summary, "violations": n_violations},
                   f"{n_violations} flagged frames", exit_code, reason)
