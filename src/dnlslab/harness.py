"""Experiment drivers behind the CLI subcommands.

Each driver is a pure-ish function from a validated RunConfig to one
Outcome: the CSV tables it produces, the fields it adds to summary.json, its
status line and its exit reason. The CLI writes every Outcome the same way, so
it stays a thin argparse/IO shell and tests can exercise the drivers directly.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, replace
from functools import partial
from itertools import repeat
from operator import attrgetter

import numpy as np

from . import dynamics
from .config import ConfigError, GnAuditBlock, RunConfig, ScanPair
from .diagnostics import (CaseRecord, DiagnosticsSample, ZeroFieldError,
                          case_report)
from .dynamics import (BlowupGuardError, NonFiniteError, SimConfig,
                       SimulationError, Trajectory, pde_residual, simulate,
                       simulate_batch, step_count)
from .functionals import ConservedReport, _moments, conserved_report, mu
from .gauge import gauge_profile, gauge_trajectory
from .gn import (CGN, FieldNorms, audit_sweep, below_threshold, field_norms,
                 mass_threshold)
from .grid import Field, TorusGrid, dealias_band, ifft, lp_norm
from .initial_data import DataSpec, build
from .runio import BOOL_TEXT, FLOAT_FORMAT

# bench/spans.py wraps these two names; nothing calls them (ROADMAP item 1
# drops this binding when the spans move to the audit sweep)
gn0_extension_record = gn1_record = audit_sweep

EXIT_OK = 0
EXIT_CONFIG = 1
# the exit code of each reason a run can end with; a config error exits 1
EXIT_CODES = {"ok": EXIT_OK, "blowup-guard": 2, "non-finite": 3, "gn-violations": 4,
              "verification-failed": 5, "bound-chain-violation": 5}

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

    tables: CSV file name -> (columns, rows), where a row is a tuple of
    values or, in gn-audit's table, its text line (a str ending in a
    newline), which runio.write_csv writes verbatim; summary: the fields
    summary.json adds to the config echo; status: the console text after
    "<command>: <exit_reason>, "; traj: the trajectory behind frames.npz and
    the drift plot script, set by simulate only.
    """
    tables: dict[str, tuple[tuple[str, ...], list[tuple | str]]]
    summary: dict
    status: str
    exit_reason: str
    traj: Trajectory | None = None

    @property
    def exit_code(self) -> int:
        return EXIT_CODES[self.exit_reason]


def first_failure(*reasons: str) -> str:
    """The first of reasons that is not "ok", or "ok": a run's exit reason,
    its driver listing the reasons it can end with in order of precedence."""
    return next((reason for reason in reasons if reason != "ok"), "ok")


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
    return cls.COLUMNS, list(map(attrgetter(*cls.COLUMNS), records))


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


def _conserved_reports(traj: Trajectory, moments: list[tuple] | None = None
                       ) -> list[ConservedReport]:
    """conserved_report of every frame of traj, one call per chunk of
    Trajectory.chunks, handed that chunk's functionals._moments pass from
    moments when given, with numpy's overflow warnings off: a value that
    overflows is written as it is, and the exit code reports the run."""
    with np.errstate(over="ignore", invalid="ignore"):
        return [report for (rows, f), m in zip(traj.chunks, moments or repeat(None))
                for report in conserved_report(f, traj.times[rows], moments=m)]


def _bound_chain(vtraj: Trajectory, delta: float, reason: str
                 ) -> tuple[list[ConservedReport], list[CaseRecord], int, str]:
    """Conserved reports, case records and flagged-frame count of a gauged
    trajectory whose run ended with reason, then the run's reason: the first
    failure of reason, the analysis and a flagged frame (a bound-chain
    violation). An overflow or a division by an underflowed norm in the case
    report (raised, or a norm that is not finite), or a nonzero frame whose
    norm underflows to zero there, ends the analysis with no records, and
    fails it as non-finite; numpy is told not to warn. Both reports read one
    full functionals._moments pass per chunk, taken here; only its
    reductions are kept across chunks, no padded array."""
    with np.errstate(over="ignore", invalid="ignore"):
        moments = [_moments(f) for _, f in vtraj.chunks]
    reports = _conserved_reports(vtraj, moments)
    try:
        with np.errstate(over="ignore", invalid="ignore"):
            records = case_report(vtraj, delta, reports[0], moments=moments)
        if not all(map(math.isfinite, (n for r in records for n in (
                r.sample.l4, r.sample.l6, r.sample.h1dot, r.sample.holder_upper)))):
            raise OverflowError("a norm of the case report is not finite")
    except (ArithmeticError, ZeroFieldError):
        records, reason = [], first_failure(reason, "non-finite")
    n_flagged = sum(1 for r in records if r.flagged)
    return reports, records, n_flagged, first_failure(
        reason, "bound-chain-violation" if n_flagged else "ok")


def _member_record(result: Trajectory | SimulationError
                   ) -> tuple[Trajectory, str, float | None]:
    """(trajectory, exit reason, hit time) of one simulated member; on a guard
    or non-finite stop, the trajectory is the partial one."""
    if isinstance(result, BlowupGuardError):
        return result.partial, "blowup-guard", result.t
    if isinstance(result, NonFiniteError):
        return result.partial, "non-finite", result.t
    return result, "ok", None


def _simulate_partial(u0: Field, sim: SimConfig
                      ) -> tuple[Trajectory, str, float | None]:
    try:
        result = simulate(u0, sim)
    except (BlowupGuardError, NonFiniteError) as e:
        result = e
    return _member_record(result)


def run_simulation(cfg: RunConfig) -> Outcome:
    """Simulate the configured equation from the configured data."""
    u0 = _build_data(cfg.data, grid_of(cfg))
    traj, reason, guard_t = _simulate_partial(u0, cfg.sim)
    tables, summary = _conserved_outputs(_conserved_reports(traj))
    return Outcome(tables, {**summary, "guard_time": guard_t},
                   f"max drifts {summary['max_drifts']}", reason, traj)


def run_gauge_check(cfg: RunConfig) -> Outcome:
    """Evolve the ungauged flow from the configured data and the gauged flow
    from the gauged initial data, stepped as one batch (a flow that stops
    leaves it, the other carries on), gauge the ungauged trajectory, and
    compare the frames both flows recorded: after a guard or non-finite
    stop, those before the first stop. The reason is the first failure of
    the dnls1 flow, the dnls2 flow and the comparison."""
    grid = grid_of(cfg)
    beta, tol = cfg.gauge_check.beta, cfg.gauge_check.tolerance
    u0 = _build_data(cfg.data, grid)
    sims = [replace(cfg.sim, equation="dnls1"),
            replace(cfg.sim, equation="dnls2", beta=beta)]
    (traj_u, reason_u, _), (traj_v, reason_v, _) = map(
        _member_record, simulate_batch([u0, gauge_profile(u0, beta)], sims))
    n = min(len(traj_u.times), len(traj_v.times))
    gauged = gauge_trajectory(Trajectory(grid, traj_u.times[:n], traj_u.values[:n]),
                              beta)
    with np.errstate(over="ignore"):  # an overflowing norm reads inf
        discrepancies = lp_norm(Field(grid, gauged.values - traj_v.values[:n]), 2)
    residuals = [None] * n
    uniform = _uniform_prefix(gauged)
    if len(uniform.times) >= 3:
        mu0 = mu(Field(grid, traj_u.values[0]))
        inner = pde_residual(uniform, "dnls2", beta, mu0)
        residuals[1:1 + len(inner)] = inner.tolist()
    rows = list(zip(gauged.times.tolist(), discrepancies, residuals))
    max_disc = max(discrepancies)
    max_res = max((r for r in residuals if r is not None), default=None)
    reason = first_failure(reason_u, reason_v,
                           "ok" if max_disc < tol else "verification-failed")
    return Outcome({"gauge_check.csv": (GAUGE_CHECK_COLUMNS, rows)},
                   {"max_discrepancy": max_disc, "max_residual": max_res,
                    "tolerance": tol},
                   f"max discrepancy {max_disc:.3e} (tolerance {tol:g})", reason)


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
    band = min(block.max_mode, dealias_band(block.N))
    envelope_scale = max(2.0, band / 3.0)
    modes = range(-band, band + 1)
    slots = np.array(modes) % block.N
    envelope = np.array([math.exp(-abs(m) / envelope_scale) for m in modes])
    # per field, in draw order: its scale, then the draws of mode m, from
    # -band up, its real part and then its imaginary part; z views the draws
    # as complex numbers, and scale*z*envelope is formed in place. The scale
    # is 10**uniform(-1, 1), drawn as numpy draws it, low + (high - low)
    # times the next double, without the cost of a uniform call.
    scales = np.empty((block.num_fields, 1))
    normals = np.empty((block.num_fields, len(modes), 2))
    for scale, draws in zip(scales, normals):
        scale[0] = 10.0 ** (-1.0 + 2.0 * rng.random())
        rng.standard_normal(out=draws)
    z = normals.view(np.complex128)[..., 0]
    np.multiply(scales, z, out=z)
    np.multiply(z, envelope, out=z)
    coeffs = np.zeros((block.num_fields + 1, block.N), dtype=np.complex128)
    coeffs[1:, slots] = z
    return coeffs


def _corpus_norms(block: GnAuditBlock) -> np.ndarray:
    """Per period of block, the columns of FieldNorms over its whole corpus,
    of shape (len(L_values), 4, num_fields + 1). The corpus is sampled in
    the chunks of TorusGrid.row_chunks, each chunk once, and gn.field_norms
    gives its norms on the grid of every period, each grid built once per
    run, in one call, with numpy's overflow warnings off: the exit code
    reports an overflow. The corpus is freed on return, before the table is
    made."""
    corpus = audit_coefficients(block)
    grids = [TorusGrid(L, block.N) for L in block.L_values]
    norms = np.empty((len(grids), len(FieldNorms._fields), len(corpus)))
    with np.errstate(over="ignore", invalid="ignore"):
        for chunk in grids[0].row_chunks(len(corpus)):
            samples = ifft(corpus[chunk] * block.N)
            samples.flags.writeable = False
            norms[..., chunk] = field_norms(Field(grids[0], samples), grids)
    return norms


def run_gn_audit(block: GnAuditBlock) -> Outcome:
    """Audit the periodic inequality, the line inequality on the flap
    extension, and the enlargement chain between their right sides, for every
    (field, L, delta) combination.

    corrupt_constant multiplies the sharp constant inside the audited bounds
    only (a fault-injection hook; 1.0 in production). A row whose norms
    overflow (an lhs or rhs that is not finite) audits nothing: it is not a
    violation, and it makes the exit non-finite. The rows of each L are one
    gn.audit_sweep of its norms from _corpus_norms, period by period in the
    order of L_values.

    The table's rows are its text lines, each formatted here in the number
    format of runio, and every repeated number is formatted once: L and
    delta once per run, a field's lhs once per period, and its flaps once
    per delta, in the first period, for audit_sweep forms them from f0_abs
    and delta alone, which no period changes. Only rhs, slack and satisfied
    are formatted per row."""
    constant = CGN * block.corrupt_constant
    n_violations = n_non_finite = 0
    norms = _corpus_norms(block)
    # the text of one float; a row's line: its head "field_id,L,delta,lhs,",
    # rhs, slack, satisfied, and the text of its flaps with the newline
    number = f"{{:{FLOAT_FORMAT}}}".format
    line = f"%s%{FLOAT_FORMAT},%{FLOAT_FORMAT},%s,%s"
    deltas = [number(delta) for delta in block.delta_values]
    lines, flaps = [], []
    for L, columns in zip(block.L_values, norms):
        values = columns.tolist()
        L_text = number(L)
        # the lhs of a field is its l6
        heads = [f"{field_id},{L_text},{delta},{lhs},"
                 for field_id, lhs in enumerate(map(number, values[1]))
                 for delta in deltas]
        # the first period formats the flaps, and every later one reuses them
        first = not flaps
        cases = audit_sweep(L, zip(*values), block.delta_values, constant)
        for k, (head, case) in enumerate(zip(heads, cases)):
            ok, finite, _, rhs, slack, _, _, _, _, _, l2grad, flap_l4, flap_l6 = case
            if first:
                flaps.append(f"{number(l2grad)},{number(flap_l4)},{number(flap_l6)}\n")
            if not finite:
                n_non_finite += 1
            elif not ok:
                n_violations += 1
            lines.append(line % (head, rhs, slack, BOOL_TEXT[ok], flaps[k]))
    reason = first_failure("non-finite" if n_non_finite else "ok",
                           "gn-violations" if n_violations else "ok")
    return Outcome({"gn_audit.csv": (GN_AUDIT_COLUMNS, lines)},
                   {"rows": len(lines), "violations": n_violations},
                   f"{len(lines)} rows, {n_violations} violations", reason)


def run_scan_group(cfg: RunConfig, members: list[tuple]) -> list[tuple]:
    """Step scan members that share (L, N, dt) as one gauged batch.

    A member is (pair, mass fraction, gauged initial field), its pair's N and
    dt resolved; returns (summary row, diagnostics table) per member, in
    order, the row ending with the member's exit reason."""
    dt = members[0][0].dt
    # about 100 recorded frames regardless of dt
    sim = replace(cfg.sim, equation="dnls2", beta=dynamics.GAUGE_BETA, dt=dt,
                  record_stride=max(1, step_count(cfg.sim.T, dt) // 100))
    results = []
    for (pair, frac, _), member in zip(
            members, simulate_batch([v0 for _, _, v0 in members], sim)):
        traj, reason, _ = _member_record(member)
        reports, records, n_violations, reason = _bound_chain(traj, pair.delta, reason)
        threshold = mass_threshold(pair.L, pair.delta)
        drifts = drift_stats(reports)
        # a degenerate frame's h1dot is 0.0
        max_h1 = max((r.sample.h1dot for r in records), default=0.0)
        h1_0 = records[0].sample.h1dot if records else 0.0
        ratio = max_h1 / h1_0 if h1_0 > 0 else math.inf if max_h1 > 0 else 0.0
        n_case1 = sum(1 for r in records if r.sample.case_tag == "case1")
        n_case2 = sum(1 for r in records if r.sample.case_tag == "case2")
        row = (pair.L, pair.delta, frac, frac * threshold, threshold,
               below_threshold(reports[0].M, pair.L, pair.delta), max_h1, ratio,
               drifts["M"], drifts["P"], drifts["Ecal"], n_case1, n_case2,
               n_violations, reason)
        results.append((row, _table(DiagnosticsSample, [r.sample for r in records])))
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
            members.append((pair, frac, gauge_profile(u0, dynamics.GAUGE_BETA)))
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
        # imported here: the process pool costs every other command start-up
        from concurrent.futures import ProcessPoolExecutor
        with ProcessPoolExecutor(max_workers=workers) as pool:
            done = list(pool.map(run_group, batches))
    else:
        done = [run_group(batch) for batch in batches]
    results = [None] * len(members)
    for idx, group_results in zip(groups.values(), done):
        for i, res in zip(idx, group_results):
            results[i] = res

    below = SCAN_COLUMNS.index("below_threshold")
    reason = first_failure(*(row[-1] for row, _ in results if row[below]))
    tables = {"scan_summary.csv": (SCAN_COLUMNS, [row for row, _ in results])}
    tables.update(zip(names, (diagnostics for _, diagnostics in results)))
    return Outcome(tables, {"runs": len(results)}, f"{len(results)} runs", reason)


def run_diagnose(cfg: RunConfig) -> Outcome:
    """Produce the per-frame proof diagnostics of a beta = 3/4 gauged
    trajectory of the configured data.

    The configured data is always the ungauged initial state: with equation
    dnls1 the trajectory is simulated then gauged, with dnls2 the gauged flow
    is simulated from the gauged data directly.
    """
    u0, beta = _build_data(cfg.data, grid_of(cfg)), dynamics.GAUGE_BETA
    if cfg.sim.equation == "dnls1":
        traj, reason, _ = _simulate_partial(u0, cfg.sim)
        # rebinding frees the ungauged stack before the analysis
        traj = gauge_trajectory(traj, beta)
    else:
        traj, reason, _ = _simulate_partial(gauge_profile(u0, beta),
                                            replace(cfg.sim, beta=beta))

    reports, records, n_violations, reason = _bound_chain(traj, cfg.delta, reason)
    tables, summary = _conserved_outputs(reports)
    table = _table(DiagnosticsSample, [r.sample for r in records])
    return Outcome({"diagnostics.csv": table, **tables},
                   {**summary, "violations": n_violations},
                   f"{n_violations} flagged frames", reason)
