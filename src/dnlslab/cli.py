"""Command line front end.

Subcommands: simulate, gauge-check, gn-audit, threshold-scan, diagnose.
Exit codes (stable contract):
    0 success, 1 config error, 2 blowup guard hit, 3 non-finite samples,
    4 GN audit violations, 5 verification failure (gauge-check discrepancy
    above tolerance, or a below-threshold bound-chain violation).
"""

from __future__ import annotations

import argparse
import os
import sys
from dataclasses import replace

from . import __version__
from .config import ConfigError, RunConfig, config_to_dict, load_config
from .diagnostics import DiagnosticsSample
from .harness import (EXIT_CONFIG, GAUGE_CHECK_COLUMNS, GN_AUDIT_COLUMNS,
                      SCAN_COLUMNS, diagnostics_rows, initial_values,
                      run_diagnose, run_gauge_check, run_gn_audit,
                      run_simulation, run_threshold_scan)
from .functionals import ConservedReport
from .runio import (content_hash, write_csv, write_frames, write_plot_script,
                    write_summary)


def _say(quiet: bool, msg: str) -> None:
    if not quiet:
        print(msg)


def _prepare_out(cfg: RunConfig, out_override: str | None) -> tuple[RunConfig, str]:
    if out_override:
        cfg = replace(cfg, outputs=replace(cfg.outputs, dir=out_override))
    out_dir = cfg.outputs.dir
    os.makedirs(out_dir, exist_ok=True)
    return cfg, out_dir


def _summary_payload(cfg: RunConfig, exit_reason: str, **extra) -> dict:
    doc = config_to_dict(cfg)
    payload = {
        "version": __version__,
        "config": doc,
        "content_hash": content_hash(doc),
        "exit_reason": exit_reason,
    }
    payload.update(extra)
    return payload


def _cmd_simulate(cfg: RunConfig, out_dir: str, quiet: bool, jobs: int) -> int:
    outcome = run_simulation(cfg)
    rows = [r.as_row() for r in outcome.reports]
    write_csv(os.path.join(out_dir, "conserved.csv"), ConservedReport.COLUMNS, rows)
    if "frames" in cfg.outputs.formats and outcome.traj is not None:
        write_frames(os.path.join(out_dir, "frames.npz"), outcome.traj)
    if "plot" in cfg.outputs.formats:
        write_plot_script(out_dir)
    write_summary(os.path.join(out_dir, "summary.json"),
                  _summary_payload(cfg, outcome.exit_reason,
                                   max_drifts=outcome.drifts,
                                   conserved_initial=initial_values(outcome.reports),
                                   guard_time=outcome.guard_time))
    _say(quiet, f"simulate: {outcome.exit_reason}, "
                f"max drifts {outcome.drifts}")
    return outcome.exit_code


def _cmd_gauge_check(cfg: RunConfig, out_dir: str, quiet: bool, jobs: int) -> int:
    outcome = run_gauge_check(cfg)
    write_csv(os.path.join(out_dir, "gauge_check.csv"), GAUGE_CHECK_COLUMNS,
              outcome.rows)
    write_summary(os.path.join(out_dir, "summary.json"),
                  _summary_payload(cfg, outcome.exit_reason,
                                   max_discrepancy=outcome.max_discrepancy,
                                   max_residual=outcome.max_residual,
                                   tolerance=outcome.tolerance))
    disc = outcome.max_discrepancy
    _say(quiet, f"gauge-check: {outcome.exit_reason}, "
                f"max discrepancy {'n/a' if disc is None else f'{disc:.3e}'} "
                f"(tolerance {outcome.tolerance:g})")
    return outcome.exit_code


def _cmd_gn_audit(cfg: RunConfig, out_dir: str, quiet: bool, jobs: int) -> int:
    outcome = run_gn_audit(cfg.gn_audit)
    write_csv(os.path.join(out_dir, "gn_audit.csv"), GN_AUDIT_COLUMNS, outcome.rows)
    write_summary(os.path.join(out_dir, "summary.json"),
                  _summary_payload(cfg, outcome.exit_reason,
                                   rows=len(outcome.rows),
                                   violations=outcome.n_violations))
    _say(quiet, f"gn-audit: {outcome.exit_reason}, {len(outcome.rows)} rows, "
                f"{outcome.n_violations} violations")
    return outcome.exit_code


def _cmd_threshold_scan(cfg: RunConfig, out_dir: str, quiet: bool, jobs: int) -> int:
    outcome = run_threshold_scan(cfg, jobs=jobs)
    write_csv(os.path.join(out_dir, "scan_summary.csv"), SCAN_COLUMNS,
              [res.summary_row for res in outcome.results])
    for res in outcome.results:
        name = (f"diagnostics_L{res.task.L:g}_d{res.task.delta:g}"
                f"_f{res.task.mass_fraction:g}.csv")
        write_csv(os.path.join(out_dir, name), DiagnosticsSample.COLUMNS,
                  res.diagnostics)
    write_summary(os.path.join(out_dir, "summary.json"),
                  _summary_payload(cfg, outcome.exit_reason,
                                   runs=len(outcome.results)))
    _say(quiet, f"threshold-scan: {outcome.exit_reason}, "
                f"{len(outcome.results)} runs")
    return outcome.exit_code


def _cmd_diagnose(cfg: RunConfig, out_dir: str, quiet: bool, jobs: int) -> int:
    outcome = run_diagnose(cfg)
    write_csv(os.path.join(out_dir, "diagnostics.csv"), DiagnosticsSample.COLUMNS,
              diagnostics_rows(outcome.records))
    rows = [r.as_row() for r in outcome.reports]
    write_csv(os.path.join(out_dir, "conserved.csv"), ConservedReport.COLUMNS, rows)
    write_summary(os.path.join(out_dir, "summary.json"),
                  _summary_payload(cfg, outcome.exit_reason,
                                   max_drifts=outcome.drifts,
                                   conserved_initial=initial_values(outcome.reports),
                                   violations=outcome.n_violations))
    _say(quiet, f"diagnose: {outcome.exit_reason}, "
                f"{outcome.n_violations} flagged frames")
    return outcome.exit_code


_COMMANDS = {
    "simulate": _cmd_simulate,
    "gauge-check": _cmd_gauge_check,
    "gn-audit": _cmd_gn_audit,
    "threshold-scan": _cmd_threshold_scan,
    "diagnose": _cmd_diagnose,
}


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="dnlslab",
        description="Pseudospectral simulation and verification lab for the "
                    "derivative NLS equation on the circle.")
    sub = parser.add_subparsers(dest="command", required=True)
    for name in _COMMANDS:
        p = sub.add_parser(name)
        p.add_argument("--config", required=True, help="path to a JSON config")
        p.add_argument("--out", default=None, help="output directory override")
        p.add_argument("--quiet", action="store_true", help="suppress status lines")
        p.add_argument("--jobs", type=int, default=1,
                       help="concurrent (L, N, dt) groups for scans")
    return parser


def main(argv: list[str] | None = None) -> int:
    args = build_parser().parse_args(argv)
    try:
        cfg = load_config(args.config)
        cfg, out_dir = _prepare_out(cfg, args.out)
        if args.jobs < 1:
            raise ConfigError("--jobs must be >= 1")
        return _COMMANDS[args.command](cfg, out_dir, args.quiet, args.jobs)
    except ConfigError as e:
        print(f"config error: {e}", file=sys.stderr)
        return EXIT_CONFIG


def entry() -> None:
    sys.exit(main())


if __name__ == "__main__":
    entry()
