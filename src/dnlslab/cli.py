"""Command line front end.

Subcommands: simulate, gauge-check, gn-audit, threshold-scan, diagnose.
Exit codes (stable contract), by the exit reason that harness.EXIT_CODES maps:
    0 ok, 1 config error, 2 blowup-guard, 3 non-finite, 4 gn-violations,
    5 verification-failed (gauge-check discrepancy not below tolerance),
    5 bound-chain-violation (a below-threshold bound-chain violation).
"""

from __future__ import annotations

import argparse
import os
import sys
from dataclasses import replace

from . import __version__
from .config import ConfigError, RunConfig, config_to_dict, load_config
from .harness import (EXIT_CONFIG, Outcome, run_diagnose, run_gauge_check,
                      run_gn_audit, run_simulation, run_threshold_scan)
from .runio import (content_hash, write_csv, write_frames, write_plot_script,
                    write_summary)


def _say(quiet: bool, msg: str) -> None:
    if not quiet:
        print(msg)


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


def _write_outcome(command: str, cfg: RunConfig, quiet: bool, outcome: Outcome) -> int:
    """Create the output directory, write the outcome's tables, frames, plot
    script and summary.json into it, print its status line and return its
    exit code."""
    out_dir = cfg.outputs.dir
    os.makedirs(out_dir, exist_ok=True)
    for name, (columns, rows) in outcome.tables.items():
        write_csv(os.path.join(out_dir, name), columns, rows)
    if outcome.traj is not None:
        if "frames" in cfg.outputs.formats:
            write_frames(os.path.join(out_dir, "frames.npz"), outcome.traj)
        if "plot" in cfg.outputs.formats:
            write_plot_script(out_dir)
    write_summary(os.path.join(out_dir, "summary.json"),
                  _summary_payload(cfg, outcome.exit_reason, **outcome.summary))
    _say(quiet, f"{command}: {outcome.exit_reason}, {outcome.status}")
    return outcome.exit_code


def _check_out_dir(path: str) -> None:
    """Reject an output directory that os.makedirs would refuse, before the
    command runs. A non-directory in the way is named; any other refusal, such
    as a name too long for the file system, is found by creating the missing
    part of the path and removing it again."""
    missing = []
    head = path
    while head and not os.path.exists(head):
        missing.append(head)
        head = os.path.dirname(head)
    if head and not os.path.isdir(head):
        raise ConfigError(f"output directory {path!r} cannot be created: "
                          f"{head!r} is not a directory")
    try:
        os.makedirs(path, exist_ok=True)
    except (OSError, ValueError) as e:
        raise ConfigError(f"output directory {path!r} cannot be created: "
                          f"{getattr(e, 'strerror', None) or e}") from e
    finally:
        for made in missing:  # deepest first
            try:
                os.rmdir(made)
            except OSError:
                pass


# The drivers are looked up in the module globals at call time, so that a
# patched cli.run_* is the one called.
_COMMANDS = {
    "simulate": lambda cfg, jobs: run_simulation(cfg),
    "gauge-check": lambda cfg, jobs: run_gauge_check(cfg),
    "gn-audit": lambda cfg, jobs: run_gn_audit(cfg.gn_audit),
    "threshold-scan": lambda cfg, jobs: run_threshold_scan(cfg, jobs=jobs),
    "diagnose": lambda cfg, jobs: run_diagnose(cfg),
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
        if args.jobs < 1:
            raise ConfigError("--jobs must be >= 1")
        if args.out is not None:
            try:
                cfg = replace(cfg, outputs=replace(cfg.outputs, dir=args.out))
            except ValueError as e:
                raise ConfigError(f"--out: {e}") from e
        _check_out_dir(cfg.outputs.dir)
        outcome = _COMMANDS[args.command](cfg, args.jobs)
        return _write_outcome(args.command, cfg, args.quiet, outcome)
    except ConfigError as e:
        print(f"config error: {e}", file=sys.stderr)
        return EXIT_CONFIG


def entry() -> None:
    sys.exit(main())


if __name__ == "__main__":
    entry()
