"""Period covariance of the commands, checked end to end.

The flow on a circle of period L maps to the flow on the period L/lam under
x -> x/lam, t -> t/lam^2, and the GN audit of a corpus of Fourier
coefficients maps the same way under (L, delta) -> (L/lam, delta/lam). For
lam = 1, 4 and 4096 this script runs each command of COMMANDS on its shipped
config with the lam-map of its entry applied, requires the exit code of the
entry at every lam, and compares every output table with the one at lam = 1:
some columns byte for byte, others exactly after scaling by lam^degree (lam
is a power of two, so that scaling is exact). Every run must leave no
Traceback and no numpy RuntimeWarning on stderr. Entries with a nonzero exit
code check that a run stopped by the blowup guard or failing its audit stops
or fails in the same way, with the same rows, on every period.
Columns that take roots which are not binary fractions, or that scale with
lam and round differently, are not compared.

Run from the repository root:

    PYTHONPATH=src python tests/covariance.py [WORKDIR]

It writes the configs and outputs under WORKDIR (default cov) and exits
nonzero with a message at the first command that fails or the first
difference.
"""

from __future__ import annotations

import csv
import json
import subprocess
import sys
from dataclasses import dataclass, field, replace
from pathlib import Path
from typing import Callable

LAMBDAS = (1, 4, 4096)


@dataclass(frozen=True)
class Table:
    """One output table: a file name, or a function of the output directory
    giving the files in the order they pair across lam. rows, if set, is the
    row count each file must have; same holds the columns that must be
    byte-equal to lam = 1, and scaled maps a column to the degree d for which
    value * lam^d must equal the value at lam = 1 exactly."""

    files: str | Callable[[Path], list[Path]]
    same: tuple[str, ...] = ()
    scaled: dict[str, int] = field(default_factory=dict)
    rows: int | None = None


@dataclass(frozen=True)
class Command:
    """A command on configs/<config>.json, which must exit with exit_code.
    Its lam-map first sets the values of `fixed` (the run at lam = 1), keys
    that the shipped config lacks too, then divides each value at a path of
    `divide` by lam^power; a path is dotted keys, with * for every entry of
    a list, and a list of numbers at its end is divided entry by entry."""

    name: str
    config: str
    tables: tuple[Table, ...]
    divide: dict[str, int]
    fixed: dict[str, float] = field(default_factory=dict)
    exit_code: int = 0

    @property
    def stem(self) -> str:
        """The name of its configs and outputs under the work directory."""
        return self.config + (f"_exit{self.exit_code}" if self.exit_code else "")


def read_columns(path: Path) -> dict[str, list[str]]:
    with open(path, newline="") as fh:
        header, *rows = csv.reader(fh)
    return {name: [row[i] for row in rows] for i, name in enumerate(header)}


def member_diagnostics(out: Path) -> list[Path]:
    """The scan's diagnostics files in member order: their names embed L and
    delta, so they pair by order, not by name."""
    summary = read_columns(out / "scan_summary.csv")
    return [out / f"diagnostics_L{float(L):g}_d{float(d):g}_f{float(f):g}.csv"
            for L, d, f in zip(summary["L"], summary["delta"],
                               summary["mass_fraction"])]


# the scan depends on a pair only through delta/L; the diagnostics of each
# member keep their case tags and Holder bounds
THRESHOLD_SCAN = Command(
    "threshold-scan", "threshold_scan",
    fixed={"sim.T": 0.01},
    divide={"grid.L": 1, "sim.dt": 2, "sim.T": 2,
            "threshold_scan.pairs.*.L": 1,
            "threshold_scan.pairs.*.delta": 1,
            "threshold_scan.pairs.*.dt": 2},
    tables=(Table("scan_summary.csv",
                  same=("mass", "threshold", "mass_fraction",
                        "below_threshold", "h1dot_ratio", "drift_M",
                        "n_case1", "n_case2", "n_violations",
                        "exit_reason")),
            Table(member_diagnostics, same=("case_tag", "holder_upper"))))
GAUGE_CHECK = Command(
    "gauge-check", "gauge_check",
    fixed={"sim.T": 0.01, "sim.record_stride": 10},
    divide={"grid.L": 1, "sim.dt": 2, "sim.T": 2},
    tables=(Table("gauge_check.csv", same=("discrepancy",),
                  scaled={"t": 2, "residual": -2}),))
DIAGNOSE = Command(
    "diagnose", "diagnose",
    fixed={"sim.T": 0.05, "sim.record_stride": 10},
    divide={"grid.L": 1, "delta": 1, "sim.dt": 2, "sim.T": 2},
    tables=(Table("diagnostics.csv", rows=51,
                  same=("case_tag", "holder_upper"), scaled={"t": 2}),
            Table("conserved.csv", same=("M",), scaled={"mu": -1})))
# the same corpus of Fourier coefficients on each period
GN_AUDIT = Command(
    "gn-audit", "gn_audit",
    divide={"gn_audit.L_values": 1, "gn_audit.delta_values": 1},
    tables=(Table("gn_audit.csv", rows=12012,
                  same=("field_id", "satisfied"),
                  scaled={"L": 1, "delta": 1, "flap_l2grad": -1,
                          "flap_l4": 1, "flap_l6": 1}),))


def stopped(command: Command, rows: int) -> Command:
    """command with the blowup guard at 1.05 times the initial H^1 seminorm,
    on the shipped horizon: it exits 2 with the rows recorded before the
    stop in its first table."""
    first, *rest = command.tables
    return replace(command, fixed={"sim.guard_factor": 1.05}, exit_code=2,
                   tables=(replace(first, rows=rows), *rest))


COMMANDS = (
    THRESHOLD_SCAN, GAUGE_CHECK, DIAGNOSE, GN_AUDIT,
    # a halved sharp constant fails the audit and still writes every row
    replace(GN_AUDIT, fixed={"gn_audit.corrupt_constant": 0.5}, exit_code=4),
    stopped(DIAGNOSE, rows=12),
    stopped(GAUGE_CHECK, rows=12),
)


def _parents(node, keys):
    """The nodes at the dotted keys below node, * standing for every entry."""
    if not keys:
        yield node
        return
    head, *rest = keys
    for child in (node if head == "*" else [node[head]]):
        yield from _parents(child, rest)


def scaled_config(command: Command, lam: int, out: Path) -> dict:
    with open(f"configs/{command.config}.json") as fh:
        d = json.load(fh)
    d["outputs"]["dir"] = str(out)
    for path, value in command.fixed.items():
        *keys, last = path.split(".")
        for node in _parents(d, keys):
            node[last] = value
    for path, power in command.divide.items():
        *keys, last = path.split(".")
        for node in _parents(d, keys):
            old = node[last]
            node[last] = ([v / lam ** power for v in old] if isinstance(old, list)
                          else old / lam ** power)
    return d


def files(table: Table, out: Path) -> list[Path]:
    return [out / table.files] if isinstance(table.files, str) else table.files(out)


def numbers(cells: list[str], factor: float) -> list[float | None]:
    return [float(cell) * factor if cell else None for cell in cells]


def compare(table: Table, path: Path, base_path: Path, lam: int) -> int:
    """The row count of path, after it matched base_path; sys.exit with a
    message at the first difference."""
    got, base = read_columns(path), read_columns(base_path)
    n = len(next(iter(got.values())))
    if table.rows is not None and n != table.rows:
        sys.exit(f"{path}: {n} rows, want {table.rows}")
    for name in table.same:
        if got[name] != base[name]:
            sys.exit(f"{path}: {name} differs from {base_path}")
    for name, degree in table.scaled.items():
        if numbers(got[name], lam ** degree) != numbers(base[name], 1):
            sys.exit(f"{path}: {name} times lam^{degree} differs from {base_path}")
    return n


def check(command: Command, work: Path) -> None:
    outs = {}
    for lam in LAMBDAS:
        stem = f"{command.stem}{lam}"
        outs[lam] = work / stem
        config = work / f"{stem}.json"
        with open(config, "w") as fh:
            json.dump(scaled_config(command, lam, outs[lam]), fh)
        run = subprocess.run([sys.executable, "-m", "dnlslab", command.name,
                              "--config", str(config), "--quiet"],
                             stderr=subprocess.PIPE, text=True)
        sys.stderr.write(run.stderr)
        if run.returncode != command.exit_code:
            sys.exit(f"{command.name} at lam = {lam}: exit {run.returncode}, "
                     f"want {command.exit_code}")
        for trouble in ("Traceback", "RuntimeWarning"):
            if trouble in run.stderr:
                sys.exit(f"{command.name} at lam = {lam}: {trouble} on stderr")
    for lam in LAMBDAS:
        for table in command.tables:
            base, got = files(table, outs[1]), files(table, outs[lam])
            if len(got) != len(base):
                sys.exit(f"{outs[lam]}: {len(got)} files, want {len(base)}")
            rows = [compare(table, path, base_path, lam)
                    for base_path, path in zip(base, got)]
            label = (table.files if isinstance(table.files, str)
                     else f"{len(got)} {table.files.__name__} files")
            print(f"{command.name} (exit {command.exit_code}) at lam = {lam}: "
                  f"{label}, {sum(rows)} rows as at lam = 1")


def main(argv: list[str]) -> None:
    work = Path(argv[0] if argv else "cov")
    work.mkdir(parents=True, exist_ok=True)
    for command in COMMANDS:
        check(command, work)


if __name__ == "__main__":
    main(sys.argv[1:])
