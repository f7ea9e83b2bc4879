"""The four benchmark workloads: config generation from the shipped configs,
expected output shapes, and the run-output correctness gate."""

from __future__ import annotations

import hashlib
import json
import math
import os
from dataclasses import dataclass

# Horizons, cut so that one run lasts about a second or less: the host's
# speed changes every few seconds, and a run is scaled to reference speed by
# the kernel times just before and after it (run.py). The scan members take
# 50 and 500 steps and record 51 and 101 frames; gauge steps each flow 1,000
# times; frames steps 1,500 times and records every 5th step, 301 frames.
SCAN_T = 0.01
GAUGE_T = 0.1
FRAMES_T = 0.15
FRAMES_STRIDE = 5


@dataclass(frozen=True)
class Workload:
    name: str
    command: str
    shipped: str
    why: str
    changes: dict       # block -> keys set over the shipped config
    seed_block: str     # the block whose "seed" the workload seed sets


WORKLOADS = {w.name: w for w in (
    Workload("scan", "threshold-scan", "threshold_scan.json",
             "stepping-bound gauged dnls2 ensemble; the only workload whose "
             "members share (L, N, dt), so batched stepping acts here",
             {"sim": {"T": SCAN_T}}, "data"),
    Workload("gauge", "gauge-check", "gauge_check.json",
             "stepping of both equations at N = 256 with no shared batch; "
             "shows dnls1 kernel changes and stepping the two flows together",
             {"sim": {"T": GAUGE_T}}, "data"),
    Workload("frames", "diagnose", "diagnose.json",
             "dense recording: about half the time is per-frame analysis, "
             "where shared padding of the functionals acts",
             {"sim": {"T": FRAMES_T, "record_stride": FRAMES_STRIDE}}, "data"),
    Workload("audit", "gn-audit", "gn_audit.json",
             "no time stepping: GN field norms and a 12,012-row CSV write; "
             "a dynamics change must not move it", {}, "gn_audit"),
)}


def make_config(root: str, workload: Workload, seed: int, out_dir: str) -> dict:
    """The shipped config of the workload with its changes, seed and out_dir."""
    with open(os.path.join(root, "configs", workload.shipped)) as fh:
        doc = json.load(fh)
    for block, values in workload.changes.items():
        doc[block].update(values)
    doc[workload.seed_block]["seed"] = seed
    doc["outputs"]["dir"] = out_dir
    return doc


def n_steps(T: float, dt: float) -> int:
    return max(1, math.ceil(T / dt - 1e-9))


def n_frames(steps: int, stride: int) -> int:
    """Recorded frames: t = 0, every stride-th step, and the final step."""
    return 1 + steps // stride + (1 if steps % stride else 0)


@dataclass(frozen=True)
class Expected:
    """What a correct run writes, derived from the workload's config."""

    csv_rows: dict        # file-name pattern -> sorted data-row counts
    steps: int            # integrator steps over all simulations
    frames: int           # recorded frames analysed (scan and frames only)


def expected(workload: Workload, doc: dict) -> Expected:
    if workload.name == "audit":
        ga = doc["gn_audit"]
        fields = ga["num_fields"] + (1 if ga.get("include_zero_field", True) else 0)
        rows = fields * len(ga["L_values"]) * len(ga["delta_values"])
        return Expected({"gn_audit.csv": [rows]}, 0, 0)
    sim = doc["sim"]
    if workload.name == "scan":
        scan = doc["threshold_scan"]
        members = []
        for pair in scan["pairs"]:
            steps = n_steps(sim["T"], pair.get("dt", sim["dt"]))
            # the scan records about 100 frames per member whatever dt is
            frames = n_frames(steps, max(1, steps // 100))
            members += [(steps, frames)] * len(scan["mass_fractions"])
        return Expected(
            {"scan_summary.csv": [len(members)],
             "diagnostics_*.csv": sorted(f for _, f in members)},
            sum(s for s, _ in members), sum(f for _, f in members))
    steps = n_steps(sim["T"], sim["dt"])
    frames = n_frames(steps, sim.get("record_stride", 1))
    if workload.name == "gauge":
        return Expected({"gauge_check.csv": [frames]}, 2 * steps, 0)
    return Expected({"diagnostics.csv": [frames], "conserved.csv": [frames]},
                    steps, frames)


def csv_schemas() -> dict:
    """File-name pattern -> the column tuple the package documents for it."""
    from dnlslab.diagnostics import DiagnosticsSample
    from dnlslab.functionals import ConservedReport
    from dnlslab.harness import (GAUGE_CHECK_COLUMNS, GN_AUDIT_COLUMNS,
                                 SCAN_COLUMNS)
    return {"gn_audit.csv": GN_AUDIT_COLUMNS, "scan_summary.csv": SCAN_COLUMNS,
            "gauge_check.csv": GAUGE_CHECK_COLUMNS,
            "diagnostics_*.csv": DiagnosticsSample.COLUMNS,
            "diagnostics.csv": DiagnosticsSample.COLUMNS,
            "conserved.csv": ConservedReport.COLUMNS}


def _pattern(name: str) -> str:
    return "diagnostics_*.csv" if name.startswith("diagnostics_") else name


def output_digest(out_dir: str) -> str:
    """sha256 over the sorted relative paths and contents of out_dir."""
    h = hashlib.sha256()
    for dirpath, dirnames, filenames in os.walk(out_dir):
        dirnames.sort()
        for name in sorted(filenames):
            path = os.path.join(dirpath, name)
            h.update(os.path.relpath(path, out_dir).encode() + b"\0")
            with open(path, "rb") as fh:
                h.update(hashlib.sha256(fh.read()).digest())
    return h.hexdigest()


def check_outputs(out_dir: str, exp: Expected, schemas: dict) -> tuple[list[str], int]:
    """Problems with one run's CSV files, and the data rows they hold."""
    problems = []
    rows_by_pattern: dict[str, list[int]] = {}
    total = 0
    for name in sorted(os.listdir(out_dir)):
        if not name.endswith(".csv"):
            continue
        pattern = _pattern(name)
        with open(os.path.join(out_dir, name)) as fh:
            lines = fh.read().splitlines()
        header = tuple(lines[0].split(",")) if lines else ()
        if header != tuple(schemas.get(pattern, ())):
            problems.append(f"{name}: header {header} differs from the schema")
        rows_by_pattern.setdefault(pattern, []).append(len(lines) - 1)
        total += max(0, len(lines) - 1)
    for pattern, want in exp.csv_rows.items():
        got = sorted(rows_by_pattern.pop(pattern, []))
        if got != want:
            problems.append(f"{pattern}: data rows {got}, expected {want}")
    for pattern in rows_by_pattern:
        problems.append(f"unexpected output {pattern}")
    if not os.path.isfile(os.path.join(out_dir, "summary.json")):
        problems.append("summary.json missing")
    return problems, total


class Gate:
    """Run-output correctness gate of one workload and seed.

    A run fails when its exit code is not 0, a CSV header differs from the
    documented schema, a row count is wrong, or the output directory's digest
    differs from the first run's.
    """

    def __init__(self, exp: Expected, schemas: dict):
        self.exp = exp
        self.schemas = schemas
        self.digest: str | None = None
        self.attempted = 0
        self.failed = 0
        self.problems: list[str] = []
        self.csv_rows = 0

    def check(self, exit_code: int | None, out_dir: str) -> bool:
        self.attempted += 1
        problems = [] if exit_code == 0 else [f"exit code {exit_code}, expected 0"]
        if os.path.isdir(out_dir):
            found, self.csv_rows = check_outputs(out_dir, self.exp, self.schemas)
            problems += found
            digest = output_digest(out_dir)
            if self.digest is None:
                self.digest = digest
            elif digest != self.digest:
                problems.append(f"output digest {digest[:12]} differs from "
                                f"{self.digest[:12]} of the first run")
        else:
            problems.append(f"no output directory {out_dir}")
        if problems:
            self.failed += 1
            self.problems += problems
        return not problems
