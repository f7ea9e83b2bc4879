"""Serialization of run results: CSV with a fixed 17-significant-digit float
format, JSON run summaries, trajectory frames, and a generated plot script."""

from __future__ import annotations

import csv
import hashlib
import io
import json
import math
import os

import numpy as np

from .dynamics import Trajectory


# The one number format of every CSV table: a float is written as
# format(x, FLOAT_FORMAT), which "%" + FLOAT_FORMAT gives too, and a bool as
# its BOOL_TEXT.
FLOAT_FORMAT = ".17g"
BOOL_TEXT = {False: "false", True: "true"}


def fmt_value(v) -> str:
    if v is None:
        return ""
    if isinstance(v, (bool, np.bool_)):
        return BOOL_TEXT[bool(v)]
    if isinstance(v, (float, np.floating)):
        return format(float(v), FLOAT_FORMAT)
    return str(v)


# The %-format of each exact type that a row template fills with the value
# itself; every other value takes a %s slot, filled with its cell text.
_NUMBER_FIELDS = {float: "%" + FLOAT_FORMAT, np.float64: "%" + FLOAT_FORMAT,
                  int: "%d"}


def _row_template(types: tuple) -> tuple[str, tuple[int, ...]]:
    """The %-template of a row whose values have these exact types, and the
    positions of its %s slots."""
    fields = [_NUMBER_FIELDS.get(t, "%s") for t in types]
    return (",".join(fields) + "\n",
            tuple(i for i, field in enumerate(fields) if field == "%s"))


def _cell_text(text: str, lone: bool) -> str:
    """text as csv.writer writes it as a cell, alone in its row (lone: an
    empty text is written "") or among others, quoted where csv.writer
    quotes."""
    buf = io.StringIO()
    csv.writer(buf, lineterminator="\n").writerow((text,) if lone else (text, ""))
    return buf.getvalue()[:-1 if lone else -2]


def write_csv(path: str, header, rows) -> None:
    """header, then rows, each value written as fmt_value writes it.

    A row that is a str is a line its maker has formatted already, its
    terminating newline included, and is written verbatim. Every other row,
    the empty row included, is written through the %-template of its tuple
    of value types, made once per table, and gets the bytes csv.writer
    gives it: a float or np.float64 is written by %.17g, an int by %d, and
    any other value fills a %s slot with its cell, fmt_value's text of it as
    csv.writer renders it. Each distinct cell is made once per table, keyed
    on its text, not on the value: equal values, such as np.float32(0.0)
    and np.float32(-0.0), can have different texts."""
    templates, cells = {}, {}
    with open(path, "w", newline="") as fh:
        csv.writer(fh, lineterminator="\n").writerow(header)
        for row in rows:
            if type(row) is str:
                fh.write(row)
                continue
            types = tuple(map(type, row))
            entry = templates.get(types)
            if entry is None:
                entry = templates[types] = _row_template(types)
            template, slots = entry
            if slots:
                row, lone = list(row), len(row) == 1
                for i in slots:
                    key = fmt_value(row[i]), lone
                    cell = cells.get(key)
                    if cell is None:
                        cell = cells[key] = _cell_text(*key)
                    row[i] = cell
            fh.write(template % tuple(row))


def content_hash(doc: dict) -> str:
    """Content hash of the canonical config document."""
    canonical = json.dumps(doc, sort_keys=True, separators=(",", ":"))
    return hashlib.sha256(canonical.encode()).hexdigest()


def _finite_or_none(v):
    """v with each non-finite float in it, at any depth, replaced by None."""
    if isinstance(v, dict):
        return {k: _finite_or_none(x) for k, x in v.items()}
    if isinstance(v, (list, tuple)):
        return [_finite_or_none(x) for x in v]
    return None if isinstance(v, float) and not math.isfinite(v) else v


def write_summary(path: str, payload: dict) -> None:
    """payload as strict JSON: a non-finite float is written as null."""
    with open(path, "w") as fh:
        json.dump(_finite_or_none(payload), fh, indent=2, sort_keys=True,
                  allow_nan=False)
        fh.write("\n")


def write_frames(path: str, traj: Trajectory) -> None:
    """Trajectory frames as a compressed npz (times, stacked values, L, N)."""
    np.savez_compressed(path, t=traj.times, values=traj.values,
                        L=traj.grid.L, N=traj.grid.N)


PLOT_SCRIPT = """\
#!/usr/bin/env python3
\"\"\"Generated plotting script: relative drift of each conserved column.\"\"\"
import csv
import sys

import matplotlib
matplotlib.use("Agg")
import matplotlib.pyplot as plt

path = sys.argv[1] if len(sys.argv) > 1 else "conserved.csv"
with open(path) as fh:
    rows = list(csv.DictReader(fh))
t = [float(r["t"]) for r in rows]
fig, ax = plt.subplots(figsize=(7, 4))
for col in ("M", "H", "E", "P", "mu", "Ecal"):
    x0 = float(rows[0][col])
    scale = abs(x0) if x0 != 0 else 1.0
    ax.plot(t, [abs(float(r[col]) - x0) / scale for r in rows], label=col)
ax.set_yscale("log")
ax.set_xlabel("t")
ax.set_ylabel("relative drift")
ax.legend()
fig.tight_layout()
fig.savefig(path.rsplit(".", 1)[0] + "_drift.png", dpi=150)
"""


def write_plot_script(out_dir: str) -> str:
    path = os.path.join(out_dir, "plot_drift.py")
    with open(path, "w") as fh:
        fh.write(PLOT_SCRIPT)
    return path
