"""Serialization of run results: CSV with a fixed 17-significant-digit float
format, JSON run summaries, trajectory frames, and a generated plot script."""

from __future__ import annotations

import csv
import hashlib
import json
import math
import os
from operator import itemgetter

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


# fmt_value's fast path: the formatter of each common exact type, giving the
# string fmt_value gives. A type not listed, a subclass included, goes through
# fmt_value itself.
_FORMATTERS = {
    float: lambda v: format(v, FLOAT_FORMAT),
    np.float64: lambda v: format(float(v), FLOAT_FORMAT),
    int: str,
    str: str,
    bool: BOOL_TEXT.__getitem__,
    type(None): lambda v: "",
}


# The %-format of each exact type whose fmt_value text csv.writer never
# quotes; a bool's text goes into the {} slot when a row's bool values are
# known, and its own value is consumed by %.0s.
_TEMPLATE_FIELDS = {float: "%" + FLOAT_FORMAT, np.float64: "%" + FLOAT_FORMAT,
                    int: "%d", bool: "{}%.0s"}


def _row_template(types: tuple) -> tuple[str, list[int]] | None:
    """The %-template of a row whose values have these exact types, with a
    {} slot for each bool's text, and the positions of its bools; None for
    the empty row or a type not in _TEMPLATE_FIELDS, which csv.writer
    writes."""
    if not types or not all(t in _TEMPLATE_FIELDS for t in types):
        return None
    return (",".join(_TEMPLATE_FIELDS[t] for t in types) + "\n",
            [i for i, t in enumerate(types) if t is bool])


class _Cache(dict):
    """A dict that makes the value of a missing key with make(key), once."""

    def __init__(self, make):
        super().__init__()
        self.make = make

    def __missing__(self, key):
        value = self[key] = self.make(key)
        return value


def _baked_templates(types: tuple):
    """What write_csv keeps per tuple of value types: None for a row that
    csv.writer writes, else (bools, baked). For a row with no bools, bools
    is None and baked its template; else bools reads a row's bool values
    (one bool, or a tuple of several), and baked maps them to the template
    with their texts in its {} slots."""
    template = _row_template(types)
    if template is None:
        return None
    text, positions = template
    if not positions:
        return None, text
    several = len(positions) > 1
    return itemgetter(*positions), _Cache(lambda values: text.format(
        *map(fmt_value, values if several else (values,))))


def write_csv(path: str, header, rows) -> None:
    """header, then rows, each value written as fmt_value writes it.

    A row that is a str is a line its maker has formatted already, its
    terminating newline included, and is written verbatim. A row of floats,
    np.float64s, ints and bools is written through one %-template per tuple
    of value types and of bool values, made once per table, with each bool's
    text baked in; it gives the bytes csv.writer gives. Every other row goes
    through csv.writer."""
    formatter = _FORMATTERS.get
    templates = _Cache(_baked_templates)
    with open(path, "w", newline="") as fh:
        writer = csv.writer(fh, lineterminator="\n")
        writer.writerow(header)
        for row in rows:
            if type(row) is str:
                fh.write(row)
                continue
            entry = templates[tuple(map(type, row))]
            if entry is None:
                writer.writerow([formatter(type(v), fmt_value)(v) for v in row])
                continue
            bools, baked = entry
            fh.write((baked if bools is None else baked[bools(row)]) % tuple(row))


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
