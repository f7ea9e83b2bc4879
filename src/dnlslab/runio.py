"""Serialization of run results: CSV with a fixed 17-significant-digit float
format, JSON run summaries, trajectory frames, and a generated plot script."""

from __future__ import annotations

import csv
import hashlib
import json
import math
import os

import numpy as np

from .dynamics import Trajectory


def fmt_value(v) -> str:
    if v is None:
        return ""
    if isinstance(v, (bool, np.bool_)):
        return "true" if v else "false"
    if isinstance(v, (float, np.floating)):
        return f"{float(v):.17g}"
    return str(v)


# fmt_value's fast path: the formatter of each common exact type, giving the
# string fmt_value gives. A type not listed, a subclass included, goes through
# fmt_value itself.
_FORMATTERS = {
    float: lambda v: format(v, ".17g"),
    np.float64: lambda v: format(float(v), ".17g"),
    int: str,
    str: str,
    bool: lambda v: "true" if v else "false",
    type(None): lambda v: "",
}


# The %-format of each exact type whose fmt_value text csv.writer never
# quotes; a bool goes in as its fmt_value text.
_TEMPLATE_FIELDS = {float: "%.17g", np.float64: "%.17g", int: "%d", bool: "%s"}


def _row_template(types: tuple) -> tuple[str, list[int]] | None:
    """The %-template of a row whose values have these exact types, and the
    positions of its bools; None for the empty row or a type not in
    _TEMPLATE_FIELDS, which csv.writer writes."""
    if not types or not all(t in _TEMPLATE_FIELDS for t in types):
        return None
    return (",".join(_TEMPLATE_FIELDS[t] for t in types) + "\n",
            [i for i, t in enumerate(types) if t is bool])


def write_csv(path: str, header, rows) -> None:
    """header, then rows, each value written as fmt_value writes it.

    A row of floats, np.float64s, ints and bools is written through one
    %-template per tuple of value types, made once per table; it gives the
    bytes csv.writer gives. Every other row goes through csv.writer."""
    formatter = _FORMATTERS.get
    bool_text = _FORMATTERS[bool]
    templates: dict = {}
    with open(path, "w", newline="") as fh:
        writer = csv.writer(fh, lineterminator="\n")
        writer.writerow(header)
        for row in rows:
            types = tuple(map(type, row))
            if types not in templates:
                templates[types] = _row_template(types)
            template = templates[types]
            if template is None:
                writer.writerow([formatter(type(v), fmt_value)(v) for v in row])
                continue
            text, bools = template
            if bools:
                row = list(row)
                for i in bools:
                    row[i] = bool_text(row[i])
            fh.write(text % tuple(row))


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
