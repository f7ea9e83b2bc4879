"""Spans and counts recorded around the calls into each dnlslab module.

The tracer wraps module attributes at run time (the package itself carries no
instrumentation) and restores every one of them when the traced block ends,
so untraced runs execute unpatched code.
"""

from __future__ import annotations

import contextlib
import functools
import math
import time
from collections import Counter, defaultdict


class Tracer:
    """In-memory spans [name, start, end, parent] and counts.

    A count is credited to every span name open when it is made, so
    counts[(span, what)] is the number of `what` events inside `span`.
    """

    def __init__(self, clock=time.perf_counter):
        self.clock = clock
        self.spans: list[list] = []
        self.stack: list[int] = []
        self.counts: Counter = Counter()

    def count(self, what: str, n: int = 1) -> None:
        self.counts[(None, what)] += n
        for name in {self.spans[i][0] for i in self.stack}:
            self.counts[(name, what)] += n

    def wrap(self, fn, name, note=None):
        """fn inside a span; name may be a function of fn's arguments, and
        note(tracer, name, result, *args) runs after the span closes."""

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            label = name(*args, **kwargs) if callable(name) else name
            self.count(label)
            idx = len(self.spans)
            self.spans.append([label, 0.0, 0.0, self.stack[-1] if self.stack else None])
            self.stack.append(idx)
            self.spans[idx][1] = self.clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                self.spans[idx][2] = self.clock()
                self.stack.pop()
            if note is not None:
                note(self, label, result, *args)
            return result

        return traced

    def counter(self, fn, what: str):
        """fn unchanged, except that every call counts one `what`."""

        @functools.wraps(fn)
        def counted(*args, **kwargs):
            self.count(what)
            return fn(*args, **kwargs)

        return counted

    def totals(self) -> tuple[dict, dict]:
        """Per span name: total duration and self time (duration minus the
        time its child spans cover)."""
        total: dict = defaultdict(float)
        own: dict = defaultdict(float)
        for name, start, end, parent in self.spans:
            total[name] += end - start
            own[name] += end - start
            if parent is not None:
                own[self.spans[parent][0]] -= end - start
        return total, own


@contextlib.contextmanager
def patched(patches):
    """Set (owner, attribute, value) triples; restore the originals on exit."""
    saved = []
    try:
        for owner, attr, value in patches:
            saved.append((owner, attr, owner.__dict__[attr]))
            setattr(owner, attr, value)
        yield
    finally:
        for owner, attr, original in reversed(saved):
            setattr(owner, attr, original)


def _sim_name(u0, config):
    return f"dynamics.simulate.{config.equation}"


def _note_simulate(tracer, name, traj, u0, config):
    tracer.counts[(name, "steps")] += max(1, math.ceil(config.T / config.dt - 1e-9))
    tracer.counts[(name, "frames")] += len(traj.frames)


def _note_case_report(tracer, name, records, traj, *rest):
    tracer.counts[(name, "frames")] += len(traj.frames)


def _note_write_csv(tracer, name, result, path, *rest):
    with open(path, "rb") as fh:
        data = fh.read()
    tracer.counts[(name, "bytes")] += len(data)
    tracer.counts[(name, "rows")] += data.count(b"\n") - 1


def layer_patches(tracer: Tracer) -> list:
    """Every attribute the traced run replaces, with its traced version."""
    import numpy
    from dnlslab import cli, harness
    from dnlslab.grid import TorusGrid

    def span(owner, attr, name, note=None):
        return owner, attr, tracer.wrap(owner.__dict__[attr], name, note)

    patches = [
        span(cli, "main", "cli.main"),
        span(cli, "load_config", "config.load_config"),
        span(cli, "write_csv", "runio.write_csv", _note_write_csv),
        span(cli, "write_summary", "runio.write_summary"),
        span(harness, "simulate", _sim_name, _note_simulate),
        span(harness, "pde_residual", "dynamics.pde_residual"),
        span(harness, "gauge_trajectory", "gauge.gauge_trajectory"),
        span(harness, "conserved_report", "functionals.conserved_report"),
        span(harness, "case_report", "diagnostics.case_report", _note_case_report),
        span(harness, "field_norms", "gn.field_norms"),
        span(harness, "gn1_record", "gn.records"),
        span(harness, "gn0_extension_record", "gn.records"),
        span(harness, "audit_coefficients", "harness.audit_coefficients"),
        span(harness, "build", "initial_data.build"),
        span(TorusGrid, "refine2", "grid.refine2"),
    ]
    patches += [span(cli, attr, "harness.run") for attr in
                ("run_threshold_scan", "run_gauge_check", "run_diagnose",
                 "run_gn_audit", "run_simulation")]
    patches += [(numpy.fft, attr, tracer.counter(numpy.fft.__dict__[attr], "fft"))
                for attr in ("fft", "ifft")]
    return patches


LAYERS = ("cli", "config", "harness", "initial_data", "dynamics", "gauge",
          "functionals", "grid", "diagnostics", "gn", "runio")


def _ratio(num: float, den: float) -> float:
    return num / den if den else 0.0


def layer_metrics(tracer: Tracer) -> dict:
    """Per-layer figures of one traced workload run."""
    total, own = tracer.totals()
    c = tracer.counts
    calls = lambda name: c[(None, name)]
    sims = [n for n in total if n.startswith("dynamics.simulate.")]
    steps = sum(c[(n, "steps")] for n in sims)

    def fft_per_step(names):
        # the initial transform and one inverse per recorded frame are not
        # part of a step; every other transform in simulate is
        ffts = sum(c[(n, "fft")] - c[(n, "frames")] for n in names)
        return _ratio(ffts, sum(c[(n, "steps")] for n in names))

    simulate_s = sum(total[n] for n in sims)
    frames = calls("functionals.conserved_report")
    pads_in_frames = (c[("functionals.conserved_report", "grid.refine2")]
                      + c[("diagnostics.case_report", "grid.refine2")])
    wall = total["cli.main"]
    out = {
        "dynamics.simulate_s": simulate_s,
        "dynamics.us_per_step": 1e6 * _ratio(simulate_s, steps),
        "dynamics.fft_per_step": fft_per_step(sims),
        "dynamics.fft_per_step.dnls1": fft_per_step(
            [n for n in sims if n.endswith("dnls1")]),
        "dynamics.fft_per_step.dnls2": fft_per_step(
            [n for n in sims if n.endswith("dnls2")]),
        "dynamics.pde_residual_s": total["dynamics.pde_residual"],
        "gauge.gauge_trajectory_s": total["gauge.gauge_trajectory"],
        "functionals.conserved_report_s": total["functionals.conserved_report"],
        "functionals.conserved_report_us":
            1e6 * _ratio(total["functionals.conserved_report"], frames),
        "grid.refine2_s": total["grid.refine2"],
        "grid.refine2_per_frame": _ratio(pads_in_frames, frames),
        "grid.refine2_per_field": _ratio(c[("gn.field_norms", "grid.refine2")],
                                         calls("gn.field_norms")),
        "diagnostics.case_report_s": total["diagnostics.case_report"],
        "diagnostics.us_per_frame": 1e6 * _ratio(
            total["diagnostics.case_report"],
            c[("diagnostics.case_report", "frames")]),
        "gn.field_norms_s": total["gn.field_norms"],
        "gn.field_norms_us": 1e6 * _ratio(total["gn.field_norms"],
                                          calls("gn.field_norms")),
        "gn.records_s": total["gn.records"],
        "harness.audit_coefficients_s": total["harness.audit_coefficients"],
        "initial_data.build_s": total["initial_data.build"],
        "runio.write_csv_s": total["runio.write_csv"],
        "runio.csv_rows": c[("runio.write_csv", "rows")],
        "runio.csv_bytes": c[("runio.write_csv", "bytes")],
        "runio.write_summary_s": total["runio.write_summary"],
        "config.load_config_s": total["config.load_config"],
    }
    shares = dict.fromkeys(LAYERS, 0.0)
    for name, t in own.items():
        shares[name.split(".")[0]] += t
    out.update({f"{layer}.share": _ratio(t, wall) for layer, t in shares.items()})
    return out
