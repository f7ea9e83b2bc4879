#!/usr/bin/env python3
"""Benchmark of the dnlslab CLI commands, end to end and layer by layer.

    python3 bench/run.py --workload scan --seed 1 --seconds 25 --trace 0

Runs one workload (scan, gauge, frames or audit) through dnlslab.cli.main
in-process: one closed-loop client, one run at a time, --jobs 1. After a
warm-up run it repeats the workload for --seconds and checks every run's
outputs. Each timed run is scaled to a reference host speed by a fixed
kernel timed just before and after it. With --trace 0 it reports the
end-to-end metrics; with --trace 1 it alternates untraced and traced runs and
reports the per-layer metrics and the micro-timings. The last line of
standard output is the JSON result; the full record goes to
bench/out/<workload>/result-seed<seed>-trace<trace>.json.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import platform
import resource
import shutil
import statistics
import subprocess
import sys
import time
import traceback

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
sys.path.insert(0, HERE)

from micro import micro_timings  # noqa: E402
from spans import Tracer, layer_metrics, layer_patches, patched  # noqa: E402
from workloads import WORKLOADS, Gate, csv_schemas, expected, make_config  # noqa: E402

OUT = os.path.join("bench", "out")
SETUP_REPEATS = 21
MIN_RUNS = 5
MIN_TRACED_RUNS = 2

# Host-speed reference. The host's speed switches between states about 1.7x
# apart that last seconds, and drifts over minutes (README, "Noise"). So
# every timed sample is bracketed by a fixed numpy kernel of the workloads'
# kind (small complex FFTs, elementwise products, float formatting), and the
# sample is reported at the speed where that kernel takes REF_S seconds.
REF_SIZE = 256
REF_REPEATS = 1500
REF_S = 0.04
# A sample counts only when the kernel's times before and after it differ by
# at most this share of their mean: the host kept one speed across it.
STEADY = 0.1

END_TO_END = ("wall_s", "rows_per_s", "setup_s", "peak_rss_mb")
# printed with the end-to-end metrics, but zero or undefined on some workloads
PRINTED = ("wall_s", "steps_per_s", "frames_per_s", "rows_per_s", "setup_s",
           "peak_rss_mb", "fail_rate")
UNITS = {"wall_s": "s", "steps_per_s": "1/s", "frames_per_s": "1/s",
         "rows_per_s": "1/s", "setup_s": "s", "peak_rss_mb": "MiB",
         "fail_rate": "ratio", "dynamics.us_per_step": "us",
         "diagnostics.us_per_frame": "us", "grid.refine2_per_frame": "1/frame",
         "grid.refine2_per_field": "1/field", "runio.csv_rows": "count",
         "runio.csv_bytes": "B"}

# Fresh interpreter: import the package and load the workload's config.
SETUP_CODE = ("import sys; sys.path.insert(0, sys.argv[1]); import dnlslab; "
              "from dnlslab.config import load_config; load_config(sys.argv[2])")


def unit(name: str) -> str:
    if name in UNITS:
        return UNITS[name]
    if name.endswith(".share"):
        return "ratio"
    if name.startswith("dynamics.fft_per_step"):
        return "1/step"
    return "us" if "_us" in name else "s"


def summarize(samples: list[float]) -> dict:
    """Median and sample count, plus the highest percentile (nearest rank)
    that has at least ten samples beyond it."""
    s = sorted(samples)
    n = len(s)
    out = {"median": statistics.median(s), "n": n}
    if n > 10:
        p = math.floor(100.0 * (1.0 - 10.0 / n))
        out[f"p{p}"] = s[max(0, math.ceil(p * n / 100.0) - 1)]
    return out


def import_package():
    src = os.path.join(ROOT, "src")
    sys.path.insert(0, src)
    import dnlslab
    if not os.path.abspath(dnlslab.__file__).startswith(src + os.sep):
        raise ImportError(f"dnlslab imported from {dnlslab.__file__}, not {src}")


def reference_seconds() -> float:
    """Time of the fixed reference kernel, which uses no dnlslab code."""
    import numpy as np

    x = np.exp(2j * np.pi * np.arange(REF_SIZE) / REF_SIZE) + 0.5
    w = np.linspace(1.0, 0.5, REF_SIZE)
    start = time.perf_counter()
    for _ in range(REF_REPEATS):
        y = np.fft.ifft(np.fft.fft(x) * w)
        repr(float((y * y.conj()).real.sum()))
    return time.perf_counter() - start


def at_reference_speed(seconds: float, before: float, after: float) -> float:
    """A sample's seconds scaled to the reference speed, from the reference
    kernel's times just before and just after it."""
    return seconds * REF_S / (0.5 * (before + after))


class Samples:
    """Timed samples, each bracketed by the reference kernel."""

    def __init__(self):
        self.at_ref: list[float] = []
        self.raw: list[float] = []
        self.steady: list[bool] = []

    def take(self, fn) -> None:
        """fn() returns its own seconds."""
        before = reference_seconds()
        seconds = fn()
        after = reference_seconds()
        self.at_ref.append(at_reference_speed(seconds, before, after))
        self.raw.append(seconds)
        self.steady.append(abs(after - before) <= STEADY * 0.5 * (before + after))

    def kept(self) -> list[float]:
        """The samples at reference speed during which the host kept one
        speed, or all of them when fewer than MIN_RUNS did."""
        kept = [s for s, steady in zip(self.at_ref, self.steady) if steady]
        return kept if len(kept) >= MIN_RUNS else self.at_ref


def setup_seconds(cfg_path: str) -> float:
    start = time.perf_counter()
    subprocess.run([sys.executable, "-c", SETUP_CODE, "src", cfg_path], check=True)
    return time.perf_counter() - start


def end_to_end(run_once, args, cfg_path, exp, gate, record) -> dict:
    run_once()  # warm-up
    # this process has now run the workload once; ru_maxrss is in KiB
    rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    walls, setup = Samples(), Samples()
    start = time.perf_counter()
    while time.perf_counter() - start < args.seconds or len(walls.raw) < MIN_RUNS:
        walls.take(run_once)
        # spread the set-up spawns over the window
        while (len(setup.raw) < SETUP_REPEATS and time.perf_counter() - start
               >= len(setup.raw) * args.seconds / SETUP_REPEATS):
            setup.take(lambda: setup_seconds(cfg_path))
    while len(setup.raw) < SETUP_REPEATS:
        setup.take(lambda: setup_seconds(cfg_path))
    wall = statistics.median(walls.kept())
    shown = {"wall_s": wall,
             "steps_per_s": exp.steps / wall if exp.steps else None,
             "frames_per_s": exp.frames / wall if exp.frames else None,
             "rows_per_s": gate.csv_rows / wall,
             "setup_s": statistics.median(setup.kept()), "peak_rss_mb": rss_mb,
             "fail_rate": gate.failed / gate.attempted}
    summaries = {"wall_s": summarize(walls.kept()), "setup_s": summarize(setup.kept())}
    raw = {"wall_s": summarize(walls.raw), "setup_s": summarize(setup.raw)}
    record.update(summaries, printed=shown, raw=raw,
                  wall_samples=vars(walls), setup_samples=vars(setup))
    print(f"bench {record['workload']} seed {args.seed}: {len(walls.raw)} timed "
          f"runs after 1 warm-up, {len(walls.kept())} kept, outputs sha256 "
          f"{gate.digest}")
    print(f"  times at reference speed; raw wall_s median "
          f"{raw['wall_s']['median']:.6g} s, raw setup_s median "
          f"{raw['setup_s']['median']:.6g} s")
    for name in PRINTED:
        value = "n/a" if shown[name] is None else f"{shown[name]:.6g}"
        note = ", ".join(f"{k} {v:.6g}" for k, v in summaries.get(name, {}).items())
        print(f"  {name:<14} {value:>12} {unit(name):<6} {note}")
    return {name: shown[name] for name in END_TO_END}


def per_layer(run_once, args, gate, record) -> dict:
    run_once()  # warm-up
    metrics = micro_timings(args.seed)
    untraced, traced, per_run = [], [], []
    start = time.perf_counter()
    while time.perf_counter() - start < args.seconds or len(traced) < MIN_TRACED_RUNS:
        untraced.append(run_once())
        tracer = Tracer()
        with patched(layer_patches(tracer)):
            traced.append(run_once())
        per_run.append(layer_metrics(tracer))
    metrics.update({name: statistics.median(run[name] for run in per_run)
                    for name in per_run[0]})
    metrics["trace.overhead"] = statistics.median(traced) - statistics.median(untraced)
    record.update(untraced_wall_s=summarize(untraced),
                  traced_wall_s=summarize(traced),
                  untraced_samples=untraced, traced_samples=traced)
    print(f"bench {record['workload']} seed {args.seed}: {len(traced)} traced "
          f"and {len(untraced)} untraced runs, outputs sha256 {gate.digest}")
    for name in sorted(metrics):
        print(f"  {name:<40} {metrics[name]:>14.6g} {unit(name)}")
    return metrics


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=10.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if args.seed < 0:
        parser.error("--seed must be >= 0")

    os.chdir(ROOT)
    # one CPU for the benchmark and the set-up spawns it starts, so that the
    # reference kernel times the CPU the sample ran on
    if hasattr(os, "sched_setaffinity"):
        os.sched_setaffinity(0, {min(os.sched_getaffinity(0))})
    try:
        import_package()
    except ImportError as e:
        print(f"bench: cannot import dnlslab from {ROOT}/src: {e}", file=sys.stderr)
        return 2
    import numpy
    from dnlslab import cli
    from dnlslab.config import load_config

    workload = WORKLOADS[args.workload]
    base = os.path.join(OUT, workload.name)
    out_dir = os.path.join(base, "run")
    cfg_path = os.path.join(base, "config.json")
    os.makedirs(base, exist_ok=True)
    doc = make_config(ROOT, workload, args.seed, out_dir)
    with open(cfg_path, "w") as fh:
        json.dump(doc, fh, indent=2)
    load_config(cfg_path)  # the strict loader must accept it before timing
    exp = expected(workload, doc)
    gate = Gate(exp, csv_schemas())
    cli_args = [workload.command, "--config", cfg_path, "--quiet", "--jobs", "1"]

    def run_once() -> float:
        shutil.rmtree(out_dir, ignore_errors=True)
        start = time.perf_counter()
        try:
            code = cli.main(cli_args)
        except Exception:
            traceback.print_exc()
            code = None
        elapsed = time.perf_counter() - start
        gate.check(code, out_dir)
        return elapsed

    record = {"workload": workload.name, "why": workload.why, "seed": args.seed,
              "trace": args.trace, "seconds": args.seconds,
              "python": platform.python_version(), "numpy": numpy.__version__,
              "machine": platform.machine(), "cpus": os.cpu_count()}
    if args.trace == 0:
        metrics = end_to_end(run_once, args, cfg_path, exp, gate, record)
    else:
        metrics = per_layer(run_once, args, gate, record)

    result = {"correct": gate.failed == 0, "attempted": gate.attempted,
              "failed": gate.failed,
              "metrics": {name: {"value": value, "unit": unit(name)}
                          for name, value in metrics.items()}}
    record.update(result, digest=gate.digest, problems=gate.problems)
    with open(os.path.join(base, f"result-seed{args.seed}-trace{args.trace}.json"),
              "w") as fh:
        json.dump(record, fh, indent=2)
    for problem in gate.problems:
        print(f"bench: {problem}", file=sys.stderr)
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
