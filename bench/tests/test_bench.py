"""Tests of the benchmark itself: python -m pytest bench/tests -q"""

import json
import os
import sys

import pytest

BENCH = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
ROOT = os.path.dirname(BENCH)
sys.path[:0] = [BENCH, os.path.join(ROOT, "src")]

import micro  # noqa: E402
import run  # noqa: E402
from spans import Tracer, layer_metrics, layer_patches, patched  # noqa: E402
from workloads import Expected, Gate, csv_schemas, output_digest  # noqa: E402

from dnlslab import cli  # noqa: E402
from dnlslab.harness import GN_AUDIT_COLUMNS  # noqa: E402


class FakeClock:
    def __init__(self):
        self.now = 0.0

    def __call__(self):
        return self.now


def test_self_time_subtracts_child_spans():
    clock = FakeClock()
    tracer = Tracer(clock)

    def leaf(dt):
        clock.now += dt

    def middle():
        clock.now += 1.0
        traced_leaf(2.0)
        clock.now += 0.5
        traced_leaf(3.0)

    def outer():
        traced_middle()
        clock.now += 4.0

    traced_leaf = tracer.wrap(leaf, "a.leaf")
    traced_middle = tracer.wrap(middle, "b.middle")
    tracer.wrap(outer, "c.outer")()
    total, own = tracer.totals()
    assert total == {"a.leaf": 5.0, "b.middle": 6.5, "c.outer": 10.5}
    assert own == {"a.leaf": 5.0, "b.middle": 1.5, "c.outer": 4.0}
    assert tracer.counts[("b.middle", "a.leaf")] == 2
    assert tracer.counts[("c.outer", "a.leaf")] == 2
    assert tracer.counts[(None, "c.outer")] == 1


def _audit_output(tmp_path, rows):
    out = tmp_path / "out"
    out.mkdir(exist_ok=True)
    lines = [",".join(GN_AUDIT_COLUMNS)] + [",".join(r) for r in rows]
    (out / "gn_audit.csv").write_text("\n".join(lines) + "\n")
    (out / "summary.json").write_text("{}\n")
    return str(out)


ROWS = [["0", "1", "1", "0.5", "1", "0.5", "true", "0", "0", "0"],
        ["1", "1", "1", "0.25", "1", "0.75", "true", "0", "0", "0"]]


@pytest.fixture
def gate():
    return Gate(Expected({"gn_audit.csv": [2]}, 0, 0), csv_schemas())


def test_gate_accepts_repeated_identical_runs(tmp_path, gate):
    out = _audit_output(tmp_path, ROWS)
    assert gate.check(0, out) and gate.check(0, out)
    assert (gate.attempted, gate.failed, gate.csv_rows) == (2, 0, 2)
    assert gate.digest == output_digest(out)


def test_gate_flags_wrong_exit_code(tmp_path, gate):
    out = _audit_output(tmp_path, ROWS)
    assert not gate.check(4, out)
    assert gate.failed == 1 and "exit code 4" in gate.problems[0]


def test_gate_flags_altered_csv_row(tmp_path, gate):
    assert gate.check(0, _audit_output(tmp_path, ROWS))
    altered = [ROWS[0], ROWS[1][:3] + ["0.2500000001"] + ROWS[1][4:]]
    assert not gate.check(0, _audit_output(tmp_path, altered))
    assert gate.failed == 1 and "digest" in gate.problems[0]


@pytest.mark.parametrize("header, rows, problem", [
    (("field_id", "L"), ROWS, "header"),
    (GN_AUDIT_COLUMNS, ROWS[:1], "data rows"),
])
def test_gate_flags_schema_and_row_count(tmp_path, gate, header, rows, problem):
    out = _audit_output(tmp_path, rows)
    csv = tmp_path / "out" / "gn_audit.csv"
    body = csv.read_text().split("\n", 1)[1]
    csv.write_text(",".join(header) + "\n" + body)
    assert not gate.check(0, out)
    assert problem in gate.problems[0]


def _write(tmp_path, name, doc):
    path = tmp_path / name
    path.write_text(json.dumps(doc))
    return str(path)


def _traced(argv):
    """Run the CLI under every layer patch; check that each is restored."""
    tracer = Tracer()
    patches = layer_patches(tracer)
    before = [(owner, attr, owner.__dict__[attr]) for owner, attr, _ in patches]
    with patched(patches):
        assert all(owner.__dict__[attr] is not original
                   for owner, attr, original in before)
        assert cli.main(argv) == 0
    for owner, attr, original in before:
        assert owner.__dict__[attr] is original, f"{owner.__name__}.{attr}"
    return layer_metrics(tracer)


def test_traced_runs_count_exactly_and_restore_every_patch(tmp_path):
    audit = _write(tmp_path, "audit.json", {
        "gn_audit": {"num_fields": 3, "L_values": [1.0], "delta_values": [1.0, 2.0]},
        "outputs": {"dir": str(tmp_path / "audit")}})
    diagnose = _write(tmp_path, "diagnose.json", {
        "grid": {"L": 6.283185307179586, "N": 16},
        "sim": {"dt": 1e-4, "T": 1e-3, "record_stride": 2},
        "data": {"kind": "multimode", "modes": [1, 2], "amplitudes": [1.0, 0.5]},
        "outputs": {"dir": str(tmp_path / "diagnose")}})
    audit_metrics = _traced(["gn-audit", "--config", audit, "--quiet"])
    assert audit_metrics["grid.refine2_per_field"] == 2
    assert audit_metrics["runio.csv_rows"] == 8
    diagnose_metrics = _traced(["diagnose", "--config", diagnose, "--quiet"])
    assert diagnose_metrics["dynamics.fft_per_step.dnls1"] == 8
    assert diagnose_metrics["grid.refine2_per_frame"] == 9
    assert diagnose_metrics["runio.csv_rows"] == 2 * 6
    assert sum(v for k, v in diagnose_metrics.items()
               if k.endswith(".share")) == pytest.approx(1.0)


def test_patches_are_restored_when_the_run_raises():
    patches = layer_patches(Tracer())
    with pytest.raises(RuntimeError):
        with patched(patches):
            raise RuntimeError
    assert all(owner.__dict__[attr] is not value for owner, attr, value in patches)


def test_metric_names_and_units_match_benchmark_json(monkeypatch):
    with open(os.path.join(ROOT, "BENCHMARK.json")) as fh:
        spec = json.load(fh)
    end_to_end = {m["name"]: m["unit"] for m in spec["end_to_end"]}
    assert end_to_end == {name: run.unit(name) for name in run.END_TO_END}
    monkeypatch.setattr(micro, "REPEATS", 1)
    monkeypatch.setattr(micro, "TARGET_S", 0.0)
    names = list(micro.micro_timings(0)) + list(layer_metrics(Tracer()))
    names.append("trace.overhead")
    per_layer = {m["name"]: m["unit"] for m in spec["per_layer"]}
    assert per_layer == {name: run.unit(name) for name in names}
    assert [w["name"] for w in spec["workloads"]] == list(run.WORKLOADS)


def test_samples_are_scaled_by_the_reference_kernel(monkeypatch):
    ref = run.REF_S
    times = iter([0.97 * ref, 3.0, 1.03 * ref,   # one host speed: kept
                  ref, 1.0, 2.0 * ref,           # speed changed: dropped
                  2.0 * ref, 4.0, 2.0 * ref])    # twice as slow: counts half
    monkeypatch.setattr(run, "reference_seconds", lambda: next(times))
    samples = run.Samples()
    for _ in range(3):
        samples.take(lambda: next(times))
    assert samples.raw == [3.0, 1.0, 4.0]
    assert samples.at_ref == pytest.approx([3.0, 1.0 / 1.5, 2.0])
    assert samples.steady == [True, False, True]
    # fewer than MIN_RUNS steady samples: all of them count
    assert samples.kept() == samples.at_ref
    monkeypatch.setattr(run, "MIN_RUNS", 2)
    assert samples.kept() == pytest.approx([3.0, 2.0])
