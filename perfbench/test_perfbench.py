"""Tests of the benchmark itself: inputs, self time, checks, exit codes.

Run from the repository root with ``python -m pytest perfbench -q``.
"""

from __future__ import annotations

import os
import shutil
import subprocess
import sys

import numpy as np
import pytest

HERE = os.path.dirname(os.path.abspath(__file__))
SRC = os.path.join(os.path.dirname(HERE), "src")
if SRC not in sys.path:
    sys.path.insert(0, SRC)

import inputs  # noqa: E402
import worker  # noqa: E402
from tracing import Span, self_times  # noqa: E402


@pytest.mark.parametrize("workload", inputs.WORKLOADS)
def test_same_seed_gives_byte_identical_inputs(workload):
    first = inputs.encode(inputs.generate(workload, 7))
    again = inputs.encode(inputs.generate(workload, 7))
    other = inputs.encode(inputs.generate(workload, 8))
    assert first == again
    assert first != other


def test_service_stream_classes_and_order():
    data = inputs.service_stream(3)
    requests = data["requests"]
    classes = [r["class"] for r in requests]
    assert classes[0] == "cold"
    for cls in ("cold", "grid", "repeat"):
        assert classes.count(cls) == len(data["circuits"]) == 15
    seen_circuits, seen_jobs = set(), set()
    for req in requests:
        job = (req["circuit"], tuple(req["grid"]))
        if req["class"] == "cold":
            assert req["circuit"] not in seen_circuits
        else:
            assert req["circuit"] in seen_circuits
        if req["class"] == "repeat":
            assert job in seen_jobs
        else:
            assert job not in seen_jobs
            assert inputs.SERVICE_MIN_POINTS <= len(req["grid"]) \
                <= inputs.SERVICE_MAX_POINTS
        seen_circuits.add(req["circuit"])
        seen_jobs.add(job)


def test_work_per_round_does_not_depend_on_seed():
    def shape(seed):
        design = inputs.design_sweep(seed)["requests"]
        service = inputs.service_stream(seed)["requests"]
        ladder = inputs.ladder_scale(seed)["requests"]
        return (sorted((r["circuit"], len(r["grid"]), list(r["families"]))
                       for r in design),
                sorted((r["class"] == "repeat", len(r["grid"]))
                       for r in service),
                sorted((r["states"], len(r["grid"])) for r in ladder))

    assert shape(1) == shape(2) == shape(3)


def test_self_time_subtracts_nested_spans():
    spans = [Span("round", 0.0, 10.0), Span("wait", 1.0, 9.0),
             Span("sweep", 2.0, 6.0), Span("solve", 3.0, 4.0),
             Span("store", 5.5, 7.0)]  # overlaps sweep, inside wait
    selfs = self_times(spans)
    assert selfs["round"] == pytest.approx(2.0)
    assert selfs["wait"] == pytest.approx(8.0 - 5.0)  # covered 2..7
    assert selfs["sweep"] == pytest.approx(3.0)
    assert selfs["solve"] == pytest.approx(1.0)
    assert sum(selfs.values()) == pytest.approx(10.5)  # 0.5 s overlap


def _checked(values, reference, failures=0):
    wl = worker.Workload({}, worker.Tracer(), "")
    wl.references["k"] = np.asarray(reference, dtype=float)
    record = worker.Record("k", np.asarray(values, dtype=float), failures,
                           0.0)
    return wl.check(record)


def test_check_passes_today_and_flags_perturbed_results():
    ref = [1.0, 2.0, 4.0]
    problems, worst = _checked([1.01, 2.0, 4.0], ref)
    assert problems == [] and worst == pytest.approx(0.01)
    for bad in ([1.0, 2.0 * 1.5, 4.0], [1.0, float("nan"), 4.0],
                [1.0, -1e-30, 4.0]):
        assert _checked(bad, ref)[0], bad
    assert _checked(ref, ref, failures=1)[0]


def test_command_exits_nonzero_on_a_perturbed_result(monkeypatch, capsys):
    original = worker.LadderScale.run

    def perturbed(self, req):
        record = original(self, req)
        record.values = record.values.copy()
        record.values[len(record.values) // 2] *= 1.5
        return record

    monkeypatch.setattr(worker.LadderScale, "run", perturbed)
    code = worker.main(["--workload", "ladder-scale", "--seed", "1",
                        "--seconds", "0", "--trace", "0"])
    out = capsys.readouterr().out
    assert code == 1
    assert '"correct": false' in out and "CHECK FAILED" in out


def test_runner_fails_without_the_program(tmp_path):
    shutil.copytree(HERE, tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns(".work", "__pycache__"))
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "design-sweep",
         "--seed", "1", "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=60)
    assert proc.returncode != 0
    assert '"metrics"' not in proc.stdout


def test_timings_scale_latencies_by_the_speed_factor():
    def record(latency, speed):
        rec = worker.Record("k", np.ones(10), 0, latency)
        rec.speed = speed
        return rec

    rnd = worker.Round(False, records=[record(2.0, 0.5), record(1.0, 2.0)])
    raw = worker.timings([rnd], scaled=False)
    scaled = worker.timings([rnd], scaled=True)
    assert raw["points_per_s"][0] == pytest.approx(20 / 3.0)
    assert scaled["points_per_s"][0] == pytest.approx(20 / 3.0)
    assert scaled["job_latency_p50_ms"][0] == pytest.approx(1500.0)
    assert raw["job_latency_p50_ms"][0] == pytest.approx(1500.0)
    rnd.records[1].speed = 1.0
    assert worker.timings([rnd], scaled=True)["jobs_per_s"][0] \
        == pytest.approx(1.0)
