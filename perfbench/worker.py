"""One benchmark process: set up, run timed rounds, check, report.

Started by ``perfbench/run.py``.  The protocol on standard output is:

* ``READY`` once set-up is done (``run.py`` times the process from its
  start to this line: that is one ``setup_s`` sample);
* ``SPEED <factor>``, the machine's speed factor right after set-up
  (see ``CAL_REF_MS``), by which ``run.py`` scales that sample;
* human-readable lines;
* ``RESULT <json>`` as the last line.

With ``--setup-only`` the process stops after ``READY``.

A run is a sequence of *rounds*.  A round is fixed work: the seeded
request list of the workload, issued by one caller in a closed loop
(send, wait for the decoded reply, send the next).  Before each round
the context registry is emptied (and, for service-stream, the result
store), so every round does the same work.  A short calibration loop
that uses nothing from the program is timed between requests; it gives
each request's speed factor, and every timed figure is scaled by it to
the reference machine (see ``CAL_REF_MS``).  Rounds repeat until
``--seconds`` of timed requests have elapsed; the last round completes.
With ``--trace 1`` untraced and traced rounds alternate: the traced
ones give the per-layer numbers, the pair gives the tracing overhead.
"""

from __future__ import annotations

import argparse
import dataclasses
import json
import os
import platform
import random
import resource
import shutil
import statistics
import sys
import tempfile
import time
from typing import Any

import numpy as np
import scipy

import repro.circuits as circuits
from repro import NoiseAnalysis, Recorder, parse_netlist, sample_hold_system
from repro.circuits import ParameterGrid
from repro.mft import clear_sweep_contexts
from repro.mft.context import registry_stats
from repro.results import from_payload
from repro.service import JobQueue, JobSpec, SqliteResultStore, job_key

import inputs
from tracing import Span, Tracer, self_times

#: Segments per phase of the converged reference (the runs use the
#: default 64).  At 512 the reference is within ~1e-3 of a 2048-segment
#: run on the stiffest circuit (SC low-pass), 50x below the error it
#: has to resolve there.
REF_SEGMENTS = 512

#: A returned PSD point further than this from the reference fails its
#: check.  Today's worst discretization error across the workloads is
#: ~8 % (SC low-pass near 2 f_clk); the tolerance sits above it.
PSD_REL_TOL = 0.15

#: Resolution of the accuracy metric: deviations below it are reported
#: as this value.  The reference itself carries round-off of up to
#: ~1e-7 on the 32-state ladders, so smaller deviations are not
#: resolvable.
PSD_ERR_FLOOR = 1e-6

#: Per-request wait limit [s]; a healthy request takes well under 2 s.
WAIT_TIMEOUT_S = 120.0

PROBE_REPEATS = 3

#: Size of the short calibration loop timed between requests: 32x32
#: solves and pure-Python steps, about the mix of the program's own work.
CAL_SOLVES = 50
CAL_STEPS = 25_000

#: Time of that loop on the reference machine [ms] (a 2-core x86_64 VM,
#: where it takes 3-10 ms as the host's load changes).  Every timed
#: quantity is scaled by CAL_REF_MS / (the loop's time measured around
#: it), so times read as on a machine where the loop takes CAL_REF_MS.
#: The machine's speed swings by up to 2x within minutes; the program
#: and the loop swing together, so the scaled times stay put.
CAL_REF_MS = 5.0

#: Calibration loops timed right after set-up, for ``setup_s``.
SETUP_CAL_REPEATS = 5

#: Program spans whose self time is reported per round.
SELF_TIME_SPANS = (
    "mft.solve", "mft.attempt", "spectral.eigenbasis",
    "spectral.step-integrals", "spectral.solve", "spectral.trace",
    "spectral.period-integral", "spectral.param-batch", "mft.clip",
    "executor.dispatch",
)


def cpu_model() -> str:
    try:
        with open("/proc/cpuinfo") as handle:
            for line in handle:
                if line.startswith("model name"):
                    return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return platform.machine()


def machine_block() -> "dict[str, Any]":
    try:
        blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    except (KeyError, TypeError):  # numpy < 1.26 prints instead
        blas = {}
    return {
        "nproc": os.cpu_count(),
        "affinity": len(os.sched_getaffinity(0)),
        "cpu": cpu_model(),
        "python": platform.python_version(),
        "numpy": np.__version__,
        "scipy": scipy.__version__,
        "blas": f"{blas.get('name', '?')} {blas.get('version', '?')}",
        "blas_threads": os.environ.get("OPENBLAS_NUM_THREADS", "unset"),
    }


_CAL_RNG = np.random.default_rng(12345)
_CAL_A = _CAL_RNG.standard_normal((32, 32)) + 32.0 * np.eye(32)
_CAL_B = _CAL_RNG.standard_normal((32, 32))


def calibration_loop_ms(solves: int, steps: int) -> float:
    """Time of a fixed numpy + pure-Python loop [ms].

    It uses nothing from the program, so a change to the program cannot
    move it; only the machine's speed does.
    """
    t0 = time.perf_counter()
    x = _CAL_B
    for _ in range(solves):
        x = np.linalg.solve(_CAL_A, x @ _CAL_B) * 0.5
    total = 0
    for k in range(steps):
        total += k * k % 7
    return (time.perf_counter() - t0) * 1e3


def probe_ms() -> float:
    """Median of a longer calibration loop: the run's ``machine.probe_ms``."""
    return statistics.median(calibration_loop_ms(300, 200_000)
                             for _ in range(PROBE_REPEATS))


def calibrate_ms() -> float:
    """One short calibration loop, run between requests."""
    return calibration_loop_ms(CAL_SOLVES, CAL_STEPS)


def setup_speed() -> float:
    """The machine's speed factor right after set-up (see CAL_REF_MS)."""
    return CAL_REF_MS / statistics.median(
        calibrate_ms() for _ in range(SETUP_CAL_REPEATS))


def percentile(values: "list[float]", q: int) -> float:
    """Inclusive-method percentile ``q`` (1..99) of ``values``."""
    if len(values) == 1:
        return values[0]
    return statistics.quantiles(values, n=100, method="inclusive")[q - 1]


def median_or_zero(values: "list[float]") -> float:
    return statistics.median(values) if values else 0.0


@dataclasses.dataclass
class Record:
    """What one request returned, kept for the checks after timing."""

    key: Any                  # reference lookup key
    values: np.ndarray        # PSD points (corner families flattened)
    failures: int             # FrequencyFailure records
    latency: float            # seconds, call to decoded result
    cls: "str | None" = None  # service-stream request class
    corner_points: int = 0    # points that came from psd_corners
    runtime: "float | None" = None          # JobResult.runtime_seconds
    queue_overhead: "float | None" = None   # submit->done minus runtime
    payload_kb: "float | None" = None
    problems: "list[str]" = dataclasses.field(default_factory=list)
    spans: "list[Span]" = dataclasses.field(default_factory=list)
    counters: "dict[str, int]" = dataclasses.field(default_factory=dict)
    #: Machine speed factor around the request: CAL_REF_MS over the mean
    #: of the calibration loops timed just before and just after it.
    speed: float = 1.0

    @property
    def points(self) -> int:
        return int(self.values.size)

    @property
    def scaled_latency(self) -> float:
        """Latency in reference-machine seconds."""
        return self.latency * self.speed

    def attach(self, recorder: "Recorder | None") -> "Record":
        """Keep the program's spans and counters of a traced request."""
        if recorder is not None:
            self.spans = [Span(s.name, s.start, s.end)
                          for s in recorder.spans if s.end is not None]
            self.counters = recorder.counters
        return self


def ref_sweep(model: Any, grid: "list[float]") -> np.ndarray:
    return NoiseAnalysis(model, segments_per_phase=REF_SEGMENTS).psd_sweep(
        grid, solver="spectral-batch").psd


# ---------------------------------------------------------------------------
# Workloads
# ---------------------------------------------------------------------------


class Workload:
    """Shared round and check plumbing; subclasses issue the requests."""

    def __init__(self, data: "dict", tracer: Tracer, workdir: str) -> None:
        self.data = data
        self.tracer = tracer
        self.requests: "list[Any]" = list(data.get("requests", []))
        self.references: "dict[Any, np.ndarray]" = {}

    def reset_round(self) -> None:
        clear_sweep_contexts()

    def close(self) -> None:
        pass

    def recorder(self) -> "Recorder | None":
        return Recorder() if self.tracer.enabled else None

    def check(self, record: Record) -> "tuple[list[str], float]":
        """Problems with one record, and its worst relative error."""
        problems = list(record.problems)
        values = np.asarray(record.values, dtype=float)
        if record.failures:
            problems.append(f"{record.failures} FrequencyFailure records")
        finite = bool(np.all(np.isfinite(values)))
        if not finite:
            problems.append("non-finite PSD points")
        elif np.any(values < 0.0):
            problems.append("negative PSD points")
        ref = self.references.get(record.key)
        worst = float("nan")
        if ref is None or ref.shape != values.shape \
                or not np.all(ref > 0.0):
            problems.append("no usable reference")
        elif finite:
            worst = float(np.max(np.abs(values - ref) / ref))
            if not worst <= PSD_REL_TOL:
                problems.append(
                    f"max relative error {worst:.3g} > {PSD_REL_TOL}")
        return problems, worst


class DesignSweep(Workload):
    """Paper circuits: a nominal default-solver sweep + corner families."""

    def __init__(self, data, tracer, workdir):
        super().__init__(data, tracer, workdir)
        self.requests = []
        for req in data["requests"]:
            params = getattr(circuits, req["params"])()
            self.requests.append({
                "req": req, "params": params,
                "builder": getattr(circuits, req["builder"]),
                "families": {
                    family: {name: {field: getattr(params, field) * scale
                                    for field, scale in rel.items()}
                             for name, rel in dynamics.items()}
                    for family, dynamics in req["families"].items()},
            })

    def warm_up(self) -> None:
        analysis = NoiseAnalysis(sample_hold_system())
        freqs = inputs.linear_grid(1e3, 1e5, 16)
        analysis.psd_sweep(freqs)
        family = ParameterGrid.cross({"nom": {}}, {"a": 1.0, "b": 2.0})
        analysis.psd_corners(family, freqs[::4])

    def run(self, item) -> Record:
        tr = self.tracer
        req = item["req"]
        rec = self.recorder()
        t0 = time.perf_counter()
        with tr.span("circuit.model"):
            model = item["builder"](item["params"])
        with tr.span("analysis.init"):
            analysis = NoiseAnalysis(model, recorder=rec)
        with tr.span("mft.psd_sweep"):
            nominal = analysis.psd_sweep(req["grid"])
        parts = [nominal.psd]
        failures = len(nominal.failures)
        for family, dynamics in item["families"].items():
            with tr.span("circuit.family"):
                grid = ParameterGrid.cross(
                    dynamics, req["intensities"], builder=item["builder"],
                    base_params=item["params"])
            with tr.span("mft.psd_corners"):
                result = analysis.psd_corners(grid, req["corner_grid"])
            parts.append(result.values.ravel())
            failures += sum(len(f) for f in result.failures.values())
            item.setdefault("names", {})[family] = list(result.corner_names)
        latency = time.perf_counter() - t0
        values = np.concatenate(parts)
        return Record(req["circuit"], values, failures, latency,
                      corner_points=values.size - nominal.psd.size
                      ).attach(rec)

    def build_references(self) -> None:
        for item in self.requests:
            req = item["req"]
            parts = [ref_sweep(item["builder"](item["params"]), req["grid"])]
            for family, dynamics in item["families"].items():
                roots = {
                    name: ref_sweep(item["builder"](dataclasses.replace(
                        item["params"], **overrides)), req["corner_grid"])
                    for name, overrides in dynamics.items()}
                for name in item["names"][family]:
                    root, intensity = name.split("/")
                    parts.append(roots[root] * req["intensities"][intensity])
            self.references[req["circuit"]] = np.concatenate(parts)


class TracedStore(SqliteResultStore):
    """The sqlite result store, with its reads and writes traced."""

    def __init__(self, path: str, tracer: Tracer) -> None:
        super().__init__(path)
        self.tracer = tracer

    def get(self, key: str) -> Any:
        start = time.perf_counter()
        result = super().get(key)
        self.tracer.add("store.get_miss" if result is None
                        else "store.get_hit", start, time.perf_counter())
        return result

    def put(self, key: str, result: Any) -> None:
        start = time.perf_counter()
        super().put(key, result)
        self.tracer.add("store.put", start, time.perf_counter())


class ServiceStream(Workload):
    """Netlist text -> JobSpec -> serial JobQueue + sqlite -> JSON."""

    def __init__(self, data, tracer, workdir):
        super().__init__(data, tracer, workdir)
        self.store = TracedStore(os.path.join(workdir, "results.db"), tracer)
        self.queue = JobQueue(store=self.store, backend="serial")
        #: PSD bytes of each job's first computation in this round.
        self.first: "dict[str, bytes]" = {}

    def reset_round(self) -> None:
        super().reset_round()
        self.store.clear()
        self.first.clear()

    def close(self) -> None:
        self.queue.close()
        self.store.close()

    def warm_up(self) -> None:
        text = inputs.SWITCHED_RC_TEXT.format(
            ron=100.0, r=1e3, c=1e-9, f=50e3, duty=0.3)
        self.run({"class": "warm-up", "circuit": -1,
                  "grid": inputs.linear_grid(1e3, 1e5, 16)}, text=text)
        self.reset_round()

    def run(self, req, text=None) -> Record:
        tr = self.tracer
        if text is None:
            text = self.data["circuits"][req["circuit"]]["text"]
        rec = self.recorder()
        t0 = time.perf_counter()
        with tr.span("circuit.parse"):
            parsed = parse_netlist(text)
        with tr.span("circuit.model"):
            model = parsed.to_model()
        with tr.span("service.spec"):
            spec = JobSpec(model, req["grid"])
        if tr.enabled:
            with tr.span("service.job_key"):
                job_key(spec)
        t_submit = time.perf_counter()
        with tr.span("service.submit"):
            handle = self.queue.submit(spec, recorder=rec)
        with tr.span("service.wait"):
            job = handle.wait(timeout=WAIT_TIMEOUT_S)
        t_done = time.perf_counter()
        with tr.span("results.encode"):
            blob = json.dumps(job.to_json())
        with tr.span("results.decode"):
            result = from_payload(json.loads(blob)["result"])
        latency = time.perf_counter() - t0

        record = Record((req["circuit"], tuple(req["grid"])), result.psd,
                        len(result.failures), latency, cls=req["class"],
                        payload_kb=len(blob) / 1024.0)
        if req["class"] == "repeat":
            if not job.served_from_store:
                record.problems.append("exact repeat not served from store")
            elif self.first.get(job.key) != result.psd.tobytes():
                record.problems.append(
                    "store-served payload differs from its first "
                    "computation")
        elif job.served_from_store:
            record.problems.append(f"{req['class']} request served from "
                                   "store")
        else:
            self.first[job.key] = job.result.psd.tobytes()
            record.runtime = job.runtime_seconds
            record.queue_overhead = t_done - t_submit - job.runtime_seconds
        return record.attach(rec)

    def build_references(self) -> None:
        grids: "dict[int, set[float]]" = {}
        for req in self.requests:
            grids.setdefault(req["circuit"], set()).update(req["grid"])
        for index, freqs in grids.items():
            freqs = sorted(freqs)
            model = parse_netlist(
                self.data["circuits"][index]["text"]).to_model()
            lookup = dict(zip(freqs, ref_sweep(model, freqs)))
            for req in self.requests:
                if req["circuit"] == index:
                    self.references[(index, tuple(req["grid"]))] = \
                        np.array([lookup[f] for f in req["grid"]])


class LadderScale(Workload):
    """Large switched-RC ladders, one fresh context per job."""

    def warm_up(self) -> None:
        text = inputs.ladder_text(random.Random(0), 4, 1e6)
        self.run({"text": text, "grid": inputs.linear_grid(1e3, 1.5e6, 16)})

    def run(self, req) -> Record:
        tr = self.tracer
        rec = self.recorder()
        t0 = time.perf_counter()
        with tr.span("circuit.parse"):
            parsed = parse_netlist(req["text"])
        with tr.span("circuit.model"):
            model = parsed.to_model()
        with tr.span("analysis.init"):
            analysis = NoiseAnalysis(model, recorder=rec)
        with tr.span("mft.psd_sweep"):
            result = analysis.psd_sweep(req["grid"])
        latency = time.perf_counter() - t0
        return Record(req["text"], result.psd, len(result.failures),
                      latency).attach(rec)

    def build_references(self) -> None:
        for req in self.requests:
            model = parse_netlist(req["text"]).to_model()
            self.references[req["text"]] = ref_sweep(model, req["grid"])


WORKLOAD_CLASSES = {"design-sweep": DesignSweep,
                    "service-stream": ServiceStream,
                    "ladder-scale": LadderScale}


# ---------------------------------------------------------------------------
# Timed phase and metrics
# ---------------------------------------------------------------------------


@dataclasses.dataclass
class Round:
    traced: bool
    wall: float = 0.0         # sum of the request latencies [s]
    scaled_wall: float = 0.0  # the same in reference-machine seconds
    records: "list[Record]" = dataclasses.field(default_factory=list)
    spans: "list[Span]" = dataclasses.field(default_factory=list)
    context_hits: int = 0
    context_misses: int = 0


def run_round(workload: Workload, traced: bool) -> Round:
    workload.reset_round()
    workload.tracer.spans = []
    workload.tracer.enabled = traced
    before = registry_stats.snapshot()
    rnd = Round(traced)
    before_ms = calibrate_ms()
    for req in workload.requests:
        record = workload.run(req)
        after_ms = calibrate_ms()
        record.speed = CAL_REF_MS / (0.5 * (before_ms + after_ms))
        before_ms = after_ms
        rnd.records.append(record)
    workload.tracer.enabled = False
    rnd.wall = sum(r.latency for r in rnd.records)
    rnd.scaled_wall = sum(r.scaled_latency for r in rnd.records)
    after = registry_stats.snapshot()
    rnd.context_hits = (after["hits"].get("context", 0)
                        - before["hits"].get("context", 0))
    rnd.context_misses = (after["misses"].get("context", 0)
                          - before["misses"].get("context", 0))
    if traced:
        rnd.spans = list(workload.tracer.spans)
        for record in rnd.records:
            rnd.spans.extend(record.spans)
    return rnd


def timings(rounds: "list[Round]",
            scaled: bool) -> "dict[str, tuple[float, str]]":
    """Rates and latency percentiles over every request of the run.

    With ``scaled`` the times are in reference-machine seconds.
    """
    records = [r for rnd in rounds for r in rnd.records]
    latencies_ms = [(r.scaled_latency if scaled else r.latency) * 1e3
                    for r in records]
    wall = sum(latencies_ms) / 1e3
    return {
        "points_per_s": (sum(r.points for r in records) / wall, "1/s"),
        "jobs_per_s": (len(records) / wall, "1/s"),
        "job_latency_p50_ms": (percentile(latencies_ms, 50), "ms"),
        "job_latency_p90_ms": (percentile(latencies_ms, 90), "ms"),
    }


def end_to_end(rounds: "list[Round]", peak_rss_mb: float,
               max_err: float) -> "dict[str, tuple[float, str]]":
    return dict(timings(rounds, scaled=True),
                psd_max_rel_err=(max(max_err, PSD_ERR_FLOOR), "ratio"),
                peak_rss_mb=(peak_rss_mb, "MB"))


def per_layer(rounds: "list[Round]",
              probe: float) -> "dict[str, tuple[float, str]]":
    traced = [rnd for rnd in rounds if rnd.traced]
    plain = [rnd for rnd in rounds if not rnd.traced]
    n = len(traced)
    records = [r for rnd in traced for r in rnd.records]
    spans = [s for rnd in traced for s in rnd.spans]
    wall = sum(rnd.wall for rnd in traced)
    # Times are scaled to the reference machine by the traced requests'
    # median speed factor, like the end-to-end ones (see CAL_REF_MS).
    speed = statistics.median(r.speed for r in records)
    ms = 1e3 * speed

    def durations_ms(name: str, pool: "list[Span]" = spans) -> "list[float]":
        return [(s.end - s.start) * ms for s in pool if s.name == name]

    def med(name: str, pool: "list[Span]" = spans) -> float:
        return median_or_zero(durations_ms(name, pool))

    selfs = self_times(spans)
    named = sum(selfs.values())
    kernel_points = sum(r.points for r in records if r.cls != "repeat")
    attempts = sum(r.counters.get("fallback.attempts", 0) for r in records)
    # Sweep time per point: the benchmark's span around psd_sweep, or
    # for service jobs (swept inside the queue) JobResult.runtime_seconds.
    computed_jobs = [r for r in records if r.runtime is not None]
    sweep_ms = (sum(durations_ms("mft.psd_sweep"))
                + sum(r.runtime for r in computed_jobs) * ms)
    sweep_points = sum(r.points - r.corner_points for r in records
                       if r.cls is None or r.runtime is not None)
    corner_points = sum(r.corner_points for r in records)
    # Warm-up of fresh contexts only: cold service requests, and every
    # request of the other workloads (each builds a fresh context).
    fresh = [s for r in records if r.cls in (None, "cold") for s in r.spans]
    hits = len(durations_ms("store.get_hit"))
    lookups = hits + len(durations_ms("store.get_miss"))
    overhead = 0.0
    if plain:
        overhead = (statistics.median(r.scaled_wall for r in traced)
                    / statistics.median(r.scaled_wall for r in plain) - 1.0)

    metrics = {
        "circuit.parse_ms": (med("circuit.parse"), "ms"),
        "circuit.model_ms": (med("circuit.model"), "ms"),
        "mft.preflight_ms": (med("mft.preflight"), "ms"),
        "mft.warmup_ms": (med("mft.warmup", fresh), "ms"),
        "mft.context_hits": (sum(r.context_hits for r in traced) / n,
                             "count"),
        "mft.context_misses": (sum(r.context_misses for r in traced) / n,
                               "count"),
        "mft.sweep_ms_per_point": (
            sweep_ms / sweep_points if sweep_points else 0.0, "ms"),
        "mft.corners_ms_per_point": (
            sum(durations_ms("mft.psd_corners")) / corner_points
            if corner_points else 0.0, "ms"),
        "mft.points": (kernel_points / n, "count"),
        "mft.fallback_attempts": (attempts / n, "count"),
        "mft.fallback_per_point": (
            attempts / kernel_points if kernel_points else 0.0, "ratio"),
        "results.encode_ms": (med("results.encode"), "ms"),
        "results.decode_ms": (med("results.decode"), "ms"),
        "results.payload_kb": (median_or_zero(
            [r.payload_kb for r in records if r.payload_kb is not None]),
            "KiB"),
        "service.job_key_ms": (med("service.job_key"), "ms"),
        "service.submit_ms": (med("service.submit"), "ms"),
        "service.queue_overhead_ms": (median_or_zero(
            [r.queue_overhead * ms for r in computed_jobs]), "ms"),
        "store.get_hit_ms": (med("store.get_hit"), "ms"),
        "store.get_miss_ms": (med("store.get_miss"), "ms"),
        "store.put_ms": (med("store.put"), "ms"),
        "store.hit_ratio": (hits / lookups if lookups else 0.0, "ratio"),
        "trace.wall_ms": (wall / n * ms, "ms"),
        "trace.untraced_ms": ((wall - named) / n * ms, "ms"),
        "trace.named_share": (named / wall, "ratio"),
        "trace.overhead_frac": (overhead, "ratio"),
        "machine.probe_ms": (probe, "ms"),
        "machine.speed": (speed, "ratio"),
    }
    for name in SELF_TIME_SPANS:
        metrics[f"{name}.self_ms"] = (selfs.get(name, 0.0) / n * ms, "ms")
    return metrics


def timed_run(args: argparse.Namespace, workload: Workload) -> int:
    machine = machine_block()
    probes = [probe_ms()]
    rounds: "list[Round]" = []
    elapsed = 0.0
    while elapsed < args.seconds or len(rounds) < 1 + args.trace:
        # With --trace 1, odd rounds are traced, even rounds are not.
        rnd = run_round(workload, traced=bool(args.trace and len(rounds) % 2))
        rounds.append(rnd)
        elapsed += rnd.wall
    peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
    probes.append(probe_ms())

    workload.build_references()
    records = [r for rnd in rounds for r in rnd.records]
    failed = 0
    worst = 0.0
    for record in records:
        problems, err = workload.check(record)
        if err == err:  # not NaN
            worst = max(worst, err)
        if problems:
            failed += 1
            if failed <= 5:
                print(f"CHECK FAILED {str(record.key)[:60]!r}: "
                      + "; ".join(problems))

    if args.trace:
        metrics = per_layer(rounds, statistics.median(probes))
    else:
        metrics = end_to_end(rounds, peak_rss_mb, worst)
    print(f"workload {args.workload} seed {args.seed}: {len(rounds)} rounds, "
          f"{len(records)} requests ({len(workload.requests)} per round), "
          f"{sum(r.wall for r in rounds):.2f} s timed; round walls "
          + " ".join(f"{r.wall:.3f}" for r in rounds))
    speeds = [r.speed for r in records]
    print(f"machine speed factor min/median/max = {min(speeds):.3f} / "
          f"{statistics.median(speeds):.3f} / {max(speeds):.3f}; "
          "unscaled: " + ", ".join(
              f"{name} {value:.6g} {unit}"
              for name, (value, unit) in timings(rounds, False).items()))
    print(f"failed_frac = {failed / len(records):.4g} "
          f"({failed}/{len(records)})")
    print("machine " + json.dumps(machine, sort_keys=True))
    print("machine.probe_ms start/end = "
          + " / ".join(f"{p:.2f}" for p in probes))
    result = {
        "correct": failed == 0,
        "attempted": len(records),
        "failed": failed,
        "metrics": {name: {"value": value, "unit": unit}
                    for name, (value, unit) in metrics.items()},
    }
    print("RESULT " + json.dumps(result), flush=True)
    return 0 if failed == 0 else 1


def main(argv: "list[str] | None" = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True,
                        choices=inputs.WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, default=10.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--setup-only", action="store_true")
    args = parser.parse_args(argv)

    base = os.path.join(os.path.dirname(os.path.abspath(__file__)), ".work")
    os.makedirs(base, exist_ok=True)
    workdir = tempfile.mkdtemp(prefix="run-", dir=base)
    workload = None
    try:
        data = inputs.generate(args.workload, args.seed)
        workload = WORKLOAD_CLASSES[args.workload](data, Tracer(), workdir)
        workload.warm_up()
        print("READY", flush=True)
        print(f"SPEED {setup_speed()!r}", flush=True)
        if args.setup_only:
            return 0
        return timed_run(args, workload)
    finally:
        if workload is not None:
            workload.close()
        shutil.rmtree(workdir, ignore_errors=True)


if __name__ == "__main__":
    sys.exit(main())
