"""Equivalence suite: the fast sweep paths ARE the slow path.

The performance layer (``SweepContext`` fast solves, ``SweepExecutor``
parallel dispatch) reorders linear algebra and work scheduling but must
never change results. For the switched-RC and SC low-pass circuits this
suite pins, against the uncached serial reference:

* values equal to <= 1e-12 relative on every finite point,
* identical NaN/failure masks (including deliberately injected
  non-finite frequencies),
* identical ``DiagnosticsReport`` severity counts,

for cache-on vs cache-off and for serial vs thread vs process backends,
plus the headline acceptance check (64-point SC low-pass sweep,
cached+parallel vs the seed serial-uncached path).

The default solver is the frequency-batched kernel; an uncached analyzer
has no sweep context and stays on the per-ω reference.  Where the two
meet, :func:`_assert_equivalent` skips ``_SOLVE_RECORDS``: the same
values, masks and failures, and the same findings apart from the INFO
records of how each frequency was solved (one per ω on the per-ω path,
one per sweep on the batched kernel).
"""

import time

import numpy as np
import pytest

from repro.diagnostics.budget import SweepBudget
from repro.mft.context import clear_sweep_contexts
from repro.mft.engine import MftNoiseAnalyzer
from repro.mft.executor import SweepExecutor

REL_TOL = 1e-12
BACKENDS = ["serial", "thread", "process"]


def _severity_counts(report, skip=()):
    counts = {}
    for finding in report.findings:
        if str(finding.severity) == "info" and finding.code in skip:
            continue
        counts[str(finding.severity)] = counts.get(
            str(finding.severity), 0) + 1
    return counts


def _assert_equivalent(reference, candidate, label, skip=()):
    """Values, NaN masks, failures, and severity counts must match.

    ``skip`` names INFO codes left out of the severity counts.
    """
    ref_finite = np.isfinite(reference.psd)
    cand_finite = np.isfinite(candidate.psd)
    assert np.array_equal(ref_finite, cand_finite), (
        f"{label}: NaN masks differ")
    if np.any(ref_finite):
        scale = np.max(np.abs(reference.psd[ref_finite]))
        diff = np.max(np.abs(candidate.psd[ref_finite]
                             - reference.psd[ref_finite]))
        rel = diff / scale if scale > 0.0 else diff
        assert rel <= REL_TOL, f"{label}: max rel diff {rel:.3e}"
    ref_failures = [(f.index, f.stage) for f in reference.failures]
    cand_failures = [(f.index, f.stage) for f in candidate.failures]
    assert ref_failures == cand_failures, f"{label}: failures differ"
    assert (_severity_counts(reference.diagnostics, skip)
            == _severity_counts(candidate.diagnostics, skip)), (
        f"{label}: diagnostics severity counts differ")


#: INFO codes recording a successful solve: one ``fallback-attempt``
#: per ω on the per-ω path, one ``spectral-batch`` per batched sweep.
_SOLVE_RECORDS = ("fallback-attempt", "spectral-batch")


@pytest.fixture(params=["switched-rc", "sc-lowpass"])
def swept_system(request, rc_system, lowpass_model):
    """(system, grid) pairs; the grids include injected bad points."""
    if request.param == "switched-rc":
        grid = np.concatenate([np.linspace(100.0, 4e4, 14),
                               [np.inf, np.nan]])
        return rc_system, grid
    grid = np.concatenate([np.linspace(100.0, 12e3, 14), [np.inf]])
    return lowpass_model.system, grid


class TestCacheEquivalence:
    def test_cached_matches_uncached(self, swept_system):
        system, grid = swept_system
        clear_sweep_contexts()
        reference = MftNoiseAnalyzer(system, cache=False).psd(grid)
        cached = MftNoiseAnalyzer(system, cache=True).psd(grid,
                                                          solver="mft")
        _assert_equivalent(reference, cached, "cache-on vs cache-off")

    def test_default_matches_uncached_reference(self, swept_system):
        system, grid = swept_system
        clear_sweep_contexts()
        reference = MftNoiseAnalyzer(system, cache=False).psd(grid)
        assert reference.info["solver"] == "mft"
        default = MftNoiseAnalyzer(system, cache=True).psd(grid)
        assert default.info["solver"] == "spectral-batch"
        _assert_equivalent(reference, default,
                           "batched default vs per-ω reference",
                           skip=_SOLVE_RECORDS)

    def test_cached_solver_controls_match(self, swept_system):
        # The lstsq/regularized path of the fast solve must also track
        # the reference implementation (the fallback chain relies on it).
        system, grid = swept_system
        finite = grid[np.isfinite(grid)]
        clear_sweep_contexts()
        ref = MftNoiseAnalyzer(system, cache=False)
        fast = MftNoiseAnalyzer(system, cache=True)
        for f in finite[:4]:
            a = ref._psd_at(f, solver="lstsq")
            b = fast._psd_at(f, solver="lstsq")
            assert abs(a - b) <= REL_TOL * max(abs(a), 1e-300)


class TestBackendEquivalence:
    @pytest.mark.parametrize("backend", BACKENDS)
    def test_backend_matches_serial_psd(self, swept_system, backend):
        system, grid = swept_system
        clear_sweep_contexts()
        analyzer = MftNoiseAnalyzer(system)
        reference = analyzer.psd(grid)
        swept = analyzer.psd_sweep(grid, parallel=backend,
                                   max_workers=2, chunk_size=5)
        _assert_equivalent(reference, swept, f"{backend} vs serial")

    def test_chunk_size_does_not_matter(self, rc_system):
        grid = np.linspace(100.0, 4e4, 11)
        analyzer = MftNoiseAnalyzer(rc_system)
        reference = analyzer.psd(grid)
        for chunk in (1, 3, 64):
            swept = analyzer.psd_sweep(grid, parallel="thread",
                                       chunk_size=chunk)
            _assert_equivalent(reference, swept, f"chunk={chunk}")

    def test_batch_findings_do_not_depend_on_chunk_size(self, rc_system):
        # Each ω-block reports one spectral-batch finding; the executor
        # folds them into one sweep-level finding with summed counts.
        grid = np.linspace(100.0, 4e4, 16)
        analyzer = MftNoiseAnalyzer(rc_system)
        [reference] = analyzer.psd(grid).diagnostics.by_code(
            "spectral-batch")
        assert reference.data["n_batched"] == grid.size
        for chunk in (1, 5, 64):
            swept = analyzer.psd_sweep(grid, chunk_size=chunk)
            found = swept.diagnostics.by_code("spectral-batch")
            assert [f.data for f in found] == [reference.data], (
                f"chunk={chunk}")

    def test_executor_rejects_unknown_backend(self):
        from repro.errors import ReproError
        with pytest.raises(ReproError, match="backend"):
            SweepExecutor(backend="gpu")


class TestHeadlineAcceptance:
    def test_sc_lowpass_64pt_cached_parallel_matches_seed_serial(
            self, lowpass_model):
        # Acceptance criterion: on the 64-point SC low-pass sweep the
        # cached+parallel path matches the serial-uncached seed path to
        # <= 1e-12 relative on all finite points. (The >= 2x speedup
        # half lives in benchmarks/test_perf_regression.py.)
        grid = np.linspace(100.0, 12e3, 64)
        clear_sweep_contexts()
        seed = MftNoiseAnalyzer(lowpass_model.system, cache=False).psd(grid)
        fast = MftNoiseAnalyzer(lowpass_model.system, cache=True).psd_sweep(
            grid, parallel="thread")
        assert fast.info["executor"]["solver"] == "spectral-batch"
        _assert_equivalent(seed, fast, "cached+parallel vs seed serial",
                           skip=_SOLVE_RECORDS)


class _SlowChunkAnalyzer(MftNoiseAnalyzer):
    """Test double: every chunk takes a deterministic minimum time."""

    def __init__(self, system, delay, **kwargs):
        super().__init__(system, **kwargs)
        self.delay = delay

    def _sweep_batched(self, freqs, on_failure, budget, report, start=0):
        time.sleep(self.delay)
        return super()._sweep_batched(freqs, on_failure, budget, report,
                                      start=start)


class TestParallelBudget:
    def test_budget_stops_dispatch_but_not_inflight_chunks(
            self, rc_system):
        # One worker, chunks of 2, and a budget shorter than one chunk:
        # the first chunk is already in flight when the budget expires,
        # so it must complete (its points are finite), while every later
        # chunk is never dispatched (budget-stage failures).
        grid = np.linspace(100.0, 4e4, 8)
        analyzer = _SlowChunkAnalyzer(rc_system, delay=0.2)
        result = analyzer.psd_sweep(
            grid, parallel="thread", max_workers=1, chunk_size=2,
            budget=SweepBudget(wall_clock_seconds=0.05))
        assert np.all(np.isfinite(result.psd[:2])), (
            "in-flight chunk was not allowed to finish")
        assert np.all(~np.isfinite(result.psd[2:])), (
            "chunks were dispatched after the budget expired")
        budget_failures = [f for f in result.failures
                           if f.stage == "budget"]
        assert [f.index for f in budget_failures] == list(range(2, 8))
        assert result.diagnostics.by_code("budget-exhausted")
        assert result.info["executor"]["n_chunks_skipped"] == 3

    def test_serial_backend_budget_matches_plain_sweep(self, rc_system):
        grid = np.linspace(100.0, 4e4, 6)
        analyzer = _SlowChunkAnalyzer(rc_system, delay=0.1)
        serial = analyzer.psd_sweep(
            grid, parallel=None, chunk_size=2,
            budget=SweepBudget(wall_clock_seconds=0.05))
        assert np.all(np.isfinite(serial.psd[:2]))
        assert np.all(~np.isfinite(serial.psd[2:]))
        stages = {f.stage for f in serial.failures}
        assert stages == {"budget"}


class TestExecutorMetadata:
    def test_result_reports_executor_and_cache_stats(self, rc_system):
        grid = np.linspace(100.0, 4e4, 6)
        analyzer = MftNoiseAnalyzer(rc_system)
        result = analyzer.psd_sweep(grid, parallel="thread",
                                    max_workers=2, chunk_size=3)
        meta = result.info["executor"]
        assert meta["backend"] == "thread"
        assert meta["max_workers"] == 2
        assert meta["n_chunks"] == 2
        assert result.info["cache_stats"]["total_hits"] > 0
