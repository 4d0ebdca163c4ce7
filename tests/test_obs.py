"""Tests for the observability layer (:mod:`repro.obs`).

Covers the recorder primitives (spans, counters, histograms, thread
safety, pickling, merge), the render helpers, and the invariants the
engines must uphold: balanced span trees under every executor backend
and backend-independent metric totals.
"""

import pickle
import threading
import warnings

import numpy as np
import pytest

from repro.mft.context import clear_sweep_contexts
from repro.mft.engine import MftNoiseAnalyzer
from repro.obs import (
    NULL_RECORDER,
    NullRecorder,
    Recorder,
    attributed_fraction,
    format_trace,
    span_summary,
    stage_totals,
)


@pytest.fixture(autouse=True)
def _fresh_registry():
    clear_sweep_contexts()
    yield
    clear_sweep_contexts()


class TestRecorderBasics:
    def test_span_records_duration_and_tags(self):
        rec = Recorder()
        with rec.span("work", kind="unit") as span:
            span.tag(extra=1)
        (record,) = rec.spans
        assert record.name == "work"
        assert record.closed
        assert record.duration >= 0.0
        assert record.tags == {"kind": "unit", "extra": 1}

    def test_nesting_follows_thread_local_stack(self):
        rec = Recorder()
        with rec.span("outer") as outer:
            with rec.span("inner") as inner:
                pass
        spans = {s.name: s for s in rec.spans}
        assert spans["inner"].parent_id == outer.span_id
        assert spans["outer"].parent_id is None
        assert inner.span_id != outer.span_id

    def test_explicit_parent_overrides_stack(self):
        rec = Recorder()
        with rec.span("root") as root:
            pass
        with rec.span("adopted", _parent=root.span_id):
            pass
        spans = {s.name: s for s in rec.spans}
        assert spans["adopted"].parent_id == root.span_id

    def test_exception_closes_span_with_error_tag(self):
        rec = Recorder()
        with pytest.raises(ValueError):
            with rec.span("doomed"):
                raise ValueError("boom")
        (record,) = rec.spans
        assert record.closed
        assert record.tags["error"] == "ValueError"
        assert rec.is_balanced()

    def test_counters_and_histograms(self):
        rec = Recorder()
        rec.count("hits")
        rec.count("hits", 4)
        rec.observe("lat", 0.25)
        rec.observe("lat", 0.75)
        assert rec.counters == {"hits": 5}
        assert rec.histograms == {"lat": [0.25, 0.75]}
        summary = rec.histogram_summary()["lat"]
        assert summary["count"] == 2.0
        assert summary["mean"] == pytest.approx(0.5)

    def test_mark_scopes_export(self):
        rec = Recorder()
        with rec.span("before"):
            pass
        mark = rec.mark()
        with rec.span("after"):
            pass
        names = [s["name"] for s in rec.export(since=mark)["spans"]]
        assert names == ["after"]

    def test_checkpoint_export_since_deltas(self):
        rec = Recorder()
        rec.count("c", 3)
        rec.observe("h", 1.0)
        with rec.span("old"):
            pass
        checkpoint = rec.checkpoint()
        rec.count("c", 2)
        rec.count("fresh")
        rec.observe("h", 2.0)
        with rec.span("new"):
            pass
        delta = rec.export_since(checkpoint)
        assert [s["name"] for s in delta["spans"]] == ["new"]
        assert delta["counters"] == {"c": 2, "fresh": 1}
        assert delta["histograms"] == {"h": [2.0]}

    def test_reset_clears_but_ids_advance(self):
        rec = Recorder()
        with rec.span("a") as span:
            pass
        first_id = span.span_id
        rec.reset()
        assert rec.spans == []
        assert rec.counters == {}
        with rec.span("b") as span:
            pass
        assert span.span_id > first_id

    def test_thread_safety_of_counters(self):
        rec = Recorder()

        def bump():
            for _ in range(1000):
                rec.count("n")

        threads = [threading.Thread(target=bump) for _ in range(4)]
        for t in threads:
            t.start()
        for t in threads:
            t.join()
        assert rec.counters["n"] == 4000


class TestNullRecorder:
    def test_singleton_is_disabled_and_inert(self):
        assert NULL_RECORDER.enabled is False
        with NULL_RECORDER.span("anything", x=1) as span:
            assert span.tag(y=2) is span
            assert span.span_id is None
        assert NULL_RECORDER.count("c") is None
        assert NULL_RECORDER.observe("h", 1.0) is None
        assert NULL_RECORDER.mark() == 0
        assert NULL_RECORDER.export()["spans"] == []
        delta = NULL_RECORDER.export_since(NULL_RECORDER.checkpoint())
        assert delta == {"spans": [], "counters": {}, "histograms": {}}

    def test_span_handle_is_shared(self):
        a = NullRecorder().span("x")
        b = NULL_RECORDER.span("y")
        assert a is b


class TestPickleAndMerge:
    def test_recorder_survives_pickling(self):
        rec = Recorder()
        with rec.span("kept", n=3):
            pass
        rec.count("c", 2)
        clone = pickle.loads(pickle.dumps(rec))
        assert [s.name for s in clone.spans] == ["kept"]
        assert clone.counters == {"c": 2}
        # The rebuilt lock and stack must actually work.
        with clone.span("more"):
            pass
        assert clone.is_balanced()

    def test_merge_remaps_ids_and_attaches_orphans(self):
        parent = Recorder()
        with parent.span("root") as root:
            pass
        worker = Recorder()
        with worker.span("chunk"):
            with worker.span("solve"):
                pass
        worker.count("n", 5)
        worker.observe("lat", 0.5)
        parent.merge(worker.export(), parent_id=root.span_id)
        spans = {s.name: s for s in parent.spans}
        assert spans["chunk"].parent_id == root.span_id
        assert spans["solve"].parent_id == spans["chunk"].span_id
        ids = [s.span_id for s in parent.spans]
        assert len(ids) == len(set(ids))
        assert parent.counters == {"n": 5}
        assert parent.histograms == {"lat": [0.5]}

    def test_merge_accepts_recorder_instance(self):
        parent = Recorder()
        worker = Recorder()
        with worker.span("w"):
            pass
        parent.merge(worker)
        assert [s.name for s in parent.spans] == ["w"]


class TestRenderHelpers:
    def _sample(self):
        rec = Recorder()
        with rec.span("sweep"):
            for _ in range(3):
                with rec.span("solve"):
                    with rec.span("attempt"):
                        pass
            with rec.span("clip"):
                pass
        return rec

    def test_stage_totals_sums_by_name(self):
        rec = self._sample()
        totals = stage_totals(rec)
        assert set(totals) == {"sweep", "solve", "attempt", "clip"}
        assert totals["sweep"] >= totals["solve"] >= totals["attempt"]

    def test_span_summary_rows(self):
        rows = span_summary(self._sample())
        by_name = {row["name"]: row for row in rows}
        assert by_name["solve"]["count"] == 3
        assert by_name["solve"]["total_seconds"] >= \
            by_name["solve"]["max_seconds"]
        assert rows[0]["name"] == "sweep"  # sorted by total desc

    def test_attributed_fraction_near_one(self):
        assert attributed_fraction(self._sample(), "sweep") > 0.5
        assert attributed_fraction(self._sample(), "missing") == 0.0

    def test_format_trace_rolls_up_same_name_paths(self):
        text = format_trace(self._sample(), title="t")
        assert "solve ×3" in text
        assert "attempt ×3" in text  # across distinct solve parents
        assert text.count("solve") <= 3

    def test_format_trace_empty(self):
        assert "no spans" in format_trace(Recorder())


class TestEngineInvariants:
    GRID = np.linspace(100.0, 12e3, 8)

    def _sweep(self, rc_system, backend, **kwargs):
        clear_sweep_contexts()
        rec = Recorder()
        analyzer = MftNoiseAnalyzer(rc_system, segments_per_phase=16,
                                    recorder=rec)
        result = analyzer.psd_sweep(
            self.GRID, parallel=None if backend == "serial" else backend,
            max_workers=2, chunk_size=3, **kwargs)
        return rec, result

    @pytest.mark.parametrize("backend", ["serial", "thread", "process"])
    def test_span_tree_balances(self, rc_system, backend):
        rec, _ = self._sweep(rc_system, backend)
        assert rec.is_balanced()
        names = [s.name for s in rec.spans]
        assert "mft.sweep" in names
        assert "executor.chunk" in names

    @pytest.mark.parametrize("backend", ["thread", "process"])
    def test_chunks_attach_under_dispatch(self, rc_system, backend):
        rec, _ = self._sweep(rc_system, backend)
        spans = rec.spans
        dispatch = [s for s in spans if s.name == "executor.dispatch"]
        assert len(dispatch) == 1
        chunks = [s for s in spans if s.name == "executor.chunk"]
        assert chunks
        assert all(c.parent_id == dispatch[0].span_id for c in chunks)

    def test_metric_totals_identical_across_backends(self, rc_system):
        counters = {}
        for backend in ("serial", "thread", "process"):
            rec, result = self._sweep(rc_system, backend)
            counters[backend] = rec.counters
            assert np.all(np.isfinite(result.psd))
        keys = {"sweep.frequencies", "fallback.attempts",
                "executor.chunks_dispatched"}
        keys |= {k for k in counters["serial"] if k.startswith("cache.")}
        for backend in ("thread", "process"):
            for key in sorted(keys):
                assert counters[backend].get(key) == \
                    counters["serial"].get(key), (backend, key)

    def test_spectral_solver_spans_recorded(self, rc_system):
        rec, _ = self._sweep(rc_system, "serial", solver="spectral-batch")
        names = {s.name for s in rec.spans}
        assert {"spectral.batch", "spectral.eigenbasis",
                "spectral.solve"} <= names
        assert rec.is_balanced()

    def test_solve_histogram_and_frequency_counter(self, rc_system):
        clear_sweep_contexts()
        rec = Recorder()
        analyzer = MftNoiseAnalyzer(rc_system, segments_per_phase=16,
                                    recorder=rec)
        # One mft.solve_seconds sample per ω is the per-ω path's
        # contract; the batched default records none (no rescues).
        analyzer.psd(self.GRID, solver="mft")
        assert rec.counters["sweep.frequencies"] == self.GRID.size
        assert len(rec.histograms["mft.solve_seconds"]) == self.GRID.size
        analyzer.psd(self.GRID)
        assert rec.counters["sweep.frequencies"] == 2 * self.GRID.size
        assert len(rec.histograms["mft.solve_seconds"]) == self.GRID.size

    def test_report_timeline_attached(self, rc_system):
        clear_sweep_contexts()
        rec = Recorder()
        analyzer = MftNoiseAnalyzer(rc_system, segments_per_phase=16,
                                    recorder=rec)
        result = analyzer.psd(self.GRID)
        timeline = result.info["diagnostics"].timeline
        assert timeline
        assert {"name", "count", "total_seconds"} <= set(timeline[0])
        assert any(row["name"] == "mft.sweep" for row in timeline)
        assert "timeline" in result.info["diagnostics"].to_dict()

    def test_disabled_recorder_records_nothing(self, rc_system):
        clear_sweep_contexts()
        analyzer = MftNoiseAnalyzer(rc_system, segments_per_phase=16)
        assert analyzer.recorder is NULL_RECORDER
        result = analyzer.psd(self.GRID)
        assert result.info["diagnostics"].timeline == []

    def test_trace_report_and_export(self, rc_system):
        clear_sweep_contexts()
        rec = Recorder()
        analyzer = MftNoiseAnalyzer(rc_system, segments_per_phase=16,
                                    recorder=rec)
        analyzer.psd(self.GRID)
        text = analyzer.trace_report(title="unit trace")
        assert "unit trace" in text
        assert "mft.sweep" in text
        export = analyzer.trace_export()
        assert export["spans"]
        assert export["counters"]["sweep.frequencies"] == self.GRID.size

    def test_trace_report_without_recorder_explains(self, rc_system):
        analyzer = MftNoiseAnalyzer(rc_system, segments_per_phase=16)
        assert "recorder" in analyzer.trace_report().lower()

    def test_invalid_recorder_rejected(self, rc_system):
        from repro.errors import ReproError
        with pytest.raises(ReproError, match="recorder"):
            MftNoiseAnalyzer(rc_system, segments_per_phase=16,
                             recorder=object())


class TestCacheStatsFolding:
    def test_warm_up_preserves_counters(self, rc_system):
        # Regression: warm_up() must only ever *add* to the cache
        # counters — never reset them — no matter how often it runs.
        clear_sweep_contexts()
        analyzer = MftNoiseAnalyzer(rc_system, segments_per_phase=16)
        analyzer.warm_up()
        stats = analyzer.cache_stats
        first = stats.snapshot()
        assert sum(first["hits"].values()) or sum(first["misses"].values())
        analyzer.warm_up()
        analyzer.warm_up()
        second = stats.snapshot()
        assert second["misses"] == first["misses"]
        for kind, count in first["hits"].items():
            assert second["hits"][kind] >= count

    def test_cache_counters_folded_into_recorder(self, rc_system):
        clear_sweep_contexts()
        rec = Recorder()
        analyzer = MftNoiseAnalyzer(rc_system, segments_per_phase=16,
                                    recorder=rec)
        analyzer.psd(np.linspace(100.0, 12e3, 4))
        counters = rec.counters
        assert counters.get("cache.misses", 0) > 0
        total = sum(n for k, n in counters.items()
                    if k.startswith("cache.misses."))
        assert total == counters["cache.misses"]

    def test_snapshot_and_delta(self, rc_system):
        from repro.mft.context import CacheStats
        stats = CacheStats()
        stats.hit("a")
        before = stats.snapshot()
        stats.hit("a")
        stats.miss("b")
        stats.evict("c")
        delta = CacheStats.delta(before, stats.snapshot())
        assert delta["hits"] == {"a": 1}
        assert delta["misses"] == {"b": 1}
        assert delta["evictions"] == {"c": 1}

    def test_cache_stats_pickles_without_lock(self, rc_system):
        from repro.mft.context import CacheStats
        stats = CacheStats()
        stats.hit("a")
        clone = pickle.loads(pickle.dumps(stats))
        clone.hit("a")  # rebuilt lock must work
        assert clone.snapshot()["hits"]["a"] == 2


class TestBaselineInstrumentation:
    def test_brute_force_records_spans(self, rc_system):
        from repro.noise.brute_force import brute_force_psd
        rec = Recorder()
        result = brute_force_psd(rc_system, [1e3], segments_per_phase=16,
                                 recorder=rec)
        assert np.isfinite(result.psd).all()
        names = [s.name for s in rec.spans]
        assert names.count("brute-force.sweep") == 1
        assert names.count("brute-force.solve") == 1
        assert rec.counters["sweep.frequencies"] == 1
        assert len(rec.histograms["brute-force.solve_seconds"]) == 1
        assert rec.is_balanced()

    def test_monte_carlo_records_spans(self, rc_system):
        from repro.baselines.montecarlo import monte_carlo_psd
        rec = Recorder()
        mc = monte_carlo_psd(rc_system, n_trajectories=3, n_periods=16,
                             samples_per_period=16, segment_periods=4,
                             rng=1, recorder=rec)
        assert mc.n_trajectories == 3
        names = {s.name for s in rec.spans}
        assert {"monte-carlo.run", "monte-carlo.simulate",
                "monte-carlo.welch"} <= names
        assert rec.counters["monte-carlo.trajectories"] == 3
        assert rec.is_balanced()


class TestKeywordOnlyEngineCtor:
    def test_engine_positional_raises_type_error(self, rc_system):
        with pytest.raises(TypeError, match="positional"):
            MftNoiseAnalyzer(rc_system, 16)

    def test_keyword_call_does_not_warn(self, rc_system):
        with warnings.catch_warnings():
            warnings.simplefilter("error", DeprecationWarning)
            MftNoiseAnalyzer(rc_system, segments_per_phase=16)
