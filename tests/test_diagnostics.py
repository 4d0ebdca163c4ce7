"""Solver guardrails: preflight, fallback chain, budgets, error paths."""

import logging
import time

import numpy as np
import pytest

import repro
from repro.diagnostics import (
    DiagnosticsReport,
    FallbackPolicy,
    Severity,
    SweepBudget,
    preflight_report,
)
from repro.diagnostics.fallback import (
    FallbackExhausted,
    run_fallback_chain,
)
from repro.diagnostics.preflight import require_preflight
from repro.errors import (
    BudgetExceededError,
    ConvergenceError,
    ReproError,
    ScheduleError,
    SingularMatrixError,
    StabilityError,
)
from repro.baselines.lti import lti_noise_psd
from repro.lptv.monodromy import require_stable, stability_margin
from repro.lptv.system import Phase, PiecewiseLTISystem, lti_phase_system
from repro.mft.engine import MftNoiseAnalyzer
from repro.noise.brute_force import brute_force_psd


def marginal_system(eps=1e-4, fast=1e4, period=1e-3):
    """Two-state LTI-as-switched system with one marginal Floquet mode.

    The slow pole at ``-eps`` gives a multiplier ``exp(-eps*T)`` within
    1e-7 of the unit circle, so ``(I - M)`` is ill-conditioned near DC —
    the scenario the fallback chain exists for.
    """
    a = np.diag([-float(eps), -float(fast)])
    b = np.array([[1.0], [1.0]])
    l_row = np.array([[1.0, 1.0]])
    return lti_phase_system(a, b, period=period, output_matrix=l_row)


def unstable_system(period=1e-3):
    a = np.array([[0.5]])  # positive pole: multiplier exp(0.5 T) > 1
    return lti_phase_system(a, np.array([[1.0]]), period=period)


class TestDiagnosticsReport:
    def test_severity_ordering_and_worst(self):
        report = DiagnosticsReport(context="t")
        assert report.worst_severity is None
        report.info("a", "info msg")
        report.warning("b", "warn msg", value=3.0)
        assert report.worst_severity == Severity.WARNING
        assert not report.has_errors
        report.error("c", "err msg")
        assert report.has_errors
        assert report.worst_severity == Severity.ERROR
        assert len(report.at_least(Severity.WARNING)) == 2

    def test_by_code_and_to_dict(self):
        report = DiagnosticsReport()
        report.warning("x", "one", k=1)
        report.warning("x", "two", k=2)
        report.info("y", "three")
        assert [f.data["k"] for f in report.by_code("x")] == [1, 2]
        as_dict = report.to_dict()
        assert len(as_dict["findings"]) == 3
        assert as_dict["findings"][0]["severity"] == "warning"

    def test_merge_and_str(self):
        a = DiagnosticsReport(context="a")
        a.info("one", "first")
        b = DiagnosticsReport(context="b")
        b.error("two", "second")
        a.merge(b)
        assert len(a) == 2
        text = str(a)
        assert "first" in text and "second" in text


class TestPreflight:
    def test_clean_system(self, rc_system):
        report = preflight_report(rc_system.discretize(8))
        assert not report.has_errors
        assert report.by_code("floquet-stable")
        assert report.by_code("fixed-point-conditioning")

    def test_marginal_system_flagged(self):
        report = preflight_report(marginal_system().discretize(4))
        findings = report.by_code("floquet-margin")
        assert findings, "near-unit multiplier must be flagged"
        assert findings[0].severity == Severity.WARNING
        assert findings[0].data["spectral_radius"] > 0.999

    def test_unstable_system_is_error(self):
        report = preflight_report(unstable_system().discretize(4))
        assert report.has_errors
        finding = report.by_code("floquet-unstable")[0]
        assert finding.data["spectral_radius"] > 1.0

    def test_require_preflight_raises_stability_with_multipliers(self):
        with pytest.raises(StabilityError) as excinfo:
            require_preflight(unstable_system().discretize(4))
        err = excinfo.value
        assert err.spectral_radius > 1.0
        assert err.multipliers is not None
        assert abs(err.multipliers[0]) > 1.0
        assert err.diagnostics is not None
        assert err.diagnostics.has_errors

    def test_nan_propagator_detected(self, rc_system):
        disc = rc_system.discretize(4)
        disc.segments[2].phi[0, 0] = np.nan
        report = preflight_report(disc)
        assert report.has_errors
        assert report.by_code("non-finite-propagator")
        # stability checks are skipped, not bogus
        assert report.by_code("stability-skipped")

    def test_malformed_schedule_raises_schedule_error(self):
        with pytest.raises(ScheduleError):
            Phase(name="bad", duration=-1.0,
                  a_matrix=np.array([[-1.0]]), b_matrix=np.array([[1.0]]))
        with pytest.raises(ScheduleError):
            PiecewiseLTISystem(phases=[])


class TestStabilityHelpers:
    def test_stability_margin(self, rc_system):
        margin, mults = stability_margin(rc_system.discretize(2))
        assert 0.0 < margin <= 1.0
        assert np.all(np.abs(mults) < 1.0)

    def test_require_stable_carries_multipliers(self):
        with pytest.raises(StabilityError) as excinfo:
            require_stable(unstable_system().discretize(2))
        assert excinfo.value.multipliers is not None


class TestFallbackChain:
    def test_primary_success_records_one_attempt(self):
        report = DiagnosticsReport()
        value, attempts = run_fallback_chain(
            [("direct", lambda: 42.0)], 1e3, report)
        assert value == 42.0
        assert len(attempts) == 1
        assert attempts[0].success and attempts[0].trigger == "primary"

    def test_fallback_engaged_and_recorded(self):
        def boom():
            raise SingularMatrixError("singular")

        report = DiagnosticsReport()
        value, attempts = run_fallback_chain(
            [("direct", boom), ("fallback", lambda: 7.0)], 2e3, report)
        assert value == 7.0
        assert [a.success for a in attempts] == [False, True]
        assert "SingularMatrixError" in attempts[1].trigger
        codes = [f.code for f in report]
        assert codes.count("fallback-attempt") == 2

    def test_exhaustion_raises_with_attempts(self):
        def boom():
            raise ConvergenceError("nope")

        report = DiagnosticsReport()
        with pytest.raises(FallbackExhausted) as excinfo:
            run_fallback_chain([("a", boom), ("b", boom)], 3e3, report)
        assert len(excinfo.value.attempts) == 2
        assert report.by_code("fallback-exhausted")

    def test_non_repro_errors_propagate(self):
        def bug():
            raise TypeError("programming error")

        with pytest.raises(TypeError):
            run_fallback_chain([("a", bug)], 1.0, DiagnosticsReport())


class TestMftGuardrails:
    def test_unstable_system_raises_at_construction(self):
        with pytest.raises(StabilityError) as excinfo:
            MftNoiseAnalyzer(unstable_system(), segments_per_phase=4)
        assert excinfo.value.multipliers is not None

    def test_preflight_opt_out(self):
        # With preflight off, construction succeeds; failure surfaces
        # later, at covariance time (the historical behaviour).
        analyzer = MftNoiseAnalyzer(unstable_system(), segments_per_phase=4, preflight=False)
        with pytest.raises(StabilityError):
            analyzer.average_output_variance()

    def test_marginal_sweep_completes_via_fallback(self):
        """Acceptance: multiplier >= 0.999... sweeps via the chain."""
        system = marginal_system()
        policy = FallbackPolicy(condition_limit=1e4,
                                enable_brute_force=False)
        analyzer = MftNoiseAnalyzer(system, segments_per_phase=8, fallback=policy)
        radius = analyzer.preflight.by_code(
            "floquet-margin")[0].data["spectral_radius"]
        assert radius >= 0.999
        freqs = np.array([1e-3, 1.0, 100.0])
        result = analyzer.psd(freqs)
        # every frequency produced a value...
        assert result.n_failed == 0
        ref = lti_noise_psd(np.diag([-1e-4, -1e4]),
                            np.array([[1.0], [1.0]]),
                            np.array([1.0, 1.0]), freqs)
        assert np.allclose(result.psd, ref, rtol=1e-6)
        # ...the near-DC one needed the regularized fallback...
        attempts = result.info["fallback_attempts"]
        regularized = [a for a in attempts
                       if a.strategy == "mft-regularized" and a.success]
        assert regularized and regularized[0].frequency == 1e-3
        # ...and every attempt + preflight finding is in diagnostics.
        report = result.info["diagnostics"]
        assert report.by_code("floquet-margin")
        attempt_findings = report.by_code("fallback-attempt")
        assert len(attempt_findings) == len(attempts)

    def test_brute_force_terminal_fallback(self, rc_system):
        # Force the chain past every MFT stage onto the transient engine.
        policy = FallbackPolicy(
            condition_limit=1e-3,  # rejects every direct solve
            max_refinements=0, enable_regularized=False,
            brute_force_kwargs={"tol_db": 0.5, "segments_per_phase": 32})
        analyzer = MftNoiseAnalyzer(rc_system, segments_per_phase=32, fallback=policy)
        result = analyzer.psd([7.5e3])
        assert result.n_failed == 0
        attempts = result.info["fallback_attempts"]
        assert attempts[-1].strategy == "brute-force"
        assert attempts[-1].success
        reference = MftNoiseAnalyzer(rc_system, segments_per_phase=32).psd_at(7.5e3)
        assert result.psd[0] == pytest.approx(reference, rel=0.15)

    def test_sweep_survives_one_failing_frequency(self, rc_system,
                                                  monkeypatch):
        """Acceptance: one bad frequency -> NaN, the rest are returned."""
        analyzer = MftNoiseAnalyzer(rc_system, segments_per_phase=16, fallback=False)
        real = MftNoiseAnalyzer._psd_at
        bad = 2e3

        def flaky(self, frequency, **kwargs):
            if frequency == bad:
                raise SingularMatrixError("injected failure")
            return real(self, frequency, **kwargs)

        monkeypatch.setattr(MftNoiseAnalyzer, "_psd_at", flaky)
        # _psd_at is the per-ω reference solve; the batched default
        # reaches it only as a rescue (see the batched-seam test below).
        result = analyzer.psd([1e3, bad, 8e3], solver="mft")
        assert result.n_failed == 1
        assert np.isnan(result.psd[1])
        assert np.all(np.isfinite(result.psd[[0, 2]]))
        failure = result.failures[0]
        assert failure.frequency == bad and failure.stage == "solve"
        assert "SingularMatrixError" in failure.message
        ok_f, ok_v = result.successful()
        assert list(ok_f) == [1e3, 8e3]
        assert np.all(ok_v > 0.0)

    def test_batched_rejection_rescued_per_frequency(self, rc_system,
                                                     monkeypatch):
        """The default batched sweep reruns a rejected ω per frequency.

        The batched solve is told to reject one frequency; its per-ω
        rescue then fails too, so that bin alone becomes NaN with a
        solve-stage failure, while the others keep their batched values.
        """
        from repro.mft.context import SweepContext

        analyzer = MftNoiseAnalyzer(rc_system, segments_per_phase=16,
                                    fallback=False)
        bad = 2e3
        reference = analyzer.psd([1e3, bad, 8e3])
        real_batched = SweepContext.solve_batched

        def rejecting(self, omegas, *args, **kwargs):
            batch = real_batched(self, omegas, *args, **kwargs)
            batch.ok = batch.ok & (omegas != 2.0 * np.pi * bad)
            return batch

        def failing(self, frequency, **kwargs):
            raise SingularMatrixError("injected failure")

        monkeypatch.setattr(SweepContext, "solve_batched", rejecting)
        monkeypatch.setattr(MftNoiseAnalyzer, "_psd_at", failing)
        result = analyzer.psd([1e3, bad, 8e3])
        assert result.info["solver"] == "spectral-batch"
        assert [(f.index, f.stage) for f in result.failures] == [
            (1, "solve")]
        assert np.isnan(result.psd[1])
        assert result.psd[[0, 2]].tobytes() \
            == reference.psd[[0, 2]].tobytes()
        finding = result.diagnostics.by_code("spectral-batch")[0]
        assert (finding.data["n_batched"], finding.data["n_rescued"]) \
            == (2, 1)

    def test_budget_gates_each_batched_rescue(self, rc_system,
                                              monkeypatch):
        # cond(I − M) >= 1, so a sub-unity limit sends every frequency
        # of the batched default to the per-ω rescue; each rescue takes
        # longer than the budget, so only the first one runs.
        policy = FallbackPolicy(condition_limit=0.5,
                                enable_refinement=False,
                                enable_brute_force=False)
        analyzer = MftNoiseAnalyzer(rc_system, segments_per_phase=16,
                                    fallback=policy)
        real = MftNoiseAnalyzer._psd_at

        def slow(self, frequency, **kwargs):
            time.sleep(0.3)
            return real(self, frequency, **kwargs)

        monkeypatch.setattr(MftNoiseAnalyzer, "_psd_at", slow)
        result = analyzer.psd([1e3, 2e3, 4e3, 8e3],
                              budget=SweepBudget(wall_clock_seconds=0.2))
        assert np.isfinite(result.psd[0])
        assert [(f.index, f.stage) for f in result.failures] == [
            (1, "budget"), (2, "budget"), (3, "budget")]
        assert result.diagnostics.by_code("budget-exhausted")

    def test_on_failure_raise(self, rc_system, monkeypatch):
        analyzer = MftNoiseAnalyzer(rc_system, segments_per_phase=16, fallback=False)

        def boom(self, frequency, **kwargs):
            raise SingularMatrixError("injected")

        monkeypatch.setattr(MftNoiseAnalyzer, "_psd_at", boom)
        with pytest.raises(FallbackExhausted) as excinfo:
            analyzer.psd([1e3], on_failure="raise", solver="mft")
        assert excinfo.value.diagnostics is not None

    def test_sweep_budget_records_skipped_frequencies(self, rc_system):
        analyzer = MftNoiseAnalyzer(rc_system, segments_per_phase=16)
        result = analyzer.psd([1e3, 2e3, 3e3],
                              budget=SweepBudget(wall_clock_seconds=0.0))
        assert result.n_failed == 3
        assert all(f.stage == "budget" for f in result.failures)
        assert result.diagnostics.by_code("budget-exhausted")

    def test_negative_clip_diagnostic(self, rc_system, monkeypatch):
        analyzer = MftNoiseAnalyzer(rc_system, segments_per_phase=16, fallback=False)

        def negative(self, frequency, **kwargs):
            return -2.5e-18 if frequency == 1e3 else 1e-18

        monkeypatch.setattr(MftNoiseAnalyzer, "_psd_at", negative)
        result = analyzer.psd([1e3, 5e3], solver="mft")
        assert result.psd[0] == 0.0
        assert result.info["negative_clipped"] == 1
        assert result.info["worst_negative_psd"] == pytest.approx(-2.5e-18)
        finding = result.diagnostics.by_code("negative-psd-clipped")[0]
        assert finding.data["worst_frequency"] == 1e3
        assert finding.data["worst_value"] == pytest.approx(-2.5e-18)
        assert "too coarse" in finding.message

    def test_nan_frequency_recorded_not_crashed(self, rc_system):
        # A non-finite frequency must become an input-stage failure,
        # not a raw LinAlgError escaping the chain mid-sweep.
        result = MftNoiseAnalyzer(rc_system, segments_per_phase=16).psd([1e3, np.nan])
        assert np.isfinite(result.psd[0])
        assert np.isnan(result.psd[1])
        assert [f.stage for f in result.failures] == ["input"]
        assert result.diagnostics.by_code("non-finite-frequency")

    def test_nan_frequency_raise_mode(self, rc_system):
        analyzer = MftNoiseAnalyzer(rc_system, segments_per_phase=16)
        with pytest.raises(ReproError):
            analyzer.psd([np.inf], on_failure="raise")

    def test_healthy_sweep_diagnostics_clean(self, rc_system):
        result = MftNoiseAnalyzer(rc_system, segments_per_phase=16).psd([1e3, 5e3])
        assert result.n_failed == 0
        assert result.failures == []
        report = result.diagnostics
        assert not report.has_warnings
        assert result.info["negative_clipped"] == 0


class TestBruteForceGuardrails:
    def test_convergence_error_carries_frequency(self, rc_system):
        with pytest.raises(ConvergenceError) as excinfo:
            brute_force_psd(rc_system, [1e3], segments_per_phase=16,
                            tol_db=1e-9, max_periods=12,
                            window_periods=3, min_periods=2)
        err = excinfo.value
        assert err.frequency == 1e3
        assert err.iterations is not None
        assert err.diagnostics is not None

    def test_record_mode_returns_other_frequencies(self, rc_system):
        # Frequency-independent convergence knobs would fail every
        # frequency, so make the *first* call impossible via max_periods
        # but keep the sweep in record mode: all samples fail, none raise.
        result = brute_force_psd(rc_system, [1e3, 8e3],
                                 segments_per_phase=16, tol_db=1e-9,
                                 max_periods=12, window_periods=3,
                                 min_periods=2, on_failure="record")
        assert result.n_failed == 2
        assert all(np.isnan(result.psd))
        assert [f.stage for f in result.failures] == ["transient"] * 2
        assert result.diagnostics.by_code("brute-force-failure")

    def test_record_mode_keeps_good_frequencies(self, rc_system):
        result = brute_force_psd(rc_system, [1e3, 8e3],
                                 segments_per_phase=32, tol_db=0.5,
                                 on_failure="record")
        assert result.n_failed == 0
        assert np.all(np.isfinite(result.psd))

    def test_wall_clock_budget_stops_hang(self, rc_system):
        # An impossible tolerance with a huge max_periods would hang;
        # the budget bounds it (checked inside the per-period loop).
        result = brute_force_psd(rc_system, [1e3], segments_per_phase=16,
                                 tol_db=1e-12, max_periods=10**9,
                                 on_failure="record",
                                 budget=SweepBudget(
                                     wall_clock_seconds=0.2))
        assert result.n_failed == 1
        assert result.failures[0].stage in ("transient", "budget")

    def test_budget_raise_mode(self, rc_system):
        with pytest.raises((BudgetExceededError, ConvergenceError)):
            brute_force_psd(rc_system, [1e3, 8e3], segments_per_phase=16,
                            tol_db=1e-12, max_periods=10**9,
                            budget=SweepBudget(wall_clock_seconds=0.1))


class TestSweepBudget:
    def test_unlimited_budget_never_exceeds(self):
        budget = SweepBudget()
        assert budget.exceeded() is None
        assert budget.remaining_seconds() is None
        assert budget.deadline() is None
        budget.check()  # must not raise

    def test_wall_clock(self):
        budget = SweepBudget(wall_clock_seconds=0.0).start()
        assert "wall-clock" in budget.exceeded()
        with pytest.raises(BudgetExceededError):
            budget.check()

    def test_period_budget(self):
        budget = SweepBudget(max_total_periods=10)
        budget.charge_periods(4)
        assert budget.exceeded() is None
        budget.charge_periods(6)
        assert "period budget" in budget.exceeded()

    def test_seconds_shorthand(self):
        from repro.diagnostics import as_budget
        budget = as_budget(12.5)
        assert budget.wall_clock_seconds == 12.5
        assert as_budget(budget) is budget
        assert as_budget(None).wall_clock_seconds is None


class TestErrorAttachments:
    def test_attach_diagnostics_idiom(self):
        report = DiagnosticsReport()
        report.error("x", "boom")
        err = ReproError("failed").attach_diagnostics(report)
        assert err.diagnostics is report

    def test_convergence_error_fields(self):
        err = ConvergenceError("slow", iterations=3, residual=0.1,
                               frequency=5e3)
        assert (err.iterations, err.residual, err.frequency) == \
            (3, 0.1, 5e3)
        # the historical two-kwarg form still works
        err = ConvergenceError("slow", iterations=7, residual=0.5)
        assert err.frequency is None

    def test_budget_error_fields(self):
        err = BudgetExceededError("spent", elapsed_seconds=1.5,
                                  spent_periods=200)
        assert err.elapsed_seconds == 1.5
        assert err.spent_periods == 200


class TestLoggingSetup:
    def test_configure_logging_idempotent(self):
        logger = repro.configure_logging("DEBUG")
        n = len(logger.handlers)
        repro.configure_logging("INFO")
        assert len(logging.getLogger("repro").handlers) == n
        # clean up: drop the stream handler again
        for handler in list(logger.handlers):
            if handler.get_name() == "repro-configure-logging":
                logger.removeHandler(handler)

    def test_no_print_in_library(self):
        import pathlib
        root = pathlib.Path(repro.__file__).parent
        offenders = []
        for path in root.rglob("*.py"):
            for line_number, line in enumerate(
                    path.read_text().splitlines(), 1):
                stripped = line.strip()
                if stripped.startswith("print(") \
                        and "# noqa: print" not in line:
                    offenders.append(f"{path.name}:{line_number}")
        assert not offenders, f"bare print() in library code: {offenders}"

    def test_engines_emit_logs(self, rc_system, caplog):
        with caplog.at_level(logging.DEBUG, logger="repro"):
            MftNoiseAnalyzer(rc_system, segments_per_phase=8).psd([1e3])
        assert any(record.name.startswith("repro")
                   for record in caplog.records)


class TestPartialResultAccessors:
    def test_psd_result_accessors(self):
        from repro.noise.result import PsdResult
        result = PsdResult(frequencies=np.array([1.0, 2.0, 3.0]),
                           psd=np.array([1e-12, np.nan, 3e-12]))
        assert result.n_failed == 1
        assert list(result.ok_mask()) == [True, False, True]
        freqs, values = result.successful()
        assert list(freqs) == [1.0, 3.0]
        assert result.diagnostics is None
        assert result.failures == []

    def test_adaptive_grid_survives_nan(self):
        calls = []

        def psd_fn(f):
            calls.append(f)
            if 9.0 <= f <= 11.0:
                return np.nan
            return 1.0 / f

        from repro.mft.sweep import adaptive_frequency_grid
        freqs, values = adaptive_frequency_grid(psd_fn, 1.0, 100.0,
                                                n_initial=8,
                                                max_points=40)
        assert len(freqs) <= 40
        assert np.sum(~np.isfinite(values)) >= 1
        finite = np.isfinite(values)
        assert np.all(values[finite] > 0.0)
