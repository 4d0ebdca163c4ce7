"""Tests for the unified ``solver=`` selection API.

The four solver names — ``"mft"``, ``"spectral-batch"``,
``"brute-force"``, ``"monte-carlo"`` — must resolve at all three entry
points (:meth:`NoiseAnalysis.psd`, :meth:`NoiseAnalysis.psd_sweep`,
:meth:`MftNoiseAnalyzer.psd_sweep`) and reproduce the pre-redesign call
forms exactly: identical values, identical NaN masks.
"""

import warnings

import numpy as np
import pytest

from repro.analysis import NoiseAnalysis, PsdResult, Recorder, SweepBudget
from repro.baselines.montecarlo import monte_carlo_psd
from repro.errors import ReproError
from repro.mft.context import clear_sweep_contexts
from repro.mft.engine import MftNoiseAnalyzer
from repro.noise.brute_force import brute_force_psd
from repro.noise.solvers import DEFAULT_SOLVER, SOLVERS, resolve_solver

GRID = np.linspace(100.0, 12e3, 8)


@pytest.fixture(autouse=True)
def _fresh_registry():
    clear_sweep_contexts()
    yield
    clear_sweep_contexts()


@pytest.fixture
def analysis(rc_system):
    return NoiseAnalysis(rc_system, segments_per_phase=16)


class TestResolveSolver:
    def test_none_defaults_to_spectral_batch(self):
        assert resolve_solver(None) == "spectral-batch"
        assert resolve_solver(None) == DEFAULT_SOLVER

    def test_none_without_context_is_the_per_omega_reference(self):
        assert resolve_solver(None, cached=False) == "mft"
        assert resolve_solver("spectral-batch", cached=False) \
            == "spectral-batch"

    @pytest.mark.parametrize("name", SOLVERS)
    def test_known_names_resolve(self, name):
        assert resolve_solver(name) == name

    def test_normalizes_case_and_whitespace(self):
        assert resolve_solver("  MFT ") == "mft"
        assert resolve_solver("Spectral-Batch") == "spectral-batch"

    def test_unknown_name_lists_choices(self):
        with pytest.raises(ReproError) as err:
            resolve_solver("simplex")
        for name in SOLVERS:
            assert name in str(err.value)

    def test_non_string_rejected(self):
        with pytest.raises(ReproError):
            resolve_solver(42)


class TestSolverEquivalence:
    """Each solver name reproduces its pre-redesign call form exactly."""

    def test_mft_name_matches_default(self, analysis):
        default = analysis.psd(GRID)
        named = analysis.psd(GRID, solver="mft")
        np.testing.assert_array_equal(default.psd, named.psd)
        assert named.info["solver"] == "mft"

    def test_default_is_spectral_batch_bit_for_bit(self, analysis):
        default = analysis.psd(GRID)
        named = analysis.psd(GRID, solver="spectral-batch")
        assert default.psd.tobytes() == named.psd.tobytes()
        assert default.info["solver"] == "spectral-batch"
        swept = analysis.psd_sweep(GRID)
        assert swept.psd.tobytes() == analysis.psd_sweep(
            GRID, solver="spectral-batch").psd.tobytes()
        assert swept.info["executor"]["solver"] == "spectral-batch"

    def test_uncached_default_is_the_per_omega_reference(self, rc_system):
        # cache=False builds no sweep context: the reference oracle.
        oracle = NoiseAnalysis(rc_system, segments_per_phase=16,
                               cache=False)
        assert oracle.psd(GRID).info["solver"] == "mft"
        assert oracle.psd_sweep(GRID).info["executor"]["solver"] == "mft"
        with pytest.raises(ReproError, match="spectral-batch"):
            oracle.psd(GRID, solver="spectral-batch")

    def test_spectral_batch_matches_mft_values_and_masks(self, analysis):
        freqs = GRID.copy()
        freqs[2] = np.nan
        freqs[5] = np.inf
        reference = analysis.psd(freqs, solver="mft")
        spectral = analysis.psd(freqs, solver="spectral-batch")
        assert np.array_equal(np.isnan(spectral.psd),
                              np.isnan(reference.psd))
        finite = np.isfinite(reference.psd)
        np.testing.assert_allclose(spectral.psd[finite],
                                   reference.psd[finite], rtol=1e-9)

    def test_brute_force_matches_free_function(self, analysis, rc_system):
        named = analysis.psd(GRID[:3], solver="brute-force")
        direct = brute_force_psd(rc_system, GRID[:3],
                                 segments_per_phase=16,
                                 context=analysis.engine.context)
        np.testing.assert_array_equal(named.psd, direct.psd)
        assert named.method == direct.method

    def test_monte_carlo_matches_free_function(self, analysis, rc_system):
        options = dict(n_trajectories=3, n_periods=16,
                       samples_per_period=16, segment_periods=4)
        named = analysis.psd(None, solver="monte-carlo", rng=7, **options)
        direct = monte_carlo_psd(rc_system, rng=7, **options)
        np.testing.assert_array_equal(named.psd, direct.psd.psd)
        np.testing.assert_array_equal(named.frequencies,
                                      direct.psd.frequencies)
        np.testing.assert_array_equal(named.info["standard_error"],
                                      direct.standard_error)
        assert named.info["n_periods"] == direct.n_periods

    @pytest.mark.parametrize("solver", ["mft", "spectral-batch"])
    def test_sweep_entry_points_agree(self, analysis, solver):
        engine = analysis.engine
        facade = analysis.psd_sweep(GRID, solver=solver)
        direct = engine.psd_sweep(GRID, solver=solver)
        plain = analysis.psd(GRID, solver=solver)
        np.testing.assert_array_equal(facade.psd, direct.psd)
        np.testing.assert_allclose(facade.psd, plain.psd, rtol=1e-12)

    def test_delegates_reachable_from_psd_sweep(self, analysis):
        swept = analysis.psd_sweep(GRID[:3], solver="brute-force")
        plain = analysis.psd(GRID[:3], solver="brute-force")
        np.testing.assert_array_equal(swept.psd, plain.psd)


class TestSolverValidation:
    def test_unknown_solver_rejected_at_each_entry_point(self, analysis):
        for call in (analysis.psd, analysis.psd_sweep,
                     analysis.engine.psd_sweep):
            with pytest.raises(ReproError, match="simplex"):
                call(GRID, solver="simplex")

    def test_solver_options_rejected_for_mft_paths(self, analysis):
        with pytest.raises(ReproError, match="tol_db"):
            analysis.psd(GRID, solver="mft", tol_db=0.1)
        with pytest.raises(ReproError, match="tol_db"):
            analysis.psd_sweep(GRID, solver="spectral-batch", tol_db=0.1)

    def test_monte_carlo_requires_no_frequency_grid(self, analysis):
        with pytest.raises(ReproError, match="[Ww]elch"):
            analysis.psd(GRID, solver="monte-carlo")

    def test_delegates_refuse_parallel_dispatch(self, analysis):
        for solver in ("brute-force", "monte-carlo"):
            with pytest.raises(ReproError, match="serial"):
                analysis.psd_sweep(GRID, parallel="thread", solver=solver)

    def test_executor_accepts_mft_alias(self, rc_system):
        from repro.mft.executor import SweepExecutor
        executor = SweepExecutor(backend="serial", solver="mft")
        assert executor.solver == "mft"
        assert SweepExecutor(backend="serial").solver == "spectral-batch"
        with pytest.raises(ReproError):
            SweepExecutor(backend="serial", solver="brute-force")


class TestSharedKeywords:
    """``budget=``, ``context=``, ``recorder=`` behave identically
    at every entry point."""

    def test_recorder_flows_to_delegates(self, rc_system):
        rec = Recorder()
        analysis = NoiseAnalysis(rc_system, segments_per_phase=16,
                                 recorder=rec)
        assert analysis.recorder is rec
        assert analysis.engine.recorder is rec
        analysis.psd(GRID[:2], solver="brute-force")
        analysis.psd(None, solver="monte-carlo", n_trajectories=2,
                     n_periods=16, samples_per_period=16,
                     segment_periods=4, rng=1)
        names = {s.name for s in rec.spans}
        assert "brute-force.sweep" in names
        assert "monte-carlo.run" in names

    def test_budget_exhaustion_records_failures(self, analysis):
        budget = SweepBudget(wall_clock_seconds=0.0)
        result = analysis.psd(GRID, budget=budget)
        assert np.isnan(result.psd).all()
        assert result.info["failures"]

    def test_context_shared_between_engines(self, rc_system):
        from repro.mft.context import sweep_context_for
        context = sweep_context_for(rc_system, 16)
        analysis = NoiseAnalysis(rc_system, segments_per_phase=16,
                                 context=context)
        assert analysis.engine.context is context
        direct = analysis.psd(GRID[:2], solver="brute-force")
        assert np.isfinite(direct.psd).all()

    def test_facade_trace_report(self, rc_system):
        rec = Recorder()
        analysis = NoiseAnalysis(rc_system, segments_per_phase=16,
                                 recorder=rec)
        analysis.psd(GRID)
        assert "mft.sweep" in analysis.trace_report()
        assert analysis.trace_export()["spans"]


class TestKeywordOnlyConstructors:
    def test_facade_positional_raises_type_error(self, rc_system):
        with pytest.raises(TypeError, match="positional"):
            NoiseAnalysis(rc_system, 16)

    def test_facade_keyword_call_is_silent(self, rc_system):
        with warnings.catch_warnings():
            warnings.simplefilter("error", DeprecationWarning)
            NoiseAnalysis(rc_system, segments_per_phase=16)

    def test_compat_shim_is_gone(self):
        with pytest.raises(ImportError):
            from repro._compat import absorb_positional  # noqa: F401


class TestExports:
    def test_analysis_all_is_exactly_the_public_surface(self):
        import repro.analysis as analysis_pkg
        assert set(analysis_pkg.__all__) == {
            "CornerSweepResult", "NoiseAnalysis", "PsdResult",
            "Recorder", "SpectrumComparison", "SweepBudget",
            "compare_spectra",
        }

    def test_top_level_reexports(self):
        import repro
        assert repro.Recorder is Recorder
        assert repro.PsdResult is PsdResult
        assert repro.SweepBudget is SweepBudget
        assert "Recorder" in repro.__all__

    def test_solver_registry_is_frozen_tuple(self):
        assert SOLVERS == ("mft", "spectral-batch", "brute-force",
                           "monte-carlo")
