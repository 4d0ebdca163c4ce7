"""Frequency-batched spectral kernel vs. the per-ω reference path.

The spectral-batch solver (:mod:`repro.mft.spectral`) must reproduce the
reference sweep — values within the 1e-9 equivalence budget, *identical*
NaN masks and failure records — while segment groups with a defective or
ill-conditioned eigenbasis fall back per group (never per sweep) with a
severity-tagged diagnostics finding.
"""

import numpy as np
import pytest

from repro.errors import ReproError
from repro.lptv.system import Phase, PiecewiseLTISystem
from repro.mft.context import sweep_context_for
from repro.mft.engine import MftNoiseAnalyzer
from repro.mft.spectral import (
    build_group_bases,
    phi_scalar_integrals,
    solve_spectral_batch,
)
from repro.diagnostics.fallback import FallbackPolicy
from repro.linalg.phi import affine_step_integrals

SPECTRAL_REL_TOL = 1e-9


def _failure_records(result):
    return [(f.index, f.stage, f.error) for f in result.info["failures"]]


def _assert_spectral_equivalent(reference, spectral):
    assert np.array_equal(np.isnan(reference.psd), np.isnan(spectral.psd))
    finite = np.isfinite(reference.psd)
    if np.any(finite):
        scale = np.max(np.abs(reference.psd[finite]))
        assert np.max(np.abs(spectral.psd[finite]
                             - reference.psd[finite])) <= (
            SPECTRAL_REL_TOL * scale)
    assert _failure_records(reference) == _failure_records(spectral)


class TestPhiScalarIntegrals:
    def test_matches_matrix_integrals_on_diagonal_matrix(self):
        # For A = diag(λ) the matrix I1/I2 are diagonal with exactly the
        # scalar factors, across the series and closed-form regimes.
        lam = np.array([-0.5, -2e4, 0.0])
        h = 1e-4
        omega = 2.0 * np.pi * 700.0
        z = (lam - 1j * omega) * h
        i1d, i2d = phi_scalar_integrals(z, h)
        a_shifted = np.diag(lam.astype(complex)) - 1j * omega * np.eye(3)
        _phi, i1, i2 = affine_step_integrals(a_shifted, h)
        np.testing.assert_allclose(i1d, np.diagonal(i1), rtol=1e-12)
        np.testing.assert_allclose(i2d, np.diagonal(i2), rtol=1e-12)

    def test_series_regime_matches_closed_form_at_threshold(self):
        # Continuity across the series/closed-form switch: arguments
        # straddling the threshold agree to rounding.
        z = np.array([0.031, 0.032, 0.031j, 0.032j, 0.031 + 0.001j])
        i1a, i2a = phi_scalar_integrals(z, 1.0)
        expected1 = (np.exp(z) - 1.0) / z
        expected2 = (np.exp(z) - 1.0 - z) / z ** 2
        np.testing.assert_allclose(i1a, expected1, rtol=1e-10)
        np.testing.assert_allclose(i2a, expected2, rtol=1e-8)


class TestBatchedSolveEquivalence:
    def test_switched_rc_matches_reference(self, rc_system):
        analyzer = MftNoiseAnalyzer(rc_system, segments_per_phase=16)
        freqs = np.linspace(100.0, 30e3, 40)
        _assert_spectral_equivalent(
            analyzer.psd_sweep(freqs, solver="mft"),
            analyzer.psd_sweep(freqs, solver="spectral-batch"))

    def test_sc_lowpass_matches_reference(self, lowpass_model):
        analyzer = MftNoiseAnalyzer(lowpass_model.system,
                                    segments_per_phase=16)
        freqs = np.linspace(100.0, 12e3, 48)
        _assert_spectral_equivalent(
            analyzer.psd_sweep(freqs, solver="mft"),
            analyzer.psd_sweep(freqs, solver="spectral-batch"))

    def test_injected_nonfinite_frequencies(self, rc_system):
        analyzer = MftNoiseAnalyzer(rc_system, segments_per_phase=16)
        freqs = np.linspace(100.0, 30e3, 24)
        freqs[2] = np.inf
        freqs[9] = np.nan
        freqs[17] = -np.inf
        reference = analyzer.psd_sweep(freqs, solver="mft")
        spectral = analyzer.psd_sweep(freqs, solver="spectral-batch")
        _assert_spectral_equivalent(reference, spectral)
        assert [r[1] for r in _failure_records(spectral)] == ["input"] * 3

    def test_condition_gate_reruns_through_fallback_chain(self, rc_system):
        # cond(I − M) >= 1 always, so a sub-unity limit rejects every
        # direct solve; both paths must rescue each frequency through
        # the identical fallback chain (regularized solve succeeds).
        policy = FallbackPolicy(condition_limit=0.5,
                                enable_refinement=False,
                                enable_brute_force=False)
        analyzer = MftNoiseAnalyzer(rc_system, segments_per_phase=16,
                                    fallback=policy)
        freqs = np.linspace(100.0, 30e3, 8)
        _assert_spectral_equivalent(
            analyzer.psd_sweep(freqs, solver="mft"),
            analyzer.psd_sweep(freqs, solver="spectral-batch"))

    def test_parallel_spectral_matches_serial_spectral(self, rc_system):
        analyzer = MftNoiseAnalyzer(rc_system, segments_per_phase=16)
        freqs = np.linspace(100.0, 30e3, 40)
        serial = analyzer.psd_sweep(freqs, solver="spectral-batch",
                                    chunk_size=8)
        threaded = analyzer.psd_sweep(freqs, parallel="thread",
                                      solver="spectral-batch",
                                      chunk_size=8)
        np.testing.assert_array_equal(serial.psd, threaded.psd)


class TestBatchedSolveValidation:
    def test_requires_cache_or_context(self, rc_system):
        analyzer = MftNoiseAnalyzer(rc_system, segments_per_phase=16,
                                    cache=False)
        with pytest.raises(ReproError, match="spectral-batch"):
            analyzer.psd_sweep([1e3], solver="spectral-batch")

    def test_unknown_solver_rejected(self, rc_system):
        analyzer = MftNoiseAnalyzer(rc_system, segments_per_phase=16)
        with pytest.raises(ReproError, match="solver"):
            analyzer.psd_sweep([1e3], solver="eigen-magic")

    def test_nonfinite_omegas_rejected_by_kernel(self, rc_system):
        context = sweep_context_for(rc_system, 16)
        analyzer = MftNoiseAnalyzer(rc_system, context=context)
        forcing = analyzer._forcing_pairs()
        with pytest.raises(ReproError, match="finite"):
            solve_spectral_batch(context, np.array([1e3, np.inf]), forcing)

    def test_bad_forcing_shape_rejected(self, rc_system):
        context = sweep_context_for(rc_system, 16)
        with pytest.raises(ReproError, match="forcing"):
            solve_spectral_batch(context, np.array([1e3]),
                                 np.zeros((3, 2, 1)))

    def test_empty_omega_block(self, rc_system):
        context = sweep_context_for(rc_system, 16)
        analyzer = MftNoiseAnalyzer(rc_system, context=context)
        forcing = analyzer._forcing_pairs()
        batch = solve_spectral_batch(context, np.empty(0), forcing)
        assert batch.integral.shape == (0, context.disc.n_states)
        assert batch.ok.shape == (0,)

    def test_budget_gates_block_dispatch(self, rc_system):
        analyzer = MftNoiseAnalyzer(rc_system, segments_per_phase=16)
        freqs = np.linspace(100.0, 30e3, 12)
        result = analyzer.psd_sweep(freqs, solver="spectral-batch",
                                    budget=0.0)
        assert np.all(np.isnan(result.psd))
        assert all(f.stage == "budget"
                   for f in result.info["failures"])
        assert len(result.info["failures"]) == freqs.size


def _jordan_system():
    """Two-phase system whose first phase matrix is a Jordan block.

    The Jordan block is defective — numerically parallel eigenvectors,
    cond(V) far beyond the gate — while the second phase is comfortably
    diagonalizable, so exactly one segment group must fall back.
    """
    tau = 1e-5
    jordan = np.array([[-2.0 / tau, 1.0 / tau],
                       [0.0, -2.0 / tau]])
    plain = np.array([[-1.0 / tau, 0.0],
                      [0.0, -3.0 / tau]])
    b = np.array([[1.0], [0.5]])
    return PiecewiseLTISystem(
        phases=[
            Phase(name="jordan", duration=tau, a_matrix=jordan, b_matrix=b),
            Phase(name="plain", duration=tau, a_matrix=plain, b_matrix=b),
        ],
        output_matrix=np.array([[1.0, 0.0]]))


class TestDefectiveEigenbasisFallback:
    def test_jordan_block_basis_rejected(self):
        context = sweep_context_for(_jordan_system(), 8)
        bases = build_group_bases(context.structure.groups)
        flags = [basis.diagonalizable for basis in bases]
        assert False in flags, "the Jordan group must be rejected"
        assert True in flags, "the plain group must stay batched"
        rejected = [basis for basis in bases if not basis.diagonalizable]
        assert all(basis.condition > 1e6 for basis in rejected)
        assert all("cond(V)" in basis.reason for basis in rejected)

    def test_fallback_is_per_group_not_per_sweep(self):
        system = _jordan_system()
        analyzer = MftNoiseAnalyzer(system, segments_per_phase=8)
        freqs = np.linspace(1e3, 40e3, 16)
        omegas = 2.0 * np.pi * freqs
        batch = analyzer.context.solve_batched(
            omegas, analyzer._forcing_pairs())
        bases = analyzer.context.spectral_bases
        assert batch.fallback_groups == [
            g for g, basis in enumerate(bases)
            if not basis.diagonalizable]
        assert 0 < len(batch.fallback_groups) < len(bases)
        assert np.all(batch.ok)

    def test_values_and_diagnostics_on_defective_system(self):
        system = _jordan_system()
        analyzer = MftNoiseAnalyzer(system, segments_per_phase=8)
        freqs = np.linspace(1e3, 40e3, 16)
        reference = analyzer.psd_sweep(freqs, solver="mft")
        spectral = analyzer.psd_sweep(freqs, solver="spectral-batch")
        _assert_spectral_equivalent(reference, spectral)
        findings = [f for f in spectral.info["diagnostics"].findings
                    if f.code == "spectral-defective-basis"]
        assert findings, "defective fallback must be surfaced"
        assert all(f.severity.name == "WARNING" for f in findings)
        # One warning per sweep, not one per ω-block.
        chunked = analyzer.psd_sweep(freqs, chunk_size=4)
        assert len(chunked.diagnostics.by_code(
            "spectral-defective-basis")) == len(findings)
